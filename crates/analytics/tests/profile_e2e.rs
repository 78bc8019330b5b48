//! End-to-end exporter tests: a profiled session's CSV and Chrome-trace
//! outputs must agree with the run report it came from.

use rp_analytics::{ovh_breakdown, parse_profile_csv, task_timelines};
use rp_core::{
    BackendKind, BackendSpec, FaultSpec, PilotConfig, RunReport, SimSession, TaskDescription,
    TaskState,
};
use rp_profiler::{Phase, ProfileData};
use rp_sim::SimDuration;

/// A three-backend pilot (Flux ×2, Dragon, PRRTE) with a mixed workload,
/// profiled with 5 s gauge sampling. Failure-free, so every task traverses
/// the pipeline exactly once.
fn profiled_report() -> RunReport {
    let cfg = PilotConfig::new(
        12,
        vec![
            BackendSpec::Flux {
                partitions: 2,
                backfill: true,
            },
            BackendSpec::Dragon { partitions: 1 },
            BackendSpec::Prrte { partitions: 1 },
        ],
    );
    let mut tasks = Vec::new();
    for i in 0..60 {
        tasks.push(TaskDescription::dummy(i, SimDuration::from_secs(20)));
    }
    for i in 60..120 {
        tasks.push(TaskDescription::function(
            i,
            "f",
            SimDuration::from_secs(10),
        ));
    }
    for i in 120..150 {
        let mut t = TaskDescription::dummy(i, SimDuration::from_secs(15));
        t.backend_hint = Some(BackendKind::Prrte);
        tasks.push(t);
    }
    SimSession::with_tasks(cfg, tasks)
        .with_profiling(SimDuration::from_secs(5))
        .run()
}

fn profile(report: &RunReport) -> &ProfileData {
    report.profile.as_ref().expect("session ran with profiling")
}

#[test]
fn event_counts_match_reported_transitions() {
    let report = profiled_report();
    let data = profile(&report);
    assert_eq!(data.dropped, 0, "ring must not overflow in this workload");
    let done = report.done_tasks().count();
    assert_eq!(done, 150);
    let count = |what, ph| data.count(Some("agent"), Some(what), Some(ph));
    assert_eq!(count("NEW", Phase::Instant), report.tasks.len());
    assert_eq!(count("STAGING_INPUT", Phase::Instant), report.tasks.len());
    assert_eq!(count("SUBMITTED", Phase::Instant), report.tasks.len());
    assert_eq!(count("EXECUTING", Phase::Instant), done);
    assert_eq!(count("DONE", Phase::Instant), done);
    assert_eq!(count("FAILED", Phase::Instant), 0);
    // Pilot lifecycle appears exactly once each.
    assert_eq!(count("PILOT_LAUNCHING", Phase::Instant), 1);
    assert_eq!(count("PILOT_ACTIVE", Phase::Instant), 1);
    // The global scheduler served every task: B/E pairs balance.
    assert_eq!(
        data.count(Some("agent.sched"), Some("schedule"), Some(Phase::Begin)),
        data.count(Some("agent.sched"), Some("schedule"), Some(Phase::End)),
    );
    // Backend-side hooks fired: every partition track has events.
    for comp in ["srun", "flux.0", "flux.1", "dragon.0", "prrte.0"] {
        assert!(
            data.count(Some(comp), None, None) > 0,
            "no events on track {comp}"
        );
    }
}

#[test]
fn csv_roundtrip_reconstructs_task_timelines() {
    let report = profiled_report();
    let data = profile(&report);
    let csv = data.csv();
    let rows = parse_profile_csv(&csv).expect("own CSV parses");
    assert_eq!(rows.len(), data.events.len());

    let timelines = task_timelines(&rows);
    assert_eq!(timelines.len(), report.tasks.len());
    // The reconstructed milestones equal the TaskRecord timestamps the run
    // reported, to CSV (microsecond) precision.
    let close = |a: Option<f64>, b: Option<rp_sim::SimTime>| match (a, b) {
        (Some(x), Some(y)) => (x - y.as_secs_f64()).abs() < 1e-6,
        (None, None) => true,
        _ => false,
    };
    for t in &report.tasks {
        let tl = timelines.get(&t.uid.0).expect("task in profile");
        assert!(close(tl.submitted, Some(t.submitted)), "task {}", t.uid);
        assert!(close(tl.staged, t.staged), "task {}", t.uid);
        assert!(close(tl.scheduled, t.scheduled), "task {}", t.uid);
        assert!(
            close(tl.backend_accepted, t.backend_accepted),
            "task {}",
            t.uid
        );
        assert!(close(tl.exec_start, t.exec_start), "task {}", t.uid);
        assert!(close(tl.exec_end, t.exec_end), "task {}", t.uid);
    }
}

#[test]
fn ovh_breakdown_accounts_for_non_busy_time() {
    let report = profiled_report();
    let rows = parse_profile_csv(&profile(&report).csv()).unwrap();
    let breakdown = ovh_breakdown(&task_timelines(&rows));
    assert_eq!(breakdown.tasks, 150);

    // The per-component overheads must sum to end-to-end time minus busy
    // time, within 1 % — first against the profile's own aggregates…
    let non_busy = breakdown.end_to_end_s - breakdown.busy_s;
    let gap = (breakdown.overhead_total() - non_busy).abs();
    assert!(gap <= 0.01 * non_busy, "gap {gap} vs non-busy {non_busy}");

    // …and against what the run report says the tasks experienced.
    let (mut e2e, mut busy) = (0.0, 0.0);
    for t in report.tasks.iter().filter(|t| t.state == TaskState::Done) {
        e2e += t
            .exec_end
            .unwrap()
            .saturating_since(t.submitted)
            .as_secs_f64();
        busy += t.exec_span().unwrap().as_secs_f64();
    }
    let report_non_busy = e2e - busy;
    let gap = (breakdown.overhead_total() - report_non_busy).abs();
    assert!(
        gap <= 0.01 * report_non_busy,
        "gap {gap} vs report non-busy {report_non_busy}"
    );
    // Every component did some work in this pipeline.
    for (name, secs) in breakdown.components() {
        assert!(secs > 0.0, "component {name} shows no time");
    }
}

/// Pull `"key":<digits>` out of a single-event JSON line.
fn int_field(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

/// Pull `"key":"value"` out of a single-event JSON line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// A profiled null campaign on `cfg` under node faults only, at
/// `fault_seed`: reaps hit tasks a serial server is busy with.
fn node_fault_report(cfg: PilotConfig, fault_seed: u64) -> RunReport {
    let tasks: Vec<TaskDescription> = (0..896).map(TaskDescription::null).collect();
    let spec = FaultSpec::parse("nodes=3,crashes=0,hangs=0,window=0..30,downtime=10,retries=4")
        .expect("fault spec parses");
    SimSession::with_tasks(cfg, tasks)
        .with_profiling(SimDuration::from_secs(60))
        .with_faults(spec, fault_seed, 896)
        .run()
}

#[test]
fn chrome_trace_is_balanced_and_monotonic_per_track() {
    // The failure-free pilot, plus node faults that reap the job Flux's
    // start server holds and the task in Dragon's dispatcher.
    let reports = [
        profiled_report(),
        node_fault_report(PilotConfig::flux(4, 1).with_seed(1000), 3),
        node_fault_report(PilotConfig::dragon(4).with_seed(1000), 1),
    ];
    for report in &reports {
        let data = profile(report);
        let doc = data.chrome_trace();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.first(), Some(&"["));
        assert_eq!(lines.last(), Some(&"]"));

        use std::collections::HashMap;
        let mut last_ts: HashMap<i64, i64> = HashMap::new();
        let mut open_spans: HashMap<i64, Vec<String>> = HashMap::new();
        let mut metadata = 0usize;
        let mut events = 0usize;
        for line in &lines[1..lines.len() - 1] {
            let ph = str_field(line, "ph").expect("every event has a phase");
            if ph == "M" {
                metadata += 1;
                continue;
            }
            events += 1;
            let tid = int_field(line, "tid").expect("tid");
            let ts = int_field(line, "ts").expect("ts");
            let name = str_field(line, "name").expect("name").to_string();
            // Timestamps never go backwards within a track.
            let prev = last_ts.insert(tid, ts).unwrap_or(i64::MIN);
            assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
            match ph {
                "B" => open_spans.entry(tid).or_default().push(name),
                "E" => {
                    let top = open_spans
                        .entry(tid)
                        .or_default()
                        .pop()
                        .unwrap_or_else(|| panic!("E without B on track {tid}"));
                    assert_eq!(top, name, "mismatched span pair on track {tid}");
                }
                "i" | "C" => {}
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(
            metadata,
            data.names.len(),
            "one thread_name per interned name"
        );
        assert_eq!(events, data.events.len());
        for (tid, stack) in open_spans {
            assert!(stack.is_empty(), "track {tid} left spans open: {stack:?}");
        }
    }
}

#[test]
fn gauges_respect_capacity_bounds() {
    let report = profiled_report();
    let rows = parse_profile_csv(&profile(&report).csv()).unwrap();
    let gauges: Vec<_> = rows.iter().filter(|r| r.phase == Phase::Gauge).collect();
    assert!(!gauges.is_empty(), "sampler must have fired");
    let ceiling = gauges
        .iter()
        .find(|r| r.what == "SRUN_CEILING")
        .expect("ceiling gauge")
        .detail;
    assert_eq!(ceiling, 112.0);
    for g in &gauges {
        match g.what.as_str() {
            "SRUN_INFLIGHT" => assert!(g.detail <= ceiling, "inflight {} > ceiling", g.detail),
            "QUEUE_DEPTH" | "BUSY_CORES" | "BUSY_GPUS" => {
                assert!(g.detail >= 0.0)
            }
            _ => {}
        }
    }
    // Every backend partition track was sampled.
    for comp in ["flux.0", "flux.1", "dragon.0", "prrte.0"] {
        assert!(
            gauges
                .iter()
                .any(|g| g.comp == comp && g.what == "BUSY_CORES"),
            "no BUSY_CORES samples on {comp}"
        );
    }
    // Utilization actually shows up: some sample caught busy cores > 0.
    assert!(
        gauges
            .iter()
            .any(|g| g.what == "BUSY_CORES" && g.detail > 0.0),
        "no busy sample on any partition"
    );
}
