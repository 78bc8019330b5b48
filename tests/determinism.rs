//! Determinism golden tests: the byte-identical-report guarantee that
//! gates every hot-path optimization in this repo.
//!
//! Each backend runs the same small campaign twice with the same seed;
//! the runs must agree on the engine's delivered-event count, the final
//! sim time, and the *entire* rendered OpenMetrics snapshot (every
//! counter, gauge, and histogram bucket — any nondeterministic iteration
//! order or dropped event shows up here). A third run with a different
//! seed must differ, which guards against the seed being silently unused.

use radical_rs::core::{
    BackendKind, BackendSpec, FailureInjection, FaultSpec, PilotConfig, RoutingPolicy, SimSession,
};
use radical_rs::sim::{SimDuration, SimTime};
use radical_rs::workloads::{
    dummy_workload, impeccable_campaign, mixed_workload, null_workload, task_count,
    ImpeccableParams,
};
use std::fmt::Write as _;

const NODES: u32 = 4;

/// A chaos spec exercising every fault kind inside the dummy campaign's
/// makespan, with recovery enabled so the injected work actually re-runs.
const CHAOS_SPEC: &str =
    "nodes=1,crashes=1,hangs=2,window=40..240,downtime=60,restart=15,watchdog=30,retries=4";

/// Run one seeded campaign and distill it to the three comparands.
fn fingerprint(cfg: PilotConfig) -> (u64, SimTime, String) {
    let report = SimSession::with_tasks(cfg, null_workload(NODES))
        .with_metrics(SimDuration::from_secs(60))
        .run();
    let snap = report.metrics.expect("metrics attached");
    let delivered = snap
        .counter("rp_engine_events_total")
        .expect("engine stats folded into the snapshot");
    (delivered, report.end, snap.openmetrics())
}

fn configs(seed: u64) -> [(&'static str, PilotConfig); 4] {
    [
        ("srun", PilotConfig::srun(NODES).with_seed(seed)),
        ("flux", PilotConfig::flux(NODES, 2).with_seed(seed)),
        ("dragon", PilotConfig::dragon(NODES).with_seed(seed)),
        ("prrte", PilotConfig::prrte(NODES).with_seed(seed)),
    ]
}

/// Same seed ⇒ identical delivered count, final time, and OpenMetrics
/// text, for every backend.
#[test]
fn same_seed_is_byte_identical_per_backend() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let (da, ta, ma) = fingerprint(a);
        let (db, tb, mb) = fingerprint(b);
        assert_eq!(da, db, "{name}: delivered-event count must match");
        assert_eq!(ta, tb, "{name}: final sim time must match");
        assert_eq!(ma, mb, "{name}: OpenMetrics text must be byte-identical");
    }
}

/// A different seed must change the trajectory — otherwise the clock or
/// rng is silently unused and the golden test above proves nothing.
#[test]
fn different_seed_differs() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(43)) {
        let fa = fingerprint(a);
        let fb = fingerprint(b);
        assert_ne!(fa, fb, "{name}: seed 42 vs 43 must produce different runs");
    }
}

/// Fingerprint of a faulted campaign: engine stats, the full OpenMetrics
/// text (fault/recovery counters included), and the lineage JSONL — the
/// complete on-disk surface the harness emits for a chaos run.
fn chaos_fingerprint(cfg: PilotConfig, fault_seed: u64) -> (u64, SimTime, String, String) {
    let tasks = dummy_workload(NODES, SimDuration::from_secs(90));
    let hint = tasks.len() as u64;
    let report = SimSession::with_tasks(cfg, tasks)
        .with_metrics(SimDuration::from_secs(60))
        .with_lineage()
        .with_faults(
            FaultSpec::parse(CHAOS_SPEC).expect("chaos spec parses"),
            fault_seed,
            hint,
        )
        .run();
    let snap = report.metrics.expect("metrics attached");
    let delivered = snap
        .counter("rp_engine_events_total")
        .expect("engine stats folded into the snapshot");
    let lineage = report.lineage.expect("lineage attached").to_jsonl();
    (delivered, report.end, snap.openmetrics(), lineage)
}

/// Same workload seed + same fault seed ⇒ byte-identical metrics text and
/// lineage JSONL, for every backend — the chaos plane draws all its
/// randomness up front from its own stream, so replay is exact.
#[test]
fn same_fault_seed_is_byte_identical_per_backend() {
    for ((name, a), (_, b)) in configs(42).into_iter().zip(configs(42)) {
        let fa = chaos_fingerprint(a, 7);
        let fb = chaos_fingerprint(b, 7);
        assert!(
            fa.2.contains("rp_faults_injected_total"),
            "{name}: the plan must actually fire inside the campaign"
        );
        assert!(
            fa.3.contains("\"ev\":\"fault\""),
            "{name}: lineage must carry the fault events"
        );
        assert_eq!(
            fa, fb,
            "{name}: same fault seed must replay byte-identically"
        );
    }
}

/// A different fault seed must realize a different plan — otherwise the
/// seed is silently unused and the golden above proves nothing.
#[test]
fn different_fault_seed_differs() {
    for (name, cfg) in configs(42) {
        let fa = chaos_fingerprint(cfg.clone(), 7);
        let fb = chaos_fingerprint(cfg, 8);
        assert_ne!(fa, fb, "{name}: fault seed 7 vs 8 must steer the plan");
    }
}

/// An inactive fault spec (no faults requested) must leave the run
/// untouched: byte-identical to a session that never heard of chaos.
/// This is the faults-off zero-cost guarantee the hot path relies on.
#[test]
fn inactive_fault_plan_is_byte_identical_to_baseline() {
    for (name, cfg) in configs(42) {
        let (da, ta, ma) = fingerprint(cfg.clone());
        let spec = FaultSpec::parse("").expect("empty spec is the inactive default");
        let report = SimSession::with_tasks(cfg, null_workload(NODES))
            .with_metrics(SimDuration::from_secs(60))
            .with_faults(spec, 7, 64)
            .run();
        let snap = report.metrics.expect("metrics attached");
        let db = snap
            .counter("rp_engine_events_total")
            .expect("engine stats folded into the snapshot");
        assert_eq!(da, db, "{name}: faults-off must not change event count");
        assert_eq!(
            ta, report.end,
            "{name}: faults-off must not change end time"
        );
        assert_eq!(
            ma,
            snap.openmetrics(),
            "{name}: faults-off must not register chaos counters or shift metrics"
        );
    }
}

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over every per-task record (its `Debug` rendering, in report
/// order) followed by the full OpenMetrics text and, when the session
/// records lineage, the lineage JSONL.
fn records_and_metrics_digest(session: SimSession) -> u64 {
    let report = session.with_metrics(SimDuration::from_secs(60)).run();
    let mut text = String::new();
    for rec in &report.tasks {
        let _ = writeln!(text, "{rec:?}");
    }
    text.push_str(&report.metrics.expect("metrics attached").openmetrics());
    if let Some(lineage) = &report.lineage {
        text.push_str(&lineage.to_jsonl());
    }
    fnv1a(&text)
}

/// FNV-1a over every exported observability artifact of a run with all
/// four recorders attached: the profile CSV, the Chrome trace, the
/// OpenMetrics text, the lineage JSONL and the telemetry time-series and
/// flight-recorder JSONL.
fn observability_digest(session: SimSession) -> u64 {
    let period = SimDuration::from_secs(60);
    let report = session
        .with_profiling(period)
        .with_metrics(period)
        .with_telemetry(period)
        .with_lineage()
        .run();
    let profile = report.profile.expect("profile attached");
    let telemetry = report.telemetry.expect("telemetry attached");
    let mut text = profile.csv();
    text.push_str(&profile.chrome_trace());
    text.push_str(&report.metrics.expect("metrics attached").openmetrics());
    text.push_str(&report.lineage.expect("lineage attached").to_jsonl());
    text.push_str(&telemetry.timeseries_jsonl());
    text.push_str(&telemetry.flight_recorder_jsonl());
    fnv1a(&text)
}

/// Assert a table of `(cell, session)` rows against committed digests,
/// reporting every row's digest on any mismatch so a deliberate model
/// change can update the whole table from one failure message.
fn assert_digests<const N: usize>(
    cells: [(&str, SimSession); N],
    committed: [u64; N],
    digest: fn(SimSession) -> u64,
) {
    let (mut got, mut want) = (String::new(), String::new());
    for ((name, session), committed) in cells.into_iter().zip(committed) {
        let _ = writeln!(got, "{name}: {:#018x}", digest(session));
        let _ = writeln!(want, "{name}: {committed:#018x}");
    }
    assert_eq!(got, want, "digest table drifted");
}

/// Cross-commit golden for the EASY-backfill path. The run-vs-run tests
/// above cannot catch a change that is deterministic but different, and
/// `baselines/metrics.txt` covers a null cell that never blocks a Flux
/// queue head. These two cells do:
/// - hybrid Flux+Dragon with 360 s payloads keeps every Flux head blocked
///   behind a full pool of single-core jobs;
/// - the IMPECCABLE campaign at 64 nodes on one Flux instance mixes
///   widths, so narrow jobs backfill ahead of a blocked wide head once
///   its shadow time is known (the `bench_hotpaths --quick` cell).
///
/// A scheduling change that is meant to be a pure speed-up must leave
/// both digests as they are; a deliberate model change updates them.
#[test]
fn backfill_cells_match_committed_digests() {
    assert_digests(
        [
            (
                "hybrid",
                SimSession::with_tasks(
                    PilotConfig::flux_dragon(16, 4).with_seed(1000),
                    mixed_workload(16, SimDuration::from_secs(360)),
                ),
            ),
            (
                "impeccable",
                SimSession::new(
                    PilotConfig::flux(64, 1).with_seed(31),
                    Box::new(impeccable_campaign(ImpeccableParams::for_nodes(64))),
                ),
            ),
        ],
        [0xcb91_4704_71e2_5e01, 0x72c6_7fac_024e_41b4],
        records_and_metrics_digest,
    );
}

/// A dummy campaign under [`CHAOS_SPEC`] (node fail/restore, a backend
/// crash with restart, hangs) with lineage attached, so the digest also
/// covers every fault event and its recovery chain.
fn chaos_cell(cfg: PilotConfig) -> SimSession {
    let tasks = dummy_workload(NODES, SimDuration::from_secs(90));
    let hint = tasks.len() as u64;
    SimSession::with_tasks(cfg, tasks)
        .with_lineage()
        .with_faults(
            FaultSpec::parse(CHAOS_SPEC).expect("chaos spec parses"),
            7,
            hint,
        )
}

/// Every path between the agent and its backends: srun's direct launch
/// path, PRRTE's RP-side placement, Dragon's flow-control window,
/// sub-agent pipelines, injected instance kills, cancellation at each
/// backend's queue, and the chaos plane's node, crash and hang faults per
/// instance kind.
fn glue_cells() -> [(&'static str, SimSession); 11] {
    let dummy = |nodes: u32| dummy_workload(nodes, SimDuration::from_secs(90));
    let three_kinds = PilotConfig::new(
        8,
        vec![
            BackendSpec::Flux {
                partitions: 1,
                backfill: true,
            },
            BackendSpec::Dragon { partitions: 1 },
            BackendSpec::Prrte { partitions: 1 },
        ],
    )
    .with_routing(RoutingPolicy::LeastLoaded)
    .with_seed(1000);
    let kill = |at: u64, kind: BackendKind, partition: u32| FailureInjection {
        at: SimTime::from_secs(at),
        kind,
        partition,
    };
    [
        (
            "srun null",
            SimSession::with_tasks(
                PilotConfig::srun(NODES).with_seed(1000),
                null_workload(NODES),
            ),
        ),
        (
            "prrte dummy",
            SimSession::with_tasks(PilotConfig::prrte(NODES).with_seed(1000), dummy(NODES)),
        ),
        (
            "dragon dummy",
            SimSession::with_tasks(PilotConfig::dragon(NODES).with_seed(1000), dummy(NODES)),
        ),
        (
            "flux+dragon sub-agents",
            SimSession::with_tasks(
                PilotConfig::flux_dragon(16, 4)
                    .with_sub_agents(true)
                    .with_seed(1000),
                mixed_workload(16, SimDuration::from_secs(60)),
            ),
        ),
        (
            "flux+dragon kills",
            SimSession::with_tasks(
                PilotConfig::flux_dragon(8, 2).with_seed(1000),
                mixed_workload(8, SimDuration::from_secs(90)),
            )
            .inject_failure(kill(150, BackendKind::Flux, 1))
            .inject_failure(kill(200, BackendKind::Dragon, 0)),
        ),
        (
            "least-loaded cancel",
            SimSession::with_tasks(three_kinds, dummy(8)).cancel_at(
                SimTime::from_secs(60),
                (0..task_count(8)).step_by(3).collect(),
            ),
        ),
        (
            "srun cancel",
            SimSession::with_tasks(PilotConfig::srun(NODES).with_seed(1000), dummy(NODES))
                .cancel_at(
                    SimTime::from_secs(100),
                    (0..task_count(NODES)).step_by(2).collect(),
                ),
        ),
        (
            "chaos flux",
            chaos_cell(PilotConfig::flux(NODES, 2).with_seed(1000)),
        ),
        (
            "chaos dragon",
            chaos_cell(PilotConfig::dragon(NODES).with_seed(1000)),
        ),
        (
            "chaos prrte",
            chaos_cell(PilotConfig::prrte(NODES).with_seed(1000)),
        ),
        (
            "chaos srun",
            chaos_cell(PilotConfig::srun(NODES).with_seed(1000)),
        ),
    ]
}

/// Cross-commit golden for the agent-backend glue: per-task records,
/// OpenMetrics and (chaos cells) lineage of every [`glue_cells`] row. A
/// refactor of that glue must leave every digest as it is; a deliberate
/// model change updates them.
#[test]
fn glue_cells_match_committed_digests() {
    assert_digests(
        glue_cells(),
        [
            0x56c5_93f1_d073_2e85,
            0xd771_6668_a2a5_0d40,
            0x6b81_7a10_94a2_0e05,
            0x7ce3_0539_c4f7_0d67,
            0x9804_0181_ece9_6c98,
            0xd23f_a7b5_b85f_7114,
            0x7f42_a91e_aaa0_3388,
            0x9cfb_5657_2ded_af26,
            0x9b82_7058_1f68_4d69,
            0xf304_7902_cb1c_0a53,
            0xa8ef_2563_53bc_7dec,
        ],
        records_and_metrics_digest,
    );
}

/// Cross-commit golden for what the recorders export from the same
/// cells: with profiler, metrics, telemetry and lineage all attached,
/// every exported byte (profile CSV and Chrome trace included) must stay
/// as it is under a refactor of where the hooks sit.
#[test]
fn glue_cells_match_committed_observability_digests() {
    assert_digests(
        glue_cells(),
        [
            0x35b4_ed8a_0190_fda0,
            0x85ad_947c_ccae_b945,
            0x527a_fab9_4a7b_8605,
            0xeb88_a99b_f0c5_70fa,
            0x8387_4af5_148d_4e49,
            0x3e27_e10f_5dec_f61a,
            0xf870_5a24_5d90_6616,
            0x515e_1e97_fad9_9479,
            0xa4af_592d_7720_c678,
            0x9e42_4e54_2f9c_524e,
            0x86af_2202_7fa5_4b53,
        ],
        observability_digest,
    );
}

/// The harness applies the same fault plan to every rep and instruments
/// rep 0 regardless of worker-thread count, so a chaos run's lineage
/// JSONL (fault events included) is byte-identical at any `--jobs` value.
#[test]
fn fault_runs_are_identical_at_any_jobs_count() {
    let dir = std::env::temp_dir().join(format!("rp-chaos-jobs-{}", std::process::id()));
    let run = |jobs: usize| -> String {
        let (_, reports) = rp_bench::repeat_static(
            "chaos jobs invariance",
            4,
            |seed| PilotConfig::flux(NODES, 2).with_seed(seed),
            || dummy_workload(NODES, SimDuration::from_secs(90)),
            &rp_bench::RunOpts {
                jobs,
                lineage_dir: Some(dir.clone()),
                faults: Some((FaultSpec::parse(CHAOS_SPEC).expect("chaos spec parses"), 7)),
                ..rp_bench::RunOpts::default()
            },
        );
        assert!(reports[0].lineage.is_some());
        reports[0].lineage.as_ref().unwrap().to_jsonl()
    };
    let sequential = run(1);
    assert!(
        sequential.contains("\"ev\":\"fault\""),
        "the plan must fire so the guarantee covers fault events"
    );
    for jobs in [2, 4, 8] {
        assert_eq!(run(jobs), sequential, "jobs={jobs} must not change rep 0");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
