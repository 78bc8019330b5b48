//! Host-time benchmark of the simulator on four paper cells.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flux1_null|flux1_null_obs|hybrid_dummy|serving_srun|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times reps with tracing off and reports the end-to-end
//! metrics; `--trace 1` runs the layer trace, the recorder pairs, the
//! direct layer drives and the allocation counts, and reports the
//! per-layer metrics. Every rep passes the correctness gates or the
//! program exits 1. The last line of standard output is one JSON object.
//! See `perfbench/README.md` for the metrics and why each workload exists.

mod cell;
mod count_alloc;
mod drive;
mod host;
mod stats;
mod trace;

use cell::{Books, Cell, Model, Recorders, Workload};
use host::HostSpeed;
use rp_core::agent::{AgentMsg, SimAgent};
use rp_sim::Actor;
use stats::{median, quartiles};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::{LayerTimes, Timed, LAYERS};

#[global_allocator]
static ALLOC: count_alloc::Counting = count_alloc::Counting;

/// Fewest timed reps in an untraced run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups timed before each rep, after one untimed set-up.
const SETUPS_PER_REP: usize = 4;
/// Share of an untraced run spent timing the host-speed load, in rounds
/// before every rep.
const HOST_SHARE: f64 = 0.25;
/// Fewest bare/traced pairs and recorder rounds in a traced run.
const MIN_PAIRS: usize = 2;
const MIN_ROUNDS: usize = 3;
/// The documented per-recorder overhead budget.
const RECORDER_BUDGET: f64 = 0.03;

struct Args {
    /// `None` runs every workload, each in its own child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cell::HARNESS_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(if v == "all" {
                    None
                } else {
                    Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?)
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as the result line reports it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one pass measured.
struct Outcome {
    attempted: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The reference rep: the cell run once through `SimSession::run`. Every
/// timed rep must reproduce its books, model digest and artifact hash.
struct Reference {
    books: Books,
    model: Model,
    export_digest: Option<u64>,
}

fn reference(cell: &Cell) -> Result<Reference, String> {
    let report = cell::session(cell).run();
    let books = cell::conservation(cell, &report)?;
    let model = cell::model(&report);
    let export_digest = (cell.recorders != Recorders::NONE)
        .then(|| cell::export(cell.workload.name(), &report).digest);
    Ok(Reference {
        books,
        model,
        export_digest,
    })
}

/// One finished rep.
struct Rep {
    tasks: u64,
    engine: cell::EngineStats,
    /// Host seconds of `run()`, plus serialisation when recorders are on.
    rep_s: f64,
    export: cell::Export,
    /// Allocations and bytes requested during the rep.
    allocs: (u64, u64),
}

/// Set up and run one rep of `cell`, then check it against `reference`.
fn run_rep(
    cell: &Cell,
    reference: &Reference,
    wrap: &dyn Fn(SimAgent) -> Box<dyn Actor<AgentMsg>>,
    export: bool,
) -> Result<Rep, String> {
    let (ready, _) = cell::prepare(cell, wrap);
    let (n0, b0) = count_alloc::counts();
    let t = Instant::now();
    let (report, engine) = ready.run();
    let mut rep_s = t.elapsed().as_secs_f64();
    let mut ex = cell::Export::default();
    if export {
        ex = cell::export(cell.workload.name(), &report);
        rep_s += ex.total_s();
    }
    let (n1, b1) = count_alloc::counts();
    let books = cell::conservation(cell, &report)?;
    if books != reference.books {
        return Err(format!(
            "books {books:?} differ from the reference {:?}",
            reference.books
        ));
    }
    let model = cell::model(&report);
    if model != reference.model {
        return Err(format!(
            "model outputs {model:?} differ from the SimSession reference {:?}",
            reference.model
        ));
    }
    if export && Some(ex.digest) != reference.export_digest {
        return Err("serialised artifacts differ from the reference rep".into());
    }
    Ok(Rep {
        tasks: report.tasks.len() as u64,
        engine,
        rep_s,
        export: ex,
        allocs: (n1 - n0, b1 - b0),
    })
}

fn plain(agent: SimAgent) -> Box<dyn Actor<AgentMsg>> {
    Box::new(agent)
}

/// Peak resident set of this process, in MB, less the host-speed ring,
/// which is resident from before the first rep to the end.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0 - host::RING_MB)
}

fn describe(label: &str, values: &[f64], unit: &str) -> String {
    let (q1, m, q3) = quartiles(values);
    format!(
        "  {label:<16} {m:>14.6} {unit:<8} median of {n}; q1 {q1:.6} q3 {q3:.6}",
        n = values.len()
    )
}

/// Set up sessions back to back and drop them unrun: one untimed, which
/// leaves the heap as a set-up leaves it rather than as a rep does, then
/// `SETUPS_PER_REP` timed. Called before every rep, so the samples spread
/// over the whole run and are all of one kind, whatever a rep costs.
fn setups(cell: &Cell) -> Vec<cell::SetupTimes> {
    cell::prepare(cell, &plain);
    (0..SETUPS_PER_REP)
        .map(|_| cell::prepare(cell, &plain).1)
        .collect()
}

/// Untraced pass: the end-to-end metrics. Every rep, and the set-ups
/// before it, are scaled to the reference host by a host-speed reading
/// taken between the set-ups and the rep, so each figure is paired with
/// the host's speed at the time it was taken. (A reading after the rep
/// as well tracked the rep worse: it follows the drop of the rep's
/// report, which on `flux1_null_obs` frees about 500 MB.)
fn untraced(cell: &Cell, budget: Duration) -> Result<Outcome, String> {
    let host = HostSpeed::new();
    let t0 = Instant::now();
    let reference = reference(cell)?;
    let mut last_rep_s = t0.elapsed().as_secs_f64();
    let export = cell.recorders != Recorders::NONE;
    let start = Instant::now();
    let (mut tps, mut setup, mut slow) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tps_ref, mut setup_ref) = (Vec::new(), Vec::new());
    while tps.len() < MIN_REPS || start.elapsed() < budget {
        let times = setups(cell);
        let s = host.slowdown(HOST_SHARE * last_rep_s);
        let rep = run_rep(cell, &reference, &plain, export)?;
        last_rep_s = rep.rep_s;
        let rate = rep.tasks as f64 / rep.rep_s;
        tps.push(rate);
        tps_ref.push(rate * s);
        setup.extend(times.iter().map(|t| t.total_s));
        setup_ref.extend(times.iter().map(|t| t.total_s / s));
        slow.push(s);
    }
    let b = reference.books;
    let done_frac = b.done as f64 / b.offered as f64;
    let rss = peak_rss_mb()?;
    println!("{}", describe("host slowdown", &slow, "x"));
    println!("  host time, unscaled:");
    println!("{}", describe("tasks_per_s", &tps, "tasks/s"));
    println!("{}", describe("setup_s", &setup, "s"));
    println!("  scaled to the reference host (reported):");
    println!("{}", describe("tasks_per_s", &tps_ref, "tasks/s"));
    let each: Vec<String> = tps_ref.iter().map(|v| format!("{v:.0}")).collect();
    println!("  {:<16} {}", "", each.join(" "));
    println!("{}", describe("setup_s", &setup_ref, "s"));
    println!(
        "  {:<16} {rss:>14.1} MB       VmHWM of this process less the host-speed ring",
        "peak_rss_mb"
    );
    println!(
        "  {:<16} {done_frac:>14.6} ratio    done {} of offered {}; task_fail_frac {:.6} \
         (failed {} canceled {} shed {})",
        "task_done_frac",
        b.done,
        b.offered,
        1.0 - done_frac,
        b.failed,
        b.canceled,
        b.shed
    );
    let mut out = Outcome {
        attempted: tps.len() as u64 + 1,
        metrics: Vec::new(),
    };
    out.push("tasks_per_s", median(&tps_ref), "tasks/s");
    out.push("setup_s", median(&setup_ref), "s");
    out.push("peak_rss_mb", rss, "MB");
    out.push("task_done_frac", done_frac, "ratio");
    Ok(out)
}

/// Budget verdict: unresolved when the spread between rounds exceeds the
/// gap between the median and the budget.
fn verdict(values: &[f64], budget: f64) -> &'static str {
    let (q1, m, q3) = quartiles(values);
    if q3 - q1 > (m - budget).abs() {
        "unresolved"
    } else if m < budget {
        "met"
    } else {
        "violated"
    }
}

/// Traced pass: the per-layer metrics.
fn traced(cell: &Cell, budget: Duration) -> Result<Outcome, String> {
    let host = HostSpeed::new();
    let mut slow = Vec::new();
    let reference = reference(cell)?;
    let export = cell.recorders != Recorders::NONE;
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut out = Outcome {
        attempted: 1,
        metrics: Vec::new(),
    };

    // Phase 1: bare and traced reps, order alternated per pair.
    let trace_budget = budget.mul_f64(if export { 0.6 } else { 0.85 });
    let mut bare: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut layers = LayerTimes::default();
    let mut first_layers: Option<LayerTimes> = None;
    while bare.len() < MIN_PAIRS || start.elapsed() < trace_budget {
        setup.extend(setups(cell));
        slow.push(host.slowdown(0.0));
        for &timed in if bare.len().is_multiple_of(2) {
            &[false, true]
        } else {
            &[true, false]
        } {
            if !timed {
                bare.push(run_rep(cell, &reference, &plain, export)?);
                continue;
            }
            let times = Rc::new(RefCell::new(LayerTimes::default()));
            let wrap = |agent: SimAgent| -> Box<dyn Actor<AgentMsg>> {
                Box::new(Timed::new(agent, Rc::clone(&times)))
            };
            traced.push(run_rep(cell, &reference, &wrap, export)?);
            let t = *times.borrow();
            match &first_layers {
                Some(f) if f.calls != t.calls => {
                    return Err("layer call counts differ between traced reps".into())
                }
                Some(_) => {}
                None => first_layers = Some(t),
            }
            layers.add(&t);
        }
    }
    let all: Vec<&Rep> = bare.iter().chain(&traced).collect();
    out.attempted += all.len() as u64;
    let first = &bare[0];
    if let Some(r) = all
        .iter()
        .find(|r| r.engine.delivered != first.engine.delivered)
    {
        return Err(format!(
            "event counts differ between reps: {} vs {}",
            r.engine.delivered, first.engine.delivered
        ));
    }
    if let Some(r) = bare.iter().find(|r| r.allocs != first.allocs) {
        return Err(format!(
            "allocation counts differ between reps: {:?} vs {:?}",
            r.allocs, first.allocs
        ));
    }
    let tasks = first.tasks as f64;
    let delivered = first.engine.delivered as f64;
    let engine_ns: f64 = traced.iter().map(|r| r.engine.engine_s * 1e9).sum();
    let handle_ns = layers.handle_ns() as f64;
    let reps = traced.len() as f64;
    let self_ns = engine_ns - handle_ns;
    out.push("sim.self_ns_per_event", self_ns / (delivered * reps), "ns");
    out.push("sim.share", self_ns / engine_ns, "ratio");
    out.push("sim.events_per_task", delivered / tasks, "events/task");
    out.push(
        "sim.peak_queue_depth",
        first.engine.peak_queue as f64,
        "count",
    );
    let calls = first_layers.expect("at least one traced rep").calls;
    for (i, name) in LAYERS.iter().enumerate() {
        let ns = layers.ns[i] as f64;
        let per_call = if calls[i] == 0 {
            0.0
        } else {
            ns / layers.calls[i] as f64
        };
        out.push(format!("{name}.calls"), calls[i] as f64, "count");
        out.push(format!("{name}.ns_per_call"), per_call, "ns");
        out.push(format!("{name}.share"), ns / engine_ns, "ratio");
    }
    let overhead: Vec<f64> = bare
        .iter()
        .zip(&traced)
        .map(|(b, t)| t.engine.engine_s / b.engine.engine_s - 1.0)
        .collect();
    out.push("trace.overhead_frac", median(&overhead), "ratio");

    let col =
        |f: &dyn Fn(&Rep) -> f64| -> f64 { median(&all.iter().map(|r| f(r)).collect::<Vec<_>>()) };
    out.push("export.profiler_s", col(&|r| r.export.profiler_s), "s");
    out.push("export.metrics_s", col(&|r| r.export.metrics_s), "s");
    out.push("export.telemetry_s", col(&|r| r.export.telemetry_s), "s");
    out.push("export.lineage_s", col(&|r| r.export.lineage_s), "s");
    out.push("export.bytes", first.export.bytes as f64, "bytes");
    out.push(
        "alloc.per_task",
        first.allocs.0 as f64 / tasks,
        "allocs/task",
    );
    out.push(
        "alloc.bytes_per_task",
        first.allocs.1 as f64 / tasks,
        "bytes/task",
    );
    let part = |f: &dyn Fn(&cell::SetupTimes) -> f64| -> f64 {
        median(&setup.iter().map(f).collect::<Vec<_>>())
    };
    out.push("workloads.gen_s", part(&|s| s.gen_s), "s");
    out.push("serving.plan_s", part(&|s| s.plan_s), "s");
    out.push("agent.new_s", part(&|s| s.agent_new_s), "s");
    out.push("host.slowdown", median(&slow), "x");

    // Phase 2, on the recorder workload only: each recorder alone on the
    // bare cell, order alternated per round, paired against bare.
    let singles = [
        (
            "profiler",
            Recorders {
                profiler: true,
                ..Recorders::NONE
            },
        ),
        (
            "metrics",
            Recorders {
                metrics: true,
                ..Recorders::NONE
            },
        ),
        (
            "telemetry",
            Recorders {
                telemetry: true,
                ..Recorders::NONE
            },
        ),
        (
            "lineage",
            Recorders {
                lineage: true,
                ..Recorders::NONE
            },
        ),
    ];
    let mut fracs: Vec<Vec<f64>> = vec![Vec::new(); singles.len()];
    if export {
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || start.elapsed() < budget {
            let mut order: Vec<Option<usize>> = std::iter::once(None)
                .chain((0..singles.len()).map(Some))
                .collect();
            if rounds % 2 == 1 {
                order.reverse();
            }
            let mut secs = [0.0; 5];
            for which in order {
                let recorders = which.map_or(Recorders::NONE, |i| singles[i].1);
                let c = Cell {
                    workload: Workload::Flux1Null,
                    recorders,
                    ..*cell
                };
                let rep = run_rep(&c, &reference, &plain, false)?;
                secs[which.map_or(0, |i| i + 1)] = rep.rep_s;
                out.attempted += 1;
            }
            for (i, f) in fracs.iter_mut().enumerate() {
                f.push(secs[i + 1] / secs[0] - 1.0);
            }
            rounds += 1;
        }
    }
    for ((name, _), f) in singles.iter().zip(&fracs) {
        let m = median(f);
        out.push(format!("{name}.overhead_frac"), m, "ratio");
        if export {
            let (q1, _, q3) = quartiles(f);
            println!(
                "  {name}.overhead_frac {m:+.4} (q1 {q1:+.4} q3 {q3:+.4}, {} rounds) \
                 vs budget {RECORDER_BUDGET}: {}",
                f.len(),
                verdict(f, RECORDER_BUDGET)
            );
        }
    }

    // Phase 3: direct layer drives, each on the workload its layer is
    // paired with (0 elsewhere): their inputs do not depend on the cell.
    let backfill = if cell.workload == Workload::HybridDummy {
        drive::backfill_select_ns(cell.seed)?
    } else {
        0.0
    };
    out.push("fluxrt.backfill_select_ns", backfill, "ns");
    let alloc_free = if cell.workload == Workload::Flux1Null {
        drive::alloc_free_ns(cell.seed)?
    } else {
        0.0
    };
    out.push("platform.alloc_free_ns", alloc_free, "ns");

    let m = reference.model;
    out.push("model.makespan_s", m.makespan_s, "s");
    out.push("model.tasks_per_s", m.tasks_per_s, "tasks/s");
    out.push("model.utilization", m.utilization, "ratio");
    out.push("model.done", m.done as f64, "count");
    out.push("serving.shed", m.shed as f64, "count");
    out.push("serving.ttl_p99_s", m.ttl_p99_s, "s");
    println!(
        "  {} bare + {} traced reps; model digest {:016x}",
        bare.len(),
        traced.len(),
        m.digest
    );
    for mt in &out.metrics {
        println!("  {:<28} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    Ok(out)
}

/// Run every workload in a child process of its own, so each peak RSS
/// belongs to one workload, and sum up.
fn run_all(args: &Args, argv0: &str) -> ExitCode {
    let exe = std::env::current_exe().unwrap_or_else(|_| argv0.into());
    let passes: &[&str] = if args.trace { &["0", "1"] } else { &["0"] };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut lines = Vec::new();
    for w in Workload::ALL {
        for pass in passes {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--trace", pass])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output();
            let text = out
                .as_ref()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            print!("{text}");
            let last = text.lines().last().unwrap_or("").to_string();
            let ok = out.as_ref().is_ok_and(|o| o.status.success())
                && last.starts_with("{\"correct\": true");
            correct &= ok;
            let field = |key: &str| -> u64 {
                last.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            };
            attempted += field("attempted");
            failed += if ok { field("failed") } else { 1 };
            lines.push(format!("\"{}.trace{pass}\": {last}", w.name()));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args, &argv[0]);
    };
    let cell = Cell::new(workload, args.seed);
    println!(
        "perfbench workload={} seed={} serving_seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        cell.serving_seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        traced(&cell, budget)
    } else {
        untraced(&cell, budget)
    };
    match result {
        Ok(out) => {
            println!("{}", result_line(true, out.attempted, 0, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
