//! Ablation experiments beyond the paper's figures (DESIGN.md §7):
//!
//! 1. **Scheduler policy**: FCFS vs EASY backfill on the heterogeneous
//!    IMPECCABLE mix — quantifies what the richer Flux policy buys.
//! 2. **Router**: task-type-aware routing vs all-to-Flux vs all-to-Dragon
//!    on the mixed workload — the §3.1 mapping claim.
//! 3. **RP dispatch-cost sweep**: scales the agent/adapter service times to
//!    locate the task-management ceiling the hybrid experiment hits.

use rp_analytics::digest;
use rp_bench::write_results;
use rp_core::{BackendKind, BackendSpec, PilotConfig, SimSession, TaskDescription};
use rp_platform::Calibration;
use rp_sim::SimDuration;
use rp_workloads::{impeccable_campaign, mixed_workload, ImpeccableParams};
use std::fmt::Write as _;

fn campaign_params() -> ImpeccableParams {
    let mut p = ImpeccableParams::for_nodes(64);
    p.iterations = 4;
    p.dock_task_nodes = 8;
    p.score_task_nodes = 16;
    p.score_big_nodes = 32;
    p.esmacs_task_nodes = 8;
    p.infer_task_nodes = 4;
    p.ampl_nodes = 8;
    p
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = rp_bench::RunOpts::from_args(&args);
    let mut text = String::from("Ablation experiments (DESIGN.md §7)\n\n");

    // ---- 1. FCFS vs EASY backfill -----------------------------------------
    // (a) a width-heterogeneous synthetic mix where head-of-line blocking
    //     bites, and (b) the IMPECCABLE campaign mix.
    text.push_str("1) Flux scheduling policy (64 nodes):\n");
    let hetero_mix = || {
        let mut tasks = Vec::new();
        let mut uid = 0u64;
        for batch in 0..12 {
            // One machine-wide MPI job, then a burst of narrow tasks that
            // FCFS would hold behind it.
            tasks.push(TaskDescription {
                uid: rp_core::TaskId(uid),
                kind: rp_core::TaskKind::Executable {
                    name: "wide_mpi".into(),
                },
                req: rp_platform::ResourceRequest::mpi(64, 56, 0),
                duration: SimDuration::from_secs(300),
                backend_hint: None,
                label: format!("wide.{batch}"),
            });
            uid += 1;
            for _ in 0..200 {
                tasks.push(TaskDescription::dummy(uid, SimDuration::from_secs(30)));
                uid += 1;
            }
        }
        tasks
    };
    for backfill in [false, true] {
        let mk_cfg = |seed| {
            PilotConfig::new(
                64,
                vec![BackendSpec::Flux {
                    partitions: 1,
                    backfill,
                }],
            )
            .with_seed(seed)
        };
        let name = if backfill { "easy-backfill" } else { "fcfs" };
        let report = SimSession::with_tasks(mk_cfg(5), hetero_mix()).run();
        let d = digest(&report);
        let line = format!(
            "   hetero-mix {:<14} makespan={:>8.0}s util={:>5.1}% done={}\n",
            name,
            d.makespan_s,
            d.util_cores * 100.0,
            d.done
        );
        print!("{line}");
        let _ = write!(text, "{line}");

        let report =
            SimSession::new(mk_cfg(5), Box::new(impeccable_campaign(campaign_params()))).run();
        let d = digest(&report);
        let line = format!(
            "   impeccable {:<14} makespan={:>8.0}s util={:>5.1}% done={}\n",
            name,
            d.makespan_s,
            d.util_cores * 100.0,
            d.done
        );
        print!("{line}");
        let _ = write!(text, "{line}");
    }

    // ---- 2. Router ablation ---------------------------------------------
    text.push_str("\n2) Backend routing on the mixed workload (16 nodes):\n");
    let mixed = || mixed_workload(16, SimDuration::from_secs(360));
    let runs: Vec<(&str, PilotConfig, Vec<TaskDescription>)> = vec![
        (
            "type-aware (flux+dragon)",
            PilotConfig::flux_dragon(16, 4).with_seed(5),
            mixed(),
        ),
        (
            "all-to-flux",
            PilotConfig::flux(16, 8).with_seed(5),
            // Functions fall back to Flux wrapper processes.
            mixed(),
        ),
        (
            "all-to-dragon",
            PilotConfig::dragon(16).with_seed(5),
            // Executables run in Dragon spawn mode.
            mixed()
                .into_iter()
                .map(|mut t| {
                    t.backend_hint = Some(BackendKind::Dragon);
                    t
                })
                .collect(),
        ),
    ];
    for (label, cfg, tasks) in runs {
        let report = SimSession::with_tasks(cfg, tasks).run();
        let d = digest(&report);
        let line = format!(
            "   {:<26} thr_avg={:>6.1}/s peak={:>5.0} util={:>5.1}% makespan={:>7.0}s\n",
            label,
            d.thr_avg,
            d.thr_peak,
            d.util_cores * 100.0,
            d.makespan_s
        );
        print!("{line}");
        let _ = write!(text, "{line}");
    }

    // ---- 3. RP dispatch-cost sweep --------------------------------------
    text.push_str("\n3) RP task-management cost sweep (hybrid peak, 64 nodes, 16+16 instances):\n");
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let mut cal = Calibration::frontier();
        cal.rp_flux_adapter = cal.rp_flux_adapter.scaled(scale);
        cal.rp_dragon_adapter = cal.rp_dragon_adapter.scaled(scale);
        cal.rp_watcher = cal.rp_watcher.scaled(scale);
        cal.rp_sched_base_s *= scale;
        cal.rp_sched_per_partition_s *= scale;
        cal.rp_sched_per_node_s *= scale;
        let cfg = PilotConfig::flux_dragon(64, 16)
            .with_calibration(cal)
            .with_seed(5);
        let report = SimSession::with_tasks(cfg, mixed_workload(64, SimDuration::ZERO)).run();
        let d = digest(&report);
        let line = format!(
            "   rp-cost x{scale:<4} peak={:>6.0} tasks/s  avg={:>6.1}\n",
            d.thr_peak, d.thr_avg
        );
        print!("{line}");
        let _ = write!(text, "{line}");
    }
    text.push_str(
        "\n   (peak falls as RP-side costs grow => the hybrid ceiling is RP's\n    task-management path, matching the paper's attribution)\n",
    );

    // ---- 4. Nested Flux hierarchy sweep ----------------------------------
    // Drives the FluxTreeSim machine directly: flat single instance vs
    // nested trees of increasing depth/fanout over the same 16 nodes.
    text.push_str("\n4) Nested Flux instance trees (16 nodes, null tasks):\n");
    for (depth, fanout) in [(0u32, 1u32), (1, 4), (1, 16), (2, 4)] {
        let rate = tree_null_rate(16, depth, fanout, 3000);
        let line = format!(
            "   depth={depth} fanout={fanout:<3} leaves={:<3} launch rate {:>7.1} tasks/s\n",
            (fanout.pow(depth)).max(1),
            rate
        );
        print!("{line}");
        let _ = write!(text, "{line}");
    }
    text.push_str(
        "   (parallel subtree ingest raises throughput until hop latency and\n    partition width eat the gains — the flux_n trade-off, nested form)\n",
    );

    // ---- 5. Sub-agents vs global agent scheduler --------------------------
    text.push_str("\n5) Sub-agents (one pipeline per partition) vs global scheduler:\n");
    for (nodes, k) in [(16u32, 8u32), (64, 16), (256, 64)] {
        for sub in [false, true] {
            let (row, _) = rp_bench::repeat_static(
                &format!(
                    "{} n={nodes} k={k}",
                    if sub { "sub-agents" } else { "global    " }
                ),
                2,
                move |seed| {
                    PilotConfig::flux(nodes, k)
                        .with_sub_agents(sub)
                        .with_seed(seed)
                },
                move || {
                    (0..(nodes as u64 * 56))
                        .map(TaskDescription::null)
                        .collect()
                },
                &opts,
            );
            let line = format!(
                "   {:<22} thr_avg={:>7.1}/s peak={:>6.0}\n",
                row.label, row.thr_avg, row.thr_peak
            );
            print!("{line}");
            let _ = write!(text, "{line}");
        }
    }
    text.push_str(
        "   (per-partition pipelines remove the global agent-scheduler\n    serialization — the paper's sub-agent design, §4.1.2)\n",
    );

    write_results("exp_ablations", &text, &[]);
}

/// Launch rate of a nested Flux tree on null tasks, driven directly.
fn tree_null_rate(nodes: u32, depth: u32, fanout: u32, n_tasks: u64) -> f64 {
    use rp_fluxrt::{EasyBackfill, FluxTreeSim, JobId, JobSpec, TreeToken};
    use rp_platform::Allocation;
    use rp_sim::Action;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};

    let alloc = Allocation {
        spec: rp_platform::frontier().node,
        first: 0,
        count: nodes,
    };
    let mut tree = FluxTreeSim::balanced(
        alloc,
        &Calibration::frontier(),
        depth,
        fanout,
        || Box::new(EasyBackfill::default()),
        17,
    );
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut tokens: HashMap<u64, TreeToken> = HashMap::new();
    let mut seq = 0u64;
    let mut starts: Vec<f64> = Vec::new();
    let sink = |acts: Vec<Action<TreeToken>>,
                now: u64,
                heap: &mut BinaryHeap<Reverse<(u64, u64)>>,
                tokens: &mut HashMap<u64, TreeToken>,
                seq: &mut u64,
                starts: &mut Vec<f64>| {
        for a in acts {
            match a {
                Action::Timer { after, token } => {
                    heap.push(Reverse((now + after.as_micros(), *seq)));
                    tokens.insert(*seq, token);
                    *seq += 1;
                }
                Action::Started(_) => starts.push(now as f64 / 1e6),
                _ => {}
            }
        }
    };
    let acts = tree.boot();
    sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
    for i in 0..n_tasks {
        let acts = tree.submit(
            rp_sim::SimTime::ZERO,
            JobSpec {
                id: JobId(i),
                req: rp_platform::ResourceRequest::single(1, 0),
                duration: rp_sim::SimDuration::ZERO,
            },
        );
        sink(acts, 0, &mut heap, &mut tokens, &mut seq, &mut starts);
    }
    while let Some(Reverse((at, key))) = heap.pop() {
        let tok = tokens.remove(&key).expect("token");
        let acts = tree.on_token(rp_sim::SimTime::from_micros(at), tok);
        sink(acts, at, &mut heap, &mut tokens, &mut seq, &mut starts);
    }
    (starts.len() - 1) as f64 / (starts.last().unwrap() - starts.first().unwrap())
}
