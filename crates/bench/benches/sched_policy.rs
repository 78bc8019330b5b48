//! Microbench: scheduling-policy selection cost — FCFS vs EASY backfill on
//! queues of increasing depth (the ablation behind the `policy` knob in
//! `BackendSpec::Flux`). EASY's shadow-time computation is the expensive
//! path; this quantifies what the richer policy costs per decision.
//!
//! `easy_backfill/*` has free cores, so a candidate fits and the shadow is
//! built. `easy_backfill_saturated/*` is the regime of a Flux instance
//! packed with single-core payloads (the hybrid Flux+Dragon cell): every
//! core is taken, the queue is single-core, no candidate fits, and the
//! shadow is never needed.

use rp_bench::Micro;
use rp_fluxrt::{EasyBackfill, Fcfs, JobId, JobSpec, RunningJob, SchedPolicy};
use rp_platform::{frontier, ResourcePool, ResourceRequest};
use rp_sim::{FxHashMap, SimDuration, SimTime};
use std::collections::VecDeque;

fn setup(
    nodes: u32,
    queue_depth: usize,
    running_count: usize,
) -> (
    ResourcePool,
    VecDeque<JobSpec>,
    FxHashMap<JobId, RunningJob>,
) {
    let mut pool = ResourcePool::over_range(frontier().node, 0, nodes);
    // Fill most of the machine with running single-node jobs.
    let mut running = FxHashMap::default();
    for i in 0..running_count {
        let placement = pool
            .try_alloc(&ResourceRequest::mpi(1, 56, 0))
            .expect("room for running jobs");
        running.insert(
            JobId(100_000 + i as u64),
            RunningJob {
                expected_end: SimTime::from_secs(100 + i as u64),
                placement,
            },
        );
    }
    // Head job wants more than is free; the rest are narrow candidates.
    let mut queue = VecDeque::new();
    queue.push_back(JobSpec {
        id: JobId(0),
        req: ResourceRequest::mpi(nodes, 56, 0),
        duration: SimDuration::from_secs(500),
    });
    for i in 1..queue_depth {
        queue.push_back(JobSpec {
            id: JobId(i as u64),
            req: ResourceRequest::single(1, 0),
            duration: SimDuration::from_secs(30),
        });
    }
    (pool, queue, running)
}

/// A 16-node pool with every core held by a single-core job (896 running
/// entries) and a queue of `queue_depth` single-core jobs, head included.
fn saturated(
    queue_depth: usize,
) -> (
    ResourcePool,
    VecDeque<JobSpec>,
    FxHashMap<JobId, RunningJob>,
) {
    let single = ResourceRequest::single(1, 0);
    let mut pool = ResourcePool::over_range(frontier().node, 0, 16);
    let mut running = FxHashMap::default();
    while let Some(placement) = pool.try_alloc(&single) {
        let i = running.len() as u64;
        running.insert(
            JobId(100_000 + i),
            RunningJob {
                expected_end: SimTime::from_secs(360 + i),
                placement,
            },
        );
    }
    let queue = (0..queue_depth)
        .map(|i| JobSpec {
            id: JobId(i as u64),
            req: single,
            duration: SimDuration::from_secs(360),
        })
        .collect();
    (pool, queue, running)
}

fn main() {
    let m = Micro::new("sched_policy");
    for &depth in &[8usize, 64, 512] {
        let (pool, queue, running) = setup(64, depth, 48);
        m.bench(&format!("fcfs/{depth}"), || {
            Fcfs.select(SimTime::ZERO, &queue, &pool, &running)
        });
        let policy = EasyBackfill { depth: 64 };
        m.bench(&format!("easy_backfill/{depth}"), || {
            policy.select(SimTime::ZERO, &queue, &pool, &running)
        });
        let (pool, queue, running) = saturated(depth);
        m.bench(&format!("easy_backfill_saturated/{depth}"), || {
            policy.select(SimTime::ZERO, &queue, &pool, &running)
        });
    }
}
