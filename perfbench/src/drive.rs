//! Direct drives of two layers whose per-call cost the session trace
//! cannot isolate. Inputs are built only through public `rp_fluxrt` and
//! `rp_platform` APIs.

use crate::stats::median;
use rp_fluxrt::{EasyBackfill, JobId, JobSpec, RunningJob, SchedPolicy};
use rp_platform::{frontier, ResourcePool, ResourceRequest};
use rp_sim::{FxHashMap, RngStream, SimDuration, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each drive spends in timed batches.
const DRIVE_BUDGET: Duration = Duration::from_millis(300);

/// Time `batch` calls of `f` per sample until the budget is spent; the
/// median nanoseconds per call.
fn per_call_ns(batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < DRIVE_BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median(&samples)
}

/// `EasyBackfill::select` on a blocked head: a 16-node pool (one Flux
/// instance of the hybrid cell) full of single-core 360 s jobs with
/// seed-staggered ends, and a queue deeper than the backfill window.
/// Every call computes the shadow time and finds no candidate.
pub fn backfill_select_ns(seed: u64) -> Result<f64, String> {
    let req = ResourceRequest::single(1, 0);
    let mut pool = ResourcePool::over_range(frontier().node, 0, 16);
    let mut rng = RngStream::derive(seed, "perfbench.backfill");
    let mut running = FxHashMap::default();
    let mut id = 0;
    while let Some(placement) = pool.try_alloc(&req) {
        let start_us = (rng.uniform() * 60e6) as u64;
        running.insert(
            JobId(id),
            RunningJob {
                expected_end: SimTime::from_micros(start_us + 360_000_000),
                placement,
            },
        );
        id += 1;
    }
    let queue: VecDeque<JobSpec> = (0..128)
        .map(|i| JobSpec {
            id: JobId(id + i),
            req,
            duration: SimDuration::from_secs(360),
        })
        .collect();
    let policy = EasyBackfill::default();
    let now = SimTime::from_secs(60);
    if policy.select(now, &queue, &pool, &running).is_some() {
        return Err("backfill drive: a full pool must select nothing".into());
    }
    Ok(per_call_ns(64, || {
        black_box(policy.select(now, black_box(&queue), &pool, &running));
    }))
}

/// Single-core `ResourcePool::try_alloc` + `free` churn on a full
/// 1,024-node pool: free one held placement, allocate its replacement.
pub fn alloc_free_ns(seed: u64) -> Result<f64, String> {
    let req = ResourceRequest::single(1, 0);
    let mut pool = ResourcePool::over_range(frontier().node, 0, 1024);
    let mut held = Vec::new();
    while let Some(p) = pool.try_alloc(&req) {
        held.push(p);
    }
    let mut rng = RngStream::derive(seed, "perfbench.alloc");
    let order: Vec<usize> = (0..4096).map(|_| rng.index(held.len())).collect();
    let mut i = 0;
    let mut failed = false;
    let ns = per_call_ns(4096, || {
        if failed {
            return;
        }
        let idx = order[i % order.len()];
        i += 1;
        pool.free(&held[idx]);
        match pool.try_alloc(black_box(&req)) {
            Some(p) => held[idx] = p,
            None => failed = true,
        }
    });
    if failed {
        return Err("alloc drive: a freed core must be re-allocatable".into());
    }
    Ok(ns)
}
