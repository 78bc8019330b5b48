//! Host-speed reference.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed changes
//! for minutes at a time (by up to 2x), and that moves every wall time
//! between runs far more than anything inside one run does. A fixed load,
//! timed in rounds between reps, tracks that speed: the end-to-end
//! figures are scaled by it to a reference host, on which one round takes
//! [`REFERENCE_ROUND_S`]. The load runs no repository code, so a change
//! to the simulator cannot move it; it mixes the kinds of work the
//! simulator does (hashing, a binary-heap event loop with allocation
//! churn, dependent loads past the private caches, short scans and
//! sorts, text built into a growing buffer as the recorders' export
//! does), because the host's phases slow each kind by a different amount.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Seconds one round takes on the reference host: the median on the
/// 2-vCPU Xeon VM of the README's measurements, in a typical phase.
pub const REFERENCE_ROUND_S: f64 = 0.17;

/// Slots in the pointer-chase ring: 16 MB of `u32`, past the private
/// caches and this VM's share of the last-level one.
const RING: usize = 4 << 20;

/// Resident megabytes the ring adds to the process for its whole life.
pub const RING_MB: f64 = (RING * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0);

/// A xorshift stream; the load is the same on every run.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

pub struct HostSpeed {
    /// One random cycle through every slot.
    ring: Vec<u32>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        // Sattolo's shuffle: the permutation is a single cycle.
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        for i in (1..RING).rev() {
            ring.swap(i, (rng.next() % i as u64) as usize);
        }
        HostSpeed { ring }
    }

    /// Time rounds of the load until `secs` have passed, and at least
    /// one, and return how much slower than the reference host this host
    /// ran them: mean seconds per round over [`REFERENCE_ROUND_S`]. A wall
    /// time taken next to the rounds, divided by it, or a rate multiplied
    /// by it, is that figure on the reference host.
    pub fn slowdown(&self, secs: f64) -> f64 {
        let start = Instant::now();
        let mut rounds = 0;
        loop {
            std::hint::black_box(round(&self.ring));
            rounds += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= secs {
                return elapsed / f64::from(rounds) / REFERENCE_ROUND_S;
            }
        }
    }
}

/// One round of the load; returns a checksum so nothing is optimised out.
fn round(ring: &[u32]) -> u64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0u64;

    // Hashing and a heap of keys.
    let mut heap = BinaryHeap::new();
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..150_000u64 {
        let k = rng.next();
        heap.push(Reverse(k % 1_000_000));
        map.insert(i, k);
        if i % 2 == 1 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
    }
    for _ in 0..150_000 {
        acc = acc.wrapping_add(map.get(&(rng.next() % 150_000)).copied().unwrap_or(0));
    }
    drop((heap, map));

    // An event loop over boxed task records that grow and are freed.
    struct Task {
        stage: u8,
        name: String,
        deps: Vec<u32>,
    }
    let mut tasks: HashMap<u32, Box<Task>> = HashMap::new();
    let mut events = BinaryHeap::new();
    for i in 0..20_000u32 {
        let task = Task {
            stage: 0,
            name: format!("task.{i:06}"),
            deps: vec![i; 2],
        };
        tasks.insert(i, Box::new(task));
        events.push(Reverse((rng.next() % 1000, i)));
    }
    while let Some(Reverse((at, id))) = events.pop() {
        let Some(t) = tasks.get_mut(&id) else {
            continue;
        };
        t.stage += 1;
        acc = acc.wrapping_add(t.name.len() as u64 + u64::from(t.deps[0]));
        if t.stage < 4 {
            t.deps.push(id);
            events.push(Reverse((at + rng.next() % 100, id)));
        } else {
            tasks.remove(&id);
        }
    }

    // Dependent loads around the ring.
    let mut at = 0u32;
    for _ in 0..300_000 {
        at = ring[at as usize];
    }
    acc = acc.wrapping_add(u64::from(at));

    // Text lines into one growing buffer: copies, fresh pages, page faults.
    let mut text = String::new();
    for i in 0..200_000u64 {
        let _ = writeln!(
            text,
            "{i},{},task.{:06},EXEC",
            rng.next() % 1_000_000,
            i % 4096
        );
    }
    acc = acc.wrapping_add(text.len() as u64);
    drop(text);

    // Short scans and sorts, like a backfill pass over running jobs.
    let mut jobs: Vec<(u64, u32)> = (0..128).map(|i| (rng.next() % 10_000, i)).collect();
    for r in 0..24_000u32 {
        let (mut free, mut shadow) = (16u64, u64::MAX);
        for &(end, cores) in &jobs {
            if cores % 7 == r % 7 {
                free += 1;
            }
            if end < shadow && cores & 1 == 0 {
                shadow = end;
            }
        }
        jobs.sort_unstable_by_key(|j| j.0);
        let k = (rng.next() % 128) as usize;
        jobs[k].0 = rng.next() % 10_000;
        acc = acc.wrapping_add(shadow.wrapping_add(free));
    }
    acc
}
