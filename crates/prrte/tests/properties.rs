//! Randomized invariant tests for the PRRTE DVM: task conservation under
//! arbitrary loads, serial HNP launch behavior, and kill/cancel accounting.
//! Cases come from a fixed-seed [`RngStream`] so failures replay exactly.

use rp_platform::{frontier, Allocation, Calibration};
use rp_prrte::{PrrteDvm, PrrteTask, PrrteToken};
use rp_sim::{Action, RngStream, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn drive(mut dvm: PrrteDvm, tasks: Vec<PrrteTask>) -> (usize, usize, PrrteDvm) {
    let mut heap: BinaryHeap<Reverse<(u64, u64, PrrteToken)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut started = 0usize;
    let mut completed = 0usize;
    let sink = |acts: Vec<Action<PrrteToken>>,
                now: u64,
                heap: &mut BinaryHeap<Reverse<(u64, u64, PrrteToken)>>,
                seq: &mut u64,
                started: &mut usize,
                completed: &mut usize| {
        for a in acts {
            match a {
                Action::Timer { after, token } => {
                    heap.push(Reverse((now + after.as_micros(), *seq, token)));
                    *seq += 1;
                }
                Action::Started(_) => *started += 1,
                Action::Completed(_) => *completed += 1,
                Action::Ready => {}
                Action::Failed { .. } | Action::Note(_) => {
                    unreachable!("an unobserved DVM fails no task itself")
                }
            }
        }
    };
    let mut acts = Vec::new();
    dvm.boot(&mut acts);
    sink(
        std::mem::take(&mut acts),
        0,
        &mut heap,
        &mut seq,
        &mut started,
        &mut completed,
    );
    for t in tasks {
        dvm.submit(t, &mut acts);
        sink(
            std::mem::take(&mut acts),
            0,
            &mut heap,
            &mut seq,
            &mut started,
            &mut completed,
        );
    }
    while let Some(Reverse((t, _, tok))) = heap.pop() {
        dvm.on_token(SimTime::from_micros(t), tok, &mut acts);
        sink(
            std::mem::take(&mut acts),
            t,
            &mut heap,
            &mut seq,
            &mut started,
            &mut completed,
        );
    }
    (started, completed, dvm)
}

/// Every submitted task starts and completes exactly once; the DVM drains
/// fully.
#[test]
fn dvm_conserves_tasks() {
    let mut rng = RngStream::derive(0x9447, "dvm_conserves_tasks");
    for case in 0..64 {
        let nodes = 1 + rng.index(127) as u32;
        let n = 1 + rng.index(79);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: nodes,
        };
        let dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        let tasks: Vec<PrrteTask> = (0..n)
            .map(|i| PrrteTask {
                id: i as u64,
                duration: SimDuration::from_secs(rng.next_u64() % 200),
            })
            .collect();
        let (started, completed, dvm) = drive(dvm, tasks);
        assert_eq!(started, n, "case {case}");
        assert_eq!(completed, n, "case {case}");
        assert!(dvm.is_idle(), "case {case}");
        assert_eq!(dvm.completed_count(), n as u64, "case {case}");
    }
}

/// Cancelling a random prefix before boot removes exactly those tasks.
#[test]
fn cancel_accounting() {
    let mut rng = RngStream::derive(0x9448, "cancel_accounting");
    for case in 0..128 {
        let n = 1 + rng.index(39);
        let cancel_count = rng.index(40).min(n);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 4,
        };
        let mut dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        dvm.boot(&mut Vec::new());
        for i in 0..n as u64 {
            dvm.submit(
                PrrteTask {
                    id: i,
                    duration: SimDuration::ZERO,
                },
                &mut Vec::new(),
            );
        }
        let mut canceled = 0;
        for i in 0..cancel_count as u64 {
            if dvm.cancel(i) {
                canceled += 1;
            }
        }
        // Pre-boot, nothing launched: every cancel hits the queue.
        assert_eq!(canceled, cancel_count, "case {case}");
        assert_eq!(dvm.queued(), n - cancel_count, "case {case}");
        // A second cancel of the same ids always fails.
        for i in 0..cancel_count as u64 {
            assert!(!dvm.cancel(i), "case {case}: double-cancel of {i}");
        }
    }
}

/// Kill returns every in-flight or queued task id exactly once.
#[test]
fn kill_returns_everything() {
    let mut rng = RngStream::derive(0x9449, "kill_returns_everything");
    for case in 0..128 {
        let n = 1 + rng.index(49);
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 4,
        };
        let mut dvm = PrrteDvm::new(&alloc, &Calibration::frontier(), 7);
        dvm.boot(&mut Vec::new());
        for i in 0..n as u64 {
            dvm.submit(
                PrrteTask {
                    id: i,
                    duration: SimDuration::from_secs(60),
                },
                &mut Vec::new(),
            );
        }
        let mut lost = dvm.kill();
        lost.sort_unstable();
        let expect: Vec<u64> = (0..n as u64).collect();
        assert_eq!(lost, expect, "case {case}");
        assert!(!dvm.is_alive(), "case {case}");
    }
}
