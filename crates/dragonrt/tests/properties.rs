//! Randomized invariant tests for the Dragon substrate: codec robustness
//! against arbitrary bytes (never panics, never mis-decodes), worker
//! conservation in the sim runtime, and shmem-queue capacity discipline.
//! Cases come from fixed-seed [`RngStream`]s so failures replay exactly.

use rp_dragonrt::{
    decode_call, decode_event, encode_call, encode_event, DragonSim, DragonTask, DragonToken,
    FunctionCall, PipeEvent, ShmemQueue,
};
use rp_platform::{frontier, Allocation, Calibration};
use rp_sim::{Action, RngStream, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn random_bytes(rng: &mut RngStream, max_len: usize) -> Vec<u8> {
    let len = rng.index(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_name(rng: &mut RngStream, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
    let len = rng.index(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.index(ALPHABET.len())] as char)
        .collect()
}

/// Decoding arbitrary bytes must never panic, and the decoders are total.
#[test]
fn codec_total_on_garbage() {
    let mut rng = RngStream::derive(0xC0DEC, "codec_total_on_garbage");
    for _ in 0..512 {
        let bytes = random_bytes(&mut rng, 256);
        let _ = decode_call(&bytes);
        let _ = decode_event(&bytes);
    }
}

/// Round-trips are exact for arbitrary payloads.
#[test]
fn codec_roundtrip_exact() {
    let mut rng = RngStream::derive(0xC0DED, "codec_roundtrip_exact");
    for case in 0..256 {
        let id = rng.next_u64();
        let name = random_name(&mut rng, 40);
        let args = random_bytes(&mut rng, 2048);
        let result = random_bytes(&mut rng, 512);
        // Printable-ASCII error strings.
        let error: String = (0..rng.index(61))
            .map(|_| (0x20 + rng.index(0x5F) as u8) as char)
            .collect();
        let call = FunctionCall { id, name, args };
        assert_eq!(
            decode_call(&encode_call(&call)).unwrap(),
            call,
            "case {case}"
        );
        for ev in [
            PipeEvent::Started { id },
            PipeEvent::Completed {
                id,
                result: result.clone(),
            },
            PipeEvent::Failed {
                id,
                error: error.clone(),
            },
        ] {
            assert_eq!(decode_event(&encode_event(&ev)).unwrap(), ev, "case {case}");
        }
    }
}

/// Mutating a single byte of a frame either fails to decode or decodes to
/// something — but never panics (header/version/length checks hold).
#[test]
fn codec_survives_bitflips() {
    let mut rng = RngStream::derive(0xC0DEE, "codec_survives_bitflips");
    for _ in 0..512 {
        let id = rng.next_u64();
        let args = random_bytes(&mut rng, 64);
        let mut bytes = encode_call(&FunctionCall {
            id,
            name: "f".into(),
            args,
        });
        let i = rng.index(bytes.len());
        bytes[i] ^= 1 << rng.index(8);
        let _ = decode_call(&bytes);
        let _ = decode_event(&bytes);
    }
}

/// The sim runtime conserves tasks and workers under arbitrary loads.
#[test]
fn dragon_sim_conserves() {
    let mut rng = RngStream::derive(0xD7A6, "dragon_sim_conserves");
    for case in 0..64 {
        let tasks: Vec<(u32, u64, bool)> = (0..1 + rng.index(59))
            .map(|_| {
                (
                    1 + rng.index(19) as u32,
                    rng.next_u64() % 100,
                    rng.chance(0.5),
                )
            })
            .collect();
        let alloc = Allocation {
            spec: frontier().node,
            first: 0,
            count: 1,
        };
        let mut sim = DragonSim::new(&alloc, &Calibration::frontier(), 3);
        let mut heap: BinaryHeap<Reverse<(u64, u64, DragonToken)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut started = 0usize;
        let mut completed = 0usize;
        let mut peak_busy = 0u64;

        let sink = |acts: Vec<Action<DragonToken>>,
                    now: u64,
                    heap: &mut BinaryHeap<Reverse<(u64, u64, DragonToken)>>,
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
                        unreachable!("an unobserved Dragon fails no task itself")
                    }
                }
            }
        };

        let mut acts = Vec::new();
        sim.boot(&mut acts);
        sink(
            std::mem::take(&mut acts),
            0,
            &mut heap,
            &mut seq,
            &mut started,
            &mut completed,
        );
        for (i, (workers, secs, is_function)) in tasks.iter().enumerate() {
            sim.submit(
                DragonTask {
                    id: i as u64,
                    workers: *workers,
                    duration: SimDuration::from_secs(*secs),
                    is_function: *is_function,
                },
                &mut acts,
            );
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
            sim.on_token(SimTime::from_micros(t), tok, &mut acts);
            sink(
                std::mem::take(&mut acts),
                t,
                &mut heap,
                &mut seq,
                &mut started,
                &mut completed,
            );
            peak_busy = peak_busy.max(sim.busy_workers());
        }
        assert!(sim.is_idle(), "case {case}");
        assert_eq!(started, tasks.len(), "case {case}");
        assert_eq!(completed, tasks.len(), "case {case}");
        assert_eq!(sim.busy_workers(), 0, "case {case}: workers all returned");
        assert!(
            peak_busy <= sim.worker_capacity(),
            "case {case}: pool never oversubscribed"
        );
    }
}

/// Shmem queue: never exceeds capacity, conserves items.
#[test]
fn shmem_capacity_discipline() {
    let mut rng = RngStream::derive(0x54E3, "shmem_capacity_discipline");
    for case in 0..256 {
        let capacity = 1 + rng.index(31);
        let n_ops = 1 + rng.index(199);
        let q = ShmemQueue::new(capacity);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for _ in 0..n_ops {
            if rng.chance(0.5) {
                match q.push(next) {
                    Ok(()) => {
                        model.push_back(next);
                        assert!(model.len() <= capacity, "case {case}");
                    }
                    Err(v) => {
                        assert_eq!(v, next, "case {case}");
                        assert_eq!(model.len(), capacity, "case {case}: reject only when full");
                    }
                }
                next += 1;
            } else {
                assert_eq!(q.pop(), model.pop_front(), "case {case}");
            }
            assert_eq!(q.len(), model.len(), "case {case}");
        }
    }
}
