//! The effect vocabulary shared by every backend sub-machine.
//!
//! Backends are reactive: a call into one (submit, boot, timer delivery,
//! a fault) pushes the effects it requests into a caller-provided
//! `Vec<Action<T>>`, where `T` is that backend's own timer token. The
//! caller schedules the timers and turns the lifecycle effects into task
//! state transitions, so one code path serves every backend.

use crate::time::SimDuration;

/// One effect a backend asks its caller to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action<T> {
    /// Deliver `token` back to the backend after `after`.
    Timer {
        /// Delay until delivery.
        after: SimDuration,
        /// Token to deliver.
        token: T,
    },
    /// The backend finished booting and accepts work.
    Ready,
    /// Task `id`'s payload started executing.
    Started(u64),
    /// Task `id`'s payload finished and released its resources.
    Completed(u64),
    /// Task `id` failed inside the backend. `retryable` failures (the
    /// instance was lost) may run again; the others (the request can
    /// never fit) cannot.
    Failed {
        /// The failed task.
        id: u64,
        /// Whether a retry can succeed.
        retryable: bool,
    },
}
