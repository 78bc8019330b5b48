//! The effect vocabulary shared by every backend sub-machine.
//!
//! Backends are reactive: a call into one (submit, boot, timer delivery,
//! a fault) pushes the effects it requests into a caller-provided
//! `Vec<Action<T>>`, where `T` is that backend's own timer token. The
//! caller schedules the timers and turns the lifecycle effects into task
//! state transitions, so one code path serves every backend.
//!
//! A backend the caller asked to be observed also reports what it saw as
//! [`Note`]s in the same buffer, in the order it saw them; the caller's
//! recorders turn them into profiles, metrics and lineage. The backend
//! itself knows no recorder.

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
    /// An observation for the caller's recorders (observed backends only).
    Note(Note),
}

/// The `id` of a note about the backend itself rather than a task.
pub const NO_TASK: u64 = u64::MAX;

/// One observation: what happened to task `id`, with `value` giving the
/// queue depth or occupancy the event happened at (see [`What`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Note {
    /// The task (or [`NO_TASK`]).
    pub id: u64,
    /// What happened.
    pub what: What,
    /// Context value; its meaning is given per [`What`] variant.
    pub value: u64,
}

/// The vocabulary of [`Note`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum What {
    /// The task joined the backend queue; `value` is the queue depth
    /// including it. `contended`: it could not start at once.
    Queued {
        /// Whether it queued behind a full pool or a busy server.
        contended: bool,
    },
    /// Flux's ingest broker handed the job to the scheduler queue;
    /// `value` is that queue's depth including it.
    BrokerHop,
    /// The task heads the queue but cannot be placed now; `value` is the
    /// queue depth (or, for RP-side placement, the free cores).
    Rejected(Reject),
    /// The task was granted resources; `value` is the busy count after
    /// the grant (or, for RP-side placement, the cores granted).
    Placed,
    /// The launch fabric accepted the task (slot acquired, match done or
    /// launch server picked it up); `value` is the slots in use (srun),
    /// the busy cores (Flux), or 0.
    Accepted,
    /// The task's launch began; `value` is the launch queue depth left
    /// behind (srun: slots in use).
    LaunchStart,
    /// The backend's serial server number `.0` began serving the task.
    Begin(u8),
    /// The backend's serial server number `.0` finished serving the task.
    End(u8),
    /// The payload started; `value` is the busy workers (Dragon) or 0.
    Start,
    /// A function task's payload started (Dragon); as [`What::Start`].
    FuncStart,
    /// The payload finished; `value` is the occupancy it leaves: slots
    /// in use, busy cores or workers, or running tasks (PRRTE).
    Finish,
    /// A function task's payload finished (Dragon); as [`What::Finish`].
    FuncFinish,
    /// A launcher slot was freed without a completion (srun); `value` is
    /// the slots still in use.
    SlotRelease,
    /// The PRRTE DVM daemons began booting.
    DvmBoot,
    /// The PRRTE DVM daemons are up.
    DvmReady,
}

/// Why a queue head cannot be placed now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// Fewer free cores than the request needs.
    Cores,
    /// Enough cores but fewer free GPUs than the request needs.
    Gpus,
    /// Enough free cores and GPUs, but not on the nodes a layout needs.
    Fragmentation,
    /// Every Dragon worker the task needs is busy.
    WorkersBusy,
    /// Every srun step slot is held.
    Capacity,
}

/// A backend's note switch: off until its caller asks to observe it, so
/// an unobserved backend pays one branch per note site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Notes(bool);

impl Notes {
    /// The switch turned on.
    pub const ON: Notes = Notes(true);

    /// Whether notes are on.
    pub fn on(self) -> bool {
        self.0
    }

    /// Push `Note { id, what, value }` onto `out` when on.
    #[inline]
    pub fn push<T>(self, out: &mut Vec<Action<T>>, id: u64, what: What, value: u64) {
        if self.0 {
            out.push(Action::Note(Note { id, what, value }));
        }
    }
}
