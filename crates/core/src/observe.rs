//! The one consumer of backend [`rp_sim::Note`]s.
//!
//! Backends know no recorder: an observed backend reports what it saw as
//! notes among its actions, and the agent hands each one here before
//! it applies that call's effects, so recorders see events in the order
//! the backends saw them. This module owns what the recorders need to
//! know about backends: each instance's profile names, its
//! [`BackendInstruments`], the lineage codes, the span each serial server
//! holds open, and the "one reject per distinct blocked head" memory.

use crate::backend::BackendKind;
use rp_lineage::{self as lin, Lineage};
use rp_metrics::{BackendInstruments, Registry};
use rp_profiler::{Profiler, Sym};
use rp_sim::{Reject, What};

/// The lineage detail code of a placement reject reason.
fn reject_code(why: Reject) -> u16 {
    match why {
        Reject::Cores => lin::REJ_INSUFFICIENT_CORES,
        Reject::Gpus => lin::REJ_INSUFFICIENT_GPUS,
        Reject::Fragmentation => lin::REJ_FRAGMENTATION,
        Reject::WorkersBusy => lin::REJ_WORKERS_BUSY,
        Reject::Capacity => lin::REJ_CAPACITY,
    }
}

/// Profile names of one instance: its base track, the `(track, span)`
/// names of each serial server, and the instant each note kind records on
/// the base track.
struct Names {
    comp: Sym,
    servers: Vec<(Sym, Sym)>,
    instants: Vec<(What, Sym)>,
}

impl Names {
    /// Intern the names of partition `part` of `kind`, in the order that
    /// fixes their Chrome-trace thread ids.
    fn intern(prof: &Profiler, kind: BackendKind, part: u32) -> Names {
        let name = match kind {
            BackendKind::Srun => "srun".to_string(),
            kind => format!("{kind}.{part}"),
        };
        let comp = prof.intern(&name);
        let track = |server: &str| prof.intern(&format!("{name}.{server}"));
        let names = |pairs: &[(What, &str)]| -> Vec<(What, Sym)> {
            pairs.iter().map(|&(w, n)| (w, prof.intern(n))).collect()
        };
        let (servers, instants) = match kind {
            BackendKind::Srun => (
                Vec::new(),
                names(&[
                    (What::Accepted, "SLOT_ACQUIRE"),
                    (What::Finish, "SLOT_RELEASE"),
                    (What::SlotRelease, "SLOT_RELEASE"),
                ]),
            ),
            BackendKind::Flux => {
                let tracks = ["ingest", "match", "start"].map(track);
                let instants = names(&[
                    (What::Queued { contended: false }, "ENQUEUE"),
                    (What::Accepted, "ALLOC"),
                    (What::Start, "START"),
                    (What::Finish, "FINISH"),
                ]);
                let spans = ["ingest", "match", "launch"].map(|n| prof.intern(n));
                (tracks.into_iter().zip(spans).collect(), instants)
            }
            BackendKind::Dragon => (
                vec![(track("dispatch"), prof.intern("dispatch"))],
                names(&[
                    (What::FuncStart, "FUNC_START"),
                    (What::FuncFinish, "FUNC_FINISH"),
                    (What::Start, "PROC_START"),
                    (What::Finish, "PROC_FINISH"),
                ]),
            ),
            BackendKind::Prrte => (
                vec![(track("hnp"), prof.intern("launch"))],
                names(&[
                    (What::DvmBoot, "DVM_BOOT"),
                    (What::DvmReady, "DVM_READY"),
                    (What::Start, "START"),
                    (What::Finish, "FINISH"),
                ]),
            ),
        };
        Names {
            comp,
            servers,
            instants,
        }
    }

    /// The instant a note of `what`'s kind records, if any.
    fn instant(&self, what: What) -> Option<Sym> {
        let kind = std::mem::discriminant(&what);
        let hit = self
            .instants
            .iter()
            .find(|(w, _)| std::mem::discriminant(w) == kind);
        hit.map(|&(_, name)| name)
    }
}

/// What the recorders keep for one backend instance.
struct Instance {
    kind: BackendKind,
    part: u32,
    names: Names,
    /// The uid each serial server's open span belongs to.
    open: [Option<u64>; 3],
    instruments: Option<BackendInstruments>,
    /// The last `(head, reason)` a placement reject was recorded for.
    rejected: Option<(u64, Reject)>,
}

impl Instance {
    /// End the span server `s` holds open, if any.
    fn end_span(&mut self, prof: &Profiler, s: usize) {
        if let Some(id) = self.open[s].take() {
            let (track, span) = self.names.servers[s];
            prof.end(track, id, span);
        }
    }
}

/// Records backend notes into whichever of the profiler, metrics registry
/// and lineage recorder are attached. Slots are the agent's
/// instance-report slots, with the site srun last.
pub(crate) struct BackendObserver {
    prof: Profiler,
    lineage: Option<Lineage>,
    insts: Vec<Instance>,
}

impl BackendObserver {
    /// An observer with no recorder attached over `slots`, the kind and
    /// partition of every slot.
    pub(crate) fn new(slots: impl Iterator<Item = (BackendKind, u32)>) -> Self {
        // Names from a disabled profiler are placeholders that size the
        // server table, so span notes index it when nothing is profiled.
        let prof = Profiler::disabled();
        let insts = slots.map(|(kind, part)| Instance {
            kind,
            part,
            names: Names::intern(&prof, kind, part),
            open: [None; 3],
            instruments: None,
            rejected: None,
        });
        BackendObserver {
            insts: insts.collect(),
            prof,
            lineage: None,
        }
    }

    /// Every slot but the last (RP's srun capacity queue, which only
    /// places) in profile order: the site srun, then every Flux, Dragon
    /// and PRRTE instance by partition.
    fn profile_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.insts.len() - 1).collect();
        order.sort_by_key(|&s| (self.insts[s].kind as u8, self.insts[s].part));
        order
    }

    /// Put every instance on its own profile track (`srun`, `flux.N`,
    /// `dragon.N`, `prrte.N`), interning all names once, in that order.
    /// Returns the tracks after `srun`.
    pub(crate) fn attach_profiler(&mut self, prof: &Profiler) -> Vec<Sym> {
        let mut tracks = Vec::new();
        for s in self.profile_order() {
            let inst = &mut self.insts[s];
            inst.names = Names::intern(prof, inst.kind, inst.part);
            tracks.push(inst.names.comp);
        }
        self.prof = prof.clone();
        tracks.split_off(1)
    }

    /// Give every instance submit/launch/complete instruments under its
    /// kind label (instances of one kind merge into one distribution).
    pub(crate) fn attach_metrics(&mut self, reg: &Registry) {
        for s in self.profile_order() {
            let inst = &mut self.insts[s];
            inst.instruments = Some(BackendInstruments::new(reg, &inst.kind.to_string()));
        }
    }

    /// Record every instance's queue, placement and launch events.
    pub(crate) fn attach_lineage(&mut self, lineage: Lineage) {
        self.lineage = Some(lineage);
    }

    /// Record what instance `slot` noted: `what` happened to task `id`,
    /// with `value` as given per [`What`] variant.
    pub(crate) fn record(&mut self, slot: usize, id: u64, what: What, value: u64) {
        let inst = &mut self.insts[slot];
        match what {
            What::Begin(s) => {
                let (track, span) = inst.names.servers[s as usize];
                self.prof.begin(track, id, span);
                inst.open[s as usize] = Some(id);
            }
            What::End(s) => {
                let (track, span) = inst.names.servers[s as usize];
                self.prof.end(track, id, span);
                inst.open[s as usize] = None;
            }
            _ => {
                if let Some(name) = inst.names.instant(what) {
                    // A queue entry is a plain instant; the rest carry
                    // the value.
                    let detail = match what {
                        What::Queued { .. } => 0.0,
                        _ => value as f64,
                    };
                    self.prof.instant_detail(inst.names.comp, id, name, detail);
                }
            }
        }
        if let Some(m) = &inst.instruments {
            match what {
                What::Queued { contended } => m.on_submit(id, value as usize - 1, contended),
                What::Accepted => m.on_accepted(id),
                What::Start | What::FuncStart => m.on_started(id),
                What::Finish | What::FuncFinish => m.on_completed(id),
                _ => {}
            }
        }
        let Some(l) = &self.lineage else {
            return;
        };
        // The blocked head's memory ends when that head moves on.
        if matches!(what, What::Placed | What::LaunchStart)
            && inst.rejected.is_some_and(|(head, _)| head == id)
        {
            inst.rejected = None;
        }
        let (ev, detail) = match what {
            What::Queued { .. } => (lin::EV_BACKEND_QUEUE, lin::NO_DETAIL),
            What::BrokerHop => (lin::EV_BROKER_HOP, lin::NO_DETAIL),
            What::Placed => (lin::EV_PLACE_OK, lin::NO_DETAIL),
            What::LaunchStart => (lin::EV_LAUNCH_START, lin::NO_DETAIL),
            What::Rejected(why) if inst.rejected == Some((id, why)) => return,
            What::Rejected(why) => {
                inst.rejected = Some((id, why));
                (lin::EV_PLACE_REJECT, reject_code(why))
            }
            _ => return,
        };
        l.record_ctx(id, ev, detail, inst.kind as u8, inst.part, value);
    }

    /// Tasks `ids` left instance `slot` without starting or completing
    /// (canceled, or lost to a crash).
    pub(crate) fn forget(&mut self, slot: usize, ids: impl IntoIterator<Item = u64>) {
        if let Some(m) = &self.insts[slot].instruments {
            ids.into_iter().for_each(|id| m.forget(id));
        }
    }

    /// A node fault reaped tasks `ids` from instance `slot`: forget them
    /// and end the server spans they held.
    pub(crate) fn reap(&mut self, slot: usize, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            self.forget(slot, [id]);
            let inst = &mut self.insts[slot];
            for s in 0..inst.names.servers.len() {
                if inst.open[s] == Some(id) {
                    inst.end_span(&self.prof, s);
                }
            }
        }
    }

    /// Instance `slot` crashed and took `lost` with it: the crash ends
    /// every open server span, and a restart starts with no blocked head.
    pub(crate) fn kill(&mut self, slot: usize, lost: &[u64]) {
        let inst = &mut self.insts[slot];
        for s in 0..inst.names.servers.len() {
            inst.end_span(&self.prof, s);
        }
        inst.rejected = None;
        self.forget(slot, lost.iter().copied());
    }
}
