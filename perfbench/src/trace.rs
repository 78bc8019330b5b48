//! The outside-in layer trace: a timing actor around `SimAgent` that
//! charges each `handle` call to the layer its message belongs to.
//! Engine self time is the engine wall minus the time inside `handle`.
//!
//! Every call is timed. Sampling would cut the trace's overhead but
//! mis-scales the rare calls that cost milliseconds (a first serving
//! arrival, a slab or ring growing), which dominate some layers.

use rp_core::agent::{AgentMsg, SimAgent};
use rp_sim::{Actor, Ctx};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Layer names, indexed by [`layer_of`].
pub const LAYERS: [&str; 10] = [
    "agent.submit",
    "agent.stage",
    "agent.schedule",
    "agent.adapter",
    "agent.collect",
    "fluxrt.token",
    "dragonrt.token",
    "slurm.token",
    "agent.serving",
    "agent.other",
];

/// The layer a message is charged to. Backend tokens include the agent's
/// handling of the actions the backend returns.
fn layer_of(msg: &AgentMsg) -> usize {
    match msg {
        AgentMsg::BootstrapDone | AgentMsg::Submit(_) => 0,
        AgentMsg::StagerDone(_) => 1,
        AgentMsg::SchedDone(_) | AgentMsg::SubSchedDone(..) => 2,
        AgentMsg::AdapterDone(..) | AgentMsg::SubAdapterDone(..) => 3,
        AgentMsg::WatcherDone(_) => 4,
        AgentMsg::Flux(..) => 5,
        AgentMsg::Dragon(..) => 6,
        AgentMsg::Srun(_) => 7,
        AgentMsg::ServingArrive(_) => 8,
        AgentMsg::Init
        | AgentMsg::Prrte(..)
        | AgentMsg::CancelTasks(_)
        | AgentMsg::KillInstance(..)
        | AgentMsg::Fault(_)
        | AgentMsg::Watchdog(_)
        | AgentMsg::RetryFire(_) => 9,
    }
}

/// Calls and host nanoseconds per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    pub calls: [u64; LAYERS.len()],
    pub ns: [u64; LAYERS.len()],
}

impl LayerTimes {
    pub fn handle_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..LAYERS.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// `SimAgent` behind a stopwatch.
pub struct Timed {
    inner: SimAgent,
    times: Rc<RefCell<LayerTimes>>,
}

impl Timed {
    pub fn new(inner: SimAgent, times: Rc<RefCell<LayerTimes>>) -> Timed {
        Timed { inner, times }
    }
}

impl Actor<AgentMsg> for Timed {
    fn handle(&mut self, msg: AgentMsg, ctx: &mut Ctx<AgentMsg>) {
        let layer = layer_of(&msg);
        let t = Instant::now();
        self.inner.handle(msg, ctx);
        let ns = t.elapsed().as_nanos() as u64;
        let mut times = self.times.borrow_mut();
        times.calls[layer] += 1;
        times.ns[layer] += ns;
    }
}
