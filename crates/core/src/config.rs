//! Pilot/agent configuration.

use crate::backend::{BackendKind, BackendSpec};
use crate::router::RoutingPolicy;
use rp_platform::Calibration;

/// Description of a pilot: the allocation plus the backend deployment.
/// (RP's `PilotDescription`, restricted to what the experiments vary.)
#[derive(Debug, Clone)]
pub struct PilotConfig {
    /// Nodes in the allocation.
    pub nodes: u32,
    /// Backends to deploy. The allocation is partitioned evenly across all
    /// instances of all listed backends (the paper's hybrid setup uses
    /// equal Flux/Dragon counts); `Srun` spans the whole allocation and
    /// must be the only backend.
    pub backends: Vec<BackendSpec>,
    /// Platform calibration.
    pub cal: Calibration,
    /// Experiment seed (drives every random stream).
    pub seed: u64,
    /// Concurrent stager instances (Fig. 1 shows stacked stagers).
    pub stager_concurrency: usize,
    /// Retries granted to failed tasks before they stay `Failed`.
    pub max_retries: u32,
    /// srun-path core oversubscription (tasks per core). The paper's srun
    /// experiment launches "one-core tasks at full hardware-thread density
    /// (4 tasks per core)"; IMPECCABLE runs without oversubscription.
    pub srun_oversubscribe: u32,
    /// Task→backend mapping policy.
    pub routing: RoutingPolicy,
    /// Deploy one sub-agent per backend partition (§4.1.2: "RP leverages
    /// this capability by spawning multiple sub-agents, each managing a
    /// local Flux instance and its own partition"). Each sub-agent runs its
    /// own scheduler/adapter pipeline, removing the global agent-scheduler
    /// serialization at the cost of a cheap top-level dispatch.
    pub sub_agents: bool,
}

impl PilotConfig {
    /// A pilot with Frontier calibration and the given backends.
    pub fn new(nodes: u32, backends: Vec<BackendSpec>) -> Self {
        let cfg = PilotConfig {
            nodes,
            backends,
            cal: Calibration::frontier(),
            seed: 42,
            stager_concurrency: 4,
            max_retries: 1,
            srun_oversubscribe: 1,
            routing: RoutingPolicy::TypeAware,
            sub_agents: false,
        };
        cfg.validate();
        cfg
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set srun hardware-thread oversubscription.
    pub fn with_srun_oversubscribe(mut self, factor: u32) -> Self {
        self.srun_oversubscribe = factor.max(1);
        self
    }

    /// Builder: enable per-partition sub-agents.
    pub fn with_sub_agents(mut self, on: bool) -> Self {
        self.sub_agents = on;
        self
    }

    /// Builder: set the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Builder: replace the calibration (re-validated: the srun step
    /// ceiling bounds the instance count).
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.cal = cal;
        self.validate();
        self
    }

    /// Panic on inconsistent configurations (these are harness bugs).
    pub fn validate(&self) {
        assert!(self.nodes > 0, "pilot needs nodes");
        assert!(
            !self.backends.is_empty(),
            "pilot needs at least one backend"
        );
        let has_srun = self.backends.iter().any(|b| b.kind() == BackendKind::Srun);
        if has_srun {
            assert_eq!(
                self.backends.len(),
                1,
                "srun spans the whole allocation and cannot be mixed"
            );
        }
        let kinds: Vec<BackendKind> = self.backends.iter().map(|b| b.kind()).collect();
        let mut dedup = kinds.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len(), "one spec per backend kind");
        let total_instances = self.total_instances();
        assert!(
            total_instances <= self.nodes,
            "more backend instances ({total_instances}) than nodes ({})",
            self.nodes
        );
        // Each instance boots inside a persistent srun step it holds for
        // the whole run; one without a step slot would never come up and
        // its tasks would wait forever.
        assert!(
            total_instances as usize <= self.cal.srun_concurrency_ceiling,
            "more backend instances ({total_instances}) than srun step slots ({})",
            self.cal.srun_concurrency_ceiling
        );
    }

    /// Total backend instances across all kinds.
    pub fn total_instances(&self) -> u32 {
        self.backends.iter().map(|b| b.partitions()).sum()
    }

    /// Whether a backend of this kind is deployed.
    pub fn has_backend(&self, kind: BackendKind) -> bool {
        self.backends.iter().any(|b| b.kind() == kind)
    }

    // Convenience constructors matching the paper's five configurations.

    /// RP with srun (experiments `srun`, `impeccable_srun`).
    pub fn srun(nodes: u32) -> Self {
        Self::new(nodes, vec![BackendSpec::Srun])
    }

    /// RP with `k` Flux instances (experiments `flux_1`, `flux_n`,
    /// `impeccable_flux`).
    pub fn flux(nodes: u32, partitions: u32) -> Self {
        Self::new(
            nodes,
            vec![BackendSpec::Flux {
                partitions,
                backfill: true,
            }],
        )
    }

    /// RP with a single Dragon runtime (experiment `dragon`).
    pub fn dragon(nodes: u32) -> Self {
        Self::new(nodes, vec![BackendSpec::Dragon { partitions: 1 }])
    }

    /// RP with a single PRRTE DVM (the §5 comparison point).
    pub fn prrte(nodes: u32) -> Self {
        Self::new(nodes, vec![BackendSpec::Prrte { partitions: 1 }])
    }

    /// RP with `k` Flux + `k` Dragon instances (experiment `flux+dragon`).
    pub fn flux_dragon(nodes: u32, partitions_each: u32) -> Self {
        Self::new(
            nodes,
            vec![
                BackendSpec::Flux {
                    partitions: partitions_each,
                    backfill: true,
                },
                BackendSpec::Dragon {
                    partitions: partitions_each,
                },
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_validate() {
        PilotConfig::srun(4);
        PilotConfig::flux(1024, 16);
        PilotConfig::dragon(64);
        PilotConfig::flux_dragon(64, 8);
    }

    #[test]
    #[should_panic(expected = "cannot be mixed")]
    fn srun_is_exclusive() {
        PilotConfig::new(
            8,
            vec![BackendSpec::Srun, BackendSpec::Dragon { partitions: 1 }],
        );
    }

    #[test]
    #[should_panic(expected = "more backend instances")]
    fn instances_bounded_by_nodes() {
        PilotConfig::flux(4, 8);
    }

    #[test]
    #[should_panic(expected = "more backend instances (128) than srun step slots (112)")]
    fn instances_bounded_by_srun_steps() {
        PilotConfig::flux_dragon(1024, 64);
    }

    #[test]
    #[should_panic(expected = "than srun step slots (8)")]
    fn calibration_is_revalidated() {
        let mut cal = Calibration::frontier();
        cal.srun_concurrency_ceiling = 8;
        PilotConfig::flux_dragon(64, 8).with_calibration(cal);
    }

    #[test]
    #[should_panic(expected = "one spec per backend kind")]
    fn duplicate_kinds_rejected() {
        PilotConfig::new(
            8,
            vec![
                BackendSpec::Flux {
                    partitions: 1,
                    backfill: true,
                },
                BackendSpec::Flux {
                    partitions: 2,
                    backfill: false,
                },
            ],
        );
    }

    #[test]
    fn helpers() {
        let c = PilotConfig::flux_dragon(16, 4);
        assert_eq!(c.total_instances(), 8);
        assert!(c.has_backend(BackendKind::Flux));
        assert!(c.has_backend(BackendKind::Dragon));
        assert!(!c.has_backend(BackendKind::Srun));
    }
}
