//! `rp-fluxrt` — a Flux-like hierarchical task runtime.
//!
//! The substrate substituting for Flux in the RADICAL-Pilot integration:
//! jobspecs and the job lifecycle ([`job`]), pluggable scheduling policies
//! — FCFS and EASY backfill — over a real resource pool ([`policy`]), the
//! simulated instance pipeline calibrated to the paper's measured rates
//! ([`instance`]), and a real-threaded instance executing closures
//! ([`rt`]). Multiple instances over disjoint partitions (the paper's
//! `flux_n` configuration) are composed by RP's agent in `rp-core`.

#![warn(missing_docs)]

pub mod hierarchy;
pub mod instance;
pub mod job;
pub mod jobspec;
pub mod policy;
pub mod rt;

pub use hierarchy::{FluxTreeSim, TreeToken};
pub use instance::{FluxInstanceSim, FluxToken};
pub use job::{JobId, JobSpec, JobState};
pub use jobspec::{jobspec_string, parse_jobspec, JobspecError, JOBSPEC_VERSION};
pub use policy::{EasyBackfill, Fcfs, RunningJob, SchedPolicy};
pub use rt::{FluxRt, SubmitError};
