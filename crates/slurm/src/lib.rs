//! `rp-slurm` — the Slurm/`srun` launcher substrate.
//!
//! Models the paper's baseline launch path: per-task `srun` invocations
//! subject to Frontier's site-wide ceiling on concurrent steps and to
//! central-controller contention that grows with allocation size. The
//! [`sim`] plane is a reactive state machine driven by the DES engine; the
//! [`rt`] plane enforces the same ceiling on real threads.

#![warn(missing_docs)]

pub mod rt;
pub mod sim;
pub mod step;

pub use rt::SrunRt;
pub use sim::{SrunSim, SrunToken};
pub use step::{StepId, StepRequest};
