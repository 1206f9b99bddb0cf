//! `clover-core` — the paper's primary contribution as a reusable library.
//!
//! This crate combines the machine descriptions (`clover-machine`), the loop
//! descriptors (`clover-stencil`) and the cache simulator
//! (`clover-cachesim`) into the analyses the paper performs:
//!
//! * [`decomp`] — CloverLeaf's domain decomposition, including the
//!   degenerate one-dimensional cut at prime rank counts that causes the
//!   "prime number effect",
//! * [`traffic`] — the per-loop memory-traffic / code-balance model with
//!   layer conditions, write-allocates and the phenomenological SpecI2M
//!   factor (Table I and Fig. 7), and the same loops as simulator kernels
//!   ([`loop_kernel`]) the model is checked against,
//! * [`scaling`] — the node-level scaling model producing speedup, memory
//!   bandwidth and per-loop code balance as functions of the rank count
//!   (Figs. 2 and 3),
//! * [`mpimodel`] — the communication-time model behind the MPI share
//!   breakdown (Fig. 4),
//! * [`profile`] — the hotspot runtime profile (Listing 2),
//! * [`optimize`] — the optimization advisor recommending non-temporal
//!   store directives and the ac01/ac05 loop restructuring, with predicted
//!   code-balance improvements (the "Optimized" series of Fig. 7).

pub mod decomp;
pub mod engine;
#[cfg(test)]
mod loop_measure;
pub mod mpimodel;
pub mod optimize;
pub mod profile;
pub mod scaling;
pub mod traffic;

pub use decomp::Decomposition;
pub use engine::{ScalingEngine, SweepMemo};
pub use mpimodel::{CommModel, MpiShare};
pub use optimize::{LoopOptimization, OptimizationPlan};
pub use profile::{hotspot_profile, ProfileEntry};
pub use scaling::{normalise_speedups, ScalingModel, ScalingPoint};
pub use traffic::{loop_kernel, CodeVariant, LoopTraffic, TrafficModel, TrafficOptions};

/// The loops a [`ScalingPoint`]'s `loop_balances` are the balances of, in
/// order: the process-wide catalogue of `clover-stencil`.
pub use clover_stencil::loop_catalogue;

/// Schema version of the analytic models as seen by persisted memo
/// entries.
///
/// Any change that can alter an evaluated [`ScalingPoint`] for an
/// unchanged rank count on an unchanged [`SweepMemo`] curve key (machine
/// id, grid, and the `TrafficOptions` with their rank count cleared) —
/// traffic-model refinements, new loop catalogue entries, decomposition
/// changes — must bump this constant.  It
/// feeds the model hash that versions on-disk memo stores
/// (`clover-service`), so stale stores are rebuilt instead of silently
/// serving outdated points.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// The "Tiny" working set of SPEChpc 2021 519.clvleaf_t: a square grid of
/// 15360×15360 cells (run for 400 timesteps).
pub const TINY_GRID: usize = 15_360;
