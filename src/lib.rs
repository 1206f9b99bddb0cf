//! `cloverleaf-wa` — umbrella crate of the CloverLeaf write-allocate-evasion
//! study.
//!
//! This crate re-exports the member crates of the workspace so downstream
//! users can depend on a single package:
//!
//! * [`machine`] — machine descriptions (Ice Lake SP, Sapphire Rapids) and
//!   SpecI2M parameter sets,
//! * [`cachesim`] — the cache-hierarchy / memory-traffic simulator with the
//!   SpecI2M write-allocate-evasion engine,
//! * [`stencil`] — loop descriptors, layer conditions and code-balance
//!   bounds (Table I),
//! * [`core`] — traffic, scaling, MPI and optimization models (the paper's
//!   analyses), and `loop_kernel`, the simulator-side sweep of one hotspot
//!   loop the model is checked against,
//! * [`ubench`] — the store/copy microbenchmarks,
//! * [`golden`] — typed artifacts, the digitised paper reference data and
//!   the tolerance-aware fidelity diff engine,
//! * [`scenario`] — the scenario sweep engine (machine × grid × ranks ×
//!   stage plans with a parallel runner),
//! * [`service`] — sweep-as-a-service: the persistent memo store and the
//!   `figures serve` query daemon.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-reproduction comparison of every table and figure.

pub use clover_cachesim as cachesim;
pub use clover_core as core;
pub use clover_golden as golden;
pub use clover_machine as machine;
pub use clover_scenario as scenario;
pub use clover_service as service;
pub use clover_stencil as stencil;
pub use clover_ubench as ubench;
