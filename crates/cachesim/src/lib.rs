//! Cache-hierarchy and memory-traffic simulator with SpecI2M write-allocate
//! evasion.
//!
//! The paper's observables are *memory data volumes*: read and write traffic
//! at the memory controllers (LIKWID `CAS_COUNT_RD`/`CAS_COUNT_WR`) and the
//! number of cache lines claimed without a read-for-ownership
//! (`TOR_INSERTS.IA_ITOM`, the SpecI2M event).  This crate reproduces those
//! counters for arbitrary access streams:
//!
//! * a **set-associative, write-back, write-allocate cache hierarchy**
//!   (private L1/L2 plus a per-core share of the L3) so that layer
//!   conditions and capacity effects emerge from first principles,
//! * a **write-coalescing store tracker** that detects full-line store
//!   streaks — the prerequisite for SpecI2M eligibility and for
//!   non-temporal stores avoiding reads,
//! * a **SpecI2M engine** applying the machine's phenomenological evasion
//!   parameters (activation with bandwidth utilisation, stream-count and
//!   streak-length response, node-population penalty),
//! * an **adjacent-line prefetcher model** whose effect on read volume
//!   can be switched off, mirroring the paper's "PF off" experiments
//!   ([`prefetch`] says why no stream prefetcher is modelled),
//! * **memory-controller counters** aggregated per core and per node.
//!
//! The simulator is line-granular and uses deterministic *fractional*
//! accounting for probabilistic events (an evasion probability of 0.7 adds
//! 0.3 read lines), which keeps results exactly reproducible.
//!
//! # Shape
//!
//! What the caches do and how the traffic is weighted are kept apart, as
//! in the paper: the hierarchy ([`hierarchy`]) decides which lines hit,
//! miss, evict, prefetch or coalesce and emits one event per memory
//! transaction; one accountant (private module `accountant`) turns events
//! into [`MemCounters`] under the occupancy context, the SpecI2M
//! parameters and the prefetch-off factor.  A trace (private module
//! `trace`) stores those same events; replayed through the same accountant
//! under a neighbouring context it is therefore bit-identical to
//! simulating there ([`memo`]).  Every level is true LRU, the paper's
//! replacement policy and the only one simulated, so the hierarchy is
//! generic over nothing; the store-miss policy is consulted once per
//! 64-byte store line and is a field of [`hierarchy::CoreSimOptions`].
//! Each cache level has one probe, a scalar early-exit scan ([`cache`] has
//! the measurement that retired the SIMD tiers).
//!
//! # Performance
//!
//! The hot state is allocation-free in steady state: each cache level is a
//! single flat arena probed by one contiguous scan, and the store path
//! hands finalized lines to the hierarchy without building event vectors.
//! One driver, the [`SweepCursor`], turns every kernel — a stencil sweep,
//! or a contiguous [`AccessRun`] through [`CoreSim::drive_run`] — into one
//! hierarchy operation per 64-byte cache line, the granularity at which
//! traffic is decided, with the counters of feeding the same elements one
//! at a time, which `tests/reference_hierarchy.rs` holds to a naive
//! hierarchy that shares none of this crate's code.  The `cachesim.*`
//! per-layer probes of `benchmark/` track the throughput of this path.

pub mod access;
mod accountant;
pub mod cache;
pub mod coalescer;
pub mod counters;
pub mod engine;
pub mod flight;
pub mod hierarchy;
pub mod memo;
pub mod patterns;
pub mod prefetch;
mod trace;

/// Schema version of the simulator as seen by persisted memo entries.
///
/// Any change that can alter a simulated [`MemCounters`] for an unchanged
/// [`SimKey`] — new counter semantics, prefetcher model changes, SpecI2M
/// response changes — must bump this constant.  It feeds the model hash
/// that versions on-disk memo stores (`clover-service`), so stale stores
/// are rebuilt instead of silently serving outdated counters.
pub const SIM_SCHEMA_VERSION: u32 = 2;

pub use access::{line_of, AccessKind, AccessRun, ELEM_BYTES, LINE_BYTES};
pub use cache::{SetAssocCache, TrueLru};
pub use coalescer::WriteCoalescer;
pub use counters::MemCounters;
pub use engine::{CoRunReport, NodeSim, NodeSimReport, SimConfig, TenantReport};
pub use flight::FlightMemo;
pub use hierarchy::{CoreSim, DomainOccupancy, OccupancyContext, PrivateCore};
pub use memo::{
    with_pooled_core, Accounting, CoRunKey, Dynamics, KernelSpec, MemoStats, RankBase, SimKey,
    SimMemo, SpecOperand,
};
pub use patterns::{StencilRowSweep, SweepCursor};
pub use prefetch::PrefetcherConfig;
