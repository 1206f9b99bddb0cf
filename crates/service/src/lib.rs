//! `clover-service` — sweep-as-a-service: persistent memo stores and the
//! `figures serve` query daemon.
//!
//! The paper's result is that CloverLeaf's memory traffic can be
//! predicted analytically, so an analytic scaling point is cheap by
//! construction; the expensive instrument is the cache simulation, most of
//! all the shared-LLC co-run of a victim against an aggressor.  The memo
//! layers (`clover_cachesim::SimMemo`, `clover_core::SweepMemo`) share
//! both *within* a process; this crate makes durable *across* processes
//! the one part that costs more to recompute than to load:
//!
//! * [`model`] — the model hash versioning persisted entries: a
//!   fingerprint of every machine preset, the policy registries and the
//!   simulator/model schema versions, so any change that could alter a
//!   cached value invalidates the store wholesale,
//! * [`store`] — [`PersistentStore`]: a bit-exact text codec
//!   (`cloverstore 6`: per co-run pass its key, the primary tenant's
//!   index and that tenant's report) for the co-run simulations of a
//!   `SimMemo`, with atomic (temp file + rename) writes and tolerant loads
//!   (missing, stale, corrupt and `cloverstore 1`–`5` files rebuild
//!   instead of crashing); analytic points are not persisted,
//! * [`serve`] — [`SweepService`]: a long-running request loop over
//!   stdin or a unix socket, answering batched `sweep` requests from the
//!   warm memo state with byte-identical `figures sweep` output, plus
//!   `stats`/`save`/`ping`/`quit` control verbs,
//! * [`pool`] — the bounded-concurrency front end: a fixed [`WorkerPool`]
//!   behind a bounded channel, so the unix-socket daemon serves any
//!   client count with a fixed thread budget,
//! * [`cache`] — a bounded LRU [`ResponseCache`] over rendered payloads:
//!   repeat queries become an O(payload) byte copy.
//!
//! Both `figures serve` and `figures sweep` (crate `clover-bench`) are thin
//! front ends over [`SweepService`]: the daemon answers request lines with
//! it, the one-shot command is a single [`SweepService::sweep`] followed by
//! a save, so the two print the same bytes by construction.

pub mod cache;
pub mod model;
pub mod pool;
pub mod serve;
pub mod store;

pub use cache::{ResponseCache, ResponseCacheStats};
pub use model::model_hash;
pub use pool::{default_workers, WorkerPool};
pub use serve::{serve_stdin, serve_unix, Response, SweepService, DEFAULT_RESPONSE_CACHE_ENTRIES};
pub use store::{CoRunEntry, LoadOutcome, PersistentStore, SaveReport};
