//! `clover-stencil` — stencil loop descriptors and first-principles data
//! traffic models.
//!
//! The paper builds a traffic model for all 22 loops of the three CloverLeaf
//! hotspot functions (Table I).  Each loop is described by the arrays it
//! touches and the stencil offsets of every access; from that description the
//! model derives
//!
//! * the number of elements read per iteration with the **layer condition
//!   fulfilled** (one leading element per read array, `RD_LCF`),
//! * the number read with the layer condition **broken** (one element per
//!   distinct grid row accessed, `RD_LCB`),
//! * the number of elements written (`WR`) and how many of those are also
//!   read first (`RD&WR`),
//! * four code-balance bounds (`min`, `LCF,WA`, `LCB`, `max`) in byte per
//!   iteration, depending on whether the layer condition holds and whether
//!   write-allocates can be evaded,
//! * the layer-condition cache-size requirement.
//!
//! The same descriptors drive the row-sampled cache-simulator measurement
//! (`clover_core::loop_kernel`), so the analytic model and the
//! "measurement" come from a single source of truth.

pub mod balance;
pub mod catalogue;
pub mod layer;
pub mod spec;

pub use balance::CodeBalance;
pub use catalogue::{
    cloverleaf_loops, loop_by_name, loop_catalogue, HotspotFunction, PAPER_MEASURED_SINGLE_CORE,
};
pub use layer::LayerCondition;
pub use spec::{AccessMode, ArrayAccess, LoopSpec};

/// Size of a double-precision grid element in bytes.
pub const ELEMENT_BYTES: usize = 8;
