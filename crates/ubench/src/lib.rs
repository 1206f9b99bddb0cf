//! `clover-ubench` — the microbenchmarks of the paper.
//!
//! Two families of simulated kernels characterise the SpecI2M
//! write-allocate evasion feature:
//!
//! * [`store`] — pure store kernels with 1–3 independent streams, normal or
//!   non-temporal, measuring the *store ratio* (actual memory traffic over
//!   explicitly initiated traffic) as a function of the core count
//!   (Figs. 5, 9, 10),
//! * [`copy`] — the array-copy kernel `a(:) = b(:)`, measuring the per-
//!   iteration read/write/SpecI2M volumes versus thread count (Fig. 6) and
//!   the read-to-write ratio versus halo size and inner dimension
//!   (Figs. 8, 11).

pub mod copy;
pub mod store;

pub use copy::{
    copy_halo_kernel, copy_halo_ratio, copy_halo_ratio_memo, copy_kernel_spec, copy_volume_kernel,
    copy_volume_per_iteration, copy_volume_per_iteration_memo, CopyHaloPoint, CopyVolumePoint,
};
pub use store::{store_kernel_spec, store_ratio, store_ratio_memo, StoreKind};
