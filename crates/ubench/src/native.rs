//! Native execution of the microbenchmark kernels on the host CPU.
//!
//! Real arrays, real stores, and — on x86-64 with SSE2 — genuine
//! non-temporal stores via `std::arch`, so a caller timing these kernels
//! exercises actual write-allocate evasion on the host it runs on.  On
//! other architectures the NT path falls back to plain stores (the measured
//! effect simply disappears).

/// Fill `dst` with `value` using plain stores.
pub fn store_plain(dst: &mut [f64], value: f64) {
    dst.fill(value);
}

/// Fill `dst` with `value` using non-temporal stores where the platform
/// supports them (x86-64: SSE2 `MOVNTPD`, with plain stores for an
/// unaligned first and an odd last element), plain stores elsewhere.
pub fn store_nontemporal(dst: &mut [f64], value: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_set1_pd, _mm_sfence, _mm_stream_pd};
        let (head, body) = dst.split_at_mut(dst.as_ptr().align_offset(16).min(dst.len()));
        head.fill(value);
        let mut pairs = body.chunks_exact_mut(2);
        for pair in &mut pairs {
            // SAFETY: `pair` is two in-bounds elements, 16-byte aligned.
            unsafe { _mm_stream_pd(pair.as_mut_ptr(), _mm_set1_pd(value)) };
        }
        pairs.into_remainder().fill(value);
        // SAFETY: SSE, hence SFENCE, is part of every x86-64 CPU.
        unsafe { _mm_sfence() };
    }
    #[cfg(not(target_arch = "x86_64"))]
    store_plain(dst, value);
}

/// Copy `src` into `dst` with plain stores.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn copy_plain(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len());
    dst.copy_from_slice(src);
}

/// Copy `src` into `dst` with non-temporal stores where supported, split
/// like [`store_nontemporal`].
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn copy_nontemporal(dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_loadu_pd, _mm_sfence, _mm_stream_pd};
        let head = dst.as_ptr().align_offset(16).min(dst.len());
        dst[..head].copy_from_slice(&src[..head]);
        let mut pairs = dst[head..].chunks_exact_mut(2);
        let mut src_pairs = src[head..].chunks_exact(2);
        for (d, s) in (&mut pairs).zip(&mut src_pairs) {
            // SAFETY: `d` and `s` are two in-bounds elements, `d` 16-byte
            // aligned.
            unsafe { _mm_stream_pd(d.as_mut_ptr(), _mm_loadu_pd(s.as_ptr())) };
        }
        pairs
            .into_remainder()
            .copy_from_slice(src_pairs.remainder());
        // SAFETY: SSE, hence SFENCE, is part of every x86-64 CPU.
        unsafe { _mm_sfence() };
    }
    #[cfg(not(target_arch = "x86_64"))]
    dst.copy_from_slice(src);
}

/// Row-wise copy with an untouched halo gap, the native counterpart of the
/// Fig. 8 microbenchmark.  Returns the number of elements copied.
///
/// # Panics
/// Panics if the buffers are too small for the requested geometry.
pub fn copy_with_halo(
    dst: &mut [f64],
    src: &[f64],
    inner: usize,
    halo: usize,
    rows: usize,
    nontemporal: bool,
) -> usize {
    let stride = inner + halo;
    assert!(dst.len() >= rows * stride && src.len() >= rows * stride);
    let mut copied = 0usize;
    for row in 0..rows {
        let start = row * stride;
        let d = &mut dst[start..start + inner];
        let s = &src[start..start + inner];
        if nontemporal {
            copy_nontemporal(d, s);
        } else {
            copy_plain(d, s);
        }
        copied += inner;
    }
    copied
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_and_nt_store_produce_identical_results() {
        let mut a = vec![0.0f64; 1537];
        let mut b = vec![0.0f64; 1537];
        store_plain(&mut a, 3.25);
        store_nontemporal(&mut b, 3.25);
        assert_eq!(a, b);
    }

    #[test]
    fn plain_and_nt_copy_produce_identical_results() {
        let src: Vec<f64> = (0..2049).map(|i| i as f64 * 0.5).collect();
        let mut a = vec![0.0f64; src.len()];
        let mut b = vec![0.0f64; src.len()];
        copy_plain(&mut a, &src);
        copy_nontemporal(&mut b, &src);
        assert_eq!(a, b);
        assert_eq!(a, src);
    }

    #[test]
    fn copy_with_halo_leaves_the_halo_untouched() {
        let inner = 216;
        let halo = 5;
        let rows = 4;
        let n = rows * (inner + halo);
        let src = vec![7.0f64; n];
        let mut dst = vec![-1.0f64; n];
        let copied = copy_with_halo(&mut dst, &src, inner, halo, rows, false);
        assert_eq!(copied, inner * rows);
        for row in 0..rows {
            let start = row * (inner + halo);
            assert!(dst[start..start + inner].iter().all(|&x| x == 7.0));
            assert!(dst[start + inner..start + inner + halo]
                .iter()
                .all(|&x| x == -1.0));
        }
    }

    #[test]
    fn copy_with_halo_nt_matches_plain() {
        let inner = 530;
        let halo = 3;
        let rows = 3;
        let n = rows * (inner + halo);
        let src: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        let mut a = vec![0.0f64; n];
        let mut b = vec![0.0f64; n];
        copy_with_halo(&mut a, &src, inner, halo, rows, false);
        copy_with_halo(&mut b, &src, inner, halo, rows, true);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_slices_are_fine() {
        let mut empty: Vec<f64> = Vec::new();
        store_nontemporal(&mut empty, 1.0);
        copy_nontemporal(&mut empty, &[]);
        assert!(empty.is_empty());
    }
}
