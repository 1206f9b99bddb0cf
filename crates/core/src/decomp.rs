//! CloverLeaf's domain decomposition.
//!
//! CloverLeaf splits the ranks into a rank grid `ranks_x × ranks_y` by a
//! search over the factor pairs of the rank count (`clover_decompose`).
//! For a *prime* rank count the only pairs are `1 × p` and `p × 1`; the
//! code then cuts the **inner (x) dimension** into `p` strips, producing
//! very short rows per rank (216 elements for 71 ranks on the Tiny grid) —
//! the root cause of the paper's prime-number effect.

/// The rank grid and local chunk sizes of one decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Total number of ranks.
    pub ranks: usize,
    /// Ranks along the inner (x) dimension.
    pub ranks_x: usize,
    /// Ranks along the outer (y) dimension.
    pub ranks_y: usize,
    /// Global grid cells along x.
    pub grid_x: usize,
    /// Global grid cells along y.
    pub grid_y: usize,
}

impl Decomposition {
    /// Decompose a `grid_x × grid_y` grid over `ranks` ranks the way
    /// CloverLeaf's `clover_decompose` does: `ranks_y` is the smallest
    /// divisor `c` of `ranks` with `(ranks / c) / c` at most the mesh ratio
    /// `grid_x / grid_y`, and `ranks_x = ranks / c`.  When no divisor
    /// qualifies, or the smallest that does is `ranks` itself (every prime
    /// rank count on a square mesh), the grid is cut along one dimension:
    /// x for a wide or square mesh (`ranks_x = ranks`, `ranks_y = 1`), y
    /// for a tall one.
    pub fn new(ranks: usize, grid_x: usize, grid_y: usize) -> Self {
        assert!(ranks > 0 && grid_x > 0 && grid_y > 0);
        // Port of clover_decompose: find the first factor pair
        // (ranks/c) × c with (ranks/c)/c ≤ mesh_ratio; if none exists (prime
        // count) or the split degenerates, cut along x for wide/square
        // meshes.
        let mesh_ratio = grid_x as f64 / grid_y as f64;
        let mut rx = ranks;
        let mut ry = 1usize;
        let mut split_found = false;
        for c in 1..=ranks {
            if ranks % c != 0 {
                continue;
            }
            let factor_x = (ranks / c) as f64;
            let factor_y = c as f64;
            if factor_x / factor_y <= mesh_ratio {
                ry = c;
                rx = ranks / c;
                split_found = true;
                break;
            }
        }
        if !split_found || ry == ranks {
            if mesh_ratio >= 1.0 {
                rx = ranks;
                ry = 1;
            } else {
                rx = 1;
                ry = ranks;
            }
        }
        Self {
            ranks,
            ranks_x: rx,
            ranks_y: ry,
            grid_x,
            grid_y,
        }
    }

    /// True if the rank grid is a single row or column (`ranks_x` or
    /// `ranks_y` equals `ranks`): every prime rank count, 1 rank, and any
    /// other count whose factor-pair search degenerates to one dimension.
    pub fn is_one_dimensional(&self) -> bool {
        self.ranks_x == self.ranks || self.ranks_y == self.ranks
    }

    /// Local inner (x) extent of rank `r` (cells).  Remainder cells are
    /// distributed to the first ranks, as CloverLeaf does.
    pub fn local_inner(&self, r: usize) -> usize {
        let rx = r % self.ranks_x;
        chunk_size(self.grid_x, self.ranks_x, rx)
    }

    /// Local outer (y) extent of rank `r` (cells).
    pub fn local_outer(&self, r: usize) -> usize {
        let ry = r / self.ranks_x;
        chunk_size(self.grid_y, self.ranks_y, ry)
    }

    /// Smallest local inner extent over all ranks — the quantity that
    /// controls SpecI2M streak lengths.
    pub fn min_local_inner(&self) -> usize {
        (0..self.ranks_x)
            .map(|rx| chunk_size(self.grid_x, self.ranks_x, rx))
            .min()
            .unwrap_or(0)
    }

    /// Typical (median) local inner extent.
    pub fn typical_local_inner(&self) -> usize {
        self.grid_x / self.ranks_x
    }

    /// Number of neighbours of rank `r` (2D von-Neumann neighbourhood in the
    /// rank grid) — each neighbour needs a halo exchange.
    pub fn neighbour_count(&self, r: usize) -> usize {
        let rx = r % self.ranks_x;
        let ry = r / self.ranks_x;
        let mut n = 0;
        if rx > 0 {
            n += 1;
        }
        if rx + 1 < self.ranks_x {
            n += 1;
        }
        if ry > 0 {
            n += 1;
        }
        if ry + 1 < self.ranks_y {
            n += 1;
        }
        n
    }

    /// Halo bytes exchanged per rank per field per depth-1 exchange
    /// (both directions).
    pub fn halo_bytes_per_field(&self, r: usize) -> usize {
        let rx = r % self.ranks_x;
        let ry = r / self.ranks_x;
        let mut bytes = 0usize;
        let inner = self.local_inner(r);
        let outer = self.local_outer(r);
        // Left/right neighbours exchange a column of `outer` cells.
        if rx > 0 {
            bytes += outer * 8;
        }
        if rx + 1 < self.ranks_x {
            bytes += outer * 8;
        }
        // Bottom/top neighbours exchange a row of `inner` cells.
        if ry > 0 {
            bytes += inner * 8;
        }
        if ry + 1 < self.ranks_y {
            bytes += inner * 8;
        }
        bytes
    }
}

/// Chunk size of part `idx` when splitting `total` cells over `parts` parts,
/// remainder to the first parts.
fn chunk_size(total: usize, parts: usize, idx: usize) -> usize {
    let base = total / parts;
    let rem = total % parts;
    if idx < rem {
        base + 1
    } else {
        base
    }
}

/// True if `n` is prime.
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n < 4 {
        return true;
    }
    if n % 2 == 0 {
        return false;
    }
    let mut d = 3;
    while d * d <= n {
        if n % d == 0 {
            return false;
        }
        d += 2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: usize = 15_360;

    #[test]
    fn prime_helpers() {
        assert!(is_prime(2) && is_prime(3) && is_prime(19) && is_prime(71));
        assert!(!is_prime(1) && !is_prime(38) && !is_prime(72));
    }

    #[test]
    fn prime_counts_cut_only_the_inner_dimension() {
        for p in [19usize, 29, 37, 71] {
            let d = Decomposition::new(p, G, G);
            assert!(d.is_one_dimensional(), "{p} ranks must decompose 1D");
            assert_eq!(d.ranks_x, p, "{p} ranks: inner dimension is cut");
            assert_eq!(d.ranks_y, 1);
        }
    }

    #[test]
    fn paper_local_inner_dimensions() {
        // Sec. V-C: 71 ranks → 216-element rows, 19 ranks → 809, 29 → 530
        // (rounded), non-prime 72 → 1920, 64 → 1920.
        assert_eq!(Decomposition::new(71, G, G).typical_local_inner(), 216);
        assert_eq!(Decomposition::new(19, G, G).typical_local_inner(), 808);
        assert_eq!(Decomposition::new(29, G, G).typical_local_inner(), 529);
        assert_eq!(Decomposition::new(72, G, G).typical_local_inner(), 1920);
        assert_eq!(Decomposition::new(64, G, G).typical_local_inner(), 1920);
        assert_eq!(Decomposition::new(1, G, G).typical_local_inner(), 15_360);
    }

    #[test]
    fn non_prime_counts_stay_close_to_square() {
        let d = Decomposition::new(72, G, G);
        assert_eq!(d.ranks_x * d.ranks_y, 72);
        assert!(
            d.ranks_x >= 8 && d.ranks_x <= 9,
            "72 = 8×9 or 9×8, got {}×{}",
            d.ranks_x,
            d.ranks_y
        );
        let d = Decomposition::new(36, G, G);
        assert_eq!(d.ranks_x * d.ranks_y, 36);
        assert_eq!(d.ranks_x.max(d.ranks_y), 6);
    }

    #[test]
    fn cells_are_conserved() {
        for ranks in 1..=72 {
            let d = Decomposition::new(ranks, G, G);
            let total_x: usize = (0..d.ranks_x).map(|rx| chunk_size(G, d.ranks_x, rx)).sum();
            let total_y: usize = (0..d.ranks_y).map(|ry| chunk_size(G, d.ranks_y, ry)).sum();
            assert_eq!(total_x, G, "ranks={ranks}");
            assert_eq!(total_y, G, "ranks={ranks}");
            assert_eq!(d.ranks_x * d.ranks_y, ranks, "ranks={ranks}");
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for ranks in 1..=72 {
            let d = Decomposition::new(ranks, G, G);
            let sizes: Vec<usize> = (0..ranks).map(|r| d.local_inner(r)).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "ranks={ranks}: {min}..{max}");
        }
    }

    #[test]
    fn interior_rank_has_four_neighbours() {
        let d = Decomposition::new(36, G, G);
        // Rank in the middle of a 6x6 rank grid.
        let middle = d.ranks_x + 1;
        assert_eq!(d.neighbour_count(middle), 4);
        assert_eq!(d.neighbour_count(0), 2);
    }

    #[test]
    fn one_dimensional_halo_is_a_full_column() {
        let d = Decomposition::new(71, G, G);
        // Interior ranks exchange two columns of the full grid height.
        let bytes = d.halo_bytes_per_field(35);
        assert_eq!(bytes, 2 * G * 8);
        // Edge ranks exchange only one.
        assert_eq!(d.halo_bytes_per_field(0), G * 8);
    }

    #[test]
    fn min_local_inner_matches_local_queries() {
        for ranks in [5usize, 19, 24, 71, 72] {
            let d = Decomposition::new(ranks, G, G);
            let min_direct = (0..ranks).map(|r| d.local_inner(r)).min().unwrap();
            assert_eq!(d.min_local_inner(), min_direct, "ranks={ranks}");
        }
    }
}
