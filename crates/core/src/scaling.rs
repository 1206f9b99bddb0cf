//! Node-level scaling model (Figs. 2 and 3).
//!
//! For every rank count the model combines the domain decomposition, the
//! per-loop traffic model and the machine's bandwidth saturation curve into
//! an execution-time estimate per timestep, from which speedup and the
//! achieved memory bandwidth follow.  The hotspot loops represent ~69 % of
//! the runtime; the remainder is modelled as a fixed memory-bound fraction
//! so the absolute shares match the profile in Listing 2.

use std::sync::Arc;

use clover_machine::Machine;

use crate::engine::ScalingEngine;
use crate::traffic::TrafficOptions;
use crate::TINY_GRID;

/// Fraction of the total runtime spent outside the three hotspot functions
/// (Listing 2: the hotspots cover 67.5–69.2 %).
pub(crate) const NON_HOTSPOT_FRACTION: f64 = 0.31;

/// One point of the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Number of ranks.
    pub ranks: usize,
    /// Whether the rank count is prime (1D decomposition).
    pub prime: bool,
    /// Local inner dimension per rank (elements).
    pub local_inner: usize,
    /// Estimated wall-clock time per timestep (seconds).
    pub time_per_step: f64,
    /// Speedup relative to one rank.
    pub speedup: f64,
    /// Achieved memory bandwidth (byte/s) across the node.
    pub memory_bandwidth: f64,
    /// Memory data volume per timestep (bytes).
    pub volume_per_step: f64,
    /// Per-loop code balance (byte/it), one value per loop of
    /// [`loop_catalogue`](crate::loop_catalogue) in its order (the names
    /// live there).  Shared, so that a memo hands out copies of a point
    /// without allocating.
    pub loop_balances: Arc<[f64]>,
}

/// Fill in speedups relative to the first point of a range — the one
/// normalisation every sweep path applies ([`ScalingModel::sweep`],
/// the memoized engine sweep and the scenario runner's per-scenario
/// assembly all share this function, so the byte-identity between those
/// paths cannot drift).  An empty slice is left untouched.
pub fn normalise_speedups(points: &mut [ScalingPoint]) {
    let Some(t_first) = points.first().map(|p| p.time_per_step) else {
        return;
    };
    for p in points {
        p.speedup = t_first / p.time_per_step;
    }
}

/// The scaling model for one machine: the one-shot front of a
/// [`ScalingEngine`], which does the evaluation.
#[derive(Debug, Clone)]
pub struct ScalingModel {
    engine: ScalingEngine,
}

impl ScalingModel {
    /// Model for the Tiny working set on `machine`.
    pub fn new(machine: Machine) -> Self {
        Self {
            engine: ScalingEngine::new(machine, TINY_GRID),
        }
    }

    /// Evaluate one rank count.
    pub fn point(&self, ranks: usize, opts: &TrafficOptions) -> ScalingPoint {
        self.engine.point(ranks, opts)
    }

    /// Evaluate a full sweep over 1..=`max_ranks` ranks and fill in
    /// speedups relative to the single-rank point.  `max_ranks == 0` yields
    /// an empty sweep instead of panicking.
    pub fn sweep(
        &self,
        max_ranks: usize,
        opts_for: impl Fn(usize) -> TrafficOptions,
    ) -> Vec<ScalingPoint> {
        let mut points: Vec<ScalingPoint> = (1..=max_ranks)
            .map(|r| self.point(r, &opts_for(r)))
            .collect();
        normalise_speedups(&mut points);
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    fn sweep_to_72() -> Vec<ScalingPoint> {
        ScalingModel::new(icelake_sp_8360y()).sweep(72, TrafficOptions::original)
    }

    #[test]
    fn speedup_is_one_for_one_rank_and_grows() {
        let points = sweep_to_72();
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        assert!(
            points[71].speedup > 10.0,
            "full node speedup = {}",
            points[71].speedup
        );
        assert!(points[17].speedup > points[8].speedup);
    }

    #[test]
    fn bandwidth_saturates_within_first_domain() {
        // Fig. 2: the first ccNUMA domain (18 cores) saturates at ~9 cores.
        let points = sweep_to_72();
        let bw9 = points[8].memory_bandwidth;
        let bw18 = points[17].memory_bandwidth;
        let m = icelake_sp_8360y();
        assert!(bw9 > 0.85 * m.domain_bandwidth());
        assert!(bw18 <= 1.05 * m.domain_bandwidth());
        // But the speedup keeps rising beyond saturation because SpecI2M
        // reduces the traffic per iteration.
        assert!(points[17].speedup > points[8].speedup * 1.05);
    }

    #[test]
    fn prime_rank_counts_show_speedup_drops() {
        let points = sweep_to_72();
        // Fig. 2: pronounced drops at prime counts beyond one domain.
        for p in [37usize, 41, 43, 47, 53, 59, 61, 67, 71] {
            let prime = &points[p - 1];
            let before = &points[p - 2];
            assert!(prime.prime);
            assert!(
                prime.speedup < before.speedup,
                "speedup at {} ranks ({}) should dip below {} ranks ({})",
                p,
                prime.speedup,
                p - 1,
                before.speedup
            );
        }
    }

    #[test]
    fn prime_drops_are_not_bandwidth_drops() {
        // The paper stresses that the speedup drops are *not* accompanied by
        // bandwidth drops: traffic per iteration rises instead.
        let points = sweep_to_72();
        let p71 = &points[70];
        let p72 = &points[71];
        assert!(p71.volume_per_step > p72.volume_per_step * 1.05);
        assert!(p71.memory_bandwidth > 0.9 * p72.memory_bandwidth);
    }

    #[test]
    fn per_loop_balances_cover_catalogue() {
        let model = ScalingModel::new(icelake_sp_8360y());
        let point = model.point(72, &TrafficOptions::original(72));
        assert_eq!(point.loop_balances.len(), 22);
        assert_eq!(point.local_inner, 1920);
    }

    #[test]
    fn zero_rank_sweep_is_empty_not_a_panic() {
        // Regression: `sweep(0, …)` used to index `points[0]` out of bounds.
        let model = ScalingModel::new(icelake_sp_8360y());
        assert!(model.sweep(0, TrafficOptions::original).is_empty());
    }

    #[test]
    fn range_sweep_normalises_to_its_first_point() {
        // A plan's `--ranks 9..18` scenario: the model's points over the
        // range, normalised as every sweep path normalises them.
        let model = ScalingModel::new(icelake_sp_8360y());
        let full = model.sweep(72, TrafficOptions::original);
        let mut partial: Vec<ScalingPoint> = (9..=18)
            .map(|r| model.point(r, &TrafficOptions::original(r)))
            .collect();
        normalise_speedups(&mut partial);
        assert_eq!(partial[0].ranks, 9);
        assert!((partial[0].speedup - 1.0).abs() < 1e-12);
        // Same model points as the full sweep, only the baseline differs.
        assert!((partial[9].time_per_step - full[17].time_per_step).abs() < 1e-15);
        let expected = full[8].time_per_step / full[17].time_per_step;
        assert!((partial[9].speedup - expected).abs() < 1e-12);
    }

    #[test]
    fn smaller_grid_runs_faster() {
        let big = ScalingModel::new(icelake_sp_8360y());
        let small = ScalingEngine::new(icelake_sp_8360y(), 1920);
        assert!(small.grid() < TINY_GRID);
        let tb = big.point(18, &TrafficOptions::original(18)).time_per_step;
        let ts = small.point(18, &TrafficOptions::original(18)).time_per_step;
        assert!(ts < tb / 10.0);
    }
}
