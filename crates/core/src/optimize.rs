//! Optimization advisor (Sec. V-B and Fig. 7).
//!
//! The paper's optimized CloverLeaf version applies a non-temporal store
//! directive (`!DIR$ vector nontemporal`) to every hotspot loop and manually
//! restructures ac01/ac05 so their stores become SpecI2M-eligible.  This
//! module turns the traffic model into actionable recommendations: for every
//! loop it reports which transformation applies, the predicted code balance
//! before and after, and the expected improvement.

use clover_machine::Machine;
use clover_stencil::LoopSpec;

use crate::decomp::Decomposition;
use crate::traffic::{TrafficModel, TrafficOptions};
use crate::TINY_GRID;

/// Transformation recommended for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopOptimization {
    /// No write-allocate to evade (class (iii) loops): leave unchanged.
    None,
    /// Apply the non-temporal store directive to the (single) evadable
    /// write stream.
    NonTemporalStores,
    /// Apply the NT directive to one stream and rely on SpecI2M for the
    /// remaining one(s).
    NonTemporalPlusSpecI2M,
    /// Restructure the loop first (create the recoverable read-after-write
    /// dependency) so the hardware recognises the store stream, then apply
    /// the NT directive (ac01/ac05).
    RestructureAndNonTemporal,
}

/// Advice for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopAdvice {
    /// Loop label.
    pub name: String,
    /// Recommended transformation.
    pub optimization: LoopOptimization,
    /// Predicted full-node code balance of the original code (byte/it).
    pub original_balance: f64,
    /// Predicted full-node code balance after the transformation (byte/it).
    pub optimized_balance: f64,
}

impl LoopAdvice {
    /// Relative improvement (0..=1).
    pub fn improvement(&self) -> f64 {
        relative_improvement(self.original_balance, self.optimized_balance)
    }
}

/// Relative code-balance improvement of `optimized` over `original`
/// (0 for a non-positive original balance).
fn relative_improvement(original: f64, optimized: f64) -> f64 {
    if original <= 0.0 {
        0.0
    } else {
        (original - optimized) / original
    }
}

/// The full optimization plan for one machine / rank count.
#[derive(Debug, Clone)]
pub struct OptimizationPlan {
    /// Per-loop advice in catalogue order.
    pub loops: Vec<LoopAdvice>,
    /// Rank count the plan was computed for.
    pub ranks: usize,
}

impl OptimizationPlan {
    /// Build the plan for `ranks` ranks of the Tiny working set on
    /// `machine`.
    pub fn build(machine: &Machine, ranks: usize) -> Self {
        let model = TrafficModel::new(machine.clone());
        let decomp = Decomposition::new(ranks, TINY_GRID, TINY_GRID);
        let orig_opts = TrafficOptions::original(ranks);
        let opt_opts = TrafficOptions::optimized(ranks);
        let loops = clover_stencil::loop_catalogue()
            .iter()
            .map(|spec| {
                let orig = model.predict_loop(spec, &orig_opts, &decomp);
                let opt = model.predict_loop(spec, &opt_opts, &decomp);
                LoopAdvice {
                    name: spec.name.clone(),
                    optimization: Self::classify(spec),
                    original_balance: orig.code_balance(),
                    optimized_balance: opt.code_balance(),
                }
            })
            .collect();
        Self { loops, ranks }
    }

    fn classify(spec: &LoopSpec) -> LoopOptimization {
        let evadable = spec.evadable_write_streams();
        if evadable == 0 {
            LoopOptimization::None
        } else if spec.speci2m_blocked {
            LoopOptimization::RestructureAndNonTemporal
        } else if evadable == 1 {
            LoopOptimization::NonTemporalStores
        } else {
            LoopOptimization::NonTemporalPlusSpecI2M
        }
    }

    /// Average relative improvement over all loops.
    pub fn average_improvement(&self) -> f64 {
        self.loops.iter().map(|l| l.improvement()).sum::<f64>() / self.loops.len() as f64
    }

    /// Largest relative improvement of any loop.
    pub fn max_improvement(&self) -> f64 {
        self.loops
            .iter()
            .map(|l| l.improvement())
            .fold(0.0, f64::max)
    }

    /// Loops that need the manual restructuring.
    pub fn restructured_loops(&self) -> Vec<&str> {
        self.loops
            .iter()
            .filter(|l| l.optimization == LoopOptimization::RestructureAndNonTemporal)
            .map(|l| l.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    fn plan() -> OptimizationPlan {
        OptimizationPlan::build(&icelake_sp_8360y(), 72)
    }

    #[test]
    fn class_iii_loops_need_nothing() {
        let p = plan();
        for name in ["am07", "am11", "ac03", "ac07"] {
            let advice = p.loops.iter().find(|l| l.name == name).unwrap();
            assert_eq!(advice.optimization, LoopOptimization::None, "{name}");
            assert!(advice.improvement().abs() < 1e-9);
        }
    }

    #[test]
    fn ac01_and_ac05_need_restructuring() {
        let p = plan();
        assert_eq!(p.restructured_loops(), vec!["ac01", "ac05"]);
        for name in ["ac01", "ac05"] {
            let advice = p.loops.iter().find(|l| l.name == name).unwrap();
            assert!(
                advice.improvement() > 0.15,
                "{name}: {}",
                advice.improvement()
            );
        }
    }

    #[test]
    fn single_stream_loops_get_nt_stores() {
        let p = plan();
        for name in ["am04", "am06", "am08", "am10"] {
            let advice = p.loops.iter().find(|l| l.name == name).unwrap();
            assert_eq!(
                advice.optimization,
                LoopOptimization::NonTemporalStores,
                "{name}"
            );
        }
    }

    #[test]
    fn average_improvement_matches_paper_ballpark() {
        // The paper reports 5.8 % average and 23.2 % maximum improvement.
        let p = plan();
        let avg = p.average_improvement();
        let max = p.max_improvement();
        assert!((0.02..=0.12).contains(&avg), "average improvement {avg}");
        assert!((0.10..=0.30).contains(&max), "max improvement {max}");
    }

    #[test]
    fn no_loop_gets_worse() {
        let p = plan();
        for l in &p.loops {
            assert!(l.improvement() >= -1e-9, "{} would regress", l.name);
        }
    }

    #[test]
    fn plan_records_rank_count() {
        assert_eq!(plan().ranks, 72);
    }
}
