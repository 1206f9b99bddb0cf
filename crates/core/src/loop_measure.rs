//! The measurement side of Table I, as tests: hotspot loops swept through
//! [`loop_kernel`](crate::loop_kernel) on the node simulator, read off the
//! busiest core the way the paper reads one rank's LIKWID counters.

mod tests {
    use crate::loop_kernel;
    use clover_cachesim::{AccessKind, KernelSpec, MemCounters, NodeSim, SimConfig, SimMemo};
    use clover_machine::icelake_sp_8360y;
    use clover_stencil::{loop_by_name, CodeBalance};

    /// Counters of the busiest of `ranks` compactly pinned ICX cores
    /// driving `kernel`, and the grid-point updates they cover.
    fn run(kernel: &KernelSpec, ranks: usize) -> (MemCounters, f64) {
        let sim = NodeSim::new(SimConfig::new(icelake_sp_8360y(), ranks));
        let counters = sim.run_spmd_memo(kernel, &SimMemo::new()).per_rank;
        (counters, kernel.iterations() as f64)
    }

    /// [`run`] on `rows` rows of `local_inner` elements of loop `name`.
    fn measure(name: &str, local_inner: u64, rows: u64, ranks: usize) -> (MemCounters, f64) {
        run(
            &loop_kernel(&loop_by_name(name).unwrap(), local_inner, rows),
            ranks,
        )
    }

    /// Measured code balance (byte/it) of that sweep.
    fn measured_balance(name: &str, local_inner: u64, rows: u64, ranks: usize) -> f64 {
        let (counters, iterations) = measure(name, local_inner, rows, ranks);
        counters.total_bytes() / iterations
    }

    #[test]
    fn single_rank_am04_measures_near_lcf_wa() {
        // Table I: single-core measurement of am04 is ~24 byte/it.
        let b = measured_balance("am04", 3840, 12, 1);
        assert!((21.0..=27.0).contains(&b), "measured {b} byte/it");
    }

    #[test]
    fn full_node_am04_measures_below_single_rank() {
        let serial = measured_balance("am04", 3840, 12, 1);
        let node = measured_balance("am04", 1920, 12, 72);
        assert!(node < serial - 2.0, "node {node} vs serial {serial}");
    }

    #[test]
    fn prime_decomposition_measures_higher_than_full_node() {
        let node = measured_balance("am04", 1920, 12, 72);
        let prime = measured_balance("am04", 216, 48, 71);
        assert!(prime > node * 1.03, "prime {prime} vs node {node}");
    }

    #[test]
    fn nt_stores_lower_the_balance_of_evadable_loops() {
        // The compiler honours an NT directive for the first write-only
        // stream of am08; its write-allocate disappears.
        let plain = loop_kernel(&loop_by_name("am08").unwrap(), 3840, 12);
        let mut nt = plain.clone();
        let loaded: Vec<u64> = nt
            .operands
            .iter()
            .filter(|op| op.kind == AccessKind::Load)
            .map(|op| op.offset)
            .collect();
        let first_write = nt
            .operands
            .iter_mut()
            .find(|op| op.kind == AccessKind::Store && !loaded.contains(&op.offset))
            .expect("am08 has a write-only stream");
        first_write.kind = AccessKind::StoreNT;
        let balance = |kernel: &KernelSpec| {
            let (counters, iterations) = run(kernel, 1);
            counters.total_bytes() / iterations
        };
        let (plain, nt) = (balance(&plain), balance(&nt));
        assert!(nt < plain - 3.0, "nt {nt} vs plain {plain}");
    }

    #[test]
    fn class_iii_loop_measurement_matches_all_bounds() {
        // ac03: all four bounds coincide at 64 byte/it; the measurement must
        // land close to that for any configuration.
        let bounds = CodeBalance::from_spec(&loop_by_name("ac03").unwrap());
        for (local_inner, ranks) in [(3840, 1), (1920, 72)] {
            let b = measured_balance("ac03", local_inner, 12, ranks);
            let rel = (b - bounds.min).abs() / bounds.min;
            assert!(rel < 0.12, "measured {b} vs bound {}", bounds.min);
        }
    }

    #[test]
    fn measurement_reports_iteration_count() {
        let (counters, iterations) = measure("am04", 512, 8, 1);
        assert_eq!(iterations, 512.0 * 8.0);
        assert!(counters.read_bytes() > 0.0);
        assert!(counters.write_bytes() > 0.0);
    }
}
