//! Property-based tests of the discrete-event simulator: determinism and
//! physical lower bounds hold for arbitrary workloads and machines.

use babelflow_core::{ModuloMap, TaskGraph, TaskMap};
use babelflow_graphs::{KWayMerge, Reduction};
use babelflow_sim::{
    simulate, CompositeKind, MachineConfig, MergeTreeCost, RenderCost, RuntimeCosts,
};
use babelflow_core::proptest_lite::prelude::*;

fn presets() -> Vec<RuntimeCosts> {
    vec![
        RuntimeCosts::mpi_async(),
        RuntimeCosts::mpi_blocking(),
        RuntimeCosts::charm(),
        RuntimeCosts::legion_spmd(),
        RuntimeCosts::legion_index_launch(),
        RuntimeCosts::icet(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_preset_is_deterministic_and_bounded(
        k in 2u64..4,
        d in 1u32..3,
        cores in 1u32..33,
        preset_idx in 0usize..6,
    ) {
        let g = KWayMerge::new(k.pow(d), k);
        let map = ModuloMap::new(cores, g.size() as u64);
        let cost = MergeTreeCost::new(g.clone(), 16 * 16 * 16);
        let machine = MachineConfig::shaheen(cores);
        let rc = &presets()[preset_idx];

        let a = simulate(&g, &|id| map.shard(id).0, &cost, &machine, rc);
        let b = simulate(&g, &|id| map.shard(id).0, &cost, &machine, rc);
        prop_assert_eq!(a.makespan_ns, b.makespan_ns, "nondeterministic");
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.tasks as usize, g.size());

        // Physical bounds: the makespan can never beat perfect parallelism
        // over the cores, nor the longest single task.
        prop_assert!(a.makespan_ns >= a.compute_ns / cores as u64);
        prop_assert!(a.makespan_ns > 0);
        // And it is never worse than fully serial execution plus all
        // overheads and a generous communication allowance.
        let slack = a.overhead_ns + a.staging_ns + a.messages * 1_000_000 + a.bytes;
        prop_assert!(
            a.makespan_ns <= a.compute_ns + slack + 1_000_000_000,
            "makespan {} exceeds serial bound {}",
            a.makespan_ns,
            a.compute_ns + slack
        );
    }

    /// Workloads whose task costs are drawn from the substrate PRNG are
    /// reproducible end to end: the same seed yields the same cost stream
    /// (same-seed ⇒ identical-stream determinism), so two simulations of
    /// the same seeded workload are byte-identical.
    #[test]
    fn seeded_random_costs_make_runs_reproducible(
        k in 2u64..4,
        d in 1u32..3,
        cores in 1u32..17,
        seed in any::<u64>(),
    ) {
        use babelflow_core::rng::Rng;
        use babelflow_core::Task;
        use babelflow_sim::TaskCostModel;

        /// Cost model with per-task compute/output drawn from a PRNG
        /// stream seeded by (base seed, task id) — deterministic by
        /// construction if and only if the PRNG is.
        struct SeededCost {
            seed: u64,
        }
        impl SeededCost {
            fn rng_for(&self, task: &Task) -> Rng {
                Rng::seed_from_u64(self.seed.wrapping_add(task.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            }
        }
        impl TaskCostModel for SeededCost {
            fn compute_ns(&self, task: &Task, _input_bytes: &[u64]) -> u64 {
                self.rng_for(task).random_range(1_000u64..1_000_000)
            }
            fn output_bytes(&self, task: &Task, _input_bytes: &[u64]) -> Vec<u64> {
                let mut rng = self.rng_for(task);
                let _ = rng.next_u64(); // decorrelate from compute_ns
                (0..task.fan_out()).map(|_| rng.random_range(64u64..65_536)).collect()
            }
            fn external_input_bytes(&self, task: &Task, slot: usize) -> u64 {
                let mut rng = self.rng_for(task);
                rng.random_range(64 + slot as u64..65_536)
            }
        }

        let g = KWayMerge::new(k.pow(d), k);
        let map = ModuloMap::new(cores, g.size() as u64);
        let machine = MachineConfig::shaheen(cores);
        let rc = RuntimeCosts::mpi_async();

        let cost = SeededCost { seed };
        let a = simulate(&g, &|id| map.shard(id).0, &cost, &machine, &rc);
        let b = simulate(&g, &|id| map.shard(id).0, &cost, &machine, &rc);
        prop_assert_eq!(a.makespan_ns, b.makespan_ns);
        prop_assert_eq!(a.compute_ns, b.compute_ns);
        prop_assert_eq!(a.messages, b.messages);
        prop_assert_eq!(a.bytes, b.bytes);

        // A different seed must actually change the workload (with
        // overwhelming probability over a 64-bit stream).
        let other = SeededCost { seed: seed ^ 0xD1CE_BA5E_D00D_F00D };
        let c = simulate(&g, &|id| map.shard(id).0, &other, &machine, &rc);
        prop_assert_ne!(
            (a.makespan_ns, a.compute_ns, a.bytes),
            (c.makespan_ns, c.compute_ns, c.bytes)
        );
    }

    #[test]
    fn adding_cores_never_slows_greedy_mpi_much(
        k in 2u64..4,
        d in 2u32..4,
    ) {
        let g = Reduction::new(k.pow(d), k);
        let cost = RenderCost::new(
            CompositeKind::Reduction(g.clone()),
            (256, 256),
            16.0,
        );
        let rc = RuntimeCosts::mpi_async();
        let run = |cores: u32| {
            let map = ModuloMap::new(cores, g.size() as u64);
            let machine = MachineConfig::shaheen(cores);
            simulate(&g, &|id| map.shard(id).0, &cost, &machine, &rc)
        };
        let small = run(2);
        let big = run(16);
        // More cores may not help (dependency chains) but must not blow up
        // beyond scheduling noise.
        prop_assert!(big.makespan_ns <= small.makespan_ns * 3 / 2);
    }
}
