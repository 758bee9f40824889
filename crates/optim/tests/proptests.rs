//! Property tests for the optimization layer: the decomposition identity
//! holds for arbitrary partitions and points, the Complex method respects
//! its invariants for arbitrary seeds, and protocol types round-trip.

use optim::{
    ComplexBox, ComplexBoxConfig, DecomposedRosenbrock, Partition, Problem, Rosenbrock,
    SolveResult, SolveSpec, Sphere,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any legal (n, workers) and any point, the sum of block
    /// objectives equals the full Rosenbrock objective — the identity the
    /// whole manager/worker split rests on.
    #[test]
    fn decomposition_identity(
        workers in 1usize..8,
        extra in 0usize..40,
        xs in proptest::collection::vec(-2.0f64..2.0, 128),
    ) {
        let n = workers * 2 + (workers - 1) + extra;
        let d = DecomposedRosenbrock::new(n, workers);
        let x = &xs[..n];
        let coords: Vec<f64> = d.partition.coordinators.iter().map(|&i| x[i]).collect();
        let blocks: Vec<Vec<f64>> = d
            .partition
            .blocks
            .iter()
            .map(|r| x[r.clone()].to_vec())
            .collect();
        let parts: Vec<f64> = (0..workers)
            .map(|w| d.subproblem(w, &coords).eval(&blocks[w]))
            .collect();
        let combined = d.combine(&parts);
        let direct = Rosenbrock::new(n).eval(x);
        prop_assert!(
            (combined - direct).abs() < 1e-9 * (1.0 + direct.abs()),
            "n={} w={}: {} vs {}", n, workers, combined, direct
        );
        // And the assembled point is exactly the original.
        prop_assert_eq!(d.assemble(&coords, &blocks), x.to_vec());
    }

    /// Partitions cover [0, n) exactly once.
    #[test]
    fn partition_covers_exactly(workers in 1usize..9, extra in 0usize..50) {
        let n = workers * 2 + (workers - 1) + extra;
        let p = Partition::even(n, workers);
        let mut seen = vec![0u8; n];
        for r in &p.blocks {
            for i in r.clone() {
                seen[i] += 1;
            }
        }
        for &c in &p.coordinators {
            seen[c] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        prop_assert_eq!(p.manager_dim(), workers - 1);
    }

    /// For any seed the optimizer keeps its population in bounds and its
    /// best value never degrades.
    #[test]
    fn complex_box_invariants(seed in any::<u64>(), dim in 2usize..8) {
        let p = Sphere::new(dim);
        let mut opt = ComplexBox::new(
            &p,
            ComplexBoxConfig {
                seed,
                ..ComplexBoxConfig::default()
            },
        );
        let bounds = p.bounds();
        let mut last = opt.best().1;
        for _ in 0..60 {
            opt.step();
            let (bp, bv) = opt.best();
            prop_assert!(bounds.contains(bp));
            prop_assert!(bv <= last + 1e-12);
            last = bv;
        }
    }

    /// Checkpoint state round-trips for any progress point, and resumes
    /// the way a restored worker does: decode, `fits`, `from_points`.
    #[test]
    fn state_round_trip(seed in any::<u64>(), iters in 0u64..120) {
        let p = Sphere::new(3);
        let mut opt = ComplexBox::new(
            &p,
            ComplexBoxConfig {
                seed,
                ..ComplexBoxConfig::default()
            },
        );
        let best = opt.run(iters);
        let state = opt.into_state();
        let bytes = cdr::to_bytes(&state);
        let back: optim::ComplexState = cdr::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&state, &back);
        prop_assert!(back.fits(3));
        let resumed = ComplexBox::from_points(
            &p,
            ComplexBoxConfig::default(),
            back.points,
            back.iterations,
            back.evals,
        );
        prop_assert_eq!(resumed.iterations(), iters);
        prop_assert_eq!(resumed.evals(), state.evals + 6);
        prop_assert_eq!(resumed.best().1.to_bits(), best.to_bits());
    }

    /// Protocol types round-trip for arbitrary contents.
    #[test]
    fn protocol_round_trips(
        problem_id in any::<u32>(),
        dim in 1u32..64,
        left in proptest::option::of(-2.0f64..2.0),
        right in proptest::option::of(-2.0f64..2.0),
        iters in any::<u64>(),
        seed in any::<u64>(),
        reset in any::<bool>(),
        point in proptest::collection::vec(-2.0f64..2.0, 0..32),
    ) {
        let spec = SolveSpec { problem_id, dim, left, right, iters, seed, reset };
        let back: SolveSpec = cdr::from_bytes(&cdr::to_bytes(&spec)).unwrap();
        prop_assert_eq!(spec, back);
        let res = SolveResult {
            best_value: 1.5,
            best_point: point,
            iterations: iters,
            evals: seed,
        };
        let back: SolveResult = cdr::from_bytes(&cdr::to_bytes(&res)).unwrap();
        prop_assert_eq!(res, back);
    }
}
