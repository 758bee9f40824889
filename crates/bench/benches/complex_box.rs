//! Microbenchmark: the Complex Box optimizer itself (real algorithm
//! work, independent of the simulation).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use optim::{ComplexBox, ComplexBoxConfig, Problem, Rosenbrock, Sphere, SubRosenbrock};
use std::hint::black_box;

fn bench_complex_box(c: &mut Criterion) {
    let mut g = c.benchmark_group("complex_box");
    for dim in [8usize, 16, 32] {
        let problem = Rosenbrock::new(dim);
        g.bench_function(format!("rosenbrock_dim{dim}_1k_iters"), |b| {
            b.iter(|| {
                let mut opt = ComplexBox::new(&problem, ComplexBoxConfig::default());
                black_box(opt.run(1000))
            })
        });
    }
    let sphere = Sphere::new(16);
    g.bench_function("sphere_dim16_1k_iters", |b| {
        b.iter(|| {
            let mut opt = ComplexBox::new(&sphere, ComplexBoxConfig::default());
            black_box(opt.run(1000))
        })
    });
    // The shape the system runs: a worker's `solve` — a block of the
    // decomposed chain (9/10-dim on the 30/3 curve, 13/14-dim on 100/7),
    // warm-started from its previous population after the manager moved the
    // coordination values, 10 000 steps.
    for dim in [9usize, 10, 13, 14] {
        let settled = SubRosenbrock::new(dim, Some(1.0), Some(1.0));
        let mut first = ComplexBox::new(&settled, ComplexBoxConfig::default());
        first.run(10_000);
        let state = first.into_state();
        let moved = SubRosenbrock::new(dim, Some(0.97), Some(1.02));
        g.bench_function(format!("worker_block_dim{dim}_warm_10k_iters"), |b| {
            b.iter_batched(
                || state.points.clone(),
                |points| {
                    let cfg = ComplexBoxConfig::default();
                    let mut opt =
                        ComplexBox::from_points(&moved, cfg, points, state.iterations, state.evals);
                    black_box(opt.run(10_000))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();

    let mut g = c.benchmark_group("objective_eval");
    let r = Rosenbrock::new(100);
    let x = vec![0.5; 100];
    g.bench_function("rosenbrock_dim100", |b| {
        b.iter(|| black_box(r.eval(black_box(&x))))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_complex_box
);
criterion_main!(benches);
