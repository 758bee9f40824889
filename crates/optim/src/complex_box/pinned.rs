//! Tests that pin the bits. The trajectory of the Complex method *is* the
//! model (module docs), so these hold the kernel to the arithmetic it had
//! before it was made fast: golden trajectories, a transcription of the
//! previous `step` as a step-by-step oracle, and ask/tell against `run`.
//! A failure here means Figure 3 and Table 1 moved.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{AskTellComplex, ComplexBox, ComplexBoxConfig, Core};
use crate::decompose::SubRosenbrock;
use crate::functions::Rosenbrock;
use crate::problem::{Bounds, Problem};

/// FNV-1a over the bits of `xs`, from `basis`.
fn fnv<'a>(basis: u64, xs: impl IntoIterator<Item = &'a f64>) -> u64 {
    xs.into_iter().fold(basis, |d, v| {
        (d ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest the goldens quote: a population's points, then its values.
fn fold(points: &[f64], values: &[f64]) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, points.iter().chain(values))
}

fn seeded(seed: u64) -> ComplexBoxConfig {
    ComplexBoxConfig {
        seed,
        ..ComplexBoxConfig::default()
    }
}

/// The benchmark probe's run (`optim.complex_box_wall_ns_10k_iters`), then
/// the same population warm-started under moved coordination values — the
/// worker's second `solve`.
#[test]
fn golden_worker_block_cold_then_warm() {
    let p = SubRosenbrock::new(15, Some(1.0), Some(1.0));
    let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
    assert_eq!(opt.run(10_000).to_bits(), 0x3eb2_9acc_7f43_dd2d);
    assert_eq!(opt.evals(), 14_508);
    let s = opt.into_state();
    assert_eq!(fold(&s.points, &s.values), 0x9f31_5a1d_aaa8_4058);

    let p = SubRosenbrock::new(15, Some(0.97), None);
    let cfg = ComplexBoxConfig::default();
    let mut opt = ComplexBox::from_points(&p, cfg, s.points, s.iterations, s.evals);
    assert_eq!(opt.run(5_000).to_bits(), 0x3fd0_c5a2_a834_8a5c);
    assert_eq!(opt.evals(), 21_645);
    let s = opt.into_state();
    assert_eq!(fold(&s.points, &s.values), 0x2afb_ed8b_57d3_aa4c);
}

/// d = 2 and 3 collapse and exercise the jitter / RNG path; 2 … 33 take
/// one to three of the centroid's passes of up to 16 columns.
#[test]
fn golden_rosenbrock_across_block_tails() {
    // (d, best value, evals, fold of the population)
    let goldens: [(usize, u64, u64, u64); 5] = [
        (2, 0x39d4_4000_0000_0000, 6_228, 0xa8c4_7555_bdf5_3f49),
        (3, 0x3a13_2400_0000_0000, 5_926, 0x2791_8b29_64cb_2d0b),
        (7, 0x400f_de69_f542_2eb3, 5_621, 0x84d2_6fb5_6705_c847),
        (13, 0x4009_d1f2_0f30_4472, 4_415, 0x75b8_8c85_2986_e13a),
        (33, 0x403f_6311_9864_8919, 4_852, 0xfcbc_9a13_35f4_0f8a),
    ];
    for (d, best, evals, population) in goldens {
        let p = Rosenbrock::new(d);
        let mut opt = ComplexBox::new(&p, seeded(7));
        assert_eq!(opt.run(3_000).to_bits(), best, "d={d}");
        assert_eq!(opt.evals(), evals, "d={d}");
        let s = opt.into_state();
        assert_eq!(fold(&s.points, &s.values), population, "d={d}");
    }
}

/// `tell(eval(ask()))` is `ComplexBox::run`: same population, bit for bit
/// (d = 2 reaches the jitter, so the RNG streams agree too).
#[test]
fn ask_tell_reaches_the_population_of_run() {
    let problems: [&dyn Problem; 2] = [
        &Rosenbrock::new(2),
        &SubRosenbrock::new(9, Some(0.5), Some(1.25)),
    ];
    for p in problems {
        let mut opt = ComplexBox::new(p, seeded(11));
        opt.run(1_500);
        let mut at = AskTellComplex::new(p.bounds(), seeded(11));
        while at.iterations() < 1_500 {
            let value = p.eval(at.ask());
            at.tell(value);
        }
        assert!(snapshot(&at.core) == snapshot(&opt.core));
    }
}

/// The previous `ComplexBox`, transcribed: nested rows, a fresh centroid
/// and candidate per step, a branch per row, `total_cmp` scans and
/// `f64::clamp`. Slow, and the definition of correct.
struct Reference<'p> {
    problem: &'p dyn Problem,
    bounds: Bounds,
    cfg: ComplexBoxConfig,
    points: Vec<Vec<f64>>,
    values: Vec<f64>,
    iterations: u64,
    evals: u64,
    rng: SmallRng,
}

impl<'p> Reference<'p> {
    fn new(problem: &'p dyn Problem, cfg: ComplexBoxConfig) -> Self {
        let dim = problem.dim();
        let bounds = problem.bounds();
        let pop = if cfg.population == 0 {
            (2 * dim).max(dim + 1)
        } else {
            cfg.population.max(dim + 1)
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut points = Vec::with_capacity(pop);
        let mut values = Vec::with_capacity(pop);
        for _ in 0..pop {
            let x: Vec<f64> = (0..dim)
                .map(|i| rng.random_range(bounds.lower[i]..=bounds.upper[i]))
                .collect();
            values.push(problem.eval(&x));
            points.push(x);
        }
        Reference {
            problem,
            bounds,
            cfg,
            points,
            values,
            iterations: 0,
            evals: pop as u64,
            rng,
        }
    }

    fn from_points(
        problem: &'p dyn Problem,
        cfg: ComplexBoxConfig,
        mut points: Vec<Vec<f64>>,
        iterations: u64,
        evals: u64,
    ) -> Self {
        let bounds = problem.bounds();
        let mut values = Vec::with_capacity(points.len());
        for p in &mut points {
            for (i, v) in p.iter_mut().enumerate() {
                *v = v.clamp(bounds.lower[i], bounds.upper[i]);
            }
            values.push(problem.eval(p));
        }
        let rng = SmallRng::seed_from_u64(cfg.seed ^ iterations.rotate_left(23));
        Reference {
            problem,
            bounds,
            cfg,
            evals: evals + points.len() as u64,
            points,
            values,
            iterations,
            rng,
        }
    }

    fn clip(&self, x: &mut [f64]) {
        for (i, v) in x.iter_mut().enumerate() {
            *v = v.clamp(self.bounds.lower[i], self.bounds.upper[i]);
        }
    }

    fn step(&mut self) {
        let dim = self.problem.dim();
        let mut worst = 0;
        for (i, v) in self.values.iter().enumerate().skip(1) {
            if v.total_cmp(&self.values[worst]).is_gt() {
                worst = i;
            }
        }
        let worst_value = self.values[worst];

        let mut centroid = vec![0.0; dim];
        for (i, p) in self.points.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, v) in centroid.iter_mut().zip(p) {
                *c += v;
            }
        }
        let m = (self.points.len() - 1) as f64;
        for c in &mut centroid {
            *c /= m;
        }

        let mut candidate: Vec<f64> = centroid
            .iter()
            .zip(&self.points[worst])
            .map(|(c, w)| c + self.cfg.alpha * (c - w))
            .collect();
        self.clip(&mut candidate);
        let mut value = self.problem.eval(&candidate);
        self.evals += 1;

        let mut contractions = 0;
        while value >= worst_value && contractions < self.cfg.max_contractions {
            for (x, c) in candidate.iter_mut().zip(&centroid) {
                *x = 0.5 * (*x + c);
            }
            if contractions == self.cfg.max_contractions - 1 {
                for (i, x) in candidate.iter_mut().enumerate() {
                    let span = self.bounds.upper[i] - self.bounds.lower[i];
                    *x += 1e-6 * span * (self.rng.random::<f64>() - 0.5);
                }
                self.clip(&mut candidate);
            }
            value = self.problem.eval(&candidate);
            self.evals += 1;
            contractions += 1;
        }

        self.points[worst] = candidate;
        self.values[worst] = value;
        self.iterations += 1;
    }

    fn best(&self) -> (&[f64], f64) {
        let mut best = 0;
        for (i, v) in self.values.iter().enumerate().skip(1) {
            if v.total_cmp(&self.values[best]).is_lt() {
                best = i;
            }
        }
        (&self.points[best], self.values[best])
    }
}

/// Everything a step may change, as bits: points, values, best point and
/// value, `evals`, `iterations`.
type Snapshot = (Vec<u64>, Vec<u64>, Vec<u64>, u64, u64, u64);

fn bits<'a>(xs: impl IntoIterator<Item = &'a f64>) -> Vec<u64> {
    xs.into_iter().map(|v| v.to_bits()).collect()
}

fn snapshot(core: &Core) -> Snapshot {
    let (point, value) = core.best();
    (
        bits(&core.points),
        bits(&core.values),
        bits(point),
        value.to_bits(),
        core.evals,
        core.iterations,
    )
}

impl Reference<'_> {
    fn snapshot(&self) -> Snapshot {
        let (point, value) = self.best();
        (
            bits(self.points.iter().flatten()),
            bits(&self.values),
            bits(point),
            value.to_bits(),
            self.evals,
            self.iterations,
        )
    }
}

#[track_caller]
fn assert_matches<P: Problem + ?Sized>(opt: &ComplexBox<'_, P>, oracle: &Reference<'_>) {
    assert!(
        snapshot(&opt.core) == oracle.snapshot(),
        "kernel left the reference at iteration {}",
        oracle.iterations
    );
}

/// A bowl on a lopsided box of any dimension that, when `spiky`, answers a
/// hash-chosen ~1/6 of all points with NaN, ±∞, −0.0 or 0.0: plateaus of
/// equal values (ties in the worst search, contraction down to the
/// jitter) and every class of `f64` the ordering key must place like
/// `total_cmp` does.
struct Spiky {
    dim: usize,
    salt: u64,
    spiky: bool,
}

impl Problem for Spiky {
    fn dim(&self) -> usize {
        self.dim
    }

    fn bounds(&self) -> Bounds {
        Bounds {
            lower: (0..self.dim).map(|i| -1.0 - 0.25 * i as f64).collect(),
            upper: (0..self.dim).map(|i| 2.0 + (i % 3) as f64).collect(),
        }
    }

    fn eval(&self, x: &[f64]) -> f64 {
        match (self.spiky, fnv(self.salt, x) >> 59) {
            (true, 0) => f64::NAN,
            (true, 1) => f64::INFINITY,
            (true, 2) => f64::NEG_INFINITY,
            (true, 3) => -0.0,
            (true, 4) => 0.0,
            (true, 5) => -f64::NAN,
            _ => x
                .iter()
                .enumerate()
                .map(|(i, v)| (v - 0.1 * i as f64).powi(2))
                .sum(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The kernel against the oracle, compared after every step: cold
    /// start, then the resulting population warm-started under a changed
    /// objective, as a worker's successive `solve`s do.
    #[test]
    fn kernel_is_the_reference_bit_for_bit(
        dim in 1usize..=40,
        population in prop_oneof![Just(0usize), 0usize..90],
        max_contractions in prop_oneof![Just(8u32), 0u32..10],
        seed in any::<u64>(),
        salt in any::<u64>(),
        spiky in any::<bool>(),
        steps in 0usize..=300,
    ) {
        let cfg = ComplexBoxConfig { population, max_contractions, seed, ..ComplexBoxConfig::default() };
        let cold = Spiky { dim, salt, spiky };
        let mut oracle = Reference::new(&cold, cfg.clone());
        let mut opt = ComplexBox::new(&cold, cfg.clone());
        assert_matches(&opt, &oracle);
        for _ in 0..steps / 2 {
            oracle.step();
            opt.step();
            assert_matches(&opt, &oracle);
        }

        let warm = Spiky { dim, salt: !salt, spiky };
        let (iterations, evals) = (oracle.iterations, oracle.evals);
        let mut oracle = Reference::from_points(&warm, cfg.clone(), oracle.points, iterations, evals);
        let state = opt.into_state();
        prop_assert!(state.fits(dim));
        let mut opt = ComplexBox::from_points(&warm, cfg, state.points, state.iterations, state.evals);
        assert_matches(&opt, &oracle);
        for _ in 0..steps - steps / 2 {
            oracle.step();
            opt.step();
            assert_matches(&opt, &oracle);
        }
    }
}
