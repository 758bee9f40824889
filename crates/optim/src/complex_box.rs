//! The Complex Box algorithm (Box 1965), the sequential optimizer the
//! paper's workers run ("multiple instances of a sequential implementation
//! of the Complex Box algorithm", §4; the cited reference is
//! Boden/Gehne/Grauer's parallel nonlinear optimization work).
//!
//! The method maintains a "complex" of `k ≥ n+1` points inside the bounds
//! (classically `k = 2n`). Each iteration reflects the worst point through
//! the centroid of the others by a factor `α = 1.3`, clipping to the
//! bounds; if the reflected point is still the worst it is moved halfway
//! towards the centroid repeatedly. The iteration count is the stopping
//! criterion — exactly the knob the paper's Table 1 sweeps.
//!
//! There is one implementation of the method, [`Core`], over one flat
//! row-major population (the layout of [`ComplexState::points`]), and two
//! drivers of its `reflect` / `settle` transitions: [`ComplexBox`] (the
//! objective is a [`Problem`]) and [`AskTellComplex`] (the caller
//! evaluates). A step allocates nothing.
//!
//! **The trajectory is the model.** How many evaluations a run takes —
//! hence every runtime in Figure 3 and Table 1 — depends on every rounding
//! here, so the order of floating-point operations is a contract: the
//! centroid of a dimension is `0.0 + row₀ + row₁ + …` over the non-worst
//! rows in ascending order, then *divided* by their count. Reordering,
//! multiplying by a reciprocal or maintaining the sum incrementally is a
//! model change, not an optimisation (DESIGN.md, `crates/optim`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::problem::{Bounds, Problem};

/// Tuning of the Complex method.
#[derive(Clone, Debug)]
pub struct ComplexBoxConfig {
    /// Population size (`0` = default `2n`).
    pub population: usize,
    /// Over-reflection factor.
    pub alpha: f64,
    /// Max halving steps towards the centroid when the reflected point
    /// stays worst.
    pub max_contractions: u32,
    /// RNG seed for the initial population.
    pub seed: u64,
}

impl Default for ComplexBoxConfig {
    fn default() -> Self {
        ComplexBoxConfig {
            population: 0,
            alpha: 1.3,
            max_contractions: 8,
            seed: 0x5EED,
        }
    }
}

/// Serializable optimizer state — what the paper's checkpoints carry.
#[derive(Clone, Debug, PartialEq)]
pub struct ComplexState {
    /// Flattened `population × dim` point matrix.
    pub points: Vec<f64>,
    /// Objective values per point.
    pub values: Vec<f64>,
    /// Iterations completed.
    pub iterations: u64,
    /// Objective evaluations spent.
    pub evals: u64,
}

impl ComplexState {
    /// Whether this is a population a `dim`-dimensional run can start
    /// from: at least `dim + 1` points of exactly `dim` coordinates. A
    /// state off the wire is anything that decodes; this is the one check
    /// between it and the method's flat indexing.
    pub fn fits(&self, dim: usize) -> bool {
        self.values.len() > dim && self.values.len().checked_mul(dim) == Some(self.points.len())
    }
}

impl cdr::CdrWrite for ComplexState {
    fn write(&self, enc: &mut cdr::CdrEncoder) {
        self.points.write(enc);
        self.values.write(enc);
        enc.write_u64(self.iterations);
        enc.write_u64(self.evals);
    }
}

impl cdr::CdrRead for ComplexState {
    fn read(dec: &mut cdr::CdrDecoder<'_>) -> cdr::CdrResult<Self> {
        Ok(ComplexState {
            points: Vec::<f64>::read(dec)?,
            values: Vec::<f64>::read(dec)?,
            iterations: dec.read_u64()?,
            evals: dec.read_u64()?,
        })
    }
}

/// `f64::total_cmp`'s own order-preserving map onto `i64`, so the worst
/// search is a max over integers.
fn order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Columns `at..at + N` of the centroid of every row but `skip`: per
/// column `0.0 + row₀ + row₁ + …` in ascending row order, then divided by
/// `m` — the contract order, with the `N` sums held in registers.
fn centroid_block<const N: usize>(
    points: &[f64],
    dim: usize,
    skip: usize,
    m: f64,
    at: usize,
    centroid: &mut [f64],
) {
    let mut acc = [0.0; N];
    let (before, rest) = points.split_at(skip * dim);
    for rows in [before, &rest[dim..]] {
        for row in rows.chunks_exact(dim) {
            for (a, v) in acc.iter_mut().zip(&row[at..at + N]) {
                *a += v;
            }
        }
    }
    for (c, a) in centroid[at..at + N].iter_mut().zip(acc) {
        *c = a / m;
    }
}

type CentroidBlock = fn(&[f64], usize, usize, f64, usize, &mut [f64]);

/// `centroid_block::<N>` at index `N - 1`, for every `N` up to 16: the
/// centroid takes one pass over the rows per 16 columns, and one for the
/// rest.
const CENTROID_BLOCKS: [CentroidBlock; 16] = [
    centroid_block::<1>,
    centroid_block::<2>,
    centroid_block::<3>,
    centroid_block::<4>,
    centroid_block::<5>,
    centroid_block::<6>,
    centroid_block::<7>,
    centroid_block::<8>,
    centroid_block::<9>,
    centroid_block::<10>,
    centroid_block::<11>,
    centroid_block::<12>,
    centroid_block::<13>,
    centroid_block::<14>,
    centroid_block::<15>,
    centroid_block::<16>,
];

/// The method: population, scratch, and the two transitions both drivers
/// share.
struct Core {
    bounds: Bounds,
    cfg: ComplexBoxConfig,
    dim: usize,
    /// Row-major `population × dim`, exactly [`ComplexState::points`].
    points: Vec<f64>,
    /// One value per evaluated row (shorter than the population only
    /// while [`AskTellComplex`] is still being told the initial ones).
    values: Vec<f64>,
    /// `order_key` of each value.
    keys: Vec<i64>,
    centroid: Vec<f64>,
    candidate: Vec<f64>,
    /// The row the reflection in flight replaces, and its halvings so far.
    worst: usize,
    contractions: u32,
    iterations: u64,
    evals: u64,
    rng: SmallRng,
}

impl Core {
    /// A core over a population drawn uniformly inside the bounds, not
    /// yet evaluated.
    fn random(bounds: Bounds, cfg: ComplexBoxConfig) -> Core {
        let dim = bounds.dim();
        let pop = if cfg.population == 0 {
            (2 * dim).max(dim + 1)
        } else {
            cfg.population.max(dim + 1)
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let points = (0..pop * dim)
            .map(|i| rng.random_range(bounds.lower[i % dim]..=bounds.upper[i % dim]))
            .collect();
        Core::over(bounds, cfg, points, 0, 0, rng)
    }

    /// A core over `points`, none of them evaluated yet.
    fn over(
        bounds: Bounds,
        cfg: ComplexBoxConfig,
        points: Vec<f64>,
        iterations: u64,
        evals: u64,
        rng: SmallRng,
    ) -> Core {
        let dim = bounds.dim();
        assert!(dim > 0, "the Complex method needs at least one variable");
        let pop = points.len() / dim;
        assert!(
            pop > dim && pop * dim == points.len(),
            "population does not fit the problem"
        );
        Core {
            bounds,
            cfg,
            dim,
            points,
            values: Vec::with_capacity(pop),
            keys: Vec::with_capacity(pop),
            centroid: vec![0.0; dim],
            candidate: vec![0.0; dim],
            worst: 0,
            contractions: 0,
            iterations,
            evals,
            rng,
        }
    }

    fn population(&self) -> usize {
        self.points.len() / self.dim
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..][..self.dim]
    }

    /// Record the value of the next unevaluated row.
    fn push_value(&mut self, value: f64) {
        self.values.push(value);
        self.keys.push(order_key(value));
        self.evals += 1;
    }

    fn best(&self) -> (&[f64], f64) {
        // `min_by_key` keeps the first of equal minima, like `total_cmp`'s
        // strict `<` scan did; the index into `values` is what rejects an
        // unevaluated population.
        let i = (0..self.keys.len())
            .min_by_key(|&i| self.keys[i])
            .unwrap_or(0);
        (self.row(i), self.values[i])
    }

    /// Start an iteration: find the worst point (the first of equals) and
    /// over-reflect it through the centroid of the others, clipped. The
    /// result is the candidate whose value [`Core::settle`] wants.
    fn reflect(&mut self) -> &[f64] {
        let (mut worst, mut worst_key) = (0, self.keys[0]);
        for (i, &k) in self.keys.iter().enumerate().skip(1) {
            if k > worst_key {
                (worst, worst_key) = (i, k);
            }
        }
        self.worst = worst;
        self.contractions = 0;

        let (dim, points, centroid) = (self.dim, &self.points[..], &mut self.centroid[..]);
        let m = (self.values.len() - 1) as f64;
        let mut at = 0;
        while at < dim {
            let n = (dim - at).min(CENTROID_BLOCKS.len());
            CENTROID_BLOCKS[n - 1](points, dim, worst, m, at, centroid);
            at += n;
        }

        let row = &points[worst * dim..][..dim];
        for ((x, c), w) in self.candidate.iter_mut().zip(&*centroid).zip(row) {
            *x = c + self.cfg.alpha * (c - w);
        }
        self.bounds.clip(&mut self.candidate);
        &self.candidate
    }

    /// Take the candidate's value. While it is no better than the worst
    /// point's, halve the candidate towards the centroid and hand it back
    /// for another evaluation (`Some`); otherwise, or once the halvings
    /// are spent, it replaces the worst point and the iteration is over.
    fn settle(&mut self, value: f64) -> Option<&[f64]> {
        self.evals += 1;
        if value >= self.values[self.worst] && self.contractions < self.cfg.max_contractions {
            for (x, c) in self.candidate.iter_mut().zip(&self.centroid) {
                *x = 0.5 * (*x + c);
            }
            // A tiny random nudge breaks the degenerate case of a collapsed
            // complex (Box's original suggestion).
            if self.contractions == self.cfg.max_contractions - 1 {
                for (i, x) in self.candidate.iter_mut().enumerate() {
                    let span = self.bounds.upper[i] - self.bounds.lower[i];
                    *x += 1e-6 * span * (self.rng.random::<f64>() - 0.5);
                }
                self.bounds.clip(&mut self.candidate);
            }
            self.contractions += 1;
            return Some(&self.candidate);
        }
        self.points[self.worst * self.dim..][..self.dim].copy_from_slice(&self.candidate);
        self.values[self.worst] = value;
        self.keys[self.worst] = order_key(value);
        self.iterations += 1;
        None
    }
}

/// A running Complex Box optimization over a [`Problem`]. Generic so a
/// concrete objective inlines into the step; `&dyn Problem` works as ever.
pub struct ComplexBox<'p, P: Problem + ?Sized = dyn Problem> {
    problem: &'p P,
    core: Core,
}

impl<'p, P: Problem + ?Sized> ComplexBox<'p, P> {
    /// Initialize with a random population inside the bounds.
    pub fn new(problem: &'p P, cfg: ComplexBoxConfig) -> Self {
        Self::evaluated(problem, Core::random(problem.bounds(), cfg))
    }

    /// Warm-start from a previous population (flat, row-major — the
    /// `points` of a [`ComplexState`] that [`ComplexState::fits`]) under a
    /// possibly changed objective: all values are re-evaluated. This is
    /// what a stateful worker does when the manager moves the coordination
    /// variables — the block's landscape shifted, but the previous
    /// population is still an excellent starting complex. Randomness is
    /// re-derived from the seed and progress, so a restored run is
    /// deterministic but not bit-identical to an uninterrupted one (the
    /// paper's prototype has the same property).
    ///
    /// # Panics
    /// If `points` is not more than `dim` rows of exactly `dim` values.
    pub fn from_points(
        problem: &'p P,
        cfg: ComplexBoxConfig,
        points: Vec<f64>,
        iterations: u64,
        evals: u64,
    ) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ iterations.rotate_left(23));
        let mut core = Core::over(problem.bounds(), cfg, points, iterations, evals, rng);
        for row in core.points.chunks_exact_mut(core.dim) {
            core.bounds.clip(row);
        }
        Self::evaluated(problem, core)
    }

    fn evaluated(problem: &'p P, mut core: Core) -> Self {
        for i in 0..core.population() {
            core.push_value(problem.eval(core.row(i)));
        }
        ComplexBox { problem, core }
    }

    /// The optimizer state (the checkpoint payload), moved out.
    pub fn into_state(self) -> ComplexState {
        ComplexState {
            points: self.core.points,
            values: self.core.values,
            iterations: self.core.iterations,
            evals: self.core.evals,
        }
    }

    /// Iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.core.iterations
    }

    /// Objective evaluations spent so far.
    pub fn evals(&self) -> u64 {
        self.core.evals
    }

    /// Best point and value in the current complex.
    pub fn best(&self) -> (&[f64], f64) {
        self.core.best()
    }

    /// Run one reflection step.
    pub fn step(&mut self) {
        let mut value = self.problem.eval(self.core.reflect());
        while let Some(x) = self.core.settle(value) {
            value = self.problem.eval(x);
        }
    }

    /// Run `iters` reflection steps; returns the best value afterwards.
    pub fn run(&mut self, iters: u64) -> f64 {
        for _ in 0..iters {
            self.step();
        }
        self.best().1
    }
}

/// The same Complex method, driven in **ask/tell** style: the caller
/// fetches the next point to evaluate ([`AskTellComplex::ask`]) and
/// reports its objective value ([`AskTellComplex::tell`]). This is the
/// form the distributed manager needs — its objective evaluations are
/// remote worker invocations, which a `Problem::eval` callback cannot
/// express.
pub struct AskTellComplex {
    core: Core,
    /// A reflection is in flight: its candidate is what `ask` returns and
    /// `tell` settles.
    reflecting: bool,
}

impl AskTellComplex {
    /// Initialize over explicit bounds.
    pub fn new(bounds: Bounds, cfg: ComplexBoxConfig) -> Self {
        AskTellComplex {
            core: Core::random(bounds, cfg),
            reflecting: false,
        }
    }

    /// The next point whose objective value is needed: the initial
    /// population in order, then the candidate of the current reflection
    /// (starting one if none is in flight). Asking again before
    /// [`AskTellComplex::tell`] returns the same point.
    pub fn ask(&mut self) -> &[f64] {
        let told = self.core.values.len();
        if told < self.core.population() {
            return self.core.row(told);
        }
        if !self.reflecting {
            self.reflecting = true;
            self.core.reflect();
        }
        &self.core.candidate
    }

    /// Report the objective value of the last asked point. Telling without
    /// a pending [`AskTellComplex::ask`] is caller misuse: debug builds
    /// fail loudly, release builds discard the stray value.
    pub fn tell(&mut self, value: f64) {
        if self.core.values.len() < self.core.population() {
            self.core.push_value(value);
        } else if self.reflecting {
            self.reflecting = self.core.settle(value).is_some();
        } else {
            debug_assert!(false, "tell() without a pending ask()");
        }
    }

    /// Completed reflection iterations.
    pub fn iterations(&self) -> u64 {
        self.core.iterations
    }

    /// Values told so far.
    pub fn evals(&self) -> u64 {
        self.core.evals
    }

    /// Best point and value (once the initial population is evaluated).
    pub fn best(&self) -> (&[f64], f64) {
        self.core.best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{Rosenbrock, Sphere};
    use crate::problem::Bounds;

    #[test]
    fn converges_on_sphere() {
        let p = Sphere::new(4);
        let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
        let before = opt.best().1;
        let after = opt.run(400);
        assert!(after < before);
        assert!(after < 1e-3, "best={after}");
    }

    #[test]
    fn improves_rosenbrock() {
        let p = Rosenbrock::new(5);
        let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
        let before = opt.best().1;
        let after = opt.run(2000);
        assert!(after < before * 0.1, "before={before} after={after}");
    }

    #[test]
    fn best_never_degrades() {
        let p = Rosenbrock::new(4);
        let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
        let mut last = opt.best().1;
        for _ in 0..200 {
            opt.step();
            let b = opt.best().1;
            assert!(b <= last + 1e-12, "best degraded: {last} -> {b}");
            last = b;
        }
    }

    #[test]
    fn population_stays_in_bounds() {
        let p = Rosenbrock::new(3);
        let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
        opt.run(300);
        let bounds = p.bounds();
        for pt in opt.core.points.chunks(3) {
            assert!(bounds.contains(pt), "{pt:?}");
        }
    }

    /// The path a restored worker runs: state → CDR → `fits` →
    /// `from_points` → `run`.
    #[test]
    fn state_round_trip_resumes() {
        let p = Rosenbrock::new(4);
        let cfg = ComplexBoxConfig::default();
        let mut opt = ComplexBox::new(&p, cfg.clone());
        let checkpointed = opt.run(100);
        let snap = opt.into_state();
        let bytes = cdr::to_bytes(&snap);
        let back: ComplexState = cdr::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        assert!(back.fits(4) && !back.fits(2) && !back.fits(8));

        let mut resumed =
            ComplexBox::from_points(&p, cfg, back.points, back.iterations, back.evals);
        assert_eq!(resumed.iterations(), 100);
        assert_eq!(resumed.evals(), snap.evals + 8, "every point re-evaluated");
        let before = resumed.best().1;
        assert_eq!(before.to_bits(), checkpointed.to_bits());
        let after = resumed.run(200);
        assert!(after <= before);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = Rosenbrock::new(4);
        let run = |seed| {
            let mut opt = ComplexBox::new(
                &p,
                ComplexBoxConfig {
                    seed,
                    ..ComplexBoxConfig::default()
                },
            );
            opt.run(150)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn iteration_budget_is_respected() {
        let p = Sphere::new(3);
        let mut opt = ComplexBox::new(&p, ComplexBoxConfig::default());
        opt.run(42);
        assert_eq!(opt.iterations(), 42);
        assert!(opt.evals() >= 42 + 6); // init evals + ≥1 per step
    }

    #[test]
    fn ask_tell_matches_driver_loop_semantics() {
        // Driving a Sphere through ask/tell converges like the closed loop.
        let p = Sphere::new(4);
        let mut at = AskTellComplex::new(p.bounds(), ComplexBoxConfig::default());
        for _ in 0..1200 {
            let value = p.eval(at.ask());
            at.tell(value);
        }
        assert!(at.best().1 < 1e-2, "best={}", at.best().1);
        assert!(at.iterations() > 100);
    }

    #[test]
    fn ask_tell_initial_population_first() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let mut at = AskTellComplex::new(b, ComplexBoxConfig::default());
        // Population 4: the first 4 asks are the initial points.
        for _ in 0..4 {
            let value = at.ask().iter().map(|v| v * v).sum();
            at.tell(value);
        }
        assert_eq!(at.evals(), 4);
        assert_eq!(at.iterations(), 0);
        // Next ask starts a reflection.
        let _ = at.ask();
    }

    /// A `tell` nobody asked for is a caller bug: a `debug_assert!`, so
    /// loud in debug builds and ignored in release builds.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "tell() without a pending ask()")
    )]
    fn ask_tell_misuse_panics() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let mut at = AskTellComplex::new(b, ComplexBoxConfig::default());
        for _ in 0..4 {
            let value = at.ask().iter().map(|v| v * v).sum();
            at.tell(value);
        }
        let before = (at.evals(), at.iterations(), at.best().1);
        at.tell(0.0); // no pending ask
        assert_eq!((at.evals(), at.iterations(), at.best().1), before);
    }

    #[test]
    fn from_points_reevaluates_under_new_objective() {
        let p1 = Sphere::new(3);
        let mut opt = ComplexBox::new(&p1, ComplexBoxConfig::default());
        opt.run(200);
        let points = opt.into_state().points;
        // Same points, different objective: values must be recomputed.
        let p2 = Rastrigin3;
        let warm = ComplexBox::from_points(&p2, ComplexBoxConfig::default(), points, 0, 0);
        let (bp, bv) = warm.best();
        assert!((p2.eval(bp) - bv).abs() < 1e-12);
    }

    /// A tiny fixed problem for the warm-start test.
    struct Rastrigin3;
    impl crate::problem::Problem for Rastrigin3 {
        fn dim(&self) -> usize {
            3
        }
        fn bounds(&self) -> Bounds {
            Bounds::uniform(3, -5.12, 5.12)
        }
        fn eval(&self, x: &[f64]) -> f64 {
            crate::functions::Rastrigin::new(3).eval(x)
        }
    }

    #[test]
    fn tiny_population_is_raised_to_minimum() {
        let p = Sphere::new(5);
        let opt = ComplexBox::new(
            &p,
            ComplexBoxConfig {
                population: 2, // below n+1
                ..ComplexBoxConfig::default()
            },
        );
        assert!(opt.core.population() >= 6);
    }
}

#[cfg(test)]
mod pinned;
