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

/// Index of the smallest value under `total_cmp`. Returns 0 for an empty
/// slice; every caller holds a non-empty population, and the subsequent
/// index into the population is what enforces that invariant.
fn argmin(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if v.total_cmp(&values[best]).is_lt() {
            best = i;
        }
    }
    best
}

/// Index of the largest value under `total_cmp` (0 for an empty slice).
fn argmax(values: &[f64]) -> usize {
    let mut worst = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if v.total_cmp(&values[worst]).is_gt() {
            worst = i;
        }
    }
    worst
}

/// A running Complex Box optimization over a [`Problem`].
pub struct ComplexBox<'p> {
    problem: &'p dyn Problem,
    bounds: Bounds,
    cfg: ComplexBoxConfig,
    points: Vec<Vec<f64>>,
    values: Vec<f64>,
    iterations: u64,
    evals: u64,
    rng: SmallRng,
}

impl<'p> ComplexBox<'p> {
    /// Initialize with a random population inside the bounds.
    pub fn new(problem: &'p dyn Problem, cfg: ComplexBoxConfig) -> Self {
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
        let mut evals = 0;
        for _ in 0..pop {
            let x: Vec<f64> = (0..dim)
                .map(|i| rng.random_range(bounds.lower[i]..=bounds.upper[i]))
                .collect();
            values.push(problem.eval(&x));
            evals += 1;
            points.push(x);
        }
        ComplexBox {
            problem,
            bounds,
            cfg,
            points,
            values,
            iterations: 0,
            evals,
            rng,
        }
    }

    /// Warm-start from previous population points under a (possibly
    /// changed) objective: all values are re-evaluated. This is what a
    /// stateful worker does when the manager moves the coordination
    /// variables — the block's landscape shifted, but the previous
    /// population is still an excellent starting complex.
    pub fn from_points(
        problem: &'p dyn Problem,
        cfg: ComplexBoxConfig,
        points: Vec<Vec<f64>>,
        iterations: u64,
        evals: u64,
    ) -> Self {
        assert!(!points.is_empty(), "empty population");
        let bounds = problem.bounds();
        let mut points = points;
        let mut values = Vec::with_capacity(points.len());
        let mut evals = evals;
        for p in &mut points {
            assert_eq!(p.len(), problem.dim(), "population dim mismatch");
            bounds.clip(p);
            values.push(problem.eval(p));
            evals += 1;
        }
        let rng = SmallRng::seed_from_u64(cfg.seed ^ iterations.rotate_left(23));
        ComplexBox {
            problem,
            bounds,
            cfg,
            points,
            values,
            iterations,
            evals,
            rng,
        }
    }

    /// Resume from a checkpointed state.
    pub fn from_state(
        problem: &'p dyn Problem,
        cfg: ComplexBoxConfig,
        state: ComplexState,
    ) -> Self {
        let dim = problem.dim();
        assert!(
            dim > 0 && state.points.len().is_multiple_of(dim),
            "corrupt state"
        );
        let pop = state.points.len() / dim;
        assert_eq!(state.values.len(), pop, "corrupt state");
        let points: Vec<Vec<f64>> = state.points.chunks(dim).map(|c| c.to_vec()).collect();
        // Post-restore randomness is re-derived from the seed and progress;
        // a restored run is deterministic but not bit-identical to an
        // uninterrupted one (the paper's prototype has the same property).
        let rng = SmallRng::seed_from_u64(cfg.seed ^ state.iterations.rotate_left(17));
        ComplexBox {
            problem,
            bounds: problem.bounds(),
            cfg,
            points,
            values: state.values,
            iterations: state.iterations,
            evals: state.evals,
            rng,
        }
    }

    /// Snapshot the optimizer state (the checkpoint payload).
    pub fn state(&self) -> ComplexState {
        ComplexState {
            points: self.points.iter().flatten().copied().collect(),
            values: self.values.clone(),
            iterations: self.iterations,
            evals: self.evals,
        }
    }

    /// Iterations completed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Objective evaluations spent so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Best point and value in the current complex.
    pub fn best(&self) -> (&[f64], f64) {
        let i = argmin(&self.values);
        (&self.points[i], self.values[i])
    }

    fn worst_index(&self) -> usize {
        argmax(&self.values)
    }

    /// Run one reflection step.
    pub fn step(&mut self) {
        let dim = self.problem.dim();
        let worst = self.worst_index();
        let worst_value = self.values[worst];

        // Centroid of all points except the worst.
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

        // Over-reflect the worst point through the centroid.
        let mut candidate: Vec<f64> = centroid
            .iter()
            .zip(&self.points[worst])
            .map(|(c, w)| c + self.cfg.alpha * (c - w))
            .collect();
        self.bounds.clip(&mut candidate);
        let mut value = self.problem.eval(&candidate);
        self.evals += 1;

        // Progressive contraction towards the centroid while still worst.
        let mut contractions = 0;
        while value >= worst_value && contractions < self.cfg.max_contractions {
            for (x, c) in candidate.iter_mut().zip(&centroid) {
                *x = 0.5 * (*x + c);
            }
            // A tiny random nudge breaks the degenerate case of a collapsed
            // complex (Box's original suggestion).
            if contractions == self.cfg.max_contractions - 1 {
                for (i, x) in candidate.iter_mut().enumerate() {
                    let span = self.bounds.upper[i] - self.bounds.lower[i];
                    *x += 1e-6 * span * (self.rng.random::<f64>() - 0.5);
                }
                self.bounds.clip(&mut candidate);
            }
            value = self.problem.eval(&candidate);
            self.evals += 1;
            contractions += 1;
        }

        self.points[worst] = candidate;
        self.values[worst] = value;
        self.iterations += 1;
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
    bounds: Bounds,
    cfg: ComplexBoxConfig,
    points: Vec<Vec<f64>>,
    values: Vec<f64>,
    phase: Phase,
    iterations: u64,
    evals: u64,
    rng: SmallRng,
}

enum Phase {
    /// Evaluating the initial population; next index to evaluate.
    Init(usize),
    /// Waiting for the value of a reflected/contracted candidate.
    Reflect {
        worst: usize,
        worst_value: f64,
        centroid: Vec<f64>,
        candidate: Vec<f64>,
        contractions: u32,
    },
    /// Ready to start the next reflection.
    Idle,
}

impl AskTellComplex {
    /// Initialize over explicit bounds.
    pub fn new(bounds: Bounds, cfg: ComplexBoxConfig) -> Self {
        let dim = bounds.dim();
        assert!(dim > 0, "ask/tell needs at least one variable");
        let pop = if cfg.population == 0 {
            (2 * dim).max(dim + 1)
        } else {
            cfg.population.max(dim + 1)
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let points: Vec<Vec<f64>> = (0..pop)
            .map(|_| {
                (0..dim)
                    .map(|i| rng.random_range(bounds.lower[i]..=bounds.upper[i]))
                    .collect()
            })
            .collect();
        AskTellComplex {
            bounds,
            cfg,
            points,
            values: Vec::new(),
            phase: Phase::Init(0),
            iterations: 0,
            evals: 0,
            rng,
        }
    }

    /// The next point whose objective value is needed, or `None` if
    /// [`AskTellComplex::tell`] is owed first... never: `ask` is always
    /// answerable; it transitions `Idle` into a new reflection.
    pub fn ask(&mut self) -> Vec<f64> {
        if let Phase::Idle = self.phase {
            self.begin_reflection();
        }
        match &self.phase {
            Phase::Init(i) => self.points[*i].clone(),
            Phase::Reflect { candidate, .. } => candidate.clone(),
            Phase::Idle => {
                // begin_reflection always leaves the phase at Reflect;
                // re-asking the first point keeps release builds moving.
                debug_assert!(false, "begin_reflection leaves Reflect");
                self.points[0].clone()
            }
        }
    }

    /// Report the objective value of the last asked point. Telling without
    /// a pending [`AskTellComplex::ask`] is caller misuse: debug builds
    /// fail loudly, release builds discard the stray value.
    pub fn tell(&mut self, value: f64) {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Init(i) => {
                self.evals += 1;
                self.values.push(value);
                if i + 1 < self.points.len() {
                    self.phase = Phase::Init(i + 1);
                }
            }
            Phase::Reflect {
                worst,
                worst_value,
                centroid,
                mut candidate,
                contractions,
            } => {
                self.evals += 1;
                if value >= worst_value && contractions < self.cfg.max_contractions {
                    for (x, c) in candidate.iter_mut().zip(&centroid) {
                        *x = 0.5 * (*x + c);
                    }
                    if contractions == self.cfg.max_contractions - 1 {
                        for (i, x) in candidate.iter_mut().enumerate() {
                            let span = self.bounds.upper[i] - self.bounds.lower[i];
                            *x += 1e-6 * span * (self.rng.random::<f64>() - 0.5);
                        }
                        self.bounds.clip(&mut candidate);
                    }
                    self.phase = Phase::Reflect {
                        worst,
                        worst_value,
                        centroid,
                        candidate,
                        contractions: contractions + 1,
                    };
                } else {
                    self.points[worst] = candidate;
                    self.values[worst] = value;
                    self.iterations += 1;
                }
            }
            Phase::Idle => {
                debug_assert!(false, "tell() without a pending ask()");
            }
        }
    }

    fn begin_reflection(&mut self) {
        let dim = self.bounds.dim();
        let worst = argmax(&self.values);
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
        self.bounds.clip(&mut candidate);
        self.phase = Phase::Reflect {
            worst,
            worst_value: self.values[worst],
            centroid,
            candidate,
            contractions: 0,
        };
    }

    /// Completed reflection iterations.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Values told so far.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Best point and value (once the initial population is evaluated).
    pub fn best(&self) -> (&[f64], f64) {
        let i = argmin(&self.values);
        (&self.points[i], self.values[i])
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
        for pt in &opt.points {
            assert!(bounds.contains(pt), "{pt:?}");
        }
    }

    #[test]
    fn state_round_trip_resumes() {
        let p = Rosenbrock::new(4);
        let cfg = ComplexBoxConfig::default();
        let mut opt = ComplexBox::new(&p, cfg.clone());
        opt.run(100);
        let snap = opt.state();
        let bytes = cdr::to_bytes(&snap);
        let back: ComplexState = cdr::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);

        let mut resumed = ComplexBox::from_state(&p, cfg, back);
        assert_eq!(resumed.iterations(), 100);
        let before = resumed.best().1;
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
            let x = at.ask();
            at.tell(p.eval(&x));
        }
        assert!(at.best().1 < 1e-2, "best={}", at.best().1);
        assert!(at.iterations() > 100);
    }

    #[test]
    fn ask_tell_initial_population_first() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let mut at = AskTellComplex::new(b, ComplexBoxConfig::default());
        // Population 4: the first 4 asks are the initial points.
        let mut inits = Vec::new();
        for _ in 0..4 {
            let x = at.ask();
            inits.push(x.clone());
            at.tell(x.iter().map(|v| v * v).sum());
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
            let x = at.ask();
            at.tell(x.iter().map(|v| v * v).sum());
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
        let points: Vec<Vec<f64>> = opt.state().points.chunks(3).map(|c| c.to_vec()).collect();
        // Same points, different objective: values must be recomputed.
        let p2 = Rastrigin3;
        let warm = ComplexBox::from_points(&p2, ComplexBoxConfig::default(), points.clone(), 0, 0);
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
        assert!(opt.points.len() >= 6);
    }
}
