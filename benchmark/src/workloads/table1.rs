//! `table1_ft`: Table 1's worst-case row — 100 dimensions, 7 workers,
//! 10 000 worker iterations, no background load — once with plain stubs
//! and once through the checkpointing proxies at `FtSettings::default()`
//! (whatever the default is at this commit).
//!
//! The FT proxy, the checkpoint service and the store do most of the
//! virtual *and* wall work here; a cheaper checkpoint shows here and on no
//! other fault-free workload.

use corba_runtime::{ExperimentSpec, NamingMode};
use optim::FtSettings;

use super::cell::run_cell;
use super::{lan_latency, LayerSample, PhaseTime, Rep, RepCx, Virtual, Workload};

/// The Table 1 workload at one size.
pub struct Table1Ft {
    worker_iters: u64,
    manager_iters: u64,
}

impl Table1Ft {
    /// Table 1's 10 000-iteration row.
    pub fn full() -> Self {
        Table1Ft {
            worker_iters: 10_000,
            manager_iters: ExperimentSpec::dim100(NamingMode::Winner).manager_iters,
        }
    }

    /// A milliseconds-sized version (tests).
    pub fn tiny() -> Self {
        Table1Ft {
            worker_iters: 200,
            manager_iters: 2,
        }
    }
}

impl Workload for Table1Ft {
    fn name(&self) -> &'static str {
        "table1_ft"
    }

    fn rep(&self, seed: u64, cx: &mut RepCx<'_>) -> Rep {
        let mut time = PhaseTime::default();
        let mut layers = LayerSample::default();
        let mut virt = Virtual::default();
        // The spec of the repo's own `table1` sweep.
        let mut plain = ExperimentSpec::dim100(NamingMode::Winner).seed(seed);
        plain.worker_iters = self.worker_iters;
        plain.manager_iters = self.manager_iters;
        let mut proxied = plain.clone();
        proxied.ft = Some(FtSettings::default());

        let mut elapsed = [0u64; 2];
        for (i, spec) in [&plain, &proxied].into_iter().enumerate() {
            let cell = run_cell(spec, Some(lan_latency(seed)), cx, &mut time, &mut layers);
            virt.op_ns.extend(&cell.eval_ns);
            match cell.report {
                Ok(r) => {
                    virt.attempted += r.manager_evals;
                    virt.runtime_ns += r.elapsed.as_nanos();
                    elapsed[i] = r.elapsed.as_nanos();
                    if spec.ft.is_some() {
                        if r.checkpoints != r.worker_calls {
                            virt.fail(format!(
                                "{} checkpoints for {} worker calls",
                                r.checkpoints, r.worker_calls
                            ));
                        }
                        if r.recoveries != 0 {
                            virt.fail(format!("{} recoveries without a fault", r.recoveries));
                        }
                        layers.extra.insert("ft.checkpoints", r.checkpoints as f64);
                        virt.outputs.insert("checkpoints", r.checkpoints);
                    }
                }
                Err(e) => {
                    virt.attempted += 1;
                    virt.fail(format!("cell ft={} failed: {e}", spec.ft.is_some()));
                }
            }
        }
        virt.outputs.insert("elapsed_ns.without_proxy", elapsed[0]);
        virt.outputs.insert("elapsed_ns.with_proxy", elapsed[1]);
        if elapsed[0] > 0 {
            virt.headline
                .insert("ft_overhead_ratio", elapsed[1] as f64 / elapsed[0] as f64);
        }
        layers.extra.insert(
            "cdr.payload_bytes_per_op",
            super::solve_fanout_bytes(100, 7) as f64,
        );
        Rep { time, virt, layers }
    }
}
