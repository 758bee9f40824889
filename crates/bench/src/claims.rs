//! The claims this reproduction checks, each a pure function over sweep
//! rows: the paper's §4 prose claims over Figure 3 and Table 1, and one or
//! two per ablation, from the reading of its EXPERIMENTS.md section.
//! `summary` prints them and exits 1 when any does not hold.

use corba_runtime::NamingMode;

use crate::sweeps::{ckpt, policy, recovery};
use crate::Row;

/// One checked claim.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Where the claim comes from: the paper's §4 or an ablation.
    pub source: &'static str,
    /// What is claimed.
    pub claim: &'static str,
    /// What this run measured.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub holds: bool,
}

fn claim(source: &'static str, claim: &'static str, measured: String, holds: bool) -> Claim {
    Claim {
        source,
        claim,
        measured,
        holds,
    }
}

/// Every sweep `summary` runs.
pub struct Sweeps {
    /// Figure 3.
    pub fig3: Vec<Row>,
    /// Table 1, its rows in (without, with proxy) pairs.
    pub table1: Vec<Row>,
    /// The checkpoint-strategy ablation.
    pub ckpt: Vec<Row>,
    /// The selection-policy ablation.
    pub policy: Vec<Row>,
    /// The recovery ablation.
    pub recovery: Vec<Row>,
    /// The store-replication ablation.
    pub replication: Vec<Row>,
}

/// Every claim, in print order.
pub fn check(s: &Sweeps) -> Vec<Claim> {
    vec![
        best_case_reduction(&s.fig3),
        average_reduction(&s.fig3),
        never_worse(&s.fig3),
        ft_worst_case(&s.table1),
        overhead_declines(&s.table1),
        overhead_is_constant(&s.table1),
        bulk_beats_per_value(&s.ckpt),
        rarer_checkpoints_cost_less(&s.ckpt),
        best_performance_is_best(&s.policy),
        uniform_is_slower(&s.policy),
        detection_ignores_the_timeout(&s.recovery),
        replication_keeps_checkpoints(&s.replication),
    ]
}

/// What Winner naming does to Figure 3's runtimes over `rows`: the best
/// and the mean reduction against the plain cell of the same problem and
/// load, in percent, and the cells where Winner was over 2 % slower.
pub fn reduction(rows: &[Row]) -> (f64, f64, usize) {
    let key = |r: &Row| (r.spec.n, r.spec.loaded_hosts);
    let mut reductions = Vec::new();
    let mut worse = 0;
    for w in rows.iter().filter(|r| r.spec.naming == NamingMode::Winner) {
        let plain = rows.iter().filter(|p| p.spec.naming == NamingMode::Plain);
        let p = plain
            .clone()
            .find(|p| key(p) == key(w))
            .expect("paired plain cell");
        reductions.push(100.0 * (p.runtime - w.runtime) / p.runtime);
        worse += usize::from(w.runtime > p.runtime * 1.02);
    }
    let best = reductions.iter().copied().fold(0.0, f64::max);
    (
        best,
        reductions.iter().sum::<f64>() / reductions.len() as f64,
        worse,
    )
}

/// Table 1's row pairs as (runtime without proxy, with proxy, relative
/// overhead in percent, as the paper reports it).
pub fn ft_pairs(table1: &[Row]) -> impl Iterator<Item = (f64, f64, f64)> + Clone + '_ {
    let overhead = |plain: f64, ft: f64| 100.0 * (ft - plain) / plain;
    table1.chunks(2).map(move |p| {
        (
            p[0].runtime,
            p[1].runtime,
            overhead(p[0].runtime, p[1].runtime),
        )
    })
}

const PAPER: &str = "§4";

fn best_case_reduction(fig3: &[Row]) -> Claim {
    let best = reduction(fig3).0;
    claim(
        PAPER,
        "best-case runtime reduction ≈ 40%",
        format!("{best:.0}%"),
        best >= 25.0,
    )
}

fn average_reduction(fig3: &[Row]) -> Claim {
    let avg = reduction(fig3).1;
    let holds = (5.0..=35.0).contains(&avg);
    claim(
        PAPER,
        "average reduction ≈ 15%",
        format!("{avg:.0}%"),
        holds,
    )
}

fn never_worse(fig3: &[Row]) -> Claim {
    let worse = reduction(fig3).2;
    let measured = format!("{worse} cells worse");
    claim(
        PAPER,
        "never worse than the plain service",
        measured,
        worse == 0,
    )
}

fn ft_worst_case(table1: &[Row]) -> Claim {
    let worst = ft_pairs(table1)
        .map(|(plain, ft, _)| ft / plain)
        .fold(0.0, f64::max);
    claim(
        PAPER,
        "FT worst case > 3× plain runtime",
        format!("{worst:.2}×"),
        worst > 3.0,
    )
}

fn overhead_declines(table1: &[Row]) -> Claim {
    let pct: Vec<f64> = ft_pairs(table1).map(|(_, _, pct)| pct).collect();
    let declines = pct.windows(2).all(|w| w[1] <= w[0] + 1.0);
    let text = "relative FT overhead declines with call length";
    claim(PAPER, text, declines.to_string(), declines)
}

/// Constant per-call overhead: the absolute overhead varies far less
/// than the runtimes do.
fn overhead_is_constant(table1: &[Row]) -> Claim {
    let overheads = ft_pairs(table1).map(|(plain, ft, _)| ft - plain);
    let min = overheads.clone().fold(f64::INFINITY, f64::min);
    let max = overheads.fold(0.0, f64::max);
    let measured = format!("abs. overhead {min:.1}–{max:.1} s across the sweep");
    claim(
        PAPER,
        "per-call overhead is constant",
        measured,
        max / min < 1.5,
    )
}

/// The row labelled `label`. Panics if the sweep has none.
fn row<'a>(rows: &'a [Row], label: &str) -> &'a Row {
    let found = rows.iter().find(|r| r.label == label);
    found.unwrap_or_else(|| panic!("no {label:?} row"))
}

fn runtime(rows: &[Row], label: &str) -> f64 {
    row(rows, label).runtime
}

const CKPT: &str = "checkpoint ablation";

fn bulk_beats_per_value(rows: &[Row]) -> Claim {
    let base = runtime(rows, ckpt::BASELINE);
    let overhead = |label| 100.0 * (runtime(rows, label) - base) / base;
    let (bulk, per_value) = (overhead(ckpt::BULK), overhead(ckpt::PER_VALUE));
    let measured = format!("{bulk:.1}% vs {per_value:.1}%");
    let text = "bulk-every-call overhead < 1/5 of per-value's";
    claim(CKPT, text, measured, bulk < per_value / 5.0)
}

fn rarer_checkpoints_cost_less(rows: &[Row]) -> Claim {
    let [pv, pv5, bulk, bulk5] = [ckpt::PER_VALUE, ckpt::PER_VALUE_5, ckpt::BULK, ckpt::BULK_5]
        .map(|label| runtime(rows, label));
    let measured = format!("per-value {pv5:.2} vs {pv:.2} s, bulk {bulk5:.2} vs {bulk:.2} s");
    let text = "every 5th call costs less than every call, either transport";
    claim(CKPT, text, measured, pv5 < pv && bulk5 < bulk)
}

const POLICY: &str = "policy ablation";

fn best_performance_is_best(rows: &[Row]) -> Claim {
    let best = rows.iter().map(|r| r.runtime).fold(f64::INFINITY, f64::min);
    let gap = 100.0 * (runtime(rows, policy::BEST_PERFORMANCE) - best) / best;
    let text = "best-performance within 2% of the best policy, 3/10 loaded";
    claim(POLICY, text, format!("+{gap:.1}%"), gap <= 2.0)
}

fn uniform_is_slower(rows: &[Row]) -> Claim {
    let ratio = runtime(rows, policy::UNIFORM) / runtime(rows, policy::BEST_PERFORMANCE);
    let text = "uniform-random takes ≥ 1.5× best-performance's time";
    claim(POLICY, text, format!("{ratio:.2}×"), ratio >= 1.5)
}

/// Detection is the ORB asking the silent worker's host with keepalives,
/// so the request timeout does not enter a recovery's cost. Each seed of
/// each crash row must have recovered, or a mean rests on runs that never
/// met the crash.
fn detection_ignores_the_timeout(rows: &[Row]) -> Claim {
    let (slow, short) = (
        row(rows, recovery::SLOW_TIMEOUT),
        row(rows, recovery::SHORT_TIMEOUT),
    );
    let missed = rows
        .iter()
        .filter(|r| r.spec.crash.is_some())
        .flat_map(|r| &r.reports)
        .filter(|rep| rep.recoveries == 0)
        .count();
    let measured = format!(
        "{:.4} vs {:.4} s, {missed} crash run(s) without a recovery",
        slow.runtime, short.runtime
    );
    let text = "a crash costs the same at a 60 s and a short request timeout";
    let crashed = slow.spec.crash.is_some() && short.spec.crash.is_some();
    let holds = crashed && missed == 0 && slow.runtime == short.runtime;
    claim("recovery ablation", text, measured, holds)
}

/// Every call's checkpoint lands while a replica is left; with the single
/// store gone nothing is stored after its crash.
fn replication_keeps_checkpoints(rows: &[Row]) -> Claim {
    let labels = |keep: fn(&Row) -> bool| -> Vec<&str> {
        rows.iter()
            .filter(|r| keep(r))
            .map(|r| r.label.as_str())
            .collect()
    };
    let lossy = labels(|r| r.total(|rep| rep.checkpoints) < r.total(|rep| rep.worker_calls));
    let spof = labels(|r| r.spec.store_crash.is_some() && r.spec.store_replicas == 1);
    let measured = format!("checkpoints lost in: {}", lossy.join("; "));
    let text = "replicas keep every checkpoint through a store crash, one store does not";
    let holds = !spof.is_empty() && lossy == spof;
    claim("replication ablation", text, measured, holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use corba_runtime::{ExperimentSpec, StoreCrashPlan};
    use NamingMode::{Plain, Winner};

    fn cell(label: &str, spec: ExperimentSpec, runtime: f64) -> Row {
        let report = optim::RunReport {
            worker_calls: 10,
            recoveries: 1,
            checkpoints: 10,
            ..Default::default()
        };
        let (label, reports) = (label.to_string(), vec![report]);
        Row {
            label,
            spec,
            runtime,
            reports,
        }
    }

    fn rows(cases: &[(&str, f64)]) -> Vec<Row> {
        let spec = ExperimentSpec::dim100(Plain);
        cases
            .iter()
            .map(|&(label, t)| cell(label, spec.clone(), t))
            .collect()
    }

    /// Sweeps shaped like the full-scale results, where every claim holds.
    fn holding() -> Sweeps {
        let mut fig3 = Vec::new();
        for (n, loaded, plain, winner) in
            [(30, 0, 3.2, 3.2), (30, 4, 6.2, 3.2), (100, 8, 12.2, 12.2)]
        {
            for (naming, t) in [(Plain, plain), (Winner, winner)] {
                let mut spec = ExperimentSpec::dim100(naming).loaded(loaded);
                spec.n = n;
                fig3.push(cell("", spec, t));
            }
        }
        let table1 = [3.07, 12.25, 6.11, 15.29, 9.05, 18.13].map(|t| ("", t));
        let mut replication = rows(&[("1", 7.0), ("3", 7.0), ("3 crash", 7.0), ("1 crash", 7.0)]);
        for (r, replicas) in replication.iter_mut().zip([1, 3, 3, 1]) {
            r.spec.store_replicas = replicas;
            let after = simnet::SimDuration::from_millis(600);
            let plan = StoreCrashPlan {
                after,
                store_host_index: 0,
            };
            r.spec.store_crash = r.label.ends_with("crash").then_some(plan);
        }
        replication[3].reports[0].checkpoints = 4;
        let mut recovery = rows(&[
            ("no crash", 6.0),
            (recovery::SLOW_TIMEOUT, 6.72),
            (recovery::SHORT_TIMEOUT, 6.72),
        ]);
        recovery[0].reports[0].recoveries = 0;
        for r in &mut recovery[1..] {
            r.spec.crash = Some(corba_runtime::CrashPlan {
                after: simnet::SimDuration::from_secs(2),
                now_host_index: 0,
                restart_after: None,
            });
            r.reports.push(r.reports[0].clone()); // two seeds
        }
        use ckpt::{BASELINE, BULK, BULK_5, PER_VALUE, PER_VALUE_5};
        use policy::{BEST_PERFORMANCE, UNIFORM};
        Sweeps {
            fig3,
            table1: rows(&table1),
            ckpt: rows(&[
                (BASELINE, 6.11),
                (PER_VALUE, 15.29),
                (PER_VALUE_5, 7.89),
                (BULK, 6.52),
                (BULK_5, 6.19),
            ]),
            policy: rows(&[
                (BEST_PERFORMANCE, 6.11),
                ("least-loaded", 6.11),
                (UNIFORM, 17.75),
            ]),
            recovery,
            replication,
        }
    }

    fn set(rows: &mut [Row], label: &str, runtime: f64) {
        rows.iter_mut()
            .filter(|r| r.label == label)
            .for_each(|r| r.runtime = runtime);
    }

    /// Every claim holds on [`holding`], and each plant — a row that
    /// violates one claim and no other — turns exactly that claim ✗.
    #[test]
    fn each_claim_fails_on_a_violating_row_and_only_then() {
        let failing = |s: &Sweeps| -> Vec<&str> {
            check(s)
                .into_iter()
                .filter(|c| !c.holds)
                .map(|c| c.claim)
                .collect()
        };
        assert_eq!(failing(&holding()), Vec::<&str>::new());
        // (index in `check`'s order, plant)
        type Plant = fn(&mut Sweeps);
        let plants: [(usize, Plant); 16] = [
            (0, |s| s.fig3[3].runtime = 4.7),   // best 24 %, average still 8 %
            (1, |s| s.fig3[5].runtime = 3.05),  // average 41 %
            (2, |s| s.fig3[5].runtime = 12.5),  // 2.5 % slower
            (3, |s| s.table1[0].runtime = 4.7), // 2.6×, 7.6 s overhead
            (4, |s| s.table1[4].runtime = 6.0), // shorter than the row before
            (5, |s| {
                (s.table1[4].runtime, s.table1[5].runtime) = (20.0, 34.0)
            }),
            (6, |s| set(&mut s.ckpt, ckpt::BULK, 8.0)),
            (7, |s| set(&mut s.ckpt, ckpt::BULK_5, 6.6)),
            (8, |s| set(&mut s.policy, "least-loaded", 5.5)),
            (9, |s| set(&mut s.policy, policy::UNIFORM, 8.0)),
            (10, |s| set(&mut s.recovery, recovery::SLOW_TIMEOUT, 66.0)),
            (10, |s| s.recovery[2].reports[1].recoveries = 0), // one seed never recovered
            (10, |s| s.recovery[2].spec.crash = None),         // nothing crashed
            (10, |s| s.recovery[1].reports[0].recoveries = 0), // in the other row
            (11, |s| s.replication[2].reports[0].checkpoints = 9),
            (11, |s| s.replication[3].reports[0].checkpoints = 10), // the store never lost
        ];
        let texts: Vec<&str> = check(&holding()).iter().map(|c| c.claim).collect();
        for (i, plant) in plants {
            let mut s = holding();
            plant(&mut s);
            assert_eq!(failing(&s), vec![texts[i]]);
        }
    }
}
