//! `--compare A.json B.json`: apply the benchmark's own bounds to two
//! results files, metric by metric and workload by workload.
//!
//! * Virtual metrics and deterministic counters must be **equal**: two
//!   runs of one commit on one seed differ only if determinism broke, and
//!   a change that moves them moved the model.
//! * Time and memory metrics are judged against their bound in
//!   `BENCHMARK.json`:
//!   `worse` when B's median is worse than A's by more than the bound,
//!   `unresolved` when either run's own rep-to-rep spread (see
//!   [`rep_spread`]) is wider than the bound, so the question cannot be
//!   answered by these two runs.

use crate::results::{Measured, Results, WorkloadResult};
use crate::spec::{self, Better, MetricSpec};

/// The outcome for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal (exact metrics) or within the bound.
    Same,
    /// Improved: at all (exact metrics) or by more than the bound.
    Better,
    /// Worse: at all (exact metrics) or by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound.
    Unresolved,
    /// Reported by only one of the two runs.
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }

    /// Whether this verdict fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::Unresolved | Verdict::Missing
        )
    }
}

/// One workload's row.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// `(metric, verdict, A's value, B's value)` for every end-to-end
    /// metric either run reports on this workload.
    pub end_to_end: Vec<(String, Verdict, f64, f64)>,
    /// The same for every exact per-layer metric, when both runs were
    /// traced.
    pub per_layer: Vec<(String, Verdict, f64, f64)>,
}

impl Row {
    /// Whether any metric of the row fails the comparison.
    pub fn fails(&self) -> bool {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .any(|(_, v, _, _)| v.fails())
    }
}

/// Judge one metric.
pub fn judge(spec: &MetricSpec, a: &Measured, b: &Measured) -> Verdict {
    let worse = |from: f64, to: f64| match spec.better {
        Better::Lower => to > from,
        Better::Higher => to < from,
    };
    if spec.exact {
        return if a.value == b.value {
            Verdict::Same
        } else if worse(a.value, b.value) {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let Some(bound) = spec.bound else {
        return Verdict::Same; // unbounded diagnostics (wall_s, probes) are reported, not judged
    };
    if rep_spread(a).max(rep_spread(b)) > bound {
        return Verdict::Unresolved;
    }
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let change = (b.value - a.value) / base;
    if change.abs() <= bound {
        Verdict::Same
    } else if worse(a.value, b.value) {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

/// Rep-to-rep spread of a time metric: the interquartile range of the
/// timed reps as a share of their median. 0 for values that are not
/// estimated over reps.
pub fn rep_spread(m: &Measured) -> f64 {
    m.reps.map_or(0.0, |r| {
        (r.q3 - r.q1) / r.median.abs().max(f64::MIN_POSITIVE)
    })
}

fn judge_section(
    a: &WorkloadResult,
    b: &WorkloadResult,
    names: impl Iterator<Item = &'static MetricSpec>,
) -> Vec<(String, Verdict, f64, f64)> {
    names
        .filter_map(|m| match (a.metric(m.name), b.metric(m.name)) {
            (Some(x), Some(y)) => Some((m.name.to_string(), judge(m, x, y), x.value, y.value)),
            (None, None) => None,
            (x, y) => Some((
                m.name.to_string(),
                Verdict::Missing,
                x.map_or(f64::NAN, |m| m.value),
                y.map_or(f64::NAN, |m| m.value),
            )),
        })
        .collect()
}

/// Compare two runs; one row per workload of `a`.
///
/// # Errors
/// If the two runs used different seeds: exact metrics are only
/// comparable between runs of one seed.
pub fn compare(a: &Results, b: &Results) -> Result<Vec<Row>, String> {
    if a.seed != b.seed {
        return Err(format!(
            "seeds differ ({} vs {}): virtual metrics are only comparable on one seed",
            a.seed, b.seed
        ));
    }
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            return Err(format!(
                "workload {} is missing from the second run",
                wa.name
            ));
        };
        let traced = !wa.per_layer.is_empty() && !wb.per_layer.is_empty();
        rows.push(Row {
            workload: wa.name.clone(),
            end_to_end: judge_section(wa, wb, spec::END_TO_END.iter().chain(&spec::HEADLINE)),
            per_layer: if traced {
                judge_section(wa, wb, spec::PER_LAYER.iter().filter(|m| m.exact))
            } else {
                Vec::new()
            },
        });
    }
    Ok(rows)
}

/// Render the rows: one line per workload with a verdict per end-to-end
/// metric, then the detail of everything that is not `same`.
pub fn render(rows: &[Row]) -> String {
    let names: Vec<&str> = spec::END_TO_END
        .iter()
        .chain(&spec::HEADLINE)
        .map(|m| m.name)
        .collect();
    let mut out = format!("{:<15}", "workload");
    for n in &names {
        out.push_str(&format!(" {n:>17}"));
    }
    out.push_str(&format!(" {:>17}\n", "per_layer(exact)"));
    for row in rows {
        out.push_str(&format!("{:<15}", row.workload));
        for n in &names {
            let cell = row
                .end_to_end
                .iter()
                .find(|(m, ..)| m == n)
                .map_or("absent", |(_, v, ..)| v.word());
            out.push_str(&format!(" {cell:>17}"));
        }
        let layer = if row.per_layer.is_empty() {
            "untraced".to_string()
        } else {
            let same = row
                .per_layer
                .iter()
                .filter(|(_, v, ..)| *v == Verdict::Same)
                .count();
            format!("same {same}/{}", row.per_layer.len())
        };
        out.push_str(&format!(" {layer:>17}\n"));
    }
    for row in rows {
        for (name, verdict, a, b) in row.end_to_end.iter().chain(&row.per_layer) {
            if *verdict != Verdict::Same {
                out.push_str(&format!(
                    "  {} {name}: {} ({a} -> {b})\n",
                    row.workload,
                    verdict.word()
                ));
            }
        }
    }
    out
}
