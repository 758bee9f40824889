//! `benchmark/out/results.json`: what a run measured, written at the end
//! and read back by `--compare`. The reader rejects unknown fields, so a
//! schema change is loud.

use crate::json::{self, Value};

/// Stamped into every results file.
pub const SCHEMA: &str = "ldft-benchmark/v1";

/// The per-rep values behind a wall metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepSummary {
    /// Fastest rep.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median rep.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl RepSummary {
    /// Summarise per-rep values (at least two).
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = crate::stats::quartiles(values);
        RepSummary {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
        }
    }
}

/// One reported number. Wall metrics are estimated from the timed reps
/// and carry the reps' summary beside the value; virtual metrics and
/// counters repeat exactly and carry none.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Summary of the per-rep values, for metrics estimated over reps.
    pub reps: Option<RepSummary>,
    /// Number of samples behind `value` (reps, operations or episodes).
    pub n: u64,
}

impl Measured {
    /// An exact value backed by `n` samples.
    pub fn exact(value: f64, unit: &str, n: u64) -> Self {
        Measured {
            value,
            unit: unit.to_string(),
            reps: None,
            n,
        }
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(&self.unit)),
        ];
        if let Some(r) = self.reps {
            fields.push(("min", Value::Num(r.min)));
            fields.push(("q1", Value::Num(r.q1)));
            fields.push(("median", Value::Num(r.median)));
            fields.push(("q3", Value::Num(r.q3)));
        }
        fields.push(("n", Value::Num(self.n as f64)));
        Value::obj(fields)
    }

    fn from_json(v: &Value, what: &str) -> Result<Self, String> {
        let (mut value, mut unit, mut n) = (None, None, None);
        let (mut min, mut q1, mut median, mut q3) = (None, None, None, None);
        for (key, v) in v.as_object(what)? {
            match key.as_str() {
                "value" => value = Some(v.as_f64(key)?),
                "unit" => unit = Some(v.as_str(key)?.to_string()),
                "min" => min = Some(v.as_f64(key)?),
                "q1" => q1 = Some(v.as_f64(key)?),
                "median" => median = Some(v.as_f64(key)?),
                "q3" => q3 = Some(v.as_f64(key)?),
                "n" => n = Some(v.as_u64(key)?),
                other => return Err(format!("{what}: unknown field {other:?}")),
            }
        }
        Ok(Measured {
            value: value.ok_or_else(|| format!("{what}: no value"))?,
            unit: unit.ok_or_else(|| format!("{what}: no unit"))?,
            reps: match (min, q1, median, q3) {
                (Some(min), Some(q1), Some(median), Some(q3)) => Some(RepSummary {
                    min,
                    q1,
                    median,
                    q3,
                }),
                (None, None, None, None) => None,
                _ => return Err(format!("{what}: incomplete rep summary")),
            },
            n: n.ok_or_else(|| format!("{what}: no n"))?,
        })
    }
}

/// A named list of metrics, in report order.
pub type Metrics = Vec<(String, Measured)>;

/// One workload's results.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Timed reps (the warm-up rep is not counted).
    pub reps: u64,
    /// Operations attempted in one rep.
    pub attempted: u64,
    /// Operations (and output checks) that failed in one rep.
    pub failed: u64,
    /// One line per failed output check.
    pub check_failures: Vec<String>,
    /// End-to-end metrics, from the untraced pass; a metric that does not
    /// apply to the workload is absent.
    pub end_to_end: Metrics,
    /// Per-layer metrics, from the traced pass; empty without `--trace 1`.
    pub per_layer: Metrics,
}

impl WorkloadResult {
    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Look an end-to-end or per-layer metric up.
    pub fn metric(&self, name: &str) -> Option<&Measured> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }

    fn to_json(&self) -> Value {
        let metrics = |ms: &Metrics| Value::obj(ms.iter().map(|(n, m)| (n.clone(), m.to_json())));
        Value::obj([
            ("name", Value::str(&self.name)),
            ("reps", Value::Num(self.reps as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "check_failures",
                Value::Arr(self.check_failures.iter().map(Value::str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let metrics = |v: &Value, what: &str| -> Result<Metrics, String> {
            v.as_object(what)?
                .iter()
                .map(|(name, m)| Ok((name.clone(), Measured::from_json(m, name)?)))
                .collect()
        };
        let mut w = WorkloadResult {
            name: String::new(),
            reps: 0,
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for (key, v) in v.as_object("workload")? {
            match key.as_str() {
                "name" => w.name = v.as_str(key)?.to_string(),
                "reps" => w.reps = v.as_u64(key)?,
                "attempted" => w.attempted = v.as_u64(key)?,
                "failed" => w.failed = v.as_u64(key)?,
                "check_failures" => {
                    for item in v.as_array(key)? {
                        w.check_failures.push(item.as_str(key)?.to_string());
                    }
                }
                "end_to_end" => w.end_to_end = metrics(v, key)?,
                "per_layer" => w.per_layer = metrics(v, key)?,
                other => return Err(format!("workload: unknown field {other:?}")),
            }
        }
        if w.name.is_empty() {
            return Err("workload without a name".into());
        }
        Ok(w)
    }
}

/// A whole run.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    /// The `--seed` every input generator was fed.
    pub seed: u64,
    /// The CPU every workload was pinned to.
    pub pinned_cpu: u64,
    /// CPUs of the machine (`available_parallelism`).
    pub nproc: u64,
    /// The `--seconds` budget of measured time per workload.
    pub seconds: u64,
    /// One entry per workload run, in report order.
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    /// Look a workload up by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Render as the committed-style JSON text.
    pub fn to_json(&self) -> String {
        Value::obj([
            ("schema", Value::str(SCHEMA)),
            ("seed", Value::Num(self.seed as f64)),
            ("pinned_cpu", Value::Num(self.pinned_cpu as f64)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("seconds", Value::Num(self.seconds as f64)),
            (
                "workloads",
                Value::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Parse a results file.
    ///
    /// # Errors
    /// On malformed JSON, a wrong schema stamp, an unknown or missing
    /// field, or a wrong value type.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        let mut schema = None;
        let mut r = Results {
            seed: 0,
            pinned_cpu: 0,
            nproc: 0,
            seconds: 0,
            workloads: Vec::new(),
        };
        for (key, v) in doc.as_object("results")? {
            match key.as_str() {
                "schema" => schema = Some(v.as_str(key)?.to_string()),
                "seed" => r.seed = v.as_u64(key)?,
                "pinned_cpu" => r.pinned_cpu = v.as_u64(key)?,
                "nproc" => r.nproc = v.as_u64(key)?,
                "seconds" => r.seconds = v.as_u64(key)?,
                "workloads" => {
                    for item in v.as_array(key)? {
                        r.workloads.push(WorkloadResult::from_json(item)?);
                    }
                }
                other => return Err(format!("results: unknown field {other:?}")),
            }
        }
        match schema.as_deref() {
            Some(SCHEMA) => Ok(r),
            other => Err(format!("schema {other:?} (this build reads {SCHEMA:?})")),
        }
    }
}
