//! The parameter sweeps behind the paper's Figure 3 and Table 1, the one
//! loop + table + CSV the `ablation_*` bins share, and the instrumented
//! reference cell behind `--trace-out` / `--metrics-out`.

use corba_runtime::{
    averaged_runtime, run_experiment, CrashPlan, ExperimentOutcome, ExperimentSpec, NamingMode,
};
use optim::{FtSettings, RunReport};
use simnet::SimDuration;

use crate::{Csv, RunArgs, Table};

/// One Figure 3 data point: a (scenario, naming, load) cell.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Curve label, e.g. `CORBA/Winner 100/7`.
    pub curve: String,
    /// Problem dimension.
    pub n: usize,
    /// Workers.
    pub workers: usize,
    /// Naming mode.
    pub naming: NamingMode,
    /// Loaded hosts (x-axis).
    pub loaded: usize,
    /// Mean runtime in virtual seconds (y-axis).
    pub runtime: f64,
    /// Per-seed runtimes.
    pub samples: Vec<f64>,
}

/// Run the full Figure 3 sweep: {plain, Winner} × {30/3, 100/7} ×
/// loaded ∈ {0, 2, 4, 6, 8}.
pub fn fig3_sweep(args: &RunArgs) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    type SpecMaker = fn(NamingMode) -> ExperimentSpec;
    let scenarios: [(&str, SpecMaker); 2] = [
        ("30/3", ExperimentSpec::dim30),
        ("100/7", ExperimentSpec::dim100),
    ];
    for (label, make) in scenarios {
        for naming in [NamingMode::Plain, NamingMode::Winner] {
            for loaded in [0usize, 2, 4, 6, 8] {
                let mut spec = make(naming.clone()).loaded(loaded);
                spec.worker_iters = args.scaled(spec.worker_iters);
                let (mean, runs) =
                    averaged_runtime(&spec, &args.seeds).expect("experiment run failed");
                let curve = match naming {
                    NamingMode::Plain => format!("CORBA {label}"),
                    NamingMode::Winner => format!("CORBA/Winner {label}"),
                };
                rows.push(Fig3Row {
                    curve,
                    n: spec.n,
                    workers: spec.workers,
                    naming: naming.clone(),
                    loaded,
                    runtime: mean,
                    samples: runs
                        .iter()
                        .map(|r| r.report.elapsed.as_secs_f64())
                        .collect(),
                });
                eprint!(".");
            }
        }
    }
    eprintln!();
    rows
}

/// The *reference cell* behind `--trace-out`, the `doctor` bin and the
/// perf suite's chaos cell: the 30-dim / 3-worker scenario under Winner
/// naming with fault-tolerance proxies, at the first seed, and — with
/// `crash` — a mid-run host crash (restarted later).
pub(crate) fn reference_spec(args: &RunArgs, crash: bool) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner);
    spec.worker_iters = args.scaled(spec.worker_iters);
    // Exactly as many worker hosts as workers, so the scheduled crash is
    // guaranteed to take out a selected worker and force a recovery
    // episode into the trace.
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    if crash {
        spec.crash = Some(CrashPlan {
            after: SimDuration::from_millis(200),
            now_host_index: 0,
            restart_after: Some(SimDuration::from_secs(2)),
        });
    }
    spec.seed(args.first_seed())
}

/// The serialized observability exports of [`trace_cell`].
#[derive(Clone, Debug)]
pub struct TraceExport {
    /// Chrome `trace_event` JSON (one event per line; loads in
    /// `chrome://tracing` or Perfetto).
    pub trace_json: String,
    /// Plain-text metrics dump (`counter` / `gauge` / `hist` lines).
    pub metrics_text: String,
    /// Flight-recorder post-mortems of the cell (the crash and the close
    /// of the recovery episode each dump one), flushed to stderr when the
    /// export write fails so the run stays diagnosable.
    pub post_mortems: String,
}

/// Run the crashed [`doctor_cell`] and export its causal trace and metrics.
///
/// The cell is deterministic: the same seed and scale yield byte-identical
/// exports, which CI asserts by running it twice and `cmp`-ing the files.
pub fn trace_cell(args: &RunArgs) -> TraceExport {
    // Live monitoring rides along so the flight recorder captures the
    // crash + recovery arc; its counters land in the metrics export, which
    // stays deterministic (same seed ⇒ byte-identical, as CI asserts).
    let outcome = doctor_cell(args, true);
    TraceExport {
        trace_json: outcome.obs.chrome_trace_json(),
        metrics_text: outcome.obs.metrics_text(),
        post_mortems: outcome.doctor.map(|d| d.dumps.concat()).unwrap_or_default(),
    }
}

/// Run the reference cell with live monitoring attached and return the
/// outcome (its `doctor` carries the doctor report).
///
/// `crash` selects between the healthy baseline (no fault injection; the
/// doctor must report zero violations) and the crash cell from
/// [`trace_cell`] (whose flight recorder must dump a post-mortem with the
/// recovery episode). Deterministic: same seed and scale yield a
/// byte-identical doctor report.
pub fn doctor_cell(args: &RunArgs, crash: bool) -> ExperimentOutcome {
    let mut spec = reference_spec(args, crash);
    spec.monitor = Some(monitor::MonitorConfig::default());
    run_experiment(&spec).expect("reference cell failed")
}

/// One Table 1 row: an iteration count with plain and proxy runtimes.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Worker iterations (the paper's sweep variable).
    pub iterations: u64,
    /// Runtime without proxies (s).
    pub without_proxy: f64,
    /// Runtime with fault-tolerant proxies (s).
    pub with_proxy: f64,
}

impl Table1Row {
    /// Relative overhead in percent, as the paper reports it.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.with_proxy - self.without_proxy) / self.without_proxy
    }
}

/// Run the Table 1 sweep: the 100-dim / 7-worker problem, unloaded, with
/// and without fault-tolerance proxies, across worker iteration counts.
pub fn table1_sweep(args: &RunArgs, ft: FtSettings) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for iters in [10_000u64, 20_000, 30_000, 40_000, 50_000] {
        let iters = args.scaled(iters);
        let mut plain = ExperimentSpec::dim100(NamingMode::Winner);
        plain.worker_iters = iters;
        let (without_proxy, _) =
            averaged_runtime(&plain, &args.seeds).expect("experiment run failed");
        let mut proxied = plain.clone();
        proxied.ft = Some(ft.clone());
        let (with_proxy, _) =
            averaged_runtime(&proxied, &args.seeds).expect("experiment run failed");
        rows.push(Table1Row {
            iterations: iters,
            without_proxy,
            with_proxy,
        });
        eprint!(".");
    }
    eprintln!();
    rows
}

/// One ablation setting, averaged over the seeds.
pub struct AblationRow {
    /// The setting's label (first table / CSV column).
    pub label: String,
    /// The setting itself, as it ran (iteration count scaled).
    pub spec: ExperimentSpec,
    /// Mean runtime in virtual seconds (second column).
    pub runtime: f64,
    /// The manager's report of each seed's run.
    pub reports: Vec<RunReport>,
}

impl AblationRow {
    /// A counter of the per-seed reports, summed over the seeds.
    pub fn total(&self, field: fn(&RunReport) -> u64) -> u64 {
        self.reports.iter().map(field).sum()
    }
}

/// Run each `(label, spec)` setting over the seeds, with the spec's worker
/// iteration count scaled by the run scale.
pub fn ablation_sweep<L: Into<String>>(
    args: &RunArgs,
    cases: impl IntoIterator<Item = (L, ExperimentSpec)>,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for (label, mut spec) in cases {
        spec.worker_iters = args.scaled(spec.worker_iters);
        let (runtime, runs) = averaged_runtime(&spec, &args.seeds).expect("experiment run failed");
        rows.push(AblationRow {
            label: label.into(),
            runtime,
            reports: runs.into_iter().map(|r| r.report).collect(),
            spec,
        });
        eprint!(".");
    }
    eprintln!();
    rows
}

/// A column after the label and the runtime: its table header, its CSV
/// header (`None` keeps it out of the CSV) and a row's cell.
pub type AblationColumn<'a> = (&'a str, Option<&'a str>, &'a dyn Fn(&AblationRow) -> String);

/// Print an ablation study — `title`, the table, the optional `reading`
/// paragraph and (unless `--no-csv`) the CSV — then write the requested
/// observability exports. The first two columns are always the label
/// (headed `key` in both renderings) and the runtime.
pub fn print_ablation(
    args: &RunArgs,
    title: &str,
    key: &str,
    columns: &[AblationColumn<'_>],
    rows: &[AblationRow],
    reading: Option<&str>,
) {
    let mut header = vec![key, "runtime [s]"];
    let mut csv_header = vec![key, "runtime_s"];
    for (name, csv_name, _) in columns {
        header.push(name);
        csv_header.extend(csv_name);
    }
    let mut table = Table::new(header);
    let mut csv_rows = Vec::new();
    for r in rows {
        let mut cells = vec![r.label.clone(), format!("{:.2}", r.runtime)];
        let mut csv = vec![r.label.clone(), format!("{:.4}", r.runtime)];
        for (_, csv_name, cell) in columns {
            let cell = cell(r);
            if csv_name.is_some() {
                csv.push(cell.clone());
            }
            cells.push(cell);
        }
        table.row(cells);
        csv_rows.push(csv);
    }
    println!("{title}\n");
    println!("{}", table.render());
    if let Some(reading) = reading {
        println!("{reading}");
    }
    if args.csv {
        print!("{}", Csv::render(&csv_header, &csv_rows));
    }
    args.write_exports_or_exit();
}
