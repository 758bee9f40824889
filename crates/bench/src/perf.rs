//! The standardized performance suite behind the `perf` binary: schema
//! types for `BENCH_*.json`, a hand-rolled JSON round-trip (the workspace
//! is offline — no serde), the regression comparator, and the suite cells
//! themselves.
//!
//! # Virtual vs wall time
//!
//! Every record carries both clocks, with sharply different contracts:
//!
//! * **Virtual fields** (`virtual_ns`, `p50/p95/p99_ns`,
//!   `wasted_work_ppm`) are pure functions of the seed — two same-seed
//!   runs produce byte-identical values. They answer "did the *simulated
//!   system* get slower?" and are what the regression gate compares, so
//!   the gate is immune to CI runner noise.
//! * **Wall fields** (`wall_ns`, `throughput_ops_s`) measure the
//!   simulator itself on the current machine. They are excluded from the
//!   deterministic section and only gated when `--gate-wall-pct` is
//!   passed explicitly.
//!
//! # Wasted work
//!
//! Following the work vs useful-work accounting of Dwork–Halpern–Waarts,
//! the chaos cell reports `wasted_work_ppm`: virtual time a fault kept a
//! client from useful work — detecting the failure (`ft.detect_ns`, and
//! any `ft.checkpoint` that failed) plus recovering from it
//! (`ft.recovery_ns`, which contains the `ft.recover` span, the backoff,
//! re-creation and restore) — divided by total manager run time, in parts
//! per million (integer math, so the value stays byte-deterministic). The
//! repo benchmark's `crash_recovery` defines its `wasted_work_ppm` the same
//! way, from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use corba_runtime::{run_experiment, CrashPlan, ExperimentSpec, NamingMode};
use obs::{Metric, Obs, ProcessObs, SpanRecord};
use optim::FtSettings;
use simnet::{HostConfig, Kernel, ProfileMark, SimDuration};

use crate::RunArgs;

/// Schema version stamped into every report; bump on any field change and
/// refresh `BENCH_baseline.json` in the same commit.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Stable bench name (the comparator's join key).
    pub name: String,
    /// `micro` (wall-dominated codec/ORB loops), `macro` (scenario runs),
    /// or `chaos` (fault-injected runs reporting wasted work).
    pub kind: String,
    /// Wall-clock time of the whole cell on this machine, nanoseconds.
    pub wall_ns: u64,
    /// Virtual time the simulated system took (0 for pure-wall micros).
    pub virtual_ns: u64,
    /// Operations per wall-clock second (cell-defined op unit).
    pub throughput_ops_s: f64,
    /// Median of the cell's `orb.invoke_ns` histogram (virtual ns).
    pub p50_ns: u64,
    /// 95th percentile of the same histogram.
    pub p95_ns: u64,
    /// 99th percentile of the same histogram.
    pub p99_ns: u64,
    /// Recovery + retry-backoff time over total run time, in parts per
    /// million; 0 for cells without fault injection.
    pub wasted_work_ppm: u64,
}

/// A full suite run: header plus one record per bench.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Always [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Suite name (`ldft-perf`).
    pub suite: String,
    /// Iteration-count scale the suite ran at.
    pub scale: f64,
    /// Seed every deterministic cell used.
    pub seed: u64,
    /// The measurements, in suite order.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// Look a bench up by name.
    pub fn find(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Render the committed JSON form: pretty-printed, fields in fixed
    /// order, floats in `{}` display form.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"suite\": {},\n", quote(&self.suite)));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", quote(&b.name)));
            out.push_str(&format!("      \"kind\": {},\n", quote(&b.kind)));
            out.push_str(&format!("      \"wall_ns\": {},\n", b.wall_ns));
            out.push_str(&format!("      \"virtual_ns\": {},\n", b.virtual_ns));
            out.push_str(&format!(
                "      \"throughput_ops_s\": {},\n",
                b.throughput_ops_s
            ));
            out.push_str(&format!("      \"p50_ns\": {},\n", b.p50_ns));
            out.push_str(&format!("      \"p95_ns\": {},\n", b.p95_ns));
            out.push_str(&format!("      \"p99_ns\": {},\n", b.p99_ns));
            out.push_str(&format!(
                "      \"wasted_work_ppm\": {}\n",
                b.wasted_work_ppm
            ));
            out.push_str(if i + 1 == self.benches.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a report from its JSON form (any field order; unknown fields
    /// rejected so schema drift is loud).
    ///
    /// # Errors
    /// On malformed JSON, missing/unknown fields, or a wrong value type.
    pub fn from_json(src: &str) -> Result<BenchReport, String> {
        let value = json::parse(src)?;
        let top = value.as_object("report")?;
        let mut report = BenchReport {
            schema_version: 0,
            suite: String::new(),
            scale: 0.0,
            seed: 0,
            benches: Vec::new(),
        };
        for (key, v) in top {
            match key.as_str() {
                "schema_version" => report.schema_version = v.as_u64(key)?,
                "suite" => report.suite = v.as_str(key)?.to_string(),
                "scale" => report.scale = v.as_f64(key)?,
                "seed" => report.seed = v.as_u64(key)?,
                "benches" => {
                    for item in v.as_array(key)? {
                        report.benches.push(parse_record(item)?);
                    }
                }
                other => return Err(format!("unknown report field {other:?}")),
            }
        }
        if report.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} (this build reads {SCHEMA_VERSION})",
                report.schema_version
            ));
        }
        Ok(report)
    }

    /// The deterministic ("virtual") section: every field that is a pure
    /// function of the seed, one line per bench. Two same-seed suite runs
    /// must render byte-identical sections — CI asserts exactly that.
    /// Wall-clock fields are deliberately absent.
    pub fn virtual_section(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# ldft-perf virtual section: schema {} seed {} scale {}\n",
            self.schema_version, self.seed, self.scale
        ));
        out.push_str("# name kind virtual_ns p50_ns p95_ns p99_ns wasted_work_ppm\n");
        for b in &self.benches {
            out.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                b.name, b.kind, b.virtual_ns, b.p50_ns, b.p95_ns, b.p99_ns, b.wasted_work_ppm
            ));
        }
        out
    }
}

fn parse_record(v: &json::Value) -> Result<BenchRecord, String> {
    let obj = v.as_object("bench")?;
    let mut b = BenchRecord {
        name: String::new(),
        kind: String::new(),
        wall_ns: 0,
        virtual_ns: 0,
        throughput_ops_s: 0.0,
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        wasted_work_ppm: 0,
    };
    for (key, v) in obj {
        match key.as_str() {
            "name" => b.name = v.as_str(key)?.to_string(),
            "kind" => b.kind = v.as_str(key)?.to_string(),
            "wall_ns" => b.wall_ns = v.as_u64(key)?,
            "virtual_ns" => b.virtual_ns = v.as_u64(key)?,
            "throughput_ops_s" => b.throughput_ops_s = v.as_f64(key)?,
            "p50_ns" => b.p50_ns = v.as_u64(key)?,
            "p95_ns" => b.p95_ns = v.as_u64(key)?,
            "p99_ns" => b.p99_ns = v.as_u64(key)?,
            "wasted_work_ppm" => b.wasted_work_ppm = v.as_u64(key)?,
            other => return Err(format!("unknown bench field {other:?}")),
        }
    }
    if b.name.is_empty() {
        return Err("bench record without a name".into());
    }
    Ok(b)
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Regression comparator
// ---------------------------------------------------------------------

/// Compare a fresh report against a baseline. Returns one line per
/// violation (empty = gate passes).
///
/// Deterministic fields (`virtual_ns`, `wasted_work_ppm`) are gated at
/// `gate_pct` percent over baseline; a bench present in the baseline but
/// missing from the current run is always a violation. Wall time is gated
/// only when `gate_wall_pct` is given — baseline wall numbers come from
/// whatever machine produced the committed file, so a default wall gate
/// would institutionalize hardware flakiness.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    gate_pct: u64,
    gate_wall_pct: Option<u64>,
) -> Vec<String> {
    let mut violations = Vec::new();
    let over = |cur: u64, base: u64, pct: u64| -> bool {
        // cur > base * (100 + pct) / 100, in overflow-safe integer math.
        (cur as u128) * 100 > (base as u128) * (100 + pct) as u128
    };
    for base in &baseline.benches {
        let Some(cur) = current.find(&base.name) else {
            violations.push(format!("{}: present in baseline but not run", base.name));
            continue;
        };
        if base.virtual_ns > 0 && over(cur.virtual_ns, base.virtual_ns, gate_pct) {
            violations.push(format!(
                "{}: virtual_ns {} exceeds baseline {} by more than {gate_pct}%",
                base.name, cur.virtual_ns, base.virtual_ns
            ));
        }
        if base.wasted_work_ppm > 0 && over(cur.wasted_work_ppm, base.wasted_work_ppm, gate_pct) {
            violations.push(format!(
                "{}: wasted_work_ppm {} exceeds baseline {} by more than {gate_pct}%",
                base.name, cur.wasted_work_ppm, base.wasted_work_ppm
            ));
        }
        if let Some(wall_pct) = gate_wall_pct {
            if base.wall_ns > 0 && over(cur.wall_ns, base.wall_ns, wall_pct) {
                violations.push(format!(
                    "{}: wall_ns {} exceeds baseline {} by more than {wall_pct}%",
                    base.name, cur.wall_ns, base.wall_ns
                ));
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------

/// Everything one suite run produces.
pub struct SuiteOutcome {
    /// The measurements.
    pub report: BenchReport,
    /// Flat-profile artifact: the chaos cell's span self-time rollup
    /// (virtual, deterministic) followed by the GIOP cell's per-op kernel
    /// wall accounting (machine-dependent, clearly labelled).
    pub flat_profile: String,
}

/// Percentiles of the sink's `orb.invoke_ns` histogram.
fn invoke_percentiles(obs: &Obs) -> (u64, u64, u64) {
    match obs.metric("orb.invoke_ns") {
        Some(Metric::Histogram(h)) => (h.percentile(50), h.percentile(95), h.percentile(99)),
        _ => (0, 0, 0),
    }
}

/// Wasted work in parts per million: the time faults kept clients from
/// useful work, over total `manager.run` time. Three terms: finding out
/// (`ft.detect_ns`: each failed attempt, send to verdict), a checkpoint
/// that failed (`ft.checkpoint` spans tagged `ok=false` — in the chaos
/// cell the crash lands between a worker's reply and the fetch of its
/// state, so that fetch is the call that meets the dead host), and getting
/// back (`ft.recovery_ns`: verdict to the first reply from the restored
/// replica).
pub fn wasted_work_ppm(obs: &Obs) -> u64 {
    let sum_ns = |name: &str| match obs.metric(name) {
        Some(Metric::Histogram(h)) => h.sum,
        _ => 0,
    };
    let dur = |s: &SpanRecord| s.end_ns - s.start_ns;
    let failed = |s: &&SpanRecord| s.tags.iter().any(|(k, v)| k == "ok" && v == "false");
    let checkpoints = obs.spans_named("ft.checkpoint");
    let failed_checkpoint_ns: u64 = checkpoints.iter().filter(failed).map(dur).sum();
    let wasted_ns = sum_ns("ft.detect_ns") + failed_checkpoint_ns + sum_ns("ft.recovery_ns");
    let total_ns: u64 = obs.spans_named("manager.run").iter().map(dur).sum();
    if total_ns == 0 {
        return 0;
    }
    ((wasted_ns as u128 * 1_000_000) / total_ns as u128) as u64
}

/// Per-op wall-clock totals accumulated from kernel [`ProfileMark`]s.
/// Marks never nest, so one pending `Instant` suffices.
#[derive(Default)]
struct OpWall {
    pending: Option<(&'static str, Instant)>,
    totals: BTreeMap<&'static str, (u64, u128)>,
}

impl OpWall {
    fn on_mark(&mut self, mark: ProfileMark) {
        match mark {
            ProfileMark::OpBegin(op) => self.pending = Some((op, Instant::now())),
            ProfileMark::OpEnd(op) => {
                if let Some((begun, at)) = self.pending.take() {
                    if begun == op {
                        let e = self.totals.entry(op).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += at.elapsed().as_nanos();
                    }
                }
            }
        }
    }

    /// Render the wall table, widest total first.
    fn render(&self) -> String {
        let mut rows: Vec<(&str, u64, u128)> = self
            .totals
            .iter()
            .map(|(op, &(n, ns))| (*op, n, ns))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(b.0)));
        let mut out = String::new();
        out.push_str("# kernel op wall profile (machine-dependent; NOT part of the gate)\n");
        out.push_str(&format!("{:<20} {:>10} {:>16}\n", "op", "count", "wall_ns"));
        for (op, n, ns) in rows {
            out.push_str(&format!("{op:<20} {n:>10} {ns:>16}\n"));
        }
        out
    }
}

cdr::cdr_struct!(PerfPayload {
    best_value: f64,
    best_point: Vec<f64>,
    iterations: u64,
    evals: u64,
});

/// CDR encode microbench: wall-only (the codec never enters the sim).
fn cdr_encode_cell(args: &RunArgs) -> BenchRecord {
    let value = PerfPayload {
        best_value: 0.125,
        best_point: (0..256).map(|i| i as f64 * 0.5).collect(),
        iterations: 12_345,
        evals: 23_456,
    };
    let iters = args.scaled(20_000);
    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..iters {
        sink = sink.wrapping_add(cdr::to_bytes(std::hint::black_box(&value)).len());
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    BenchRecord {
        name: "cdr_encode_256d".into(),
        kind: "micro".into(),
        wall_ns,
        virtual_ns: 0,
        throughput_ops_s: ops_per_sec(iters, wall_ns),
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        wasted_work_ppm: 0,
    }
}

/// CDR decode microbench: wall-only.
fn cdr_decode_cell(args: &RunArgs) -> BenchRecord {
    let value = PerfPayload {
        best_value: 0.125,
        best_point: (0..256).map(|i| i as f64 * 0.5).collect(),
        iterations: 12_345,
        evals: 23_456,
    };
    let bytes = cdr::to_bytes(&value);
    let iters = args.scaled(20_000);
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        let v: PerfPayload =
            cdr::from_bytes(std::hint::black_box(&bytes)).expect("self-encoded payload decodes");
        sink = sink.wrapping_add(v.iterations);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    BenchRecord {
        name: "cdr_decode_256d".into(),
        kind: "micro".into(),
        wall_ns,
        virtual_ns: 0,
        throughput_ops_s: ops_per_sec(iters, wall_ns),
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        wasted_work_ppm: 0,
    }
}

/// GIOP round-trip cell: typed echo calls through the full ORB/GIOP/CDR
/// stack on a two-host sim, with the kernel profile hook measuring per-op
/// wall cost. Virtual fields come from the client ORB's `orb.invoke_ns`.
fn giop_roundtrip_cell(args: &RunArgs, seed: u64) -> (BenchRecord, String) {
    use orb::{reply, CallCtx, Exception, Orb, Poa, Servant, SystemException};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};

    struct Echo;
    impl Servant for Echo {
        fn dispatch(
            &mut self,
            _call: &mut CallCtx<'_>,
            _op: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, Exception> {
            let (v,): (Vec<f64>,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
            reply(&v)
        }
    }

    let rounds = args.scaled(2_000) as u32;
    let sink = Obs::new();
    let wall = Rc::new(RefCell::new(OpWall::default()));
    let mut sim = Kernel::with_seed(seed);
    {
        let wall = wall.clone();
        sim.set_profile_hook(move |mark| wall.borrow_mut().on_mark(mark));
    }
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let ior_cell: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let pub_ior = ior_cell.clone();
    sim.spawn(b, "server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).expect("server binds");
        let poa = Poa::new();
        let key = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
        *pub_ior.lock().expect("ior cell") = Some(orb.ior("IDL:Echo:1.0", key).stringify());
        let _ = orb.serve_forever(ctx, &poa);
    });
    let client_sink = sink.clone();
    let client = sim.spawn(a, "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1))
            .expect("client lives");
        let mut orb = Orb::init(ctx);
        orb.set_obs(ProcessObs::new(client_sink, ctx));
        let s = ior_cell.lock().expect("ior cell").clone().expect("ior set");
        let obj = orb::ObjectRef::new(orb::Ior::destringify(&s).expect("ior parses"));
        let payload: Vec<f64> = vec![1.5; 64];
        for _ in 0..rounds {
            let _r: Vec<f64> = obj
                .call(&mut orb, ctx, "echo", &(&payload,))
                .expect("client lives")
                .expect("echo succeeds");
        }
    });
    let start = Instant::now();
    let end = sim.run_until_exit(client);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (p50, p95, p99) = invoke_percentiles(&sink);
    let record = BenchRecord {
        name: "giop_roundtrip".into(),
        kind: "micro".into(),
        wall_ns,
        virtual_ns: end.as_nanos(),
        throughput_ops_s: ops_per_sec(rounds as u64, wall_ns),
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        wasted_work_ppm: 0,
    };
    let wall_table = wall.borrow().render();
    (record, wall_table)
}

/// Store quorum-write cell: a 3-replica checkpoint store (healthy — the
/// chaos variant lives in `store_chaos`) absorbing sequential
/// epoch-versioned writes through the naming group.
fn store_quorum_write_cell(args: &RunArgs, seed: u64) -> BenchRecord {
    use cosnaming::LbMode;
    use ftproxy::{Checkpoint, CheckpointClient, CHECKPOINT_SERVICE_NAME};
    use orb::Orb;
    use store::{spawn_replicated_store, StoreConfig};

    let writes = args.scaled(500);
    let sink = Obs::new();
    let mut sim = Kernel::with_seed(seed);
    let naming_host = sim.add_host(HostConfig::new("infra"));
    let replica_hosts: Vec<_> = (0..3)
        .map(|i| sim.add_host(HostConfig::new(format!("store{i}"))))
        .collect();
    let driver_host = sim.add_host(HostConfig::new("driver"));
    let naming_sink = sink.clone();
    sim.spawn(naming_host, "naming", move |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, Some(naming_sink));
    });
    spawn_replicated_store(
        &mut sim,
        &replica_hosts,
        naming_host,
        StoreConfig::default(),
        Some(sink.clone()),
    );
    let driver_sink = sink.clone();
    let driver = sim.spawn(driver_host, "driver", move |ctx| {
        ctx.sleep(SimDuration::from_millis(500))
            .expect("driver lives");
        let mut orb = Orb::init(ctx);
        orb.set_obs(ProcessObs::new(driver_sink, ctx));
        let ns = cosnaming::NamingClient::root(naming_host);
        // No faults in this cell, so the group must bind within the boot
        // window; the attempt cap keeps a broken boot loud, not hung.
        let mut attempts = 0u32;
        let client = loop {
            match ns
                .resolve(
                    &mut orb,
                    ctx,
                    &cosnaming::Name::simple(CHECKPOINT_SERVICE_NAME),
                )
                .expect("driver lives")
            {
                Ok(obj) => break CheckpointClient::new(obj),
                Err(_) => {
                    attempts += 1;
                    assert!(attempts < 100, "store group unresolvable in a healthy boot");
                    ctx.sleep(SimDuration::from_millis(50))
                        .expect("driver lives");
                }
            }
        };
        let mut epoch = cdr::Epoch::ZERO;
        for _ in 0..writes {
            epoch = epoch.next();
            let ckpt = Checkpoint {
                object_id: "perf-obj".into(),
                epoch,
                state: epoch.get().to_be_bytes().to_vec(),
                stamp_ns: ctx.now().as_nanos(),
            };
            client
                .store(&mut orb, ctx, &ckpt)
                .expect("driver lives")
                .expect("healthy store acks");
        }
    });
    let start = Instant::now();
    let end = sim.run_until_exit(driver);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (p50, p95, p99) = invoke_percentiles(&sink);
    BenchRecord {
        name: "store_quorum_write".into(),
        kind: "macro".into(),
        wall_ns,
        virtual_ns: end.as_nanos(),
        throughput_ops_s: ops_per_sec(writes, wall_ns),
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        wasted_work_ppm: 0,
    }
}

/// Figure 3 macro cell: the 30-dim scenario under Winner naming with two
/// loaded hosts — the paper's headline measurement at suite scale.
fn fig3_quick_cell(args: &RunArgs, seed: u64) -> BenchRecord {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner).loaded(2);
    spec.worker_iters = args.scaled(spec.worker_iters);
    let start = Instant::now();
    let outcome = run_experiment(&spec.seed(seed)).expect("fig3 cell runs");
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (p50, p95, p99) = invoke_percentiles(&outcome.obs);
    let calls = outcome.report.worker_calls.max(1);
    BenchRecord {
        name: "fig3_quick".into(),
        kind: "macro".into(),
        wall_ns,
        virtual_ns: outcome.report.elapsed.as_nanos(),
        throughput_ops_s: ops_per_sec(calls, wall_ns),
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        wasted_work_ppm: 0,
    }
}

/// Chaos cell: the instrumented reference scenario (FT proxies, mid-run
/// host crash + restart) reporting the wasted-work fraction. Returns the
/// record plus the cell's observability sink for the flat profile.
fn chaos_wasted_work_cell(args: &RunArgs, seed: u64) -> (BenchRecord, Obs) {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner);
    spec.worker_iters = args.scaled(spec.worker_iters);
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_millis(200),
        now_host_index: 0,
        restart_after: Some(SimDuration::from_secs(2)),
    });
    let start = Instant::now();
    let outcome = run_experiment(&spec.seed(seed)).expect("chaos cell runs");
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (p50, p95, p99) = invoke_percentiles(&outcome.obs);
    let calls = outcome.report.worker_calls.max(1);
    let record = BenchRecord {
        name: "chaos_wasted_work".into(),
        kind: "chaos".into(),
        wall_ns,
        virtual_ns: outcome.report.elapsed.as_nanos(),
        throughput_ops_s: ops_per_sec(calls, wall_ns),
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        wasted_work_ppm: wasted_work_ppm(&outcome.obs),
    };
    (record, outcome.obs)
}

/// A macro record carrying only deterministic virtual time — what sweep
/// bins (`fig3`, `table1`, `store_chaos`) emit through `--bench-out`,
/// where per-cell wall time isn't measured.
pub fn macro_record(name: impl Into<String>, kind: &str, virtual_ns: u64) -> BenchRecord {
    BenchRecord {
        name: name.into(),
        kind: kind.to_string(),
        wall_ns: 0,
        virtual_ns,
        throughput_ops_s: 0.0,
        p50_ns: 0,
        p95_ns: 0,
        p99_ns: 0,
        wasted_work_ppm: 0,
    }
}

fn ops_per_sec(ops: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    ops as f64 * 1e9 / wall_ns as f64
}

/// Run the whole standardized suite at the given args (first seed, shared
/// scale). Virtual fields of the result are byte-deterministic per seed.
pub fn run_suite(args: &RunArgs) -> SuiteOutcome {
    let seed = args.seeds.first().copied().unwrap_or(1);
    let mut benches = Vec::new();
    eprint!("perf: cdr ");
    benches.push(cdr_encode_cell(args));
    benches.push(cdr_decode_cell(args));
    eprint!("giop ");
    let (giop, kernel_wall) = giop_roundtrip_cell(args, seed);
    benches.push(giop);
    eprint!("store ");
    benches.push(store_quorum_write_cell(args, seed));
    eprint!("fig3 ");
    benches.push(fig3_quick_cell(args, seed));
    eprint!("chaos ");
    let (chaos, chaos_obs) = chaos_wasted_work_cell(args, seed);
    benches.push(chaos);
    eprintln!("done");
    let mut flat_profile = chaos_obs.flat_profile_text(20);
    flat_profile.push('\n');
    flat_profile.push_str(&kernel_wall);
    SuiteOutcome {
        report: BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "ldft-perf".into(),
            scale: args.scale,
            seed,
            benches,
        },
        flat_profile,
    }
}

// ---------------------------------------------------------------------
// Minimal JSON (the workspace is offline; serde is unavailable)
// ---------------------------------------------------------------------

mod json {
    //! A small recursive-descent JSON parser, just enough for the
    //! `BENCH_*.json` schema: objects, arrays, strings, numbers.

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (kept as f64; integral access checks the range).
        Num(f64),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&Vec<Value>, String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }

        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Ok(*n as u64)
                }
                other => Err(format!("{what}: expected unsigned integer, got {other:?}")),
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    /// On any syntax error, with a byte offset.
    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    let value = parse_value(b, pos)?;
                    fields.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .ok_or("truncated \\u escape")
                                .and_then(|h| {
                                    std::str::from_utf8(h).map_err(|_| "non-ascii \\u escape")
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            *pos += 4;
                            // Surrogates are not paired; the schema never
                            // emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we consumed.
                    let start = *pos - 1;
                    let s =
                        std::str::from_utf8(&b[start..]).map_err(|_| "invalid utf-8 in string")?;
                    let ch = s.chars().next().ok_or("empty char")?;
                    out.push(ch);
                    *pos = start + ch.len_utf8();
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number bytes")?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}
