//! The standardized performance suite behind the `perf` binary: the schema
//! types for `results/BENCH_baseline.json`, their one renderer, and the
//! suite cells themselves.
//!
//! # One clock
//!
//! Every field of a record (`virtual_ns`, `p50/p95/p99_ns`,
//! `wasted_work_ppm`) is *virtual* time — a pure function of the seed, so
//! two same-seed runs render byte-identical reports. They answer "did the
//! *simulated system* get slower?". The regression gate is therefore not a
//! comparator but the rule the repo's other generated artifacts follow: CI
//! regenerates the committed file and fails on any diff, improvement or
//! regression alike. How fast the *simulator* runs on a given machine is
//! `benchmark/run.sh`'s question (CPU-clock metrics with bounds, timed
//! probes); nothing here reads a wall clock.
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

use corba_runtime::{run_experiment, ExperimentSpec, NamingMode};
use obs::{Metric, Obs, ProcessObs, SpanRecord};
use simnet::{HostConfig, Kernel, SimDuration};

use crate::sweeps::reference_spec;
use crate::RunArgs;

/// Schema version stamped into every report; bump on any field change and
/// regenerate `BENCH_baseline.json` in the same commit.
pub const SCHEMA_VERSION: u64 = 2;

/// One benchmark's measurements, all in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Stable bench name.
    pub name: String,
    /// `micro` (one ORB round-trip loop), `macro` (scenario runs), or
    /// `chaos` (fault-injected runs reporting wasted work).
    pub kind: String,
    /// Virtual time the simulated system took.
    pub virtual_ns: u64,
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

impl BenchRecord {
    /// A record whose percentiles are the sink's `orb.invoke_ns` histogram.
    fn new(name: &str, kind: &str, virtual_ns: u64, obs: &Obs, wasted_work_ppm: u64) -> Self {
        let (p50_ns, p95_ns, p99_ns) = match obs.metric("orb.invoke_ns") {
            Some(Metric::Histogram(h)) => (h.percentile(50), h.percentile(95), h.percentile(99)),
            _ => (0, 0, 0),
        };
        BenchRecord {
            name: name.into(),
            kind: kind.into(),
            virtual_ns,
            p50_ns,
            p95_ns,
            p99_ns,
            wasted_work_ppm,
        }
    }
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
    /// Seed every cell used.
    pub seed: u64,
    /// The measurements, in suite order.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// Render the committed JSON form: pretty-printed, fields in fixed
    /// order, floats in `{}` display form. Suite and bench names are
    /// identifiers the suite itself picks, so Rust's `{:?}` quoting is
    /// JSON quoting.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!("  \"suite\": {:?},\n", self.suite));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {:?},\n", b.name));
            out.push_str(&format!("      \"kind\": {:?},\n", b.kind));
            out.push_str(&format!("      \"virtual_ns\": {},\n", b.virtual_ns));
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
}

/// Everything one suite run produces.
pub struct SuiteOutcome {
    /// The measurements.
    pub report: BenchReport,
    /// Flat-profile artifact: the chaos cell's span self-time rollup
    /// (virtual, deterministic).
    pub flat_profile: String,
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

/// GIOP round-trip cell: typed echo calls through the full ORB/GIOP/CDR
/// stack on a two-host sim. The fields come from the client ORB's
/// `orb.invoke_ns`.
fn giop_roundtrip_cell(args: &RunArgs, seed: u64) -> BenchRecord {
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
    let mut sim = Kernel::with_seed(seed);
    let a = sim.add_host(HostConfig::new("a"));
    let b = sim.add_host(HostConfig::new("b"));
    let ior_cell: Arc<Mutex<Option<orb::Ior>>> = Arc::new(Mutex::new(None));
    let pub_ior = ior_cell.clone();
    sim.spawn(b, "server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).expect("server binds");
        let poa = Poa::new();
        let key = poa.activate("IDL:Echo:1.0", Rc::new(RefCell::new(Echo)));
        *pub_ior.lock().expect("ior cell") = Some(orb.ior("IDL:Echo:1.0", key));
        let _ = orb.serve_forever(ctx, &poa);
    });
    let client_sink = sink.clone();
    let client = sim.spawn(a, "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(1))
            .expect("client lives");
        let mut orb = Orb::init(ctx);
        orb.set_obs(ProcessObs::new(client_sink, ctx));
        let ior = ior_cell.lock().expect("ior cell").clone().expect("ior set");
        let obj = orb::ObjectRef::new(ior);
        let payload: Vec<f64> = vec![1.5; 64];
        for _ in 0..rounds {
            let _r: Vec<f64> = obj
                .call(&mut orb, ctx, "echo", &(&payload,))
                .expect("client lives")
                .expect("echo succeeds");
        }
    });
    let end = sim.run_until_exit(client);
    BenchRecord::new("giop_roundtrip", "micro", end.as_nanos(), &sink, 0)
}

/// Store quorum-write cell: a healthy 3-replica checkpoint store (the
/// faulted variants are `chaos_matrix`'s cells) absorbing sequential
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
    let end = sim.run_until_exit(driver);
    BenchRecord::new("store_quorum_write", "macro", end.as_nanos(), &sink, 0)
}

/// Figure 3 macro cell: the 30-dim scenario under Winner naming with two
/// loaded hosts — the paper's headline measurement at suite scale.
fn fig3_quick_cell(args: &RunArgs, seed: u64) -> BenchRecord {
    let mut spec = ExperimentSpec::dim30(NamingMode::Winner).loaded(2);
    spec.worker_iters = args.scaled(spec.worker_iters);
    let outcome = run_experiment(&spec.seed(seed)).expect("fig3 cell runs");
    let virtual_ns = outcome.report.elapsed.as_nanos();
    BenchRecord::new("fig3_quick", "macro", virtual_ns, &outcome.obs, 0)
}

/// Chaos cell: the instrumented reference scenario (FT proxies, mid-run
/// host crash + restart) reporting the wasted-work fraction. Returns the
/// record plus the cell's observability sink for the flat profile.
fn chaos_wasted_work_cell(args: &RunArgs) -> (BenchRecord, Obs) {
    let outcome = run_experiment(&reference_spec(args, true)).expect("chaos cell runs");
    let record = BenchRecord::new(
        "chaos_wasted_work",
        "chaos",
        outcome.report.elapsed.as_nanos(),
        &outcome.obs,
        wasted_work_ppm(&outcome.obs),
    );
    (record, outcome.obs)
}

/// Run the whole standardized suite at the given args (first seed, shared
/// scale). The result is byte-deterministic per seed.
pub fn run_suite(args: &RunArgs) -> SuiteOutcome {
    let seed = args.first_seed();
    let mut benches = Vec::new();
    eprint!("perf: giop ");
    benches.push(giop_roundtrip_cell(args, seed));
    eprint!("store ");
    benches.push(store_quorum_write_cell(args, seed));
    eprint!("fig3 ");
    benches.push(fig3_quick_cell(args, seed));
    eprint!("chaos ");
    let (chaos, chaos_obs) = chaos_wasted_work_cell(args);
    benches.push(chaos);
    eprintln!("done");
    SuiteOutcome {
        report: BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "ldft-perf".into(),
            scale: args.scale,
            seed,
            benches,
        },
        flat_profile: chaos_obs.flat_profile_text(20),
    }
}
