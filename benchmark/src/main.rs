//! The benchmark's single command (`benchmark/run.sh` builds and runs it).
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--trace 0|1] [--workload W]
//! run.sh --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own so `peak_rss_mb` is per workload. The simulator runs exactly
//! one thread at a time and its thread-to-thread handoff is bimodal with
//! core placement, so the process first re-executes itself under
//! `taskset -c <one cpu>`; it refuses to measure unpinned.

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ldft_benchmark::compare;
use ldft_benchmark::harness::{run_workload, write_file, RunOpts};
use ldft_benchmark::json::Value;
use ldft_benchmark::results::{Measured, Results, WorkloadResult};
use ldft_benchmark::spec::{self, Clock};
use ldft_benchmark::workloads;

/// Set by the pinning re-exec to the CPU it chose.
const PINNED_ENV: &str = "LDFT_BENCHMARK_PINNED_CPU";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn usage() -> String {
    "usage: run.sh [--seed N] [--seconds S] [--trace 0|1] [--workload W] [--out DIR]\n       \
     run.sh --compare A.json B.json"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !spec::WORKLOADS.iter().any(|s| s.name == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = PathBuf::from(value(&mut it, flag)?),
            "--compare" => {
                let a = value(&mut it, flag)?;
                let b = value(&mut it, flag)?;
                args.compare = Some((a.into(), b.into()));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Result<Vec<u32>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let lo: u32 = lo.parse().map_err(|_| format!("bad cpu list {list:?}"))?;
        let hi: u32 = hi.parse().map_err(|_| format!("bad cpu list {list:?}"))?;
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() {
        return Err(format!("empty cpu list {list:?}"));
    }
    Ok(cpus)
}

/// Ticks each CPU has spent doing anything but idling, from `/proc/stat`
/// (steal included: a core the hypervisor gave away is as busy as one a
/// neighbouring process holds).
fn busy_ticks() -> Vec<(u32, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let cpu: u32 = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
            let ticks: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
            // user nice system idle iowait irq softirq steal …
            let idle = ticks.get(3)? + ticks.get(4)?;
            Some((cpu, ticks.iter().take(8).sum::<u64>() - idle))
        })
        .collect()
}

/// The CPU to pin to: of `allowed`, the one that was least busy over the
/// last 100 ms; on a tie the highest-numbered (CPU 0 serves most
/// interrupts). The time metrics are CPU time and do not depend on the
/// choice, but a run that shares its CPU takes twice as long.
fn idlest_cpu(allowed: &[u32]) -> u32 {
    let before = busy_ticks();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let after = busy_ticks();
    let busy = |cpu: u32| {
        let at = |s: &[(u32, u64)]| s.iter().find(|(c, _)| *c == cpu).map_or(0, |(_, t)| *t);
        at(&after).saturating_sub(at(&before))
    };
    *allowed
        .iter()
        .min_by_key(|&&cpu| (busy(cpu), std::cmp::Reverse(cpu)))
        .expect("non-empty")
}

/// glibc malloc settings the measured process runs under: one arena that
/// serves every size from the heap and never gives memory back.
///
/// By default glibc serves allocations of 128 KiB and more with a fresh
/// `mmap` and returns them with `munmap`. `rpc_bulk` allocates several
/// such buffers per round trip; in this VM every fresh mapping page-faults
/// through the hypervisor, which cost 0.3–0.7 s of a 1.1 s rep and varied
/// two-fold from run to run (median reps 1.37–1.77 s with the default
/// settings against 1.15–1.28 s with these, alternating runs). Only one
/// simulated process runs at a time, so a single arena is never contended.
const MALLOC_ENV: [(&str, &str); 4] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("MALLOC_TRIM_THRESHOLD_", "1073741824"),
    ("MALLOC_TOP_PAD_", "67108864"),
];

/// Make sure this process runs on exactly one CPU under [`MALLOC_ENV`];
/// returns the CPU. The first call re-executes the program under
/// `taskset` with that environment (and then never returns).
fn ensure_pinned(argv: &[String]) -> Result<u32, String> {
    let cpus = allowed_cpus()?;
    if std::env::var_os(PINNED_ENV).is_some() {
        return match cpus[..] {
            [only] => Ok(only),
            _ => Err(format!(
                "re-executed under taskset but still allowed on {cpus:?}"
            )),
        };
    }
    let cpu = idlest_cpu(&cpus);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let err = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(argv)
        .env(PINNED_ENV, cpu.to_string())
        .envs(MALLOC_ENV)
        .exec();
    Err(format!(
        "cannot pin to one CPU (taskset -c {cpu}: {err}); refusing to measure unpinned — \
         the simulator's thread handoff is 10x slower and bimodal across cores"
    ))
}

fn fmt_measured(m: &Measured) -> String {
    let mut s = format!("{} {}", m.value, m.unit);
    if let Some(r) = m.reps {
        s.push_str(&format!(
            "  (reps: min {}, q1 {}, median {}, q3 {}, n={})",
            r.min, r.q1, r.median, r.q3, m.n
        ));
    } else if m.n > 1 {
        s.push_str(&format!("  (n={})", m.n));
    }
    s
}

/// Print every metric of one workload by name, with its unit.
fn print_report(w: &WorkloadResult) {
    println!("== {} ==", w.name);
    println!(
        "  {} timed reps, {} operations per rep, {} failed",
        w.reps, w.attempted, w.failed
    );
    println!("  end-to-end (untraced reps):");
    for (name, m) in &w.end_to_end {
        let clock = spec::find(name).map_or("", |s| match s.clock {
            Clock::Virtual => "virtual",
            Clock::Cpu => "cpu",
            Clock::Wall => "wall",
            Clock::Count => "count",
        });
        let note = match name.as_str() {
            "ft_overhead_ratio" => "   [paper: >3x; committed results_table1.txt: 3.95x]",
            "winner_gain_pct" => "   [paper: ~40 % best case, ~15 % average]",
            _ => "",
        };
        println!("    {name:<20} {:<9} {}{note}", clock, fmt_measured(m));
    }
    for m in &spec::HEADLINE {
        if !spec::applies(m, &w.name) {
            println!("    {:<20} absent (not defined on this workload)", m.name);
        }
    }
    if !w.per_layer.is_empty() {
        println!("  per-layer (traced rep and probes):");
        for (name, m) in &w.per_layer {
            println!("    {name:<36} {}", fmt_measured(m));
        }
    }
    for f in &w.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!(
        "  note: the model is shape-validated against the paper only; no error figure is given"
    );
}

/// The driver's result line for one workload.
fn result_line(w: &WorkloadResult, trace: bool) -> String {
    let entry = |name: &str, unit: &str| {
        let m = w.metric(name);
        (
            name.to_string(),
            Value::obj([
                // A metric not defined on this workload reads 0 here (the
                // contract wants every listed metric on every workload);
                // results.json and the report leave it out instead.
                ("value", Value::Num(m.map_or(0.0, |m| m.value))),
                ("unit", Value::str(unit)),
            ]),
        )
    };
    let metrics: Vec<(String, Value)> = if trace {
        spec::HEADLINE
            .iter()
            .chain(&spec::PER_LAYER)
            .map(|m| entry(m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| entry(m.name, m.unit))
            .collect()
    };
    Value::obj([
        ("correct", Value::Bool(w.correct())),
        ("attempted", Value::Num(w.attempted.max(1) as f64)),
        ("failed", Value::Num(w.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .compact()
}

fn results_of(args: &Args, pinned_cpu: u32, workloads: Vec<WorkloadResult>) -> Results {
    Results {
        seed: args.seed,
        pinned_cpu: u64::from(pinned_cpu),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        seconds: args.seconds as u64,
        workloads,
    }
}

fn per_workload_file(out: &Path, workload: &str) -> PathBuf {
    out.join(format!("results_{workload}.json"))
}

/// Run one workload in this process.
fn run_one(args: &Args, name: &str, pinned_cpu: u32) -> ExitCode {
    let w = workloads::all()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("name was validated");
    let result = run_workload(
        w.as_ref(),
        &RunOpts {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            min_reps: spec::MIN_REPS,
            out_dir: Some(args.out.clone()),
        },
    );
    print_report(&result);
    let correct = result.correct();
    let line = result_line(&result, args.trace);
    let results = results_of(args, pinned_cpu, vec![result]);
    write_file(&per_workload_file(&args.out, name), &results.to_json());
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own child process, and merge their
/// results into `results.json`.
fn run_all(args: &Args, argv: &[String], pinned_cpu: u32) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "ldft-benchmark: seed {} (claims must also hold on held-out seed {}), pinned to cpu \
         {pinned_cpu}, {} s of measured time per workload{}",
        args.seed,
        spec::HELD_OUT_SEED,
        args.seconds,
        if args.trace { ", traced pass on" } else { "" }
    );
    let mut merged = Vec::new();
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {} failed ({s})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot run workload {}: {e}", w.name);
                ok = false;
                continue;
            }
        }
        let path = per_workload_file(&args.out, w.name);
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|s| Results::from_json(&s))
        {
            Ok(r) => merged.extend(r.workloads),
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                ok = false;
            }
        }
    }
    let results = results_of(args, pinned_cpu, merged);
    let path = args.out.join("results.json");
    write_file(&path, &results.to_json());
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|s| Results::from_json(&s))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = match load(a).and_then(|ra| Ok((ra, load(b)?))) {
        Ok((ra, rb)) => compare::compare(&ra, &rb),
        Err(e) => Err(e),
    };
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(compare::Row::fails) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    let pinned_cpu = match ensure_pinned(&argv) {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name, pinned_cpu),
        None => run_all(&args, &argv, pinned_cpu),
    }
}
