//! Tiny-size smoke of every workload: outputs check out, the virtual
//! section is byte-identical across two same-seed runs and differs under
//! another seed; and the harness, results file and comparator agree with
//! each other end to end.

use ldft_benchmark::compare::{compare, judge, Verdict};
use ldft_benchmark::harness::{run_workload, RunOpts};
use ldft_benchmark::results::{Measured, RepSummary, Results};
use ldft_benchmark::spec;
use ldft_benchmark::trace::Tracer;
use ldft_benchmark::workloads::{self, Rep, RepCx, Workload};

fn one_rep(w: &dyn Workload, seed: u64) -> Rep {
    let mut tracer = Tracer::new(false);
    w.rep(
        seed,
        &mut RepCx {
            tracer: &mut tracer,
            op_wall: None,
        },
    )
}

#[test]
fn tiny_workloads_are_correct_and_deterministic() {
    let tiny = workloads::all_tiny();
    let names: Vec<&str> = tiny.iter().map(|w| w.name()).collect();
    let expected: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, expected);
    for w in &tiny {
        let a = one_rep(w.as_ref(), 1);
        let b = one_rep(w.as_ref(), 1);
        let other = one_rep(w.as_ref(), 2);
        for rep in [&a, &b, &other] {
            assert_eq!(
                rep.virt.check_failures,
                Vec::<String>::new(),
                "{} failed its output checks",
                w.name()
            );
            assert_eq!(rep.virt.failed, 0, "{}", w.name());
            assert!(rep.virt.attempted >= 1 && !rep.virt.op_ns.is_empty());
            assert!(rep.virt.runtime_ns > 0 && rep.time.measure_cpu_ns > 0);
        }
        assert!(
            a.virt == b.virt,
            "{}: same seed, different virtual section",
            w.name()
        );
        assert!(
            a.virt != other.virt,
            "{}: the seed does not reach the inputs",
            w.name()
        );
        assert_eq!(w.cross_check(1, &a), Vec::<String>::new(), "{}", w.name());
        // The workload-specific end-to-end numbers exist exactly where
        // they are defined.
        for m in &spec::HEADLINE {
            if !m.on.is_empty() {
                assert_eq!(
                    a.virt.headline.contains_key(m.name),
                    m.on.contains(&w.name()),
                    "{} on {}",
                    m.name,
                    w.name()
                );
            }
        }
    }
}

/// `fig3_load` replaces the seeds on which Plain's placement misses every
/// loaded host (about one in fifteen), and only those.
#[test]
fn fig3_load_screens_out_uncontended_seeds() {
    let w = workloads::fig3::Fig3Load::tiny();
    let replaced: Vec<(u64, u64)> = (0..60)
        .map(|seed| (seed, w.contended_seed(seed)))
        .filter(|(seed, used)| seed != used)
        .collect();
    assert!((1..=12).contains(&replaced.len()), "replaced {replaced:?}");
    for (seed, used) in replaced {
        assert_eq!(w.contended_seed(used), used, "seed {seed}");
        // On the seed as given nothing contends, so Winner gains nothing;
        // on the one used instead it does.
        let gain = one_rep(&w, seed).virt.headline["winner_gain_pct"];
        assert!(gain > 10.0, "seed {seed} -> {used}: gain {gain} %");
    }
}

#[test]
fn harness_results_and_compare_agree() {
    let dir = std::env::temp_dir().join(format!("ldft-benchmark-smoke-{}", std::process::id()));
    let opts = RunOpts {
        seed: 3,
        seconds: 0.01,
        trace: true,
        min_reps: 3,
        out_dir: Some(dir.clone()),
    };
    let tiny = workloads::all_tiny();
    let run = |opts: &RunOpts| Results {
        seed: opts.seed,
        pinned_cpu: 0,
        nproc: 1,
        seconds: 1,
        workloads: tiny
            .iter()
            .filter(|w| ["rpc_small", "crash_recovery"].contains(&w.name()))
            .map(|w| run_workload(w.as_ref(), opts))
            .collect(),
    };
    let a = run(&opts);
    for w in &a.workloads {
        assert!(w.correct(), "{}: {:?}", w.name, w.check_failures);
        assert_eq!(w.reps, 3);
        // Every universal end-to-end metric is reported and none is 0.
        for m in &spec::END_TO_END {
            let v = w
                .metric(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(v.value > 0.0, "{} = {} on {}", m.name, v.value, w.name);
        }
        // The traced pass reports every per-layer metric by name.
        let reported: Vec<&str> = w.per_layer.iter().map(|(n, _)| n.as_str()).collect();
        let listed: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(reported, listed);
        assert!(w.metric("simnet.handoffs").unwrap().value > 0.0);
        let trace = dir.join(format!("trace_{}.json", w.name));
        let doc = ldft_benchmark::json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let fields = doc.as_object("trace").unwrap();
        assert!(fields.iter().any(|(k, _)| k == "wall_self_ns"));
        assert!(fields.iter().any(|(k, _)| k == "virtual_self_ns_by_layer"));
    }
    let crash = a.workload("crash_recovery").unwrap();
    assert!(crash.metric("ft.recoveries").unwrap().value >= 2.0);
    assert!(crash.metric("store.retrieve_serves").unwrap().value > 0.0);
    assert!(crash.metric("recovery_ms_p50").unwrap().value > 0.0);
    assert!(a
        .workload("rpc_small")
        .unwrap()
        .metric("recovery_ms_p50")
        .is_none());

    // Through the file format and back, then against a second run of the
    // same seed: every exact metric must come out `same`.
    let a = Results::from_json(&a.to_json()).unwrap();
    let b = run(&opts);
    for row in compare(&a, &b).unwrap() {
        for (name, verdict, x, y) in row.end_to_end.iter().chain(&row.per_layer) {
            if spec::find(name).unwrap().exact {
                assert_eq!(
                    *verdict,
                    Verdict::Same,
                    "{} {name}: {x} vs {y}",
                    row.workload
                );
            }
        }
        assert!(!row.per_layer.is_empty());
    }
    let other_seed = run(&RunOpts { seed: 4, ..opts });
    assert!(compare(&a, &other_seed).is_err(), "seeds must match");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn compare_applies_the_bounds() {
    let cpu = spec::find("cpu_s").unwrap();
    let bound = cpu.bound.unwrap();
    // A time value whose reps spread by `iqr` (as a share of the median).
    let m = |median: f64, iqr: f64| Measured {
        value: median,
        unit: "s".into(),
        reps: Some(RepSummary {
            min: median * (1.0 - iqr),
            q1: median * (1.0 - iqr / 2.0),
            median,
            q3: median * (1.0 + iqr / 2.0),
        }),
        n: 6,
    };
    let base = m(1.0, 0.02);
    assert_eq!(
        judge(cpu, &base, &m(1.0 + 0.9 * bound, 0.02)),
        Verdict::Same
    );
    assert_eq!(
        judge(cpu, &base, &m(1.0 + 1.2 * bound, 0.02)),
        Verdict::Worse
    );
    assert_eq!(
        judge(cpu, &base, &m(1.0 - 1.2 * bound, 0.02)),
        Verdict::Better
    );
    // Reps that spread wider than the bound cannot resolve the question.
    assert_eq!(judge(cpu, &base, &m(1.0, 1.2 * bound)), Verdict::Unresolved);

    let virt = spec::find("virt_runtime_s").unwrap();
    let v = |x: f64| Measured::exact(x, "s", 1);
    assert_eq!(judge(virt, &v(28.1939), &v(28.1939)), Verdict::Same);
    assert_eq!(judge(virt, &v(28.1939), &v(28.194)), Verdict::Worse);
    assert_eq!(judge(virt, &v(28.1939), &v(28.0)), Verdict::Better);
    let gain = spec::find("winner_gain_pct").unwrap(); // higher is better
    assert_eq!(judge(gain, &v(26.5), &v(26.4)), Verdict::Worse);
}
