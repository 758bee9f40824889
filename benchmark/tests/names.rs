//! The vocabulary obeys the benchmark contract's limits, and
//! `BENCHMARK.json` at the repo root is exactly what `spec` generates.

use std::collections::BTreeSet;

use ldft_benchmark::json;
use ldft_benchmark::spec::{self, Better};

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `[A-Za-z0-9_/%.-]{1,16}`
fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    let listed_per_layer = spec::HEADLINE.len() + spec::PER_LAYER.len();
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&listed_per_layer));

    let mut seen = BTreeSet::new();
    for w in &spec::WORKLOADS {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n') && !w.why.is_empty(),
            "why of {}: {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in spec::END_TO_END
        .iter()
        .chain(&spec::HEADLINE)
        .chain(&spec::PER_LAYER)
    {
        assert!(is_name(m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "{} used twice", m.name);
        assert!(!m.what.is_empty(), "{} has no definition", m.name);
        for w in m.on {
            assert!(
                spec::WORKLOADS.iter().any(|s| s.name == *w),
                "{} is defined on unknown workload {w}",
                m.name
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_bounded_and_universal() {
    for m in &spec::END_TO_END {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        assert!(m.on.is_empty(), "{} must be reported everywhere", m.name);
    }
    let setup = spec::find("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = spec::END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
    for m in spec::HEADLINE.iter().chain(&spec::PER_LAYER) {
        assert!(
            m.bound.is_none(),
            "{}: only end-to-end metrics are bounded",
            m.name
        );
    }
}

#[test]
fn benchmark_json_is_generated_from_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);
    let doc = json::parse(&committed).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object("BENCHMARK.json")
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!((1..=60).contains(&spec::RUN_SECONDS));
}

#[test]
fn readme_defines_every_name() {
    let readme = include_str!("../README.md");
    for w in &spec::WORKLOADS {
        assert!(readme.contains(&format!("`{}`", w.name)), "{}", w.name);
    }
    for m in spec::END_TO_END
        .iter()
        .chain(&spec::HEADLINE)
        .chain(&spec::PER_LAYER)
    {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README.md does not mention {}",
            m.name
        );
    }
}
