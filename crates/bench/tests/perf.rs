//! Contract tests for the standardized perf suite
//! (`results/BENCH_baseline.json`): schema stability, and the byte
//! determinism that lets CI gate it by regenerating the file.

use ldft_bench::perf::{run_suite, BenchRecord, BenchReport, SCHEMA_VERSION};
use ldft_bench::RunArgs;

/// The golden schema: the exact rendered field set is pinned, so any
/// change to the wire format is a deliberate, reviewed diff here.
#[test]
fn golden_schema_is_pinned() {
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: "golden".to_string(),
        scale: 1.0,
        seed: 7,
        benches: vec![BenchRecord {
            name: "one".to_string(),
            kind: "micro".to_string(),
            virtual_ns: 20,
            p50_ns: 1,
            p95_ns: 2,
            p99_ns: 3,
            wasted_work_ppm: 4,
        }],
    };
    let golden = "{\n  \"schema_version\": 2,\n  \"suite\": \"golden\",\n  \"scale\": 1,\n  \"seed\": 7,\n  \"benches\": [\n    {\n      \"name\": \"one\",\n      \"kind\": \"micro\",\n      \"virtual_ns\": 20,\n      \"p50_ns\": 1,\n      \"p95_ns\": 2,\n      \"p99_ns\": 3,\n      \"wasted_work_ppm\": 4\n    }\n  ]\n}\n";
    assert_eq!(report.to_json(), golden, "BENCH schema drifted");
}

/// Two same-seed runs of the whole suite must render byte-identical
/// reports — the property the CI gate (regenerate the committed file,
/// `git diff --exit-code`) relies on.
#[test]
fn same_seed_suite_runs_render_identical_json() {
    let args = RunArgs {
        seeds: vec![1],
        scale: 0.01, // floor-clamped iteration counts: smallest real run
        csv: false,
        ..RunArgs::default()
    };
    let first = run_suite(&args);
    let second = run_suite(&args);
    assert_eq!(
        first.report.to_json(),
        second.report.to_json(),
        "the report must be byte-identical for the same seed"
    );
    // And the flat profile too: the chaos cell's span rollup is
    // virtual-time only.
    assert_eq!(first.flat_profile, second.flat_profile);
}
