//! `results.json`: writer and reader round-trip, and the reader is strict.

use ldft_benchmark::results::{Measured, RepSummary, Results, WorkloadResult};

fn sample() -> Results {
    Results {
        seed: 7,
        pinned_cpu: 1,
        nproc: 2,
        seconds: 12,
        workloads: vec![WorkloadResult {
            name: "rpc_small".into(),
            reps: 6,
            attempted: 50_000,
            failed: 0,
            check_failures: vec!["a \"quoted\" line\nwith a break".into()],
            end_to_end: vec![
                (
                    "cpu_s".into(),
                    Measured {
                        value: 1.3053713301,
                        unit: "s".into(),
                        reps: Some(RepSummary {
                            min: 1.31,
                            q1: 1.45214226125,
                            median: 1.528511451,
                            q3: 1.53093318175,
                        }),
                        n: 6,
                    },
                ),
                (
                    "virt_op_p50_us".into(),
                    Measured::exact(563.878, "us", 50_000),
                ),
            ],
            per_layer: vec![(
                "simnet.events".into(),
                Measured::exact(400_123.0, "count", 1),
            )],
        }],
    }
}

#[test]
fn round_trips_exactly() {
    let r = sample();
    let text = r.to_json();
    assert_eq!(Results::from_json(&text).expect("own output parses"), r);
    // Rendering is stable: a second trip produces the same bytes.
    assert_eq!(Results::from_json(&text).unwrap().to_json(), text);
}

#[test]
fn keeps_all_digits() {
    let text = sample().to_json();
    assert!(text.contains("1.3053713301"), "{text}");
    assert!(text.contains("400123"), "integral values print as integers");
}

#[test]
fn rejects_unknown_fields_at_every_level() {
    let good = sample().to_json();
    for (needle, injected) in [
        ("\"seed\": 7", "\"seed\": 7,\n  \"extra\": 1"),
        ("\"reps\": 6", "\"reps\": 6,\n      \"extra\": 1"),
        (
            "\"unit\": \"us\"",
            "\"unit\": \"us\",\n          \"extra\": 1",
        ),
    ] {
        assert!(good.contains(needle), "fixture lost {needle}");
        let bad = good.replacen(needle, injected, 1);
        let err = Results::from_json(&bad).expect_err("unknown field must be rejected");
        assert!(err.contains("unknown field"), "{err}");
    }
}

#[test]
fn rejects_wrong_schema_and_broken_documents() {
    let good = sample().to_json();
    let other = good.replace("ldft-benchmark/v1", "ldft-benchmark/v0");
    assert!(Results::from_json(&other).unwrap_err().contains("schema"));
    assert!(Results::from_json(&good[..good.len() / 2]).is_err());
    assert!(Results::from_json("[]").is_err());
    // A rep summary is all four numbers or none.
    let partial = good.replacen("\"q1\": 1.45214226125,", "", 1);
    assert!(Results::from_json(&partial)
        .unwrap_err()
        .contains("incomplete rep summary"));
}
