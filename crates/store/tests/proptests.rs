//! Property tests for the chaos adversary: for arbitrary configurations
//! of every fault family, generated schedules are deterministic in the
//! seed, honor the disruption ledger, and never orphan a cut — each one
//! heals strictly before the horizon. Then the write path: a fanned-out
//! request re-encodes to its bytes, and a replica alone replaces values by
//! key.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ldft_store::{ChaosConfig, ChaosPlan, FaultFamily};
use proptest::prelude::*;
use simnet::{Fault, HostConfig, HostId, Kernel, SimDuration, SimTime};

/// Arbitrary-but-sane chaos configs over any one fault family.
fn cfg_strategy() -> impl Strategy<Value = ChaosConfig> {
    (
        any::<u64>(),
        (1u64..40).prop_map(SimDuration::from_secs), // window length
        (100u64..2_000).prop_map(SimDuration::from_millis), // mean interval
        prop_oneof![
            Just(None),
            (200u64..3_000).prop_map(|ms| Some(SimDuration::from_millis(ms))),
        ],
        1usize..4,
        (0..FaultFamily::ALL.len()).prop_map(|i| FaultFamily::ALL[i]),
    )
        .prop_map(
            |(seed, len, mean_interval, restart_after, down, family)| ChaosConfig {
                seed,
                start: SimTime::from_nanos(1_000_000),
                end: SimTime::from_nanos(1_000_000 + len.as_nanos()),
                mean_interval,
                restart_after,
                max_concurrent_down: down,
                family,
            },
        )
}

fn targets_strategy() -> impl Strategy<Value = Vec<HostId>> {
    (2u32..8).prop_map(|n| (1..=n).map(HostId).collect())
}

/// The hosts one episode charges against the concurrency ledger, and
/// when the charge expires — reconstructed from the episode's events,
/// mirroring what `ChaosPlan::generate` promises.
fn episode_charge(ep: &[ldft_store::chaos::ChaosEvent]) -> (Vec<HostId>, SimTime) {
    let first = ep.first().expect("episodes are never empty");
    let until = ep.last().unwrap().at;
    let hosts = match &first.fault {
        Fault::CrashHost(h) | Fault::RestartHost(h) => vec![*h],
        Fault::Partition(a, _, _) => vec![*a],
        Fault::DropOneWay { from, .. } => vec![*from],
        Fault::DegradeLink { a, .. } => vec![*a],
        Fault::PartitionGroup { side, .. } => side.clone(),
        Fault::SetClockSkew(h, _) => vec![*h],
        other => panic!("generator never emits {other:?}"),
    };
    (hosts, until)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plans_are_pure_functions_of_their_inputs(
        cfg in cfg_strategy(),
        targets in targets_strategy(),
    ) {
        let a = ChaosPlan::generate(&cfg, &targets);
        let b = ChaosPlan::generate(&cfg, &targets);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(&a.episodes, &b.episodes);
        // Byte-identical, not just structurally equal.
        prop_assert_eq!(format!("{:?}", a.events), format!("{:?}", b.events));
    }

    /// At most `max_concurrent_down` hosts are under a disruption at any
    /// instant, whatever the family — partitions, drops, degradations,
    /// flap trains, and skews included, not just crashes.
    #[test]
    fn concurrency_ledger_spans_all_families(
        cfg in cfg_strategy(),
        targets in targets_strategy(),
    ) {
        let plan = ChaosPlan::generate(&cfg, &targets);
        // (until, charged hosts) for episodes still disrupting.
        let mut active: Vec<(SimTime, Vec<HostId>)> = Vec::new();
        for ep in &plan.episodes {
            let start = ep.first().unwrap().at;
            let (hosts, until) = episode_charge(ep);
            // A host recovering exactly at `start` is free again.
            active.retain(|(u, _)| *u > start);
            for (_, held) in &active {
                for h in &hosts {
                    prop_assert!(
                        !held.contains(h),
                        "host {h:?} disrupted twice at {start:?}"
                    );
                }
            }
            active.push((until, hosts));
            let load: usize = active.iter().map(|(_, hs)| hs.len()).sum();
            prop_assert!(
                load <= cfg.max_concurrent_down,
                "{load} hosts disrupted at {start:?}, cap {}",
                cfg.max_concurrent_down
            );
        }
    }

    /// Every cut heals, every crash restarts (when restarts are enabled),
    /// every degradation is restored and every skew reset — strictly
    /// before `end`.
    #[test]
    fn every_disruption_has_a_matching_heal(
        cfg in cfg_strategy(),
        targets in targets_strategy(),
    ) {
        let plan = ChaosPlan::generate(&cfg, &targets);
        for e in &plan.events {
            prop_assert!(e.at < cfg.end, "event at/after the horizon: {e:?}");
        }
        for ep in &plan.episodes {
            // Pair each "breaking" event with a later "mending" twin.
            let breaking = |f: &Fault| match f {
                Fault::CrashHost(_) => cfg.restart_after.is_some(),
                Fault::Partition(_, _, blocked)
                | Fault::PartitionGroup { blocked, .. }
                | Fault::DropOneWay { blocked, .. } => *blocked,
                Fault::DegradeLink { drop_milli, extra_latency, .. } => {
                    *drop_milli > 0 || extra_latency.as_nanos() > 0
                }
                Fault::SetClockSkew(_, s) => *s != 0,
                _ => false,
            };
            let mends = |b: &Fault, m: &Fault| match (b, m) {
                (Fault::CrashHost(h), Fault::RestartHost(r)) => h == r,
                (Fault::Partition(a, b1, true), Fault::Partition(c, d, false)) => {
                    a == c && b1 == d
                }
                (
                    Fault::PartitionGroup { side: s1, blocked: true },
                    Fault::PartitionGroup { side: s2, blocked: false },
                ) => s1 == s2,
                (
                    Fault::DropOneWay { from: f1, to: t1, blocked: true },
                    Fault::DropOneWay { from: f2, to: t2, blocked: false },
                ) => f1 == f2 && t1 == t2,
                (
                    Fault::DegradeLink { a: a1, b: b1, .. },
                    Fault::DegradeLink { a: a2, b: b2, drop_milli: 0, extra_latency },
                ) => a1 == a2 && b1 == b2 && extra_latency.as_nanos() == 0,
                (Fault::SetClockSkew(h, _), Fault::SetClockSkew(r, 0)) => h == r,
                _ => false,
            };
            for (i, ev) in ep.iter().enumerate() {
                if breaking(&ev.fault) {
                    prop_assert!(
                        ep[i + 1..].iter().any(|later| {
                            later.at >= ev.at && mends(&ev.fault, &later.fault)
                        }),
                        "unhealed disruption {:?} in episode {ep:?}",
                        ev.fault
                    );
                }
            }
        }
    }
}

/// A value for `store_value`: the chunk shape the FT proxy writes, or a
/// plain double / string, so alignment after odd-length strings varies.
fn any_strategy() -> impl Strategy<Value = cdr::Any> {
    use cdr::{Any, TypeCode, Value};
    prop_oneof![
        any::<f64>().prop_map(|v| Any {
            tc: TypeCode::Double,
            value: Value::Double(v),
        }),
        ".{0,9}".prop_map(|v| Any {
            tc: TypeCode::String,
            value: Value::String(v),
        }),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(epoch, data)| ftproxy::per_value::chunk(cdr::Epoch(epoch), &data)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A coordinator fans a write out as the request body it received, and
    /// each peer applies what that body decodes to. A replica that
    /// re-encoded the decoded in-parameters instead would send the same
    /// bytes only because decode-then-encode is the identity on every
    /// request a stub can produce — whatever the string lengths do to
    /// alignment.
    #[test]
    fn a_decoded_write_request_reencodes_to_the_bytes_it_came_in_as(
        id in ".{0,12}",
        key in ".{0,7}",
        epoch in any::<u64>(),
        state in proptest::collection::vec(any::<u8>(), 0..64),
        stamp_ns in any::<u64>(),
        value in any_strategy(),
    ) {
        let ckpt = ftproxy::Checkpoint {
            object_id: id.clone(),
            epoch: cdr::Epoch(epoch),
            state,
            stamp_ns,
        };
        let sent = cdr::to_bytes(&(&ckpt,));
        let (seen,): (ftproxy::Checkpoint,) = cdr::from_bytes(&sent).unwrap();
        prop_assert_eq!(cdr::to_bytes(&(&seen,)), sent);

        let sent = cdr::to_bytes(&(id.as_str(), key.as_str(), &value));
        let (i, k, v): (String, String, cdr::Any) = cdr::from_bytes(&sent).unwrap();
        prop_assert_eq!(cdr::to_bytes(&(&i, &k, &v)), sent);
    }
}

/// Store `entries` in order as one object's values on the paper's
/// checkpoint service — a replica alone — and read back each key's value.
fn lone_store_values(entries: Vec<(String, i32)>) -> BTreeMap<String, Option<i32>> {
    let mut sim = Kernel::with_seed(1);
    let h0 = sim.add_host(HostConfig::new("sh0"));
    sim.spawn(h0, "naming", |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, cosnaming::LbMode::Plain, None);
    });
    sim.spawn(h0, "checkpoint-service", move |ctx| {
        let _ = ldft_store::run_checkpoint_service(ctx, h0, None);
    });
    let out = Arc::new(Mutex::new(None));
    let o = out.clone();
    let driver = sim.spawn(h0, "driver", move |ctx| {
        ctx.sleep(SimDuration::from_millis(500)).unwrap();
        let mut orb = orb::Orb::init(ctx);
        let ns = cosnaming::NamingClient::root(h0);
        let name = cosnaming::Name::simple(ftproxy::CHECKPOINT_SERVICE_NAME);
        let c = ftproxy::CheckpointClient::new(ns.resolve(&mut orb, ctx, &name).unwrap().unwrap());
        for (k, v) in &entries {
            let long = cdr::Any {
                tc: cdr::TypeCode::Long,
                value: cdr::Value::Long(*v),
            };
            c.store_value(&mut orb, ctx, "obj", k, &long)
                .unwrap()
                .unwrap();
        }
        let mut values = BTreeMap::new();
        for (k, _) in &entries {
            let got = c.retrieve_value(&mut orb, ctx, "obj", k).unwrap().unwrap();
            let long = got.and_then(|v| match v.value {
                cdr::Value::Long(v) => Some(v),
                _ => None,
            });
            values.insert(k.clone(), long);
        }
        *o.lock().unwrap() = Some(values);
    });
    sim.run_until_exit(driver);
    let got = out.lock().unwrap().take();
    got.expect("the driver ran to the end")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Value stores replace by key, for arbitrary key/value sequences.
    #[test]
    fn value_store_replaces_by_key(
        entries in proptest::collection::vec(("[a-z]{1,4}", any::<i32>()), 1..16),
    ) {
        let mut last = BTreeMap::new();
        for (k, v) in &entries {
            last.insert(k.clone(), Some(*v));
        }
        prop_assert_eq!(lone_store_values(entries), last);
    }
}
