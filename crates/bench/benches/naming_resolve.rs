//! Microbenchmark: naming-service resolution cost — plain vs group
//! (round-robin) vs Winner-backed (with the nested system-manager call).

use cosnaming::{LbMode, Name, NamingClient};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orb::{Ior, ObjectKey, Orb};
use simnet::{Kernel, Port, SimDuration};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

fn resolves(winner: bool, group: bool, rounds: u32) -> u32 {
    let mut sim = Kernel::with_seed(1);
    let hosts = sim.add_hosts(4);
    let h0 = hosts[0];
    let sysmgr: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    if winner {
        let p = sysmgr.clone();
        sim.spawn(h0, "sysmgr", move |ctx| {
            let _ = winner::run_system_manager(
                ctx,
                winner::SystemManagerConfig::default(),
                Box::new(winner::BestPerformance),
                |ior| {
                    *p.lock().unwrap() = Some(ior.stringify());
                },
            );
        });
        for &h in &hosts {
            let c = sysmgr.clone();
            sim.spawn(h, "nm", move |ctx| {
                while c.lock().unwrap().is_none() {
                    if ctx.sleep(SimDuration::from_millis(5)).is_err() {
                        return;
                    }
                }
                let s = c.lock().unwrap().clone().unwrap();
                let _ = winner::run_node_manager(
                    ctx,
                    winner::NodeManagerConfig::new(Ior::destringify(&s).unwrap()),
                );
            });
        }
    }
    let c = sysmgr.clone();
    sim.spawn(h0, "naming", move |ctx| {
        let mode = if winner {
            while c.lock().unwrap().is_none() {
                if ctx.sleep(SimDuration::from_millis(5)).is_err() {
                    return;
                }
            }
            let s = c.lock().unwrap().clone().unwrap();
            LbMode::Winner {
                system_manager: Ior::destringify(&s).unwrap(),
            }
        } else {
            LbMode::Plain
        };
        let _ = cosnaming::run_naming_service(ctx, mode);
    });
    let count: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let out = count.clone();
    let client = sim.spawn(hosts[1], "client", move |ctx| {
        ctx.sleep(SimDuration::from_secs(3)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(h0);
        let name = Name::simple("Svc");
        if group {
            for (i, &h) in hosts[1..].iter().enumerate() {
                ns.bind_group_member(
                    &mut orb,
                    ctx,
                    &name,
                    &Ior::new("IDL:S:1.0", h, Port(5), ObjectKey(i as u64)),
                )
                .unwrap()
                .unwrap();
            }
        } else {
            ns.bind(
                &mut orb,
                ctx,
                &name,
                &Ior::new("IDL:S:1.0", hosts[1], Port(5), ObjectKey(1)),
            )
            .unwrap()
            .unwrap();
        }
        let mut ok = 0;
        for _ in 0..rounds {
            if ns.resolve(&mut orb, ctx, &name).unwrap().is_ok() {
                ok += 1;
            }
        }
        *out.lock().unwrap() = ok;
    });
    sim.run_until_exit(client);
    let n = *count.lock().unwrap();
    n
}

/// The trader baseline: obtain a placed reference by query + snapshot +
/// client-side selection (two RPCs and local scoring per placement).
fn trader_selections(rounds: u32) -> u32 {
    let mut sim = Kernel::with_seed(1);
    let hosts = sim.add_hosts(4);
    let h0 = hosts[0];
    let sysmgr: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let p = sysmgr.clone();
    sim.spawn(h0, "sysmgr", move |ctx| {
        let _ = winner::run_system_manager(
            ctx,
            winner::SystemManagerConfig::default(),
            Box::new(winner::BestPerformance),
            |ior| {
                *p.lock().unwrap() = Some(ior.stringify());
            },
        );
    });
    for &h in &hosts {
        let c = sysmgr.clone();
        sim.spawn(h, "nm", move |ctx| {
            while c.lock().unwrap().is_none() {
                if ctx.sleep(SimDuration::from_millis(5)).is_err() {
                    return;
                }
            }
            let s = c.lock().unwrap().clone().unwrap();
            let _ = winner::run_node_manager(
                ctx,
                winner::NodeManagerConfig::new(Ior::destringify(&s).unwrap()),
            );
        });
    }
    let trader_ior: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let t = trader_ior.clone();
    sim.spawn(h0, "trader", move |ctx| {
        let _ = cosnaming::run_trader(ctx, |ior| {
            *t.lock().unwrap() = Some(ior.stringify());
        });
    });
    let count: Arc<Mutex<u32>> = Arc::new(Mutex::new(0));
    let out = count.clone();
    let sm = sysmgr.clone();
    let client = sim.spawn(hosts[1], "client", move |ctx| {
        ctx.sleep(SimDuration::from_secs(3)).unwrap();
        let mut orb = Orb::init(ctx);
        let trader = cosnaming::LookupStub::new(orb::ObjectRef::new(
            Ior::destringify(&trader_ior.lock().unwrap().clone().unwrap()).unwrap(),
        ));
        for (i, &h) in hosts[1..].iter().enumerate() {
            trader
                .export(
                    &mut orb,
                    ctx,
                    "Svc",
                    &Ior::new("IDL:S:1.0", h, Port(5), ObjectKey(i as u64)),
                )
                .unwrap()
                .unwrap();
        }
        let sysmgr = winner::SystemManagerClient::from_ior(
            Ior::destringify(&sm.lock().unwrap().clone().unwrap()).unwrap(),
        );
        let mut ok = 0;
        for _ in 0..rounds {
            let offers = trader.query(&mut orb, ctx, "Svc").unwrap().unwrap();
            if cosnaming::select_best_offer(&mut orb, ctx, &offers, &sysmgr)
                .unwrap()
                .unwrap()
                .is_some()
            {
                ok += 1;
            }
        }
        *out.lock().unwrap() = ok;
    });
    sim.run_until_exit(client);
    let n = *count.lock().unwrap();
    n
}

fn bench_naming(c: &mut Criterion) {
    let mut g = c.benchmark_group("naming_resolve");
    g.throughput(Throughput::Elements(200));
    g.bench_function("plain_object_200", |b| {
        b.iter(|| black_box(resolves(false, false, 200)))
    });
    g.bench_function("plain_group_200", |b| {
        b.iter(|| black_box(resolves(false, true, 200)))
    });
    g.bench_function("winner_group_200", |b| {
        b.iter(|| black_box(resolves(true, true, 200)))
    });
    g.bench_function("trader_decentralized_200", |b| {
        b.iter(|| black_box(trader_selections(200)))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_naming
);
criterion_main!(benches);
