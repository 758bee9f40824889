//! Fault tolerance end to end (the paper's Fig. 2 scenario): a stateful
//! service called through a checkpointing proxy survives the crash of its
//! host — the client never sees the failure, only a slower call.
//!
//! Run with: `cargo run --example fault_tolerant_service`

use std::cell::RefCell;
use std::rc::Rc;

use cosnaming::{LbMode, Name, NamingClient};
use ftproxy::{
    run_factory_obs, CheckpointClient, CheckpointMode, FtProxy, FtProxyConfig, ProxyEnv,
};
use orb::{reply, CallCtx, Exception, Orb, Servant, SystemException};
use simnet::{HostConfig, Kernel, SimDuration};

/// A stateful accumulator implementing the checkpoint convention.
#[derive(Default)]
struct Account {
    balance: i64,
}

impl Servant for Account {
    fn dispatch(
        &mut self,
        _call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "deposit" => {
                let (amount,): (i64,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                self.balance += amount;
                reply(&self.balance)
            }
            "balance" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                reply(&self.balance)
            }
            "get_checkpoint" => {
                cdr::from_bytes::<()>(args).map_err(SystemException::marshal)?;
                reply(&cdr::to_bytes(&self.balance))
            }
            "restore_checkpoint" => {
                let (state,): (Vec<u8>,) =
                    cdr::from_bytes(args).map_err(SystemException::marshal)?;
                self.balance = cdr::from_bytes(&state).map_err(SystemException::marshal)?;
                reply(&())
            }
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

fn main() {
    let mut sim = Kernel::with_seed(1999);
    let hosts: Vec<_> = (0..4)
        .map(|i| sim.add_host(HostConfig::new(format!("ws{i}"))))
        .collect();
    let infra = hosts[0];

    // Infrastructure: naming + checkpoint service on ws0.
    sim.spawn(infra, "naming", |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });
    sim.spawn(infra, "checkpoint-service", move |ctx| {
        let _ = store::run_checkpoint_service(ctx, infra, None);
    });

    // Factories on the worker hosts can (re)create Account instances.
    for &h in &hosts[1..] {
        sim.spawn(h, format!("factory-{h}"), move |ctx| {
            let builder: ftproxy::ServantBuilder = Box::new(|_call, ty| {
                (ty == "Account").then(|| {
                    (
                        Rc::new(RefCell::new(Account::default())) as Rc<RefCell<dyn Servant>>,
                        "IDL:Demo/Account:1.0".to_string(),
                    )
                })
            });
            let _ = run_factory_obs(ctx, infra, builder, None);
        });
    }

    // The client drives deposits through a fault-tolerant proxy and
    // crashes the service's host halfway.
    let client = sim.spawn(infra, "client", move |ctx| {
        ctx.sleep(SimDuration::from_secs(1)).unwrap(); // services boot
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: SimDuration::from_secs(2),
            },
        );
        let ns = NamingClient::root(infra);
        let ckpt = loop {
            match ns
                .resolve(&mut orb, ctx, &Name::simple("CheckpointService"))
                .unwrap()
            {
                Ok(obj) => break CheckpointClient::new(obj),
                Err(_) => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
            }
        };
        let cfg = FtProxyConfig::new(Name::simple("Accounts"), "Account", "account-42");
        let mut proxy = FtProxy::new(
            FtProxyConfig {
                mode: CheckpointMode::Bulk,
                ..cfg
            },
            NamingClient::root(infra),
            ckpt,
        );
        let mut env = ProxyEnv { orb: &mut orb, ctx };

        for round in 1..=6i64 {
            let t0 = env.ctx.now();
            let balance: i64 = proxy
                .call(&mut env, "deposit", &(100i64,))
                .unwrap()
                .expect("deposit succeeds (possibly after recovery)");
            let host = proxy.current_target().unwrap().ior.host;
            println!(
                "[client] deposit #{round}: balance {balance:>4}  (on {host}, {:.3}s)",
                env.ctx.now().since(t0).as_secs_f64()
            );
            if round == 3 {
                println!("[fault]  crashing {host} — the account's state dies with it");
                env.ctx.crash_host(host).unwrap();
            }
        }
        let s = proxy.stats;
        println!(
            "\n[client] proxy stats: {} calls, {} checkpoints, {} recoveries, \
             {} restores, {} factory creates",
            s.calls, s.checkpoints, s.recoveries, s.restores, s.factory_creates
        );
        assert_eq!(
            proxy
                .call::<_, i64>(&mut env, "balance", &())
                .unwrap()
                .unwrap(),
            600,
            "no deposit was lost"
        );
        println!("[client] final balance 600 — no deposit lost across the crash ✓");
    });

    sim.run_until_exit(client);
}
