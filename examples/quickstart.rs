//! Quickstart: boot a tiny simulated cluster, serve a CORBA object, look
//! it up through the naming service, and call it.
//!
//! Run with: `cargo run --example quickstart`

use std::cell::RefCell;
use std::rc::Rc;

use cosnaming::{LbMode, Name, NamingClient};
use orb::{reply, CallCtx, Exception, Orb, Poa, Servant, SystemException};
use simnet::{HostConfig, Kernel, SimDuration};

/// A classic Greeter servant: one operation, `greet(name) -> string`.
struct Greeter;

impl Servant for Greeter {
    fn dispatch(
        &mut self,
        _call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "greet" => {
                let (who,): (String,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                reply(&format!(
                    "Hello, {who}! (from a simulated 1999 workstation)"
                ))
            }
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

fn main() {
    // A deterministic simulated network of two workstations.
    let mut sim = Kernel::with_seed(2026);
    let alice = sim.add_host(HostConfig::new("alice"));
    let bob = sim.add_host(HostConfig::new("bob"));

    // The naming service runs on alice (port 2809, like a real ORB setup).
    sim.spawn(alice, "naming", |ctx| {
        let _ = cosnaming::run_naming_service_obs(ctx, LbMode::Plain, None);
    });

    // A server process on bob: activate the Greeter and register it.
    sim.spawn(bob, "greeter-server", move |ctx| {
        let mut orb = Orb::init(ctx);
        orb.listen(ctx).unwrap();
        let poa = Poa::new();
        let key = poa.activate("IDL:Demo/Greeter:1.0", Rc::new(RefCell::new(Greeter)));
        let ior = orb.ior("IDL:Demo/Greeter:1.0", key);
        println!("[server] greeter IOR: {}…", &ior.stringify()[..40]);

        let ns = NamingClient::root(alice);
        loop {
            // Retry while the naming service boots.
            match ns.bind(&mut orb, ctx, &Name::simple("Greeter"), &ior) {
                Ok(Ok(())) => break,
                Ok(Err(_)) => ctx.sleep(SimDuration::from_millis(50)).unwrap(),
                Err(_) => return,
            }
        }
        println!("[server] registered as \"Greeter\", serving …");
        let _ = orb.serve_forever(ctx, &poa);
    });

    // A client process on alice: resolve by name and invoke.
    let client = sim.spawn(alice, "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(200)).unwrap();
        let mut orb = Orb::init(ctx);
        let ns = NamingClient::root(alice);
        let greeter = ns
            .resolve(&mut orb, ctx, &Name::simple("Greeter"))
            .unwrap()
            .expect("Greeter is registered");
        let answer: String = greeter
            .call(&mut orb, ctx, "greet", &("world".to_string(),))
            .unwrap()
            .expect("greet succeeds");
        println!(
            "[client] t={:.4}s  reply: {answer}",
            ctx.now().as_secs_f64()
        );
    });

    sim.run_until_exit(client);
    println!(
        "simulation done at t={:.4}s ({} messages delivered)",
        sim.now().as_secs_f64(),
        sim.stats().msgs_delivered
    );
}
