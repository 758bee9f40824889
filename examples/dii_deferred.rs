//! The Dynamic Invocation Interface: deferred requests fan work out to
//! several servers in parallel, and request proxies (Fig. 2's right-hand
//! side) make the same pattern fault-tolerant.
//!
//! Run with: `cargo run --example dii_deferred`

use std::cell::RefCell;
use std::rc::Rc;

use orb::{reply, CallCtx, DiiRequest, Exception, Ior, Orb, Poa, Servant, SystemException};
use simnet::{Kernel, SimDuration};
use std::sync::{Arc, Mutex};

/// A servant that burns CPU and returns which host it ran on.
struct Cruncher;

impl Servant for Cruncher {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        match op {
            "crunch" => {
                let (work,): (f64,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
                call.ctx
                    .compute(work)
                    .map_err(|_| SystemException::comm_failure("killed"))?;
                reply(&format!("done on {}", call.ctx.host()))
            }
            other => Err(SystemException::bad_operation(other).into()),
        }
    }
}

fn main() {
    let mut sim = Kernel::with_seed(7);
    let hosts = sim.add_hosts(4);
    let iors: Arc<Mutex<Vec<Ior>>> = Arc::new(Mutex::new(Vec::new()));

    // Three cruncher servers.
    for &h in &hosts[1..] {
        let iors = iors.clone();
        sim.spawn(h, format!("cruncher-{h}"), move |ctx| {
            let mut orb = Orb::init(ctx);
            orb.listen(ctx).unwrap();
            let poa = Poa::new();
            let key = poa.activate("IDL:Demo/Cruncher:1.0", Rc::new(RefCell::new(Cruncher)));
            iors.lock()
                .unwrap()
                .push(orb.ior("IDL:Demo/Cruncher:1.0", key));
            let _ = orb.serve_forever(ctx, &poa);
        });
    }

    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let client = sim.spawn(hosts[0], "client", move |ctx| {
        ctx.sleep(SimDuration::from_millis(100)).unwrap();
        // Calls run for 2 CPU-seconds; give the ORB a comfortable timeout.
        let mut orb = Orb::new(
            ctx,
            orb::OrbConfig {
                request_timeout: SimDuration::from_secs(30),
            },
        );
        let targets: Vec<Ior> = iors.lock().unwrap().clone();

        // --- sequential: three 2-second calls, one after another --------
        let t0 = ctx.now();
        for ior in &targets {
            let obj = orb::ObjectRef::new(ior.clone());
            let _: String = obj
                .call(&mut orb, ctx, "crunch", &(2.0f64,))
                .unwrap()
                .unwrap();
        }
        let sequential = ctx.now().since(t0).as_secs_f64();

        // --- deferred DII: send all three, then collect ------------------
        let t0 = ctx.now();
        let mut requests: Vec<DiiRequest> = targets
            .iter()
            .map(|ior| {
                DiiRequest::send_deferred(&mut orb, ctx, ior, "crunch", &2.0f64, &[]).unwrap()
            })
            .collect();
        // Poll while "doing other work" (sleeping here).
        let mut polls = 0;
        while !requests.iter().all(|r| r.is_done()) {
            for r in &mut requests {
                r.poll_response(&mut orb, ctx).unwrap();
            }
            polls += 1;
            ctx.sleep(SimDuration::from_millis(100)).unwrap();
        }
        let mut where_run = Vec::new();
        for r in &mut requests {
            let s: String = r.result::<String>().unwrap().unwrap();
            where_run.push(s);
        }
        let deferred = ctx.now().since(t0).as_secs_f64();

        let mut lines = o.lock().unwrap();
        lines.push(format!("sequential calls : {sequential:.2}s"));
        lines.push(format!(
            "deferred DII     : {deferred:.2}s  ({polls} poll rounds; {})",
            where_run.join(", ")
        ));
    });

    sim.run_until_exit(client);
    println!("Three servers, 2 CPU-seconds of work each:\n");
    for l in out.lock().unwrap().iter() {
        println!("  {l}");
    }
    println!(
        "\nsend_deferred/poll_response/get_response overlap the server\n\
         computations — the manager in the optimization runtime gets its\n\
         parallelism exactly this way."
    );
}
