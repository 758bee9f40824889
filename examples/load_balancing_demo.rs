//! Load distribution made visible: boot the full Winner stack, skew the
//! cluster load, dump the system manager's view of every host, and watch
//! where 200 load-balanced resolutions land.
//!
//! Run with: `cargo run --example load_balancing_demo`

use corba_runtime::{Cluster, ClusterConfig, NamingMode};
use cosnaming::{Name, NamingClient};
use orb::Orb;
use simnet::SimDuration;
use std::sync::{Arc, Mutex};
use winner::SystemManagerClient;

fn main() {
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: 7,
        naming: NamingMode::Winner,
        // One fast machine in the mix to show speed-aware scoring.
        speeds: vec![1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0],
        seed: 99,
        ..ClusterConfig::default()
    });
    // Background load: two spinners on ws1, one on ws2.
    cluster.add_background_load(cluster.hosts[1]);
    cluster.add_background_load(cluster.hosts[1]);
    cluster.add_background_load(cluster.hosts[2]);

    let infra = cluster.infra;
    let sysmgr = cluster.sysmgr_ior.clone();
    let out: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();

    let driver = cluster.kernel.spawn(infra, "demo", move |ctx| {
        ctx.sleep(SimDuration::from_secs(6)).unwrap(); // gather load data
        let mut orb = Orb::init(ctx);

        // 1. The system manager's view of the cluster.
        let mgr = SystemManagerClient::from_ior(sysmgr.get().expect("winner up"));
        let snapshot = mgr.snapshot(&mut orb, ctx).unwrap().unwrap();
        let mut lines = vec![
            "host   speed  load-avg  cpu-util  score   alive".to_string(),
            "-----------------------------------------------".to_string(),
        ];
        for h in &snapshot {
            lines.push(format!(
                "ws{:<4} {:<6.1} {:<9.2} {:<9.2} {:<7.2} {}",
                h.host, h.speed, h.load_avg, h.cpu_util, h.score, h.alive
            ));
        }

        // 2. 200 load-balanced resolutions of the worker group.
        let ns = NamingClient::root(infra);
        let name = Name::simple("Workers");
        let mut counts = std::collections::BTreeMap::<u32, u32>::new();
        for _ in 0..200 {
            let obj = ns.resolve(&mut orb, ctx, &name).unwrap().unwrap();
            *counts.entry(obj.ior.host.0).or_default() += 1;
            // Brief pause so reservations decay: this measures steady-state
            // preference, not the burst-spreading behaviour.
            ctx.sleep(SimDuration::from_millis(40)).unwrap();
        }
        lines.push(String::new());
        lines.push("resolve() landings over 200 calls:".to_string());
        for (host, n) in &counts {
            let bar = "#".repeat((*n as usize) / 2);
            lines.push(format!("ws{host}: {n:>4}  {bar}"));
        }
        *o.lock().unwrap() = lines;
    });

    cluster.kernel.run_until_exit(driver);
    println!(
        "Winner's view after 6 virtual seconds (ws1 carries 2 spinners, ws2\n\
         carries 1, ws3 is a 2× machine):\n"
    );
    for line in out.lock().unwrap().iter() {
        println!("{line}");
    }
    println!(
        "\nThe fast idle machine scores highest and receives the most\n\
         placements; loaded hosts get markedly fewer (reservations keep\n\
         spreading the rest) — without the client ever seeing anything but\n\
         a standard resolve()."
    );
}
