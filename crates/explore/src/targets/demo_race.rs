//! Cell: the reference counterexample — a deliberate last-writer-wins
//! race kept *out* of the CI gate sweep.
//!
//! Two writer processes sleep to the same virtual instant and then store
//! their own value into a shared register; a third value arrives a tick
//! later. Under the default schedule (insertion order) `writer-b` writes
//! last before the tick and the register reads back `2`. The cell's
//! oracle bakes that default outcome in — exactly the mistake a test
//! suite makes when it asserts the outcome of one arbitrary interleaving
//! of a genuine race. Deviating either co-temporal tie swaps the write
//! order and the oracle fires.
//!
//! The explorer finds this with a single deviation, ddmin keeps the plan
//! at one entry, and the minted token replays the violation on demand —
//! the walkthrough in EXPERIMENTS.md runs this cell end to end. It is
//! reachable via `--target demo_race` and replay tokens, but excluded
//! from [`super::all_targets`] so the `explore-gate` stays green.

use std::collections::BTreeMap;

use simnet::{Kernel, Shared, SimDuration, SimResult};

use crate::targets::{instrument, RunOutcome, Target};
use crate::Fnv;

const SEED: u64 = 23;

/// See the module docs.
pub struct DemoRace;

impl Target for DemoRace {
    fn name(&self) -> &'static str {
        "demo_race"
    }

    fn seed(&self) -> u64 {
        SEED
    }

    fn run(&self, plan: &BTreeMap<u64, usize>) -> RunOutcome {
        run_cell(plan)
    }
}

fn run_cell(plan: &BTreeMap<u64, usize>) -> RunOutcome {
    let mut sim = Kernel::with_seed(SEED);
    let choices = instrument(&mut sim, plan, |_, _| {});
    let host = sim.add_hosts(1)[0];

    // Write order and final register value, observed by the oracle.
    let writes: Shared<Vec<u64>> = Shared::new(Vec::new());
    let mut spawn_writer = |name: &str, value: u64, delay_ms: u64| {
        let writes = writes.clone();
        sim.spawn(host, name, move |ctx| {
            write_after(ctx, writes, value, delay_ms)
        });
    };
    spawn_writer("writer-a", 1, 10);
    spawn_writer("writer-b", 2, 10);
    spawn_writer("writer-c", 3, 20);

    sim.run_for(SimDuration::from_millis(30));
    let end = sim.now();

    let history = writes.get();
    let register = history.last().copied();
    let mut violations = Vec::new();
    // The intentionally schedule-fragile oracle: asserts the default
    // interleaving of the t=10ms tie (a before b).
    if history.first().copied() != Some(1) || register != Some(3) {
        violations.push(format!(
            "register history {history:?} diverged from the default \
             schedule [1, 2, 3] — co-temporal writes do not commute"
        ));
    }

    let mut h = Fnv::new();
    h.write_str("demo_race");
    h.write_u64(history.len() as u64);
    for v in &history {
        h.write_u64(*v);
    }
    h.write_u64(end.as_nanos());

    RunOutcome {
        digest: h.finish(),
        violations,
        log: choices.get(),
        end_ns: end.as_nanos(),
    }
}

fn write_after(
    ctx: &mut simnet::Ctx,
    writes: Shared<Vec<u64>>,
    value: u64,
    delay_ms: u64,
) -> SimResult<()> {
    ctx.sleep(SimDuration::from_millis(delay_ms))?;
    writes.lock().push(value);
    Ok(())
}
