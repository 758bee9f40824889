//! The independence relation behind the DPOR pruner.
//!
//! Two tied candidates *commute* when executing them in either order
//! provably yields the same kernel state. The strict relation is derived
//! purely from the kernel's event structure (see
//! [`simnet::ChoiceCandidate`]): a candidate that wakes no process and
//! carries no global or RNG effect only mutates its target's mailbox (or
//! drops), so two such candidates with disjoint targets commute — the
//! kernel allocates no new sequence numbers for either, and the final
//! heap, mailboxes, and statistics are order-independent.
//!
//! The *extended* relation additionally lets two waking candidates on
//! disjoint processes/hosts commute when the woken processes belong to
//! subsystems that share no `simnet::Shared` lock class and no intra-
//! process call edge — facts reused from `ldft-lint`'s lock-class and
//! call-graph passes ([`Coupling`]). Extended claims are heuristic
//! (woken processes might still converge on a common third party), so
//! the explorer audits a sample of them by actually running the pruned
//! schedule and comparing semantic digests — the schedule-robustness
//! oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::policy::Fp;

/// Strict commutation: sound by construction from the kernel's event
/// structure alone.
pub fn commutes(a: &Fp, b: &Fp) -> bool {
    if a.global || b.global || a.wakes || b.wakes {
        return false;
    }
    if a.draws_rng && b.draws_rng {
        return false;
    }
    match (a.pid, b.pid) {
        // Same target mailbox: delivery order is observable.
        (Some(x), Some(y)) => x != y,
        // An unresolvable target means the event is a pure drop (dead
        // destination or cut link): only statistics counters move, and
        // counter increments commute.
        _ => true,
    }
}

/// Cross-subsystem coupling facts, derived from `ldft-lint`.
///
/// `cells` maps each `simnet::Shared` cell name to the crates that
/// acquire it (the lock-class inventory); `call_pairs` holds ordered
/// crate pairs connected by a resolved *in-process* call edge in the
/// interprocedural call graph. Two crates are *coupled* when they share
/// a cell name or a call edge in either direction; coupled subsystems
/// never participate in extended commutation claims.
#[derive(Clone, Debug, Default)]
pub struct Coupling {
    /// `Shared` cell name → crates acquiring it.
    pub cells: BTreeMap<String, BTreeSet<String>>,
    /// Ordered (caller crate, callee crate) pairs with a call edge.
    pub call_pairs: BTreeSet<(String, String)>,
}

impl Coupling {
    /// Whether two subsystems (lint crate names) are coupled beyond
    /// message passing. Unknown or identical subsystems are always
    /// coupled (conservative).
    pub fn coupled(&self, a: &str, b: &str) -> bool {
        if a == b || a == "unknown" || b == "unknown" {
            return true;
        }
        if self.call_pairs.contains(&(a.to_string(), b.to_string()))
            || self.call_pairs.contains(&(b.to_string(), a.to_string()))
        {
            return true;
        }
        self.cells
            .values()
            .any(|crates| crates.contains(a) && crates.contains(b))
    }

    /// Derive coupling facts by running `ldft-lint`'s lock-graph and
    /// call-graph passes over the workspace rooted at `root`.
    pub fn from_workspace(root: &Path) -> std::io::Result<Coupling> {
        let analyses = ldft_lint::analyze_workspace(root)?;
        let lock = ldft_lint::lockgraph::check(&analyses);
        let idls = ldft_lint::contracts(root)?;
        let graph = ldft_lint::callgraph::build(&analyses, &idls);
        let mut call_pairs = BTreeSet::new();
        for e in &graph.edges {
            let (fk, tk) = (&graph.nodes[e.from].krate, &graph.nodes[e.to].krate);
            if fk != tk {
                call_pairs.insert((fk.clone(), tk.clone()));
            }
        }
        Ok(Coupling {
            cells: lock.class_crates,
            call_pairs,
        })
    }
}

/// Map a simulated process name to the lint crate owning its code, for
/// coupling lookups. Unrecognized names map to `"unknown"`, which
/// [`Coupling::coupled`] treats as coupled with everything.
pub fn subsystem_of(proc_name: &str) -> &'static str {
    const PREFIXES: &[(&str, &str)] = &[
        ("naming", "naming"),
        ("store-replica", "store"),
        ("store-detector", "store"),
        ("detector", "ft"),
        ("ckpt", "ft"),
        ("factory", "ft"),
        ("channel", "monitor"),
        ("pub-", "monitor"),
        ("mon-", "monitor"),
        ("mgr", "winner"),
        ("node", "winner"),
        ("worker", "optim"),
    ];
    for (prefix, krate) in PREFIXES {
        if proc_name.starts_with(prefix) {
            return krate;
        }
    }
    "unknown"
}

/// Extended commutation: strict commutation, or a heuristic equivalence
/// claim between two waking candidates whose targets are disjoint
/// processes on disjoint hosts belonging to uncoupled subsystems.
/// Callers must audit a sample of claims made through this relation
/// (the schedule-robustness oracle) because it is not sound by itself.
pub fn commutes_extended(
    a: &Fp,
    b: &Fp,
    names: &BTreeMap<u32, String>,
    coupling: &Coupling,
) -> bool {
    if commutes(a, b) {
        return true;
    }
    if a.global || b.global || a.draws_rng || b.draws_rng {
        return false;
    }
    let (Some(pa), Some(pb)) = (a.pid, b.pid) else {
        return false;
    };
    let (Some(ha), Some(hb)) = (a.host, b.host) else {
        return false;
    };
    if pa == pb || ha == hb {
        return false;
    }
    // A delivery's secondary footprint (the RST path back to the sender)
    // must not land on the other candidate's process either.
    if a.from == Some(pb) || b.from == Some(pa) {
        return false;
    }
    let unknown = "unknown".to_string();
    let sa = subsystem_of(names.get(&pa).unwrap_or(&unknown));
    let sb = subsystem_of(names.get(&pb).unwrap_or(&unknown));
    !coupling.coupled(sa, sb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(pid: Option<u32>, wakes: bool) -> Fp {
        Fp {
            label: "deliver".into(),
            pid,
            host: pid,
            from: None,
            from_host: None,
            wakes,
            global: false,
            draws_rng: false,
        }
    }

    #[test]
    fn strict_relation_core_cases() {
        // Disjoint non-waking mailbox pushes commute.
        assert!(commutes(&fp(Some(1), false), &fp(Some(2), false)));
        // Same mailbox: order observable.
        assert!(!commutes(&fp(Some(1), false), &fp(Some(1), false)));
        // Wakes never commute strictly.
        assert!(!commutes(&fp(Some(1), true), &fp(Some(2), false)));
        // Pure drops commute with anything non-waking.
        assert!(commutes(&fp(None, false), &fp(Some(2), false)));
        // Global faults never commute.
        let mut g = fp(Some(1), false);
        g.global = true;
        assert!(!commutes(&g, &fp(Some(2), false)));
        // Two RNG draws never commute.
        let mut r1 = fp(Some(1), false);
        r1.draws_rng = true;
        let mut r2 = fp(Some(2), false);
        r2.draws_rng = true;
        assert!(!commutes(&r1, &r2));
        assert!(commutes(&r1, &fp(Some(2), false)));
    }

    #[test]
    fn extended_relation_requires_uncoupled_subsystems() {
        let mut names = BTreeMap::new();
        names.insert(1u32, "naming".to_string());
        names.insert(2u32, "store-replica-0".to_string());
        let mut host_split_a = fp(Some(1), true);
        host_split_a.host = Some(10);
        let mut host_split_b = fp(Some(2), true);
        host_split_b.host = Some(20);

        // Empty coupling: naming and store share nothing → claimable.
        let free = Coupling::default();
        assert!(commutes_extended(
            &host_split_a,
            &host_split_b,
            &names,
            &free
        ));

        // A shared cell couples them → not claimable.
        let mut tied = Coupling::default();
        tied.cells.insert(
            "state".into(),
            ["naming", "store"].iter().map(|s| s.to_string()).collect(),
        );
        assert!(!commutes_extended(
            &host_split_a,
            &host_split_b,
            &names,
            &tied
        ));

        // Same host never claimable even when uncoupled.
        let mut same_host = host_split_b.clone();
        same_host.host = Some(10);
        assert!(!commutes_extended(&host_split_a, &same_host, &names, &free));

        // Unknown process name is conservative.
        let mut anon = BTreeMap::new();
        anon.insert(1u32, "naming".to_string());
        assert!(!commutes_extended(
            &host_split_a,
            &host_split_b,
            &anon,
            &free
        ));
    }
}
