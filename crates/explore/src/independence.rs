//! The independence relation behind the DPOR pruner.
//!
//! Two tied candidates *commute* when executing them in either order
//! provably yields the same kernel state. The relation is derived purely
//! from the kernel's event structure (see [`simnet::ChoiceCandidate`]): a
//! candidate that wakes no process and carries no global or RNG effect
//! only mutates its target's mailbox (or drops), so two such candidates
//! with disjoint targets commute — the kernel allocates no new sequence
//! numbers for either, and the final heap, mailboxes, and statistics are
//! order-independent. The explorer audits a sample of the claims it
//! prunes on anyway, by running the pruned schedule and comparing
//! semantic digests — the schedule-robustness oracle.

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
}
