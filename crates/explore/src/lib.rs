//! # ldft-explore — systematic schedule-space exploration
//!
//! Every test in this workspace executes exactly one schedule per seed:
//! the simnet kernel breaks same-virtual-time ties by a monotone
//! insertion counter. The paper's fault-tolerance guarantees, however,
//! are claims about *all* interleavings of failure detection, recovery,
//! and client traffic. This crate enumerates the other schedules.
//!
//! The kernel exposes its nondeterminism points through
//! [`simnet::SchedulePolicy`]: same-timestamp event-queue ties and
//! runnable-queue order. `ldft-explore` drives that hook with a
//! deviation plan (`choice ordinal → candidate index`), records every
//! choice point's candidate footprints, and explores the deviation tree
//! breadth-first under a delay bound, pruning deviations that provably
//! commute with everything they overtake (DPOR-style partial-order
//! reduction — see [`independence`]).
//!
//! Each explored execution runs the target's invariant oracles (doctor
//! invariants, acked-epoch durability, counter continuity) plus a
//! *schedule-robustness* oracle: a sample of the pruned
//! (equivalence-claimed) deviations is actually executed and must
//! reproduce the parent schedule's semantic digest byte for byte. On
//! violation the deviation list is ddmin-shrunk ([`shrink`]) and emitted
//! as a serialized replay token ([`token`]) for the committed regression
//! corpus under `tests/explore_corpus/`.
//!
//! See DESIGN.md §15 for the exploration model and EXPERIMENTS.md for
//! the reference counterexample walkthrough.

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod explorer;
pub mod independence;
pub mod policy;
pub mod shrink;
pub mod targets;
pub mod token;

pub use explorer::{explore, replay, ExploreConfig, ExploreOutcome, ExploreStats, ViolationReport};
pub use independence::commutes;
pub use policy::{ChoiceLog, ChoicePoint, Fp, PlanPolicy};
pub use targets::{all_targets, target_by_name, RunOutcome, Target};
pub use token::{ReplayToken, TOKEN_PREFIX};

/// FNV-1a 64-bit hasher: the digest primitive for semantic run state and
/// candidate fingerprints. Deterministic, dependency-free, stable across
/// platforms (unlike `DefaultHasher`, whose algorithm is unspecified).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fresh hasher with the FNV offset basis.
    pub fn new() -> Self {
        Fnv::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a string with a length prefix (prevents concatenation
    /// collisions between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv::new();
        a.write_str("hello");
        a.write_u64(7);
        let mut b = Fnv::new();
        b.write_str("hello");
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write_u64(7);
        c.write_str("hello");
        assert_ne!(a.finish(), c.finish());
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
