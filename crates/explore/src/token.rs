//! Replay tokens: a one-line serialization of a deviated schedule, small
//! enough to paste into a bug report and stable enough to commit as a
//! regression corpus (`tests/explore_corpus/*.token`).
//!
//! Format (single line, `;`-separated fields, order fixed):
//!
//! ```text
//! ldft-explore/v1;target=<name>;seed=<u64>;dev=<ord>:<idx>[,<ord>:<idx>]*;fp=<16-hex>
//! ```
//!
//! `dev` lists the deviation plan (choice ordinal → candidate index,
//! ascending ordinals; the literal value `-` means the empty plan, i.e.
//! the default schedule). `fp` is the [`crate::ChoiceLog::fingerprint`]
//! of the deviated ordinals observed when the token was minted: on
//! replay, a mismatch (or any plan misfit) means the code's schedule
//! structure has drifted and the token is stale rather than failing.

use std::collections::BTreeMap;
use std::fmt;

/// Leading magic of every v1 token line.
pub const TOKEN_PREFIX: &str = "ldft-explore/v1";

/// A parsed replay token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayToken {
    /// Target cell name (see [`crate::targets`]).
    pub target: String,
    /// Kernel seed the cell was built with.
    pub seed: u64,
    /// Deviation plan: choice ordinal → candidate index.
    pub plan: BTreeMap<u64, usize>,
    /// Fingerprint of the deviated choice points at mint time.
    pub fp: u64,
}

impl fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{TOKEN_PREFIX};target={};seed={};dev=",
            self.target, self.seed
        )?;
        if self.plan.is_empty() {
            write!(f, "-")?;
        } else {
            let mut first = true;
            for (o, i) in &self.plan {
                if !first {
                    write!(f, ",")?;
                }
                first = false;
                write!(f, "{o}:{i}")?;
            }
        }
        write!(f, ";fp={:016x}", self.fp)
    }
}

/// Why a token line failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenError(pub String);

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad replay token: {}", self.0)
    }
}

impl std::error::Error for TokenError {}

impl std::str::FromStr for ReplayToken {
    type Err = TokenError;

    fn from_str(line: &str) -> Result<Self, TokenError> {
        let line = line.trim();
        let mut parts = line.split(';');
        if parts.next() != Some(TOKEN_PREFIX) {
            return Err(TokenError(format!("missing `{TOKEN_PREFIX}` prefix")));
        }
        let mut target = None;
        let mut seed = None;
        let mut plan = None;
        let mut fp = None;
        for part in parts {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| TokenError(format!("field `{part}` has no `=`")))?;
            match key {
                "target" => target = Some(val.to_string()),
                "seed" => {
                    seed = Some(
                        val.parse::<u64>()
                            .map_err(|e| TokenError(format!("seed `{val}`: {e}")))?,
                    );
                }
                "dev" => {
                    let mut map = BTreeMap::new();
                    if val != "-" {
                        for pair in val.split(',') {
                            let (o, i) = pair.split_once(':').ok_or_else(|| {
                                TokenError(format!("deviation `{pair}` has no `:`"))
                            })?;
                            let o = o
                                .parse::<u64>()
                                .map_err(|e| TokenError(format!("ordinal `{o}`: {e}")))?;
                            let i = i
                                .parse::<usize>()
                                .map_err(|e| TokenError(format!("index `{i}`: {e}")))?;
                            if map.insert(o, i).is_some() {
                                return Err(TokenError(format!("duplicate ordinal {o}")));
                            }
                        }
                    }
                    plan = Some(map);
                }
                "fp" => {
                    fp = Some(
                        u64::from_str_radix(val, 16)
                            .map_err(|e| TokenError(format!("fp `{val}`: {e}")))?,
                    );
                }
                other => return Err(TokenError(format!("unknown field `{other}`"))),
            }
        }
        Ok(ReplayToken {
            target: target.ok_or_else(|| TokenError("missing target".into()))?,
            seed: seed.ok_or_else(|| TokenError("missing seed".into()))?,
            plan: plan.ok_or_else(|| TokenError("missing dev".into()))?,
            fp: fp.ok_or_else(|| TokenError("missing fp".into()))?,
        })
    }
}

impl ReplayToken {
    /// The ordinals this token deviates at, ascending.
    pub fn ordinals(&self) -> Vec<u64> {
        self.plan.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        let mut plan = BTreeMap::new();
        plan.insert(3u64, 1usize);
        plan.insert(17u64, 2usize);
        let t = ReplayToken {
            target: "quorum_heal".into(),
            seed: 42,
            plan,
            fp: 0x0123_4567_89ab_cdef,
        };
        let line = t.to_string();
        assert_eq!(
            line,
            "ldft-explore/v1;target=quorum_heal;seed=42;dev=3:1,17:2;fp=0123456789abcdef"
        );
        assert_eq!(line.parse::<ReplayToken>(), Ok(t));
    }

    #[test]
    fn empty_plan_round_trips() {
        let t = ReplayToken {
            target: "recovery_race".into(),
            seed: 7,
            plan: BTreeMap::new(),
            fp: 1,
        };
        let line = t.to_string();
        assert!(line.contains(";dev=-;"));
        assert_eq!(line.parse::<ReplayToken>(), Ok(t));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "nonsense",
            "ldft-explore/v2;target=x;seed=1;dev=-;fp=0",
            "ldft-explore/v1;target=x;dev=-;fp=0",
            "ldft-explore/v1;target=x;seed=1;dev=3;fp=0",
            "ldft-explore/v1;target=x;seed=1;dev=3:1,3:2;fp=0",
            "ldft-explore/v1;target=x;seed=1;dev=-;fp=zz",
        ] {
            assert!(bad.parse::<ReplayToken>().is_err(), "accepted: {bad}");
        }
    }
}
