//! # ldft-benchmark — the repo benchmark
//!
//! Two clocks, five pinned workloads, per-layer numbers taken from outside
//! the crates under test. See `README.md` beside this package for what
//! every metric means; `BENCHMARK.json` at the repo root is the contract
//! the driver reads.
//!
//! * [`spec`] — names, units, bounds: the single source `BENCHMARK.json`
//!   is generated from.
//! * [`workloads`] — the five workloads and what one rep returns.
//! * [`harness`] — warm-up, timed reps, traced pass, metric assembly.
//! * [`trace`] / [`probes`] — spans, kernel-mark timing, thread CPU, and
//!   the timed single-layer loops.
//! * [`results`] / [`compare`] — `results.json` and `--compare`.

pub mod compare;
pub mod harness;
pub mod json;
pub mod probes;
pub mod results;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
