//! # corba-ldft — CORBA-based runtime support for load distribution and fault tolerance
//!
//! A full Rust reproduction of Barth, Flender, Freisleben, Grauer & Thilo,
//! *"CORBA Based Runtime Support for Load Distribution and Fault
//! Tolerance"* (IPPS/SPDP Workshops 2000), including every substrate the
//! paper depends on. This crate re-exports the workspace members; see the
//! README for the architecture and `EXPERIMENTS.md` for the reproduced
//! figures and tables.
//!
//! * [`simnet`] — deterministic simulated network of workstations.
//! * [`cdr`] — CORBA Common Data Representation marshalling.
//! * [`orb`] — the mini-ORB (GIOP-lite, POA, DII, COMM_FAILURE semantics).
//! * [`idlc`] — the IDL compiler (stubs, skeletons, FT proxies).
//! * [`winner`] — the Winner resource management system.
//! * [`cosnaming`] — COS Naming with integrated load distribution.
//! * [`ftproxy`] — checkpointing proxies, factories, detector.
//! * [`optim`] — Complex Box optimization and the manager/worker layer.
//! * [`corba_runtime`] — the assembled cluster and experiment scenarios.

pub use cdr;
pub use corba_runtime;
pub use cosnaming;
pub use ftproxy;
pub use idlc;
pub use optim;
pub use orb;
pub use simnet;
pub use winner;
