//! The `FT` module of `idl/ft.idl` as Rust: `generated.rs`, included
//! below, is `idlc`'s output for it — the [`Checkpoint`] record and the
//! trait, skeleton and stub of `FT::CheckpointService` and
//! `FT::ServiceFactory`.

// `native Epoch` of the contract.
pub use cdr::Epoch;

include!("generated.rs");
pub use FT::Checkpoint;
