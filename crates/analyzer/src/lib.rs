//! # morph-analyzer
//!
//! A model check of the MorphCache merge/split reconfiguration lattice
//! ([`lattice`]): every reachable `(L2, L3)` topology state is proved to
//! be a valid buddy partition, preserve inclusion capacity, keep the
//! arbitration graph a spanning tree, and remain reversible back to the
//! all-private base. Up to 16 slices the check is an exhaustive
//! enumeration ([`lattice::Lattice`]); at 64–1024 slices the
//! symmetry-reduced [`lattice::ReducedLattice`] enumerates canonical
//! forms at the 16-slice base (cross-checked against the full
//! enumeration) and verifies the larger geometry compositionally.
//!
//! The `morph-lint` binary runs it:
//!
//! ```text
//! morph-lint lattice [--json] [--slices N]   # exit 1 on violations
//! ```
//!
//! The workspace's determinism and no-panic rules are clippy lints
//! (`clippy.toml` plus each library crate's `#![warn(...)]` line); see
//! DESIGN.md §10.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod lattice;

pub use lattice::{Lattice, LatticeReport, ReducedLattice, ReducedReport};
