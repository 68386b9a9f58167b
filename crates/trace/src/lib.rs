//! # morph-trace
//!
//! Synthetic workload generation for the MorphCache reproduction.
//!
//! The paper drives a Simics full-system simulator with SPEC CPU 2006
//! (reference inputs) and PARSEC (simlarge). Neither the traces nor the
//! simulator are available, so this crate substitutes **synthetic phased
//! working-set streams calibrated to the paper's own workload
//! characterization** (Table 4): for every benchmark the paper publishes
//! the mean Active Cache Footprint at L2 and L3 (as a fraction of a 256 KB
//! L2 / 1 MB L3 slice), its temporal standard deviation σ_t, and — for the
//! multithreaded PARSEC programs — the spatial standard deviation σ_s
//! across threads. Those four to six numbers are exactly the features the
//! MorphCache decision engine consumes, so streams that reproduce them
//! exercise the same merge/split decision space as the original runs.
//!
//! * [`profile`] — the [`profile::BenchmarkProfile`] type;
//! * [`spec`] — all 29 SPEC CPU 2006 profiles of Table 4 (with the
//!   paper's class labels);
//! * [`parsec`] — all 12 PARSEC profiles of Table 4, plus a data-sharing
//!   fraction per benchmark;
//! * [`mixes`] — the 12 multiprogrammed mixes of Table 5;
//! * [`stream`] — the phased working-set address generator.
//!
//! # Example
//!
//! ```
//! use morph_trace::{mixes, spec, stream::{StreamConfig, SyntheticStream, AccessStream}};
//!
//! let mix = mixes::mix(1).unwrap(); // MIX 01
//! assert_eq!(mix.benchmarks.len(), 16);
//! let profile = spec::profile("hmmer").unwrap();
//! let mut s = SyntheticStream::new(profile, StreamConfig::single_threaded(0, 42));
//! let a = s.next_access();
//! assert!(a.line > 0);
//! ```

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

pub mod mixes;
pub mod parsec;
pub mod profile;
pub mod spec;
pub mod stream;

pub use mixes::{Mix, MIX_COUNT};
pub use profile::{BenchmarkProfile, Suite};
pub use stream::{Access, AccessStream, StreamConfig, SyntheticStream};
