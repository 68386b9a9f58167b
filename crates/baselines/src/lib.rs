//! # morph-baselines
//!
//! The two prior-art cache-management schemes the paper compares against
//! in Fig. 17, both extended from their original single-level form to the
//! L2 + L3 hierarchy exactly as the paper describes:
//!
//! * [`pipp`] — **Promotion/Insertion Pseudo-Partitioning** (Xie & Loh,
//!   ISCA 2009 \[28\]) applied to a fully shared cache at each level: new
//!   lines are inserted at a priority position equal to the owning core's
//!   allocated way count (computed by UCP lookahead partitioning over
//!   UMON utility monitors), and promoted by a single position on hits
//!   with fixed probability.
//! * [`dsr`] — **Dynamic Spill-Receive** (Qureshi, HPCA 2009 \[18\]) applied
//!   to per-core private caches at each level: set-dueling PSEL counters
//!   teach each cache whether to act as a *spiller* (evicted lines are
//!   spilled into a receiver's matching set) or a *receiver*.
//!
//! Both systems implement
//! [`MemorySubsystem`](morph_cache::MemorySubsystem), so the system
//! simulator drives them interchangeably with the MorphCache hierarchy —
//! same L1s, same latencies (Table 3 with the paper's static-topology
//! assumption of fixed L2/L3 hit costs), same inclusion rules.

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

pub mod dsr;
pub mod pipp;

pub use dsr::{DsrSystem, SpillRole};
pub use pipp::{lookahead_partition, PippSystem, UtilityMonitor};
