//! Wall-clock accounting for the parallel experiment matrix: per-cell
//! compute seconds plus the elapsed wall time, from which the harness
//! reports cells/sec and the speedup over a serial schedule.
//!
//! This module is the **only** place in the workspace allowed to read
//! the wall clock (`clippy.toml` disallows `Instant`, `SystemTime` and
//! `thread::sleep` everywhere else): simulation results must be pure
//! functions of (config, workload, policy, seed), so wall-clock reads
//! are quarantined behind [`Stopwatch`] and only ever feed *reporting*
//! fields like [`MatrixTiming`], never simulated state.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the workspace's one wall-clock module: Stopwatch and sleep_seconds feed reporting and supervision, never simulated state"
)]

/// A quarantined wall-clock stopwatch.
///
/// The harness starts one per matrix run and one per cell; the elapsed
/// seconds land in [`MatrixTiming`]. Keeping the `Instant` behind this
/// type means clippy's `disallowed_types` outside this module is
/// sufficient to prove simulated state never observes the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            started: std::time::Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether at least `seconds` of wall time have elapsed since
    /// [`Stopwatch::start`] — the supervisor's deadline predicate.
    pub fn has_elapsed(&self, seconds: f64) -> bool {
        self.elapsed_seconds() >= seconds
    }
}

/// Puts the calling thread to sleep for `seconds` of wall time (no-op
/// for non-positive or non-finite durations).
///
/// Like [`Stopwatch`], this is quarantined here so the rest of the
/// workspace never names `std::time`: sleeping is used only on the
/// *reporting/supervision* side (retry backoff, deadline polling) and
/// can never perturb simulated state.
pub fn sleep_seconds(seconds: f64) {
    if seconds > 0.0 && seconds.is_finite() {
        std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    }
}

/// Timing of one matrix run: how long each cell took on its worker
/// thread, and how long the whole matrix took end to end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixTiming {
    /// Elapsed wall-clock seconds for the whole matrix.
    pub wall_seconds: f64,
    /// Per-cell compute seconds, in cell order.
    pub cell_seconds: Vec<f64>,
}

impl MatrixTiming {
    /// Number of cells timed.
    pub fn cells(&self) -> usize {
        self.cell_seconds.len()
    }

    /// Sum of per-cell compute seconds — the wall time a serial schedule
    /// would have needed (modulo scheduling noise).
    pub fn serial_seconds(&self) -> f64 {
        self.cell_seconds.iter().sum()
    }

    /// Cells completed per wall-clock second (0 for an empty matrix).
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.cells() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Speedup of the observed wall time over the serial schedule
    /// (1.0 when nothing was timed).
    pub fn parallel_speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 && !self.cell_seconds.is_empty() {
            self.serial_seconds() / self.wall_seconds
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let t = MatrixTiming {
            wall_seconds: 2.0,
            cell_seconds: vec![1.0, 1.5, 1.5],
        };
        assert_eq!(t.cells(), 3);
        assert_eq!(t.serial_seconds(), 4.0);
        assert_eq!(t.cells_per_sec(), 1.5);
        assert_eq!(t.parallel_speedup(), 2.0);
    }

    #[test]
    fn empty_matrix_is_well_defined() {
        let t = MatrixTiming::default();
        assert_eq!(t.cells(), 0);
        assert_eq!(t.cells_per_sec(), 0.0);
        assert_eq!(t.parallel_speedup(), 1.0);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn sleep_and_deadline_predicate() {
        let sw = Stopwatch::start();
        assert!(sw.has_elapsed(0.0));
        assert!(!sw.has_elapsed(3600.0));
        sleep_seconds(0.001);
        assert!(sw.has_elapsed(0.001));
        // Degenerate durations are no-ops, not panics.
        sleep_seconds(-1.0);
        sleep_seconds(f64::NAN);
    }
}
