//! A small MSHR (miss status holding register) file model.
//!
//! The paper's L1 caches have 8 MSHR entries (§4). The trace-driven core
//! model uses the MSHR file to bound how many outstanding misses can
//! overlap, which caps the effective memory-level parallelism applied when
//! discounting miss stalls.

use crate::Line;

/// Tracks outstanding misses with a bounded number of entries.
///
/// Each in-flight miss occupies one register until its completion time;
/// requests to the same line merge into the existing entry (a secondary
/// miss), which is the defining behaviour of an MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<(Line, u64)>,
    capacity: usize,
    /// Primary misses allocated.
    pub primary_misses: u64,
    /// Secondary misses merged into an existing entry.
    pub secondary_misses: u64,
    /// Requests that stalled because the file was full.
    pub full_stalls: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            primary_misses: 0,
            secondary_misses: 0,
            full_stalls: 0,
        }
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Retires every entry whose completion time is at or before `now`.
    pub fn drain(&mut self, now: u64) {
        self.entries.retain(|&(_, done)| done > now);
    }

    /// Attempts to track a miss to `line` completing at `done_at`.
    ///
    /// Returns the earliest cycle at which the request can proceed: `now`
    /// if a register was free or the line already had an entry, otherwise
    /// the completion time of the earliest-finishing outstanding miss (the
    /// request must stall until a register frees up).
    pub fn allocate(&mut self, now: u64, line: Line, done_at: u64) -> u64 {
        self.drain(now);
        if let Some(&(_, done)) = self.entries.iter().find(|&&(l, _)| l == line) {
            self.secondary_misses += 1;
            return done.max(now);
        }
        if self.entries.len() < self.capacity {
            self.primary_misses += 1;
            self.entries.push((line, done_at));
            return now;
        }
        self.full_stalls += 1;
        #[expect(
            clippy::expect_used,
            reason = "reached only when the file is full, and capacity is validated >= 1 at construction, so entries is non-empty"
        )]
        let earliest = self
            .entries
            .iter()
            .map(|&(_, done)| done)
            .min()
            .expect("full MSHR file is non-empty");
        self.drain(earliest);
        self.primary_misses += 1;
        self.entries.push((line, done_at.max(earliest)));
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_until_full() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0, 1, 100), 0);
        assert_eq!(m.allocate(0, 2, 100), 0);
        assert_eq!(m.outstanding(), 2);
        // Third distinct miss stalls until cycle 100.
        assert_eq!(m.allocate(0, 3, 200), 100);
        assert_eq!(m.full_stalls, 1);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(2);
        m.allocate(0, 7, 50);
        let ready = m.allocate(10, 7, 60);
        assert_eq!(ready, 50, "secondary miss waits for the primary");
        assert_eq!(m.secondary_misses, 1);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    fn drain_retires_finished() {
        let mut m = MshrFile::new(4);
        m.allocate(0, 1, 10);
        m.allocate(0, 2, 20);
        m.drain(15);
        assert_eq!(m.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }
}
