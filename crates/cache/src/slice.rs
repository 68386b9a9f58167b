//! Physical cache slices and groupable cache levels.
//!
//! A [`Slice`] is one physical set-associative array. A [`CacheLevel`] owns
//! all slices of one level (L2 or L3) plus the current [`Grouping`]; lookups
//! and insertions operate on the *group* of the requesting core's home
//! slice, realizing the paper's merged-slice semantics: set `i` of a merged
//! group is the concatenation of set `i`'s ways across member slices, with
//! victim selection by global LRU over the whole group.

use crate::events::{CacheEventSink, Level};
use crate::group::Grouping;
use crate::params::CacheParams;
use crate::replacement::{ReplacementKind, TreePlru};
use crate::stats::{LevelStats, SliceStats};
use crate::{ConfigError, CoreId, Line, SliceId};

/// One resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Full line address (block-granular).
    pub line: Line,
    /// Core that brought the line in.
    pub owner: CoreId,
    /// Monotonic recency stamp (larger = more recent).
    pub stamp: u64,
    /// Whether the line has been written since installation.
    pub dirty: bool,
}

/// Sentinel marking an invalid way in the compact tag array.
const NO_LINE: Line = Line::MAX;

/// Sentinel marking a full row in [`CacheLevel`]'s first-invalid-way
/// summary.
const NO_WAY: u32 = u32::MAX;

use crate::prefetch;

/// The fused stamp pass behind [`Slice::placement_scan`]: the first
/// invalid way of a stamp row (if any), plus the first minimum-stamp valid
/// way and its stamp (way 0 and `u64::MAX` when no way is valid).
#[inline]
fn placement_scan(stamps: &[u64]) -> (Option<usize>, usize, u64) {
    let mut invalid = None;
    let (mut best, mut best_stamp) = (0usize, u64::MAX);
    for (w, &st) in stamps.iter().enumerate() {
        if st == u64::MAX {
            if invalid.is_none() {
                invalid = Some(w);
            }
        } else if st < best_stamp {
            best_stamp = st;
            best = w;
        }
    }
    (invalid, best, best_stamp)
}

/// A physical cache slice: `sets × ways` of ways in struct-of-arrays
/// layout.
///
/// Private L1s (and the baseline systems' slices) use this type; the
/// groupable L2/L3 levels store their slices inside [`CacheLevel`]. The
/// probe path scans 8-byte line addresses (`tags`) contiguously; recency
/// stamps, owners and dirty bits live in parallel arrays touched only by
/// the paths that need them, so a probe never drags 32-byte
/// `Option<Entry>` slots (plus the discriminant branch) through the host
/// cache. A way is
/// valid iff its tag is not `NO_LINE`; invalid ways carry stamp
/// `u64::MAX` so LRU scans skip them without a branch. [`Entry`] remains
/// the exchange type at the API boundary (install/invalidate/iterate) and
/// is materialized from the arrays on demand.
#[derive(Debug, Clone)]
pub struct Slice {
    params: CacheParams,
    tags: Vec<Line>,
    stamps: Vec<u64>,
    owners: Vec<CoreId>,
    /// Dirty bits, one per way slot, packed 64 per word.
    dirty: Vec<u64>,
    plru: Vec<TreePlru>,
    kind: ReplacementKind,
    /// Access statistics for this slice.
    pub stats: SliceStats,
}

impl Slice {
    /// Creates an empty slice with the given geometry and replacement kind.
    pub fn new(params: CacheParams, kind: ReplacementKind) -> Self {
        let plru = match kind {
            ReplacementKind::TreePlru => (0..params.sets())
                .map(|_| TreePlru::new(params.ways()))
                .collect(),
            ReplacementKind::Lru => Vec::new(),
        };
        let slots = params.sets() * params.ways();
        Self {
            params,
            tags: vec![NO_LINE; slots],
            stamps: vec![u64::MAX; slots],
            owners: vec![0; slots],
            dirty: vec![0; slots.div_ceil(64)],
            plru,
            kind,
            stats: SliceStats::default(),
        }
    }

    /// Geometry of this slice.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.params.ways()
    }

    #[inline]
    fn dirty_bit(&self, idx: usize) -> bool {
        (self.dirty[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    #[inline]
    fn write_dirty_bit(&mut self, idx: usize, d: bool) {
        let mask = 1u64 << (idx & 63);
        if d {
            self.dirty[idx >> 6] |= mask;
        } else {
            self.dirty[idx >> 6] &= !mask;
        }
    }

    /// Materializes the entry at flat index `idx`, which must be valid.
    #[inline]
    fn entry_at(&self, idx: usize) -> Entry {
        debug_assert_ne!(self.tags[idx], NO_LINE, "entry_at on an invalid way");
        Entry {
            line: self.tags[idx],
            owner: self.owners[idx],
            stamp: self.stamps[idx],
            dirty: self.dirty_bit(idx),
        }
    }

    #[inline]
    fn clear_slot(&mut self, idx: usize) {
        self.tags[idx] = NO_LINE;
        self.stamps[idx] = u64::MAX;
        self.write_dirty_bit(idx, false);
    }

    /// Returns the way holding `line`, if resident.
    #[inline]
    pub fn probe(&self, line: Line) -> Option<usize> {
        self.probe_in_set(self.params.set_index(line), line)
    }

    /// [`Self::probe`] with the set index precomputed by the caller.
    ///
    /// Group scans probe every member slice for the same line; all slices
    /// of a level share one geometry, so the caller hoists the set-index
    /// computation out of the member loop and passes it here.
    #[inline]
    pub fn probe_in_set(&self, set: usize, line: Line) -> Option<usize> {
        let base = self.base(set);
        let ways = self.params.ways();
        self.tags[base..base + ways].iter().position(|&t| t == line)
    }

    /// The entry at `(set, way)`, materialized from the parallel arrays.
    pub fn entry(&self, set: usize, way: usize) -> Option<Entry> {
        let idx = self.base(set) + way;
        (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx))
    }

    /// The recency stamp at `(set, way)` (`u64::MAX` for an invalid way).
    #[inline]
    pub fn stamp(&self, set: usize, way: usize) -> u64 {
        self.stamps[self.base(set) + way]
    }

    /// Marks the line at `(set, way)` dirty (no-op on an invalid way).
    pub fn set_dirty(&mut self, set: usize, way: usize) {
        let idx = self.base(set) + way;
        if self.tags[idx] != NO_LINE {
            self.write_dirty_bit(idx, true);
        }
    }

    /// Records a hit on `(set, way)`: refreshes the recency stamp and the
    /// PLRU tree (if in use).
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, stamp: u64) {
        let idx = self.base(set) + way;
        if self.tags[idx] != NO_LINE {
            self.stamps[idx] = stamp;
        }
        if self.kind == ReplacementKind::TreePlru {
            self.plru[set].touch(way);
        }
    }

    /// First invalid way in `set`, if any.
    #[inline]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        let base = self.base(set);
        self.tags[base..base + self.params.ways()]
            .iter()
            .position(|&t| t == NO_LINE)
    }

    /// The valid way with the smallest recency stamp in `set`, with that
    /// stamp. `None` if the set is entirely invalid (invalid ways carry
    /// stamp `u64::MAX`, so the strict `<` scan skips them for free).
    #[inline]
    pub fn lru_way(&self, set: usize) -> Option<(usize, u64)> {
        let base = self.base(set);
        let (mut best, mut best_stamp) = (None, u64::MAX);
        for (w, &st) in self.stamps[base..base + self.params.ways()]
            .iter()
            .enumerate()
        {
            if st < best_stamp {
                best_stamp = st;
                best = Some(w);
            }
        }
        best.map(|w| (w, best_stamp))
    }

    /// One fused pass over the recency stamps of `set`, returning the
    /// first invalid way (if any), plus the first minimum-stamp valid way
    /// and its stamp.
    ///
    /// Invalid ways carry stamp `u64::MAX` (established at construction
    /// and restored by `clear_slot`) while live stamps are monotonic from
    /// zero, so validity is decidable from the stamp array alone: the
    /// placement scan touches one dense array per slice instead of a tag
    /// pass per invalid-way query plus a stamp pass for the LRU victim.
    /// When the set holds no valid way the returned victim defaults to
    /// way 0 with stamp `u64::MAX`; callers take the invalid way in that
    /// case.
    #[inline]
    pub fn placement_scan(&self, set: usize) -> (Option<usize>, usize, u64) {
        let base = self.base(set);
        placement_scan(&self.stamps[base..base + self.params.ways()])
    }

    /// The pseudo-LRU victim way for `set`.
    ///
    /// Debug builds assert this slice uses [`ReplacementKind::TreePlru`];
    /// release builds skip the check — the kind is fixed at construction
    /// and the only caller ([`CacheLevel::insert`]) dispatches on it, so
    /// re-checking on every replacement in the hot loop buys nothing.
    pub fn plru_victim(&self, set: usize) -> usize {
        debug_assert_eq!(
            self.kind,
            ReplacementKind::TreePlru,
            "slice is not in PLRU mode"
        );
        self.plru[set].victim()
    }

    /// Installs `entry` at `(set, way)`, returning any displaced entry.
    pub fn install(&mut self, set: usize, way: usize, entry: Entry) -> Option<Entry> {
        if self.kind == ReplacementKind::TreePlru {
            self.plru[set].touch(way);
        }
        self.stats.insertions += 1;
        let idx = self.base(set) + way;
        let displaced = (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx));
        self.tags[idx] = entry.line;
        self.stamps[idx] = entry.stamp;
        self.owners[idx] = entry.owner;
        self.write_dirty_bit(idx, entry.dirty);
        displaced
    }

    /// Removes `line` if resident, returning the removed entry.
    pub fn invalidate(&mut self, line: Line) -> Option<Entry> {
        let way = self.probe(line)?;
        let set = self.params.set_index(line);
        self.invalidate_way(set, way)
    }

    /// Removes the entry at `(set, way)` if valid, returning it.
    #[inline]
    pub fn invalidate_way(&mut self, set: usize, way: usize) -> Option<Entry> {
        let idx = self.base(set) + way;
        if self.tags[idx] == NO_LINE {
            return None;
        }
        let removed = self.entry_at(idx);
        self.clear_slot(idx);
        Some(removed)
    }

    /// Number of valid entries in the whole slice.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_LINE).count()
    }

    /// Iterates over all valid entries (materialized by value).
    pub fn iter_entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != NO_LINE)
            .map(|(idx, _)| self.entry_at(idx))
    }

    /// Removes every entry for which `pred` returns true, invoking `f` on
    /// each removed entry. Used for inclusion enforcement on
    /// reconfiguration.
    pub fn retain_entries(
        &mut self,
        mut pred: impl FnMut(&Entry) -> bool,
        mut f: impl FnMut(Entry),
    ) {
        for idx in 0..self.tags.len() {
            if self.tags[idx] != NO_LINE {
                let e = self.entry_at(idx);
                if !pred(&e) {
                    self.clear_slot(idx);
                    f(e);
                }
            }
        }
    }

    /// Empties the slice.
    pub fn clear(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = NO_LINE);
        self.stamps.iter_mut().for_each(|s| *s = u64::MAX);
        self.dirty.iter_mut().for_each(|d| *d = 0);
    }
}

/// Where a group lookup found the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupHit {
    /// Slice that served the hit.
    pub slice: SliceId,
    /// True if that slice is the requester's home slice.
    pub local: bool,
}

/// A line displaced from the level by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Slice the entry was displaced from.
    pub slice: SliceId,
    /// The displaced entry.
    pub entry: Entry,
}

/// All slices of one groupable level (L2 or L3) plus the active grouping.
///
/// Core `c`'s *home slice* is slice `c` (the paper co-locates one L2 and one
/// L3 slice with each core, Fig. 12).
///
/// Storage is **level-owned and set-major**: the flat slot of `(set,
/// slice, way)` is `(set * n_slices + slice) * ways + way`, so set `i` of
/// a merged group of adjacent slices is one contiguous run of ways. Group
/// lookups and global-LRU placement scans — the simulator's hottest loops
/// — then walk sequential memory the host's hardware prefetcher can
/// stream. With one array per `Slice` (the previous layout), the same
/// scans took one *dependent* host-cache miss per member, because member
/// rows of the same set live hundreds of KiB apart.
///
/// Each row `(set, slice)` also carries a **placement summary** in three
/// flat arrays indexed like the rows (`set * n_slices + slice`): its
/// minimum valid stamp, that stamp's way, and its first invalid way. A
/// warm fill into an `m`-member group then reads `m` summaries instead of
/// `m × ways` stamps. Every valid stamp is drawn from the level's
/// monotonic counter, so valid stamps are unique and the summary's
/// minimum is exactly the first minimum a full stamp scan returns.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    level: Level,
    /// Per-slice geometry (all slices of a level are identical).
    params: CacheParams,
    n_slices: usize,
    /// Line tags; [`NO_LINE`] marks an invalid way.
    tags: Vec<Line>,
    /// Recency stamps; `u64::MAX` on invalid ways (see
    /// [`Slice::placement_scan`] for the invariant this buys).
    stamps: Vec<u64>,
    /// Per-row minimum stamp (`u64::MAX` when the row holds no valid way).
    row_lru_stamp: Vec<u64>,
    /// Per-row way of that minimum (0 when the row holds no valid way).
    row_lru_way: Vec<u32>,
    /// Per-row first invalid way, or [`NO_WAY`] when the row is full.
    row_free_way: Vec<u32>,
    /// Owning core of each way, as `u32` to pay for the placement
    /// summaries' memory. Lossless: an owner is the inserting core, whose
    /// home slice indexes the grouping, so it is below `n_slices`.
    owners: Vec<u32>,
    /// Dirty bits, one per way slot, packed 64 per word.
    dirty: Vec<u64>,
    /// One PLRU tree per `(slice, set)` at `slice * sets + set`; empty in
    /// LRU mode.
    plru: Vec<TreePlru>,
    slice_stats: Vec<SliceStats>,
    grouping: Grouping,
    kind: ReplacementKind,
    stamp: u64,
    rr: usize,
    /// Access statistics for the level.
    pub stats: LevelStats,
}

impl CacheLevel {
    /// Creates a level of `n_slices` identical private slices.
    pub fn new(
        level: Level,
        n_slices: usize,
        slice_params: CacheParams,
        kind: ReplacementKind,
    ) -> Self {
        let rows = n_slices * slice_params.sets();
        let slots = rows * slice_params.ways();
        let plru = match kind {
            ReplacementKind::TreePlru => (0..n_slices * slice_params.sets())
                .map(|_| TreePlru::new(slice_params.ways()))
                .collect(),
            ReplacementKind::Lru => Vec::new(),
        };
        Self {
            level,
            params: slice_params,
            n_slices,
            tags: vec![NO_LINE; slots],
            stamps: vec![u64::MAX; slots],
            row_lru_stamp: vec![u64::MAX; rows],
            row_lru_way: vec![0; rows],
            row_free_way: vec![0; rows],
            owners: vec![0; slots],
            dirty: vec![0; slots.div_ceil(64)],
            plru,
            slice_stats: vec![SliceStats::default(); n_slices],
            grouping: Grouping::private(n_slices),
            kind,
            stamp: 0,
            rr: 0,
            stats: LevelStats::new(n_slices),
        }
    }

    /// Row number of `(set, slice)`: the index of its placement summary.
    #[inline]
    fn row_id(&self, set: usize, s: SliceId) -> usize {
        set * self.n_slices + s
    }

    /// Flat slot of way 0 of `(set, slice)`.
    #[inline]
    fn row(&self, set: usize, s: SliceId) -> usize {
        self.row_id(set, s) * self.params.ways()
    }

    #[inline]
    fn dirty_bit(&self, idx: usize) -> bool {
        (self.dirty[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    #[inline]
    fn write_dirty_bit(&mut self, idx: usize, d: bool) {
        let mask = 1u64 << (idx & 63);
        if d {
            self.dirty[idx >> 6] |= mask;
        } else {
            self.dirty[idx >> 6] &= !mask;
        }
    }

    /// Materializes the entry at flat slot `idx`, which must be valid.
    #[inline]
    fn entry_at(&self, idx: usize) -> Entry {
        debug_assert_ne!(self.tags[idx], NO_LINE, "entry_at on an invalid way");
        Entry {
            line: self.tags[idx],
            owner: self.owners[idx] as CoreId,
            stamp: self.stamps[idx],
            dirty: self.dirty_bit(idx),
        }
    }

    #[inline]
    fn clear_slot(&mut self, idx: usize) {
        self.tags[idx] = NO_LINE;
        self.stamps[idx] = u64::MAX;
        self.write_dirty_bit(idx, false);
        self.refresh_row(idx / self.params.ways());
    }

    /// [`Slice::placement_scan`] over the stamps of row `r`: the ground
    /// truth the row's placement summary caches.
    #[inline]
    fn scan_row(&self, r: usize) -> (Option<usize>, usize, u64) {
        let ways = self.params.ways();
        placement_scan(&self.stamps[r * ways..(r + 1) * ways])
    }

    /// Recomputes the placement summary of row `r` from its stamps.
    #[inline]
    fn refresh_row(&mut self, r: usize) {
        let (free, way, stamp) = self.scan_row(r);
        self.row_lru_stamp[r] = stamp;
        self.row_lru_way[r] = way as u32;
        self.row_free_way[r] = free.map_or(NO_WAY, |w| w as u32);
    }

    /// Way of `(set, s)` holding `line`, if resident there.
    #[inline]
    fn probe_row(&self, set: usize, s: SliceId, line: Line) -> Option<usize> {
        let base = self.row(set, s);
        let ways = self.params.ways();
        self.tags[base..base + ways].iter().position(|&t| t == line)
    }

    /// The placement summary of `(set, s)`: first invalid way, minimum
    /// valid stamp's way and that stamp — the answer of a fused stamp scan
    /// ([`Slice::placement_scan`]'s contract) without reading the stamps.
    #[inline]
    fn placement_scan_row(&self, set: usize, s: SliceId) -> (Option<usize>, usize, u64) {
        let r = self.row_id(set, s);
        let free = self.row_free_way[r];
        let summary = (
            (free != NO_WAY).then_some(free as usize),
            self.row_lru_way[r] as usize,
            self.row_lru_stamp[r],
        );
        debug_assert_eq!(
            summary,
            self.scan_row(r),
            "placement summary of set {set} slice {s} out of sync"
        );
        summary
    }

    /// Refreshes recency (and the PLRU tree, in PLRU mode) on a hit.
    #[inline]
    fn touch_at(&mut self, set: usize, s: SliceId, way: usize, stamp: u64) {
        let r = self.row_id(set, s);
        let idx = r * self.params.ways() + way;
        if self.tags[idx] != NO_LINE {
            self.stamps[idx] = stamp;
            // A touch only raises a stamp, so the row's minimum moves only
            // when the touched way held it.
            if self.row_lru_way[r] as usize == way {
                self.refresh_row(r);
            }
        }
        if self.kind == ReplacementKind::TreePlru {
            let p = s * self.params.sets() + set;
            self.plru[p].touch(way);
        }
    }

    /// Installs `entry` at `(set, s, way)`, returning any displaced entry.
    fn install_at(&mut self, set: usize, s: SliceId, way: usize, entry: Entry) -> Option<Entry> {
        if self.kind == ReplacementKind::TreePlru {
            let p = s * self.params.sets() + set;
            self.plru[p].touch(way);
        }
        self.slice_stats[s].insertions += 1;
        let idx = self.row(set, s) + way;
        let displaced = (self.tags[idx] != NO_LINE).then(|| self.entry_at(idx));
        self.tags[idx] = entry.line;
        self.stamps[idx] = entry.stamp;
        self.owners[idx] = entry.owner as u32;
        self.write_dirty_bit(idx, entry.dirty);
        self.refresh_row(idx / self.params.ways());
        displaced
    }

    /// Removes the entry at `(set, s, way)` if valid, returning it.
    #[inline]
    fn invalidate_way_at(&mut self, set: usize, s: SliceId, way: usize) -> Option<Entry> {
        let idx = self.row(set, s) + way;
        if self.tags[idx] == NO_LINE {
            return None;
        }
        let removed = self.entry_at(idx);
        self.clear_slot(idx);
        Some(removed)
    }

    /// Removes `line` from `(set, s)` if resident, returning it.
    #[inline]
    fn invalidate_row(&mut self, set: usize, s: SliceId, line: Line) -> Option<Entry> {
        let way = self.probe_row(set, s, line)?;
        self.invalidate_way_at(set, s, way)
    }

    /// Which hierarchy level this is.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.n_slices
    }

    /// Geometry of each (identical) slice.
    pub fn slice_params(&self) -> &CacheParams {
        &self.params
    }

    /// The active grouping.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Access statistics of one slice.
    pub fn slice_stats(&self, s: SliceId) -> &SliceStats {
        &self.slice_stats[s]
    }

    /// Mutable access statistics of one slice (the hierarchy attributes
    /// reconfiguration back-invalidations here).
    pub fn slice_stats_mut(&mut self, s: SliceId) -> &mut SliceStats {
        &mut self.slice_stats[s]
    }

    /// Iterates the valid entries of slice `s` (materialized by value),
    /// in `(set, way)` order.
    pub fn iter_slice_entries(&self, s: SliceId) -> impl Iterator<Item = Entry> + '_ {
        let ways = self.params.ways();
        (0..self.params.sets()).flat_map(move |set| {
            let base = self.row(set, s);
            (0..ways)
                .filter(move |w| self.tags[base + w] != NO_LINE)
                .map(move |w| self.entry_at(base + w))
        })
    }

    /// Removes every entry of slice `s` for which `pred` returns false,
    /// invoking `f` on each removed entry in `(set, way)` order. Used for
    /// inclusion enforcement on reconfiguration.
    pub fn retain_slice_entries(
        &mut self,
        s: SliceId,
        mut pred: impl FnMut(&Entry) -> bool,
        mut f: impl FnMut(Entry),
    ) {
        for set in 0..self.params.sets() {
            let base = self.row(set, s);
            for idx in base..base + self.params.ways() {
                if self.tags[idx] != NO_LINE {
                    let e = self.entry_at(idx);
                    if !pred(&e) {
                        self.clear_slot(idx);
                        f(e);
                    }
                }
            }
        }
    }

    /// Replaces the grouping. The caller (the [`Hierarchy`](crate::Hierarchy)) is responsible
    /// for inclusion checks between levels.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGrouping`] if the grouping covers a
    /// different number of slices.
    pub fn set_grouping(&mut self, g: Grouping) -> Result<(), ConfigError> {
        if g.n_slices() != self.n_slices {
            return Err(ConfigError::InvalidGrouping(format!(
                "grouping covers {} slices, level has {}",
                g.n_slices(),
                self.n_slices
            )));
        }
        self.grouping = g;
        Ok(())
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Hints the CPU to fetch what a [`Self::lookup`] of `line` by `core`
    /// will read first: the tag row of every member of `core`'s group.
    /// Issued by the hierarchy at access entry so the fetch overlaps the
    /// L1 probe that precedes the group scan.
    #[inline]
    pub fn prefetch_lookup(&self, core: CoreId, line: Line) {
        let set = self.params.set_index(line);
        for &s in self.grouping.group_members(core) {
            prefetch(&self.tags[self.row(set, s)]);
        }
    }

    /// Looks `line` up in the group of `core`'s home slice.
    ///
    /// If the line is resident in several member slices (possible right
    /// after a merge), stale copies are *lazily invalidated* (§2.2) and
    /// reported to `sink` as evictions. At most four stale copies go per
    /// lookup: when a group of six or more members holds more than five
    /// copies, the extra ones survive this lookup and later lookups
    /// collapse them (DESIGN.md §7, "Bounded lazy invalidation").
    ///
    /// Records hit/miss statistics and refreshes recency on a hit.
    pub fn lookup(
        &mut self,
        core: CoreId,
        line: Line,
        sink: &mut dyn CacheEventSink,
    ) -> Option<GroupHit> {
        // All slices of a level share one geometry, so the set index can
        // be computed once for the whole group scan.
        let set = self.params.set_index(line);
        let members: &[SliceId] = self.grouping.group_members(core);
        // Fast path: a private (singleton) group cannot hold duplicates,
        // so the whole duplicate-tracking scan collapses to one probe.
        if let &[s] = members {
            return match self.probe_row(set, s, line) {
                Some(way) => {
                    let stamp = self.next_stamp();
                    self.touch_at(set, s, way, stamp);
                    let local = s == core;
                    if local {
                        self.slice_stats[s].local_hits += 1;
                    } else {
                        self.slice_stats[s].remote_hits += 1;
                    }
                    self.stats.record(core, false);
                    sink.touched(self.level, s, core, line);
                    Some(GroupHit { slice: s, local })
                }
                None => {
                    self.stats.record(core, true);
                    None
                }
            };
        }
        // Collect every member slice holding the line.
        let mut best: Option<(SliceId, usize, u64)> = None;
        let mut duplicates: [Option<SliceId>; 4] = [None; 4];
        let mut n_dup = 0usize;
        for &s in members {
            if let Some(way) = self.probe_row(set, s, line) {
                let stamp = self.stamps[self.row(set, s) + way];
                match best {
                    None => best = Some((s, way, stamp)),
                    Some((bs, _, bstamp)) => {
                        if stamp > bstamp {
                            if n_dup < duplicates.len() {
                                duplicates[n_dup] = Some(bs);
                                n_dup += 1;
                            }
                            best = Some((s, way, stamp));
                        } else if n_dup < duplicates.len() {
                            duplicates[n_dup] = Some(s);
                            n_dup += 1;
                        }
                    }
                }
            }
        }
        // Lazy-invalidate stale duplicates.
        for dup in duplicates.iter().take(n_dup).flatten() {
            if let Some(e) = self.invalidate_row(set, *dup, line) {
                self.slice_stats[*dup].lazy_invalidations += 1;
                sink.evicted(self.level, *dup, e.owner, e.line);
            }
        }
        match best {
            Some((s, way, _)) => {
                let stamp = self.next_stamp();
                self.touch_at(set, s, way, stamp);
                let local = s == core;
                if local {
                    self.slice_stats[s].local_hits += 1;
                } else {
                    self.slice_stats[s].remote_hits += 1;
                }
                self.stats.record(core, false);
                sink.touched(self.level, s, core, line);
                Some(GroupHit { slice: s, local })
            }
            None => {
                self.stats.record(core, true);
                None
            }
        }
    }

    /// Probes without modifying recency, statistics, or duplicates.
    pub fn peek(&self, core: CoreId, line: Line) -> Option<GroupHit> {
        let set = self.params.set_index(line);
        self.grouping
            .group_members(core)
            .iter()
            .find(|&&s| self.probe_row(set, s, line).is_some())
            .map(|&s| GroupHit {
                slice: s,
                local: s == core,
            })
    }

    /// True if `line` is resident anywhere in the slices listed.
    pub fn resident_in(&self, slices: &[SliceId], line: Line) -> bool {
        let set = self.params.set_index(line);
        slices
            .iter()
            .any(|&s| self.probe_row(set, s, line).is_some())
    }

    /// Inserts `line` on behalf of `core` into its group.
    ///
    /// Placement policy (capacity sharing of §2.2): an invalid way in the
    /// home slice is preferred, then an invalid way anywhere in the group,
    /// then the replacement victim — global LRU over all member ways, or
    /// the round-robin member's PLRU victim in
    /// [`ReplacementKind::TreePlru`] mode.
    ///
    /// Returns the displaced entry, if any. The caller handles inclusion
    /// consequences. Emits an `inserted` event (and an `evicted` event for
    /// the victim) on `sink`.
    pub fn insert(
        &mut self,
        core: CoreId,
        line: Line,
        dirty: bool,
        sink: &mut dyn CacheEventSink,
    ) -> Option<Displaced> {
        debug_assert!(
            self.peek(core, line).is_none(),
            "inserting an already-resident line"
        );
        let set = self.params.set_index(line);
        let members: &[SliceId] = self.grouping.group_members(core);
        // Placement: invalid way in the home slice, then an invalid way in
        // any member (in member order), then the replacement victim. Both
        // queries read the per-row placement summaries, so a warm (fully
        // valid) group costs one summary per member, not a pass over every
        // member's stamp row.
        let (home_free, home_way, home_stamp) = self.placement_scan_row(set, core);
        let (s, w) = match (home_free, self.kind) {
            (Some(w), _) => (core, w),
            (None, ReplacementKind::Lru) => {
                // Global LRU: the home row is full, so its minimum is a real
                // stamp and seeds the search. Valid stamps are unique, so
                // skipping the home slice in the loop keeps the result of a
                // scan in member order.
                let mut victim = (core, home_way, home_stamp);
                let mut spill = None;
                for &s in members {
                    if s == core {
                        continue;
                    }
                    let (free, way, stamp) = self.placement_scan_row(set, s);
                    if let Some(w) = free {
                        spill = Some((s, w));
                        break;
                    }
                    if stamp < victim.2 {
                        victim = (s, way, stamp);
                    }
                }
                spill.unwrap_or((victim.0, victim.1))
            }
            (None, ReplacementKind::TreePlru) => {
                let spill = members
                    .iter()
                    .filter(|&&s| s != core)
                    .find_map(|&s| self.placement_scan_row(set, s).0.map(|w| (s, w)));
                spill.unwrap_or_else(|| {
                    let s = members[self.rr % members.len()];
                    self.rr = self.rr.wrapping_add(1);
                    (s, self.plru[s * self.params.sets() + set].victim())
                })
            }
        };
        let stamp = self.next_stamp();
        let displaced = self.install_at(
            set,
            s,
            w,
            Entry {
                line,
                owner: core,
                stamp,
                dirty,
            },
        );
        sink.inserted(self.level, s, core, line);
        if let Some(e) = displaced {
            self.slice_stats[s].evictions += 1;
            sink.evicted(self.level, s, e.owner, e.line);
            Some(Displaced { slice: s, entry: e })
        } else {
            None
        }
    }

    /// Marks `line` dirty wherever it is resident in `core`'s group.
    pub fn mark_dirty(&mut self, core: CoreId, line: Line) {
        let set = self.params.set_index(line);
        // Disjoint-field borrows: the member list stays borrowed from
        // `grouping` across the loop while `dirty` words are written.
        let Self {
            grouping,
            params,
            n_slices,
            tags,
            dirty,
            ..
        } = self;
        let ways = params.ways();
        for &s in grouping.group_members(core) {
            let base = (set * *n_slices + s) * ways;
            if let Some(w) = tags[base..base + ways].iter().position(|&t| t == line) {
                let idx = base + w;
                dirty[idx >> 6] |= 1u64 << (idx & 63);
            }
        }
    }

    /// Invalidates `line` from the listed slices (inclusion
    /// back-invalidation). Returns whether any removed copy was dirty.
    pub fn back_invalidate(
        &mut self,
        slices: &[SliceId],
        line: Line,
        sink: &mut dyn CacheEventSink,
    ) -> bool {
        let set = self.params.set_index(line);
        let mut any_dirty = false;
        for &s in slices {
            if let Some(e) = self.invalidate_row(set, s, line) {
                self.slice_stats[s].back_invalidations += 1;
                any_dirty |= e.dirty;
                sink.evicted(self.level, s, e.owner, e.line);
            }
        }
        any_dirty
    }

    /// Total valid entries over all slices.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_LINE).count()
    }

    /// Clears recency stamps' origin by resetting statistics only (stamps
    /// themselves are monotonic for the lifetime of the level).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        for s in &mut self.slice_stats {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{NoopSink, RecordingSink};

    fn small_params() -> CacheParams {
        CacheParams::new(4, 2, 64).unwrap()
    }

    fn level(n: usize) -> CacheLevel {
        CacheLevel::new(Level::L2, n, small_params(), ReplacementKind::Lru)
    }

    /// Line addresses that all map to set 0 of the 4-set slice.
    fn set0_line(i: u64) -> Line {
        i * 4
    }

    #[test]
    fn slice_insert_probe_invalidate() {
        let mut s = Slice::new(small_params(), ReplacementKind::Lru);
        assert_eq!(s.probe(12), None);
        s.install(
            0,
            0,
            Entry {
                line: 12,
                owner: 0,
                stamp: 1,
                dirty: false,
            },
        );
        // line 12 maps to set 0 (12 & 3 == 0).
        assert_eq!(s.probe(12), Some(0));
        assert_eq!(s.occupancy(), 1);
        let removed = s.invalidate(12).unwrap();
        assert_eq!(removed.line, 12);
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn slice_lru_way_is_min_stamp() {
        let mut s = Slice::new(small_params(), ReplacementKind::Lru);
        s.install(
            0,
            0,
            Entry {
                line: set0_line(1),
                owner: 0,
                stamp: 5,
                dirty: false,
            },
        );
        s.install(
            0,
            1,
            Entry {
                line: set0_line(2),
                owner: 0,
                stamp: 3,
                dirty: false,
            },
        );
        assert_eq!(s.lru_way(0), Some((1, 3)));
        s.touch(0, 1, 9);
        assert_eq!(s.lru_way(0), Some((0, 5)));
    }

    #[test]
    fn private_miss_then_hit() {
        let mut l = level(2);
        let mut sink = NoopSink;
        assert!(l.lookup(0, 100, &mut sink).is_none());
        l.insert(0, 100, false, &mut sink);
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        assert!(hit.local);
        assert_eq!(hit.slice, 0);
        assert_eq!(l.stats.misses, 1);
        assert_eq!(l.stats.accesses, 2);
    }

    #[test]
    fn private_groups_do_not_leak_across_cores() {
        let mut l = level(2);
        let mut sink = NoopSink;
        l.insert(0, 100, false, &mut sink);
        assert!(
            l.lookup(1, 100, &mut sink).is_none(),
            "core 1 must not see core 0's private line"
        );
    }

    #[test]
    fn merged_group_shares_capacity() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        // Fill 4 ways of set 0 (2 ways per slice x 2 slices) from core 0.
        for i in 0..4 {
            l.insert(0, set0_line(i + 1), false, &mut sink);
        }
        // All four lines resident: capacity doubled by the merge.
        for i in 0..4 {
            assert!(
                l.lookup(0, set0_line(i + 1), &mut sink).is_some(),
                "line {i} missing"
            );
        }
        // A fifth insertion evicts the global LRU (line 1, which was
        // re-touched above... the LRU is line 1 because lookups refreshed
        // them in order; the least recently touched is line 1).
        let d = l.insert(0, set0_line(5), false, &mut sink).unwrap();
        assert_eq!(d.entry.line, set0_line(1));
    }

    #[test]
    fn remote_hits_are_flagged() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        // Core 1 inserts into its own (home) slice.
        l.insert(1, 100, false, &mut sink);
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        assert!(!hit.local);
        assert_eq!(hit.slice, 1);
        assert_eq!(l.slice_stats(1).remote_hits, 1);
    }

    #[test]
    fn lazy_invalidation_removes_duplicates() {
        let mut l = level(2);
        let mut sink = RecordingSink::default();
        // While private, both cores cache the same (shared) line.
        l.insert(0, 100, false, &mut sink);
        l.insert(1, 100, false, &mut sink);
        // Merge; next lookup sees two copies, keeps one.
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let hit = l.lookup(0, 100, &mut sink).unwrap();
        // Copy in slice 1 is newer (stamp 2 > 1), so it is retained.
        assert_eq!(hit.slice, 1);
        let lazies: u64 = (0..2).map(|s| l.slice_stats(s).lazy_invalidations).sum();
        assert_eq!(lazies, 1);
        assert_eq!(sink.evicted.len(), 1);
        assert_eq!(sink.evicted[0], (Level::L2, 0, 0, 100));
        // Only one copy remains.
        assert_eq!(l.occupancy(), 1);
    }

    #[test]
    fn insert_prefers_home_invalid_way() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        l.insert(0, set0_line(1), false, &mut sink);
        assert_eq!(l.peek(0, set0_line(1)).unwrap().slice, 0);
        l.insert(1, set0_line(2), false, &mut sink);
        assert_eq!(l.peek(1, set0_line(2)).unwrap().slice, 1);
    }

    #[test]
    fn insert_spills_to_group_when_home_set_full() {
        let mut l = level(2);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        for i in 1..=2 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        // Home set 0 of slice 0 is full; third line spills to slice 1.
        l.insert(0, set0_line(3), false, &mut sink);
        assert_eq!(l.peek(0, set0_line(3)).unwrap().slice, 1);
    }

    #[test]
    fn back_invalidate_reports_dirty() {
        let mut l = level(2);
        let mut sink = NoopSink;
        l.insert(0, 100, true, &mut sink);
        assert!(l.back_invalidate(&[0, 1], 100, &mut sink));
        assert!(!l.back_invalidate(&[0, 1], 100, &mut sink), "already gone");
        assert_eq!(l.slice_stats(0).back_invalidations, 1);
    }

    #[test]
    fn events_emitted_on_insert_and_evict() {
        let mut l = level(1);
        let mut sink = RecordingSink::default();
        for i in 1..=3 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        assert_eq!(sink.inserted.len(), 3);
        // Third insert into a 2-way set evicted the first line.
        assert_eq!(sink.evicted, vec![(Level::L2, 0, 0, set0_line(1))]);
    }

    #[test]
    fn plru_mode_inserts_and_evicts() {
        let mut l = CacheLevel::new(Level::L2, 2, small_params(), ReplacementKind::TreePlru);
        l.set_grouping(Grouping::all_shared(2)).unwrap();
        let mut sink = NoopSink;
        for i in 1..=8 {
            l.insert(0, set0_line(i), false, &mut sink);
        }
        // 4 ways total in the merged set; at most 4 lines resident.
        let resident = (1..=8)
            .filter(|&i| l.peek(0, set0_line(i)).is_some())
            .count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn placement_summaries_track_every_mutation() {
        let mut l = level(4);
        let mut sink = NoopSink;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (core, line) = ((x >> 8) as usize % 4, (x >> 16) % 64);
            match x % 8 {
                0..=2 => {
                    if l.peek(core, line).is_none() {
                        l.insert(core, line, false, &mut sink);
                    }
                }
                3 | 4 => {
                    l.lookup(core, line, &mut sink);
                }
                5 => {
                    l.back_invalidate(&[core], line, &mut sink);
                }
                6 => l.retain_slice_entries(core, |e| e.line % 3 != 0, |_| {}),
                _ => {
                    let g = match step % 3 {
                        0 => Grouping::private(4),
                        1 => Grouping::all_shared(4),
                        _ => Grouping::from_groups(4, vec![vec![0, 1], vec![2, 3]]).unwrap(),
                    };
                    l.set_grouping(g).unwrap();
                }
            }
            for set in 0..l.params.sets() {
                for s in 0..4 {
                    let r = l.row_id(set, s);
                    assert_eq!(l.placement_scan_row(set, s), l.scan_row(r), "step {step}");
                }
            }
        }
    }

    #[test]
    fn grouping_size_mismatch_rejected() {
        let mut l = level(2);
        assert!(l.set_grouping(Grouping::private(3)).is_err());
    }
}
