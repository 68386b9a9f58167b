//! Outside-in instrumentation: a timing [`MemoryBackend`] that wraps the
//! simulator's own backend, a counting [`CacheEventSink`] probe, and the
//! in-memory span recorder both report to. Nothing here changes what the
//! simulator computes; `tests` pins that.

use morph_cache::{CacheEventSink, CoreId, Hierarchy, Level, Line, SliceId};
use morph_system::prelude::{BoundaryReport, EpochCtx, MemoryBackend};
use morphcache::{MorphEngine, MorphError, ReconfigOutcome};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Per-access work is aggregated: one span per epoch
/// whose `calls` and `busy_ns` sum the individual calls between `start`
/// and `end`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// Spans kept in memory until the run ends. `current` is the innermost
/// open span: new spans become its children.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    current: Option<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            current: None,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `at` as a child of the current one and makes it
    /// current.
    pub fn open(&mut self, name: &'static str, at: Instant) -> usize {
        let start_ns = self.ns(at);
        self.spans.push(Span {
            name,
            parent: self.current,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.current = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` at `at`; its parent becomes current again.
    pub fn close(&mut self, id: usize, at: Instant) {
        let end_ns = self.ns(at);
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        self.current = span.parent;
    }

    /// Records a closed child of the current span.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
        busy_ns: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent: self.current,
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
    }

    /// Summed `busy_ns` of the direct children of `parent`.
    pub fn child_busy_ns(&self, parent: usize) -> u64 {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Summed `(calls, busy_ns)` of the children of `parent` named `name`.
    pub fn child_totals(&self, parent: usize, name: &str) -> (u64, u64) {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .fold((0, 0), |(c, b), s| (c + s.calls, b + s.busy_ns))
    }
}

pub type SharedRecorder = Arc<Mutex<Recorder>>;

fn lock(rec: &SharedRecorder) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("recorder lock poisoned by a panicking benchmark thread")
}

/// Per-epoch accumulator for `access` calls, flushed as one aggregated
/// span at the next non-access call of the epoch protocol.
#[derive(Debug, Default)]
struct AccessWindow {
    first: Option<Instant>,
    last: Option<Instant>,
    calls: u64,
    busy_ns: u64,
}

/// Wraps the backend `from_policy` built and delegates every method,
/// timing the epoch-protocol calls into the shared [`Recorder`].
pub struct TimingBackend {
    inner: Box<dyn MemoryBackend>,
    rec: SharedRecorder,
    window: AccessWindow,
}

impl TimingBackend {
    pub fn new(inner: Box<dyn MemoryBackend>, rec: SharedRecorder) -> Self {
        Self {
            inner,
            rec,
            window: AccessWindow::default(),
        }
    }

    fn flush_accesses(&mut self) {
        let w = std::mem::take(&mut self.window);
        if let (Some(first), Some(last)) = (w.first, w.last) {
            lock(&self.rec).leaf("backend.access", first, last, w.calls, w.busy_ns);
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn MemoryBackend) -> T) -> T {
        self.flush_accesses();
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = Instant::now();
        let busy = end.duration_since(start).as_nanos() as u64;
        lock(&self.rec).leaf(name, start, end, 1, busy);
        out
    }
}

impl MemoryBackend for TimingBackend {
    fn access(
        &mut self,
        core: CoreId,
        line: Line,
        is_write: bool,
        probe: &mut dyn CacheEventSink,
    ) -> u64 {
        let start = Instant::now();
        let latency = self.inner.access(core, line, is_write, probe);
        let end = Instant::now();
        let w = &mut self.window;
        w.first.get_or_insert(start);
        w.last = Some(end);
        w.calls += 1;
        w.busy_ns += end.duration_since(start).as_nanos() as u64;
        latency
    }

    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.timed("backend.begin_epoch", |b| b.begin_epoch(ctx))
    }

    fn epoch_boundary(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        ipcs: &[f64],
        misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        self.timed("backend.epoch_boundary", |b| {
            b.epoch_boundary(ctx, ipcs, misses)
        })
    }

    fn misses_by_core(&self) -> Vec<u64> {
        self.inner.misses_by_core()
    }

    fn grouping_labels(&self) -> (String, String) {
        self.inner.grouping_labels()
    }

    fn reconfig_outcome(&self) -> Option<&ReconfigOutcome> {
        self.inner.reconfig_outcome()
    }

    fn as_hierarchy(&self) -> Option<&Hierarchy> {
        self.inner.as_hierarchy()
    }

    fn engine(&self) -> Option<&MorphEngine> {
        self.inner.engine()
    }
}

/// An L2/L3 event of the kinds the MorphCache engine consumes, kept for
/// the engine microkernel's replay.
#[derive(Debug, Clone, Copy)]
pub struct EngineEvent {
    pub l3: bool,
    pub evicted: bool,
    pub slice: SliceId,
    pub core: CoreId,
    pub line: Line,
}

/// Counts every event by level and keeps the first `sample_cap` engine
/// events (L2/L3 touches and evictions).
#[derive(Debug, Default)]
pub struct CountingSink {
    pub inserted: [u64; 3],
    pub evicted: [u64; 3],
    pub touched: [u64; 3],
    pub sample: Vec<EngineEvent>,
    pub sample_cap: usize,
}

impl CountingSink {
    pub fn with_sample(cap: usize) -> Self {
        Self {
            sample: Vec::with_capacity(cap),
            sample_cap: cap,
            ..Self::default()
        }
    }

    /// L2/L3 touches plus evictions: the events the engine's ACFVs take.
    pub fn engine_events(&self) -> u64 {
        self.touched[1] + self.touched[2] + self.evicted[1] + self.evicted[2]
    }

    fn keep(&mut self, level: Level, evicted: bool, slice: SliceId, core: CoreId, line: Line) {
        if level != Level::L1 && self.sample.len() < self.sample_cap {
            self.sample.push(EngineEvent {
                l3: level == Level::L3,
                evicted,
                slice,
                core,
                line,
            });
        }
    }
}

fn idx(level: Level) -> usize {
    match level {
        Level::L1 => 0,
        Level::L2 => 1,
        Level::L3 => 2,
    }
}

impl CacheEventSink for CountingSink {
    fn inserted(&mut self, level: Level, _slice: SliceId, _owner: CoreId, _line: Line) {
        self.inserted[idx(level)] += 1;
    }

    fn evicted(&mut self, level: Level, slice: SliceId, owner: CoreId, line: Line) {
        self.evicted[idx(level)] += 1;
        self.keep(level, true, slice, owner, line);
    }

    fn touched(&mut self, level: Level, slice: SliceId, core: CoreId, line: Line) {
        self.touched[idx(level)] += 1;
        self.keep(level, false, slice, core, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_system::prelude::*;
    use morphcache::MorphConfig;

    /// A backend that records which trait methods reached it and answers
    /// with values the wrapper must pass through untouched.
    struct Fake {
        calls: Arc<Mutex<Vec<&'static str>>>,
        hier: Hierarchy,
        engine: MorphEngine,
        outcome: ReconfigOutcome,
    }

    impl Fake {
        fn note(&self, m: &'static str) {
            self.calls.lock().unwrap().push(m);
        }
    }

    impl MemoryBackend for Fake {
        fn access(&mut self, core: CoreId, line: Line, w: bool, _: &mut dyn CacheEventSink) -> u64 {
            self.note("access");
            core as u64 * 1000 + line + u64::from(w)
        }
        fn begin_epoch(&mut self, _: &mut EpochCtx<'_>) -> Result<(), MorphError> {
            self.note("begin_epoch");
            Err(MorphError::Grouping("from fake".into()))
        }
        fn epoch_boundary(
            &mut self,
            _: &mut EpochCtx<'_>,
            ipcs: &[f64],
            misses: &[u64],
        ) -> Result<BoundaryReport, MorphError> {
            self.note("epoch_boundary");
            Ok(BoundaryReport {
                reconfig_events: ipcs.len() + misses.len(),
                asymmetric_events: 1,
                asymmetric: true,
                chosen_topology: Some("fake".into()),
            })
        }
        fn misses_by_core(&self) -> Vec<u64> {
            self.note("misses_by_core");
            vec![7, 8]
        }
        fn grouping_labels(&self) -> (String, String) {
            self.note("grouping_labels");
            ("[0-1]".into(), "[0][1]".into())
        }
        fn reconfig_outcome(&self) -> Option<&ReconfigOutcome> {
            self.note("reconfig_outcome");
            Some(&self.outcome)
        }
        fn as_hierarchy(&self) -> Option<&Hierarchy> {
            self.note("as_hierarchy");
            Some(&self.hier)
        }
        fn engine(&self) -> Option<&MorphEngine> {
            self.note("engine");
            Some(&self.engine)
        }
    }

    #[test]
    fn timing_backend_delegates_all_eight_methods() {
        let cfg = SystemConfig::quick_test(2);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let fake = Fake {
            calls: Arc::clone(&calls),
            hier: Hierarchy::new(cfg.hierarchy),
            engine: MorphEngine::new(2, vec![0, 1], MorphConfig::calibrated(64, 256)).unwrap(),
            outcome: ReconfigOutcome {
                l2_groups: vec![vec![0, 1]],
                l3_groups: vec![vec![0, 1]],
                events: Vec::new(),
                asymmetric: false,
            },
        };
        let rec = Arc::new(Mutex::new(Recorder::new(Instant::now())));
        let mut b = TimingBackend::new(Box::new(fake), Arc::clone(&rec));

        assert_eq!(b.access(1, 5, true, &mut morph_cache::NoopSink), 1006);
        let mut cores: Vec<morph_cpu::Core> = Vec::new();
        let mut streams: Vec<morph_trace::SyntheticStream> = Vec::new();
        let mut faults = NoFaults;
        let mut ctx = EpochCtx {
            epoch: 0,
            cycles: 1,
            scheduler: morph_cpu::QuantumScheduler::new(1),
            cores: &mut cores,
            streams: &mut streams,
            faults: &mut faults,
        };
        assert!(
            matches!(b.begin_epoch(&mut ctx), Err(MorphError::Grouping(m)) if m == "from fake")
        );
        let report = b.epoch_boundary(&mut ctx, &[1.0, 2.0], &[3]).unwrap();
        assert_eq!(report.reconfig_events, 3);
        assert_eq!(report.chosen_topology.as_deref(), Some("fake"));
        assert_eq!(b.misses_by_core(), vec![7, 8]);
        assert_eq!(
            b.grouping_labels(),
            ("[0-1]".to_string(), "[0][1]".to_string())
        );
        assert_eq!(b.reconfig_outcome().unwrap().l2_groups, vec![vec![0, 1]]);
        assert_eq!(b.as_hierarchy().unwrap().params().n_cores, 2);
        assert_eq!(b.engine().unwrap().n_slices(), 2);

        let mut seen = calls.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            [
                "access",
                "as_hierarchy",
                "begin_epoch",
                "engine",
                "epoch_boundary",
                "grouping_labels",
                "misses_by_core",
                "reconfig_outcome",
            ]
        );
        // The access window is flushed before begin_epoch's own span.
        let names: Vec<_> = rec.lock().unwrap().spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "backend.access",
                "backend.begin_epoch",
                "backend.epoch_boundary"
            ]
        );
    }

    #[test]
    fn traced_runs_match_untraced_runs() {
        let cfg = SystemConfig::quick_test(4).with_epochs(3);
        let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).unwrap();
        for policy in [Policy::morph(&cfg), Policy::static_topology("4:1:1", 4)] {
            let mut plain = SystemSim::new(cfg, &w, &policy).unwrap();
            let expected = plain.run().unwrap();

            let rec = Arc::new(Mutex::new(Recorder::new(Instant::now())));
            let backend = from_policy(&cfg, &w, &policy).unwrap();
            let mut traced =
                SystemSim::with_backend(cfg, &w, Box::new(TimingBackend::new(backend, rec)));
            let mut sink = CountingSink::with_sample(16);
            for _ in 0..cfg.warmup_epochs {
                traced.run_epoch_probed(&mut sink).unwrap();
            }
            let got: Vec<_> = (0..cfg.n_epochs)
                .map(|_| traced.run_epoch_probed(&mut sink).unwrap())
                .collect();
            assert_eq!(got, expected, "{}", policy.name());
            assert!(sink.engine_events() > 0);
            assert_eq!(sink.sample.len(), 16);
        }
    }
}
