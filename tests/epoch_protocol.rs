//! The `MemoryBackend` epoch protocol on the real epoch loop: a recording
//! wrapper around a `from_policy` backend logs the hooks `SystemSim`
//! calls, epoch by epoch.

#![expect(
    clippy::disallowed_types,
    reason = "the recorder shares its call log with the test across MemoryBackend's Send bound"
)]

use morph_system::prelude::*;
use std::sync::{Arc, Mutex};

fn cfg() -> SystemConfig {
    SystemConfig::quick_test(8).with_epochs(4)
}

fn mixed_workload() -> Workload {
    Workload::named_apps(&[
        "cactus", "libq", "gobmk", "perl", "wrf", "gamess", "gcc", "lbm",
    ])
    .expect("known benchmarks")
}

/// One call of the `MemoryBackend` epoch protocol, as seen by
/// [`Recorder`]. A run of consecutive `access` calls records once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    BeginEpoch,
    Access,
    MissesByCore,
    EpochBoundary,
    GroupingLabels,
}

/// A transparent backend wrapper that logs the protocol calls the epoch
/// loop makes on it.
struct Recorder {
    inner: Box<dyn MemoryBackend>,
    log: Arc<Mutex<Vec<Hook>>>,
}

impl Recorder {
    fn note(&self, hook: Hook) {
        let mut log = self.log.lock().unwrap();
        if !(hook == Hook::Access && log.last() == Some(&Hook::Access)) {
            log.push(hook);
        }
    }
}

impl MemoryBackend for Recorder {
    fn access(
        &mut self,
        core: morph_cache::CoreId,
        line: morph_cache::Line,
        is_write: bool,
        probe: &mut dyn morph_cache::CacheEventSink,
    ) -> u64 {
        self.note(Hook::Access);
        self.inner.access(core, line, is_write, probe)
    }

    fn begin_epoch(&mut self, ctx: &mut EpochCtx<'_>) -> Result<(), MorphError> {
        self.note(Hook::BeginEpoch);
        self.inner.begin_epoch(ctx)
    }

    fn epoch_boundary(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        ipcs: &[f64],
        misses: &[u64],
    ) -> Result<BoundaryReport, MorphError> {
        self.note(Hook::EpochBoundary);
        self.inner.epoch_boundary(ctx, ipcs, misses)
    }

    fn misses_by_core(&self) -> Vec<u64> {
        self.note(Hook::MissesByCore);
        self.inner.misses_by_core()
    }

    fn grouping_labels(&self) -> (String, String) {
        self.note(Hook::GroupingLabels);
        self.inner.grouping_labels()
    }

    fn reconfig_outcome(&self) -> Option<&morphcache::ReconfigOutcome> {
        self.inner.reconfig_outcome()
    }
}

/// The epoch loop drives every backend through the documented protocol:
/// `begin_epoch ≺ access* ≺ misses_by_core ≺ epoch_boundary ≺
/// grouping_labels`, once per epoch, never beginning an epoch twice.
#[test]
fn epoch_loop_calls_backend_hooks_in_protocol_order() {
    let cfg = cfg();
    let w = mixed_workload();
    let policy = Policy::morph(&cfg);
    let log = Arc::new(Mutex::new(Vec::new()));
    let recorder = Recorder {
        inner: from_policy(&cfg, &w, &policy).unwrap(),
        log: Arc::clone(&log),
    };
    let mut recorded = SystemSim::with_backend(cfg, &w, Box::new(recorder));
    let mut plain = SystemSim::new(cfg, &w, &policy).unwrap();
    for epoch in 0..3 {
        let result = recorded.run_epoch().unwrap();
        // The wrapper is transparent: results match the unwrapped backend.
        assert_eq!(result, plain.run_epoch().unwrap(), "epoch {epoch}");
    }
    let per_epoch = [
        Hook::BeginEpoch,
        Hook::Access,
        Hook::MissesByCore,
        Hook::EpochBoundary,
        Hook::GroupingLabels,
    ];
    let expected: Vec<Hook> = per_epoch.iter().copied().cycle().take(3 * 5).collect();
    assert_eq!(*log.lock().unwrap(), expected);
}
