//! Supervised execution of the experiment matrix: panic isolation,
//! per-cell deadlines, bounded retry with deterministic backoff,
//! checkpoint/resume, and graceful shutdown.
//!
//! The plain work queue in [`crate::experiment::run_cells`] treats any
//! cell failure as fatal to the matrix. The [`Supervisor`] keeps the same
//! queue discipline (scoped workers pulling from an atomic counter, so
//! results are bit-identical for any `jobs` value) but wraps every
//! attempt in [`catch_unwind`] and classifies what went wrong as a typed
//! [`CellFailure`]:
//!
//! * a **panic** on the worker is caught and retried — it never takes the
//!   other cells down;
//! * a **deadline** ([`SuperviseOptions::cell_timeout_seconds`]) is
//!   enforced by a monitor thread that sets the attempt's [`CancelToken`];
//!   the simulator polls the token at every epoch boundary and aborts
//!   with [`MorphError::Cancelled`] — no thread is ever killed mid-epoch;
//! * a **typed error** is retried like a panic (faults and topology
//!   errors are usually deterministic, but retrying is harmless — the
//!   cell is a pure function of its inputs);
//! * retries are separated by **bounded deterministic backoff**
//!   (`min(cap, base·2^(attempt-1))` — no RNG, no unbounded growth);
//! * after the retry budget the cell is marked
//!   [`Degraded`](morph_metrics::CellStatus::Degraded) and the matrix
//!   *keeps going*: a supervised run always completes and reports
//!   per-cell status ([`SupervisedMatrix`]).
//!
//! With a [`RunJournal`] attached, every completed cell is checkpointed
//! as soon as it finishes; a [`ShutdownFlag`] (set programmatically or by
//! SIGINT) interrupts the run gracefully — in-flight cells are cancelled
//! at their next epoch boundary, the journal stays consistent, and a
//! resumed run loads the recorded cells back bit-identically as
//! [`Cached`](morph_metrics::CellStatus::Cached).
//!
//! This module is the audited home of thread machinery in the workspace:
//! `clippy.toml` disallows locks, atomics and thread spawning everywhere
//! else. Determinism is preserved because supervision only decides
//! *whether and when* a cell runs, never *what it computes*.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the audited worker pool: locks, atomics and scoped threads decide whether and when a cell runs, never what it computes"
)]

use crate::config::SystemConfig;
use crate::experiment::{run_cell_cancellable, ExperimentMatrix, MatrixCell, RunResult};
use crate::faults::{CellChaos, ChaosAction};
use crate::journal::RunJournal;
use morph_metrics::timing::{sleep_seconds, Stopwatch};
use morph_metrics::{CellStatus, MatrixHealth, MatrixTiming};
use morphcache::MorphError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Seconds between monitor-thread polls of the in-flight registry.
const MONITOR_POLL_SECONDS: f64 = 0.005;

/// Seconds per slice of an interruptible sleep (backoff, chaos stalls):
/// short enough that cancellation and shutdown are honored promptly.
const SLEEP_SLICE_SECONDS: f64 = 0.002;

/// A cooperative cancellation token shared between a running cell and
/// the supervisor's monitor thread. The simulator polls it at every
/// epoch boundary (see `epoch.rs`); setting it aborts the run with
/// [`MorphError::Cancelled`] without killing the thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; the run aborts at its next epoch boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// SIGINT lands here; process-global by the nature of signal handlers.
static SIGINT_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn handle_sigint(_signum: i32) {
    // Only async-signal-safe work: set the flag and return. The run
    // notices at its next shutdown poll and winds down gracefully.
    SIGINT_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigint_handler() {
    // libc's `signal` is already linked by std; binding it directly keeps
    // the workspace dependency-free. SIGINT is 2 on every unix.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `handle_sigint` is an `extern "C" fn(i32)` that only
    // performs an atomic store, which is async-signal-safe.
    let handler: extern "C" fn(i32) = handle_sigint;
    unsafe {
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// A graceful-shutdown request: set programmatically ([`request`]) or by
/// SIGINT when armed with [`with_sigint`]. The supervisor stops handing
/// out new cells and cancels in-flight ones at their next epoch boundary.
///
/// [`request`]: ShutdownFlag::request
/// [`with_sigint`]: ShutdownFlag::with_sigint
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    local: Arc<AtomicBool>,
    sigint: bool,
}

impl ShutdownFlag {
    /// A flag that only [`request`](ShutdownFlag::request) can set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A flag that SIGINT (ctrl-C) also sets: installs the process-wide
    /// handler and observes it alongside the local flag.
    pub fn with_sigint() -> Self {
        install_sigint_handler();
        Self {
            local: Arc::default(),
            sigint: true,
        }
    }

    /// Requests a graceful shutdown.
    pub fn request(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (locally or, if armed, by
    /// SIGINT).
    pub fn is_requested(&self) -> bool {
        self.local.load(Ordering::SeqCst)
            || (self.sigint && SIGINT_REQUESTED.load(Ordering::SeqCst))
    }
}

/// One failed attempt of one cell, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// The attempt panicked on the worker thread; the payload's message
    /// is preserved for the report.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The attempt returned a typed error.
    Error(MorphError),
    /// The attempt ran past the per-cell deadline and was cancelled at
    /// an epoch boundary.
    DeadlineExpired {
        /// The deadline that expired, in wall seconds.
        limit_seconds: f64,
        /// Epoch at which the cancellation was observed.
        epoch: u64,
    },
    /// A graceful shutdown arrived before (or while) the attempt ran;
    /// the cell is left for a resumed run.
    Interrupted,
}

impl CellFailure {
    /// Whether this failure counts against the retry budget (shutdown
    /// does not — the cell is not broken, the run is over).
    fn counts_as_retry(&self) -> bool {
        !matches!(self, CellFailure::Interrupted)
    }
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panicked { message } => write!(f, "panicked: {message}"),
            CellFailure::Error(e) => write!(f, "{e}"),
            CellFailure::DeadlineExpired {
                limit_seconds,
                epoch,
            } => write!(f, "deadline of {limit_seconds}s expired at epoch {epoch}"),
            CellFailure::Interrupted => write!(f, "interrupted by shutdown"),
        }
    }
}

/// The full supervision record of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's input-order index.
    pub index: usize,
    /// Final status.
    pub status: CellStatus,
    /// Failed attempts (excluding a shutdown interruption).
    pub retries: u32,
    /// Every failure, in attempt order.
    pub failures: Vec<CellFailure>,
    /// Wall seconds the cell occupied its worker (all attempts plus
    /// backoff); for a cached cell, the original run's recorded seconds.
    pub seconds: f64,
}

impl CellReport {
    /// The error a caller that cannot tolerate failed cells should
    /// report for this cell — [`run_cells`](crate::experiment::run_cells)
    /// semantics: a panic maps to the legacy [`MorphError::Workload`]
    /// message, everything else to its own variant.
    pub fn first_error(&self) -> MorphError {
        match self.failures.first() {
            Some(CellFailure::Error(e)) => e.clone(),
            Some(CellFailure::Panicked { .. }) => MorphError::Workload(format!(
                "experiment thread for cell {} panicked",
                self.index
            )),
            Some(CellFailure::DeadlineExpired { epoch, .. }) => {
                MorphError::Cancelled { epoch: *epoch }
            }
            Some(CellFailure::Interrupted) | None => MorphError::Cancelled { epoch: 0 },
        }
    }
}

/// Supervision policy for one matrix run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseOptions {
    /// Worker threads (clamped to the cell count, minimum 1).
    pub jobs: usize,
    /// Per-cell wall-clock deadline; `None` disables the monitor's
    /// deadline check (shutdown cancellation still works).
    pub cell_timeout_seconds: Option<f64>,
    /// Failed attempts to retry before marking a cell degraded.
    pub retries: u32,
    /// First retry's backoff in seconds; doubles per further attempt.
    pub backoff_base_seconds: f64,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap_seconds: f64,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        Self {
            jobs: crate::experiment::default_jobs(),
            cell_timeout_seconds: None,
            retries: 2,
            backoff_base_seconds: 0.05,
            backoff_cap_seconds: 1.0,
        }
    }
}

impl SuperviseOptions {
    /// The deterministic backoff before attempt `attempt` (1-based for
    /// retries): `min(cap, base·2^(attempt-1))`.
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let exp = 2f64.powi((attempt - 1).min(30) as i32);
        (self.backoff_base_seconds * exp).min(self.backoff_cap_seconds)
    }
}

/// The outcome of a supervised matrix run. Unlike
/// [`ExperimentMatrix`], it always exists — failed cells surface as
/// `None` results with a [`CellReport`] explaining why.
#[derive(Debug)]
pub struct SupervisedMatrix {
    /// Per-cell results in input order; `None` for degraded or
    /// interrupted cells.
    pub results: Vec<Option<RunResult>>,
    /// Per-cell supervision records, in input order.
    pub reports: Vec<CellReport>,
    /// Wall-clock and per-cell timing of the run.
    pub timing: MatrixTiming,
    /// Worker threads the matrix ran on.
    pub jobs: usize,
}

impl SupervisedMatrix {
    /// Per-cell status and retry counters (the summary the CLI prints).
    pub fn health(&self) -> MatrixHealth {
        MatrixHealth {
            statuses: self.reports.iter().map(|r| r.status).collect(),
            retries: self.reports.iter().map(|r| r.retries).collect(),
        }
    }

    /// Whether every cell ended with a usable result.
    pub fn is_complete(&self) -> bool {
        self.reports.iter().all(|r| r.status.has_result())
    }

    /// Whether the run was cut short by a shutdown request.
    pub fn was_interrupted(&self) -> bool {
        self.reports
            .iter()
            .any(|r| r.status == CellStatus::Interrupted)
    }

    /// Converts to the strict [`ExperimentMatrix`], failing with the
    /// first result-less cell's error in input order (the historical
    /// [`run_cells`](crate::experiment::run_cells) contract).
    ///
    /// # Errors
    ///
    /// Returns [`CellReport::first_error`] of the first cell without a
    /// result.
    pub fn into_matrix(self) -> Result<ExperimentMatrix, MorphError> {
        let health = self.health();
        let mut results = Vec::with_capacity(self.results.len());
        for (slot, report) in self.results.into_iter().zip(&self.reports) {
            match slot {
                Some(r) => results.push(r),
                None => return Err(report.first_error()),
            }
        }
        Ok(ExperimentMatrix {
            results,
            timing: self.timing,
            jobs: self.jobs,
            health,
        })
    }
}

/// What the monitor thread needs to know about a running attempt.
struct InFlight {
    started: Stopwatch,
    token: CancelToken,
}

/// Locks a mutex, recovering the guard from a poisoned lock: every
/// panic inside the supervised region is already caught by
/// `catch_unwind`, so a poisoned registry only means a worker died
/// between register and clear — its entry is stale but harmless.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Supervised runner for the experiment matrix. Build with
/// [`Supervisor::new`], attach a journal / chaos schedule / shutdown
/// flag, then [`run`](Supervisor::run).
pub struct Supervisor<'a> {
    options: SuperviseOptions,
    journal: Option<RunJournal>,
    chaos: Option<&'a dyn CellChaos>,
    shutdown: ShutdownFlag,
}

impl<'a> Supervisor<'a> {
    /// A supervisor with the given policy and no journal, chaos, or
    /// external shutdown flag.
    pub fn new(options: SuperviseOptions) -> Self {
        Self {
            options,
            journal: None,
            chaos: None,
            shutdown: ShutdownFlag::new(),
        }
    }

    /// Attaches a checkpoint journal: completed cells are recorded as
    /// they finish, and cells the journal already holds run as
    /// [`Cached`](CellStatus::Cached).
    #[must_use]
    pub fn with_journal(mut self, journal: RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a chaos schedule (test harness only — see
    /// [`crate::faults::ChaosPlan`]).
    #[must_use]
    pub fn with_chaos(mut self, chaos: &'a dyn CellChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Observes (and lets the run trip) an external shutdown flag.
    #[must_use]
    pub fn with_shutdown(mut self, shutdown: ShutdownFlag) -> Self {
        self.shutdown = shutdown;
        self
    }

    /// Runs the matrix under supervision. Always returns a
    /// [`SupervisedMatrix`] unless the configuration itself is invalid —
    /// cell failures are *reported*, not propagated.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::InvalidConfig`] if `cfg` fails validation
    /// (nothing would be runnable), and [`MorphError::FaultSpec`] if the
    /// attached chaos schedule references cells the matrix lacks.
    pub fn run(
        &self,
        cfg: &SystemConfig,
        cells: &[MatrixCell],
    ) -> Result<SupervisedMatrix, MorphError> {
        cfg.validate()?;
        let wall = Stopwatch::start();
        let workers = self.options.jobs.max(1).min(cells.len().max(1));
        let kill_after = self.chaos.and_then(CellChaos::kill_after);
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let inflight: Mutex<Vec<Option<InFlight>>> = {
            let mut v = Vec::new();
            v.resize_with(workers, || None);
            Mutex::new(v)
        };
        let mut slots: Vec<Option<(Option<RunResult>, CellReport)>> = Vec::new();
        slots.resize_with(cells.len(), || None);
        std::thread::scope(|scope| {
            let next = &next;
            let completed = &completed;
            let done = &done;
            let inflight = &inflight;
            let monitor = scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    if self.shutdown.is_requested() {
                        for f in lock(inflight).iter().flatten() {
                            f.token.cancel();
                        }
                    } else if let Some(limit) = self.options.cell_timeout_seconds {
                        for f in lock(inflight).iter().flatten() {
                            if f.started.has_elapsed(limit) {
                                f.token.cancel();
                            }
                        }
                    }
                    sleep_seconds(MONITOR_POLL_SECONDS);
                }
            });
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        self.worker_loop(w, cfg, cells, next, completed, inflight, kill_after)
                    })
                })
                .collect();
            for h in handles {
                if let Ok(mine) = h.join() {
                    for (i, result, report) in mine {
                        slots[i] = Some((result, report));
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            let _ = monitor.join();
        });
        let mut results = Vec::with_capacity(cells.len());
        let mut reports = Vec::with_capacity(cells.len());
        let mut cell_seconds = Vec::with_capacity(cells.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let (result, report) = slot.unwrap_or_else(|| {
                // The queue handed the index out but no worker reported
                // back (a shutdown raced the handoff): interrupted.
                (
                    None,
                    CellReport {
                        index: i,
                        status: CellStatus::Interrupted,
                        retries: 0,
                        failures: vec![CellFailure::Interrupted],
                        seconds: 0.0,
                    },
                )
            });
            cell_seconds.push(report.seconds);
            results.push(result);
            reports.push(report);
        }
        Ok(SupervisedMatrix {
            results,
            reports,
            timing: MatrixTiming {
                wall_seconds: wall.elapsed_seconds(),
                cell_seconds,
            },
            jobs: workers,
        })
    }

    /// One worker: pull cells off the queue until it drains, supervising
    /// each attempt. Returns this worker's outcomes for input-order
    /// reassembly.
    #[expect(
        clippy::too_many_arguments,
        reason = "the worker borrows the pool's queue cursor, completion counter and in-flight registry from one thread scope"
    )]
    fn worker_loop(
        &self,
        worker: usize,
        cfg: &SystemConfig,
        cells: &[MatrixCell],
        next: &AtomicUsize,
        completed: &AtomicUsize,
        inflight: &Mutex<Vec<Option<InFlight>>>,
        kill_after: Option<usize>,
    ) -> Vec<(usize, Option<RunResult>, CellReport)> {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let cached = self
                .journal
                .as_ref()
                .and_then(|j| j.cached().get(i).cloned().flatten());
            if let Some((result, seconds)) = cached {
                // Cached cells do not advance the completion counter: a
                // chaos `kill_after` counts fresh completions, so a
                // resumed run is not re-killed by its own checkpoint.
                mine.push((
                    i,
                    Some(result),
                    CellReport {
                        index: i,
                        status: CellStatus::Cached,
                        retries: 0,
                        failures: Vec::new(),
                        seconds,
                    },
                ));
                continue;
            }
            let (result, mut report) = self.supervise_cell(i, cfg, cell, worker, inflight);
            if let Some(r) = &result {
                if let Some(journal) = &self.journal {
                    // A journal write failure degrades durability, not
                    // the run: the result stands, the failure is logged
                    // on the report.
                    if let Err(e) = journal.record(i, r, report.seconds) {
                        report.failures.push(CellFailure::Error(e));
                    }
                }
                let finished = completed.fetch_add(1, Ordering::SeqCst) + 1;
                if kill_after.is_some_and(|k| finished >= k) {
                    self.shutdown.request();
                }
            }
            mine.push((i, result, report));
        }
        mine
    }

    /// Supervises all attempts of one cell.
    fn supervise_cell(
        &self,
        index: usize,
        cfg: &SystemConfig,
        cell: &MatrixCell,
        worker: usize,
        inflight: &Mutex<Vec<Option<InFlight>>>,
    ) -> (Option<RunResult>, CellReport) {
        let watch = Stopwatch::start();
        let mut failures: Vec<CellFailure> = Vec::new();
        let mut result = None;
        let mut status = CellStatus::Degraded;
        let mut attempt: u32 = 0;
        loop {
            if self.shutdown.is_requested() {
                status = CellStatus::Interrupted;
                failures.push(CellFailure::Interrupted);
                break;
            }
            if attempt > 0 {
                self.interruptible_sleep(self.options.backoff_seconds(attempt));
                if self.shutdown.is_requested() {
                    status = CellStatus::Interrupted;
                    failures.push(CellFailure::Interrupted);
                    break;
                }
            }
            let token = CancelToken::new();
            lock(inflight)[worker] = Some(InFlight {
                started: Stopwatch::start(),
                token: token.clone(),
            });
            let chaos_action = self
                .chaos
                .map_or(ChaosAction::None, |c| c.action(index, attempt));
            let run = catch_unwind(AssertUnwindSafe(|| {
                attempt_cell(cfg, cell, &token, chaos_action)
            }));
            lock(inflight)[worker] = None;
            match run {
                Ok(Ok(r)) => {
                    status = if attempt == 0 {
                        CellStatus::Completed
                    } else {
                        CellStatus::Recovered
                    };
                    result = Some(r);
                    break;
                }
                Ok(Err(MorphError::Cancelled { epoch })) => {
                    if self.shutdown.is_requested() {
                        status = CellStatus::Interrupted;
                        failures.push(CellFailure::Interrupted);
                        break;
                    }
                    failures.push(CellFailure::DeadlineExpired {
                        limit_seconds: self.options.cell_timeout_seconds.unwrap_or(f64::INFINITY),
                        epoch,
                    });
                }
                Ok(Err(e)) => failures.push(CellFailure::Error(e)),
                Err(payload) => failures.push(CellFailure::Panicked {
                    message: panic_message(payload),
                }),
            }
            if attempt >= self.options.retries {
                // `status` keeps its Degraded initialization.
                break;
            }
            attempt += 1;
        }
        let retries = failures.iter().filter(|f| f.counts_as_retry()).count() as u32;
        (
            result,
            CellReport {
                index,
                status,
                retries,
                failures,
                seconds: watch.elapsed_seconds(),
            },
        )
    }

    /// Sleeps `seconds` in short slices, returning early on shutdown.
    fn interruptible_sleep(&self, seconds: f64) {
        let mut remaining = seconds;
        while remaining > 0.0 && !self.shutdown.is_requested() {
            let slice = remaining.min(SLEEP_SLICE_SECONDS);
            sleep_seconds(slice);
            remaining -= slice;
        }
    }
}

/// One attempt: apply the chaos action (if any), then run the cell with
/// the cancel token installed.
fn attempt_cell(
    cfg: &SystemConfig,
    cell: &MatrixCell,
    token: &CancelToken,
    chaos: ChaosAction,
) -> Result<RunResult, MorphError> {
    match chaos {
        #[expect(
            clippy::panic,
            reason = "chaos injection: deliberately panics inside the supervisor's catch_unwind to prove isolation"
        )]
        ChaosAction::Panic => {
            panic!("chaos: injected panic");
        }
        ChaosAction::Stall { seconds } => {
            // Simulate a hang the deadline monitor must break: hold the
            // worker until the stall elapses or the token is cancelled.
            let sw = Stopwatch::start();
            while !sw.has_elapsed(seconds) {
                if token.is_cancelled() {
                    return Err(MorphError::Cancelled { epoch: 0 });
                }
                sleep_seconds(SLEEP_SLICE_SECONDS);
            }
        }
        ChaosAction::None => {}
    }
    run_cell_cancellable(cfg, cell, token.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ChaosPlan;
    use crate::policy::Policy;
    use crate::workload::Workload;

    fn small_cells(n: usize) -> (SystemConfig, Vec<MatrixCell>) {
        let cfg = SystemConfig::quick_test(4).with_epochs(2);
        let w = Workload::named_apps(&["gcc", "hmmer", "mcf", "libq"]).unwrap();
        let cells = (0..n)
            .map(|i| MatrixCell::new(w.clone(), Policy::baseline(4), i as u64))
            .collect();
        (cfg, cells)
    }

    fn quick_options(jobs: usize) -> SuperviseOptions {
        SuperviseOptions {
            jobs,
            backoff_base_seconds: 0.001,
            backoff_cap_seconds: 0.01,
            ..SuperviseOptions::default()
        }
    }

    #[test]
    fn cancel_token_and_shutdown_flag() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.clone().cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        let s = ShutdownFlag::new();
        assert!(!s.is_requested());
        s.clone().request();
        assert!(s.is_requested());
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let o = SuperviseOptions {
            backoff_base_seconds: 0.05,
            backoff_cap_seconds: 0.2,
            ..SuperviseOptions::default()
        };
        assert_eq!(o.backoff_seconds(0), 0.0);
        assert_eq!(o.backoff_seconds(1), 0.05);
        assert_eq!(o.backoff_seconds(2), 0.1);
        assert_eq!(o.backoff_seconds(3), 0.2, "capped");
        assert_eq!(o.backoff_seconds(100), 0.2, "still capped, no overflow");
    }

    #[test]
    fn clean_run_reports_all_completed() {
        let (cfg, cells) = small_cells(3);
        let sup = Supervisor::new(quick_options(2));
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete());
        assert!(!m.was_interrupted());
        assert_eq!(m.health().count(CellStatus::Completed), 3);
        assert_eq!(m.health().total_retries(), 0);
        let matrix = m.into_matrix().unwrap();
        assert_eq!(matrix.results.len(), 3);
        assert!(matrix.health.is_complete());
    }

    #[test]
    fn chaos_panic_recovers_via_retry() {
        let (cfg, cells) = small_cells(3);
        let chaos = ChaosPlan::new().with_panic(1, 0);
        let sup = Supervisor::new(quick_options(2)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete());
        assert_eq!(m.reports[1].status, CellStatus::Recovered);
        assert_eq!(m.reports[1].retries, 1);
        assert!(matches!(
            m.reports[1].failures[0],
            CellFailure::Panicked { .. }
        ));
        // The recovered result equals an unsupervised run of the cell.
        let clean = Supervisor::new(quick_options(1)).run(&cfg, &cells).unwrap();
        assert_eq!(m.results[1], clean.results[1]);
    }

    #[test]
    fn exhausted_retries_degrade_without_stopping_the_matrix() {
        let (cfg, cells) = small_cells(3);
        // Panic every attempt of cell 0 (retries default 2 → 3 attempts).
        let chaos = ChaosPlan::new()
            .with_panic(0, 0)
            .with_panic(0, 1)
            .with_panic(0, 2)
            .with_panic(0, 3);
        let sup = Supervisor::new(quick_options(2)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(!m.is_complete());
        assert_eq!(m.reports[0].status, CellStatus::Degraded);
        assert_eq!(m.reports[0].retries, 3);
        assert!(m.results[1].is_some() && m.results[2].is_some());
        // The strict view surfaces the legacy panic error message.
        let err = m.into_matrix().unwrap_err();
        assert_eq!(
            err,
            MorphError::Workload("experiment thread for cell 0 panicked".into())
        );
    }

    #[test]
    fn deadline_cancels_a_stalled_cell_and_retry_recovers() {
        let (cfg, cells) = small_cells(2);
        // Cell 1 stalls 30s on its first attempt; a 2s deadline breaks
        // it and the retry (no stall at attempt 1) completes well inside
        // the limit — a quick-test cell finishes in well under a second.
        let chaos = ChaosPlan::new().with_stall(1, 0, 30.0);
        let options = SuperviseOptions {
            cell_timeout_seconds: Some(2.0),
            ..quick_options(2)
        };
        let sup = Supervisor::new(options).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.is_complete(), "{:?}", m.reports);
        assert_eq!(m.reports[1].status, CellStatus::Recovered);
        assert!(matches!(
            m.reports[1].failures[0],
            CellFailure::DeadlineExpired { .. }
        ));
    }

    #[test]
    fn kill_after_interrupts_remaining_cells() {
        let (cfg, cells) = small_cells(4);
        let chaos = ChaosPlan::new().with_kill_after(1);
        let sup = Supervisor::new(quick_options(1)).with_chaos(&chaos);
        let m = sup.run(&cfg, &cells).unwrap();
        assert!(m.was_interrupted());
        let health = m.health();
        assert_eq!(
            health.count(CellStatus::Completed),
            1,
            "{}",
            health.summary()
        );
        assert_eq!(
            health.count(CellStatus::Interrupted),
            3,
            "{}",
            health.summary()
        );
    }
}
