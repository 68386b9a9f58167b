//! Resilience-layer integration tests: typed configuration errors, fault
//! injection, and the forward-progress watchdog, all through the public
//! driver API. The contract under test: every injected fault ends in a
//! completed run with finite degraded statistics or in a structured
//! `MorphError` — never a panic, never a hang.

use std::path::PathBuf;

use morph_system::experiment::{run_cells, run_workload, run_workload_faulted};
use morph_system::prelude::*;

fn cfg() -> SystemConfig {
    SystemConfig::quick_test(4).with_epochs(4)
}

fn workload() -> Workload {
    Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).expect("known benchmarks")
}

#[test]
fn invalid_configs_are_rejected_with_typed_errors() {
    let w = workload();
    type Breaker = Box<dyn Fn(&mut SystemConfig)>;
    let cases: Vec<(&str, Breaker)> = vec![
        ("epoch_cycles", Box::new(|c| c.epoch_cycles = 0)),
        ("quantum", Box::new(|c| c.quantum = 0)),
        ("quantum", Box::new(|c| c.quantum = c.epoch_cycles * 2)),
        ("n_epochs", Box::new(|c| c.n_epochs = 0)),
        ("n_cores", Box::new(|c| c.hierarchy.n_cores = 6)),
    ];
    for (field, break_it) in cases {
        let mut bad = cfg();
        break_it(&mut bad);
        match run_workload(&bad, &w, &Policy::baseline(4)) {
            Err(MorphError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn every_fault_class_completes_or_errors_structurally() {
    let cfg = cfg();
    let w = workload();
    let specs = [
        "seed=1;acfv@1;acfv@3",
        "seed=2;drop=5000@1;drop=20000@3",
        "seed=3;merge@2",
        "seed=4;split@2",
        "seed=5;acfv@1;drop=5000@2;merge@3;split@4",
        "seed=6;pin=2@3",
    ];
    for spec in specs {
        let plan = FaultPlan::parse(spec).unwrap();
        match run_workload_faulted(&cfg, &w, &Policy::morph(&cfg), Box::new(plan)) {
            Ok(r) => {
                assert_eq!(r.epochs.len(), cfg.n_epochs, "{spec}");
                assert!(
                    r.epochs
                        .iter()
                        .all(|e| e.throughput().is_finite() && e.throughput() > 0.0),
                    "{spec}: degraded stats must stay valid"
                );
            }
            Err(MorphError::Stalled { diagnostic, .. }) => {
                // Only the MSHR pin may starve a core, and it must carry
                // its diagnostic rather than hang.
                assert!(spec.contains("pin="), "{spec}: unexpected stall");
                assert_eq!(diagnostic.mshr_outstanding.len(), 4, "{spec}");
            }
            Err(other) => panic!("{spec}: unexpected error {other}"),
        }
    }
}

#[test]
fn pinned_mshr_yields_stalled_error_with_diagnostics() {
    let cfg = cfg();
    let w = workload();
    let plan = FaultPlan::parse("pin=0@2").unwrap();
    match run_workload_faulted(&cfg, &w, &Policy::morph(&cfg), Box::new(plan)) {
        Err(MorphError::Stalled {
            epoch,
            core,
            diagnostic,
        }) => {
            assert_eq!((epoch, core), (2, 0));
            assert!(diagnostic.mshr_outstanding[0] > 0);
            assert!(diagnostic.retired < 16u64.max(cfg.epoch_cycles / 10_000));
            // The error formats into a human-readable diagnostic.
            let msg = MorphError::Stalled {
                epoch,
                core,
                diagnostic,
            }
            .to_string();
            assert!(msg.contains("stalled"), "{msg}");
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let cfg = cfg();
    let w = workload();
    let run = |seed: u64| {
        let plan = FaultPlan::parse(&format!("seed={seed};acfv@1;drop=8000@2;merge@3")).unwrap();
        run_workload_faulted(&cfg, &w, &Policy::morph(&cfg), Box::new(plan))
            .unwrap()
            .throughput_series()
    };
    assert_eq!(run(42), run(42), "same fault seed, same results");
}

#[test]
fn clean_and_nofault_runs_agree() {
    // An installed-but-empty fault plan must not perturb the simulation.
    let cfg = cfg();
    let w = workload();
    let clean = run_workload(&cfg, &w, &Policy::morph(&cfg)).unwrap();
    let noop = run_workload_faulted(
        &cfg,
        &w,
        &Policy::morph(&cfg),
        Box::new(FaultPlan::parse("seed=7").unwrap()),
    )
    .unwrap();
    assert_eq!(clean.throughput_series(), noop.throughput_series());
}

// ---- supervised execution --------------------------------------------

/// A small matrix: the same quick workload under `n` distinct seeds.
fn small_matrix(n: usize) -> (SystemConfig, Vec<MatrixCell>) {
    let cfg = SystemConfig::quick_test(4).with_epochs(2);
    let w = Workload::named_apps(&["cactus", "libq", "gobmk", "perl"]).expect("known benchmarks");
    let cells = (0..n)
        .map(|i| MatrixCell::new(w.clone(), Policy::baseline(4), i as u64))
        .collect();
    (cfg, cells)
}

/// Supervision options tuned for test speed: near-instant backoff.
fn quick_supervision(jobs: usize) -> SuperviseOptions {
    SuperviseOptions {
        jobs,
        backoff_base_seconds: 0.001,
        backoff_cap_seconds: 0.01,
        ..SuperviseOptions::default()
    }
}

/// A scratch journal directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("morph-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn panicking_cell_is_isolated_and_the_matrix_completes_around_it() {
    let (cfg, cells) = small_matrix(4);
    // Cell 2 panics on every attempt; with zero retries it degrades
    // immediately — and every other cell still completes.
    let chaos = ChaosPlan::new().with_panic(2, 0);
    let options = SuperviseOptions {
        retries: 0,
        ..quick_supervision(2)
    };
    let m = Supervisor::new(options)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(!m.is_complete());
    assert!(!m.was_interrupted());
    let health = m.health();
    assert_eq!(
        health.count(CellStatus::Completed),
        3,
        "{}",
        health.summary()
    );
    assert_eq!(
        health.count(CellStatus::Degraded),
        1,
        "{}",
        health.summary()
    );
    assert!(m.results[2].is_none());
    assert!(matches!(
        m.reports[2].failures[0],
        CellFailure::Panicked { .. }
    ));
    // The strict view preserves the historical panic contract.
    let err = m.into_matrix().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid workload: experiment thread for cell 2 panicked"
    );
}

#[test]
fn deadline_expiry_is_retried_to_success() {
    let (cfg, cells) = small_matrix(2);
    // Cell 0 stalls far past the deadline on its first attempt only; the
    // supervisor cancels it at an epoch boundary and the retry succeeds.
    let chaos = ChaosPlan::new().with_stall(0, 0, 30.0);
    let options = SuperviseOptions {
        cell_timeout_seconds: Some(2.0),
        retries: 1,
        ..quick_supervision(2)
    };
    let m = Supervisor::new(options)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.is_complete(), "{:?}", m.reports);
    assert_eq!(m.reports[0].status, CellStatus::Recovered);
    assert_eq!(m.reports[0].retries, 1);
    assert!(matches!(
        m.reports[0].failures[0],
        CellFailure::DeadlineExpired { .. }
    ));
}

#[test]
fn interrupted_run_resumes_from_the_journal_bit_identically() {
    let (cfg, cells) = small_matrix(4);
    let golden = run_cells(&cfg, &cells, 1).unwrap();
    let dir = scratch_dir("resilience-resume");

    // Round 1: an injected kill after two completions interrupts the run.
    let chaos = ChaosPlan::new().with_kill_after(2);
    let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
    let m = Supervisor::new(quick_supervision(1))
        .with_journal(journal)
        .with_chaos(&chaos)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.was_interrupted());
    assert_eq!(m.health().count(CellStatus::Completed), 2);

    // Round 2: resume — completed cells come back from the journal, the
    // rest run fresh, and the whole matrix matches the unfaulted run.
    let journal = RunJournal::open(&dir, &cfg, &cells).unwrap();
    assert_eq!(journal.cached_cells(), 2);
    let m = Supervisor::new(quick_supervision(1))
        .with_journal(journal)
        .run(&cfg, &cells)
        .unwrap();
    assert!(m.is_complete());
    assert_eq!(m.health().count(CellStatus::Cached), 2);
    let resumed: Vec<RunResult> = m.results.into_iter().map(Option::unwrap).collect();
    assert_eq!(resumed, golden.results, "resume must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampling_with_faults_is_a_typed_conflict_with_a_pinned_message() {
    let cfg = cfg();
    let w = workload();
    let plan = FaultPlan::parse("seed=9;acfv@1").unwrap();
    let mut sim = SystemSim::new(cfg, &w, &Policy::morph(&cfg))
        .and_then(|s| s.with_faults(Box::new(plan)))
        .unwrap();
    let err = run_sampled(&mut sim, &SamplingConfig::default()).unwrap_err();
    assert!(matches!(err, MorphError::FeatureConflict { .. }));
    assert_eq!(
        err.to_string(),
        "cannot combine --sampling with --faults: skipped epochs bypass the fault injector"
    );
}

/// How much of one journal file reached the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Persisted {
    Absent,
    /// A prefix of the content: a rename that became durable before the
    /// write behind it.
    Torn,
    Full,
}

/// Every crash state of a 4-cell journal, on the real `RunJournal`.
///
/// Each of `manifest.json` and `cell_0..3.json` is absent, torn or full
/// (3^5 = 243 states), with and without a torn `.tmp` sibling beside
/// every file. A crash between any two of the commit sequence's
/// operations, mid-write, or with any subset of them persisted (without
/// an fsync barrier) lands in one of these states. Resume must either
/// cache exactly the full cells, bit-identically, or report a typed
/// journal error, and it must do the latter exactly when a file is torn.
#[test]
fn every_journal_crash_state_resumes_cleanly_or_reports_a_typed_error() {
    const CELLS: usize = 4;
    let (cfg, cells) = small_matrix(CELLS);
    let golden = run_cells(&cfg, &cells, 1).unwrap().results;
    let seconds: Vec<f64> = (0..CELLS).map(|i| 0.1 + i as f64 / 3.0).collect();

    // Record the run to completion and keep its files.
    let complete = scratch_dir("journal-complete");
    let journal = RunJournal::open(&complete, &cfg, &cells).unwrap();
    for (i, result) in golden.iter().enumerate() {
        journal.record(i, result, seconds[i]).unwrap();
    }
    let names: Vec<String> = std::iter::once("manifest.json".to_string())
        .chain((0..CELLS).map(|i| format!("cell_{i}.json")))
        .collect();
    let contents: Vec<Vec<u8>> = names
        .iter()
        .map(|n| std::fs::read(complete.join(n)).unwrap())
        .collect();

    let dir = scratch_dir("journal-crash-state");
    let (mut clean, mut typed) = (0, 0);
    for state in 0..3usize.pow(names.len() as u32) {
        let files: Vec<Persisted> = (0..names.len())
            .map(|f| match state / 3usize.pow(f as u32) % 3 {
                0 => Persisted::Absent,
                1 => Persisted::Torn,
                _ => Persisted::Full,
            })
            .collect();
        for stray_tmp in [false, true] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for ((name, content), persisted) in names.iter().zip(&contents).zip(&files) {
                let torn = &content[..content.len() / 2];
                match persisted {
                    Persisted::Absent => {}
                    Persisted::Torn => std::fs::write(dir.join(name), torn).unwrap(),
                    Persisted::Full => std::fs::write(dir.join(name), content).unwrap(),
                }
                if stray_tmp {
                    std::fs::write(dir.join(format!("{name}.tmp")), torn).unwrap();
                }
            }
            let what = format!("state {files:?}, stray .tmp: {stray_tmp}");
            match RunJournal::open(&dir, &cfg, &cells) {
                Ok(resumed) => {
                    assert!(
                        !files.contains(&Persisted::Torn),
                        "{what}: torn file accepted"
                    );
                    for (i, cached) in resumed.cached().iter().enumerate() {
                        if files[1 + i] == Persisted::Full {
                            let (result, secs) = cached.as_ref().unwrap();
                            assert_eq!(result, &golden[i], "{what}: cell {i}");
                            assert_eq!(secs.to_bits(), seconds[i].to_bits(), "{what}");
                        } else {
                            assert!(cached.is_none(), "{what}: cell {i} cached");
                        }
                    }
                    clean += 1;
                }
                Err(MorphError::Journal(_)) => {
                    assert!(
                        files.contains(&Persisted::Torn),
                        "{what}: intact journal refused"
                    );
                    typed += 1;
                }
                Err(other) => panic!("{what}: expected a journal error, got {other:?}"),
            }
        }
    }
    // 2^5 of the 3^5 states hold no torn file.
    assert_eq!((clean, typed), (2 * 32, 2 * (243 - 32)));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&complete);
}
