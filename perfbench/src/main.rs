//! End-to-end and per-layer benchmark of the MorphCache simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shared-mix08 --seed 12648430 --seconds 35 --trace 0
//! ```
//!
//! Every workload runs 16 cores on `SystemConfig::preset(16)` (Table 3
//! geometry, 1.5 M-cycle epochs) in one thread. A *repetition* builds a
//! fresh simulator for one workload seed, runs `WARMUP_EPOCHS` untimed
//! epochs so the caches fill, then times `MEASURED_EPOCHS` warm epochs.
//! A *cycle* is one repetition for each of `SUB_SEEDS` workload seeds:
//! `--seed` itself and seeds derived from it. The adaptive engine's
//! groupings, and with them the simulator's speed, differ a lot from
//! seed to seed, so a cycle averages over several. Cycles repeat while
//! another fits in `--seconds` (at least one runs) and the reported host
//! timings are medians over cycles.
//!
//! The simulator is deterministic, so every repetition of a seed must
//! produce the same `sim_digest`; one that errors, breaks inclusion or
//! digests differently counts as failed.
//!
//! `--trace 0` reports the end-to-end metrics from the plain
//! `SystemSim::new` + `run_epoch` path. `--trace 1` alternates plain and
//! traced cycles and reports the per-layer metrics: traced repetitions
//! wrap the backend in [`shim::TimingBackend`] and probe every epoch
//! with [`shim::CountingSink`]. Their spans are written to
//! `$CARGO_TARGET_DIR/perfbench-trace/` when the run ends.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod shim;

use morph_cache::{CacheLevel, Hierarchy, SliceStats};
use morph_system::prelude::*;
use morph_trace::AccessStream;
use morphcache::{CacheLevelId, MorphConfig, MorphEngine};
use shim::{CountingSink, EngineEvent, Recorder, SharedRecorder, TimingBackend};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// A seed kept out of tuning, for re-checking a claimed gain
/// (`--seed held-out`).
const HELD_OUT_SEED: u64 = 0x5EED_2011;
/// Workload seeds per cycle.
const SUB_SEEDS: usize = 8;
/// Untimed epochs per repetition. The traced run reports the last epoch
/// at which a seed's L3 first let out as many lines as it took in
/// (`cache.l3_full_epoch`); it must come before this.
const WARMUP_EPOCHS: usize = 8;
/// Timed warm epochs per repetition.
const MEASURED_EPOCHS: usize = 8;
/// Extra set-ups timed at the start of a run for the `setup_s` median.
const SETUP_SAMPLES: usize = 31;
/// Engine events kept from the first traced epoch for the engine
/// microkernel.
const EVENT_SAMPLE: usize = 1 << 18;
/// Trials per microkernel (the median is reported).
const MICRO_TRIALS: usize = 5;
/// Stream draws per trace-generation trial.
const GEN_DRAWS: usize = 1 << 21;

type BuildFn = fn(&SystemConfig) -> Result<(Workload, Policy), String>;

/// One benchmark workload.
struct Bench {
    name: &'static str,
    build: BuildFn,
}

const BENCHES: [Bench; 3] = [
    // The merged path: one 16-slice L2 group and one L3 group, so every
    // L2/L3 lookup, victim scan and back-invalidation spans 16 members.
    Bench {
        name: "shared-mix08",
        build: |_| Ok((Workload::mix(8)?, Policy::static_topology("16:1:1", 16))),
    },
    // The same streams on private slices: the singleton fast path, where
    // the CPU model, stream draws and epoch loop weigh the most. A
    // merged-path change should leave it unchanged.
    Bench {
        name: "private-mix08",
        build: |_| Ok((Workload::mix(8)?, Policy::static_topology("1:1:16", 16))),
    },
    // The only workload running the adaptive engine: ACFV events on the
    // access path, merges and splits at epoch boundaries, one shared
    // address space with lazily invalidated duplicates.
    Bench {
        name: "morph-canneal",
        build: |cfg| Ok((Workload::parsec("canneal")?, Policy::morph(cfg))),
    },
];

struct Args {
    workloads: Vec<&'static Bench>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: BENCHES.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = BENCHES.iter().collect(),
            "--workload" => {
                let b = BENCHES.iter().find(|b| b.name == value).ok_or_else(|| {
                    let names: Vec<_> = BENCHES.iter().map(|b| b.name).collect();
                    format!("unknown workload {value:?}; expected all or one of {names:?}")
                })?;
                args.workloads = vec![b];
            }
            "--seed" if value == "held-out" => args.seed = HELD_OUT_SEED,
            "--seed" => args.seed = parse_u64(&value)?,
            "--seconds" => args.seconds = parse_u64(&value)?.clamp(1, 120),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// The configurations of one cycle: `seed` itself, then seeds spread
/// from it by the golden-ratio increment.
fn cycle_configs(seed: u64) -> Vec<SystemConfig> {
    (0..SUB_SEEDS as u64)
        .map(|i| SystemConfig::preset(16).with_seed(seed.wrapping_add(i * 0x9E37_79B9_7F4A_7C15)))
        .collect()
}

// ---------------------------------------------------------------------
// Repetitions, and the checks every one of them passes.

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the per-epoch results a behaviour change would move.
fn sim_digest(epochs: &[EpochResult]) -> u64 {
    epochs.iter().fold(FNV_OFFSET, |mut h, e| {
        for a in &e.accesses_by_core {
            h = fnv(h, &a.to_le_bytes());
        }
        for ipc in &e.ipcs {
            h = fnv(h, &ipc.to_bits().to_le_bytes());
        }
        h = fnv(h, e.l2_grouping.as_bytes());
        h = fnv(h, e.l3_grouping.as_bytes());
        fnv(h, &(e.reconfig_events as u64).to_le_bytes())
    })
}

fn hierarchy(sim: &SystemSim) -> Result<&Hierarchy, String> {
    sim.hierarchy()
        .ok_or_else(|| "backend has no cache hierarchy".to_string())
}

fn err(e: MorphError) -> String {
    e.to_string()
}

/// What every repetition yields.
struct Rep {
    setup_s: f64,
    /// Simulated accesses over the measured epochs.
    accesses: u64,
    /// Host seconds over the measured epochs.
    measured_s: f64,
    /// Mean `throughput()` over the measured epochs.
    ipc: f64,
    digest: u64,
}

fn finish_rep(
    sim: &SystemSim,
    setup_s: f64,
    epochs: &[EpochResult],
    measured_s: f64,
) -> Result<Rep, String> {
    hierarchy(sim)?
        .check_inclusion()
        .map_err(|e| format!("inclusion violated: {e}"))?;
    let measured = &epochs[WARMUP_EPOCHS..];
    Ok(Rep {
        setup_s,
        accesses: measured.iter().map(|e| e.accesses).sum(),
        measured_s,
        ipc: measured.iter().map(EpochResult::throughput).sum::<f64>() / measured.len() as f64,
        digest: sim_digest(epochs),
    })
}

/// The user's path: `SystemSim::new`, then `run_epoch`.
fn plain_rep(cfg: &SystemConfig, w: &Workload, p: &Policy) -> Result<Rep, String> {
    let t = Instant::now();
    let mut sim = SystemSim::new(*cfg, w, p).map_err(err)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut epochs = Vec::with_capacity(WARMUP_EPOCHS + MEASURED_EPOCHS);
    for _ in 0..WARMUP_EPOCHS {
        epochs.push(sim.run_epoch().map_err(err)?);
    }
    let t = Instant::now();
    for _ in 0..MEASURED_EPOCHS {
        epochs.push(sim.run_epoch().map_err(err)?);
    }
    let measured_s = t.elapsed().as_secs_f64();
    finish_rep(&sim, setup_s, &epochs, measured_s)
}

/// One repetition per workload seed, summed.
#[derive(Default)]
struct Cycle {
    setups: Vec<f64>,
    accesses: u64,
    measured_s: f64,
    /// Mean over the seeds of each repetition's mean throughput.
    ipc: f64,
}

impl Cycle {
    fn add(&mut self, r: &Rep) {
        self.setups.push(r.setup_s);
        self.accesses += r.accesses;
        self.measured_s += r.measured_s;
        self.ipc += r.ipc / SUB_SEEDS as f64;
    }

    fn warm_acc_per_s(&self) -> f64 {
        self.accesses as f64 / self.measured_s
    }
}

/// Counts repetitions and checks each against the first repetition of
/// its seed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Per seed: (digest, mean-throughput bits) of its first repetition.
    reference: [Option<(u64, u64)>; SUB_SEEDS],
}

impl Tally {
    fn check(&mut self, what: &str, seed: usize, r: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let checked = r.and_then(|rep| {
            let got = (rep.digest, rep.ipc.to_bits());
            let want = *self.reference[seed].get_or_insert(got);
            if got == want {
                Ok(rep)
            } else {
                Err(format!(
                    "digest {:#018x} differs from {:#018x}",
                    got.0, want.0
                ))
            }
        });
        checked
            .map_err(|e| {
                eprintln!("{what}: seed #{seed}: {e}");
                self.failed += 1;
            })
            .ok()
    }

    /// Runs one cycle; `None` once a repetition fails its check.
    fn cycle(
        &mut self,
        what: &str,
        cfgs: &[SystemConfig],
        mut rep: impl FnMut(&SystemConfig) -> Result<Rep, String>,
    ) -> Option<Cycle> {
        let mut c = Cycle::default();
        for (i, cfg) in cfgs.iter().enumerate() {
            c.add(&self.check(what, i, rep(cfg))?);
        }
        Some(c)
    }

    /// The `sim_digest` of a cycle: the seeds' digests, chained.
    fn digest(&self) -> u64 {
        self.reference
            .iter()
            .flatten()
            .fold(FNV_OFFSET, |h, (d, _)| fnv(h, &d.to_le_bytes()))
    }
}

// ---------------------------------------------------------------------
// Traced repetitions.

/// Exact simulated counts over the measured epochs of a cycle, plus the
/// warm-up evidence over all epochs. Deterministic: equal in every
/// traced cycle of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    accesses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    l3_accesses: u64,
    l3_misses: u64,
    l2_hits: u64,
    l2_remote_hits: u64,
    evictions: u64,
    back_invalidations: u64,
    lazy_invalidations: u64,
    engine_events: u64,
    reconfigs: u64,
    /// Σ over cores of L2 accesses × that core's L2 group size.
    l2_probe_members: u64,
    /// Over the cycle's seeds, the latest first epoch at which the lines
    /// leaving L3 reached 95% of the lines inserted.
    l3_full_epoch: Option<usize>,
    /// Per repetition and epoch: (seed, accesses, L3 insertions, L3
    /// outflow), for the trace file.
    rows: Vec<(u64, u64, u64, u64)>,
}

/// Host timings summed over a traced cycle.
#[derive(Default)]
struct Timings {
    setup_backend_ms: Vec<f64>,
    setup_streams_ms: Vec<f64>,
    epoch_ns: u64,
    backend_ns: u64,
    access_calls: u64,
    access_ns: u64,
    boundary_ms: Vec<f64>,
}

fn level_sum(l: &CacheLevel, f: impl Fn(&SliceStats) -> u64) -> u64 {
    (0..l.n_slices()).map(|s| f(l.slice_stats(s))).sum()
}

/// A repetition through [`TimingBackend`] and [`CountingSink`]: the same
/// simulation as [`plain_rep`], with its layers measured from outside.
fn traced_rep(
    cfg: &SystemConfig,
    w: &Workload,
    p: &Policy,
    rec: &SharedRecorder,
    c: &mut Counters,
    tm: &mut Timings,
    sample: &mut Vec<EngineEvent>,
) -> Result<Rep, String> {
    let lock = || rec.lock().expect("recorder lock poisoned");
    let n = cfg.n_cores();
    let rep_span = lock().open("rep", Instant::now());
    let t0 = Instant::now();
    cfg.validate().map_err(err)?;
    let backend = from_policy(cfg, w, p).map_err(err)?;
    let t1 = Instant::now();
    let timing = TimingBackend::new(backend, Arc::clone(rec));
    let mut sim = SystemSim::with_backend(*cfg, w, Box::new(timing));
    let t2 = Instant::now();
    {
        let mut r = lock();
        r.leaf("setup.from_policy", t0, t1, 1, (t1 - t0).as_nanos() as u64);
        r.leaf("setup.with_backend", t1, t2, 1, (t2 - t1).as_nanos() as u64);
    }
    tm.setup_backend_ms.push((t1 - t0).as_secs_f64() * 1e3);
    tm.setup_streams_ms.push((t2 - t1).as_secs_f64() * 1e3);
    let has_engine = sim.engine().is_some();
    let mut epochs = Vec::with_capacity(WARMUP_EPOCHS + MEASURED_EPOCHS);
    let mut measured_ns = 0;
    let mut full_epoch = None;
    for e in 0..WARMUP_EPOCHS + MEASURED_EPOCHS {
        let measured = e >= WARMUP_EPOCHS;
        let group_size: Vec<u64> = {
            let g = hierarchy(&sim)?.l2().grouping();
            (0..n).map(|s| g.group_members(s).len() as u64).collect()
        };
        let cap = if measured && sample.is_empty() {
            EVENT_SAMPLE
        } else {
            0
        };
        let mut sink = CountingSink::with_sample(cap);
        let span = lock().open("epoch", Instant::now());
        let result = sim.run_epoch_probed(&mut sink).map_err(err)?;
        let (epoch_ns, backend_ns, access, boundary_ns) = {
            let mut r = lock();
            r.close(span, Instant::now());
            (
                r.spans[span].busy_ns,
                r.child_busy_ns(span),
                r.child_totals(span, "backend.access"),
                r.child_totals(span, "backend.epoch_boundary").1,
            )
        };
        let h = hierarchy(&sim)?;
        let (l2, l3) = (h.l2(), h.l3());
        let l3_ins = level_sum(l3, |s| s.insertions);
        let l3_evict = level_sum(l3, |s| s.evictions);
        // Lines leave a full L3 by eviction, and under the engine also by
        // back- and lazy invalidation when groups change.
        let l3_out = l3_evict + level_sum(l3, |s| s.back_invalidations + s.lazy_invalidations);
        c.rows.push((cfg.seed, result.accesses, l3_ins, l3_out));
        if full_epoch.is_none() && l3_ins > 0 && l3_out * 100 >= l3_ins * 95 {
            full_epoch = Some(e);
        }
        if measured {
            if sample.is_empty() {
                *sample = std::mem::take(&mut sink.sample);
            }
            measured_ns += epoch_ns;
            tm.epoch_ns += epoch_ns;
            tm.backend_ns += backend_ns;
            tm.access_calls += access.0;
            tm.access_ns += access.1;
            tm.boundary_ms.push(boundary_ns as f64 * 1e-6);
            c.accesses += result.accesses;
            c.l2_accesses += l2.stats.accesses;
            c.l2_misses += l2.stats.misses;
            c.l3_accesses += l3.stats.accesses;
            c.l3_misses += l3.stats.misses;
            c.l2_hits += level_sum(l2, SliceStats::hits);
            c.l2_remote_hits += level_sum(l2, |s| s.remote_hits);
            c.evictions += level_sum(l2, |s| s.evictions) + l3_evict;
            c.back_invalidations += level_sum(l2, |s| s.back_invalidations)
                + level_sum(l3, |s| s.back_invalidations)
                + (0..n)
                    .map(|core| h.l1(core).stats.back_invalidations)
                    .sum::<u64>();
            c.lazy_invalidations +=
                level_sum(l2, |s| s.lazy_invalidations) + level_sum(l3, |s| s.lazy_invalidations);
            if has_engine {
                c.engine_events += sink.engine_events();
            }
            c.reconfigs += result.reconfig_events as u64;
            c.l2_probe_members += l2
                .stats
                .accesses_by_core
                .iter()
                .zip(&group_size)
                .map(|(a, g)| a * g)
                .sum::<u64>();
        }
        epochs.push(result);
    }
    lock().close(rep_span, Instant::now());
    let full_epoch = full_epoch.ok_or_else(|| format!("seed {}: L3 never filled", cfg.seed))?;
    c.l3_full_epoch = c.l3_full_epoch.max(Some(full_epoch));
    finish_rep(
        &sim,
        (t2 - t0).as_secs_f64(),
        &epochs,
        measured_ns as f64 * 1e-9,
    )
}

// ---------------------------------------------------------------------
// Microkernels.

/// Host ns per stream draw, drawing round-robin over the workload's
/// 16 streams as the scheduler does.
fn trace_gen_ns(cfg: &SystemConfig, w: &Workload) -> f64 {
    let mut trials: Vec<f64> = (0..MICRO_TRIALS)
        .map(|_| {
            let mut streams = w.streams(cfg);
            let rounds = GEN_DRAWS / streams.len();
            let t = Instant::now();
            let mut acc = 0u64;
            for _ in 0..rounds {
                for s in &mut streams {
                    acc ^= s.next_access().line;
                }
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / (rounds * streams.len()) as f64
        })
        .collect();
    median(&mut trials)
}

/// Host ns per engine event, replaying the sampled L2/L3 events into a
/// fresh engine configured as `Policy::morph` configures it.
fn engine_event_ns(
    cfg: &SystemConfig,
    w: &Workload,
    p: &Policy,
    events: &[EngineEvent],
) -> Result<f64, String> {
    if events.is_empty() {
        return Err("no engine events were sampled".into());
    }
    let mc = match p {
        Policy::Morph(mc) => *mc,
        _ => MorphConfig::calibrated(cfg.l2_slice_lines(), cfg.l3_slice_lines()),
    };
    let n = cfg.n_cores();
    let mut trials = Vec::with_capacity(MICRO_TRIALS);
    for _ in 0..MICRO_TRIALS {
        let mut engine = MorphEngine::new(n, w.app_ids(n), mc).map_err(err)?;
        let t = Instant::now();
        for ev in events {
            let level = if ev.l3 {
                CacheLevelId::L3
            } else {
                CacheLevelId::L2
            };
            if ev.evicted {
                engine.on_evicted(level, ev.slice, ev.core, ev.line);
            } else {
                engine.on_touched(level, ev.slice, ev.core, ev.line);
            }
        }
        black_box(&engine);
        trials.push(t.elapsed().as_nanos() as f64 / events.len() as f64);
    }
    Ok(median(&mut trials))
}

// ---------------------------------------------------------------------
// Runs and reporting.

fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metric = (String, f64, &'static str);

/// The outcome of one workload's run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One workload's inputs for a run.
struct Setup<'a> {
    bench: &'a Bench,
    cfgs: Vec<SystemConfig>,
    workload: Workload,
    policy: Policy,
    budget: Duration,
}

/// Plain cycles until the budget is spent: the end-to-end metrics.
fn run_plain(s: &Setup) -> Result<Outcome, String> {
    let (name, w, p) = (s.bench.name, &s.workload, &s.policy);
    let start = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_SAMPLES + 8 * SUB_SEEDS);
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let sim = SystemSim::new(s.cfgs[0], w, p).map_err(err)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(black_box(sim));
    }
    let mut tally = Tally::default();
    let (mut cycles, mut last) = (0, Duration::ZERO);
    let (mut rates, mut ipc) = (Vec::new(), None);
    while cycles == 0 || start.elapsed() + last <= s.budget {
        let t = Instant::now();
        cycles += 1;
        if let Some(c) = tally.cycle(name, &s.cfgs, |cfg| plain_rep(cfg, w, p)) {
            setups.extend(&c.setups);
            rates.push(c.warm_acc_per_s());
            ipc = Some(c.ipc);
        }
        last = t.elapsed();
    }
    if cycles == 1 {
        // Only one cycle fit: repeat the first seed, so that every run
        // checks that a repetition reproduces its digest.
        if let Some(rep) = tally.check(name, 0, plain_rep(&s.cfgs[0], w, p)) {
            setups.push(rep.setup_s);
        }
    }
    let ipc = ipc.ok_or_else(|| format!("{name}: no cycle completed"))?;
    println!(
        "{name}: sim_digest {:#018x} over {SUB_SEEDS} seeds, {cycles} cycles",
        tally.digest()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s".into(), median(&mut setups), "s"),
            ("warm_acc_per_s".into(), median(&mut rates), "1/s"),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
            ("sim_ipc_sum".into(), ipc, "IPC"),
        ],
    })
}

/// Alternating plain and traced cycles: the per-layer metrics.
fn run_traced(s: &Setup, seed: u64) -> Result<Outcome, String> {
    let (name, w, p) = (s.bench.name, &s.workload, &s.policy);
    let start = Instant::now();
    let rec: SharedRecorder = Arc::new(Mutex::new(Recorder::new(start)));
    let mut tally = Tally::default();
    let mut sample = Vec::new();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut timings = Vec::new();
    let mut counters: Option<Counters> = None;
    let (mut cycles, mut last) = (0, Duration::ZERO);
    while cycles == 0 || start.elapsed() + last <= s.budget {
        let t = Instant::now();
        cycles += 1;
        if let Some(c) = tally.cycle(name, &s.cfgs, |cfg| plain_rep(cfg, w, p)) {
            plain_rates.push(c.warm_acc_per_s());
        }
        let (mut c, mut tm) = (Counters::default(), Timings::default());
        let traced = tally.cycle(name, &s.cfgs, |cfg| {
            traced_rep(cfg, w, p, &rec, &mut c, &mut tm, &mut sample)
        });
        if let Some(cycle) = traced {
            if counters.get_or_insert_with(|| c.clone()) == &c {
                traced_rates.push(cycle.warm_acc_per_s());
                timings.push(tm);
            } else {
                eprintln!("{name}: a traced cycle's exact counters differ from the first");
                tally.failed += 1;
            }
        }
        last = t.elapsed();
    }
    let c = counters.ok_or_else(|| format!("{name}: no traced cycle completed"))?;
    if plain_rates.is_empty() {
        return Err(format!("{name}: no plain cycle completed"));
    }
    let full_epoch = c.l3_full_epoch.unwrap_or(usize::MAX);
    if full_epoch >= WARMUP_EPOCHS {
        eprintln!("{name}: L3 fills only at epoch {full_epoch}, after the warm-up");
        tally.failed += 1;
    }
    let gen_ns = trace_gen_ns(&s.cfgs[0], w);
    let event_ns = engine_event_ns(&s.cfgs[0], w, p, &sample)?;
    let mut med = |f: &dyn Fn(&mut Timings) -> f64| {
        median(&mut timings.iter_mut().map(f).collect::<Vec<_>>())
    };
    let acc = c.accesses as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per_kacc = |n: u64| 1e3 * n as f64 / acc;
    let metrics: Vec<Metric> = vec![
        (
            "cache.access_ns".into(),
            med(&|t| ratio(t.access_ns, t.access_calls)),
            "ns",
        ),
        (
            "cache.l2_probe_width".into(),
            ratio(c.l2_probe_members, c.l2_accesses),
            "slices",
        ),
        (
            "cache.l2_miss_rate".into(),
            ratio(c.l2_misses, c.l2_accesses),
            "ratio",
        ),
        (
            "cache.l3_miss_rate".into(),
            ratio(c.l3_misses, c.l3_accesses),
            "ratio",
        ),
        (
            "cache.l2_remote_hit_frac".into(),
            ratio(c.l2_remote_hits, c.l2_hits),
            "ratio",
        ),
        (
            "cache.evictions_pki".into(),
            per_kacc(c.evictions),
            "1/kacc",
        ),
        (
            "cache.back_inval_pki".into(),
            per_kacc(c.back_invalidations),
            "1/kacc",
        ),
        (
            "cache.lazy_inval_pki".into(),
            per_kacc(c.lazy_invalidations),
            "1/kacc",
        ),
        ("cache.l3_full_epoch".into(), full_epoch as f64, "epoch"),
        (
            "engine.sink_events_per_acc".into(),
            ratio(c.engine_events, c.accesses),
            "1/acc",
        ),
        ("engine.event_ns".into(), event_ns, "ns"),
        (
            "engine.reconfigs_per_epoch".into(),
            c.reconfigs as f64 / (SUB_SEEDS * MEASURED_EPOCHS) as f64,
            "1/epoch",
        ),
        (
            "engine.boundary_ms".into(),
            med(&|t| median(&mut t.boundary_ms)),
            "ms",
        ),
        ("trace.gen_ns_per_acc".into(), gen_ns, "ns"),
        (
            "system.rest_ns_per_acc".into(),
            med(&|t| (t.epoch_ns - t.backend_ns) as f64 / acc),
            "ns",
        ),
        (
            "system.setup_backend_ms".into(),
            med(&|t| median(&mut t.setup_backend_ms)),
            "ms",
        ),
        (
            "system.setup_streams_ms".into(),
            med(&|t| median(&mut t.setup_streams_ms)),
            "ms",
        ),
        (
            "bench.trace_overhead".into(),
            median(&mut traced_rates) / median(&mut plain_rates),
            "ratio",
        ),
        (
            "bench.layer_coverage".into(),
            med(&|t| ratio(t.backend_ns, t.epoch_ns)),
            "ratio",
        ),
    ];
    let path = write_trace(name, seed, &rec, &c)?;
    println!(
        "{name}: sim_digest {:#018x} over {SUB_SEEDS} seeds, {cycles} plain+traced cycle pairs, spans in {path}",
        tally.digest()
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Writes the recorded spans and per-epoch counts as JSON under the
/// Cargo target directory.
fn write_trace(
    name: &str,
    seed: u64,
    rec: &SharedRecorder,
    c: &Counters,
) -> Result<String, String> {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.json"));
    let r = rec.lock().expect("recorder lock poisoned");
    let mut out = format!("{{\"workload\":\"{name}\",\"seed\":{seed},\"spans\":[");
    for (i, s) in r.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
            s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
        );
    }
    out.push_str("],\n\"epochs\":[");
    let mut epoch = 0;
    for (i, &(seed, acc, ins, out_lines)) in c.rows.iter().enumerate() {
        epoch = if i > 0 && c.rows[i - 1].0 == seed {
            epoch + 1
        } else {
            0
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"seed\":{seed},\"epoch\":{epoch},\"accesses\":{acc},\"l3_insertions\":{ins},\"l3_outflow\":{out_lines}}}"
        );
    }
    out.push_str("]}\n");
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let cfgs = cycle_configs(args.seed);
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    let prefix = args.workloads.len() > 1;
    for &bench in &args.workloads {
        let (workload, policy) = (bench.build)(&cfgs[0])?;
        let setup = Setup {
            bench,
            cfgs: cfgs.clone(),
            workload,
            policy,
            budget: Duration::from_secs(args.seconds),
        };
        let o = if args.trace {
            run_traced(&setup, args.seed)?
        } else {
            run_plain(&setup)?
        };
        for (name, value, unit) in &o.metrics {
            if !value.is_finite() {
                return Err(format!("{}: {name} is not finite", bench.name));
            }
            println!("{}: {name} = {value} {unit}", bench.name);
        }
        attempted += o.attempted;
        failed += o.failed;
        metrics.extend(o.metrics.into_iter().map(|(name, v, u)| {
            let name = if prefix {
                format!("{}.{name}", bench.name)
            } else {
                name
            };
            (name, v, u)
        }));
    }
    Ok(json_line(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
