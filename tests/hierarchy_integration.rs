//! Cross-crate integration tests: the cache hierarchy driven by real
//! synthetic workloads through the core timing model, with inclusion and
//! grouping invariants checked end to end.

use morph_cache::{Grouping, Hierarchy, HierarchyParams, MemorySubsystem, NoopSink};
use morph_cpu::{Core, CoreParams, QuantumScheduler};
use morph_trace::spec;
use morph_trace::stream::{AccessStream, StreamConfig, SyntheticStream};

fn streams(names: &[&str], seed: u64) -> Vec<SyntheticStream> {
    names
        .iter()
        .enumerate()
        .map(|(c, n)| {
            let cfg = StreamConfig::single_threaded(c, seed).with_slice_lines(512, 2048);
            SyntheticStream::new(spec::profile(n).expect("known benchmark"), cfg)
        })
        .collect()
}

/// Runs one `cycles`-long epoch per grouping shape, regrouping in the
/// inclusion-safe order (L2 split to private, L3 to the shape, L2
/// following it), and checks inclusion after every phase. Returns the
/// hierarchy for further checks.
fn run_regroup_phases(
    mut ss: Vec<SyntheticStream>,
    shapes: &[Vec<Vec<usize>>],
    cycles: u64,
) -> Hierarchy {
    let n = ss.len();
    let mut h = Hierarchy::new(HierarchyParams::scaled_down(n));
    let mut cores: Vec<Core> = (0..n).map(|c| Core::new(c, CoreParams::paper())).collect();
    let sched = QuantumScheduler::new(500);
    let mut sink = NoopSink;
    for (i, shape) in shapes.iter().enumerate() {
        h.set_l2_grouping(Grouping::private(n)).unwrap();
        h.set_l3_grouping(Grouping::from_groups(n, shape.clone()).unwrap())
            .unwrap();
        h.set_l2_grouping(Grouping::from_groups(n, shape.clone()).unwrap())
            .unwrap();
        sched.run_epoch(&mut cores, &mut ss, &mut h, &mut sink, cycles);
        h.check_inclusion()
            .unwrap_or_else(|e| panic!("{n} cores, phase {i}: {e}"));
        for s in &mut ss {
            s.advance_epoch();
        }
    }
    h
}

fn lazy_invalidations(h: &Hierarchy) -> u64 {
    (0..h.params().n_cores)
        .map(|s| {
            h.l2().slice_stats(s).lazy_invalidations + h.l3().slice_stats(s).lazy_invalidations
        })
        .sum()
}

#[test]
fn inclusion_holds_across_workload_and_regrouping() {
    run_regroup_phases(
        streams(&["gcc", "libq", "cactus", "hmmer"], 11),
        &[
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 1, 2, 3]],
            vec![vec![0], vec![1], vec![2], vec![3]],
            vec![vec![0, 1], vec![2], vec![3]],
        ],
        20_000,
    );
    // Eight threads of one PARSEC program share lines, so merging leaves
    // copies in several member slices that group lookups lazily
    // invalidate. The phases spill fills across wide groups, split L3
    // after L2 (all-shared to quarters and pairs) and sweep lines whose
    // L3 backing is lost.
    let canneal = morph_trace::parsec::profile("canneal").expect("known benchmark");
    let threads: Vec<SyntheticStream> = (0..8)
        .map(|t| {
            let cfg = StreamConfig::thread_of(0, t, 8, 11).with_slice_lines(512, 2048);
            SyntheticStream::new(canneal, cfg)
        })
        .collect();
    let h = run_regroup_phases(
        threads,
        &[
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            vec![vec![0, 1, 2, 3, 4, 5, 6, 7]],
            vec![vec![0, 1], vec![2, 3], vec![4, 5, 6, 7]],
            vec![vec![0, 1, 2, 3, 4, 5, 6, 7]],
            vec![vec![0], vec![1], vec![2], vec![3], vec![4, 5], vec![6, 7]],
        ],
        100_000,
    );
    let l2_evictions: u64 = (0..8).map(|s| h.l2().slice_stats(s).evictions).sum();
    assert!(l2_evictions > 0, "no L2 victim selected");
    assert!(lazy_invalidations(&h) > 0, "no lazy invalidation exercised");
}

#[test]
fn group_lookup_lazily_invalidates_at_most_four_copies() {
    // Pins the bounded lazy invalidation listed in DESIGN.md §7: a group
    // lookup that finds more than five copies of a line drops four stale
    // ones, and the rest survive until later lookups collapse them.
    let mut h = Hierarchy::new(HierarchyParams::scaled_down(8));
    let mut sink = NoopSink;
    let line = 0x1234;
    for c in 0..6 {
        h.access(c, line, false, &mut sink);
    }
    let l2_copies = |h: &Hierarchy| (0..8).filter(|&s| h.l2().resident_in(&[s], line)).count();
    assert_eq!(l2_copies(&h), 6, "one private copy per accessing core");
    h.set_l3_grouping(Grouping::all_shared(8)).unwrap();
    h.set_l2_grouping(Grouping::all_shared(8)).unwrap();
    // Cores 7 and 6 miss their L1s and hit the newest L2 copy (core 5's).
    h.access(7, line, false, &mut sink);
    assert_eq!(lazy_invalidations(&h), 4);
    assert_eq!(l2_copies(&h), 2, "the fifth stale copy survives");
    h.access(6, line, false, &mut sink);
    assert_eq!(lazy_invalidations(&h), 5);
    assert_eq!(l2_copies(&h), 1);
    h.check_inclusion().unwrap();
}

#[test]
fn merged_hierarchy_shares_capacity_end_to_end() {
    // A thrashing app paired with an idle one: merging the pair's slices
    // must strictly reduce the thrasher's L2+L3 misses.
    let run = |merged: bool| -> u64 {
        let mut h = Hierarchy::new(HierarchyParams::scaled_down(2));
        if merged {
            h.set_l3_grouping(Grouping::all_shared(2)).unwrap();
            h.set_l2_grouping(Grouping::all_shared(2)).unwrap();
        }
        let mut cores: Vec<Core> = (0..2).map(|c| Core::new(c, CoreParams::paper())).collect();
        // cactusADM overflows its L2 slice; libquantum barely uses its own.
        let mut ss = streams(&["cactus", "gamess"], 3);
        let sched = QuantumScheduler::new(500);
        let mut sink = NoopSink;
        for _ in 0..4 {
            sched.run_epoch(&mut cores, &mut ss, &mut h, &mut sink, 100_000);
            for s in &mut ss {
                s.advance_epoch();
            }
        }
        h.l2().stats.misses_by_core[0] + h.l3().stats.misses_by_core[0]
    };
    let private = run(false);
    let merged = run(true);
    assert!(
        merged < private,
        "merging must reduce the overflowing app's misses: merged {merged} vs private {private}"
    );
}

#[test]
fn identical_traces_reach_all_memory_systems() {
    // The same deterministic stream drives the LRU hierarchy and both
    // baseline systems without panics, and every system makes progress.
    use morph_baselines::{DsrSystem, PippSystem};
    let p = HierarchyParams::scaled_down(4);
    let mut systems: Vec<Box<dyn MemorySubsystem>> = vec![
        Box::new(Hierarchy::new(p)),
        Box::new(PippSystem::new(4, p.l1, p.l2_slice, p.l3_slice, p.latency)),
        Box::new(DsrSystem::new(4, p.l1, p.l2_slice, p.l3_slice, p.latency)),
    ];
    for sys in &mut systems {
        let mut ss = streams(&["gcc", "mcf", "astar", "milc"], 5);
        let mut sink = NoopSink;
        let mut total = 0u64;
        for (c, stream) in ss.iter_mut().enumerate() {
            for _ in 0..5_000 {
                let a = stream.next_access();
                total += sys.access(c, a.line, a.is_write, &mut sink);
            }
        }
        assert!(total > 0);
        sys.epoch_boundary();
    }
}
