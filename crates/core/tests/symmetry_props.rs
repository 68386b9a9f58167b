//! Property-style tests for the buddy-partition symmetry group: the
//! canonicalization layer must be idempotent, invariant under every
//! group element, and its orbit sizes must account for the full state
//! space exactly — at 8 and 16 slices by exhaustive enumeration, and at
//! 64 slices by seeded random sampling (vendored PRNG, fully
//! deterministic).

use std::collections::BTreeMap;

use morphcache::symmetry::{BlockSizes, SymmetryGroup};
use morphcache::Xoshiro256pp;

/// All buddy partitions of an aligned block of `m` slices, as block-size
/// encodings. `B(1) = 1`, `B(m) = 1 + B(m/2)²`.
fn buddy_partitions(m: u16) -> Vec<BlockSizes> {
    if m == 1 {
        return vec![vec![1]];
    }
    let halves = buddy_partitions(m / 2);
    let mut out = vec![vec![m]];
    for a in &halves {
        for b in &halves {
            let mut v = a.clone();
            v.extend_from_slice(b);
            out.push(v);
        }
    }
    out
}

/// All (L2, L3) states with L2 a buddy refinement of L3 — the lattice's
/// reachable state space. `R(1) = 1`, `R(m) = B(m) + R(m/2)²`.
fn refining_pairs(n: u16) -> Vec<(BlockSizes, BlockSizes)> {
    let mut out = Vec::new();
    for l3 in buddy_partitions(n) {
        let mut l2s: Vec<BlockSizes> = vec![Vec::new()];
        for &block in &l3 {
            let choices = buddy_partitions(block);
            let mut next = Vec::with_capacity(l2s.len() * choices.len());
            for prefix in &l2s {
                for c in &choices {
                    let mut v = prefix.clone();
                    v.extend_from_slice(c);
                    next.push(v);
                }
            }
            l2s = next;
        }
        for l2 in l2s {
            out.push((l2, l3.clone()));
        }
    }
    out
}

/// A seeded random buddy partition of an aligned `m`-slice block.
fn random_partition(rng: &mut Xoshiro256pp, m: u16) -> BlockSizes {
    if m == 1 || rng.gen_bool(0.4) {
        vec![m]
    } else {
        let mut v = random_partition(rng, m / 2);
        v.extend(random_partition(rng, m / 2));
        v
    }
}

/// A seeded random (L2, L3) state: random L3, then a random buddy
/// refinement of each L3 block.
fn random_state(rng: &mut Xoshiro256pp, n: u16) -> (BlockSizes, BlockSizes) {
    let l3 = random_partition(rng, n);
    let mut l2 = Vec::new();
    for &block in &l3 {
        l2.extend(random_partition(rng, block));
    }
    (l2, l3)
}

#[test]
fn orbit_sizes_sum_to_the_full_state_count_at_8_and_16_slices() {
    // R(8) = 222, R(16) = 49,961 — the analyzer's pinned lattice totals.
    for (n, expected) in [(8u16, 222usize), (16, 49_961)] {
        let group = SymmetryGroup::new(n as usize).unwrap();
        let states = refining_pairs(n);
        assert_eq!(states.len(), expected, "enumeration at n={n}");
        let mut orbits: BTreeMap<(BlockSizes, BlockSizes), usize> = BTreeMap::new();
        for (l2, l3) in &states {
            let (rep, size) = group.canonical_pair(l2, l3);
            // Every member of an orbit must agree on the orbit size.
            let prev = orbits.insert(rep, size);
            if let Some(p) = prev {
                assert_eq!(p, size, "inconsistent orbit size at n={n}");
            }
        }
        let total: usize = orbits.values().sum();
        assert_eq!(total, expected, "orbit sizes must sum to R({n})");
        // Reduction is genuine: strictly fewer orbits than states.
        assert!(orbits.len() < expected, "no reduction at n={n}");
    }
}

#[test]
fn solo_partition_orbits_account_for_buddy_partition_counts() {
    // B(8) = 26, B(16) = 677.
    for (n, expected) in [(8u16, 26usize), (16, 677)] {
        let group = SymmetryGroup::new(n as usize).unwrap();
        let mut orbits: BTreeMap<BlockSizes, usize> = BTreeMap::new();
        for p in buddy_partitions(n) {
            let (rep, size) = group.canonical_partition(&p);
            orbits.insert(rep, size);
        }
        assert_eq!(orbits.values().sum::<usize>(), expected, "n={n}");
    }
}

#[test]
fn canonicalization_is_idempotent_on_random_states() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD1CE_CA5E);
    for n in [8u16, 16, 64] {
        let group = SymmetryGroup::new(n as usize).unwrap();
        for _ in 0..200 {
            let (l2, l3) = random_state(&mut rng, n);
            let (rep, size) = group.canonical_pair(&l2, &l3);
            let (rep2, size2) = group.canonical_pair(&rep.0, &rep.1);
            assert_eq!(rep, rep2, "canonical form must be a fixed point");
            assert_eq!(size, size2);
            assert!(group.is_canonical(&rep.0, &rep.1));
        }
    }
}

#[test]
fn canonical_form_is_invariant_under_rotation_and_reflection() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED_0B17);
    for n in [8u16, 16, 64] {
        let group = SymmetryGroup::new(n as usize).unwrap();
        for _ in 0..100 {
            let (l2, l3) = random_state(&mut rng, n);
            let (rep, size) = group.canonical_pair(&l2, &l3);
            let orbit = group.orbit(&l2, &l3);
            assert_eq!(orbit.len(), size);
            assert!(
                group.order().is_multiple_of(size),
                "orbit size divides group order"
            );
            for (il2, il3) in orbit {
                let (r, s) = group.canonical_pair(&il2, &il3);
                assert_eq!(r, rep, "images must share one canonical form");
                assert_eq!(s, size);
            }
        }
    }
}
