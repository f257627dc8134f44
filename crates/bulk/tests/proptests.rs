//! Property tests for the orchestration layer: exact pair coverage for
//! arbitrary grid shapes, batch-GCD vs a pairwise oracle on arbitrary
//! composite sets, and incremental-index consistency (including corpora
//! that span several of the index's segment products).

use bulkgcd_bigint::Nat;
use bulkgcd_bulk::{
    batch_gcd, batch_gcd_parallel, CorpusIndex, FaultPlan, GpuSimBackend, GroupedPairs,
    ModuliArena, ScanError, ScanJournal, ScanPipeline,
};
use bulkgcd_core::Algorithm;
use bulkgcd_gpu::{CostModel, DeviceConfig, RetryPolicy};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

/// Moduli in the segment-spanning index test.
const KEYS: usize = 206;

/// Small odd primes for building composite moduli cheaply.
const SMALL_PRIMES: &[u32] = &[
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179,
];

fn composite() -> impl Strategy<Value = Nat> {
    (0..SMALL_PRIMES.len(), 0..SMALL_PRIMES.len())
        .prop_map(|(i, j)| Nat::from(SMALL_PRIMES[i]).mul(&Nat::from(SMALL_PRIMES[j])))
}

/// A modulus of one of four shapes: a 1-limb composite, a 32-limb number
/// carrying a small composite (so wide moduli share factors with narrow
/// ones and each other), a 32-limb number whose top limb is 1, or a plain
/// pseudo-random 32-limb odd number.
fn mixed_width_modulus() -> impl Strategy<Value = Nat> {
    (0u8..4, composite(), any::<u64>()).prop_map(|(shape, small, seed)| {
        let mut state = seed | 1;
        let mut limbs: Vec<u32> = (0..32)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            })
            .collect();
        limbs[0] |= 1;
        limbs[31] |= 1;
        match shape {
            0 => small,
            1 => Nat::from_limbs(&limbs[..30]).mul(&small),
            2 => Nat::from_u64(1).shl(32 * 31).add(&small),
            _ => Nat::from_limbs(&limbs),
        }
    })
}

/// Xorshift64 stream for bulk operands a strategy cannot draw one by one.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 32) as u32
    }

    /// An odd number of exactly `limbs` limbs.
    fn odd(&mut self, limbs: usize) -> Nat {
        let mut v: Vec<u32> = (0..limbs).map(|_| self.next()).collect();
        v[0] |= 1;
        v[limbs - 1] |= 1;
        Nat::from_limbs(&v)
    }
}

/// The index's answer recomputed from the product of every indexed
/// modulus, with the duplicate convention `gcd(n, 0) = n`.
fn direct_product_factor(prod: &Nat, candidate: &Nat) -> Nat {
    let r = prod.rem(candidate);
    if r.is_zero() {
        candidate.clone()
    } else {
        r.gcd_reference(candidate)
    }
}

/// `gcd(n_i, Π_{j≠i} n_j)` by reducing the cofactor product mod `n_i`,
/// with batch GCD's duplicate convention `gcd(n, 0) = n`.
fn cofactor_gcds(moduli: &[Nat]) -> Vec<Nat> {
    moduli
        .iter()
        .enumerate()
        .map(|(i, ni)| {
            let mut r = Nat::one();
            for (j, nj) in moduli.iter().enumerate() {
                if i != j {
                    r = r.mul(&nj.rem(ni)).rem(ni);
                }
            }
            if r.is_zero() {
                ni.clone()
            } else {
                ni.gcd_reference(&r)
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn batch_gcd_mixed_widths_match_oracle(
        corpus in vec(mixed_width_modulus(), 1..24),
        shape in 0u8..4,
        dup in any::<u64>(),
    ) {
        // Shapes: as drawn, plus a duplicate of a random member, or every
        // modulus equal to the first (m ≥ 2 so the tree is real).
        let mut moduli = corpus;
        match shape {
            0 => {
                let k = dup as usize % moduli.len();
                moduli.push(moduli[k].clone());
            }
            1 => {
                let m = moduli.len().max(2);
                moduli = vec![moduli[0].clone(); m];
            }
            _ => {}
        }
        let expect = cofactor_gcds(&moduli);
        prop_assert_eq!(&batch_gcd(&moduli), &expect);
        prop_assert_eq!(&batch_gcd_parallel(&moduli), &expect);
    }

    #[test]
    fn grid_covers_every_pair_exactly_once(groups in 1usize..=8, r in 1usize..=8) {
        let m = groups * r;
        let grid = GroupedPairs::new(m, r);
        let mut seen = HashSet::new();
        for (a, b) in grid.all_pairs() {
            prop_assert!(a < b && b < m);
            prop_assert!(seen.insert((a, b)), "duplicate ({a},{b})");
        }
        prop_assert_eq!(seen.len() as u64, grid.total_pairs());
    }

    #[test]
    fn thread_workloads_match_kernel_spec(groups in 1usize..=6, r in 1usize..=6) {
        let grid = GroupedPairs::new(groups * r, r);
        for b in grid.blocks() {
            for k in 0..r {
                let pairs = grid.thread_pairs(b, k);
                if b.i < b.j {
                    prop_assert_eq!(pairs.len(), r);
                } else {
                    prop_assert_eq!(pairs.len(), r - 1 - k);
                }
            }
        }
    }

    #[test]
    fn batch_gcd_matches_pairwise_oracle(moduli in vec(composite(), 2..12)) {
        let batch = batch_gcd(&moduli);
        for (i, ni) in moduli.iter().enumerate() {
            // Oracle: gcd of n_i with the product of all the others equals
            // gcd(n_i, prod mod n_i). Build it straightforwardly.
            let mut prod_others = Nat::one();
            for (j, nj) in moduli.iter().enumerate() {
                if i != j {
                    prod_others = prod_others.mul(nj);
                }
            }
            let expect = ni.gcd_reference(&prod_others.rem(ni));
            // batch_gcd defines the duplicate case as gcd(n, 0) = n.
            let expect = if prod_others.rem(ni).is_zero() { ni.clone() } else { expect };
            prop_assert_eq!(&batch[i], &expect, "modulus {}", i);
        }
    }

    #[test]
    fn incremental_index_agrees_with_direct_product(
        corpus in vec(composite(), 1..10), candidate in composite()
    ) {
        let idx = CorpusIndex::from_moduli(&corpus).unwrap();
        let got = idx.shared_factor(&candidate).unwrap();
        let mut prod = Nat::one();
        for n in &corpus {
            prod = prod.mul(n);
        }
        let r = prod.rem(&candidate);
        let expect = if r.is_zero() {
            candidate.clone()
        } else {
            r.gcd_reference(&candidate)
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn index_spanning_segments_agrees_with_direct_product(
        seed in any::<u64>(),
        split in 0usize..KEYS,
        ops in vec((0u8..8, any::<u64>()), 20..28),
    ) {
        // KEYS moduli of 10–12 limbs hold more than 2·1024 limbs, so the
        // index (1024-limb segments) spans at least three segment products
        // whatever the split between bootstrap and inserts.
        let mut rng = XorShift(seed | 1);
        let pool: Vec<Nat> = (0..24).map(|_| Nat::from(rng.next() | 1)).collect();
        let keys: Vec<Nat> = (0..KEYS)
            .map(|i| {
                let width = 10 + rng.next() as usize % 3;
                let n = pool[rng.next() as usize % pool.len()].mul(&rng.odd(width - 1));
                // Every 16th key is even.
                if i % 16 == 5 { n.shl(1) } else { n }
            })
            .collect();
        prop_assert!(keys.iter().map(Nat::len).sum::<usize>() > 2 * 1024);

        let mut idx = CorpusIndex::from_moduli(&keys[..split]).unwrap();
        let mut prod = keys[..split].iter().fold(Nat::one(), |p, n| p.mul(n));
        let mut next = split;
        // The ops run once; a final pass inserts whatever is left and
        // checks one candidate of each kind.
        let tail = (0u8..8).map(|kind| (kind, u64::MAX));
        for (kind, pick) in ops.into_iter().chain(tail) {
            let run = if pick == u64::MAX { KEYS } else { 1 + pick as usize % 24 };
            if kind < 3 {
                for n in &keys[next..KEYS.min(next + run)] {
                    idx.insert(n.clone()).unwrap();
                    prod = prod.mul(n);
                }
                next = KEYS.min(next + run);
                if kind == 0 {
                    idx.commit();
                }
                continue;
            }
            let candidate = match kind {
                // A duplicate of an indexed modulus: the answer is n itself.
                3 if next > 0 => keys[pick as usize % next].clone(),
                4 => pool[pick as usize % pool.len()].mul(&rng.odd(4)),
                5 => pool[pick as usize % pool.len()].mul(&rng.odd(3)).shl(1),
                6 => Nat::one(),
                _ => rng.odd(1 + pick as usize % 12),
            };
            let got = idx.shared_factor(&candidate).unwrap();
            prop_assert_eq!(&got, &direct_product_factor(&prod, &candidate));
            if kind == 3 && next > 0 {
                prop_assert_eq!(&got, &candidate);
            }
        }
        prop_assert_eq!(idx.len(), KEYS);
    }

    #[test]
    fn check_and_insert_is_order_consistent(moduli in vec(composite(), 2..8)) {
        // Streaming the corpus yields, at each step, the shared factor
        // against the prefix — which must agree with a fresh index over
        // that prefix.
        let mut idx = CorpusIndex::new();
        for (i, n) in moduli.iter().enumerate() {
            let fresh = CorpusIndex::from_moduli(&moduli[..i]).unwrap();
            prop_assert_eq!(
                idx.check_and_insert(n).unwrap(),
                fresh.shared_factor(n).unwrap(),
                "step {}",
                i
            );
        }
    }

    #[test]
    fn resume_after_any_prefix_matches_uninterrupted_run(
        moduli in vec(composite(), 2..10),
        launch_pairs in 1usize..8,
        kill_pick in 0u64..1000,
    ) {
        let arena = ModuliArena::try_from_moduli(&moduli).unwrap();
        let device = DeviceConfig::gtx_780_ti();
        let cost = CostModel::default();
        let policy = RetryPolicy::no_retries();
        let algo = Algorithm::Approximate;
        let scan = |journal: &mut ScanJournal, plan: &FaultPlan| {
            ScanPipeline::new(&arena)
                .algorithm(algo)
                .backend(GpuSimBackend {
                    device: device.clone(),
                    cost: cost.clone(),
                })
                .launch_pairs(launch_pairs)
                .journal(journal)
                .faults(plan)
                .retry(policy)
                .run()
        };

        // Uninterrupted baseline.
        let mut clean_journal = ScanJournal::in_memory();
        let base = scan(&mut clean_journal, &FaultPlan::none()).unwrap();

        // Kill the scan at an arbitrary launch boundary (any prefix of the
        // launch sequence may have committed), then resume.
        let total = (moduli.len() * (moduli.len() - 1) / 2) as u64;
        let launches = total.div_ceil(launch_pairs as u64);
        let kill = kill_pick % launches;
        let mut journal = ScanJournal::in_memory();
        match scan(&mut journal, &FaultPlan::none().with_kill(kill)) {
            Err(ScanError::Interrupted { launch }) => prop_assert_eq!(launch, kill),
            other => prop_assert!(false, "expected an interrupted scan, got {:?}", other.is_ok()),
        }
        prop_assert!(!journal.is_done());
        let resumed = scan(&mut journal, &FaultPlan::none()).unwrap();
        prop_assert!(journal.is_done());

        // Byte-identical findings and simulated cost, and the resumed run
        // really did restore the committed prefix instead of redoing it.
        prop_assert_eq!(&resumed.scan.findings, &base.scan.findings);
        prop_assert_eq!(resumed.scan.pairs_scanned, base.scan.pairs_scanned);
        prop_assert_eq!(resumed.scan.duplicate_pairs, base.scan.duplicate_pairs);
        prop_assert_eq!(
            resumed.scan.simulated_seconds.map(f64::to_bits),
            base.scan.simulated_seconds.map(f64::to_bits)
        );
        prop_assert_eq!(resumed.stats.resumed_launches, kill);
        prop_assert_eq!(
            resumed.stats.resumed_launches + resumed.stats.executed_launches,
            launches
        );
    }
}
