//! Lockstep-engine equivalence suite.
//!
//! Two families of guarantees, both against independent references:
//!
//! * **Values** — every lane of a [`LockstepEngine`] warp terminates with
//!   exactly the status and GCD of the scalar Approximate-Euclid loop
//!   (`run_in_place`) on the same operands, and for full termination with
//!   the schoolbook `gcd_reference`. Exercised over ragged warps, lanes
//!   terminating at different iterations, and operand shapes that force
//!   the rare β>0 divergent path.
//!
//! * **Costs** — the [`WarpWork`] the engine *measures* while executing a
//!   warp is bitwise identical to the [`WarpWork`] the trace-replay model
//!   (`execute_warp` over `IterProbe` recordings) computes for the same
//!   pairs in the same lane order — the modeled and measured clocks agree
//!   down to the f64 bits, `divergent_iterations` included.

use bulkgcd_bigint::{Limb, Nat};
use bulkgcd_bulk::{
    AutoBackend, CompactionConfig, Finding, LockstepBackend, LockstepEngine, LockstepStats,
    ModuliArena, ScalarBackend, ScanBackend, ScanPipeline, AUTO_PRODUCT_TREE_MIN_MODULI,
};
use bulkgcd_core::{run_in_place, Algorithm, GcdPair, GcdStatus, NoProbe, StepKind, Termination};
use bulkgcd_gpu::{execute_warp, CostModel, DeviceConfig, WarpWork};
use bulkgcd_rsa::build_corpus;
use bulkgcd_umm::gcd_trace::{IterDesc, IterProbe};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scalar reference for one pair: terminal status and (for Done) the GCD.
fn scalar_reference(a: &[Limb], b: &[Limb], term: Termination) -> (GcdStatus, Option<Nat>) {
    let mut pair = GcdPair::with_capacity(a.len().max(b.len()).max(1));
    pair.load_from_limbs(a, b);
    let status = run_in_place(Algorithm::Approximate, &mut pair, term, &mut NoProbe);
    let gcd = (status == GcdStatus::Done).then(|| pair.x_nat());
    (status, gcd)
}

/// Run `pairs` through a lockstep engine of width `w` (ragged final warp
/// included) and check every lane against the scalar loop, and — under
/// full termination — against the schoolbook GCD.
fn check_warps(pairs: &[(Vec<Limb>, Vec<Limb>)], w: usize, term: Termination) {
    let mut engine = LockstepEngine::new(w);
    for warp in pairs.chunks(w) {
        let inputs: Vec<(&[Limb], &[Limb])> = warp
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        engine.run_warp(&inputs, term);
        for (t, (a, b)) in warp.iter().enumerate() {
            let (status, gcd) = scalar_reference(a, b, term);
            assert_eq!(engine.entry_status(t), status, "lane {t} status");
            if let Some(g) = gcd {
                assert_eq!(engine.entry_gcd_is_one(t), g.is_one(), "lane {t} is_one");
                match engine.entry_factor(t) {
                    Some(f) => assert_eq!(*f, g, "lane {t} gcd"),
                    None => assert!(g.is_one(), "lane {t} lost its factor"),
                }
                if term == Termination::Full {
                    let na = Nat::from_limb_slice(a);
                    let nb = Nat::from_limb_slice(b);
                    assert_eq!(g, na.gcd_reference(&nb), "lane {t} vs schoolbook");
                }
            }
        }
    }
}

/// Run `pairs` through one compacting/refilling queue of width `w` and
/// check every queue entry against the scalar loop under the same
/// (launch-level) termination — compaction and refill must be invisible
/// in statuses and factors.
fn check_queue(pairs: &[(Vec<Limb>, Vec<Limb>)], w: usize, term: Termination) {
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let mut engine = LockstepEngine::new(w);
    engine.run_queue(&inputs, term);
    assert_eq!(engine.entry_count(), pairs.len());
    for (q, (a, b)) in pairs.iter().enumerate() {
        let (status, gcd) = scalar_reference(a, b, term);
        assert_eq!(engine.entry_status(q), status, "entry {q} status");
        match gcd {
            Some(g) => {
                assert_eq!(engine.entry_gcd_is_one(q), g.is_one(), "entry {q} is_one");
                match engine.entry_factor(q) {
                    Some(f) => assert_eq!(*f, g, "entry {q} factor"),
                    None => assert!(g.is_one(), "entry {q} lost its factor"),
                }
            }
            None => assert!(
                engine.entry_factor(q).is_none(),
                "interrupted entry {q} must carry no factor"
            ),
        }
    }
}

/// An **odd** operand of 1..=`max_limbs` limbs (top limb forced nonzero).
/// Odd like every RSA modulus: Approximate Euclid strips factors of two
/// from differences, so its fixed point equals the true GCD only on the
/// odd inputs the paper scans.
fn operand(max_limbs: usize) -> impl Strategy<Value = Vec<Limb>> {
    (vec(any::<Limb>(), 1..=max_limbs), 1..=Limb::MAX).prop_map(|(mut v, top)| {
        let last = v.len() - 1;
        v[last] = top;
        v[0] |= 1;
        v
    })
}

/// An **odd** operand of exactly `limbs` limbs (top limb nonzero).
fn full_operand(limbs: usize) -> impl Strategy<Value = Vec<Limb>> {
    (vec(any::<Limb>(), limbs..=limbs), 1..=Limb::MAX).prop_map(|(mut v, top)| {
        let last = v.len() - 1;
        v[last] = top;
        v[0] |= 1;
        v
    })
}

proptest! {
    /// 64-limb operands, the 2048-bit shape the scans run, through fixed
    /// warps and through an early-terminated queue: every lane matches the
    /// scalar loop, while the debug build checks each lane's head
    /// registers against its columns on every iteration.
    #[test]
    fn lockstep_matches_scalar_on_64_limb_operands(
        pairs in vec((full_operand(64), full_operand(64)), 1..6),
        w in prop_oneof![Just(2usize), Just(4)],
    ) {
        check_warps(&pairs, w, Termination::Full);
        let term = Termination::Early { threshold_bits: 1024 };
        check_queue(&pairs, w, term);
    }

    /// Ragged warps of arbitrary fill over mixed-width operands: every
    /// lane matches the scalar loop and the schoolbook GCD.
    #[test]
    fn lockstep_matches_scalar_on_ragged_warps(
        pairs in vec((operand(8), operand(8)), 1..20),
        w in prop_oneof![Just(1usize), Just(3), Just(8), Just(16)],
    ) {
        check_warps(&pairs, w, Termination::Full);
    }

    /// Early termination: lanes cross (or never cross) the threshold at
    /// different iterations, so the active mask shrinks unevenly; statuses
    /// and GCDs still match the scalar loop lane for lane.
    #[test]
    fn lockstep_matches_scalar_under_early_termination(
        pairs in vec((operand(8), operand(8)), 1..16),
        threshold_bits in 1u64..200,
        w in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        check_warps(&pairs, w, Termination::Early { threshold_bits });
    }

    /// Wildly unbalanced operands (wide X against near-single-limb Y) are
    /// what drives approx into the β>0 case; the divergent scalar-fixup
    /// path must still match the scalar loop exactly.
    #[test]
    fn lockstep_matches_scalar_on_beta_positive_shapes(
        pairs in vec((operand(12), operand(2)), 1..12),
        w in prop_oneof![Just(2usize), Just(8)],
    ) {
        check_warps(&pairs, w, Termination::Full);
    }

    /// Queue mode over ragged queues (entries ≫ columns): every entry
    /// matches the scalar loop exactly —
    /// repacking survivors and refilling dead columns changes nothing.
    #[test]
    fn queue_matches_scalar_on_ragged_queues(
        pairs in vec((operand(8), operand(8)), 1..24),
        w in prop_oneof![Just(1usize), Just(3), Just(8), Just(16)],
    ) {
        check_queue(&pairs, w, Termination::Full);
    }

    /// Queue mode under early termination: lanes die at different
    /// iterations (the divergence compaction exists to exploit), and the
    /// harvested statuses still match the scalar loop entry for entry.
    #[test]
    fn queue_matches_scalar_under_early_termination(
        pairs in vec((operand(8), operand(8)), 1..16),
        threshold_bits in 1u64..200,
        w in prop_oneof![Just(1usize), Just(4), Just(8)],
    ) {
        check_queue(&pairs, w, Termination::Early { threshold_bits });
    }

    /// Queue mode on β>0-forcing shapes: the serialized divergent fixups
    /// interleave with compaction boundaries and still match the scalar
    /// loop.
    #[test]
    fn queue_matches_scalar_on_beta_positive_shapes(
        pairs in vec((operand(12), operand(2)), 1..12),
        w in prop_oneof![Just(2usize), Just(8)],
    ) {
        check_queue(&pairs, w, Termination::Full);
    }
}

/// A queue whose short entries terminate within a few iterations while
/// 64-limb ones run on, so survivors are repacked and pending pairs are
/// refilled into freed columns next to them, mid-flight. Every entry
/// still matches the scalar loop (the debug build checks the head
/// registers of every lane, moved ones included, on every iteration), and
/// the traced run shows both moves after the first iteration.
#[test]
fn queue_repacks_and_refills_mid_flight() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut odd = |limbs: usize| -> Vec<Limb> {
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
        v[0] |= 1;
        v[limbs - 1] |= 1 << 31;
        v
    };
    let pairs: Vec<(Vec<Limb>, Vec<Limb>)> = (0..24)
        .map(|q| {
            let limbs = if q % 3 == 0 { 64 } else { 1 + q % 5 };
            (odd(limbs), odd(limbs))
        })
        .collect();
    for term in [Termination::Full, Termination::Early { threshold_bits: 48 }] {
        check_queue(&pairs, 4, term);
    }
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let trace = LockstepEngine::new(4).run_queue_traced(&inputs, Termination::Full);
    let mid_flight = |e: &&bulkgcd_bulk::CompactionEvent| e.iteration > 0;
    // A repack: a mid-flight service pass that left the resident prefix
    // narrower than the one before it.
    let widths = trace.events.iter().scan(4, |width, e| {
        let before = core::mem::replace(width, e.width_after);
        Some((e, before))
    });
    assert!(
        widths
            .filter(|(e, _)| e.iteration > 0)
            .any(|(e, before)| e.width_after < before),
        "no mid-flight repack: {:?}",
        trace.events
    );
    assert!(
        trace
            .events
            .iter()
            .filter(mid_flight)
            .any(|e| e.refilled > 0 && e.width_after > e.refilled),
        "no mid-flight refill next to survivors: {:?}",
        trace.events
    );
}

/// A fixed seeded queue of 2048-bit pairs (every fifth pair a 1536-bit
/// one, so the refill width gate turns some pending pairs away) through a
/// 128-lane compacting engine, under full and under the scan's early
/// termination. The service counters are a deterministic function of the
/// queue, so they are pinned: a service pass skipped because no lane
/// terminated must leave every one of them as the pass itself would.
#[test]
fn queue_service_counters_are_pinned_on_a_2048_bit_queue() {
    let mut rng = StdRng::seed_from_u64(0x2048);
    let mut odd = |limbs: usize| -> Vec<Limb> {
        let mut v: Vec<Limb> = (0..limbs).map(|_| rng.gen()).collect();
        v[0] |= 1;
        v[limbs - 1] |= 1 << 31;
        v
    };
    let pairs: Vec<(Vec<Limb>, Vec<Limb>)> = (0..192)
        .map(|q| {
            let limbs = if q % 5 == 4 { 48 } else { 64 };
            (odd(limbs), odd(limbs))
        })
        .collect();
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let mut engine = LockstepEngine::new(128);
    let runs = [
        (Termination::Full, [138992, 139182, 125, 64]),
        (
            Termination::Early {
                threshold_bits: 1024,
            },
            [66079, 66269, 110, 64],
        ),
    ];
    for (term, [active, resident, compactions, refills]) in runs {
        engine.run_queue(&inputs, term);
        assert_eq!(
            engine.session_stats(),
            LockstepStats {
                active_lane_iters: active,
                resident_lane_iters: resident,
                compactions,
                refills,
            },
            "{term:?}"
        );
    }
}

/// Run `pairs` (at most `w`) as a fixed warp and as a queue,
/// traced and untraced, and check the two modes agree: per-entry status
/// and factor, `rows_per_iter`, `iterations`, `stride` and each entry's
/// plan trace. Within one warp the service pass only harvests and
/// repacks; it never refills, so queue mode must be the fixed warp.
fn check_modes_agree(pairs: &[(Vec<Limb>, Vec<Limb>)], w: usize, term: Termination) {
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_slice(), b.as_slice()))
        .collect();
    let mut warp = LockstepEngine::new(w);
    let mut queue = LockstepEngine::new(w);
    let warp_trace = warp.run_warp_traced(&inputs, term);
    let queue_trace = queue.run_queue_traced(&inputs, term);
    assert_eq!(warp_trace.rows_per_iter, queue_trace.rows_per_iter);
    assert_eq!(warp_trace.iterations, queue_trace.iterations);
    assert_eq!(warp_trace.stride, queue_trace.stride);
    assert!(warp_trace.events.is_empty(), "a fixed warp has no service");
    for q in 0..pairs.len() {
        assert_eq!(warp.entry_status(q), queue.entry_status(q), "entry {q}");
        assert_eq!(warp.entry_factor(q), queue.entry_factor(q), "entry {q}");
        assert_eq!(
            warp_trace.plan.threads[q].accesses, queue_trace.plan.threads[q].accesses,
            "entry {q} plan trace"
        );
    }
    let traced: Vec<(GcdStatus, Option<Nat>)> = (0..pairs.len())
        .map(|q| (warp.entry_status(q), warp.entry_factor(q).cloned()))
        .collect();
    warp.run_warp(&inputs, term);
    queue.run_queue(&inputs, term);
    for (q, (status, factor)) in traced.iter().enumerate() {
        for engine in [&warp, &queue] {
            assert_eq!(engine.entry_status(q), *status, "untraced entry {q}");
            assert_eq!(
                engine.entry_factor(q),
                factor.as_ref(),
                "untraced entry {q}"
            );
        }
    }
}

proptest! {
    /// The invariant behind the one iteration loop: for at most `W` pairs,
    /// plain and queue mode run the same iterations over 64–1024-bit
    /// operands, full or early termination.
    #[test]
    fn queue_mode_matches_fixed_warp_within_one_warp(
        pairs in vec((operand(32), operand(32)), 1..=8),
        (early, threshold_bits) in (any::<bool>(), 1u64..600),
    ) {
        let term = if early {
            Termination::Early { threshold_bits }
        } else {
            Termination::Full
        };
        check_modes_agree(&pairs, 8, term);
    }
}

fn findings_with(arena: &ModuliArena, backend: impl ScanBackend + 'static) -> Vec<Finding> {
    ScanPipeline::new(arena)
        .backend(backend)
        .launch_pairs(32)
        .run()
        .expect("backend scan")
        .scan
        .findings
}

/// Pipeline-level finding equivalence: plain lockstep, compacted lockstep,
/// and the auto selector all land on the scalar pipeline's findings, byte
/// for byte, on corpora with planted shared primes.
#[test]
fn compacted_and_auto_backends_match_scalar_findings() {
    for bits in [128u64, 512] {
        let mut rng = StdRng::seed_from_u64(0xc0ffee ^ bits);
        let moduli = build_corpus(&mut rng, 24, bits, 2).moduli();
        let arena = ModuliArena::try_from_moduli(&moduli).expect("non-degenerate corpus");
        let reference = ScanPipeline::new(&arena)
            .run()
            .expect("scalar scan")
            .scan
            .findings;
        assert!(!reference.is_empty(), "corpus plants shared primes");
        for (name, got) in [
            (
                "lockstep",
                findings_with(&arena, LockstepBackend::default()),
            ),
            (
                "lockstep-compact",
                findings_with(
                    &arena,
                    LockstepBackend::default().with_compaction(CompactionConfig::default()),
                ),
            ),
            ("auto", findings_with(&arena, AutoBackend::default())),
        ] {
            assert_eq!(got, reference, "{name} findings diverge at {bits} bits");
        }
    }
}

/// Auto's decision table, read back through the metrics layer's backend
/// name: the corpus size, the algorithm and the operand width decide it,
/// and the compacted lockstep resolution keeps the scalar findings.
#[test]
fn auto_resolves_from_corpus_shape() {
    let resolve = |arena: &ModuliArena, algo: Algorithm| {
        let rep = ScanPipeline::new(arena)
            .algorithm(algo)
            .backend(AutoBackend::new(32))
            .metrics()
            .run()
            .expect("auto scan");
        (
            rep.metrics.expect("metrics requested").backend,
            rep.scan.findings,
        )
    };

    // ≥ AUTO_PRODUCT_TREE_MIN_MODULI small odd primes: the product tree.
    let primes: Vec<Nat> = (3u64..)
        .step_by(2)
        .filter(|&n| {
            (3..)
                .step_by(2)
                .take_while(|d| d * d <= n)
                .all(|d| n % d != 0)
        })
        .take(AUTO_PRODUCT_TREE_MIN_MODULI)
        .map(Nat::from_u64)
        .collect();
    let arena = ModuliArena::try_from_moduli(&primes).expect("non-degenerate corpus");
    let (name, findings) = resolve(&arena, Algorithm::Approximate);
    assert_eq!(name, "auto:product-tree");
    assert!(findings.is_empty(), "distinct primes share nothing");

    // An interleaved 256/512-bit corpus: compacted lockstep under AEA,
    // scalar under any other variant; the findings match the scalar scan.
    let mut rng = StdRng::seed_from_u64(0xa070);
    let narrow = build_corpus(&mut rng, 12, 256, 2).moduli();
    let wide = build_corpus(&mut rng, 12, 512, 2).moduli();
    let mixed: Vec<Nat> = narrow
        .into_iter()
        .zip(wide)
        .flat_map(|(a, b)| [a, b])
        .collect();
    let arena = ModuliArena::try_from_moduli(&mixed).expect("non-degenerate corpus");
    let reference = findings_with(&arena, ScalarBackend);
    assert!(!reference.is_empty(), "corpus plants shared primes");
    let (name, findings) = resolve(&arena, Algorithm::Approximate);
    assert_eq!(name, "auto:lockstep-compact");
    assert_eq!(findings, reference);
    let (name, _) = resolve(&arena, Algorithm::Binary);
    assert_eq!(name, "auto:scalar");

    // Operands narrower than AUTO_LOCKSTEP_MIN_BITS: scalar.
    let narrow = build_corpus(&mut rng, 12, 96, 2).moduli();
    let arena = ModuliArena::try_from_moduli(&narrow).expect("non-degenerate corpus");
    let (name, _) = resolve(&arena, Algorithm::Approximate);
    assert_eq!(name, "auto:scalar");
}

/// The metrics layer surfaces queue-mode occupancy and compaction/refill
/// events; plain fixed warps report occupancy but no events.
#[test]
fn compaction_metrics_surface_occupancy_and_events() {
    let mut rng = StdRng::seed_from_u64(0x0cc);
    let moduli = build_corpus(&mut rng, 32, 128, 2).moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("non-degenerate corpus");
    let run_with = |backend: LockstepBackend| {
        ScanPipeline::new(&arena)
            .backend(backend)
            .launch_pairs(64)
            .metrics()
            .run()
            .expect("lockstep scan")
            .metrics
            .expect("metrics layer collects")
    };
    let compacted = run_with(LockstepBackend::new(8).with_compaction(CompactionConfig::default()));
    let occ = compacted
        .mean_occupancy()
        .expect("lockstep scans report occupancy");
    assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ} out of range");
    assert!(
        compacted.total_refills() > 0,
        "64-pair launches through an 8-wide queue must refill"
    );
    let plain = run_with(LockstepBackend::new(8));
    assert!(plain.mean_occupancy().is_some());
    assert_eq!(plain.total_compactions(), 0, "plain warps never compact");
    assert_eq!(plain.total_refills(), 0, "plain warps never refill");
}

/// β>0 really occurs on the unbalanced corpus — the proptest above is
/// exercising the divergent path, not vacuously passing.
#[test]
fn unbalanced_corpus_does_hit_beta_positive() {
    let a: Vec<Limb> = (0..12)
        .map(|i| 0x9e37_79b9u32.wrapping_mul(i + 1) | 1)
        .collect();
    let b: Vec<Limb> = vec![0xdead_beef, 0x3];
    let mut pair = GcdPair::with_capacity(12);
    pair.load_from_limbs(&a, &b);
    let mut probe = IterProbe::default();
    run_in_place(
        Algorithm::Approximate,
        &mut pair,
        Termination::Full,
        &mut probe,
    );
    assert!(
        probe
            .iters
            .iter()
            .any(|d| d.kind == StepKind::ApproxBetaPositive),
        "corpus shape must trigger at least one β>0 iteration"
    );
}

/// Trace-replay model of one warp: run each pair through the scalar loop
/// with an [`IterProbe`], then price the recorded lanes with
/// [`execute_warp`] — the path `simulate_bulk_gcd` takes.
fn modeled_warp(
    warp: &[(Vec<Limb>, Vec<Limb>)],
    term: Termination,
    cost: &CostModel,
    words_per_transaction: u64,
) -> WarpWork {
    let mut lanes: Vec<Vec<IterDesc>> = Vec::with_capacity(warp.len());
    let mut pair = GcdPair::with_capacity(1);
    for (a, b) in warp {
        pair.load_from_limbs(a, b);
        let mut probe = IterProbe::default();
        run_in_place(Algorithm::Approximate, &mut pair, term, &mut probe);
        lanes.push(probe.iters);
    }
    execute_warp(&lanes, cost, words_per_transaction)
}

/// Modeled vs measured: the engine's live-execution [`WarpWork`] equals
/// the trace-replay model's bitwise, warp for warp, on a seeded corpus
/// that mixes uniform RSA moduli with unbalanced β>0-triggering pairs.
#[test]
fn measured_warp_work_matches_trace_model_bitwise() {
    let device = DeviceConfig::gtx_780_ti();
    let cost = CostModel::default();
    let words_per_transaction = device.transaction_bytes / 4;

    let mut rng = StdRng::seed_from_u64(0xb01d_face);
    let corpus = build_corpus(&mut rng, 12, 256, 2);
    let moduli = corpus.moduli();
    let mut pairs: Vec<(Vec<Limb>, Vec<Limb>)> = Vec::new();
    for i in 0..moduli.len() {
        for j in (i + 1)..moduli.len() {
            pairs.push((moduli[i].as_limbs().to_vec(), moduli[j].as_limbs().to_vec()));
        }
    }
    // Unbalanced pairs salted in so some warps mix β=0 and β>0 kinds in
    // the same iteration — the divergence the model must price.
    for k in 0..8u32 {
        let wide: Vec<Limb> = (0..10)
            .map(|i| (0x85eb_ca6bu32).wrapping_mul(i + k + 1) | 1)
            .collect();
        pairs.push((wide, vec![0x1234_5601u32.wrapping_add(k << 3), k + 1]));
    }

    for term in [
        Termination::Full,
        Termination::Early {
            threshold_bits: 128,
        },
    ] {
        let mut engine = LockstepEngine::new(device.warp_size);
        let mut divergent_seen = 0u64;
        for (wi, warp) in pairs.chunks(device.warp_size).enumerate() {
            let inputs: Vec<(&[Limb], &[Limb])> = warp
                .iter()
                .map(|(a, b)| (a.as_slice(), b.as_slice()))
                .collect();
            let measured = engine.run_warp_measured(&inputs, term, &cost, words_per_transaction);
            let modeled = modeled_warp(warp, term, &cost, words_per_transaction);
            assert_eq!(
                measured.divergent_iterations, modeled.divergent_iterations,
                "warp {wi}: divergent iterations"
            );
            assert_eq!(measured, modeled, "warp {wi}: full WarpWork");
            assert_eq!(
                measured.warp_instructions.to_bits(),
                modeled.warp_instructions.to_bits(),
                "warp {wi}: instruction f64 must be bitwise identical"
            );
            divergent_seen += measured.divergent_iterations;
        }
        // Early termination retires the unbalanced lanes before their β>0
        // iterations, so only the full run is required to diverge.
        if term == Termination::Full {
            assert!(
                divergent_seen > 0,
                "corpus must produce at least one divergent iteration"
            );
        }
    }
}
