//! Differential-trace cross-check of the analyze pass's constant-flow
//! claims (tier-1).
//!
//! The static lints assert that the lockstep engine's vector pass and
//! planning phase contain no operand-dependent control flow outside the
//! documented allow sites. This suite checks the same property
//! *dynamically*: it runs the engine through the UMM trace model on >100
//! random operand pairs and asserts
//!
//! * the vector-pass trace is **identical in every lane** and equal to a
//!   pure model computed from `(rows_per_iter, stride)` alone — i.e. the
//!   address sequence is a function of the public per-iteration structure,
//!   not of the operand values;
//! * `umm::oblivious::analyze` scores the vector trace perfectly uniform;
//! * the planning phase spends exactly 8 step-aligned head-read slots per
//!   lane per iteration (§IV's four head words per operand);
//! * tracing does not perturb results: every lane's GCD still matches the
//!   reference.
//!
//! The serialized divergent fixups (DeepShift / WideAlpha / β > 0) are the
//! documented allow-pragma sites and are deliberately outside the lockstep
//! trace.

use bulkgcd_bigint::random::random_odd_bits;
use bulkgcd_bigint::{Limb, Nat};
use bulkgcd_bulk::{LockstepEngine, LockstepTrace};
use bulkgcd_core::Termination;
use bulkgcd_umm::oblivious;
use bulkgcd_umm::trace::Access;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WARP: usize = 8;
const WARPS: usize = 14; // 14 × 8 = 112 pairs ≥ 100

/// The pure address model of the vector pass: for each iteration with
/// `rows` fused rows, every lane reads plane-A row `k`, reads plane-B row
/// `k`, and writes row `k`, for `k = 0..rows`. Anything beyond this is an
/// operand-dependent address and a constant-flow violation.
fn vector_model(trace: &LockstepTrace) -> Vec<Option<Access>> {
    let mut model = Vec::new();
    for &rows in &trace.rows_per_iter {
        for k in 0..rows {
            model.push(Some(Access::Read(k)));
            model.push(Some(Access::Read(trace.stride + k)));
            model.push(Some(Access::Write(k)));
        }
    }
    model
}

fn check_warp(pairs: &[(Nat, Nat)], term: Termination, label: &str) {
    let mut engine = LockstepEngine::new(WARP);
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_limbs(), b.as_limbs()))
        .collect();
    let trace = engine.run_warp_traced(&inputs, term);

    // Vector pass: every lane's address sequence is the same pure function
    // of (rows_per_iter, stride).
    let model = vector_model(&trace);
    for (t, th) in trace.vector.threads.iter().enumerate() {
        assert_eq!(
            th.accesses, model,
            "{label}: lane {t} vector trace diverged from the pure model"
        );
    }
    let report = oblivious::analyze(&trace.vector);
    assert_eq!(
        report.uniform_fraction(),
        1.0,
        "{label}: vector pass must be perfectly uniform: {report:?}"
    );

    // Planning phase: exactly 8 step-aligned head-read slots per lane per
    // iteration, never touching past the two planes.
    for (t, th) in trace.plan.threads.iter().enumerate() {
        assert_eq!(
            th.len(),
            trace.iterations * 8,
            "{label}: lane {t} plan slots"
        );
    }
    assert!(
        trace.plan.words_required() <= 2 * trace.stride,
        "{label}: plan reads escaped the operand planes"
    );

    // Tracing must not perturb results.
    for (t, (a, b)) in pairs.iter().enumerate() {
        let want = a.gcd_reference(b);
        match engine.entry_status(t) {
            bulkgcd_core::GcdStatus::Done => match engine.entry_factor(t) {
                Some(f) => assert_eq!(*f, want, "{label}: lane {t} gcd"),
                None => assert!(want.is_one(), "{label}: lane {t} lost its factor"),
            },
            bulkgcd_core::GcdStatus::EarlyCoprime => {
                // Early termination only fires below the coprime threshold.
                if let Termination::Early { threshold_bits } = term {
                    assert!(
                        want.bit_len() < threshold_bits,
                        "{label}: lane {t} terminated early with a large gcd"
                    );
                }
            }
        }
    }
}

#[test]
fn vector_pass_trace_is_operand_independent_across_112_pairs() {
    let mut rng = StdRng::seed_from_u64(0xb01d);
    for warp in 0..WARPS {
        let pairs: Vec<(Nat, Nat)> = (0..WARP)
            .map(|_| {
                (
                    random_odd_bits(&mut rng, 256),
                    random_odd_bits(&mut rng, 256),
                )
            })
            .collect();
        check_warp(&pairs, Termination::Full, &format!("warp {warp}"));
    }
}

#[test]
fn traced_early_termination_and_shared_factors() {
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let p = random_odd_bits(&mut rng, 96);
    let mut pairs: Vec<(Nat, Nat)> = (0..WARP - 1)
        .map(|_| {
            (
                random_odd_bits(&mut rng, 192),
                random_odd_bits(&mut rng, 192),
            )
        })
        .collect();
    // One lane with a shared factor runs to Done while the rest exit early:
    // the trace must stay step-aligned through the masked idles.
    pairs.push((
        p.mul(&random_odd_bits(&mut rng, 96)),
        p.mul(&random_odd_bits(&mut rng, 96)),
    ));
    check_warp(
        &pairs,
        Termination::Early { threshold_bits: 96 },
        "early warp",
    );
}

#[test]
fn traced_ragged_and_tiny_operands() {
    let pairs = vec![
        (Nat::from_u64(1_043_915), Nat::from_u64(768_955)),
        (Nat::from_u64(3), Nat::from_u64(1)),
        (Nat::from_u128(1u128 << 100 | 1), Nat::from_u64(7)),
        (Nat::from_u64(1), Nat::from_u64(1)),
    ];
    check_warp(&pairs, Termination::Full, "ragged warp");
}

/// Queue mode (compaction + refill): the vector pass must stay perfectly
/// uniform **across compaction boundaries** — a service pass repacks
/// columns and swaps queue entries in and out, yet every step of the
/// vector trace still has all non-idle entries touching the identical
/// address, and each entry's non-idle window is exactly the pure row
/// sweep of its iteration. The compaction events themselves are recorded
/// in the trace, so the test can prove boundaries actually occurred.
#[test]
fn queue_vector_pass_stays_uniform_across_compaction_boundaries() {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    // Mixed-width entries (so lanes terminate at very different iteration
    // counts) plus one shared-factor pair, in a queue ~5× the warp width:
    // the service pass must both refill and, once pending drains, repack.
    let p = random_odd_bits(&mut rng, 96);
    let mut pairs: Vec<(Nat, Nat)> = (0..40)
        .map(|i| {
            let bits = if i % 3 == 0 { 128 } else { 256 };
            (
                random_odd_bits(&mut rng, bits),
                random_odd_bits(&mut rng, bits),
            )
        })
        .collect();
    pairs.push((
        p.mul(&random_odd_bits(&mut rng, 96)),
        p.mul(&random_odd_bits(&mut rng, 96)),
    ));
    let inputs: Vec<(&[Limb], &[Limb])> = pairs
        .iter()
        .map(|(a, b)| (a.as_limbs(), b.as_limbs()))
        .collect();

    let mut engine = LockstepEngine::new(WARP);
    let trace = engine.run_queue_traced(&inputs, Termination::Full);

    // The boundaries exist: a 41-entry queue through an 8-wide warp
    // cannot finish without service events, some of which refill.
    assert!(
        !trace.events.is_empty(),
        "queue run recorded no compaction/refill events"
    );
    assert!(
        trace.events.iter().any(|e| e.refilled > 0),
        "queue run never refilled"
    );
    // Some service pass shrank the resident prefix: a repack.
    let mut width = inputs.len().min(WARP);
    let mut shrank = false;
    for e in &trace.events {
        shrank |= e.width_after < width;
        width = e.width_after;
    }
    assert!(shrank, "queue run never repacked");
    for e in &trace.events {
        assert!(e.width_after <= WARP, "width grew past the warp");
        assert!(e.iteration <= trace.iterations, "event off the end");
    }

    // Dynamic constant-flow: the whole vector trace scores perfectly
    // uniform — compaction moved lanes between columns without ever
    // desynchronizing a step.
    let report = oblivious::analyze(&trace.vector);
    assert_eq!(
        report.uniform_fraction(),
        1.0,
        "queue vector pass must stay uniform: {report:?}"
    );

    // Per-entry: every non-idle window is the pure row sweep of its
    // iteration — addresses derive from (rows_per_iter, stride) alone.
    let steps = 3 * trace.rows_per_iter.iter().sum::<usize>();
    let mut base = 0usize;
    for &rows in &trace.rows_per_iter {
        for (q, th) in trace.vector.threads.iter().enumerate() {
            assert_eq!(th.accesses.len(), steps, "entry {q} unpadded");
            for k in 0..rows {
                let win = &th.accesses[base + 3 * k..base + 3 * k + 3];
                if win[0].is_none() {
                    assert!(
                        win.iter().all(Option::is_none),
                        "entry {q} partial sweep at row {k}"
                    );
                } else {
                    assert_eq!(win[0], Some(Access::Read(k)), "entry {q}");
                    assert_eq!(win[1], Some(Access::Read(trace.stride + k)), "entry {q}");
                    assert_eq!(win[2], Some(Access::Write(k)), "entry {q}");
                }
            }
        }
        base += 3 * rows;
    }

    // Planning phase stays step-aligned through service boundaries and
    // inside the operand planes.
    for (q, th) in trace.plan.threads.iter().enumerate() {
        assert_eq!(th.len(), trace.iterations * 8, "entry {q} plan slots");
    }
    assert!(
        trace.plan.words_required() <= 2 * trace.stride,
        "plan reads escaped the operand planes"
    );

    // Tracing and compaction must not perturb results.
    for (q, (a, b)) in pairs.iter().enumerate() {
        let want = a.gcd_reference(b);
        assert_eq!(
            engine.entry_status(q),
            bulkgcd_core::GcdStatus::Done,
            "entry {q}"
        );
        match engine.entry_factor(q) {
            Some(f) => assert_eq!(*f, want, "entry {q} factor"),
            None => assert!(want.is_one(), "entry {q} lost its factor"),
        }
    }
}
