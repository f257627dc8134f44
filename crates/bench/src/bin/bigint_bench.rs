//! Machine-readable arithmetic-ladder benchmark: `BENCH_bigint.json`.
//!
//! Times the width-dispatched ladder (Karatsuba → 3-prime NTT
//! multiplication, Newton-reciprocal division) against the legacy
//! quadratic configuration (Karatsuba + Knuth) over a width sweep, plus
//! the end-to-end product-tree batch scan at the largest corpus, and
//! writes one JSON report for tooling to diff across commits.
//! The two arms run in one process: the legacy arm flips the global cutoff
//! ladder via [`thresholds::set_legacy_ladder`] before each sample and the
//! new arm restores it with [`thresholds::reset_ladder`], so both time the
//! *same* entry points (`Nat::mul`, `Nat::div_rem`) and the
//! dispatch overhead itself is inside the measurement.
//!
//! Run: `cargo run --release -p bulkgcd-bench --bin bigint_bench --
//!       [--mul-limbs 32,64,...] [--div-limbs ...]
//!       [--reps 3] [--out BENCH_bigint.json] [--gate-subquadratic]`
//!
//! `--gate-subquadratic` (used by `scripts/check.sh`) additionally fails
//! the run (exit 1) unless, judged as medians of per-round ratios from the
//! interleaved timing loop:
//!
//! * at the widest mul width benched (>= 8192 limbs by default) the
//!   dispatched multiply is >= 1.5x legacy Karatsuba, and the dispatched
//!   division is >= 1.5x Knuth at the widest div shape;
//! * at the 32- and 64-limb widths the ladder costs at most 1.05x the
//!   legacy path (the dispatch must be free where it changes nothing);
//! * at the largest corpus the end-to-end [`ProductTreeBackend`] batch
//!   scan is measurably (>= 1.05x) faster under the new ladder, and its
//!   findings are bitwise-identical to the scalar pairwise scan's;
//! * the wrapped product `a·b mod (β^N − 1)` of the scaled remainder
//!   tree's step shape (`N − N/128` by `N/2` limbs at [`WRAP_LIMBS`])
//!   runs at least 1.3x the full product, whose transform is twice as
//!   large, and equals the full product reduced mod `β^N − 1`.
//!
//! The `ntt` block times one forward plus one inverse transform in ns per
//! radix-2 butterfly at [`NTT_SIZES`], on every butterfly path this CPU
//! can run (avx512 / avx2 / portable), and records the `kernel_isa` the
//! dispatcher picks. Every path must give the same coefficients; under
//! `--gate-subquadratic` the dispatched path must also run at least
//! [`NTT_FLOOR`] times the portable one at N = 2¹⁵ when it is not the
//! portable one, and once a product twice the largest size has grown the
//! shared twiddle tables, every path's full and wrapped products at each
//! size, read from those tables' prefixes, must still agree, and every
//! path's wrapped pair (`ntt::mul_wrap_pair_into_on`) must equal its two
//! wrapped products.
//!
//! The `newton_div` rows time Newton division against Knuth, both called
//! directly, at divisors around the Newton cutoff ([`NEWTON_DIV_LIMBS`])
//! with dividends 1.5×, 2× and 3× as wide; where the speedup crosses 1 is
//! where `thresholds::NEWTON_DIV` belongs. Each row checks that both give
//! the same quotient and remainder; its ratio is reported, not gated.
//!
//! The `long_rem` rows time the key-service check's reduction, a long
//! product modulo one 1024-bit key, as [`MontFold::fold`] against Knuth
//! `Nat::rem`, at the shape of a 4096-key corpus's whole product
//! ([`LONG_REM_SHAPES`]) and of one index segment. Each row checks that
//! both give the same gcd with the key; its ratio is reported, not gated.

use bulkgcd_bench::gate::{best_of, median_speedup, round_times};
use bulkgcd_bench::Options;
use bulkgcd_bigint::random::random_odd_bits;
use bulkgcd_bigint::{
    div, kernel_isa, newton, ntt, thresholds, KernelIsa, Limb, MontFold, Nat, LIMB_BITS,
};
use bulkgcd_bulk::{ModuliArena, ProductTreeBackend, ScanPipeline};
use bulkgcd_rsa::build_corpus;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

/// Transform size `N` of the wrapped-product row: the width where the
/// wrap halves a step's transform (8192 vs the full product's 16384).
const WRAP_LIMBS: usize = 8192;

/// Transform sizes of the `ntt` rows: 256 is the scaled descent's
/// smallest wrapped step; the gate reads the 2¹⁵ one.
const NTT_SIZES: [usize; 5] = [1 << 8, 1 << 10, 1 << 13, 1 << 15, 1 << 16];

/// The transform size the dispatched-vs-portable NTT gate judges.
const NTT_GATE_SIZE: usize = 1 << 15;

/// The least speedup of the dispatched butterflies over the portable ones
/// at [`NTT_GATE_SIZE`]. Measured on a 2-vCPU AVX-512 host: the 16-lane
/// kernel ran ×4.27–5.45 in 25 gate runs; the 8-lane `u64` kernel it
/// replaced ran ×3.56–3.78 in four, and ×4.74–4.80 in two while the
/// other vCPU was busy, which slows the portable body more.
const NTT_FLOOR: f64 = 4.0;

/// Divisor limbs of the `newton_div` rows, around the Newton cutoff
/// (`thresholds::NEWTON_DIV`).
const NEWTON_DIV_LIMBS: [usize; 6] = [384, 512, 768, 1024, 1536, 2048];

/// Dividend widths of the `newton_div` rows, in halves of the divisor's:
/// 1.5× (the smallest quotient the dispatcher sends to Newton at the
/// cutoff), 2× and 3× (the tree's seed division).
const NEWTON_DIV_HALVES: [usize; 3] = [3, 4, 6];

/// `(dividend, divisor)` limbs of the `long_rem` rows: the product of 4096
/// 1024-bit keys, and one `CorpusIndex` segment (1024 limbs), each reduced
/// modulo a 1024-bit key.
const LONG_REM_SHAPES: [(usize, usize); 2] = [(131_072, 32), (1024, 32)];

/// A `Nat` of exactly `limbs` limbs (top bit set), odd.
fn nat_of_limbs(rng: &mut StdRng, limbs: usize) -> Nat {
    random_odd_bits(rng, limbs as u64 * LIMB_BITS as u64)
}

/// Time `iters` back-to-back calls of `op` under the default ladder and
/// under the legacy quadratic configuration, interleaved; returns
/// (ladder_best, legacy_best, speedup) with the best times per single
/// `op` call and `speedup` the median of per-round legacy/ladder ratios.
/// Narrow widths pass `iters` large enough that the per-sample ladder
/// toggle (a handful of atomic stores) is amortized out of the
/// measurement.
fn ladder_vs_legacy(reps: usize, iters: usize, mut op: impl FnMut() -> usize) -> (f64, f64, f64) {
    let iters = iters.max(1);
    let op = core::cell::RefCell::new(&mut op);
    let batch = |toggle: fn()| {
        toggle();
        let mut f = op.borrow_mut();
        let mut acc = 0usize;
        for _ in 0..iters {
            acc = acc.rotate_left(7) ^ black_box(f());
        }
        acc
    };
    let mut run_ladder = || batch(thresholds::reset_ladder);
    let mut run_legacy = || {
        let r = batch(thresholds::set_legacy_ladder);
        thresholds::reset_ladder();
        r
    };
    let (times, sinks) = round_times(reps, &mut [&mut run_ladder, &mut run_legacy]);
    assert_eq!(
        sinks[0], sinks[1],
        "ladder and legacy arms must compute the same result"
    );
    let ladder = best_of(&times[0]) / iters as f64;
    let legacy = best_of(&times[1]) / iters as f64;
    (ladder, legacy, median_speedup(&times[1], &times[0]))
}

/// Cheap deterministic digest of a result, so the timing closures return
/// a comparable `usize` without keeping the whole value alive.
fn digest(n: &Nat) -> usize {
    n.limbs().iter().fold(n.len(), |acc, &w| {
        acc.wrapping_mul(0x9e37_79b9).wrapping_add(w as usize)
    })
}

/// [`digest`] of a division's quotient and remainder limbs.
fn quotient_digest((q, r): (Vec<Limb>, Vec<Limb>)) -> usize {
    digest(&Nat::from_vec(q)) ^ digest(&Nat::from_vec(r)).rotate_left(1)
}

struct Row {
    label: String,
    ladder_s: f64,
    legacy_s: f64,
    speedup: f64,
}

fn json_rows(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "    {{{}, \"ladder_seconds\": {:.9}, \"legacy_seconds\": {:.9}, \
                 \"speedup\": {:.4}}}",
                r.label, r.ladder_s, r.legacy_s, r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let opts = Options::from_env();
    let reps: usize = opts.get("reps", 3);
    let out: String = opts.get("out", "BENCH_bigint.json".to_string());
    let gate = opts.has("gate-subquadratic");
    let mul_limbs = opts.get_list(
        "mul-limbs",
        &[32, 64, 128, 256, 512, 1024, 2048, 4096, 8192],
    );
    let div_limbs = opts.get_list(
        "div-limbs",
        &[32, 64, 128, 256, 512, 1024, 2048, 4096, 8192],
    );
    let batch_m: usize = opts.get("batch-keys", 256);
    let batch_bits: u64 = opts.get("batch-bits", 1024);
    opts.finish();

    let mut rng = StdRng::seed_from_u64(0xb16);
    let mut fail = false;

    // Multiplication: balanced n x n limbs, Nat::mul through the dispatcher.
    let mut mul_rows = Vec::new();
    for &n in &mul_limbs {
        let n = n as usize;
        let a = nat_of_limbs(&mut rng, n);
        let b = nat_of_limbs(&mut rng, n);
        let (ladder_s, legacy_s, speedup) = ladder_vs_legacy(reps, 8192 / n, || digest(&a.mul(&b)));
        eprintln!("mul {n:>6} limbs: ladder {ladder_s:.3e}s legacy {legacy_s:.3e}s x{speedup:.2}");
        mul_rows.push(Row {
            label: format!("\"limbs\": {n}"),
            ladder_s,
            legacy_s,
            speedup,
        });
    }

    // Division: 2n / n limbs (the remainder-tree shape), Nat::div_rem.
    let mut div_rows = Vec::new();
    for &n in &div_limbs {
        let n = n as usize;
        let a = nat_of_limbs(&mut rng, 2 * n);
        let b = nat_of_limbs(&mut rng, n);
        let (ladder_s, legacy_s, speedup) = ladder_vs_legacy(reps, 2048 / n, || {
            let (q, r) = a.div_rem(&b);
            digest(&q) ^ digest(&r).rotate_left(1)
        });
        eprintln!(
            "div {:>6}/{n:<6} limbs: ladder {ladder_s:.3e}s legacy {legacy_s:.3e}s x{speedup:.2}",
            2 * n
        );
        div_rows.push(Row {
            label: format!("\"dividend_limbs\": {}, \"divisor_limbs\": {n}", 2 * n),
            ladder_s,
            legacy_s,
            speedup,
        });
    }

    // Newton against Knuth division around the cutoff, both called
    // directly, so the rows below the cutoff time Newton too: where the
    // speedup crosses 1 is where `NEWTON_DIV` belongs.
    let mut newton_rows = Vec::new();
    for n in NEWTON_DIV_LIMBS {
        for halves in NEWTON_DIV_HALVES {
            let la = halves * n / 2;
            let a = nat_of_limbs(&mut rng, la);
            let b = nat_of_limbs(&mut rng, n);
            let (a, b) = (a.limbs(), b.limbs());
            let (times, sinks) = round_times(
                reps,
                &mut [
                    &mut || quotient_digest(newton::div_rem_newton(a, b)),
                    &mut || quotient_digest(div::div_rem_knuth(a, b)),
                ],
            );
            if sinks[0] != sinks[1] {
                eprintln!("GATE FAIL: Newton and Knuth division differ at {la}/{n}");
                fail = true;
            }
            let (newton_s, knuth_s) = (best_of(&times[0]), best_of(&times[1]));
            let speedup = median_speedup(&times[1], &times[0]);
            eprintln!(
                "newton div {la:>6}/{n:<6} limbs: newton {newton_s:.3e}s knuth {knuth_s:.3e}s \
                 x{speedup:.2}"
            );
            newton_rows.push(format!(
                "    {{\"dividend_limbs\": {la}, \"divisor_limbs\": {n}, \
                 \"newton_seconds\": {newton_s:.9}, \"knuth_seconds\": {knuth_s:.9}, \
                 \"speedup\": {speedup:.4}}}"
            ));
        }
    }

    // Wrapped product at the scaled descent's step shape: a fraction just
    // under N limbs times a square of N/2 limbs, mod β^N − 1 on an N-point
    // transform, against the full product on a 2N-point one.
    let a = nat_of_limbs(&mut rng, WRAP_LIMBS - WRAP_LIMBS / 128);
    let b = nat_of_limbs(&mut rng, WRAP_LIMBS / 2);
    let wrapped = || Nat::from_vec(ntt::mul_wrap(a.limbs(), b.limbs(), WRAP_LIMBS));
    let (times, _) = round_times(
        reps,
        &mut [&mut || digest(&wrapped()), &mut || digest(&a.mul(&b))],
    );
    let (wrap_s, full_s) = (best_of(&times[0]), best_of(&times[1]));
    let wrap_speedup = median_speedup(&times[1], &times[0]);
    let wrap_modulus = Nat::one()
        .shl(WRAP_LIMBS as u64 * LIMB_BITS as u64)
        .sub(&Nat::one());
    let wrap_matches = wrapped() == a.mul(&b).rem(&wrap_modulus);
    eprintln!(
        "wrapped mul N={WRAP_LIMBS}: wrap {wrap_s:.3e}s full {full_s:.3e}s x{wrap_speedup:.2} \
         (matches full mod β^N − 1: {wrap_matches})"
    );
    if !wrap_matches {
        eprintln!("GATE FAIL: wrapped product differs from the full product mod β^N − 1");
        fail = true;
    }

    // NTT butterflies: forward plus inverse transform on every path the
    // CPU can run, interleaved, from the same random residues each call.
    let isas: Vec<KernelIsa> = KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.available())
        .collect();
    let dispatched = KernelIsa::detect();
    let mut ntt_rows = Vec::new();
    let mut ntt_gate_speedup = None;
    for n in NTT_SIZES {
        let tw = ntt::Twiddles::new(0, n);
        let x: Vec<u32> = (0..n)
            .map(|_| (rng.next_u64() % tw.prime() as u64) as u32)
            .collect();
        let iters = (1 << 17) / n;
        let mut runs: Vec<_> = isas
            .iter()
            .map(|&isa| {
                let (x, tw) = (&x, &tw);
                let mut buf = vec![0u32; n];
                move || {
                    let mut digest = 0usize;
                    for _ in 0..iters {
                        buf.copy_from_slice(x);
                        ntt::transform_on(isa, tw, &mut buf, false);
                        digest ^= buf[n / 3] as usize;
                        ntt::transform_on(isa, tw, &mut buf, true);
                        digest = digest.rotate_left(5) ^ buf[n / 2] as usize;
                    }
                    digest
                }
            })
            .collect();
        let mut fs: Vec<&mut dyn FnMut() -> usize> = runs
            .iter_mut()
            .map(|f| f as &mut dyn FnMut() -> usize)
            .collect();
        let (times, sinks) = round_times(reps, &mut fs);
        if sinks.iter().any(|&s| s != sinks[0]) {
            eprintln!("GATE FAIL: NTT paths disagree at N={n}");
            fail = true;
        }
        let butterflies = (iters * n * n.trailing_zeros() as usize) as f64;
        let portable = isas.iter().position(|&i| i == KernelIsa::Portable);
        for (i, isa) in isas.iter().enumerate() {
            let ns = best_of(&times[i]) * 1e9 / butterflies;
            let speedup = portable.map_or(1.0, |p| median_speedup(&times[p], &times[i]));
            eprintln!(
                "ntt N={n:>6} {:<8}: {ns:.3} ns/butterfly x{speedup:.2} vs portable",
                isa.name()
            );
            if n == NTT_GATE_SIZE && *isa == dispatched {
                ntt_gate_speedup = Some(speedup);
            }
            ntt_rows.push(format!(
                "    {{\"n\": {n}, \"isa\": \"{}\", \"ns_per_butterfly\": {ns:.4}, \
                 \"speedup_vs_portable\": {speedup:.4}}}",
                isa.name()
            ));
        }
    }

    // The products read prefixes of one twiddle table per prime, shared
    // by the process and grown by the widest transform so far. Under the
    // gate, grow the tables past every NTT size first; then the full and
    // wrapped products at each size must agree across every path.
    if gate {
        let top = NTT_SIZES[NTT_SIZES.len() - 1];
        let warm = nat_of_limbs(&mut rng, top);
        black_box(ntt::mul_ntt(warm.limbs(), warm.limbs()));
        let (mut agree, mut pairs_match) = (true, true);
        for n in NTT_SIZES {
            let (a, b) = (nat_of_limbs(&mut rng, n / 2), nat_of_limbs(&mut rng, n / 2));
            let c = nat_of_limbs(&mut rng, n / 3);
            let products: Vec<_> = isas
                .iter()
                .map(|&isa| {
                    let (mut full, mut wrapped) = (vec![0; n], vec![0; n / 2]);
                    assert!(ntt::mul_ntt_into_on(isa, &mut full, a.limbs(), b.limbs()));
                    assert!(ntt::mul_wrap_into_on(
                        isa,
                        &mut wrapped,
                        a.limbs(),
                        b.limbs()
                    ));
                    // A pair sharing `a` must equal the two single products.
                    let (mut wrapped_c, mut p0, mut p1) = (vec![0; n / 2], vec![0; n / 2], vec![0; n / 2]);
                    assert!(ntt::mul_wrap_into_on(
                        isa,
                        &mut wrapped_c,
                        a.limbs(),
                        c.limbs()
                    ));
                    assert!(ntt::mul_wrap_pair_into_on(
                        isa,
                        [&mut p0, &mut p1],
                        a.limbs(),
                        [b.limbs(), c.limbs()]
                    ));
                    if (&p0, &p1) != (&wrapped, &wrapped_c) {
                        eprintln!(
                            "GATE FAIL: the {} wrapped pair differs from two wrapped products at N={n}",
                            isa.name()
                        );
                        pairs_match = false;
                    }
                    (full, wrapped)
                })
                .collect();
            if products.iter().any(|p| *p != products[0]) {
                eprintln!(
                    "GATE FAIL: NTT paths disagree on products at N={n} from the shared tables"
                );
                agree = false;
            }
        }
        if agree {
            eprintln!(
                "ntt products from the shared tables: every path agrees after a {}-point transform",
                2 * top
            );
        }
        if pairs_match {
            eprintln!("ntt wrapped pairs: every path equals its two wrapped products");
        }
        fail |= !(agree && pairs_match);
    }

    // Long remainder: fold vs Knuth at the key-service shapes. The key is
    // a·b and the dividend a multiple of a, so the gcd they must agree on
    // is not 1.
    let mut long_rem_rows = Vec::new();
    for (x_limbs, n_limbs) in LONG_REM_SHAPES {
        let a = nat_of_limbs(&mut rng, n_limbs / 2);
        let n = a.mul(&nat_of_limbs(&mut rng, n_limbs - n_limbs / 2));
        let x = a.mul(&nat_of_limbs(&mut rng, x_limbs - n_limbs / 2));
        let iters = (131_072 / x_limbs).max(1);
        let fold = || MontFold::new(&n).fold(x.limbs());
        let knuth = || x.rem(&n);
        let repeat = |f: &dyn Fn() -> Nat| (0..iters).fold(0, |acc, _| acc ^ digest(&f()));
        let (times, _) = round_times(reps, &mut [&mut || repeat(&fold), &mut || repeat(&knuth)]);
        let (fold_s, knuth_s) = (
            best_of(&times[0]) / iters as f64,
            best_of(&times[1]) / iters as f64,
        );
        let speedup = median_speedup(&times[1], &times[0]);
        let gcds_match = fold().gcd(&n) == knuth().gcd(&n);
        eprintln!(
            "long rem {x_limbs:>6}/{n_limbs:<3} limbs: fold {fold_s:.3e}s knuth {knuth_s:.3e}s \
             x{speedup:.2} (same gcd: {gcds_match})"
        );
        if !gcds_match {
            eprintln!("GATE FAIL: fold and Knuth rem give different gcds at {x_limbs}/{n_limbs}");
            fail = true;
        }
        long_rem_rows.push(format!(
            "    {{\"dividend_limbs\": {x_limbs}, \"divisor_limbs\": {n_limbs}, \
             \"fold_seconds\": {fold_s:.9}, \"knuth_seconds\": {knuth_s:.9}, \
             \"speedup\": {speedup:.4}, \"gcds_match\": {gcds_match}}}"
        ));
    }

    // End-to-end batch scan: the ProductTreeBackend over a planted corpus,
    // new ladder vs legacy, plus findings identity against the scalar
    // pairwise scan (the gate's correctness leg).
    let mut rng = StdRng::seed_from_u64(0x5ca9 ^ batch_m as u64 ^ (batch_bits << 17));
    let moduli = build_corpus(&mut rng, batch_m, batch_bits, 4).moduli();
    let arena = ModuliArena::try_from_moduli(&moduli).expect("batch corpus is non-degenerate");
    let tree_scan = || {
        ScanPipeline::new(&arena)
            .backend(ProductTreeBackend { parallel: false })
            .run()
            .expect("product-tree scan")
            .scan
    };
    let (batch_ladder_s, batch_legacy_s, batch_speedup) =
        ladder_vs_legacy(reps, 1, || tree_scan().findings.len());
    eprintln!(
        "batch scan m={batch_m} bits={batch_bits}: ladder {batch_ladder_s:.3e}s \
         legacy {batch_legacy_s:.3e}s x{batch_speedup:.2}"
    );
    let tree_findings = tree_scan().findings;
    let scalar_findings = ScanPipeline::new(&arena)
        .run()
        .expect("scalar pairwise scan")
        .scan
        .findings;
    let findings_match = tree_findings == scalar_findings;
    if !findings_match {
        eprintln!(
            "GATE FAIL: product-tree findings ({}) differ from the scalar pairwise \
             scan's ({}) at m={batch_m}, bits={batch_bits}",
            tree_findings.len(),
            scalar_findings.len()
        );
        fail = true;
    } else {
        eprintln!(
            "gate OK: product-tree findings bitwise-identical to the scalar scan \
             ({} findings) at m={batch_m}, bits={batch_bits}",
            tree_findings.len()
        );
    }

    let ladder = thresholds::snapshot()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"bigint_ladder\",\n",
            "  \"limb_bits\": {lb},\n",
            "  \"thresholds\": {{{ladder}}},\n",
            "  \"mul\": [\n{mul}\n  ],\n",
            "  \"div\": [\n{div}\n  ],\n",
            "  \"newton_div\": [\n{nd}\n  ],\n",
            "  \"wrap_mul\": {{\"limbs\": {wn}, \"wrap_seconds\": {ws:.9}, \"full_seconds\": {fs:.9},\n",
            "    \"speedup\": {wsp:.4}, \"matches_full\": {wm}}},\n",
            "  \"ntt\": {{\"kernel_isa\": \"{isa}\", \"rows\": [\n{ntt}\n  ]}},\n",
            "  \"long_rem\": [\n{lr}\n  ],\n",
            "  \"batch_scan\": {{\"m\": {bm}, \"bits\": {bb}, \"findings\": {bf},\n",
            "    \"ladder_seconds\": {bls:.9}, \"legacy_seconds\": {bgs:.9},\n",
            "    \"speedup\": {bsp:.4}, \"findings_match_scalar\": {fm}}}\n",
            "}}\n"
        ),
        lb = LIMB_BITS,
        ladder = ladder,
        mul = json_rows(&mul_rows),
        div = json_rows(&div_rows),
        nd = newton_rows.join(",\n"),
        wn = WRAP_LIMBS,
        ws = wrap_s,
        fs = full_s,
        wsp = wrap_speedup,
        wm = wrap_matches,
        isa = kernel_isa(),
        ntt = ntt_rows.join(",\n"),
        lr = long_rem_rows.join(",\n"),
        bm = batch_m,
        bb = batch_bits,
        bf = tree_findings.len(),
        bls = batch_ladder_s,
        bgs = batch_legacy_s,
        bsp = batch_speedup,
        fm = findings_match,
    );
    std::fs::write(&out, &json).expect("write BENCH_bigint.json");
    println!("{json}");
    eprintln!("wrote {out}");

    if !gate {
        // A non-gated run may still be used for sweeps; report-only.
        if fail {
            std::process::exit(1);
        }
        return;
    }

    // The speedup gates: >= 1.5x at the widest mul/div shapes, and a
    // <= 1.05x regression floor where the ladder coincides with the legacy
    // path (32/64 limbs).
    const WIDE_SPEEDUP: f64 = 1.5;
    const NARROW_FLOOR: f64 = 1.0 / 1.05;
    let mut check = |what: &str, label: &str, speedup: f64, floor: f64| {
        if speedup < floor {
            eprintln!("GATE FAIL: {what} at {label}: x{speedup:.3} < {floor:.3}");
            fail = true;
        } else {
            eprintln!("gate OK: {what} at {label}: x{speedup:.3} >= {floor:.3}");
        }
    };
    if let Some(r) = mul_rows.last() {
        check(
            "dispatched mul vs Karatsuba",
            &r.label,
            r.speedup,
            WIDE_SPEEDUP,
        );
    }
    if let Some(r) = div_rows.last() {
        check("Newton div vs Knuth", &r.label, r.speedup, WIDE_SPEEDUP);
    }
    for rows in [&mul_rows, &div_rows] {
        for r in rows
            .iter()
            .filter(|r| r.label.contains(": 32") || r.label.contains(": 64"))
        {
            check("narrow-width floor", &r.label, r.speedup, NARROW_FLOOR);
        }
    }
    check(
        "product-tree batch scan (new ladder vs legacy)",
        &format!("m={batch_m}, bits={batch_bits}"),
        batch_speedup,
        1.05,
    );
    check(
        "wrapped vs full product",
        &format!("N={WRAP_LIMBS}"),
        wrap_speedup,
        1.3,
    );
    match ntt_gate_speedup {
        Some(speedup) if dispatched != KernelIsa::Portable => check(
            "dispatched NTT vs portable butterflies",
            &format!("N={NTT_GATE_SIZE} ({})", dispatched.name()),
            speedup,
            NTT_FLOOR,
        ),
        _ => eprintln!("gate skipped: the NTT runs the portable butterflies on this CPU"),
    }
    if fail {
        std::process::exit(1);
    }
    eprintln!("gate OK: subquadratic ladder gates all passed");
}
