//! Property-based tests for the arithmetic substrate.
//!
//! Two independent oracles are used: `u128` built-in arithmetic for narrow
//! operands, and algebraic identities (reconstruction, inverses, roundtrips)
//! for wide ones.

use bulkgcd_bigint::nat::Nat;
use bulkgcd_bigint::{ops, Limb};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: an arbitrary Nat up to `max_limbs` limbs.
fn nat(max_limbs: usize) -> impl Strategy<Value = Nat> {
    vec(any::<Limb>(), 0..=max_limbs).prop_map(|v| Nat::from_limbs(&v))
}

/// Strategy: a non-zero Nat up to `max_limbs` limbs.
fn nat_nonzero(max_limbs: usize) -> impl Strategy<Value = Nat> {
    nat(max_limbs).prop_filter("non-zero", |n| !n.is_zero())
}

proptest! {
    // ---- u128 oracle ----

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let s = Nat::from_u64(a).add(&Nat::from_u64(b));
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = Nat::from_u64(a).mul(&Nat::from_u64(b));
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
        let (q, r) = Nat::from_u128(a).div_rem(&Nat::from_u128(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn shifts_match_u128(a in any::<u128>(), r in 0u64..127) {
        prop_assert_eq!(Nat::from_u128(a).shr(r).to_u128(), Some(a >> r));
        let masked = a >> r; // keep shl in range
        prop_assert_eq!(Nat::from_u128(masked).shl(r).to_u128(), Some(masked << r));
    }

    #[test]
    fn gcd_reference_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        fn gcd(mut a: u128, mut b: u128) -> u128 {
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        }
        prop_assert_eq!(
            Nat::from_u128(a).gcd_reference(&Nat::from_u128(b)),
            Nat::from_u128(gcd(a, b))
        );
    }

    // ---- algebraic identities on wide operands ----

    #[test]
    fn add_sub_roundtrip(a in nat(24), b in nat(24)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn add_commutes(a in nat(24), b in nat(24)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn mul_commutes_and_distributes(a in nat(12), b in nat(12), c in nat(12)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_reconstruction(a in nat(24), b in nat_nonzero(12)) {
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r < b);
    }

    #[test]
    fn exact_division_recovers_factor(a in nat_nonzero(12), b in nat_nonzero(12)) {
        let p = a.mul(&b);
        prop_assert_eq!(p.div(&b), a.clone());
        prop_assert!(p.rem(&b).is_zero());
        prop_assert_eq!(p.div(&a), b);
    }

    #[test]
    fn shl_shr_roundtrip(a in nat(16), r in 0u64..200) {
        prop_assert_eq!(a.shl(r).shr(r), a);
    }

    #[test]
    fn rshift_makes_odd(a in nat_nonzero(16)) {
        let (v, r) = a.rshift();
        prop_assert!(v.is_odd());
        prop_assert_eq!(v.shl(r), a);
    }

    #[test]
    fn hex_decimal_roundtrip(a in nat(20)) {
        prop_assert_eq!(Nat::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(Nat::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn bit_len_bounds(a in nat_nonzero(16)) {
        let bits = a.bit_len();
        prop_assert!(a >= Nat::one().shl(bits - 1));
        prop_assert!(a < Nat::one().shl(bits));
    }

    // ---- slice kernels ----

    #[test]
    fn submul_assign_matches_composition(
        a in nat_nonzero(16), b in nat(8), alpha in any::<u32>()
    ) {
        let ab = b.mul_u32(alpha);
        prop_assume!(ab <= a && b.len() <= a.len());
        let mut x = a.limbs().to_vec();
        let borrow = ops::submul_assign(&mut x, b.limbs(), alpha);
        prop_assert_eq!(borrow, 0);
        prop_assert_eq!(Nat::from_limbs(&x), a.sub(&ab));
    }

    #[test]
    fn fused_submul_rshift_matches_composition(
        a in nat_nonzero(16), b in nat(8), alpha in any::<u32>()
    ) {
        let ab = b.mul_u32(alpha);
        prop_assume!(ab <= a && b.len() <= a.len());
        let mut x = a.limbs().to_vec();
        let (len, r) = ops::fused_submul_rshift(&mut x, b.limbs(), alpha);
        let expect = a.sub(&ab);
        let (expect_shifted, expect_r) = expect.rshift();
        prop_assert_eq!(r, expect_r);
        prop_assert_eq!(Nat::from_limbs(&x[..len]), expect_shifted);
    }

    // ---- modular arithmetic ----

    #[test]
    fn modpow_montgomery_matches_naive(
        b in nat(6), e in nat(2), m in nat_nonzero(6)
    ) {
        prop_assume!(m.is_odd() && !m.is_one());
        prop_assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn modpow_product_of_exponents(b in nat(4), m in nat_nonzero(4)) {
        prop_assume!(m.is_odd() && !m.is_one());
        // b^(2+3) == b^2 * b^3 (mod m)
        let lhs = b.modpow(&Nat::from(5u32), &m);
        let rhs = b
            .modpow(&Nat::from(2u32), &m)
            .mul(&b.modpow(&Nat::from(3u32), &m))
            .rem(&m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in nat_nonzero(6), m in nat_nonzero(6)) {
        prop_assume!(!m.is_one());
        if let Some(inv) = a.modinv(&m) {
            prop_assert!(a.mul(&inv).rem(&m).is_one());
            prop_assert!(inv < m);
        } else {
            // No inverse means gcd(a, m) != 1.
            prop_assert!(!a.gcd_reference(&m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in nat_nonzero(10), b in nat_nonzero(10)) {
        let g = a.gcd_reference(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }
}

// ---- arithmetic dispatch ladder cross-checks ----
//
// The subquadratic rungs (NTT, Newton division) are checked against the
// quadratic oracles over operand shapes that straddle the default
// cutoffs, including unbalanced widths and unnormalized zero-limb tails.
// Tests call the algorithm entries directly rather than mutating the
// global threshold ladder, which would race concurrently running tests.

use bulkgcd_bigint::{div, gcd, mul, newton, ntt, square};

/// Schoolbook oracle over raw (possibly unnormalized) limb slices.
fn schoolbook_mul(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut out = vec![0; a.len() + b.len()];
    mul::mul_schoolbook(&mut out, a, b);
    out.truncate(ops::normalized_len(&out));
    out
}

/// Strategy: a limb vector of up to `max` limbs plus a zero tail of up to
/// 3 limbs (exercises the unnormalized-input contract of every entry).
fn limbs_with_tail(max: usize) -> impl Strategy<Value = Vec<Limb>> {
    (vec(any::<Limb>(), 0..=max), 0usize..4).prop_map(|(mut v, z)| {
        v.extend(core::iter::repeat_n(0, z));
        v
    })
}

proptest! {
    #[test]
    fn dispatch_mul_matches_schoolbook(
        a in limbs_with_tail(140), b in limbs_with_tail(140)
    ) {
        // 0..140 limbs straddles the Karatsuba (32) and NTT (128) rungs.
        prop_assert_eq!(mul::mul_slices(&a, &b), schoolbook_mul(&a, &b));
    }

    #[test]
    fn dispatch_square_matches_schoolbook(a in limbs_with_tail(140)) {
        prop_assert_eq!(square::square_slices(&a), schoolbook_mul(&a, &a));
    }

    #[test]
    fn ntt_matches_schoolbook_any_shape(
        a in limbs_with_tail(300), b in limbs_with_tail(260)
    ) {
        prop_assert_eq!(ntt::mul_ntt(&a, &b), schoolbook_mul(&a, &b));
        prop_assert_eq!(ntt::square_ntt(&a), schoolbook_mul(&a, &a));
    }

    #[test]
    fn newton_division_matches_knuth(
        a in limbs_with_tail(160), b in limbs_with_tail(80)
    ) {
        prop_assume!(ops::normalized_len(&b) > 0);
        let (qn, rn) = newton::div_rem_newton(&a, &b);
        let (qk, rk) = div::div_rem_knuth(&a, &b);
        prop_assert_eq!(qn, qk);
        prop_assert_eq!(rn, rk);
    }

    #[test]
    fn nat_gcd_matches_reference(a in nat(12), b in nat(12)) {
        let want = a.gcd_reference(&b);
        prop_assert_eq!(&a.gcd(&b), &want);
        // `gcd_into` twice through the same scratch: the warm buffers'
        // leftovers must not leak into the second result.
        let (mut sa, mut sb, mut out) = (Vec::new(), Vec::new(), Nat::default());
        for _ in 0..2 {
            gcd::gcd_into(&a, &b, &mut sa, &mut sb, &mut out);
            prop_assert_eq!(&out, &want);
        }
    }
}

proptest! {
    /// Newton division with divisors past the NTT rung, where its products
    /// run on the NTT and the small residues wrap at
    /// `N = next_pow2(n + 3)`: divisors of 128–1100 limbs, half of them at
    /// `2^k − 3 … 2^k + 2`, where that wrap size doubles; dividends 1× to
    /// 3× the divisor; and sometimes the divisor `β^n/2`, whose reciprocal
    /// `2β^n` does not fit `n` limbs. Newton must get there itself: a
    /// fallback to Knuth, which would hide a broken bound behind a right
    /// answer, fails the case.
    #[test]
    fn newton_division_above_the_ntt_rung_matches_knuth(
        lb in prop_oneof![
            (8u32..=10, 0usize..6).prop_map(|(k, d)| (1usize << k) + d - 3),
            128usize..=1100,
        ],
        percent in 100usize..=300,
        edge in 0u8..5,
        seed in any::<u64>(),
    ) {
        let mut next = xorshift(seed | 1);
        let mut b: Vec<Limb> = (0..lb).map(|_| next() as Limb).collect();
        if edge == 0 {
            b.fill(0);
        }
        b[lb - 1] |= 0x8000_0000;
        let a: Vec<Limb> = (0..lb * percent / 100).map(|_| next() as Limb).collect();
        let fallbacks = newton::knuth_fallbacks();
        let (qn, rn) = newton::div_rem_newton(&a, &b);
        prop_assert_eq!(newton::knuth_fallbacks(), fallbacks, "Newton fell back to Knuth");
        let (qk, rk) = div::div_rem_knuth(&a, &b);
        prop_assert_eq!(qn, qk);
        prop_assert_eq!(rn, rk);
    }
}

/// Deterministic widths that cross the *real* default cutoffs, so the
/// dispatcher itself (not just the algorithm entries) is exercised on its
/// Newton-division rung under `cargo test`, and `Nat::gcd` on operands
/// wider than any modulus the scan sees.
#[test]
fn dispatcher_routes_above_default_cutoffs() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Division: divisor above NEWTON_DIV (768), quotient above half of it.
    let a: Vec<Limb> = (0..2500).map(|_| next() as u32).collect();
    let b: Vec<Limb> = (0..1600).map(|_| next() as u32).collect();
    let (qd, rd) = div::div_rem_slices(&a, &b);
    let (qk, rk) = div::div_rem_knuth(&a, &b);
    assert_eq!(qd, qk);
    assert_eq!(rd, rk);

    // GCD: 200-limb operands (6400 bits) with a planted common factor.
    let g = Nat::from_limbs(&(0..8).map(|_| next() as u32).collect::<Vec<_>>());
    let x = g.mul(&Nat::from_limbs(
        &(0..200).map(|_| next() as u32).collect::<Vec<_>>(),
    ));
    let y = g.mul(&Nat::from_limbs(
        &(0..198).map(|_| next() as u32).collect::<Vec<_>>(),
    ));
    let got = x.gcd(&y);
    assert_eq!(got, x.gcd_reference(&y));
    assert!(got.rem(&g).is_zero());
}

// ---- NTT kernels: every ISA path against the portable oracle ----

use bulkgcd_bigint::KernelIsa;

/// xorshift64 stream for the deterministic kernel sweeps.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The ISA paths this host can run besides the portable oracle; the rest
/// are reported as skipped, not failed.
fn vector_isas() -> Vec<KernelIsa> {
    [KernelIsa::Avx512, KernelIsa::Avx2]
        .into_iter()
        .filter(|isa| {
            let ok = isa.available();
            if !ok {
                eprintln!("skipped: this CPU cannot run the {} kernel", isa.name());
            }
            ok
        })
        .collect()
}

/// Forward and inverse transforms at n = 2…2¹⁶, for every prime, bit for
/// bit against the portable body, each direction from the same input:
/// random residues and residues that are all `p − 1`, whose sums come
/// closest to wrapping a 32-bit lane. The sizes take every power of two
/// from 2 to 64: those below 32, the AVX-512 kernel's smallest, hand off
/// to the portable body; 32 runs one streamed stage and the block pass,
/// 64 a streamed stage pair. inverse(forward(x)) = n·x, the scale the
/// load constants later remove.
#[test]
fn ntt_transform_isa_paths_match_portable() {
    let mut next = xorshift(0x0ddb_a11c_afe5_eed5);
    for isa in vector_isas() {
        for log_n in 1..=16 {
            let n = 1usize << log_n;
            for prime in 0..3 {
                let tw = ntt::Twiddles::new(prime, n);
                let p = tw.prime();
                let random: Vec<u32> = (0..n).map(|_| (next() % p as u64) as u32).collect();
                for (what, x) in [("random", random), ("all p − 1", vec![p - 1; n])] {
                    let at = format!("{} n={n} prime={p} {what}", isa.name());
                    for inverse in [false, true] {
                        let (mut got, mut want) = (x.clone(), x.clone());
                        assert!(ntt::transform_on(isa, &tw, &mut got, inverse));
                        assert!(ntt::transform_on(
                            KernelIsa::Portable,
                            &tw,
                            &mut want,
                            inverse
                        ));
                        assert_eq!(got, want, "{at}: inverse={inverse} differs from portable");
                    }
                    let mut got = x.clone();
                    assert!(ntt::transform_on(isa, &tw, &mut got, false));
                    assert!(ntt::transform_on(isa, &tw, &mut got, true));
                    let scaled: Vec<u32> = x
                        .iter()
                        .map(|&v| (v as u64 * n as u64 % p as u64) as u32)
                        .collect();
                    assert_eq!(got, scaled, "{at}: inverse(forward(x)) != n·x");
                }
            }
        }
    }
}

/// `mul_ntt` and `mul_wrap` on every ISA path equal the schoolbook
/// product: random operands and the all-`0xffffffff` operands that
/// maximize every CRT coefficient, at shapes whose full and wrapped
/// transforms take every size from 2 to 64. `mul_wrap_pair` equals two
/// `mul_wrap` calls, with operands of unequal length, all ones and zero,
/// and with a zero first factor.
#[test]
fn ntt_products_match_schoolbook_on_every_isa() {
    let mut next = xorshift(0x5eed_0fc0_ffee);
    let mut isas = vector_isas();
    isas.push(KernelIsa::Portable);
    for isa in isas {
        for (la, lb) in [
            (1, 1),
            (2, 1),
            (3, 2),
            (5, 4),
            (9, 8),
            (17, 15),
            (33, 31),
            (300, 200),
            (2048, 2048),
        ] {
            let random = |next: &mut dyn FnMut() -> u64, len| -> Vec<Limb> {
                (0..len).map(|_| next() as Limb).collect()
            };
            for (a, b) in [
                (random(&mut next, la), random(&mut next, lb)),
                (vec![Limb::MAX; la], vec![Limb::MAX; lb]),
            ] {
                let at = format!("{} la={la} lb={lb}", isa.name());
                let want = schoolbook_mul(&a, &b);
                let mut full = vec![0; la + lb];
                assert!(ntt::mul_ntt_into_on(isa, &mut full, &a, &b));
                full.truncate(ops::normalized_len(&full));
                assert_eq!(full, want, "{at}: mul_ntt");

                // Wrapped: the full product folded mod β^n − 1.
                let n = la.max(lb).next_power_of_two().max(2);
                let mut wrapped = vec![0; n];
                assert!(ntt::mul_wrap_into_on(isa, &mut wrapped, &a, &b));
                let modulus = Nat::one().shl(n as u64 * 32).sub(&Nat::one());
                let folded = Nat::from_limbs(&want).rem(&modulus);
                assert_eq!(Nat::from_limbs(&wrapped), folded, "{at}: mul_wrap");

                // Pairs sharing `a`: with an operand of another length, all
                // ones (β^n − 1, the non-canonical zero) and zero.
                let other = random(&mut next, la.div_ceil(3));
                for b1 in [other, vec![Limb::MAX; n], vec![0; lb]] {
                    check_pair(isa, n, &a, [&b, &b1], &at);
                }
                check_pair(isa, n, &[], [&a, &b], &at);
            }
        }
    }
}

/// `x mod (β^n − 1)` as exactly `n` canonical limbs, by folding `n`-limb
/// chunks: the oracle of a wrapped product.
fn fold_mod(x: &[Limb], n: usize) -> Vec<Limb> {
    let mut acc = Nat::from_limbs(x);
    while acc.len() > n {
        let (low, high) = acc.limbs().split_at(n);
        acc = Nat::from_limbs(low).add(&Nat::from_limbs(high));
    }
    let mut out = acc.limbs().to_vec();
    out.resize(n, 0);
    if out.iter().all(|&w| w == Limb::MAX) {
        out.fill(0);
    }
    out
}

/// `mul_wrap_pair_into_on(a; b₀, b₁)` on `isa` at `n` limbs, in both
/// orders of the pair, is bitwise the two `mul_wrap_into_on` products.
fn check_pair(isa: KernelIsa, n: usize, a: &[Limb], [b0, b1]: [&[Limb]; 2], at: &str) {
    let single = |b: &[Limb]| {
        let mut out = vec![0; n];
        assert!(ntt::mul_wrap_into_on(isa, &mut out, a, b));
        out
    };
    let want = [single(b0), single(b1)];
    for (order, [x, y]) in [[b0, b1], [b1, b0]].into_iter().enumerate() {
        // Stale limbs in the outputs must not survive.
        let (mut p0, mut p1) = (vec![7; n], vec![7; n]);
        assert!(ntt::mul_wrap_pair_into_on(
            isa,
            [&mut p0, &mut p1],
            a,
            [x, y]
        ));
        let (w0, w1) = if order == 0 {
            (&want[0], &want[1])
        } else {
            (&want[1], &want[0])
        };
        assert_eq!((&p0, &p1), (w0, w1), "{at}: mul_wrap_pair, order {order}");
    }
}

/// `mul_ntt_into_on` and `mul_wrap_into_on` of every pair in `operands`,
/// on every ISA path in turn, against the schoolbook products `want`;
/// `mul_wrap_pair_into_on` of `a` by `b` and by `a` itself, and of a zero
/// first factor by both.
fn check_interleaved(isas: &[KernelIsa], operands: &[(Vec<Limb>, Vec<Limb>)], want: &[Vec<Limb>]) {
    for &isa in isas {
        for ((a, b), want) in operands.iter().zip(want) {
            let at = format!("{} {}x{}", isa.name(), a.len(), b.len());
            let mut full = vec![0; a.len() + b.len()];
            assert!(ntt::mul_ntt_into_on(isa, &mut full, a, b));
            full.truncate(ops::normalized_len(&full));
            assert_eq!(&full, want, "{at}: mul_ntt");
            let n = a.len().max(b.len()).next_power_of_two().max(2);
            let mut wrapped = vec![0; n];
            assert!(ntt::mul_wrap_into_on(isa, &mut wrapped, a, b));
            assert_eq!(wrapped, fold_mod(want, n), "{at}: mul_wrap");
            // A pair whose second factor is `a` itself: `a·a` through the
            // shared spectrum, where a single product takes the square path.
            let (mut p0, mut p1) = (vec![7; n], vec![7; n]);
            assert!(ntt::mul_wrap_pair_into_on(
                isa,
                [&mut p0, &mut p1],
                a,
                [b, a]
            ));
            assert_eq!(p0, wrapped, "{at}: mul_wrap_pair, first");
            assert_eq!(
                p1,
                fold_mod(&schoolbook_mul(a, a), n),
                "{at}: mul_wrap_pair, second"
            );
            assert!(ntt::mul_wrap_pair_into_on(
                isa,
                [&mut p0, &mut p1],
                &[],
                [b, a]
            ));
            assert_eq!(
                (&p0, &p1),
                (&vec![0; n], &vec![0; n]),
                "{at}: zero first factor"
            );
        }
    }
}

proptest! {
    /// Products at interleaved sizes — large, small, then larger again —
    /// on every ISA path, from two threads at once: the shared twiddle
    /// tables grow under one size and serve the others from their prefix,
    /// and the per-thread working vectors shrink and regrow between calls.
    /// The small shape, whose full and wrapped transforms take every size
    /// from 2 to 64, also runs with all limbs `0xffffffff`. Every product
    /// must equal the schoolbook one bit for bit.
    #[test]
    fn ntt_interleaved_sizes_on_two_threads_match_schoolbook(
        sizes in vec((150usize..500, 1usize..40, 300usize..700), 2),
        seed in any::<u64>()
    ) {
        let mut isas = vector_isas();
        isas.push(KernelIsa::Portable);
        let cases: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(t, &(big, small, bigger))| {
                let mut next = xorshift(seed.rotate_left(17 * t as u32) | 1);
                let mut limbs = |len: usize| -> Vec<Limb> { (0..len).map(|_| next() as Limb).collect() };
                let mut operands: Vec<_> = [(big, big / 2 + 1), (small, small / 2 + 1), (bigger, bigger)]
                    .iter()
                    .map(|&(la, lb)| (limbs(la), limbs(lb)))
                    .collect();
                operands.insert(2, (vec![Limb::MAX; small], vec![Limb::MAX; small / 2 + 1]));
                let want: Vec<_> = operands.iter().map(|(a, b)| schoolbook_mul(a, b)).collect();
                (operands, want)
            })
            .collect();
        std::thread::scope(|s| {
            let (first, second) = (&cases[0], &cases[1]);
            let isas = &isas;
            s.spawn(move || check_interleaved(isas, &second.0, &second.1));
            check_interleaved(isas, &first.0, &first.1);
        });
    }
}
