//! FFT-range multiplication: a number-theoretic transform over three
//! word-sized NTT-friendly primes, recombined by CRT.
//!
//! Limbs are the transform coefficients directly (base 2³², matching the
//! paper's d = 32 word size), so a product of `la + lb` limbs needs a
//! transform of `N = (la + lb).next_power_of_two()` points. Each pointwise
//! product coefficient is bounded by `min(la, lb) · (2³² − 1)²  <  2⁸⁹`
//! for operands up to 2²⁵ limbs, and the prime triple below has
//! `p₁·p₂·p₃ ≈ 2⁹²·⁶`, so the CRT reconstruction is exact.
//!
//! The primes are the classic Proth NTT triple with 2-adicity ≥ 2²⁵
//! (which also caps the transform size, see [`MAX_NTT_TOTAL_LIMBS`]):
//!
//! | p                    | factorization | primitive root |
//! |----------------------|---------------|----------------|
//! | 2013265921           | 15·2²⁷ + 1    | 31             |
//! | 1811939329           | 27·2²⁶ + 1    | 13             |
//! | 2113929217           | 63·2²⁵ + 1    | 5              |
//!
//! All butterflies run in Montgomery form (R = 2³²) so the inner loop is
//! two 64-bit multiplies and a shift — no 128-bit remainder in the hot
//! path. The occasional CRT/mixed-radix steps use plain `u128` reduction.

use crate::limb::{lo, Limb, LIMB_BITS};
use crate::ops;

/// Largest supported `a.len() + b.len()` (limbs): the transform size
/// `next_power_of_two(la + lb)` must not exceed the smallest 2-adicity
/// (2²⁵) of the prime triple. 2²⁵ limbs is a gigabit-scale product — far
/// beyond anything the product tree builds today; `mul_dispatch` routes
/// larger requests to Toom-Cook-3 instead.
pub const MAX_NTT_TOTAL_LIMBS: usize = 1 << 25;

/// The (prime, primitive root) triple.
const PRIMES: [(u64, u64); 3] = [(2_013_265_921, 31), (1_811_939_329, 13), (2_113_929_217, 5)];

/// Montgomery arithmetic mod one NTT prime, R = 2³².
struct Field {
    p: u64,
    /// `-p⁻¹ mod 2³²`.
    ninv32: u32,
    /// `R² mod p`, for entering Montgomery form.
    r2: u64,
}

impl Field {
    fn new(p: u64) -> Field {
        // Newton iteration for p⁻¹ mod 2³² (p odd): 5 doublings of precision.
        let plo = lo(p);
        let mut inv: u32 = plo;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(plo.wrapping_mul(inv)));
        }
        debug_assert_eq!(plo.wrapping_mul(inv), 1);
        let r2 = ((1u128 << 64) % p as u128) as u64;
        Field {
            p,
            ninv32: inv.wrapping_neg(),
            r2,
        }
    }

    /// Branchless select: `x − p` if that doesn't underflow, else `x`.
    /// For `x < 2p` this is exactly `x mod p`. Compiled as mask-and-add
    /// ALU ops — on random transform data the equivalent branch is a coin
    /// flip, and the mispredicts dominate the whole NTT.
    #[inline(always)]
    fn reduce_once(&self, x: u64) -> u64 {
        let d = x.wrapping_sub(self.p);
        d.wrapping_add(self.p & (((d as i64) >> 63) as u64))
    }

    /// Montgomery reduction of `t < p·2³²`: returns `t·R⁻¹ mod p`.
    #[inline(always)]
    fn redc(&self, t: u64) -> u64 {
        // m = (t mod R)·(-p⁻¹) mod R; then (t + m·p) is divisible by R.
        // t < p·2³² < 2⁶³ and m·p < 2³²·p < 2⁶³, so the sum cannot wrap.
        let m = lo(t).wrapping_mul(self.ninv32) as u64;
        self.reduce_once((t + m * self.p) >> LIMB_BITS)
    }

    /// Product of two Montgomery-form values.
    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.p && b < self.p);
        self.redc(a * b)
    }

    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        self.reduce_once(a + b)
    }

    #[inline(always)]
    fn sub(&self, a: u64, b: u64) -> u64 {
        // a − b ∈ (−p, p); the same mask-select folds the negative case.
        let d = a.wrapping_sub(b);
        d.wrapping_add(self.p & (((d as i64) >> 63) as u64))
    }

    /// `1` in Montgomery form (`R mod p`).
    #[inline]
    fn one(&self) -> u64 {
        self.redc(self.r2)
    }

    /// Enter Montgomery form.
    #[inline]
    fn to_mont(&self, x: u64) -> u64 {
        self.redc((x % self.p) * self.r2)
    }

    /// Leave Montgomery form.
    #[inline]
    fn unmont(&self, x: u64) -> u64 {
        self.redc(x)
    }

    /// `base^e` with `base` in Montgomery form; result in Montgomery form.
    fn pow(&self, mut base: u64, mut e: u64) -> u64 {
        let mut acc = self.one();
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }
}

/// In-place bit-reversal permutation.
fn bit_reverse(a: &mut [u64]) {
    let n = a.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            a.swap(i, j);
        }
    }
}

/// Flat per-level twiddle tables for a size-`n` transform with root `root`
/// (Montgomery form): the segment for the level with half-size `h`
/// (h = 1, 2, 4, ..., n/2) starts at offset `h - 1` and holds
/// `(w^{n/2h})^i` for `i < h`. Only the top segment is computed by a
/// serial product chain; every smaller level is a stride-2 subsample of
/// the level above, so the build is O(n) with a single length-n/2
/// dependency chain.
fn twiddles(field: &Field, root: u64, n: usize) -> Vec<u64> {
    let top = (n / 2).max(1);
    let mut flat = vec![0u64; 2 * top - 1];
    flat[top - 1] = field.one();
    for i in 1..top {
        flat[top - 1 + i] = field.mul(flat[top - 2 + i], root);
    }
    let mut h = top / 2;
    while h >= 1 {
        for i in 0..h {
            flat[h - 1 + i] = flat[2 * h - 1 + 2 * i];
        }
        h /= 2;
    }
    flat
}

/// Iterative radix-2 Cooley-Tukey NTT over `field`, values in Montgomery
/// form, with the precomputed twiddle tables of [`twiddles`] (built for
/// the matching root and direction). The butterfly loop runs over
/// disjoint sub-slices so it compiles without bounds checks.
fn transform(field: &Field, a: &mut [u64], tw: &[u64]) {
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    debug_assert!(tw.len() >= n - 1);
    bit_reverse(a);
    let mut half = 1usize;
    while half < n {
        let seg = &tw[half - 1..2 * half - 1];
        for chunk in a.chunks_exact_mut(2 * half) {
            let (us, vs) = chunk.split_at_mut(half);
            for ((u, v), &w) in us.iter_mut().zip(vs.iter_mut()).zip(seg) {
                let t = field.mul(*v, w);
                let x = *u;
                *u = field.add(x, t);
                *v = field.sub(x, t);
            }
        }
        half <<= 1;
    }
}

/// Plain (non-Montgomery) modular helpers for the CRT recombination.
#[inline]
fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn powmod(mut base: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        e >>= 1;
    }
    acc
}

/// Residues of one pointwise-product vector for all three primes.
struct Residues {
    per_prime: [Vec<u64>; 3],
    n: usize,
}

/// One prime's residue vector of the product: forward-transform the
/// operand(s) sharing one forward twiddle table, pointwise-multiply (or
/// square when `b` is `None`, saving the second forward transform),
/// inverse-transform with the conjugate table, and scale by `n⁻¹` folded
/// into the Montgomery exit — the result is in normal form.
fn residues_mod_prime(k: usize, a: &[Limb], b: Option<&[Limb]>, n: usize) -> Vec<u64> {
    let (p, g) = PRIMES[k];
    let field = Field::new(p);
    let load = |x: &[Limb]| {
        let mut f = vec![0u64; n];
        for (f, &w) in f.iter_mut().zip(x.iter()) {
            *f = field.to_mont(w as u64);
        }
        f
    };
    let root = field.pow(field.to_mont(g), (p - 1) / n as u64);
    let fwd = twiddles(&field, root, n);
    let mut fa = load(a);
    transform(&field, &mut fa, &fwd);
    match b {
        Some(b) => {
            let mut fb = load(b);
            transform(&field, &mut fb, &fwd);
            for (x, y) in fa.iter_mut().zip(fb) {
                *x = field.mul(*x, y);
            }
        }
        None => {
            for x in fa.iter_mut() {
                *x = field.mul(*x, *x);
            }
        }
    }
    let inv = twiddles(&field, field.pow(root, p - 2), n);
    transform(&field, &mut fa, &inv);
    let n_inv = field.pow(field.to_mont(n as u64), p - 2);
    for x in fa.iter_mut() {
        *x = field.unmont(field.mul(*x, n_inv));
    }
    fa
}

/// CRT-recombine the residues and propagate carries, writing the low
/// `out.len()` limbs of the product into `out`. An acyclic product must
/// fit `out` exactly (the final carry is debug-asserted zero); a `wrap`
/// (cyclic) product has `out.len() == res.n` and folds its final carry
/// back in at limb 0, since `β^n ≡ 1 (mod β^n − 1)`.
fn recombine(res: &Residues, out: &mut [Limb], wrap: bool) {
    let [p1, p2, p3] = [PRIMES[0].0, PRIMES[1].0, PRIMES[2].0];
    let inv_p1_mod_p2 = powmod(p1, p2 - 2, p2);
    let p1p2 = p1 * p2; // < 2⁶², exact in u64
    let inv_p1p2_mod_p3 = powmod(p1p2, p3 - 2, p3);
    let [r1v, r2v, r3v] = &res.per_prime;

    let mut carry: u128 = 0;
    for i in 0..res.n {
        let (r1, r2, r3) = (r1v[i], r2v[i], r3v[i]);
        // Garner's mixed-radix CRT: v = r1 + p1·t2 + p1·p2·t3.
        let d2 = if r2 >= r1 % p2 {
            r2 - r1 % p2
        } else {
            r2 + p2 - r1 % p2
        };
        let t2 = mulmod(d2, inv_p1_mod_p2, p2);
        let v12 = r1 + p1 * t2; // < p1·p2 < 2⁶²
        let v12m = v12 % p3;
        let d3 = if r3 >= v12m {
            r3 - v12m
        } else {
            r3 + p3 - v12m
        };
        let t3 = mulmod(d3, inv_p1p2_mod_p3, p3);
        let v = v12 as u128 + p1p2 as u128 * t3 as u128; // < p1·p2·p3 < 2⁹³

        let acc = carry + v;
        if i < out.len() {
            out[i] = lo(acc as u64);
        } else {
            debug_assert_eq!(lo(acc as u64), 0, "NTT product overflows result");
        }
        carry = acc >> LIMB_BITS;
    }
    if !wrap {
        debug_assert_eq!(carry, 0, "NTT carry must be consumed by the result");
        return;
    }
    // End-around carry. The loop's carry is under 2⁶²; adding it back at
    // limb 0 carries out of the top at most once more, and only when what
    // remains is below 2⁶², so the second pass stops early.
    while carry != 0 {
        for w in out.iter_mut() {
            let acc = carry + *w as u128;
            *w = lo(acc as u64);
            carry = acc >> LIMB_BITS;
            if carry == 0 {
                break;
            }
        }
    }
    // β^n − 1 (all ones) is the non-canonical zero.
    if out.iter().all(|&w| w == Limb::MAX) {
        out.fill(0);
    }
}

/// Residues of `a · b` (or `a²`) modulo `x^n − 1` for all three primes.
fn residues(a: &[Limb], b: &[Limb], n: usize) -> Residues {
    let square = core::ptr::eq(a, b) || a == b;
    let bb = if square { None } else { Some(b) };
    Residues {
        per_prime: core::array::from_fn(|k| residues_mod_prime(k, a, bb, n)),
        n,
    }
}

/// NTT product `a · b` into `out` (zeroed, `out.len() >= la + lb` where
/// `la`/`lb` are the normalized lengths). Panics (assert) if the product
/// exceeds [`MAX_NTT_TOTAL_LIMBS`]; `mul_dispatch` never routes such
/// operands here.
pub fn mul_ntt_into(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return;
    }
    let rl = la + lb;
    assert!(
        rl <= MAX_NTT_TOTAL_LIMBS,
        "NTT product of {rl} limbs exceeds the prime triple's 2-adicity"
    );
    debug_assert!(out.len() >= rl);
    let n = rl.next_power_of_two().max(2);
    recombine(&residues(&a[..la], &b[..lb], n), &mut out[..rl], false);
}

/// Wrapped NTT product: `a · b mod (β^N − 1)` into `out`, where
/// `N = out.len() ≥ 2` is a power of two and both operands fit `N` limbs.
///
/// This is the cyclic convolution the transform computes anyway, so it
/// needs an `N`-point transform where the full product needs
/// `next_power_of_two(la + lb)` points — up to half the size. The CRT
/// bound of the module docs holds unchanged: a cyclic coefficient sums at
/// most `min(la, lb)` limb products, like an acyclic one. The result is
/// canonical (in `[0, β^N − 1)`). A caller that wants the window
/// `[lo, hi)` of the full product reads it off exactly when the product's
/// limbs past `N` fold below `lo` (`la + lb ≤ N + lo`), up to the carry
/// that the fold adds at limb `lo` (at most 2).
pub fn mul_wrap_into(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let n = out.len();
    assert!(
        n >= 2 && n.is_power_of_two() && n <= MAX_NTT_TOTAL_LIMBS,
        "wrapped NTT of {n} limbs is not a supported transform size"
    );
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    assert!(la <= n && lb <= n, "wrapped NTT operand exceeds {n} limbs");
    out.fill(0);
    if la == 0 || lb == 0 {
        return;
    }
    recombine(&residues(&a[..la], &b[..lb], n), out, true);
}

/// Allocating wrapper around [`mul_wrap_into`]: `a · b mod (β^n − 1)` as
/// exactly `n` limbs (not normalized).
pub fn mul_wrap(a: &[Limb], b: &[Limb], n: usize) -> Vec<Limb> {
    let mut out = vec![0; n];
    mul_wrap_into(&mut out, a, b);
    out
}

/// Allocating wrapper around [`mul_ntt_into`], normalized result.
pub fn mul_ntt(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return Vec::new();
    }
    let mut out = vec![0; la + lb];
    mul_ntt_into(&mut out, &a[..la], &b[..lb]);
    out.truncate(ops::normalized_len(&out));
    out
}

/// NTT squaring: one forward transform instead of two.
pub fn square_ntt(a: &[Limb]) -> Vec<Limb> {
    let la = ops::normalized_len(a);
    if la == 0 {
        return Vec::new();
    }
    let mut out = vec![0; 2 * la];
    mul_ntt_into(&mut out, &a[..la], &a[..la]);
    out.truncate(ops::normalized_len(&out));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::mul_schoolbook;

    fn schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
        let mut out = vec![0; a.len() + b.len()];
        mul_schoolbook(&mut out, a, b);
        out.truncate(ops::normalized_len(&out));
        out
    }

    #[test]
    fn primes_and_roots_are_sound() {
        for (p, g) in PRIMES {
            let field = Field::new(p);
            // Montgomery roundtrip.
            for x in [0u64, 1, 2, p - 1, 0x1234_5678] {
                assert_eq!(field.unmont(field.to_mont(x)), x % p);
            }
            // g has full order: g^((p-1)/2) == -1 for the largest transform.
            let gm = field.to_mont(g);
            assert_eq!(field.unmont(field.pow(gm, (p - 1) / 2)), p - 1);
            // The 2^25-th root of unity exists and squares down correctly.
            let w = field.pow(gm, (p - 1) / (1 << 25));
            assert_eq!(field.unmont(field.pow(w, 1 << 24)), p - 1);
        }
    }

    #[test]
    fn tiny_products_match_schoolbook() {
        let cases: [(&[Limb], &[Limb]); 6] = [
            (&[1], &[1]),
            (&[0xffff_ffff], &[0xffff_ffff]),
            (&[1, 2, 3], &[4, 5]),
            (&[0xffff_ffff; 4], &[0xffff_ffff; 4]),
            (&[0, 0, 1], &[7]),
            (&[0x8000_0000, 1], &[0x8000_0000, 1]),
        ];
        for (a, b) in cases {
            assert_eq!(mul_ntt(a, b), schoolbook(a, b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn pseudorandom_products_match_schoolbook() {
        let mut state = 0x0135_79bd_f246_8ace_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (la, lb) in [(1, 64), (17, 31), (64, 64), (100, 3), (129, 128)] {
            let a: Vec<Limb> = (0..la).map(|_| lo(next())).collect();
            let b: Vec<Limb> = (0..lb).map(|_| lo(next())).collect();
            assert_eq!(mul_ntt(&a, &b), schoolbook(&a, &b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn square_matches_mul() {
        let a: Vec<Limb> = (0..77)
            .map(|i| (i as u32).wrapping_mul(0x9e37_79b9))
            .collect();
        assert_eq!(square_ntt(&a), mul_ntt(&a, &a));
        assert_eq!(square_ntt(&a), schoolbook(&a, &a));
    }

    #[test]
    fn zero_and_unnormalized_tails() {
        assert!(mul_ntt(&[], &[1, 2]).is_empty());
        assert!(mul_ntt(&[0, 0], &[1, 2]).is_empty());
        // High zero limbs must not change the product.
        let a = [3u32, 0, 0, 0];
        let b = [5u32, 7, 0];
        assert_eq!(mul_ntt(&a, &b), schoolbook(&a[..1], &b[..2]));
    }

    #[test]
    #[ignore = "manual timing probe"]
    fn timing_probe() {
        use std::time::Instant;
        let n = 16384usize;
        let field = Field::new(PRIMES[0].0);
        let mut v: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(2654435761) % field.p)
            .collect();
        let root = field.pow(field.to_mont(PRIMES[0].1), (field.p - 1) / n as u64);
        let tw = twiddles(&field, root, n);
        let t0 = Instant::now();
        for _ in 0..100 {
            transform(&field, &mut v, &tw);
            std::hint::black_box(&v);
        }
        eprintln!("transform n={n}: {:?}/iter", t0.elapsed() / 100);

        // Pseudorandom operands: constant fill transforms to a near-delta
        // vector, which makes every data-dependent path look artificially
        // cheap and once hid a 2.5x gap to real workloads.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 32) as u32
        };
        let a: Vec<Limb> = (0..8192).map(|_| rnd()).collect();
        let b: Vec<Limb> = (0..8191).map(|_| rnd()).collect();
        let t0 = Instant::now();
        for _ in 0..20 {
            std::hint::black_box(mul_ntt(&a, &b));
        }
        eprintln!("mul_ntt 8192x8191: {:?}/iter", t0.elapsed() / 20);

        let res = residues(&a, &a, n);
        let mut out = vec![0u32; 16384];
        let t0 = Instant::now();
        for _ in 0..100 {
            recombine(&res, &mut out, false);
            std::hint::black_box(&out);
        }
        eprintln!("recombine n={n}: {:?}/iter", t0.elapsed() / 100);
    }

    /// `x mod (β^n − 1)` by folding `n`-limb chunks, canonical, `n` limbs.
    fn fold_mod(x: &[Limb], n: usize) -> Vec<Limb> {
        let mut acc = vec![0; n + 1];
        for chunk in x.chunks(n) {
            ops::add_assign(&mut acc, chunk);
        }
        // Fold the overflow limb until the value fits n limbs.
        while acc[n] != 0 {
            let top = core::mem::take(&mut acc[n]);
            ops::add_assign(&mut acc, &[top]);
        }
        acc.truncate(n);
        if acc.iter().all(|&w| w == Limb::MAX) {
            acc.fill(0);
        }
        acc
    }

    #[test]
    fn wrapped_product_matches_folded_full_product() {
        let mut state = 0x2468_ace0_1357_9bdf_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (la, lb, n) in [
            (1, 1, 2),
            (2, 2, 2),
            (5, 3, 8),
            (8, 8, 8),
            (60, 33, 64),
            (64, 64, 64),
            (200, 100, 256),
            (1000, 24, 1024),
        ] {
            let a: Vec<Limb> = (0..la).map(|_| lo(next())).collect();
            let b: Vec<Limb> = (0..lb).map(|_| lo(next())).collect();
            let full = schoolbook(&a, &b);
            assert_eq!(
                mul_wrap(&a, &b, n),
                fold_mod(&full, n),
                "la={la} lb={lb} n={n}"
            );
        }
    }

    #[test]
    fn wrapped_product_carry_wrap_edges() {
        // All-ones operands: (β^n − 1)·x ≡ 0, reached through the
        // end-around carry and the all-ones canonicalization.
        for n in [2usize, 4, 16, 128] {
            let ones = vec![Limb::MAX; n];
            assert_eq!(mul_wrap(&ones, &ones, n), vec![0; n], "n={n}");
            assert_eq!(mul_wrap(&ones, &[1], n), vec![0; n], "n={n}");
            assert_eq!(mul_wrap(&ones, &[7, 9], n), vec![0; n], "n={n}");
            // One short of all-ones: (β^n − 2)² ≡ 1.
            let mut m2 = ones.clone();
            m2[0] -= 1;
            let mut one = vec![0; n];
            one[0] = 1;
            assert_eq!(mul_wrap(&m2, &m2, n), one, "n={n}");
            // Half-width all-ones operands carry into the top limb without
            // wrapping; the folded full product agrees.
            let half = vec![Limb::MAX; n / 2 + 1];
            let full = schoolbook(&half, &ones[..n / 2]);
            assert_eq!(mul_wrap(&half, &ones[..n / 2], n), fold_mod(&full, n));
        }
        assert_eq!(mul_wrap(&[], &[5], 4), vec![0; 4]);
    }

    #[test]
    fn worst_case_coefficient_bound() {
        // All-0xffffffff operands maximize every convolution coefficient:
        // the CRT range proof in the module docs must hold in practice.
        let a = vec![u32::MAX; 96];
        let b = vec![u32::MAX; 96];
        assert_eq!(mul_ntt(&a, &b), schoolbook(&a, &b));
    }
}
