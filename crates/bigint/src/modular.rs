//! Modular arithmetic: Montgomery multiplication (CIOS), modular
//! exponentiation, modular inverse, and the one-word Montgomery fold.
//!
//! Montgomery form is used by Miller–Rabin (`crate::prime`), which dominates
//! RSA-modulus generation time; a division-based `modpow_naive` is kept as an
//! independently-implemented cross-check oracle. [`MontFold`] reduces a
//! long operand modulo a short odd modulus up to a known unit factor, which
//! is all a shared-factor check needs.

use crate::limb::{adc, hi, lo, mac, Limb, Wide, LIMB_BITS};
use crate::nat::Nat;
use crate::ops;

/// Reusable context for arithmetic modulo a fixed odd modulus.
///
/// ```
/// use bulkgcd_bigint::{Montgomery, Nat};
///
/// let m = Nat::from_u64(1_000_003); // odd modulus
/// let mont = Montgomery::new(&m);
/// let r = mont.pow(&Nat::from_u64(2), &Nat::from_u64(1_000_002));
/// assert!(r.is_one()); // Fermat: 2^(p-1) = 1 (mod p)
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery {
    /// The modulus `n` (odd, > 1).
    n: Vec<Limb>,
    /// `-n^{-1} mod 2^32`.
    n0inv: Limb,
    /// `R^2 mod n` where `R = 2^(32 * n.len())`, used to enter Montgomery form.
    r2: Vec<Limb>,
    /// `R mod n`: the Montgomery representation of 1.
    r1: Vec<Limb>,
}

/// Inverse of an odd limb modulo `2^32` via Newton iteration.
fn inv_limb(n: Limb) -> Limb {
    debug_assert!(n & 1 == 1);
    let mut x = n; // correct mod 2^3
    for _ in 0..4 {
        x = x.wrapping_mul(2u32.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x
}

impl Montgomery {
    /// Build a context for the odd modulus `n > 1`.
    ///
    /// # Panics
    /// Panics if `n` is even or `<= 1`.
    pub fn new(n: &Nat) -> Self {
        assert!(n.is_odd(), "Montgomery modulus must be odd");
        assert!(!n.is_one() && !n.is_zero(), "modulus must be > 1");
        let limbs = n.limbs().to_vec();
        let l = limbs.len();
        let n0inv = inv_limb(limbs[0]).wrapping_neg();
        // R mod n and R^2 mod n via plain division.
        let r = Nat::one().shl(l as u64 * LIMB_BITS as u64).rem(n);
        let r2 = r.mul(&r).rem(n);
        let mut r1v = r.into_limbs();
        r1v.resize(l, 0);
        let mut r2v = r2.into_limbs();
        r2v.resize(l, 0);
        Montgomery {
            n: limbs,
            n0inv,
            r2: r2v,
            r1: r1v,
        }
    }

    /// Number of limbs of the modulus.
    pub fn limbs(&self) -> usize {
        self.n.len()
    }

    /// The modulus as a `Nat`.
    pub fn modulus(&self) -> Nat {
        Nat::from_limbs(&self.n)
    }

    /// CIOS Montgomery product: `out = a * b * R^{-1} mod n`.
    /// All slices have exactly `n.len()` limbs.
    fn mont_mul(&self, a: &[Limb], b: &[Limb], out: &mut [Limb]) {
        let l = self.n.len();
        debug_assert!(a.len() == l && b.len() == l && out.len() == l);
        // t has l+2 limbs: the CIOS accumulator.
        let mut t: Vec<Limb> = vec![0; l + 2];
        for &bi in b.iter() {
            // t += a * b_i
            let mut carry = 0;
            for (ti, &ai) in t.iter_mut().zip(a.iter()) {
                let (lo, hi) = mac(*ti, ai, bi, carry);
                *ti = lo;
                carry = hi;
            }
            let (s, c) = adc(t[l], carry, 0);
            t[l] = s;
            t[l + 1] = t[l + 1].wrapping_add(c);

            // m = t[0] * n0inv mod D; t += m * n; t >>= 32
            let m = t[0].wrapping_mul(self.n0inv);
            let (_, mut carry) = mac(t[0], m, self.n[0], 0);
            for i in 1..l {
                let (lo, hi) = mac(t[i], m, self.n[i], carry);
                t[i - 1] = lo;
                carry = hi;
            }
            let (s, c) = adc(t[l], carry, 0);
            t[l - 1] = s;
            t[l] = t[l + 1].wrapping_add(c);
            t[l + 1] = 0;
        }
        // Final conditional subtraction: t may be in [0, 2n).
        if t[l] != 0 || ops::cmp(&t[..l], &self.n) != core::cmp::Ordering::Less {
            ops::sub_assign(&mut t[..l + 1], &self.n);
        }
        out.copy_from_slice(&t[..l]);
    }

    /// Bring `a < n` into Montgomery form.
    fn to_mont(&self, a: &[Limb], out: &mut [Limb]) {
        self.mont_mul(a, &self.r2, out);
    }

    /// Leave Montgomery form.
    fn unmont(&self, a: &[Limb], out: &mut [Limb]) {
        let l = self.n.len();
        let mut one = vec![0; l];
        one[0] = 1;
        self.mont_mul(a, &one, out);
    }

    /// `base^exp mod n`. Uses left-to-right binary exponentiation for
    /// short exponents and a fixed 4-bit window for long ones (fewer
    /// multiplications per exponent bit; matters for the keygen-heavy
    /// Table IV experiments).
    pub fn pow(&self, base: &Nat, exp: &Nat) -> Nat {
        if exp.bit_len() >= 64 {
            self.pow_window(base, exp)
        } else {
            self.pow_binary(base, exp)
        }
    }

    /// Plain left-to-right binary exponentiation in Montgomery form.
    pub fn pow_binary(&self, base: &Nat, exp: &Nat) -> Nat {
        let l = self.n.len();
        if exp.is_zero() {
            return Nat::one().rem(&self.modulus());
        }
        let mut b = base.rem(&self.modulus()).into_limbs();
        b.resize(l, 0);
        let mut bm = vec![0; l];
        self.to_mont(&b, &mut bm);

        let mut acc = self.r1.clone(); // Montgomery form of 1
        let mut tmp = vec![0; l];
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            self.mont_mul(&acc.clone(), &acc, &mut tmp);
            core::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                self.mont_mul(&acc.clone(), &bm, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
            }
        }
        let mut out = vec![0; l];
        self.unmont(&acc, &mut out);
        Nat::from_limbs(&out)
    }

    /// Fixed 4-bit-window exponentiation in Montgomery form: 16-entry
    /// table, four squarings plus at most one multiplication per window.
    pub fn pow_window(&self, base: &Nat, exp: &Nat) -> Nat {
        const WINDOW: u64 = 4;
        let l = self.n.len();
        if exp.is_zero() {
            return Nat::one().rem(&self.modulus());
        }
        let mut b = base.rem(&self.modulus()).into_limbs();
        b.resize(l, 0);
        // table[i] = base^i in Montgomery form.
        let mut table: Vec<Vec<Limb>> = vec![vec![0; l]; 1 << WINDOW];
        table[0].copy_from_slice(&self.r1);
        self.to_mont(&b, &mut table[1]);
        for i in 2..1usize << WINDOW {
            let (lo, hi) = table.split_at_mut(i);
            self.mont_mul(&lo[i - 1], &lo[1], &mut hi[0]);
        }

        let bits = exp.bit_len();
        let windows = bits.div_ceil(WINDOW);
        let mut acc = self.r1.clone();
        let mut tmp = vec![0; l];
        for w in (0..windows).rev() {
            for _ in 0..WINDOW {
                self.mont_mul(&acc.clone(), &acc, &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
            }
            let mut digit = 0usize;
            for bit in (0..WINDOW).rev() {
                digit = (digit << 1) | usize::from(exp.bit(w * WINDOW + bit));
            }
            if digit != 0 {
                self.mont_mul(&acc.clone(), &table[digit], &mut tmp);
                core::mem::swap(&mut acc, &mut tmp);
            }
        }
        let mut out = vec![0; l];
        self.unmont(&acc, &mut out);
        Nat::from_limbs(&out)
    }

    /// Montgomery product of two ordinary (non-Montgomery) residues:
    /// `a * b mod n`. Convenience for callers that do isolated products.
    pub fn mul_mod(&self, a: &Nat, b: &Nat) -> Nat {
        a.mul(b).rem(&self.modulus())
    }
}

/// One-word Montgomery reduction (REDC) context for folding long
/// operands modulo a short odd modulus `n`, on 64-bit words.
///
/// [`Self::fold`] returns `x · 2^(−64·L) mod n`, where `L` is the number of
/// 64-bit words `x` occupies. For odd `n`, `2^64` is a unit mod `n`, so the
/// fold is `x mod n` times a unit: it is zero exactly when `n | x`, and its
/// gcd with `n` equals `gcd(x mod n, n)`. That is what
/// `bulk::incremental::CorpusIndex` uses it for; the exact residue is not
/// needed there. The cost is one `|n|`-word multiply-add per word of `x`,
/// with no quotient estimation, against Knuth division's 32-bit limb steps.
///
/// ```
/// use bulkgcd_bigint::{MontFold, Nat};
///
/// let n = Nat::from_u64(1_000_003);
/// let x = Nat::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
/// let f = MontFold::new(&n).fold(x.limbs());
/// // x has two 64-bit words, so f = x · 2^-128 mod n.
/// assert_eq!(f.shl(128).rem(&n), x.rem(&n));
/// ```
#[derive(Clone, Debug)]
pub struct MontFold {
    /// The modulus `n` as little-endian 64-bit words.
    n: Vec<u64>,
    /// `−n^{-1} mod 2^64`.
    n0inv: u64,
}

impl MontFold {
    /// Build a context for the odd modulus `n`.
    ///
    /// # Panics
    /// Panics if `n` is even (zero included).
    pub fn new(n: &Nat) -> Self {
        assert!(n.is_odd(), "Montgomery fold modulus must be odd");
        let n: Vec<u64> = n.limbs().chunks(2).map(word).collect();
        // One Newton step lifts the inverse mod 2^32 to one mod 2^64.
        let inv = Wide::from(inv_limb(lo(n[0])));
        let inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        MontFold {
            n,
            n0inv: inv.wrapping_neg(),
        }
    }

    /// `x · 2^(−64·L) mod n`, fully reduced, with `L = ⌈x.len() / 2⌉` (the
    /// 64-bit words of `x` as given, leading zero limbs included).
    ///
    /// The accumulator `t` starts at 0 and takes the words of `x` from the
    /// least significant up, one REDC step each: `t ← (t + w + m·n) / 2^64`
    /// with `m = −(t + w)·n^{-1} mod 2^64`, so the division is exact and
    /// `t ≡ (t + w) · 2^−64 (mod n)`. If `t ≤ n` then
    /// `t + w + m·n ≤ n + (2^64 − 1) + (2^64 − 1)·n = 2^64·n + 2^64 − 1`, so
    /// the new `t ≤ n` again: `t` stays within `|n|` words, and the only
    /// unreduced value it can end on is `n` itself (when `n | x`).
    pub fn fold(&self, x: &[Limb]) -> Nat {
        let mut t = vec![0u64; self.n.len()];
        // Whole pairs first: `chunks_exact` keeps the hot loop free of the
        // odd-length case (measured ~20% faster than `chunks(2)`).
        let pairs = x.chunks_exact(2);
        let top = pairs.remainder().iter().map(|&l| Wide::from(l));
        for w in pairs.map(word).chain(top) {
            self.redc_step(&mut t, w);
        }
        if t == self.n {
            return Nat::zero();
        }
        Nat::from_vec(t.iter().flat_map(|&w| [lo(w), hi(w)]).collect())
    }

    /// One REDC step: `t ← (t + w + m·n) / 2^64`.
    #[inline(always)]
    fn redc_step(&self, t: &mut [u64], w: u64) {
        let (t0, wrapped) = t[0].overflowing_add(w);
        let m = t0.wrapping_mul(self.n0inv);
        // t0 + m·n[0] ≡ 0 mod 2^64, so its high word is at most 2^64 − 2
        // when the add wrapped, and the carry out of t[0] + w (same
        // weight) fits beside it.
        let mut carry =
            hi128(u128::from(t0) + u128::from(m) * u128::from(self.n[0])) + u64::from(wrapped);
        let (low, high) = t.split_at_mut(1);
        let mut prev = &mut low[0];
        for (tj, &nj) in high.iter_mut().zip(&self.n[1..]) {
            let acc = u128::from(*tj) + u128::from(m) * u128::from(nj) + u128::from(carry);
            *prev = acc as u64;
            carry = hi128(acc);
            prev = tj;
        }
        // t ≤ n < 2^(64·|n|): the last carry is the top word.
        *prev = carry;
    }
}

/// High 64-bit word of a 128-bit value (exact after the shift).
#[inline(always)]
fn hi128(v: u128) -> u64 {
    (v >> 64) as u64
}

/// The 64-bit word of one or two little-endian limbs.
fn word(pair: &[Limb]) -> u64 {
    pair.iter()
        .rev()
        .fold(0, |w, &l| (w << LIMB_BITS) | Wide::from(l))
}

impl Nat {
    /// `self^exp mod m` by schoolbook square-and-multiply with division-based
    /// reduction. Works for any modulus `m > 0` (even ones too); used as a
    /// cross-check oracle for the Montgomery path and for even moduli.
    pub fn modpow_naive(&self, exp: &Nat, m: &Nat) -> Nat {
        assert!(!m.is_zero(), "zero modulus");
        if m.is_one() {
            return Nat::zero();
        }
        let mut acc = Nat::one();
        let base = self.rem(m);
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(m);
            }
        }
        acc
    }

    /// `self^exp mod m`, choosing Montgomery for odd moduli and the naive
    /// path otherwise.
    pub fn modpow(&self, exp: &Nat, m: &Nat) -> Nat {
        if m.is_odd() && !m.is_one() {
            Montgomery::new(m).pow(self, exp)
        } else {
            self.modpow_naive(exp, m)
        }
    }

    /// Modular inverse: the `x` with `self * x ≡ 1 (mod m)`, if it exists.
    ///
    /// Uses the iterative extended Euclidean algorithm with the Bézout
    /// coefficient tracked modulo `m`, which avoids signed arithmetic: this
    /// is exactly the computation the paper cites for recovering the RSA
    /// decryption key `d = e^{-1} mod (p-1)(q-1)` once a factor is known.
    pub fn modinv(&self, m: &Nat) -> Option<Nat> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        let mut old_s = Nat::one();
        let mut s = Nat::zero();
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = core::mem::replace(&mut r, rem);
            // new_s = old_s - q*s (mod m)
            let qs = q.mul(&s).rem(m);
            let new_s = if old_s.cmp(&qs) == core::cmp::Ordering::Less {
                old_s.add(m).sub(&qs)
            } else {
                old_s.sub(&qs)
            };
            old_s = core::mem::replace(&mut s, new_s);
        }
        if old_r.is_one() {
            Some(old_s.rem(m))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv_limb_correct() {
        for n in [1u32, 3, 5, 0xffff_ffff, 0x1234_5679, 7] {
            assert_eq!(n.wrapping_mul(inv_limb(n)), 1, "n={n}");
        }
    }

    #[test]
    fn montgomery_pow_matches_naive_small() {
        let m = Nat::from(1_000_003u32); // odd prime
        for b in [2u32, 3, 12345, 999_999] {
            for e in [0u32, 1, 2, 65537, 1_000_002] {
                let b = Nat::from(b);
                let e = Nat::from(e);
                assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
            }
        }
    }

    #[test]
    fn montgomery_pow_large_modulus() {
        // 128-bit odd modulus.
        let m = Nat::from_u128(0xffff_ffff_ffff_ffff_ffff_ffff_ffff_ff61);
        let b = Nat::from_u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let e = Nat::from_u128(0xfedc_ba98_7654_3210);
        assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn fermat_little_theorem() {
        // p prime => a^(p-1) = 1 mod p. 18446744073709551557 is the largest
        // prime below 2^64.
        let p = Nat::from_u128(18_446_744_073_709_551_557);
        let a = Nat::from(123_456_789u32);
        let e = p.sub(&Nat::one());
        assert!(a.modpow(&e, &p).is_one());
    }

    #[test]
    fn window_matches_binary() {
        let m = Nat::from_u128(0xffff_ffff_ffff_ffff_ffff_ffff_ffff_ff61);
        let mont = Montgomery::new(&m);
        let b = Nat::from_u128(0x0123_4567_89ab_cdef_0123);
        for e in [
            Nat::from(1u32),
            Nat::from(16u32),
            Nat::from_u128(u128::MAX),
            Nat::from_u128(0x8000_0000_0000_0000_0000_0000_0000_0000),
            Nat::from_u128(0xfedc_ba98_7654_3210_0f0f_0f0f),
        ] {
            assert_eq!(mont.pow_window(&b, &e), mont.pow_binary(&b, &e));
        }
        assert!(mont.pow_window(&b, &Nat::zero()).is_one());
    }

    #[test]
    fn even_modulus_falls_back() {
        let m = Nat::from(1_000_000u32);
        let b = Nat::from(12345u32);
        let e = Nat::from(678u32);
        assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = Nat::from(97u32);
        assert!(Nat::from(5u32).modpow(&Nat::zero(), &m).is_one());
    }

    #[test]
    fn modinv_basic() {
        let m = Nat::from(97u32);
        for a in 1u32..97 {
            let a = Nat::from(a);
            let inv = a.modinv(&m).expect("prime modulus: all invertible");
            assert!(a.mul(&inv).rem(&m).is_one());
        }
    }

    #[test]
    fn modinv_even_modulus() {
        // e = 65537 mod phi — the RSA use case with an even modulus.
        let phi = Nat::from_u128(0x1_0000_0000_0000_0000u128 - 0x1234_5678); // even
        let e = Nat::from(65537u32);
        let d = e.modinv(&phi).expect("gcd(e, phi) = 1");
        assert!(e.mul(&d).rem(&phi).is_one());
    }

    /// `fold(x)` against Knuth: `(fold(x) << 64·L) mod n == x mod n`, plus
    /// gcd and zero agreement, over moduli of 1 to 40 limbs (odd counts
    /// leave the top 64-bit word half-empty), top limb 1, all-ones and 3,
    /// and operands from 0 to 300 limbs.
    #[test]
    fn fold_matches_knuth_remainder() {
        use crate::random::{random_bits, random_odd_bits};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xf01d);
        let mut moduli = vec![Nat::from(3u32)];
        for l in 1..=40u64 {
            moduli.push(random_odd_bits(&mut rng, 32 * l));
            let mut top_one = random_odd_bits(&mut rng, 32 * l).into_limbs();
            top_one[l as usize - 1] = 1;
            moduli.push(Nat::from_vec(top_one));
            moduli.push(Nat::from_vec(vec![Limb::MAX; l as usize]));
        }
        for n in &moduli {
            let fold = MontFold::new(n);
            let mut xs: Vec<Vec<Limb>> = vec![
                Vec::new(),
                vec![0; 3],
                n.limbs().to_vec(),
                vec![Limb::MAX; n.len()],
                vec![Limb::MAX; 300],
            ];
            if n.len() > 1 {
                xs.push(random_bits(&mut rng, 32 * (n.len() as u64 - 1)).into_limbs());
            }
            for mult_limbs in [1u64, 2, 7, 300 - n.len() as u64] {
                let k = random_bits(&mut rng, 32 * mult_limbs);
                xs.push(n.mul(&k).into_limbs());
                // A multiple padded with zero limbs: L counts them.
                let mut padded = n.mul(&k).into_limbs();
                padded.resize(padded.len() + 3, 0);
                xs.push(padded);
            }
            for _ in 0..4 {
                let limbs = rng.gen_range(1..=300u64);
                xs.push(random_bits(&mut rng, 32 * limbs).into_limbs());
            }
            for x in &xs {
                let words = x.len().div_ceil(2) as u64;
                let got = fold.fold(x);
                let want = Nat::from_limbs(x).rem(n);
                assert!(got < *n, "unreduced fold, n={n:?} x={x:?}");
                assert_eq!(got.shl(64 * words).rem(n), want, "n={n:?} x={x:?}");
                assert_eq!(got.is_zero(), want.is_zero());
                assert_eq!(got.gcd_reference(n), want.gcd_reference(n));
            }
        }
    }

    #[test]
    fn modinv_nonexistent() {
        let m = Nat::from(100u32);
        assert!(Nat::from(10u32).modinv(&m).is_none());
        assert!(Nat::zero().modinv(&m).is_none());
    }
}
