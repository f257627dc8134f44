//! Multiplication: the dispatch entry of the arithmetic ladder.
//!
//! [`mul_dispatch`] routes by the *shorter* operand's width: schoolbook →
//! Karatsuba → 3-prime NTT, with Karatsuba again for products past the
//! NTT's size cap, and unbalanced products chopped into balanced chunks
//! first. All cutoffs live in [`crate::thresholds`] (env-overridable);
//! correctness never depends on them. Every recursion — Karatsuba's
//! halves, the unbalanced chop — re-enters the dispatcher, so each
//! sub-product independently picks the right rung for its own width.

use crate::limb::{mac, Limb};
use crate::nat::Nat;
use crate::ntt;
use crate::ops;
use crate::thresholds;

/// Schoolbook product `a * b` into `out`. `out` must be zeroed and have
/// length at least `a.len() + b.len()`.
pub fn mul_schoolbook(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    debug_assert!(out.len() >= a.len() + b.len());
    debug_assert!(out[..a.len() + b.len()].iter().all(|&w| w == 0));
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0;
        for (j, &bj) in b.iter().enumerate() {
            let (lo, hi) = mac(out[i + j], ai, bj, carry);
            out[i + j] = lo;
            carry = hi;
        }
        out[i + b.len()] = carry;
    }
}

/// `a * b` by one multiplication limb: `out = a * m`, returns carry limb.
/// `out.len() == a.len()`; the returned carry is the limb above the top.
pub fn mul_limb(out: &mut [Limb], a: &[Limb], m: Limb) -> Limb {
    debug_assert_eq!(out.len(), a.len());
    let mut carry = 0;
    for (o, &ai) in out.iter_mut().zip(a.iter()) {
        let (lo, hi) = mac(0, ai, m, carry);
        *o = lo;
        carry = hi;
    }
    carry
}

/// Width-dispatched product into `out` (zeroed, `len >= a.len()+b.len()`).
/// The single entry point of the multiply ladder; see the module docs.
pub fn mul_dispatch(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let (a, b) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    // a is the longer operand.
    if b.is_empty() {
        return;
    }
    if b.len() < thresholds::KARATSUBA.get() {
        mul_schoolbook(out, a, b);
        return;
    }
    if a.len() > 2 * b.len() {
        // Unbalanced: chop `a` into b.len()-sized chunks, each near-balanced.
        let chunk = b.len();
        let mut tmp = vec![0; chunk + b.len()];
        let mut off = 0;
        while off < a.len() {
            let hi = (off + chunk).min(a.len());
            let part = &a[off..hi];
            tmp.truncate(0);
            tmp.resize(part.len() + b.len(), 0);
            mul_dispatch(&mut tmp, part, b);
            let carry = ops::add_assign(&mut out[off..], &tmp);
            debug_assert_eq!(carry, 0);
            off = hi;
        }
        return;
    }
    if b.len() >= thresholds::NTT.get() && a.len() + b.len() <= ntt::MAX_NTT_TOTAL_LIMBS {
        ntt::mul_ntt_into(out, a, b);
        return;
    }
    mul_karatsuba(out, a, b);
}

/// Balanced Karatsuba product into `out` (zeroed, len >= a.len()+b.len()).
/// Requires `a.len() >= b.len()` and `a.len() <= 2·b.len()` (the dispatcher
/// guarantees both); sub-products re-enter [`mul_dispatch`].
fn mul_karatsuba(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    debug_assert!(a.len() >= b.len() && a.len() <= 2 * b.len());
    // Split at m = ceil(a.len()/2).
    let m = a.len().div_ceil(2);
    let (a0, a1) = a.split_at(m.min(a.len()));
    let (b0, b1) = if b.len() > m {
        b.split_at(m)
    } else {
        (b, &[][..])
    };

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2.
    let mut z0 = vec![0; a0.len() + b0.len()];
    mul_dispatch(&mut z0, a0, b0);
    z0.truncate(ops::normalized_len(&z0));
    let mut z2 = vec![0; a1.len() + b1.len().max(1)];
    if !a1.is_empty() && !b1.is_empty() {
        mul_dispatch(&mut z2, a1, b1);
    }
    z2.truncate(ops::normalized_len(&z2));

    // sa = a0 + a1, sb = b0 + b1 (each at most m+1 limbs).
    let mut sa = vec![0; m + 1];
    sa[..a0.len()].copy_from_slice(a0);
    ops::add_assign(&mut sa, a1);
    let mut sb = vec![0; m + 1];
    sb[..b0.len()].copy_from_slice(b0);
    ops::add_assign(&mut sb, b1);
    let la = ops::normalized_len(&sa);
    let lb = ops::normalized_len(&sb);
    let mut z1 = vec![0; la + lb];
    mul_dispatch(&mut z1, &sa[..la], &sb[..lb]);
    let borrow = ops::sub_assign(&mut z1, &z0);
    debug_assert_eq!(borrow, 0);
    let borrow = ops::sub_assign(&mut z1, &z2);
    debug_assert_eq!(borrow, 0);
    // The middle term a0*b1 + a1*b0 always fits in out[m..]; its *slice* may
    // be one limb longer than that, so drop the (provably zero) high limbs.
    z1.truncate(ops::normalized_len(&z1));

    // out = z0 + z1 << (32*m) + z2 << (64*m)
    out[..z0.len()].copy_from_slice(&z0);
    let carry = ops::add_assign(&mut out[m..], &z1);
    debug_assert_eq!(carry, 0);
    let z2n = ops::normalized_len(&z2);
    if z2n > 0 {
        let carry = ops::add_assign(&mut out[2 * m..], &z2[..z2n]);
        debug_assert_eq!(carry, 0);
    }
}

/// Full product of two limb slices, allocating the result.
pub fn mul_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return Vec::new();
    }
    let mut out = vec![0; la + lb];
    mul_dispatch(&mut out, &a[..la], &b[..lb]);
    out.truncate(ops::normalized_len(&out));
    out
}

impl Nat {
    /// `self * other`.
    pub fn mul(&self, other: &Nat) -> Nat {
        let mut out = Nat::default();
        self.mul_into(other, &mut out);
        out
    }

    /// `self * other` into a caller-owned `Nat`, reusing its allocation.
    pub fn mul_into(&self, other: &Nat, out: &mut Nat) {
        let la = self.len();
        let lb = other.len();
        let buf = out.limbs_mut();
        buf.clear();
        if la == 0 || lb == 0 {
            return;
        }
        buf.resize(la + lb, 0);
        mul_dispatch(buf, self.limbs(), other.limbs());
        let n = ops::normalized_len(buf);
        buf.truncate(n);
    }

    /// `self * m` for a single limb `m`.
    pub fn mul_u32(&self, m: Limb) -> Nat {
        if m == 0 || self.is_zero() {
            return Nat::zero();
        }
        let mut out = vec![0; self.len() + 1];
        let carry = mul_limb(&mut out[..self.len()], self.limbs(), m);
        out[self.len()] = carry;
        Nat::from_limbs(&out)
    }

    /// `self * self` (delegates to the dedicated squaring path).
    pub fn square(&self) -> Nat {
        crate::square::square_nat(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schoolbook_matches_u128() {
        let a = 0xffff_ffff_ffffu128;
        let b = 0x1234_5678_9abcu128;
        let prod = Nat::from_u128(a).mul(&Nat::from_u128(b));
        assert_eq!(prod.to_u128(), Some(a * b));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = Nat::from_u128(0xdead_beef_cafe);
        assert!(a.mul(&Nat::zero()).is_zero());
        assert_eq!(a.mul(&Nat::one()), a);
        assert_eq!(a.mul_u32(0), Nat::zero());
        assert_eq!(a.mul_u32(1), a);
    }

    #[test]
    fn mul_u32_matches_mul() {
        let a = Nat::from_u128(u128::MAX / 7);
        assert_eq!(a.mul_u32(12345), a.mul(&Nat::from(12345u32)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands long enough to take the Karatsuba path.
        let n = thresholds::KARATSUBA.default_value() * 3 + 5;
        let a: Vec<Limb> = (0..n)
            .map(|i| (i as u32).wrapping_mul(0x9e37_79b9) | 1)
            .collect();
        let b: Vec<Limb> = (0..n - 7)
            .map(|i| (i as u32).wrapping_mul(0x85eb_ca6b) ^ 0xdead)
            .collect();
        let mut expect = vec![0; a.len() + b.len()];
        mul_schoolbook(&mut expect, &a, &b);
        expect.truncate(ops::normalized_len(&expect));
        assert_eq!(mul_slices(&a, &b), expect);
    }

    #[test]
    fn karatsuba_unbalanced() {
        let k = thresholds::KARATSUBA.default_value();
        let a: Vec<Limb> = (0..k * 8).map(|i| i as u32 | 1).collect();
        let b: Vec<Limb> = (0..k).map(|i| !(i as u32)).collect();
        let mut expect = vec![0; a.len() + b.len()];
        mul_schoolbook(&mut expect, &a, &b);
        expect.truncate(ops::normalized_len(&expect));
        assert_eq!(mul_slices(&a, &b), expect);
    }

    #[test]
    fn dispatch_covers_karatsuba_and_ntt_widths() {
        // One deterministic product just past each cutoff, checked against
        // schoolbook.
        let mut state = 0x00dd_ba11_5eed_f00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [
            thresholds::KARATSUBA.default_value() + 5,
            thresholds::NTT.default_value() + 9,
        ] {
            let a: Vec<Limb> = (0..n).map(|_| crate::limb::lo(next())).collect();
            let b: Vec<Limb> = (0..n - 3).map(|_| crate::limb::lo(next())).collect();
            let mut expect = vec![0; a.len() + b.len()];
            mul_schoolbook(&mut expect, &a, &b);
            expect.truncate(ops::normalized_len(&expect));
            assert_eq!(mul_slices(&a, &b), expect, "n={n}");
        }
    }

    #[test]
    fn mul_into_reuses_and_matches() {
        let a = Nat::from_u128(u128::MAX - 12345);
        let b = Nat::from_u128(0xfeed_f00d_dead_beef);
        let mut out = Nat::default();
        a.mul_into(&b, &mut out);
        assert_eq!(out, a.mul(&b));
        // Overwrite with a smaller product; buffer shrinks logically.
        a.mul_into(&Nat::one(), &mut out);
        assert_eq!(out, a);
        a.mul_into(&Nat::zero(), &mut out);
        assert!(out.is_zero());
    }

    #[test]
    fn square_is_mul_self() {
        let a = Nat::from_u128(0x0123_4567_89ab_cdef);
        assert_eq!(a.square(), a.mul(&a));
    }
}
