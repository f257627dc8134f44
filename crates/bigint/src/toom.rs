//! Toom-Cook-3 multiplication: split each operand into three parts,
//! evaluate at the points {0, 1, −1, 2, ∞}, multiply pointwise (recursing
//! through `mul_dispatch`, so sub-products ride the same ladder), and
//! interpolate the five product coefficients with exact small divisions
//! (by 2 and 3 — the Bodrato/Zanoni sequence).
//!
//! Asymptotically O(n^log3(5)) ≈ O(n^1.465) versus Karatsuba's
//! O(n^1.585). The NTT undercuts it at every width it can take, so
//! `mul_dispatch` only routes products past the NTT's size cap here (see
//! [`crate::thresholds::TOOM3`]).
//! Correct for any operand shapes (including empty parts when the shorter
//! operand does not reach the third split), but `mul_dispatch` only routes
//! near-balanced operands here — unbalanced products are chopped into
//! balanced chunks first.

use crate::div::div_rem_limb;
use crate::limb::Limb;
use crate::mul;
use crate::ops;

/// A signed multi-precision value for the interpolation intermediates
/// (evaluations at −1 can dip below zero). Magnitude is normalized; zero
/// is `neg = false` with an empty magnitude.
#[derive(Clone, Debug)]
struct S {
    neg: bool,
    mag: Vec<Limb>,
}

impl S {
    fn from_slice(x: &[Limb]) -> S {
        let n = ops::normalized_len(x);
        S {
            neg: false,
            mag: x[..n].to_vec(),
        }
    }

    fn zero() -> S {
        S {
            neg: false,
            mag: Vec::new(),
        }
    }

    fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// Magnitude sum/difference with sign bookkeeping: `self + sign·other`.
    fn combine(&self, other: &S, negate_other: bool) -> S {
        let oneg = other.neg ^ negate_other;
        if self.neg == oneg {
            // Same sign: add magnitudes.
            let (big, small) = if self.mag.len() >= other.mag.len() {
                (&self.mag, &other.mag)
            } else {
                (&other.mag, &self.mag)
            };
            let mut mag = big.clone();
            mag.push(0);
            ops::add_assign(&mut mag, small);
            mag.truncate(ops::normalized_len(&mag));
            let neg = self.neg && !mag.is_empty();
            S { neg, mag }
        } else {
            // Opposite signs: subtract the smaller magnitude from the larger.
            match ops::cmp(&self.mag, &other.mag) {
                core::cmp::Ordering::Equal => S::zero(),
                core::cmp::Ordering::Greater => {
                    let mut mag = self.mag.clone();
                    let borrow = ops::sub_assign(&mut mag, &other.mag);
                    debug_assert_eq!(borrow, 0);
                    mag.truncate(ops::normalized_len(&mag));
                    S {
                        neg: self.neg && !mag.is_empty(),
                        mag,
                    }
                }
                core::cmp::Ordering::Less => {
                    let mut mag = other.mag.clone();
                    let borrow = ops::sub_assign(&mut mag, &self.mag);
                    debug_assert_eq!(borrow, 0);
                    mag.truncate(ops::normalized_len(&mag));
                    S {
                        neg: oneg && !mag.is_empty(),
                        mag,
                    }
                }
            }
        }
    }

    fn add(&self, other: &S) -> S {
        self.combine(other, false)
    }

    fn sub(&self, other: &S) -> S {
        self.combine(other, true)
    }

    /// Exact division by 2 (the low bit must be clear).
    fn half(mut self) -> S {
        debug_assert!(self.mag.first().is_none_or(|&w| w & 1 == 0));
        let n = ops::shr_in_place(&mut self.mag, 1);
        self.mag.truncate(n);
        self.neg &= !self.mag.is_empty();
        self
    }

    /// `self << bits` (magnitude shift).
    fn shl(mut self, bits: u64) -> S {
        if self.is_zero() {
            return self;
        }
        let extra = (bits / 32) as usize + 1;
        self.mag.resize(self.mag.len() + extra, 0);
        let n = ops::shl_in_place(&mut self.mag, bits);
        self.mag.truncate(n);
        self
    }

    /// Exact division by 3 (the remainder must be zero).
    fn div3(mut self) -> S {
        let (q, r) = div_rem_limb(&self.mag, 3);
        debug_assert_eq!(r, 0, "Toom-3 interpolation divides exactly by 3");
        self.mag = q;
        self.neg &= !self.mag.is_empty();
        self
    }

    /// Signed product via the dispatch ladder.
    fn mul(&self, other: &S) -> S {
        if self.is_zero() || other.is_zero() {
            return S::zero();
        }
        S {
            neg: self.neg ^ other.neg,
            mag: mul::mul_slices(&self.mag, &other.mag),
        }
    }
}

/// The `i`-th of three `k`-limb parts of `x` (little-endian; parts beyond
/// the operand are empty).
fn part(x: &[Limb], i: usize, k: usize) -> &[Limb] {
    let lo = (i * k).min(x.len());
    let hi = ((i + 1) * k).min(x.len());
    &x[lo..hi]
}

/// Evaluations of `x = x0 + x1·B + x2·B²` at {0, 1, −1, 2, ∞} where
/// `B = 2^(32k)`. Returned in that order.
fn evaluate(x: &[Limb], k: usize) -> [S; 5] {
    let x0 = S::from_slice(part(x, 0, k));
    let x1 = S::from_slice(part(x, 1, k));
    let x2 = S::from_slice(part(x, 2, k));
    let p1 = x0.add(&x1).add(&x2);
    let pm1 = x0.add(&x2).sub(&x1);
    // x0 + 2·x1 + 4·x2 = x0 + 2·(x1 + 2·x2), all non-negative.
    let p2 = x0.add(&x1.add(&x2.clone().shl(1)).shl(1));
    [x0, p1, pm1, p2, x2]
}

/// Toom-Cook-3 product into `out` (zeroed, `out.len() >= la + lb` for the
/// normalized lengths). Exposed for the direct cross-check tests; normal
/// callers go through `mul_dispatch`.
pub fn mul_toom3_into(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return;
    }
    let (a, b) = (&a[..la], &b[..lb]);
    debug_assert!(out.len() >= la + lb);
    let k = la.max(lb).div_ceil(3);

    let ea = evaluate(a, k);
    let eb = evaluate(b, k);
    // Pointwise products at the five evaluation points.
    let v0 = ea[0].mul(&eb[0]);
    let v1 = ea[1].mul(&eb[1]);
    let vm1 = ea[2].mul(&eb[2]);
    let v2 = ea[3].mul(&eb[3]);
    let vinf = ea[4].mul(&eb[4]);

    // Interpolate c0..c4 of the degree-4 product polynomial:
    //   s1 = (v1 + v_{-1})/2 = c0 + c2 + c4
    //   s2 = (v1 − v_{-1})/2 = c1 + c3
    //   u  = (v2 − c0 − 16·c4)/2 − 2·c2 = c1 + 4·c3
    //   c3 = (u − s2)/3,  c1 = s2 − c3,  c2 = s1 − c0 − c4
    let s1 = v1.add(&vm1).half();
    let s2 = v1.sub(&vm1).half();
    let c0 = v0;
    let c4 = vinf;
    let c2 = s1.sub(&c0).sub(&c4);
    let u = v2
        .sub(&c0)
        .sub(&c4.clone().shl(4))
        .half()
        .sub(&c2.clone().shl(1));
    let c3 = u.sub(&s2).div3();
    let c1 = s2.sub(&c3);

    // Recompose: out = Σ c_i · B^i. Every final coefficient is a
    // non-negative part-product sum; the signed dips were interpolation
    // intermediates only.
    for (i, c) in [c0, c1, c2, c3, c4].iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        debug_assert!(!c.neg, "product coefficients are non-negative");
        let carry = ops::add_assign(&mut out[i * k..], &c.mag);
        debug_assert_eq!(carry, 0, "coefficient c{i} overflows the product");
    }
}

/// Allocating wrapper around [`mul_toom3_into`], normalized result.
pub fn mul_toom3(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return Vec::new();
    }
    let mut out = vec![0; la + lb];
    mul_toom3_into(&mut out, &a[..la], &b[..lb]);
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

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn small_products_match_schoolbook() {
        let cases: [(&[Limb], &[Limb]); 7] = [
            (&[1], &[1]),
            (&[0xffff_ffff], &[0xffff_ffff]),
            (&[1, 2, 3], &[4, 5, 6]),
            (&[0xffff_ffff; 6], &[0xffff_ffff; 6]),
            (&[0, 0, 0, 0, 0, 1], &[7, 0, 0, 1]),
            (&[5], &[1, 2, 3, 4, 5, 6, 7]),
            (&[1, 0, 0, 0, 0, 0, 2], &[3, 4]),
        ];
        for (a, b) in cases {
            assert_eq!(mul_toom3(a, b), schoolbook(a, b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn pseudorandom_products_match_schoolbook() {
        let mut state = 0xfeed_face_cafe_f00du64;
        for (la, lb) in [(9, 9), (10, 7), (33, 32), (100, 51), (97, 96), (64, 128)] {
            let a: Vec<Limb> = (0..la)
                .map(|_| crate::limb::lo(xorshift(&mut state)))
                .collect();
            let b: Vec<Limb> = (0..lb)
                .map(|_| crate::limb::lo(xorshift(&mut state)))
                .collect();
            assert_eq!(mul_toom3(&a, &b), schoolbook(&a, &b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn all_max_limbs_carry_storm() {
        let a = vec![u32::MAX; 48];
        let b = vec![u32::MAX; 47];
        assert_eq!(mul_toom3(&a, &b), schoolbook(&a, &b));
    }

    #[test]
    fn zero_and_tails() {
        assert!(mul_toom3(&[], &[1]).is_empty());
        assert!(mul_toom3(&[0, 0], &[1, 2, 3]).is_empty());
        let a = [9u32, 8, 7, 0, 0];
        let b = [1u32, 2, 3, 4, 5, 6, 0, 0, 0];
        assert_eq!(mul_toom3(&a, &b), schoolbook(&a[..3], &b[..6]));
    }
}
