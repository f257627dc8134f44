//! Newton–Raphson reciprocal division for large divisors.
//!
//! The classical Knuth Algorithm D costs O((la−lb)·lb) limb operations —
//! quadratic at the remainder tree's million-bit nodes. This module
//! computes a scaled reciprocal `I = ⌊β^{2n}/v⌋` (β = 2³², `n = lb`) by
//! precision-doubling Newton iteration and divides block by block, so
//! division rides the same subquadratic multiply ladder as everything
//! else.
//!
//! Four structural choices keep the constant factor low enough to beat
//! Knuth near the crossover:
//!
//! * **Implicit leading limb.** `I ∈ [β^n, 2β^n]`, so we store only
//!   `x = I − β^n` (exactly `n` limbs). Every product involving the
//!   reciprocal splits as `F·w = w·β^n + x·w`, keeping the multiply at
//!   `n×n` — an `(n+1)`-limb operand would push the NTT to the next
//!   power-of-two transform and double its cost.
//! * **Approximate recursion, one exact fixup.** Inner levels run the
//!   plain Newton step with the halves overlapping by one limb
//!   (`h = n/2 + 1`), which bounds the error to a few units at *every*
//!   level without any per-level exactness pass (the squared error of
//!   the half-size reciprocal is scaled by `β^{n−2h} ≤ β^{−2}`). A
//!   single residue computation at the top turns the approximation into
//!   the exact floor.
//! * **Limb peeling.** Where an operand unavoidably carries one or two
//!   limbs past a power-of-two width, those limbs are applied as O(n)
//!   scalar rows and only the power-of-two core goes through the
//!   dispatched multiply.
//! * **Wrapped residues.** Three products are needed only through a
//!   residue known to be a few units of `v` wide: `est·v` in each quotient
//!   block (the new remainder), `x·v` in the exact fixup and `xh·v` in each
//!   Newton step (the error terms). Each subtracts its product from a
//!   known value, so where the NTT runs it and that halves the transform,
//!   the product is taken modulo `β^N − 1` with `N = next_pow2(n + 3)`
//!   instead of in full. The residue is exact because it is known to lie
//!   in `(−β^{n+2}, β^{n+2})`, and `β^{n+2} ≤ β^{N−1}` is far inside half
//!   the wrap, so the top bit of the wrapped difference is its sign
//!   (`small_residue`).
//!
//! Per quotient digit the estimate `q̂ = R_h + ⌊R_h·x/β^n⌋` (using only
//! the top `n` limbs of the partial remainder) **never overshoots** the
//! true digit and undershoots by a small constant, so the correction
//! loop is O(1) subtractions. A counter-guarded fallback to Knuth keeps
//! even a broken bound from affecting correctness, and
//! [`knuth_fallbacks`] counts every time it is taken, so that a broken
//! bound shows in tests instead of only slowing division down.

use crate::div::{div_rem_knuth, div_rem_limb};
use crate::limb::{lo, Limb, LIMB_BITS};
use crate::mul::mul_slices;
use crate::{ntt, ops, thresholds};
use core::cmp::Ordering;
use std::cell::Cell;

/// Below this divisor width the reciprocal comes straight from Knuth
/// division of `β^{2n}` — the Newton recursion's base case.
const INV_BASE_LIMBS: usize = 16;

/// Upper bound on exact-correction iterations before falling back to
/// Knuth (analysis says ≤ ~8 at the reciprocal, ≤ ~5 per digit).
const MAX_CORRECTIONS: usize = 256;

thread_local! {
    /// How many times Newton division on this thread has fallen back to
    /// Knuth ([`knuth_fallbacks`]).
    static KNUTH_FALLBACKS: Cell<u64> = const { Cell::new(0) };
}

/// How many times Newton division on this thread has given up on a bound
/// and fallen back to Knuth: `invert` when its correction walk passes
/// [`MAX_CORRECTIONS`] or reaches `x = 0`, and [`div_rem_newton`] on a
/// quotient estimate that overshot or a block whose correction walk
/// passes [`MAX_CORRECTIONS`]. The answers stay exact either way; the
/// count is 0 while every bound of the module docs holds.
#[doc(hidden)]
pub fn knuth_fallbacks() -> u64 {
    KNUTH_FALLBACKS.get()
}

/// Count one fallback to Knuth.
fn fell_back() {
    KNUTH_FALLBACKS.set(KNUTH_FALLBACKS.get() + 1);
}

/// `v += 1` with carry, growing by one limb if needed.
fn inc(v: &mut Vec<Limb>) {
    for w in v.iter_mut() {
        let (s, overflow) = w.overflowing_add(1);
        *w = s;
        if !overflow {
            return;
        }
    }
    v.push(1);
}

/// `v -= 1`; `v` must be non-zero.
fn dec(v: &mut [Limb]) {
    for w in v.iter_mut() {
        let (d, underflow) = w.overflowing_sub(1);
        *w = d;
        if !underflow {
            return;
        }
    }
    debug_assert!(false, "dec underflow");
}

/// `x += 1` within its fixed width; saturates to all-ones and returns
/// `true` on overflow (the `v = β^n/2` edge where `I = 2β^n` does not
/// fit `n` limbs — understating by one keeps the no-overshoot invariant).
fn inc_clamped(x: &mut [Limb]) -> bool {
    for w in x.iter_mut() {
        let (s, overflow) = w.overflowing_add(1);
        *w = s;
        if !overflow {
            return false;
        }
    }
    for w in x.iter_mut() {
        *w = Limb::MAX;
    }
    true
}

/// `acc += a·l` as one schoolbook row. `acc` must be long enough to
/// absorb the product and its carry.
fn addmul_limb(acc: &mut [Limb], a: &[Limb], l: Limb) {
    let mut carry: u64 = 0;
    let (low, high) = acc.split_at_mut(a.len());
    for (ai, &w) in low.iter_mut().zip(a.iter()) {
        let t = (w as u64) * (l as u64) + (*ai as u64) + carry;
        *ai = lo(t);
        carry = t >> LIMB_BITS;
    }
    for ai in high.iter_mut() {
        if carry == 0 {
            return;
        }
        let t = (*ai as u64) + carry;
        *ai = lo(t);
        carry = t >> LIMB_BITS;
    }
    debug_assert_eq!(carry, 0, "addmul_limb carry past buffer");
}

/// Full product `a·b` where only the `k×k` low cores go through the
/// dispatched multiply; the few limbs past `k` in either operand are
/// applied as scalar rows. Keeps the big multiply at a power-of-two
/// shape when `a`/`b` barely exceed it. Returns a normalized vector.
fn mul_peel(a: &[Limb], b: &[Limb], k: usize) -> Vec<Limb> {
    let ka = k.min(a.len());
    let kb = k.min(b.len());
    let mut out: Vec<Limb> = vec![0; a.len() + b.len() + 1];
    let core = mul_slices(&a[..ka], &b[..kb]);
    out[..core.len()].copy_from_slice(&core);
    for (i, &l) in a[ka..].iter().enumerate() {
        if l != 0 {
            addmul_limb(&mut out[ka + i..], b, l);
        }
    }
    for (j, &l) in b[kb..].iter().enumerate() {
        if l != 0 {
            addmul_limb(&mut out[kb + j..], &a[..ka], l);
        }
    }
    out.truncate(ops::normalized_len(&out));
    out
}

/// `(sign, |a − b|)` with `sign = true` when `a < b`. Consumes `a`.
fn signed_diff(mut a: Vec<Limb>, b: &[Limb]) -> (bool, Vec<Limb>) {
    match ops::cmp(&a, b) {
        Ordering::Less => {
            let la = ops::normalized_len(&a);
            let mut d = b.to_vec();
            let borrow = ops::sub_assign(&mut d, &a[..la]);
            debug_assert_eq!(borrow, 0);
            d.truncate(ops::normalized_len(&d));
            (true, d)
        }
        _ => {
            let lb = ops::normalized_len(b);
            let borrow = ops::sub_assign(&mut a, &b[..lb]);
            debug_assert_eq!(borrow, 0);
            a.truncate(ops::normalized_len(&a));
            (false, a)
        }
    }
}

/// `t − a·b` as `(t < a·b, |t − a·b|)`, normalized, for a residue known
/// to be small next to the divisor width `n`: `|t − a·b| < β^{n+2}`.
///
/// Where the dispatcher would multiply `a·b` on the NTT and
/// `N = next_pow2(n + 3)` is below that product's transform size, the
/// product runs wrapped, `a·b mod (β^N − 1)` on an `N`-point transform,
/// half the full one or less. That is exact: `t mod (β^N − 1)` minus the
/// wrapped product is congruent to `t − a·b`, and the bound puts
/// `t − a·b` inside `(−β^{N−1}, β^{N−1})`. Its representative in
/// `[0, β^N − 1]` therefore has the top bit clear when it is non-negative
/// and set when it is negative, and then it is `β^N − 1 − |t − a·b|`, the
/// limbwise complement of the magnitude.
fn small_residue(t: Vec<Limb>, a: &[Limb], b: &[Limb], n: usize) -> (bool, Vec<Limb>) {
    let (la, lb) = (ops::normalized_len(a), ops::normalized_len(b));
    let wrap = (n + 3).next_power_of_two();
    let full = (la + lb).next_power_of_two();
    if la.min(lb) < thresholds::NTT.get()
        || wrap >= full
        || full > ntt::MAX_NTT_TOTAL_LIMBS
        || la.max(lb) > wrap
    {
        return signed_diff(t, &mul_slices(a, b));
    }
    let mut r = vec![0; wrap];
    ntt::mul_wrap_into(&mut r, a, b);
    // r = (t mod (β^N − 1)) − r, folding t's chunks with end-around carry.
    let mut t_mod: Vec<Limb> = vec![0; wrap];
    for chunk in t.chunks(wrap) {
        let mut carry = ops::add_assign(&mut t_mod, chunk);
        while carry != 0 {
            carry = ops::add_assign(&mut t_mod, &[carry]);
        }
    }
    if ops::sub_assign(&mut t_mod, &r) != 0 {
        // Wrapped below zero by β^N; the modulus is β^N − 1.
        let borrow = ops::sub_assign(&mut t_mod, &[1]);
        debug_assert_eq!(borrow, 0);
    }
    let negative = t_mod[wrap - 1] >> (LIMB_BITS - 1) == 1;
    if negative {
        t_mod.iter_mut().for_each(|w| *w = !*w);
    }
    t_mod.truncate(ops::normalized_len(&t_mod));
    // All ones is the other representative of zero.
    (negative && !t_mod.is_empty(), t_mod)
}

/// Exact base case: `x = ⌊β^{2n}/v⌋ − β^n` by Knuth division, clamped to
/// all-ones when the true reciprocal is exactly `2β^n`.
fn invert_knuth(v: &[Limb]) -> Vec<Limb> {
    let n = v.len();
    let i = div_rem_knuth(&beta2n_of(n), v).0;
    debug_assert_eq!(i.len(), n + 1);
    if i.len() > n && i[n] >= 2 {
        return vec![Limb::MAX; n];
    }
    let mut x = i;
    x.truncate(n);
    x
}

/// Approximate reciprocal: `n` limbs `x` with `β^n + x` within a few
/// units (either side) of `⌊β^{2n}/v⌋`. `v` must be normalized (top bit
/// of `v[n−1]` set).
fn approx_recip(v: &[Limb]) -> Vec<Limb> {
    let n = v.len();
    debug_assert!(n >= 1 && v[n - 1] >> (LIMB_BITS - 1) == 1);
    if n <= INV_BASE_LIMBS {
        return invert_knuth(v);
    }

    // Recurse on the top h limbs with a one-limb overlap past the
    // midpoint: the half-size error δ contributes δ²·β^{n−2h} ≤ δ²/β²
    // after the Newton step, so the error stays O(1) at every level.
    let h = n / 2 + 1;
    let xh = approx_recip(&v[n - h..]);

    // e = β^{n+h} − (β^h + xh)·v, signed; |e| ≲ 6β^n.
    let mut acc: Vec<Limb> = vec![0; n + h + 1];
    acc[n + h] = 1;
    let borrow = ops::sub_assign(&mut acc[h..], v);
    debug_assert_eq!(borrow, 0);
    let (e_neg, e) = small_residue(acc, &xh, v, n);

    // x = xh·β^{n−h} ± ⌊e_k·(β^h + xh)/β^{3h−n}⌋ with e_k = ⌊|e|/β^{n−h}⌋;
    // dropping e's low limbs perturbs the correction by < β^{n−2h} ≤ β^{−2}.
    let mut x: Vec<Limb> = vec![0; n - h];
    x.extend_from_slice(&xh);
    if e.len() > n - h {
        let ek = &e[n - h..];
        let p = mul_peel(ek, &xh, n / 2);
        let mut corr: Vec<Limb> = vec![0; (h + ek.len()).max(p.len()) + 1];
        corr[h..h + ek.len()].copy_from_slice(ek);
        let carry = ops::add_assign(&mut corr, &p);
        debug_assert_eq!(carry, 0);
        let s = (3 * h - n).min(corr.len());
        let d = &corr[s..];
        let ld = ops::normalized_len(d);
        if e_neg {
            if ld > n || ops::cmp(&x, &d[..ld]) == Ordering::Less {
                x.iter_mut().for_each(|w| *w = 0);
            } else {
                let borrow = ops::sub_assign(&mut x, &d[..ld]);
                debug_assert_eq!(borrow, 0);
            }
        } else if ld > n || ops::add_assign(&mut x, &d[..ld]) != 0 {
            x.iter_mut().for_each(|w| *w = Limb::MAX);
        }
    }
    x
}

/// Exact scaled reciprocal of a normalized divisor as `n` limbs `x` with
/// `β^n + x = ⌊β^{2n}/v⌋` (understated by one in the `v = β^n/2` edge
/// case, which preserves the digit estimator's no-overshoot invariant).
fn invert(v: &[Limb]) -> Vec<Limb> {
    let n = v.len();
    debug_assert!(n >= 1 && v[n - 1] >> (LIMB_BITS - 1) == 1);
    if n <= INV_BASE_LIMBS {
        return invert_knuth(v);
    }

    let mut x = approx_recip(v);

    // Exact residue e = β^{2n} − (β^n + x)·v = (β^n − v)·β^n − x·v,
    // then walk x until 0 ≤ e < v. The approximation error is O(1), so
    // |e| is a few v and the loop runs a handful of O(n) steps.
    let mut acc: Vec<Limb> = vec![0; 2 * n + 1];
    acc[2 * n] = 1;
    let borrow = ops::sub_assign(&mut acc[n..], v);
    debug_assert_eq!(borrow, 0);
    let (e_neg, mut e) = small_residue(acc, &x, v, n);

    let mut guard = 0usize;
    if e_neg {
        // Overshoot: each decrement of x adds v back into the residue;
        // stop once the deficit fits inside one divisor.
        loop {
            guard += 1;
            if guard > MAX_CORRECTIONS || x.iter().all(|&w| w == 0) {
                fell_back();
                return invert_knuth(v);
            }
            dec(&mut x);
            if ops::cmp(&e, v) != Ordering::Greater {
                break;
            }
            let borrow = ops::sub_assign(&mut e, v);
            debug_assert_eq!(borrow, 0);
        }
    } else {
        while ops::cmp(&e, v) != Ordering::Less {
            guard += 1;
            if guard > MAX_CORRECTIONS {
                fell_back();
                return invert_knuth(v);
            }
            if inc_clamped(&mut x) {
                break;
            }
            let borrow = ops::sub_assign(&mut e, v);
            debug_assert_eq!(borrow, 0);
        }
    }
    x
}

/// `β^{2n}` as a limb vector (fallback paths).
fn beta2n_of(n: usize) -> Vec<Limb> {
    let mut num = vec![0; 2 * n + 1];
    num[2 * n] = 1;
    num
}

/// Divide `a` by `b` via the scaled reciprocal. Same contract as
/// [`crate::div::div_rem_slices`]: normalized `(quotient, remainder)`,
/// panics (assert) on a zero divisor. Correct for every operand shape;
/// the dispatcher only routes large divisors here because the reciprocal
/// has a fixed O(M(lb)) cost that narrow divisions would not amortize.
pub fn div_rem_newton(a: &[Limb], b: &[Limb]) -> (Vec<Limb>, Vec<Limb>) {
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    assert!(lb != 0, "division by zero");
    if la < lb || ops::cmp(a, b) == Ordering::Less {
        return (Vec::new(), a[..la].to_vec());
    }
    if lb == 1 {
        let (q, r) = div_rem_limb(&a[..la], b[0]);
        return (q, if r == 0 { Vec::new() } else { vec![r] });
    }

    // Normalize exactly like Knuth D1 so the reciprocal precondition holds.
    let shift = b[lb - 1].leading_zeros();
    let mut u = a[..la].to_vec();
    u.push(0);
    if shift > 0 {
        ops::shl_in_place(&mut u, shift as u64);
    }
    let mut v = b[..lb].to_vec();
    if shift > 0 {
        v.push(0);
        let nv = ops::shl_in_place(&mut v, shift as u64);
        v.truncate(nv);
    }
    let n = v.len();
    debug_assert_eq!(n, lb);
    let lu = ops::normalized_len(&u);
    u.truncate(lu);

    let x = invert(&v);

    // Long division with n-limb "digits", most significant chunk first.
    // Invariant: r < v before each chunk, so R = r·β^t + chunk < v·β^n and
    // every digit fits n limbs.
    let mut q: Vec<Limb> = vec![0; lu];
    let mut r: Vec<Limb> = Vec::new();
    let mut j = lu;
    while j > 0 {
        let t = if j.is_multiple_of(n) { n } else { j % n };
        j -= t;
        let mut rn: Vec<Limb> = Vec::with_capacity(t + r.len());
        rn.extend_from_slice(&u[j..j + t]);
        rn.extend_from_slice(&r);
        rn.truncate(ops::normalized_len(&rn));
        if ops::cmp(&rn, &v) == Ordering::Less {
            r = rn;
            continue;
        }

        let mut rem = rn;
        let mut qd: Vec<Limb>;
        if rem.len() <= n {
            // R < β^n ≤ 2v, so the digit is exactly 1: let the
            // correction loop below perform the single subtraction.
            qd = Vec::new();
        } else {
            // q̂ = R_h + ⌊R_h·x/β^n⌋ with R_h = ⌊R/β^n⌋ (= the carried
            // remainder). q̂ ≤ true digit ≤ q̂ + O(1): each dropped term
            // (R's low half against x, the floors, I's understatement)
            // is non-negative and worth under a few units.
            let s = mul_slices(&rem[n..], &x);
            let mut est = rem[n..].to_vec();
            est.resize(n + 1, 0);
            if s.len() > n {
                let carry = ops::add_assign(&mut est, &s[n..]);
                debug_assert_eq!(carry, 0);
            }
            est.truncate(ops::normalized_len(&est));
            // q̂ never overshoots and undershoots by a few units, so the
            // new remainder is in [0, a few v).
            let (overshot, r) = small_residue(rem, &est, &v, n);
            if overshot {
                // Defensive: the estimate bound failed.
                fell_back();
                return div_rem_knuth(a, b);
            }
            rem = r;
            qd = est;
        }
        let mut guard = 0usize;
        while ops::cmp(&rem, &v) != Ordering::Less {
            inc(&mut qd);
            let borrow = ops::sub_assign(&mut rem, &v);
            debug_assert_eq!(borrow, 0);
            guard += 1;
            if guard > MAX_CORRECTIONS {
                // Defensive: exact but quadratic.
                fell_back();
                return div_rem_knuth(a, b);
            }
        }
        qd.truncate(ops::normalized_len(&qd));
        if !qd.is_empty() {
            let carry = ops::add_assign(&mut q[j..], &qd);
            debug_assert_eq!(carry, 0, "digit exceeds its quotient slot");
        }
        rem.truncate(ops::normalized_len(&rem));
        r = rem;
    }

    if shift > 0 {
        let nr = ops::shr_in_place(&mut r, shift as u64);
        r.truncate(nr);
    }
    q.truncate(ops::normalized_len(&q));
    r.truncate(ops::normalized_len(&r));
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn rand_vec(state: &mut u64, len: usize) -> Vec<Limb> {
        (0..len).map(|_| crate::limb::lo(xorshift(state))).collect()
    }

    /// `β^n + x` reconstructed as an `n+1`-limb vector.
    fn materialize(x: &[Limb], n: usize) -> Vec<Limb> {
        let mut i = x.to_vec();
        i.resize(n, 0);
        i.push(1);
        i
    }

    #[test]
    fn invert_is_exact_floor_small_and_recursive() {
        let mut state = 0x0bad_cafe_dead_beefu64;
        for n in [1usize, 2, 3, 8, 16, 17, 24, 40, 70, 100, 130, 200, 257] {
            let mut v = rand_vec(&mut state, n);
            v[n - 1] |= 0x8000_0000; // normalized
            let x = invert(&v);
            assert_eq!(x.len(), n, "n={n}");
            let (q, _r) = div_rem_knuth(&beta2n_of(n), &v);
            assert_eq!(materialize(&x, n), q, "n={n}");
        }
    }

    #[test]
    fn small_residue_is_exact_where_the_wrap_size_flips() {
        // t = a·b + δ and a·b − δ for |δ| just under β^{n+1}, 1 and 0, at
        // divisor widths where next_pow2(n + 3) doubles; wide enough for
        // the NTT, so the product runs wrapped wherever that halves it.
        let mut state = 0x7e57_5ca1_ab1e_0001u64;
        for n in [253usize, 254, 255, 256, 257, 509, 510, 512, 513] {
            let (a, b) = (rand_vec(&mut state, n), rand_vec(&mut state, n));
            let ab = mul_slices(&a, &b);
            let mut wide = rand_vec(&mut state, n + 1);
            wide[n] >>= 1;
            for delta in [wide, vec![1], Vec::new()] {
                let delta = &delta[..ops::normalized_len(&delta)];
                let mut above = ab.clone();
                above.push(0);
                ops::add_assign(&mut above, delta);
                assert_eq!(
                    small_residue(above, &a, &b, n),
                    (false, delta.to_vec()),
                    "n={n} +δ"
                );
                let mut below = ab.clone();
                ops::sub_assign(&mut below, delta);
                assert_eq!(
                    small_residue(below, &a, &b, n),
                    (!delta.is_empty(), delta.to_vec()),
                    "n={n} −δ"
                );
            }
        }
    }

    #[test]
    fn invert_power_of_two_divisor_clamps() {
        // v = β^n/2 ⇒ I = 2β^n does not fit; invert must understate by 1.
        for n in [4usize, 20, 40] {
            let mut v: Vec<Limb> = vec![0; n];
            v[n - 1] = 0x8000_0000;
            let x = invert(&v);
            assert_eq!(x, vec![Limb::MAX; n], "n={n}");
        }
    }

    #[test]
    fn approx_recip_error_is_small() {
        let mut state = 0x5eed_5eed_5eed_5eedu64;
        for n in [17usize, 33, 64, 100, 150, 256, 300] {
            let mut v = rand_vec(&mut state, n);
            v[n - 1] |= 0x8000_0000;
            let x = approx_recip(&v);
            assert_eq!(x.len(), n, "n={n}");
            let (exact, _) = div_rem_knuth(&beta2n_of(n), &v);
            let (_, diff) = signed_diff(materialize(&x, n), &exact);
            assert!(
                ops::normalized_len(&diff) <= 1 && diff.first().map_or(0, |&w| w) <= 8,
                "n={n} diff={diff:?}"
            );
        }
    }

    #[test]
    fn matches_knuth_pseudorandom() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for (la, lb) in [
            (4, 2),
            (8, 3),
            (20, 10),
            (33, 17),
            (40, 40),
            (64, 20),
            (80, 33),
            (100, 48),
        ] {
            let a = rand_vec(&mut state, la);
            let mut b = rand_vec(&mut state, lb);
            if ops::normalized_len(&b) == 0 {
                b = vec![1];
            }
            let (qn, rn) = div_rem_newton(&a, &b);
            let (qk, rk) = div_rem_knuth(&a, &b);
            assert_eq!(qn, qk, "quotient la={la} lb={lb}");
            assert_eq!(rn, rk, "remainder la={la} lb={lb}");
        }
    }

    #[test]
    fn exact_and_edge_divisions() {
        // a == b, a < b, exact multiples, power-of-two divisors.
        let b: Vec<Limb> = (1..40u32).collect();
        let (q, r) = div_rem_newton(&b, &b);
        assert_eq!(q, vec![1]);
        assert!(r.is_empty());

        let small = [5u32, 6];
        let (q, r) = div_rem_newton(&small, &b);
        assert!(q.is_empty());
        assert_eq!(r, small.to_vec());

        let m = mul_slices(&b, &[0xdead_beef, 0x1234]);
        let (q, r) = div_rem_newton(&m, &b);
        assert_eq!(q, vec![0xdead_beef, 0x1234]);
        assert!(r.is_empty());

        let mut pow2 = vec![0u32; 37];
        pow2.push(0x8000_0000);
        let a = rand_vec(&mut 0x42u64.wrapping_mul(0x9e37_79b9), 80);
        let (qn, rn) = div_rem_newton(&a, &pow2);
        let (qk, rk) = div_rem_knuth(&a, &pow2);
        assert_eq!((qn, rn), (qk, rk));
    }

    #[test]
    fn worst_case_limbs() {
        // All-max dividends stress the correction loop.
        let a = vec![u32::MAX; 90];
        let b = vec![u32::MAX; 30];
        let (qn, rn) = div_rem_newton(&a, &b);
        let (qk, rk) = div_rem_knuth(&a, &b);
        assert_eq!((qn, rn), (qk, rk));
    }
}
