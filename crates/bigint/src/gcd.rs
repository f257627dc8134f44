//! GCD of two naturals by binary GCD, at every width.
//!
//! Nothing in the scan reaches a GCD wider than a modulus: the batch tree
//! computes its only GCDs at the leaves (`gcd_into`), and `Nat::gcd` serves
//! attribution and the key service's check, one call per flagged pair or
//! check. The paper's pairwise GCDs run `bulkgcd_core`'s algorithms instead.

use crate::limb::{Limb, LIMB_BITS};
use crate::nat::Nat;
use crate::ops;
use core::cmp::Ordering;
use core::mem;

/// Binary GCD over two scratch vectors; the result is left in `sa`
/// (normalized). No allocation beyond growing the caller's buffers.
pub fn gcd_binary_in_place(sa: &mut Vec<Limb>, sb: &mut Vec<Limb>) {
    sa.truncate(ops::normalized_len(sa));
    sb.truncate(ops::normalized_len(sb));
    if sa.is_empty() {
        mem::swap(sa, sb);
        return;
    }
    if sb.is_empty() {
        return;
    }
    let ka = ops::trailing_zeros(sa).unwrap_or(0);
    let kb = ops::trailing_zeros(sb).unwrap_or(0);
    let k = ka.min(kb);
    let na = ops::shr_in_place(sa, ka);
    sa.truncate(na);
    let nb = ops::shr_in_place(sb, kb);
    sb.truncate(nb);
    // Both odd from here on; each round strictly shrinks the larger.
    loop {
        match ops::cmp(sa, sb) {
            Ordering::Equal => break,
            Ordering::Less => mem::swap(sa, sb),
            Ordering::Greater => {}
        }
        let borrow = ops::sub_assign(sa, sb);
        debug_assert_eq!(borrow, 0);
        sa.truncate(ops::normalized_len(sa));
        let tz = ops::trailing_zeros(sa).unwrap_or(0);
        let n = ops::shr_in_place(sa, tz);
        sa.truncate(n);
    }
    if k > 0 {
        let extra = (k / LIMB_BITS as u64) as usize + 1;
        sa.resize(sa.len() + extra, 0);
        let n = ops::shl_in_place(sa, k);
        sa.truncate(n);
    }
}

/// GCD into a caller-owned `Nat`, with caller scratch, so the
/// steady-state batch loop performs no allocations.
pub fn gcd_into(x: &Nat, y: &Nat, sa: &mut Vec<Limb>, sb: &mut Vec<Limb>, out: &mut Nat) {
    sa.clear();
    sa.extend_from_slice(x.limbs());
    sb.clear();
    sb.extend_from_slice(y.limbs());
    gcd_binary_in_place(sa, sb);
    out.assign_limbs(sa);
}

impl Nat {
    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Nat) -> Nat {
        let mut sa = self.limbs().to_vec();
        let mut sb = other.limbs().to_vec();
        gcd_binary_in_place(&mut sa, &mut sb);
        Nat::from_limbs(&sa)
    }
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

    fn rand_nat(state: &mut u64, len: usize) -> Nat {
        let limbs: Vec<Limb> = (0..len).map(|_| crate::limb::lo(xorshift(state))).collect();
        Nat::from_limbs(&limbs)
    }

    #[test]
    fn binary_gcd_matches_reference() {
        let mut state = 0x5eed_5eed_5eed_5eedu64;
        for (la, lb) in [(1, 1), (2, 1), (4, 4), (7, 3), (12, 12), (20, 9)] {
            let a = rand_nat(&mut state, la);
            let b = rand_nat(&mut state, lb);
            let mut sa = a.limbs().to_vec();
            let mut sb = b.limbs().to_vec();
            gcd_binary_in_place(&mut sa, &mut sb);
            assert_eq!(Nat::from_limbs(&sa), a.gcd_reference(&b), "la={la} lb={lb}");
        }
    }

    #[test]
    fn binary_gcd_common_power_of_two() {
        // gcd(2^75·x, 2^40·y) keeps the common 2^40.
        let x = rand_nat(&mut 0xabcdu64.wrapping_mul(0x9e37_79b9_7f4a_7c15), 3);
        let a = x.shl(75);
        let b = x.shl(40);
        let mut sa = a.limbs().to_vec();
        let mut sb = b.limbs().to_vec();
        gcd_binary_in_place(&mut sa, &mut sb);
        assert_eq!(Nat::from_limbs(&sa), a.gcd_reference(&b));
    }

    #[test]
    fn gcd_zero_and_identity_cases() {
        let a = rand_nat(&mut 0x77u64.wrapping_mul(0x2545_f491_4f6c_dd1d), 6);
        assert_eq!(a.gcd(&Nat::default()), a);
        assert_eq!(Nat::default().gcd(&a), a);
        assert_eq!(a.gcd(&a), a);
        assert!(Nat::default().gcd(&Nat::default()).is_zero());
    }

    #[test]
    fn gcd_into_reuses_buffers() {
        let mut state = 0x1111_2222_3333_4444u64;
        let a = rand_nat(&mut state, 8);
        let b = rand_nat(&mut state, 8);
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        let mut out = Nat::default();
        gcd_into(&a, &b, &mut sa, &mut sb, &mut out);
        assert_eq!(out, a.gcd_reference(&b));
        // Second call with warm buffers.
        gcd_into(&b, &a, &mut sa, &mut sb, &mut out);
        assert_eq!(out, a.gcd_reference(&b));
    }
}
