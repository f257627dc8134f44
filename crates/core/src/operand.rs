//! The multiword operand pair of paper Fig. 1.
//!
//! Two s-bit numbers `X` and `Y` live in fixed pre-allocated arrays of
//! `s/d` words; registers hold the word lengths `lX`, `lY`. `swap(X, Y)` is
//! a pointer exchange, never a copy. All five Euclidean variants mutate a
//! [`GcdPair`] in place, which is also what makes the memory-access
//! accounting of §IV meaningful.

use bulkgcd_bigint::{ops, Limb, Nat, LIMB_BITS};

/// A pair of multiword operands in fixed buffers, with `X >= Y` maintained
/// by the algorithms between iterations.
///
/// ```
/// use bulkgcd_bigint::Nat;
/// use bulkgcd_core::GcdPair;
///
/// // The workspace is reusable across pairs (bulk execution reloads it).
/// let mut pair = GcdPair::for_bits(1024);
/// pair.load(&Nat::from_u64(768_955), &Nat::from_u64(1_043_915));
/// assert_eq!(pair.x_nat(), Nat::from_u64(1_043_915)); // larger value in X
/// assert_eq!(pair.lx(), 1);
/// pair.swap(); // pointer exchange, no copying
/// assert_eq!(pair.y_nat(), Nat::from_u64(1_043_915));
/// ```
#[derive(Clone, Debug)]
pub struct GcdPair {
    x: Vec<Limb>,
    y: Vec<Limb>,
    lx: usize,
    ly: usize,
    /// Which physical buffer currently backs `X`: toggled by [`Self::swap`].
    /// Buffer identity matters to the UMM address traces — a pointer swap
    /// changes which global array a thread scans, which is one source of
    /// the "semi"-obliviousness of §VI.
    x_is_buffer_a: bool,
    /// Reusable workspace for the rare β > 0 update, so the steady-state
    /// bulk hot loop performs no heap allocation per pair.
    scratch: Vec<Limb>,
}

impl Default for GcdPair {
    /// An empty pair; the buffers grow on the first load.
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl GcdPair {
    /// Allocate a pair able to hold operands of `capacity_limbs` words.
    pub fn with_capacity(capacity_limbs: usize) -> Self {
        GcdPair {
            x: vec![0; capacity_limbs],
            y: vec![0; capacity_limbs],
            lx: 0,
            ly: 0,
            x_is_buffer_a: true,
            scratch: Vec::new(),
        }
    }

    /// Allocate a pair for `bits`-bit operands.
    pub fn for_bits(bits: u64) -> Self {
        Self::with_capacity(bits.div_ceil(LIMB_BITS as u64) as usize)
    }

    /// Load two values, growing the buffers if needed and placing the larger
    /// value in `X`. The buffers are fully reused across calls (bulk
    /// execution reuses one workspace per thread).
    pub fn load(&mut self, a: &Nat, b: &Nat) {
        self.load_from_limbs(a.as_limbs(), b.as_limbs());
    }

    /// Load two values from raw little-endian limb slices, e.g. fixed-stride
    /// rows of a moduli arena. The slices may carry high zero padding (they
    /// are normalized here); nothing is allocated unless the operands exceed
    /// the current buffer capacity.
    pub fn load_from_limbs(&mut self, a: &[Limb], b: &[Limb]) {
        let la = ops::normalized_len(a);
        let lb = ops::normalized_len(b);
        let (hi, lhi, lo, llo) = if ops::cmp(&a[..la], &b[..lb]) == core::cmp::Ordering::Less {
            (b, lb, a, la)
        } else {
            (a, la, b, lb)
        };
        let need = lhi.max(1);
        if self.x.len() < need {
            // analyze: allow(za-alloc, reason = "operand buffers grow to the corpus stride once and are reused across loads; after warmup the resize is a no-op")
            self.x.resize(need, 0);
            self.y.resize(need, 0);
        }
        self.x.fill(0);
        self.y.fill(0);
        self.x[..lhi].copy_from_slice(&hi[..lhi]);
        self.y[..llo].copy_from_slice(&lo[..llo]);
        self.lx = lhi;
        self.ly = llo;
        self.x_is_buffer_a = true;
    }

    /// Construct directly from two values.
    pub fn new(a: &Nat, b: &Nat) -> Self {
        let mut p = Self::with_capacity(a.len().max(b.len()).max(1));
        p.load(a, b);
        p
    }

    /// Word length of `X` (the paper's `lX`); 0 when `X == 0`.
    #[inline]
    pub fn lx(&self) -> usize {
        self.lx
    }

    /// Word length of `Y` (the paper's `lY`); 0 when `Y == 0`.
    #[inline]
    pub fn ly(&self) -> usize {
        self.ly
    }

    /// The active words of `X`, least significant first.
    #[inline]
    pub fn x(&self) -> &[Limb] {
        &self.x[..self.lx]
    }

    /// The active words of `Y`, least significant first.
    #[inline]
    pub fn y(&self) -> &[Limb] {
        &self.y[..self.ly]
    }

    /// `X` as an owned `Nat`.
    pub fn x_nat(&self) -> Nat {
        Nat::from_limbs(self.x())
    }

    /// Non-allocating outcome path: copy the GCD (held in `X` once a full
    /// run drove `Y` to zero) into `dest`, zeroing the remainder of `dest`.
    /// Returns the number of significant limbs written.
    ///
    /// Panics if `dest` is shorter than the GCD.
    pub fn write_gcd_into(&self, dest: &mut [Limb]) -> usize {
        assert!(
            dest.len() >= self.lx,
            "write_gcd_into: destination holds {} limbs, gcd needs {}",
            dest.len(),
            self.lx
        );
        dest[..self.lx].copy_from_slice(self.x());
        dest[self.lx..].fill(0);
        self.lx
    }

    /// True when `X == 1` — after a full run, "the pair is coprime" —
    /// answerable from the length register and one word (no allocation).
    #[inline]
    pub fn gcd_is_one(&self) -> bool {
        self.lx == 1 && self.x[0] == 1
    }

    /// `Y` as an owned `Nat`.
    pub fn y_nat(&self) -> Nat {
        Nat::from_limbs(self.y())
    }

    /// Bit length of `X`.
    pub fn x_bits(&self) -> u64 {
        ops::bit_len(self.x())
    }

    /// Bit length of `Y`.
    pub fn y_bits(&self) -> u64 {
        ops::bit_len(self.y())
    }

    /// True when `Y == 0` (the loop-exit condition; equivalent to `lY == 0`,
    /// so it needs no memory access — §IV).
    #[inline]
    pub fn y_is_zero(&self) -> bool {
        self.ly == 0
    }

    /// True when `X` is odd (reads only the least significant word — §IV).
    #[inline]
    pub fn x_is_odd(&self) -> bool {
        self.lx > 0 && self.x[0] & 1 == 1
    }

    /// True when `Y` is odd.
    #[inline]
    pub fn y_is_odd(&self) -> bool {
        self.ly > 0 && self.y[0] & 1 == 1
    }

    /// The paper's `swap(X, Y)`: exchange the two buffer pointers and the
    /// two length registers. No element is copied.
    #[inline]
    pub fn swap(&mut self) {
        core::mem::swap(&mut self.x, &mut self.y);
        core::mem::swap(&mut self.lx, &mut self.ly);
        self.x_is_buffer_a = !self.x_is_buffer_a;
    }

    /// True when `X` currently lives in physical buffer A (the buffer it
    /// started in after [`Self::load`]); flipped by every [`Self::swap`].
    #[inline]
    pub fn x_in_buffer_a(&self) -> bool {
        self.x_is_buffer_a
    }

    /// Compare `X` and `Y`, first by word length, then word-by-word from the
    /// most significant end (the §IV comparison that touches O(1) words with
    /// high probability).
    pub fn x_cmp_y(&self) -> core::cmp::Ordering {
        match self.lx.cmp(&self.ly) {
            core::cmp::Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.lx).rev() {
            match self.x[i].cmp(&self.y[i]) {
                core::cmp::Ordering::Equal => {}
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Restore `X >= Y` after an update; returns true if a swap happened.
    #[inline]
    pub fn ensure_x_ge_y(&mut self) -> bool {
        if self.x_cmp_y() == core::cmp::Ordering::Less {
            self.swap();
            true
        } else {
            false
        }
    }

    /// `X ← X / 2` (X must be even).
    pub fn x_halve(&mut self) {
        debug_assert!(!self.x_is_odd());
        self.lx = ops::shr_in_place(&mut self.x[..self.lx], 1);
    }

    /// `Y ← Y / 2` (Y must be even).
    pub fn y_halve(&mut self) {
        debug_assert!(!self.y_is_odd());
        self.ly = ops::shr_in_place(&mut self.y[..self.ly], 1);
    }

    /// `X ← (X − Y) / 2` (both odd, X ≥ Y). The Binary Euclid update.
    pub fn x_sub_y_halve(&mut self) {
        debug_assert!(self.x_is_odd() && self.y_is_odd());
        let borrow = ops::sub_assign(&mut self.x[..self.lx], &self.y[..self.ly]);
        debug_assert_eq!(borrow, 0, "requires X >= Y");
        self.lx = ops::shr_in_place(&mut self.x[..self.lx], 1);
    }

    /// `X ← rshift(X − Y)` (both odd, X ≥ Y). The Fast Binary update.
    /// Returns the number of bits stripped.
    pub fn x_sub_y_rshift(&mut self) -> u64 {
        let (lx, r) = ops::fused_submul_rshift(&mut self.x[..self.lx], &self.y[..self.ly], 1);
        self.lx = lx;
        r
    }

    /// `X ← rshift(X − α·Y)` for a single-word odd `α` (the Approximate
    /// Euclid β = 0 update, fused single pass per §IV).
    /// Returns the number of bits stripped.
    pub fn x_submul_rshift(&mut self, alpha: Limb) -> u64 {
        debug_assert!(
            alpha & 1 == 1,
            "alpha must be odd so the difference is even"
        );
        let (lx, r) = ops::fused_submul_rshift(&mut self.x[..self.lx], &self.y[..self.ly], alpha);
        self.lx = lx;
        r
    }

    /// `X ← rshift(X − Y·α·D^β + Y)` — the rare β > 0 update of Approximate
    /// Euclid. Implemented as `X − (α·D^β − 1)·Y` via scratch arithmetic;
    /// the paper charges it 4·s/d memory operations (§IV) and we count it
    /// that way in the probes regardless of the internal pass structure.
    pub fn x_submul_shifted_rshift(&mut self, alpha: Limb, beta: usize) -> u64 {
        debug_assert!(beta > 0);
        // t = α·Y << (32β), built in the reusable scratch buffer (the bulk
        // hot loop must not allocate per pair).
        let tn = self.ly + beta + 1;
        if self.scratch.len() < tn {
            // analyze: allow(za-alloc, reason = "reusable scratch grows to the operand stride once; after warmup the resize is a no-op")
            self.scratch.resize(tn, 0);
        }
        let t = &mut self.scratch[..tn];
        t.fill(0);
        let carry =
            bulkgcd_bigint::mul::mul_limb(&mut t[beta..beta + self.ly], &self.y[..self.ly], alpha);
        t[beta + self.ly] = carry;
        // t -= Y  (α·D^β ≥ 2 so t > Y)
        let borrow = ops::sub_assign(t, &self.y[..self.ly]);
        debug_assert_eq!(borrow, 0);
        let tn = ops::normalized_len(t);
        // X -= t
        let borrow = ops::sub_assign(&mut self.x[..self.lx], &t[..tn]);
        debug_assert_eq!(borrow, 0, "approx guarantees alpha*D^beta <= X div Y");
        let (lx, r) = ops::rshift_in_place(&mut self.x[..self.lx]);
        self.lx = lx;
        r
    }

    /// Overwrite `X` in place with a value that fits in the current `lX`
    /// words (used by the 64-bit tail of Approximate Euclid's Case 1).
    /// Leaves `Y` and the buffer parity untouched.
    pub fn set_x_u64(&mut self, v: u64) {
        debug_assert!(
            self.lx as u64 * 32 >= 64 - v.leading_zeros() as u64,
            "value must fit in the current lX words"
        );
        for i in 0..self.lx {
            self.x[i] = (v >> (32 * i as u64)) as Limb;
        }
        self.lx = ops::normalized_len(&self.x[..self.lx]);
    }

    /// `X ← X mod Y` via full multiword division (Original Euclid update).
    pub fn x_mod_y(&mut self) {
        let (_, r) = bulkgcd_bigint::div::div_rem_slices(&self.x[..self.lx], &self.y[..self.ly]);
        self.x[..self.lx].fill(0);
        self.x[..r.len()].copy_from_slice(&r);
        self.lx = r.len();
    }

    /// Full quotient `X div Y` as a `Nat` (Fast Euclid needs the exact value).
    pub fn x_div_y(&self) -> Nat {
        let (q, _) = bulkgcd_bigint::div::div_rem_slices(&self.x[..self.lx], &self.y[..self.ly]);
        Nat::from_limbs(&q)
    }

    /// `X ← rshift(X − Q·Y)` for a multiword odd `Q` (Fast Euclid update).
    /// Returns the bits stripped.
    pub fn x_submul_nat_rshift(&mut self, q: &Nat) -> u64 {
        debug_assert!(q.is_odd());
        let qy = self.y_nat().mul(q);
        debug_assert!(qy.len() <= self.lx);
        let borrow = ops::sub_assign(&mut self.x[..self.lx], qy.limbs());
        debug_assert_eq!(borrow, 0, "requires Q*Y <= X");
        let (lx, r) = ops::rshift_in_place(&mut self.x[..self.lx]);
        self.lx = lx;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: u128, b: u128) -> GcdPair {
        GcdPair::new(&Nat::from_u128(a), &Nat::from_u128(b))
    }

    #[test]
    fn load_orders_operands() {
        let p = pair(5, 100);
        assert_eq!(p.x_nat(), Nat::from_u128(100));
        assert_eq!(p.y_nat(), Nat::from_u128(5));
        assert!(p.x_cmp_y() == core::cmp::Ordering::Greater);
    }

    #[test]
    fn swap_is_pointer_exchange() {
        let mut p = pair(100, 5);
        p.swap();
        assert_eq!(p.x_nat(), Nat::from_u128(5));
        assert_eq!(p.y_nat(), Nat::from_u128(100));
        assert_eq!(p.lx(), 1);
    }

    #[test]
    fn lengths_track_values() {
        let p = pair(1u128 << 100, 3);
        assert_eq!(p.lx(), 4);
        assert_eq!(p.ly(), 1);
        assert_eq!(p.x_bits(), 101);
        assert_eq!(p.y_bits(), 2);
    }

    #[test]
    fn halve_updates() {
        let mut p = pair(8, 3);
        p.x_halve();
        assert_eq!(p.x_nat(), Nat::from_u128(4));
    }

    #[test]
    fn sub_halve_matches_reference() {
        let mut p = pair(0b1111, 0b0101);
        p.x_sub_y_halve();
        assert_eq!(p.x_nat(), Nat::from_u128(5));
    }

    #[test]
    fn sub_rshift_strips_all_zeros() {
        // 23 - 7 = 16 -> rshift -> 1
        let mut p = pair(23, 7);
        let r = p.x_sub_y_rshift();
        assert_eq!(r, 4);
        assert_eq!(p.x_nat(), Nat::one());
    }

    #[test]
    fn submul_rshift_wide() {
        let a = (1u128 << 90) + 12345;
        let b = (1u128 << 40) + 1;
        let alpha = 0x1234_5677u32; // odd
        let mut p = pair(a, b);
        let expect = a - b * alpha as u128;
        let tz = expect.trailing_zeros() as u64;
        let r = p.x_submul_rshift(alpha);
        assert_eq!(r, tz);
        assert_eq!(p.x_nat().to_u128(), Some(expect >> tz));
    }

    #[test]
    fn submul_shifted_matches_u128() {
        // X - Y*alpha*D^beta + Y with beta = 1 (D = 2^32)
        let a = (1u128 << 110) + 999;
        let b = (1u128 << 40) + 5;
        let alpha = 6u32; // approx may hand an even alpha to the beta>0 path
        let beta = 1usize;
        let mut p = pair(a, b);
        let expect = a - b * ((alpha as u128) << 32) + b;
        let tz = expect.trailing_zeros() as u64;
        let r = p.x_submul_shifted_rshift(alpha, beta);
        assert_eq!(r, tz);
        assert_eq!(p.x_nat().to_u128(), Some(expect >> tz));
    }

    #[test]
    fn mod_y_matches_nat() {
        let a = 0xdead_beef_cafe_babe_1234u128;
        let b = 0xffff_fffb_u128;
        let mut p = pair(a, b);
        p.x_mod_y();
        assert_eq!(p.x_nat().to_u128(), Some(a % b));
    }

    #[test]
    fn workspace_reuse_clears_old_state() {
        let mut p = pair(u128::MAX, u128::MAX - 1);
        p.load(&Nat::from_u128(7), &Nat::from_u128(3));
        assert_eq!(p.x_nat(), Nat::from_u128(7));
        assert_eq!(p.y_nat(), Nat::from_u128(3));
        assert_eq!(p.lx(), 1);
    }

    #[test]
    fn equal_operands_compare_equal() {
        let p = pair(42, 42);
        assert_eq!(p.x_cmp_y(), core::cmp::Ordering::Equal);
    }
}
