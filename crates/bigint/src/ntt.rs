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
//! **Ordering.** The forward transform is decimation in frequency: natural
//! order in, bit-reversed order out. The pointwise product works on the
//! bit-reversed spectra as they are, and the inverse is decimation in
//! time: bit-reversed order in, natural order out. The inverse runs with
//! the *forward* twiddles — a forward DFT of a spectrum is `n` times the
//! inverse DFT read at `−i mod n` — and then reverses `a[1..n]`. So no
//! pass permutes the data into bit-reversed order, and one twiddle table
//! per prime serves all three transforms ([`Twiddles`]).
//!
//! **Setup, paid once.** The stage with half-size `h` reads
//! `(w^{n/2h})^j`, which does not depend on `n`, so the first `n' − 1`
//! entries of the `n`-point table are the whole `n'`-point table. Each
//! prime therefore has one table for the process, shared by every thread:
//! it is rebuilt only when a larger transform arrives, and every smaller
//! one reads its prefix. The entries are stored as `u32` (every prime is
//! below 2³¹), which halves the table's memory and cache footprint. The
//! working vectors of a product are kept per thread and reused, so a
//! product in the steady state allocates nothing.
//!
//! **Arithmetic.** Values are canonical residues in `[0, p)`, stored as
//! `u32` (every prime is below 2³¹, so a sum of two residues fits too),
//! and every multiply is a Montgomery multiply (R = 2³²) by a constant
//! held in Montgomery form: one 32×32→64 product, a 32-bit low multiply, a
//! second 32×32→64 product and a shift, with the conditional subtract as a
//! branchless `min(x, x − p)`. Since a Montgomery-form multiplier
//! preserves whichever domain the data is in, the transforms run on plain
//! residues. A limb loads as `redc(x · k)`, with no `%`: `k = R mod p`
//! loads it plain. `n⁻¹` rides a load constant instead of a pass of its
//! own: the first factor of a product loads with `k = R²·n⁻¹`, so the
//! pointwise Montgomery product is already `a·b·n⁻¹`, and a square (one
//! operand, loaded plain) multiplies its pointwise square by that same
//! constant. The inverse transform then yields the residues of the
//! product in normal form. The CRT recombination runs Garner's steps on
//! Montgomery constants too, with no `%` per coefficient, and folds each
//! prime in as soon as its residues exist (`garner_fold`, `recombine`):
//! the first prime's residues and Garner's `t2` are the product's
//! accumulators, so four `u32` vectors of `n` points are live per product
//! — the bytes of two `u64` vectors.
//!
//! **Pairs.** [`mul_wrap_pair_into`] computes `a·b₀` and `a·b₁` modulo
//! `β^N − 1` for one first factor `a`, as the scaled remainder tree's
//! sibling steps need: each prime transforms `a` once and multiplies its
//! spectrum into both, 5 transforms per prime where two products take 6.
//! The second product's accumulators are two more live `n`-point vectors,
//! kept with the other four in the thread's reused buffers. The outputs
//! are bitwise those of two [`mul_wrap_into`] calls.
//!
//! **ISA dispatch.** The butterflies have one portable scalar body, which
//! is the oracle; an AVX2 build of that same body (autovectorized under
//! `#[target_feature]`); and a hand-written AVX-512F kernel, sixteen `u32`
//! lanes per zmm. Its Montgomery product runs `vpmuludq` once on the even
//! lanes and once on the odd ones per step and blends the halves back
//! (`vpblendmd`); sums and conditional subtracts run on 32-bit lanes
//! (`vpminud`). Its stages of half-size ≥ 16 stream over the array two at
//! a time; the four smallest stages run as one in-register pass over each
//! pair of 16-coefficient blocks, each stage permuting the 32 coefficients
//! (`vpermt2d`) so that every lane runs a butterfly. Transforms below 32
//! points take the portable body. The loads, pointwise products and
//! squares and Garner's first step run on the same sixteen lanes; the rest
//! of the CRT pass is compiled for the ISA. [`crate::kernel_isa`] names
//! the path, picked once per product by the probe the lockstep vector
//! pass uses, and [`transform_on`] reaches each path for tests and
//! benches. All paths compute canonical residues, so their outputs are
//! bitwise-identical.

use crate::isa::KernelIsa;
use crate::limb::{hi, lo, Limb, LIMB_BITS};
use crate::ops;
use std::cell::Cell;
use std::sync::{Arc, PoisonError, RwLock};

/// Largest supported `a.len() + b.len()` (limbs): the transform size
/// `next_power_of_two(la + lb)` must not exceed the smallest 2-adicity
/// (2²⁵) of the prime triple. 2²⁵ limbs is a gigabit-scale product — far
/// beyond anything the product tree builds today; `mul_dispatch` splits
/// larger requests with Karatsuba, whose halves fit.
pub const MAX_NTT_TOTAL_LIMBS: usize = 1 << 25;

/// The (prime, primitive root) triple.
const PRIMES: [(u32, u32); 3] = [(2_013_265_921, 31), (1_811_939_329, 13), (2_113_929_217, 5)];

/// Montgomery arithmetic mod one NTT prime, R = 2³². Every prime is below
/// 2³¹, so residues are `u32` and sums of two residues, and `x + p − y`,
/// stay below 2³²; only a product needs a `u64` intermediate.
struct Field {
    p: u32,
    /// `-p⁻¹ mod 2³²`.
    ninv32: u32,
    /// `R² mod p`, for entering Montgomery form.
    r2: u32,
}

impl Field {
    fn new(p: u32) -> Field {
        // Newton iteration for p⁻¹ mod 2³² (p odd): 5 doublings of precision.
        let mut inv: u32 = p;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(p.wrapping_mul(inv)));
        }
        debug_assert_eq!(p.wrapping_mul(inv), 1);
        // R² mod p = (2³² mod p)² mod p, exact in u64.
        let r = (1u64 << LIMB_BITS) % p as u64;
        Field {
            p,
            ninv32: inv.wrapping_neg(),
            r2: lo(r * r % p as u64),
        }
    }

    /// `x mod p` for `x < 2p`: `x − p` wraps above `x` exactly when
    /// `x < p`, so the smaller of the two is the residue. Branchless — on
    /// random transform data a compare-branch is a coin flip.
    #[inline(always)]
    fn reduce_once(&self, x: u32) -> u32 {
        x.min(x.wrapping_sub(self.p))
    }

    /// Montgomery reduction of `t < p·2³²`: returns `t·R⁻¹ mod p`.
    #[inline(always)]
    fn redc(&self, t: u64) -> u32 {
        // m = (t mod R)·(-p⁻¹) mod R; then (t + m·p) is divisible by R.
        // t < p·2³² < 2⁶³ and m·p < 2³²·p < 2⁶³, so the sum cannot wrap.
        let m = lo(t).wrapping_mul(self.ninv32) as u64;
        self.reduce_once(hi(t + m * self.p as u64))
    }

    /// `x·y·R⁻¹ mod p` for any `x` and `y < p`.
    #[inline(always)]
    fn mul(&self, x: u32, y: u32) -> u32 {
        debug_assert!(y < self.p);
        self.redc(x as u64 * y as u64)
    }

    #[inline(always)]
    fn add(&self, a: u32, b: u32) -> u32 {
        self.reduce_once(a + b)
    }

    #[inline(always)]
    fn sub(&self, a: u32, b: u32) -> u32 {
        self.reduce_once(a + self.p - b)
    }

    /// `1` in Montgomery form (`R mod p`).
    #[inline]
    fn one(&self) -> u32 {
        self.redc(self.r2 as u64)
    }

    /// Enter Montgomery form.
    #[inline]
    fn to_mont(&self, x: u32) -> u32 {
        self.redc(x as u64 * self.r2 as u64)
    }

    /// Leave Montgomery form.
    #[cfg(test)]
    fn unmont(&self, x: u32) -> u32 {
        self.redc(x as u64)
    }

    /// `base^e` with `base` in Montgomery form; result in Montgomery form.
    fn pow(&self, mut base: u32, mut e: u32) -> u32 {
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

/// Consecutive powers the twiddle build computes by a serial chain before
/// it steps whole blocks by `w^TW_BLOCK`.
const TW_BLOCK: usize = 8;

/// The forward twiddles of one NTT prime for an `n`-point transform, in
/// Montgomery form. The segment for the stage with half-size `h`
/// (h = 1, 2, 4, ..., n/2) starts at offset `h − 1` and holds
/// `(w^{n/2h})^j` for `j < h`. The top segment is built from a serial
/// chain of [`TW_BLOCK`] powers, then block by block as `w^TW_BLOCK` times
/// the block before (independent chains, no n/2-long dependency); every
/// smaller segment is a stride-2 subsample of the one above. Since no
/// segment depends on `n`, the first `n' − 1` entries are the `n'`-point
/// table for every `n' ≤ n`: the products read prefixes of one shared
/// table per prime (`shared_twiddles`).
#[doc(hidden)]
pub struct Twiddles {
    field: Field,
    table: Vec<u32>,
}

impl Twiddles {
    /// The table of prime `prime` (0, 1 or 2) for `n`-point transforms;
    /// `n` a power of two in `2..=MAX_NTT_TOTAL_LIMBS`.
    pub fn new(prime: usize, n: usize) -> Twiddles {
        assert!(
            n >= 2 && n.is_power_of_two() && n <= MAX_NTT_TOTAL_LIMBS,
            "{n} is not a supported transform size"
        );
        let (p, g) = PRIMES[prime];
        let field = Field::new(p);
        // n ≤ 2²⁵ divides p − 1.
        let root = field.pow(field.to_mont(g), (p - 1) >> n.trailing_zeros());
        let top = n / 2;
        let mut table = vec![0u32; n - 1];
        let seg = &mut table[top - 1..];
        seg[0] = field.one();
        for j in 1..TW_BLOCK.min(top) {
            seg[j] = field.mul(seg[j - 1], root);
        }
        if top > TW_BLOCK {
            let step = field.mul(seg[TW_BLOCK - 1], root);
            for b in 1..top / TW_BLOCK {
                let (done, rest) = seg.split_at_mut(b * TW_BLOCK);
                let prev = &done[(b - 1) * TW_BLOCK..];
                for (t, &w) in rest[..TW_BLOCK].iter_mut().zip(prev) {
                    *t = field.mul(w, step);
                }
            }
        }
        let mut h = top / 2;
        while h >= 1 {
            let (lower, upper) = table.split_at_mut(2 * h - 1);
            for (t, &w) in lower[h - 1..].iter_mut().zip(upper.iter().step_by(2)) {
                *t = w;
            }
            h /= 2;
        }
        Twiddles { field, table }
    }

    /// The transform size `n` the table was built for; its prefixes serve
    /// every smaller one.
    pub fn points(&self) -> usize {
        self.table.len() + 1
    }

    /// The prime the table works modulo.
    pub fn prime(&self) -> u32 {
        self.field.p
    }
}

/// The process-wide twiddle table of each prime, sized for the largest
/// transform run so far. Readers hold an `Arc`, so a table that grows
/// while a product runs on another thread stays alive until it finishes.
static SHARED_TWIDDLES: [RwLock<Option<Arc<Twiddles>>>; 3] = [const { RwLock::new(None) }; 3];

/// A table of prime `prime` that serves `n`-point transforms: the shared
/// one, rebuilt for `n` when it is smaller.
fn shared_twiddles(prime: usize, n: usize) -> Arc<Twiddles> {
    let slot = &SHARED_TWIDDLES[prime];
    if let Some(tw) = slot.read().unwrap_or_else(PoisonError::into_inner).as_ref() {
        if tw.points() >= n {
            return Arc::clone(tw);
        }
    }
    let mut slot = slot.write().unwrap_or_else(PoisonError::into_inner);
    match slot.as_ref() {
        Some(tw) if tw.points() >= n => Arc::clone(tw),
        _ => {
            let tw = Arc::new(Twiddles::new(prime, n));
            *slot = Some(Arc::clone(&tw));
            tw
        }
    }
}

/// Run one transform of `a` (residues below `tw.prime()`, `a.len() ==
/// tw.points()`) on the given implementation: forward (natural order in,
/// bit-reversed out) or, with `inverse`, the forward transform of a
/// bit-reversed spectrum read back in natural order — `n` times the
/// inverse DFT, since `n⁻¹` is folded into the load constants. Returns
/// `false`, with nothing touched, when this CPU cannot run `isa`, which
/// is how tests reach each path and skip the ones the host lacks.
#[doc(hidden)]
pub fn transform_on(isa: KernelIsa, tw: &Twiddles, a: &mut [u32], inverse: bool) -> bool {
    assert_eq!(
        a.len(),
        tw.points(),
        "transform length differs from the table"
    );
    debug_assert!(a.iter().all(|&x| x < tw.field.p));
    if !isa.available() {
        return false;
    }
    transform(isa, &tw.field, &tw.table, a, inverse);
    true
}

/// One transform of `a` on `isa`, which the caller has checked. `tw` is
/// the table of any size `≥ a.len()`: only its first `a.len() − 1`
/// entries, the `a.len()`-point table, are read.
#[inline(always)]
fn transform(isa: KernelIsa, f: &Field, tw: &[u32], a: &mut [u32], inverse: bool) {
    debug_assert!(tw.len() + 1 >= a.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 if a.len() >= avx512::MIN_POINTS => {
            // SAFETY: every caller checked `isa.available()`, here AVX-512F.
            unsafe { avx512::transform(f, a, tw, inverse) }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every caller checked `isa.available()`, here AVX2.
        KernelIsa::Avx2 => unsafe { transform_avx2(f, a, tw, inverse) },
        _ => transform_portable(f, a, tw, inverse),
    }
}

/// The portable transform body, and the oracle for the other paths.
/// Each stage runs over disjoint sub-slices, so it compiles without bounds
/// checks.
#[inline(always)]
fn transform_portable(f: &Field, a: &mut [u32], tw: &[u32], inverse: bool) {
    let n = a.len();
    if inverse {
        // Decimation in time: u, v ← u + w·v, u − w·v.
        let mut half = 1;
        while half < n {
            let seg = &tw[half - 1..2 * half - 1];
            for chunk in a.chunks_exact_mut(2 * half) {
                let (us, vs) = chunk.split_at_mut(half);
                for ((u, v), &w) in us.iter_mut().zip(vs.iter_mut()).zip(seg) {
                    let (x, t) = (*u, f.mul(*v, w));
                    *u = f.add(x, t);
                    *v = f.sub(x, t);
                }
            }
            half *= 2;
        }
        a[1..].reverse();
    } else {
        // Decimation in frequency: u, v ← u + v, w·(u − v).
        let mut half = n / 2;
        while half >= 1 {
            let seg = &tw[half - 1..2 * half - 1];
            for chunk in a.chunks_exact_mut(2 * half) {
                let (us, vs) = chunk.split_at_mut(half);
                for ((u, v), &w) in us.iter_mut().zip(vs.iter_mut()).zip(seg) {
                    let (x, y) = (*u, *v);
                    *u = f.add(x, y);
                    *v = f.mul(x + f.p - y, w);
                }
            }
            half /= 2;
        }
    }
}

/// The portable body compiled for AVX2: the target feature only licenses
/// the compiler to autovectorize the inlined body with AVX2 instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transform_avx2(f: &Field, a: &mut [u32], tw: &[u32], inverse: bool) {
    transform_portable(f, a, tw, inverse);
}

/// The hand-written AVX-512F kernels: sixteen `u32` lanes of canonical
/// residues per zmm. A Montgomery product runs `vpmuludq` once on the
/// even lanes and once on the odd ones per step and blends the two halves
/// back. All indexing is bounds-checked slicing; the only raw accesses are
/// the sixteen-lane loads and stores of `load16` and `store16`, each on a
/// slice of exactly sixteen words.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Field;
    use std::arch::x86_64::*;

    /// The smallest transform the kernel runs: its block pass works on two
    /// 16-coefficient blocks at once. Smaller ones take the portable body.
    pub(super) const MIN_POINTS: usize = 32;

    /// Lanes `s[j..j + 16]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load16(s: &[u32], j: usize) -> __m512i {
        let s = &s[j..j + 16];
        // SAFETY: `s` is exactly sixteen `u32`s, one zmm.
        unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
    }

    /// Store `x` to `s[j..j + 16]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn store16(s: &mut [u32], j: usize, x: __m512i) {
        let s = &mut s[j..j + 16];
        // SAFETY: `s` is exactly sixteen `u32`s, one zmm.
        unsafe { _mm512_storeu_si512(s.as_mut_ptr().cast(), x) }
    }

    /// The broadcast prime and Montgomery constant.
    #[derive(Clone, Copy)]
    struct Mod {
        p: __m512i,
        ninv: __m512i,
    }

    impl Mod {
        #[target_feature(enable = "avx512f")]
        fn new(f: &Field) -> Mod {
            Mod {
                p: _mm512_set1_epi32(f.p as i32),
                ninv: _mm512_set1_epi32(f.ninv32 as i32),
            }
        }

        /// `x mod p` for lanes `x < 2p`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn reduce(self, x: __m512i) -> __m512i {
            _mm512_min_epu32(x, _mm512_sub_epi32(x, self.p))
        }

        /// `t + (t·(−p⁻¹) mod R)·p` on the 64-bit lanes of `t < p·2³²`:
        /// [`Field::redc`] before its shift, which leaves the result in each
        /// lane's high word. `vpmuludq` reads the low words of `t`, `ninv`
        /// and `p`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn redc_high(self, t: __m512i) -> __m512i {
            let m = _mm512_mul_epu32(t, self.ninv);
            _mm512_add_epi64(t, _mm512_mul_epu32(m, self.p))
        }

        /// [`Field::mul`] per lane (`y < p`): the even lanes in the low
        /// words of the 64-bit lanes, the odd lanes shifted down into them,
        /// and the results blended back.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn mul(self, x: __m512i, y: __m512i) -> __m512i {
            let even = self.redc_high(_mm512_mul_epu32(x, y));
            let odd = self.redc_high(_mm512_mul_epu32(
                _mm512_srli_epi64::<32>(x),
                _mm512_srli_epi64::<32>(y),
            ));
            self.reduce(_mm512_mask_blend_epi32(
                0xaaaa,
                _mm512_srli_epi64::<32>(even),
                odd,
            ))
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn add(self, x: __m512i, y: __m512i) -> __m512i {
            self.reduce(_mm512_add_epi32(x, y))
        }

        /// `x + p − y`, below 2p and not yet reduced.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn diff(self, x: __m512i, y: __m512i) -> __m512i {
            _mm512_sub_epi32(_mm512_add_epi32(x, self.p), y)
        }

        /// The DIF butterfly `(u + v, w·(u − v))`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn dif(self, u: __m512i, v: __m512i, w: __m512i) -> (__m512i, __m512i) {
            (self.add(u, v), self.mul(self.diff(u, v), w))
        }

        /// The DIT butterfly `(u + w·v, u − w·v)`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn dit(self, u: __m512i, v: __m512i, w: __m512i) -> (__m512i, __m512i) {
            let t = self.mul(v, w);
            (self.add(u, t), self.reduce(self.diff(u, t)))
        }

        /// The butterfly of a stage: DIF, or DIT for `inverse`; with no
        /// twiddle (`w = 1`, the smallest stage) both are `(u + v, u − v)`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn butterfly(
            self,
            u: __m512i,
            v: __m512i,
            w: Option<__m512i>,
            inverse: bool,
        ) -> (__m512i, __m512i) {
            match (w, inverse) {
                (Some(w), false) => self.dif(u, v, w),
                (Some(w), true) => self.dit(u, v, w),
                (None, _) => (self.add(u, v), self.reduce(self.diff(u, v))),
            }
        }
    }

    /// `out[j] ← op(out[j], [ins[0][j], …])`, sixteen lanes at a time; a
    /// short last step runs on zero-padded copies, which every operation
    /// here maps to residues. Each `ins[i]` is at least as long as `out`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes<const K: usize>(
        out: &mut [u32],
        ins: [&[u32]; K],
        op: impl Fn(__m512i, [__m512i; K]) -> __m512i,
    ) {
        let whole = out.len() / 16 * 16;
        for j in (0..whole).step_by(16) {
            store16(out, j, op(load16(out, j), ins.map(|s| load16(s, j))));
        }
        let tail = out.len() - whole;
        if tail > 0 {
            let pad = |s: &[u32]| {
                let mut b = [0u32; 16];
                b[..tail].copy_from_slice(&s[whole..whole + tail]);
                b
            };
            let mut b = pad(out);
            let x = op(load16(&b, 0), ins.map(|s| load16(&pad(s), 0)));
            store16(&mut b, 0, x);
            out[whole..].copy_from_slice(&b[..tail]);
        }
    }

    /// Stage `half`'s twiddle segment.
    fn segment(tw: &[u32], half: usize) -> &[u32] {
        &tw[half - 1..2 * half - 1]
    }

    /// One streamed stage, half-size `half ≥ 16`: DIF, or DIT for `inverse`.
    #[target_feature(enable = "avx512f")]
    fn stage(k: Mod, a: &mut [u32], tw: &[u32], half: usize, inverse: bool) {
        let seg = segment(tw, half);
        for chunk in a.chunks_exact_mut(2 * half) {
            let (us, vs) = chunk.split_at_mut(half);
            for j in (0..half).step_by(16) {
                let w = Some(load16(seg, j));
                let (x, y) = k.butterfly(load16(us, j), load16(vs, j), w, inverse);
                store16(us, j, x);
                store16(vs, j, y);
            }
        }
    }

    /// Two streamed stages in one sweep, the radix-2 butterflies of stages
    /// `2q` and `q` (`q ≥ 16`) on each quartet `a[j + {0, q, 2q, 3q}]` held
    /// in registers: DIF runs stage `2q` first, DIT (`inverse`) stage `q`
    /// first. The arithmetic is that of two [`stage`] calls.
    #[target_feature(enable = "avx512f")]
    fn stage_pair(k: Mod, a: &mut [u32], tw: &[u32], q: usize, inverse: bool) {
        let (outer, inner) = (segment(tw, 2 * q), segment(tw, q));
        for chunk in a.chunks_exact_mut(4 * q) {
            let (lo, hi) = chunk.split_at_mut(2 * q);
            let (s0, s1) = lo.split_at_mut(q);
            let (s2, s3) = hi.split_at_mut(q);
            for j in (0..q).step_by(16) {
                let x = [load16(s0, j), load16(s1, j), load16(s2, j), load16(s3, j)];
                let (wa, wb, wi) = (load16(outer, j), load16(outer, j + q), load16(inner, j));
                let z = if inverse {
                    let (y0, y1) = k.dit(x[0], x[1], wi);
                    let (y2, y3) = k.dit(x[2], x[3], wi);
                    let (z0, z2) = k.dit(y0, y2, wa);
                    let (z1, z3) = k.dit(y1, y3, wb);
                    [z0, z1, z2, z3]
                } else {
                    let (y0, y2) = k.dif(x[0], x[2], wa);
                    let (y1, y3) = k.dif(x[1], x[3], wb);
                    let (z0, z1) = k.dif(y0, y1, wi);
                    let (z2, z3) = k.dif(y2, y3, wi);
                    [z0, z1, z2, z3]
                };
                store16(s0, j, z[0]);
                store16(s1, j, z[1]);
                store16(s2, j, z[2]);
                store16(s3, j, z[3]);
            }
        }
    }

    /// Where the block pass keeps the 32 coefficients of two blocks in its
    /// two registers, as an index into their concatenation. `None` is the
    /// natural order. `Some(b)` is the order of the stage with half-size
    /// `2^b`: the first register holds the coefficients whose bit `b` is
    /// clear and the second their partners, each in the order of the other
    /// four bits, so one lane-wise butterfly runs the whole stage.
    const fn slot(order: Option<u32>, e: usize) -> usize {
        match order {
            None => e,
            Some(b) => (((e >> b) & 1) << 4) | ((e >> (b + 1)) << b) | (e & ((1 << b) - 1)),
        }
    }

    /// The bit of the block pass's `s`-th stage: h = 8, 4, 2, 1 forward,
    /// the reverse for the inverse.
    const fn stage_bit(inverse: bool, s: usize) -> u32 {
        if inverse {
            s as u32
        } else {
            3 - s as u32
        }
    }

    /// The `vpermt2d` indices of the block pass, one pair per output
    /// register: into the order of each stage in the order they run, then
    /// back to the natural order.
    const fn block_moves(inverse: bool) -> [[[u32; 16]; 2]; 5] {
        let mut moves = [[[0; 16]; 2]; 5];
        let mut s = 0;
        while s < 5 {
            let from = if s == 0 {
                None
            } else {
                Some(stage_bit(inverse, s - 1))
            };
            let to = if s == 4 {
                None
            } else {
                Some(stage_bit(inverse, s))
            };
            let mut e = 0;
            while e < 32 {
                let t = slot(to, e);
                moves[s][t / 16][t % 16] = slot(from, e) as u32;
                e += 1;
            }
            s += 1;
        }
        moves
    }

    /// [`block_moves`] forward and inverse.
    const BLOCK_MOVES: [[[[u32; 16]; 2]; 5]; 2] = [block_moves(false), block_moves(true)];

    /// For stage bit `b = 1, 2, 3`, which of the table's first sixteen
    /// entries each lane takes in the stage's order: lane `l` of the
    /// first register holds the coefficient at offset `l mod 2^b` of its
    /// `2^{b+1}`-chunk, so its twiddle is entry `l mod 2^b` of the stage's
    /// segment, which starts at `2^b − 1`.
    const TWIDDLE_LANES: [[u32; 16]; 3] = {
        let mut lanes = [[0; 16]; 3];
        let mut b = 1;
        while b <= 3 {
            let mut l = 0;
            while l < 16 {
                lanes[b - 1][l] = ((1 << b) - 1 + l % (1 << b)) as u32;
                l += 1;
            }
            b += 1;
        }
        lanes
    };

    /// The four smallest stages (h = 8, 4, 2, 1) of every 16-coefficient
    /// block, in registers, two blocks at a time: each stage first permutes
    /// the 32 coefficients into its own order ([`slot`]), so every lane
    /// runs a real butterfly. `a.len() ≥ 32`.
    #[target_feature(enable = "avx512f")]
    fn block_pass(k: Mod, a: &mut [u32], tw: &[u32], inverse: bool) {
        let moves = &BLOCK_MOVES[inverse as usize];
        let head = load16(tw, 0);
        let steps: [_; 4] = core::array::from_fn(|s| {
            let b = stage_bit(inverse, s) as usize;
            // The stage h = 1 multiplies by w⁰ = 1: no twiddle.
            let w =
                (b > 0).then(|| _mm512_permutexvar_epi32(load16(&TWIDDLE_LANES[b - 1], 0), head));
            (moves[s].map(|m| load16(&m, 0)), w)
        });
        let back = moves[4].map(|m| load16(&m, 0));
        for pair in a.chunks_exact_mut(32) {
            let (mut u, mut v) = (load16(pair, 0), load16(pair, 16));
            for &([iu, iv], w) in &steps {
                (u, v) = k.butterfly(
                    _mm512_permutex2var_epi32(u, iu, v),
                    _mm512_permutex2var_epi32(u, iv, v),
                    w,
                    inverse,
                );
            }
            store16(pair, 0, _mm512_permutex2var_epi32(u, back[0], v));
            store16(pair, 16, _mm512_permutex2var_epi32(u, back[1], v));
        }
    }

    /// The transform of [`super::transform_portable`], bit for bit, for a
    /// power-of-two `a.len() ≥ MIN_POINTS` and a twiddle table `tw` of at
    /// least that size. Stages of half-size ≥ 16 stream in pairs
    /// ([`stage_pair`]), the four smallest run in registers
    /// ([`block_pass`]).
    #[target_feature(enable = "avx512f")]
    pub(super) fn transform(f: &Field, a: &mut [u32], tw: &[u32], inverse: bool) {
        let n = a.len();
        let k = Mod::new(f);
        if inverse {
            block_pass(k, a, tw, true);
            let mut half = 16;
            while 4 * half <= n {
                stage_pair(k, a, tw, half, true);
                half *= 4;
            }
            if half < n {
                stage(k, a, tw, half, true);
            }
            a[1..].reverse();
        } else {
            let mut half = n / 2;
            while half >= 32 {
                stage_pair(k, a, tw, half / 2, false);
                half /= 4;
            }
            if half == 16 {
                stage(k, a, tw, half, false);
            }
            block_pass(k, a, tw, false);
        }
    }

    /// `v[j] ← x[j]·c·R⁻¹`: [`super::load`]'s pass.
    #[target_feature(enable = "avx512f")]
    pub(super) fn load(f: &Field, v: &mut [u32], x: &[u32], c: u32) {
        let (k, c) = (Mod::new(f), _mm512_set1_epi32(c as i32));
        lanes(v, [x], |_, [x]| k.mul(x, c));
    }

    /// `r[j] ← a[j]·r[j]·R⁻¹`: the pointwise product of two spectra.
    #[target_feature(enable = "avx512f")]
    pub(super) fn pointwise(f: &Field, r: &mut [u32], a: &[u32]) {
        let k = Mod::new(f);
        lanes(r, [a], |r, [a]| k.mul(a, r));
    }

    /// `r[j] ← r[j]²·c·R⁻²`: the pointwise square of a spectrum.
    #[target_feature(enable = "avx512f")]
    pub(super) fn square(f: &Field, r: &mut [u32], c: u32) {
        let (k, c) = (Mod::new(f), _mm512_set1_epi32(c as i32));
        lanes(r, [], |r, []| k.mul(k.mul(r, r), c));
    }

    /// `r2[j] ← (r2[j] − r1[j])·c·R⁻¹ mod p₂` for `r1 < 2p₂`:
    /// [`super::garner_fold`]'s pass.
    #[target_feature(enable = "avx512f")]
    pub(super) fn garner_fold(f2: &Field, c: u32, r1: &[u32], r2: &mut [u32]) {
        let (k, c) = (Mod::new(f2), _mm512_set1_epi32(c as i32));
        lanes(r2, [r1], |r2, [r1]| {
            k.mul(k.reduce(k.diff(r2, k.reduce(r1))), c)
        });
    }
}

/// `r[j] ← a[j]·r[j]·R⁻¹` on `isa`: the pointwise product of two spectra.
#[inline(always)]
fn pointwise(isa: KernelIsa, f: &Field, r: &mut [u32], a: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: every caller checked `isa.available()`, here AVX-512F.
        return unsafe { avx512::pointwise(f, r, a) };
    }
    for (y, &x) in r.iter_mut().zip(a) {
        *y = f.mul(x, *y);
    }
}

/// `r[j] ← r[j]²·c·R⁻²` on `isa`: the pointwise square of a spectrum.
#[inline(always)]
fn square(isa: KernelIsa, f: &Field, r: &mut [u32], c: u32) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: every caller checked `isa.available()`, here AVX-512F.
        return unsafe { avx512::square(f, r, c) };
    }
    for x in r.iter_mut() {
        *x = f.mul(f.mul(*x, *x), c);
    }
}

/// Load `x` into `v` as an `n`-point vector of residues `redc(x_i · k)`,
/// zero-padded, on `isa`, which the caller has checked.
#[inline(always)]
fn load(isa: KernelIsa, f: &Field, x: &[Limb], k: u32, n: usize, v: &mut Vec<u32>) {
    v.resize(n, 0);
    let (head, tail) = v.split_at_mut(x.len());
    tail.fill(0);
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: every caller checked `isa.available()`, here AVX-512F.
        return unsafe { avx512::load(f, head, x, k) };
    }
    for (v, &w) in head.iter_mut().zip(x) {
        *v = f.mul(w, k);
    }
}

/// The spectrum of the first factor `a` on the prime of `tw`, into `fa`:
/// loaded with `n⁻¹` folded in (see the module docs) and
/// forward-transformed.
#[inline(always)]
fn first_spectrum(isa: KernelIsa, tw: &Twiddles, a: &[Limb], n: usize, fa: &mut Vec<u32>) {
    let f = &tw.field;
    load(isa, f, a, inv_n_load(f, n), n, fa);
    transform(isa, f, &tw.table, fa, false);
}

/// `R²·n⁻¹ mod p`: `n⁻¹` in Montgomery form, times R once more. Loading
/// the first factor with it scales the product by `n⁻¹`.
#[inline(always)]
fn inv_n_load(f: &Field, n: usize) -> u32 {
    // n ≤ 2²⁵.
    f.mul(f.pow(f.to_mont(lo(n as u64)), f.p - 2), f.r2)
}

/// The residues of `a · b` on the prime of `tw`, in normal form, into
/// `r`, from `a`'s spectrum `fa` ([`first_spectrum`]): forward-transform
/// `b`, multiply pointwise and transform back.
#[inline(always)]
fn times_spectrum(
    isa: KernelIsa,
    tw: &Twiddles,
    fa: &[u32],
    b: &[Limb],
    n: usize,
    r: &mut Vec<u32>,
) {
    let f = &tw.field;
    load(isa, f, b, f.one(), n, r);
    transform(isa, f, &tw.table, r, false);
    pointwise(isa, f, r, fa);
    transform(isa, f, &tw.table, r, true);
}

/// The residues of `a²` on the prime of `tw`, in normal form, into `r`:
/// one forward transform, a pointwise square times `n⁻¹`, and the
/// inverse.
#[inline(always)]
fn square_residues(isa: KernelIsa, tw: &Twiddles, a: &[Limb], n: usize, r: &mut Vec<u32>) {
    let f = &tw.field;
    let scaled = inv_n_load(f, n);
    load(isa, f, a, f.one(), n, r);
    transform(isa, f, &tw.table, r, false);
    square(isa, f, r, scaled);
    transform(isa, f, &tw.table, r, true);
}

/// Garner's first step, folded in as soon as the second prime's residues
/// exist: `r2[j] ← t2 = (r2 − r1)·p₁⁻¹ mod p₂`, in place. The mixed-radix
/// value is `v = r1 + p₁·t2 + p₁p₂·t3`.
#[inline(always)]
fn garner_fold(isa: KernelIsa, r1: &[u32], r2: &mut [u32]) {
    let [p1, p2] = [PRIMES[0].0, PRIMES[1].0];
    let f2 = Field::new(p2);
    // p₁⁻¹ mod p₂ in Montgomery form, so that one `mul` applies it.
    let inv_p1 = f2.pow(f2.to_mont(p1 - p2), p2 - 2);
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: every caller checked `isa.available()`, here AVX-512F.
        return unsafe { avx512::garner_fold(&f2, inv_p1, r1, r2) };
    }
    // r1 < p1 < 2·p2 reduces mod p2 with one subtract.
    for (r2, &r1) in r2.iter_mut().zip(r1) {
        *r2 = f2.mul(f2.sub(*r2, f2.reduce_once(r1)), inv_p1);
    }
}

/// Finish the CRT from the first prime's residues `r1`, Garner's `t2`
/// ([`garner_fold`]) and the third prime's residues `r3`, and propagate
/// carries, writing the low `out.len()` limbs of the product into `out`.
/// An acyclic product must fit `out` exactly (the final carry is
/// debug-asserted zero); a `wrap` (cyclic) product has `out.len() == n`
/// and folds its final carry back in at limb 0, since `β^n ≡ 1
/// (mod β^n − 1)`.
///
/// The last Garner step is one pass that is independent per coefficient
/// (so it vectorizes) and turns `r3` into `t3` in place; a serial pass
/// then adds up the carries.
#[inline(always)]
fn recombine(r1: &[u32], t2: &[u32], r3: &mut [u32], out: &mut [Limb], wrap: bool) {
    let [p1, p2, p3] = [PRIMES[0].0, PRIMES[1].0, PRIMES[2].0];
    let f3 = Field::new(p3);
    // p₁p₂ < 2⁶², exact in u64. Garner's constants are in Montgomery form
    // so that one `mul` applies each: p₁ mod p₃ and (p₁p₂)⁻¹ mod p₃.
    let p1p2 = p1 as u64 * p2 as u64;
    let p1_mod_p3 = f3.to_mont(p1);
    let inv_p1p2 = f3.pow(f3.to_mont(lo(p1p2 % p3 as u64)), p3 - 2);
    for ((&r1, &t2), r3) in r1.iter().zip(t2).zip(r3.iter_mut()) {
        // r1 < p1 < p3 is already reduced mod p3.
        let v12m = f3.add(r1, f3.mul(t2, p1_mod_p3));
        *r3 = f3.mul(f3.sub(*r3, v12m), inv_p1p2);
    }

    // v < p1·p2·p3 < 2⁹³; r1 + p₁·t2 < p1·p2 < 2⁶².
    let mut coeffs = r1.iter().zip(t2).zip(r3.iter()).map(|((&r1, &t2), &t3)| {
        (r1 as u64 + t2 as u64 * p1 as u64) as u128 + p1p2 as u128 * t3 as u128
    });
    let mut carry: u128 = 0;
    for (w, v) in out.iter_mut().zip(coeffs.by_ref()) {
        let acc = carry + v;
        *w = lo(acc as u64);
        carry = acc >> LIMB_BITS;
    }
    for v in coeffs {
        carry += v;
        debug_assert_eq!(lo(carry as u64), 0, "NTT product overflows result");
        carry >>= LIMB_BITS;
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

/// The `n`-point working vectors of a product, all `u32` residues: for
/// each output, the first prime's residues and Garner's `t2`; the first
/// factor's spectrum; and the current prime's residues. A single product
/// uses the first output's pair, so four vectors are live (three for a
/// square); a pair ([`mul_wrap_pair_into`]) uses both, six.
#[derive(Default)]
struct Buffers {
    acc: [[Vec<u32>; 2]; 2],
    fa: Vec<u32>,
    fb: Vec<u32>,
}

thread_local! {
    /// This thread's [`Buffers`], taken for the length of one product and
    /// put back after it: vectors that have grown to a size keep it, so
    /// products in the steady state allocate nothing.
    static BUFFERS: Cell<Buffers> = const {
        Cell::new(Buffers {
            acc: [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]],
            fa: Vec::new(),
            fb: Vec::new(),
        })
    };
}

/// `a · bs[i]` modulo `x^n − 1` into `outs[i]` (one or two products, or
/// `a²` when the only factor is `a`), for all three primes, recombined as
/// [`recombine`] describes. Each prime transforms `a` once for all the
/// products, and folds its residues into each product's accumulators as
/// soon as they exist.
#[inline(always)]
fn product(
    isa: KernelIsa,
    a: &[Limb],
    bs: &[&[Limb]],
    n: usize,
    outs: &mut [&mut [Limb]],
    wrap: bool,
    bufs: &mut Buffers,
) {
    debug_assert!(bs.len() == outs.len() && bs.len() <= bufs.acc.len());
    let square = matches!(bs, [b] if core::ptr::eq(a, *b) || a == *b);
    let Buffers { acc, fa, fb } = bufs;
    for prime in 0..3 {
        let tw = shared_twiddles(prime, n);
        if !square {
            first_spectrum(isa, &tw, a, n, fa);
        }
        for ((&b, [r1, t2]), out) in bs.iter().zip(acc.iter_mut()).zip(outs.iter_mut()) {
            let r = if prime == 0 { &mut *r1 } else { &mut *fb };
            if square {
                square_residues(isa, &tw, a, n, r);
            } else {
                times_spectrum(isa, &tw, fa, b, n, r);
            }
            match prime {
                0 => {}
                1 => {
                    garner_fold(isa, r1, fb);
                    core::mem::swap(t2, fb);
                }
                _ => recombine(r1, t2, fb, out, wrap),
            }
        }
    }
}

/// [`product`] with its linear passes — loads, pointwise products, CRT —
/// compiled for `isa` as well; the transforms dispatch on it anyway. Runs
/// on this thread's reused [`Buffers`].
fn product_on(
    isa: KernelIsa,
    a: &[Limb],
    bs: &[&[Limb]],
    n: usize,
    outs: &mut [&mut [Limb]],
    wrap: bool,
) {
    assert!(
        isa.available(),
        "this CPU cannot run the {} kernel",
        isa.name()
    );
    // Taken, not borrowed: a product that re-entered this one would start
    // from empty vectors instead of aliasing these.
    let mut bufs = BUFFERS.take();
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above confirmed AVX-512F.
        KernelIsa::Avx512 => unsafe { product_avx512(a, bs, n, outs, wrap, &mut bufs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the assert above confirmed AVX2.
        KernelIsa::Avx2 => unsafe { product_avx2(a, bs, n, outs, wrap, &mut bufs) },
        _ => product(isa, a, bs, n, outs, wrap, &mut bufs),
    }
    BUFFERS.set(bufs);
}

/// [`product`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn product_avx512(
    a: &[Limb],
    bs: &[&[Limb]],
    n: usize,
    outs: &mut [&mut [Limb]],
    wrap: bool,
    bufs: &mut Buffers,
) {
    product(KernelIsa::Avx512, a, bs, n, outs, wrap, bufs);
}

/// [`product`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_avx2(
    a: &[Limb],
    bs: &[&[Limb]],
    n: usize,
    outs: &mut [&mut [Limb]],
    wrap: bool,
    bufs: &mut Buffers,
) {
    product(KernelIsa::Avx2, a, bs, n, outs, wrap, bufs);
}

/// NTT product `a · b` into `out` (zeroed, `out.len() >= la + lb` where
/// `la`/`lb` are the normalized lengths). Panics (assert) if the product
/// exceeds [`MAX_NTT_TOTAL_LIMBS`]; `mul_dispatch` never routes such
/// operands here.
pub fn mul_ntt_into(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let ran = mul_ntt_into_on(KernelIsa::detect(), out, a, b);
    debug_assert!(ran, "the detected kernel ISA is always available");
}

/// [`mul_ntt_into`] on the given butterfly implementation; `false`, with
/// nothing touched, when this CPU cannot run it.
#[doc(hidden)]
pub fn mul_ntt_into_on(isa: KernelIsa, out: &mut [Limb], a: &[Limb], b: &[Limb]) -> bool {
    if !isa.available() {
        return false;
    }
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    if la == 0 || lb == 0 {
        return true;
    }
    let rl = la + lb;
    assert!(
        rl <= MAX_NTT_TOTAL_LIMBS,
        "NTT product of {rl} limbs exceeds the prime triple's 2-adicity"
    );
    debug_assert!(out.len() >= rl);
    let n = rl.next_power_of_two().max(2);
    product_on(isa, &a[..la], &[&b[..lb]], n, &mut [&mut out[..rl]], false);
    true
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
    let ran = mul_wrap_into_on(KernelIsa::detect(), out, a, b);
    debug_assert!(ran, "the detected kernel ISA is always available");
}

/// [`mul_wrap_into`] on the given butterfly implementation; `false`, with
/// nothing touched, when this CPU cannot run it.
#[doc(hidden)]
pub fn mul_wrap_into_on(isa: KernelIsa, out: &mut [Limb], a: &[Limb], b: &[Limb]) -> bool {
    if !isa.available() {
        return false;
    }
    let n = out.len();
    assert!(
        n >= 2 && n.is_power_of_two() && n <= MAX_NTT_TOTAL_LIMBS,
        "wrapped NTT of {n} limbs is not a supported transform size"
    );
    let la = ops::normalized_len(a);
    let lb = ops::normalized_len(b);
    assert!(la <= n && lb <= n, "wrapped NTT operand exceeds {n} limbs");
    out.fill(0);
    if la != 0 && lb != 0 {
        product_on(isa, &a[..la], &[&b[..lb]], n, &mut [out], true);
    }
    true
}

/// Two wrapped products with one first factor: `a · b₀` and `a · b₁`
/// modulo `β^N − 1` into `out[0]` and `out[1]`, where
/// `N = out[0].len() = out[1].len()` and every operand is as for
/// [`mul_wrap_into`]. The results are bitwise those of the two
/// [`mul_wrap_into`] calls, but `a` is transformed once per prime and its
/// spectrum multiplies both: 5 transforms per prime instead of 6. The
/// price is a fourth live `N`-point vector, the second product's Garner
/// accumulator.
pub fn mul_wrap_pair_into(out: [&mut [Limb]; 2], a: &[Limb], b: [&[Limb]; 2]) {
    let ran = mul_wrap_pair_into_on(KernelIsa::detect(), out, a, b);
    debug_assert!(ran, "the detected kernel ISA is always available");
}

/// [`mul_wrap_pair_into`] on the given butterfly implementation; `false`,
/// with nothing touched, when this CPU cannot run it.
#[doc(hidden)]
pub fn mul_wrap_pair_into_on(
    isa: KernelIsa,
    mut out: [&mut [Limb]; 2],
    a: &[Limb],
    b: [&[Limb]; 2],
) -> bool {
    if !isa.available() {
        return false;
    }
    let n = out[0].len();
    assert!(
        out[1].len() == n && n >= 2 && n.is_power_of_two() && n <= MAX_NTT_TOTAL_LIMBS,
        "wrapped NTT pair of {n} and {} limbs is not a supported transform size",
        out[1].len()
    );
    let la = ops::normalized_len(a);
    let [b0, b1] = b.map(|b| &b[..ops::normalized_len(b)]);
    assert!(
        la <= n && b0.len() <= n && b1.len() <= n,
        "wrapped NTT operand exceeds {n} limbs"
    );
    // A zero operand loads as a zero vector, so it needs no special case;
    // the recombination writes every limb of both outputs.
    product_on(isa, &a[..la], &[b0, b1], n, &mut out, true);
    true
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
            for x in [0, 1, 2, p - 1, p, 0x1234_5678, u32::MAX] {
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
    fn smaller_tables_are_prefixes_of_larger_ones() {
        // The shared tables serve every smaller transform from their
        // prefix: the n-point table must be exactly the first n − 1
        // entries of the 2n-point one, for every prime.
        for prime in 0..3 {
            let mut larger = Twiddles::new(prime, 2);
            for log_n in 1..16 {
                let n = 1usize << log_n;
                let table = larger;
                larger = Twiddles::new(prime, 2 * n);
                assert_eq!(
                    table.table[..],
                    larger.table[..n - 1],
                    "prime {prime}, n = {n}"
                );
            }
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
