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
//! **Arithmetic.** Values are canonical residues in `[0, p)`, and every
//! multiply is a Montgomery multiply (R = 2³²) by a constant held in
//! Montgomery form: one 32×32→64 product, a 32-bit low multiply, a second
//! 32×32→64 product and a shift, with the conditional subtract as a
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
//! prime in as soon as its residues exist (`garner_fold`, `recombine`), so
//! three `n`-point vectors are live per product instead of four.
//!
//! **Pairs.** [`mul_wrap_pair_into`] computes `a·b₀` and `a·b₁` modulo
//! `β^N − 1` for one first factor `a`, as the scaled remainder tree's
//! sibling steps need: each prime transforms `a` once and multiplies its
//! spectrum into both, 5 transforms per prime where two products take 6.
//! The second product's Garner accumulator is a fourth live `n`-point
//! vector, kept with the other three in the thread's reused buffers. The
//! outputs are bitwise those of two [`mul_wrap_into`] calls.
//!
//! **ISA dispatch.** The butterflies have one portable scalar body, which
//! is the oracle; an AVX2 build of that same body (autovectorized under
//! `#[target_feature]`); and a hand-written AVX-512F kernel, eight `u64`
//! lanes per zmm with `vpmuludq` Montgomery products and `vpminuq`
//! conditional subtracts. Its stages of half-size ≥ 8 stream over the
//! array two at a time; the three smallest stages run as one in-register
//! pass over each 8-coefficient block, with lane permutes. The loads,
//! pointwise products and CRT pass are compiled for the same ISA.
//! [`crate::kernel_isa`] names the path, picked once per product by the
//! probe the lockstep vector pass uses, and [`transform_on`] reaches each
//! path for tests and benches. All paths compute canonical residues, so
//! their outputs are bitwise-identical.

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
const PRIMES: [(u64, u64); 3] = [(2_013_265_921, 31), (1_811_939_329, 13), (2_113_929_217, 5)];

/// Montgomery arithmetic mod one NTT prime, R = 2³². Every prime is below
/// 2³¹, so sums of two residues, and `x + p − y`, stay below 2³².
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

    /// `x mod p` for `x < 2p`: `x − p` wraps above `x` exactly when
    /// `x < p`, so the smaller of the two is the residue. Branchless — on
    /// random transform data a compare-branch is a coin flip.
    #[inline(always)]
    fn reduce_once(&self, x: u64) -> u64 {
        x.min(x.wrapping_sub(self.p))
    }

    /// Montgomery reduction of `t < p·2³²`: returns `t·R⁻¹ mod p`.
    #[inline(always)]
    fn redc(&self, t: u64) -> u64 {
        // m = (t mod R)·(-p⁻¹) mod R; then (t + m·p) is divisible by R.
        // t < p·2³² < 2⁶³ and m·p < 2³²·p < 2⁶³, so the sum cannot wrap.
        let m = lo(t).wrapping_mul(self.ninv32) as u64;
        self.reduce_once((t + m * lo(self.p) as u64) >> LIMB_BITS)
    }

    /// `x·y·R⁻¹ mod p` for `x < 2³²` and `y < p`. Both factors are read
    /// as 32-bit words, which is what lets the autovectorizer use one
    /// 32×32→64 lane multiply.
    #[inline(always)]
    fn mul(&self, x: u64, y: u64) -> u64 {
        debug_assert!(x >> LIMB_BITS == 0 && y < self.p);
        self.redc(lo(x) as u64 * lo(y) as u64)
    }

    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        self.reduce_once(a + b)
    }

    #[inline(always)]
    fn sub(&self, a: u64, b: u64) -> u64 {
        self.reduce_once(a + self.p - b)
    }

    /// `1` in Montgomery form (`R mod p`).
    #[inline]
    fn one(&self) -> u64 {
        self.redc(self.r2)
    }

    /// Enter Montgomery form (`x < 2³²`).
    #[inline]
    fn to_mont(&self, x: u64) -> u64 {
        self.redc(x * self.r2)
    }

    /// Leave Montgomery form.
    #[cfg(test)]
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
        let root = field.pow(field.to_mont(g), (p - 1) / n as u64);
        let top = n / 2;
        let mut table = vec![0u32; n - 1];
        let seg = &mut table[top - 1..];
        seg[0] = lo(field.one());
        for j in 1..TW_BLOCK.min(top) {
            seg[j] = lo(field.mul(seg[j - 1] as u64, root));
        }
        if top > TW_BLOCK {
            let step = field.mul(seg[TW_BLOCK - 1] as u64, root);
            for b in 1..top / TW_BLOCK {
                let (done, rest) = seg.split_at_mut(b * TW_BLOCK);
                let prev = &done[(b - 1) * TW_BLOCK..];
                for (t, &w) in rest[..TW_BLOCK].iter_mut().zip(prev) {
                    *t = lo(field.mul(w as u64, step));
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
    pub fn prime(&self) -> u64 {
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
pub fn transform_on(isa: KernelIsa, tw: &Twiddles, a: &mut [u64], inverse: bool) -> bool {
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
fn transform(isa: KernelIsa, f: &Field, tw: &[u32], a: &mut [u64], inverse: bool) {
    debug_assert!(tw.len() + 1 >= a.len());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every caller checked `isa.available()`, here AVX-512F.
        KernelIsa::Avx512 if a.len() >= 8 => unsafe { avx512::transform(f, a, tw, inverse) },
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
fn transform_portable(f: &Field, a: &mut [u64], tw: &[u32], inverse: bool) {
    let n = a.len();
    if inverse {
        // Decimation in time: u, v ← u + w·v, u − w·v.
        let mut half = 1;
        while half < n {
            let seg = &tw[half - 1..2 * half - 1];
            for chunk in a.chunks_exact_mut(2 * half) {
                let (us, vs) = chunk.split_at_mut(half);
                for ((u, v), &w) in us.iter_mut().zip(vs.iter_mut()).zip(seg) {
                    let (x, t) = (*u, f.mul(*v, w as u64));
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
                    *v = f.mul(x + f.p - y, w as u64);
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
fn transform_avx2(f: &Field, a: &mut [u64], tw: &[u32], inverse: bool) {
    transform_portable(f, a, tw, inverse);
}

/// The hand-written AVX-512F transform: eight `u64` lanes of canonical
/// residues per zmm, so `vpmuludq` reads each lane's value whole. All
/// indexing is bounds-checked slicing; the only raw accesses are the
/// eight-lane loads and stores of `load8`, `load8w` and `store8`, each on
/// a slice of exactly eight words. The twiddles are stored as `u32` and
/// zero-extended on load.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::Field;
    use std::arch::x86_64::*;

    /// Lanes `s[j..j + 8]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load8(s: &[u64], j: usize) -> __m512i {
        let s = &s[j..j + 8];
        // SAFETY: `s` is exactly eight `u64`s, one zmm.
        unsafe { _mm512_loadu_si512(s.as_ptr().cast()) }
    }

    /// Twiddles `s[j..j + 8]`, zero-extended to `u64` lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn load8w(s: &[u32], j: usize) -> __m512i {
        let s = &s[j..j + 8];
        // SAFETY: `s` is exactly eight `u32`s, one ymm.
        _mm512_cvtepu32_epi64(unsafe { _mm256_loadu_si256(s.as_ptr().cast()) })
    }

    /// Store `x` to `s[j..j + 8]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn store8(s: &mut [u64], j: usize, x: __m512i) {
        let s = &mut s[j..j + 8];
        // SAFETY: `s` is exactly eight `u64`s, one zmm.
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
                p: _mm512_set1_epi64(f.p as i64),
                ninv: _mm512_set1_epi64(f.ninv32 as i64),
            }
        }

        /// `x mod p` for lanes `x < 2p`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn reduce(self, x: __m512i) -> __m512i {
            _mm512_min_epu64(x, _mm512_sub_epi64(x, self.p))
        }

        /// [`Field::mul`] per lane: `x < 2³²`, `y < p`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn mul(self, x: __m512i, y: __m512i) -> __m512i {
            let t = _mm512_mul_epu32(x, y);
            // `vpmuludq` reads the low word of `m`: m mod R, as in `redc`.
            let m = _mm512_mul_epu32(t, self.ninv);
            let s = _mm512_add_epi64(t, _mm512_mul_epu32(m, self.p));
            self.reduce(_mm512_srli_epi64::<32>(s))
        }

        #[target_feature(enable = "avx512f")]
        #[inline]
        fn add(self, x: __m512i, y: __m512i) -> __m512i {
            self.reduce(_mm512_add_epi64(x, y))
        }

        /// `x + p − y`, below 2p and not yet reduced.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn diff(self, x: __m512i, y: __m512i) -> __m512i {
            _mm512_sub_epi64(_mm512_add_epi64(x, self.p), y)
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
    }

    /// One stage of the in-register block pass on an 8-lane block `x`:
    /// lane `l` pairs with lane `l ^ h`. `lo`/`hi` gather each pair's lower
    /// and upper element into every lane, `w` holds each pair's twiddle
    /// (`None` for h = 1, whose twiddle is 1), and `upper` marks the lanes
    /// that take the pair's second output.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn block_stage(
        k: Mod,
        x: __m512i,
        [lo, hi]: [__m512i; 2],
        w: Option<__m512i>,
        upper: __mmask8,
        inverse: bool,
    ) -> __m512i {
        let (u, v) = (
            _mm512_permutexvar_epi64(lo, x),
            _mm512_permutexvar_epi64(hi, x),
        );
        let (s, d) = match (w, inverse) {
            (Some(w), false) => k.dif(u, v, w),
            (Some(w), true) => k.dit(u, v, w),
            (None, _) => (k.add(u, v), k.reduce(k.diff(u, v))),
        };
        _mm512_mask_blend_epi64(upper, s, d)
    }

    /// The lane indices of stage `h`'s lower and upper pair elements.
    #[target_feature(enable = "avx512f")]
    fn pair_lanes(h: i64) -> [__m512i; 2] {
        let lane = |l: i64, bit: i64| (l & !h) | bit;
        let idx = |bit: i64| {
            _mm512_setr_epi64(
                lane(0, bit),
                lane(1, bit),
                lane(2, bit),
                lane(3, bit),
                lane(4, bit),
                lane(5, bit),
                lane(6, bit),
                lane(7, bit),
            )
        };
        [idx(0), idx(h)]
    }

    /// Stage `h`'s twiddle for every lane, `seg[l mod h]`.
    #[target_feature(enable = "avx512f")]
    fn lane_twiddles(seg: &[u32]) -> __m512i {
        let h = seg.len();
        let w = |l: usize| seg[l % h] as i64;
        _mm512_setr_epi64(w(0), w(1), w(2), w(3), w(4), w(5), w(6), w(7))
    }

    /// Stage `half`'s twiddle segment.
    fn segment(tw: &[u32], half: usize) -> &[u32] {
        &tw[half - 1..2 * half - 1]
    }

    /// One streamed stage, half-size `half ≥ 8`: DIF, or DIT for `inverse`.
    #[target_feature(enable = "avx512f")]
    fn stage(k: Mod, a: &mut [u64], tw: &[u32], half: usize, inverse: bool) {
        let seg = segment(tw, half);
        for chunk in a.chunks_exact_mut(2 * half) {
            let (us, vs) = chunk.split_at_mut(half);
            for j in (0..half).step_by(8) {
                let (u, v, w) = (load8(us, j), load8(vs, j), load8w(seg, j));
                let (x, y) = if inverse {
                    k.dit(u, v, w)
                } else {
                    k.dif(u, v, w)
                };
                store8(us, j, x);
                store8(vs, j, y);
            }
        }
    }

    /// Two streamed stages in one sweep, the radix-2 butterflies of stages
    /// `2q` and `q` (`q ≥ 8`) on each quartet `a[j + {0, q, 2q, 3q}]` held
    /// in registers: DIF runs stage `2q` first, DIT (`inverse`) stage `q`
    /// first. The arithmetic is that of two [`stage`] calls.
    #[target_feature(enable = "avx512f")]
    fn stage_pair(k: Mod, a: &mut [u64], tw: &[u32], q: usize, inverse: bool) {
        let (outer, inner) = (segment(tw, 2 * q), segment(tw, q));
        for chunk in a.chunks_exact_mut(4 * q) {
            let (lo, hi) = chunk.split_at_mut(2 * q);
            let (s0, s1) = lo.split_at_mut(q);
            let (s2, s3) = hi.split_at_mut(q);
            for j in (0..q).step_by(8) {
                let x = [load8(s0, j), load8(s1, j), load8(s2, j), load8(s3, j)];
                let (wa, wb, wi) = (load8w(outer, j), load8w(outer, j + q), load8w(inner, j));
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
                store8(s0, j, z[0]);
                store8(s1, j, z[1]);
                store8(s2, j, z[2]);
                store8(s3, j, z[3]);
            }
        }
    }

    /// The three smallest stages (h = 4, 2, 1) of every 8-coefficient
    /// block, in registers.
    #[target_feature(enable = "avx512f")]
    fn block_pass(k: Mod, a: &mut [u64], tw: &[u32], inverse: bool) {
        let stages = [
            (pair_lanes(4), Some(lane_twiddles(segment(tw, 4))), 0xf0),
            (pair_lanes(2), Some(lane_twiddles(segment(tw, 2))), 0xcc),
            (pair_lanes(1), None, 0xaa),
        ];
        for j in (0..a.len()).step_by(8) {
            let mut x = load8(a, j);
            if inverse {
                for &(idx, w, upper) in stages.iter().rev() {
                    x = block_stage(k, x, idx, w, upper, true);
                }
            } else {
                for &(idx, w, upper) in &stages {
                    x = block_stage(k, x, idx, w, upper, false);
                }
            }
            store8(a, j, x);
        }
    }

    /// The transform of [`super::transform_portable`], bit for bit, for a
    /// power-of-two `a.len() ≥ 8` and a twiddle table `tw` of at least
    /// that size. Stages of
    /// half-size ≥ 8 stream in pairs ([`stage_pair`]), the three smallest
    /// run in registers ([`block_pass`]).
    #[target_feature(enable = "avx512f")]
    pub(super) fn transform(f: &Field, a: &mut [u64], tw: &[u32], inverse: bool) {
        let n = a.len();
        let k = Mod::new(f);
        if inverse {
            block_pass(k, a, tw, true);
            let mut half = 8;
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
            while half >= 16 {
                stage_pair(k, a, tw, half / 2, false);
                half /= 4;
            }
            if half == 8 {
                stage(k, a, tw, half, false);
            }
            block_pass(k, a, tw, false);
        }
    }
}

/// Load `x` into `v` as an `n`-point vector of residues `redc(x_i · k)`,
/// zero-padded.
#[inline(always)]
fn load(f: &Field, x: &[Limb], k: u64, n: usize, v: &mut Vec<u64>) {
    v.resize(n, 0);
    let (head, tail) = v.split_at_mut(x.len());
    for (v, &w) in head.iter_mut().zip(x) {
        *v = f.mul(w as u64, k);
    }
    tail.fill(0);
}

/// The spectrum of the first factor `a` on the prime of `tw`, into `fa`:
/// loaded with `n⁻¹` folded in (see the module docs) and
/// forward-transformed.
#[inline(always)]
fn first_spectrum(isa: KernelIsa, tw: &Twiddles, a: &[Limb], n: usize, fa: &mut Vec<u64>) {
    let f = &tw.field;
    load(f, a, inv_n_load(f, n), n, fa);
    transform(isa, f, &tw.table, fa, false);
}

/// `R²·n⁻¹ mod p`: `n⁻¹` in Montgomery form, times R once more. Loading
/// the first factor with it scales the product by `n⁻¹`.
#[inline(always)]
fn inv_n_load(f: &Field, n: usize) -> u64 {
    f.mul(f.pow(f.to_mont(n as u64), f.p - 2), f.r2)
}

/// The residues of `a · b` on the prime of `tw`, in normal form, into
/// `r`, from `a`'s spectrum `fa` ([`first_spectrum`]): forward-transform
/// `b`, multiply pointwise and transform back.
#[inline(always)]
fn times_spectrum(
    isa: KernelIsa,
    tw: &Twiddles,
    fa: &[u64],
    b: &[Limb],
    n: usize,
    r: &mut Vec<u64>,
) {
    let f = &tw.field;
    load(f, b, f.one(), n, r);
    transform(isa, f, &tw.table, r, false);
    for (y, &x) in r.iter_mut().zip(fa) {
        *y = f.mul(x, *y);
    }
    transform(isa, f, &tw.table, r, true);
}

/// The residues of `a²` on the prime of `tw`, in normal form, into `r`:
/// one forward transform, a pointwise square times `n⁻¹`, and the
/// inverse.
#[inline(always)]
fn square_residues(isa: KernelIsa, tw: &Twiddles, a: &[Limb], n: usize, r: &mut Vec<u64>) {
    let f = &tw.field;
    let scaled = inv_n_load(f, n);
    load(f, a, f.one(), n, r);
    transform(isa, f, &tw.table, r, false);
    for x in r.iter_mut() {
        *x = f.mul(f.mul(*x, *x), scaled);
    }
    transform(isa, f, &tw.table, r, true);
}

/// Garner's first step, folded in as soon as the second prime's residues
/// `r2` exist: `t2 = (r2 − r1)·p₁⁻¹ mod p₂`, packed next to `r1` as
/// `r1 | t2 << 32` (both are below 2³¹). The mixed-radix value is
/// `v = r1 + p₁·t2 + p₁p₂·t3`.
#[inline(always)]
fn garner_fold(r1t2: &mut [u64], r2: &[u64]) {
    let [p1, p2] = [PRIMES[0].0, PRIMES[1].0];
    let f2 = Field::new(p2);
    // p₁⁻¹ mod p₂ in Montgomery form, so that one `mul` applies it.
    let inv_p1 = f2.pow(f2.to_mont(p1 - p2), p2 - 2);
    for (r1, &r2) in r1t2.iter_mut().zip(r2) {
        // r1 < p1 < 2·p2 reduces mod p2 with one subtract.
        let t2 = f2.mul(f2.sub(r2, f2.reduce_once(*r1)), inv_p1);
        *r1 |= t2 << LIMB_BITS;
    }
}

/// Finish the CRT from the packed `r1 | t2 << 32` vector and the third
/// prime's residues `r3`, and propagate carries, writing the low
/// `out.len()` limbs of the product into `out`. An acyclic product must
/// fit `out` exactly (the final carry is debug-asserted zero); a `wrap`
/// (cyclic) product has `out.len() == n` and folds its final carry back
/// in at limb 0, since `β^n ≡ 1 (mod β^n − 1)`.
///
/// The last Garner step is one pass that is independent per coefficient
/// (so it vectorizes) and leaves `r1 + p₁·t2` and `t3` in place; a serial
/// pass then adds up the carries.
#[inline(always)]
fn recombine(r1t2: &mut [u64], r3: &mut [u64], out: &mut [Limb], wrap: bool) {
    let [p1, p2, p3] = [PRIMES[0].0, PRIMES[1].0, PRIMES[2].0];
    let f3 = Field::new(p3);
    // p₁p₂ < 2⁶², exact in u64. Garner's constants are in Montgomery form
    // so that one `mul` applies each: p₁ mod p₃ and (p₁p₂)⁻¹ mod p₃.
    let p1p2 = p1 * p2;
    let p1_mod_p3 = f3.to_mont(p1);
    let inv_p1p2 = f3.pow(f3.to_mont(p1p2 % p3), p3 - 2);
    for (v12, r3) in r1t2.iter_mut().zip(r3.iter_mut()) {
        // r1 < p1 < p3 is already reduced mod p3.
        let (r1, t2) = (lo(*v12) as u64, hi(*v12) as u64);
        let v12m = f3.add(r1, f3.mul(t2, p1_mod_p3));
        *r3 = f3.mul(f3.sub(*r3, v12m), inv_p1p2);
        *v12 = r1 + t2 * p1; // < p1·p2 < 2⁶²
    }

    // v < p1·p2·p3 < 2⁹³.
    let mut coeffs = r1t2
        .iter()
        .zip(r3.iter())
        .map(|(&v12, &t3)| v12 as u128 + p1p2 as u128 * t3 as u128);
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

/// The `n`-point working vectors of a product: the packed Garner
/// accumulator of each output, the first factor's spectrum and the
/// current prime's residues. A single product uses the first accumulator,
/// so three vectors are live; a pair ([`mul_wrap_pair_into`]) uses both,
/// four.
#[derive(Default)]
struct Buffers {
    acc: [Vec<u64>; 2],
    fa: Vec<u64>,
    fb: Vec<u64>,
}

thread_local! {
    /// This thread's [`Buffers`], taken for the length of one product and
    /// put back after it: vectors that have grown to a size keep it, so
    /// products in the steady state allocate nothing.
    static BUFFERS: Cell<Buffers> = const {
        Cell::new(Buffers {
            acc: [Vec::new(), Vec::new()],
            fa: Vec::new(),
            fb: Vec::new(),
        })
    };
}

/// `a · bs[i]` modulo `x^n − 1` into `outs[i]` (one or two products, or
/// `a²` when the only factor is `a`), for all three primes, recombined as
/// [`recombine`] describes. Each prime transforms `a` once for all the
/// products, and folds its residues into each product's accumulator as
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
        for ((&b, acc), out) in bs.iter().zip(acc.iter_mut()).zip(outs.iter_mut()) {
            let r = if prime == 0 { &mut *acc } else { &mut *fb };
            if square {
                square_residues(isa, &tw, a, n, r);
            } else {
                times_spectrum(isa, &tw, fa, b, n, r);
            }
            match prime {
                0 => {}
                1 => garner_fold(acc, fb),
                _ => recombine(acc, fb, out, wrap),
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
