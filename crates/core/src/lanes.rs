//! Branch-minimized per-lane step primitives for lockstep (SIMT-style)
//! execution of Approximate Euclid.
//!
//! A real GPU runs one warp instruction across all lanes per cycle; the
//! host-side lockstep engine (`bulkgcd-bulk`'s `lockstep` module) mirrors
//! that by splitting every AEA iteration into
//!
//! 1. a **planning step** ([`plan_lanes`]) over the warp's per-lane head
//!    registers ([`LaneHeads`]: the lengths plus the paper's §IV head words,
//!    the top two and bottom two words of `X` and `Y`). One branch-free
//!    pass applies the termination tests and plans the overwhelmingly
//!    common fused update; the few lanes it cannot plan that way (short
//!    operands, β > 0, deep shifts) go through the scalar oracle
//!    [`plan_lane`] onto one of the rare scalar paths, and
//! 2. a **shared vector pass** ([`fused_submul_rshift_columns`]) that
//!    applies `X ← rshift(X − α·Y)` to every fused lane at once over
//!    column-major operand planes, and reports per lane what the next
//!    iteration needs ([`PassOut`]): the new `lX`, the `X < Y` verdict and
//!    the new head words. It dispatches at run time ([`kernel_isa`]) to a
//!    hand-written AVX-512F lane-block kernel, to the portable body
//!    autovectorized for AVX2, or to the portable body itself, which is
//!    the oracle the other two are tested against bit for bit.
//!
//! The vector pass is numerically identical to the scalar
//! `ops::fused_submul_rshift` single-pass loop: same difference limb
//! stream, same shift-emission, same carry discipline. Lanes that are
//! masked off (terminated, or planned onto a scalar path) participate with
//! `α = 0, rs = 0`, which makes the pass an exact identity on their
//! columns — no masking logic in the inner loop at all.

use crate::approx::{approx_top_words, ApproxCase};
pub use bulkgcd_bigint::isa::{kernel_isa, KernelIsa};
use bulkgcd_bigint::{Limb, LIMB_BITS};

/// What one lockstep iteration does to one lane, decided from O(1) words.
///
/// The variants are ordered from common to vanishingly rare; everything but
/// [`LanePlan::Fused`] is executed by a per-lane scalar fixup outside the
/// vector pass (the lockstep analogue of warp divergence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePlan {
    /// The fused β = 0 update `X ← rshift(X − α·Y)` with an odd single-word
    /// `α` and an intra-word shift `1 ≤ rs < 32`: the vector-pass fast path.
    Fused {
        /// Odd single-word quotient digit.
        alpha: Limb,
        /// Trailing-zero count of the difference (bits stripped).
        rs: u32,
    },
    /// β = 0 but the difference has ≥ 32 trailing zero bits (or is zero):
    /// the scalar two-pass fallback, exactly like `fused_submul_rshift`'s.
    DeepShift {
        /// Odd single-word quotient digit.
        alpha: Limb,
    },
    /// Case 1 produced an exact quotient wider than one word; `X` and `Y`
    /// fit in 64 bits, so the lane finishes with plain 64-bit arithmetic.
    WideAlpha {
        /// The exact (odd-forced) quotient, up to 64 bits.
        alpha: u64,
    },
    /// The rare β > 0 divergent path: `X ← rshift(X − (α·D^β − 1)·Y)`.
    BetaPositive {
        /// Single-word quotient digit (β > 0 guarantees it fits).
        alpha: Limb,
        /// Word-shift exponent.
        beta: usize,
    },
}

impl LanePlan {
    /// True for the β > 0 divergent branch (the `ApproxBetaPositive` step
    /// kind); everything else is a β = 0 step.
    #[inline]
    pub fn is_beta_positive(&self) -> bool {
        matches!(self, LanePlan::BetaPositive { .. })
    }
}

/// Force a β = 0 quotient odd so the difference `X − α·Y` is even,
/// branchlessly: `α − 1` when even, unchanged when odd.
#[inline(always)]
pub fn force_odd(alpha: u64) -> u64 {
    alpha.wrapping_sub(!alpha & 1)
}

/// Low 64 bits of `X − α·Y` computed exactly as the scalar
/// `fused_submul_rshift` low-2 probe: `x_lo`/`y_lo` pack limbs 0 and 1
/// (little-endian; the high half must be 0 when the operand has fewer than
/// two limbs), and a single-limb `X` contributes only its limb 0 — the
/// same `0..2.min(lx)` loop bound as the scalar code.
#[inline(always)]
pub fn low_diff64(x_lo: u64, y_lo: u64, lx: usize, alpha: Limb) -> u64 {
    let x0 = x_lo as Limb;
    let p0 = alpha as u64 * (y_lo as Limb) as u64;
    let d0 = x0.wrapping_sub(p0 as Limb);
    let carry = (p0 >> LIMB_BITS) + (x0 < p0 as Limb) as u64;
    let x1 = (x_lo >> LIMB_BITS) as Limb;
    let p1 = alpha as u64 * (y_lo >> LIMB_BITS) + carry;
    // A single-limb X stops after limb 0: mask the high half off.
    let d1 = x1.wrapping_sub(p1 as Limb) & ((lx >= 2) as Limb).wrapping_neg();
    (d1 as u64) << LIMB_BITS | d0 as u64
}

/// Plan one AEA iteration for one lane from its O(1) head words.
///
/// `x_top`/`y_top` are the operands' top-two-word values (whole value when
/// the operand spans ≤ 2 limbs — see
/// [`approx_top_words`](crate::approx::approx_top_words)); `x_lo`/`y_lo`
/// pack limbs 0 and 1 (high half 0 when shorter). Requires `X ≥ Y > 0`.
///
/// Returns the plan plus the `(α, β, case)` the iteration would report to a
/// probe — with α already forced odd on the β = 0 paths, matching
/// `approximate_euclid_loop` exactly. This is the scalar oracle of
/// [`plan_lanes`], and the path it takes for the lanes its branch-free
/// pass leaves out.
pub fn plan_lane(
    x_top: u64,
    x_lo: u64,
    lx: usize,
    y_top: u64,
    y_lo: u64,
    ly: usize,
) -> (LanePlan, u64, usize, ApproxCase) {
    let a = approx_top_words(x_top, lx, y_top, ly);
    // analyze: allow(cf-branch, reason = "beta > 0 is the paper's rare divergent case; the lane leaves the vector pass by design")
    if a.beta > 0 {
        // β > 0 guarantees α fits one word (§III).
        // analyze: allow(cf-early-return, reason = "divergent-lane exit paired with the beta > 0 branch above")
        return (
            LanePlan::BetaPositive {
                alpha: a.alpha as Limb,
                beta: a.beta,
            },
            a.alpha,
            a.beta,
            a.case,
        );
    }
    let alpha = force_odd(a.alpha);
    // analyze: allow(cf-branch, reason = "WideAlpha: a two-word quotient needs the 64-bit scalar finish; divergent by design")
    if alpha > Limb::MAX as u64 {
        // Case 1 can produce a two-word exact quotient; X fits in 64 bits.
        // analyze: allow(cf-early-return, reason = "divergent-lane exit paired with the WideAlpha branch above")
        return (LanePlan::WideAlpha { alpha }, alpha, 0, a.case);
    }
    let alpha = alpha as Limb;
    let low = low_diff64(x_lo, y_lo, lx, alpha);
    // analyze: allow(cf-branch, reason = "DeepShift classification: a zero low difference forces the scalar two-pass path")
    let plan = if low == 0 {
        LanePlan::DeepShift { alpha }
    } else {
        let rs = low.trailing_zeros();
        // analyze: allow(cf-branch, reason = "DeepShift classification: a full-word shift leaves the fused path")
        if rs >= LIMB_BITS {
            LanePlan::DeepShift { alpha }
        } else {
            LanePlan::Fused { alpha, rs }
        }
    };
    (plan, alpha as u64, 0, a.case)
}

/// Where a lane of a lockstep run stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LaneState {
    /// Still iterating.
    Running,
    /// `Y` reached 0: `X` holds the GCD.
    Done,
    /// Early termination fired: `Y` fell below the bit threshold.
    Early,
}

/// The head words of an operand of `l` limbs, read through `limb(k)`:
/// `(top, low)` with `top = limb(l−1)·D + limb(l−2)` and
/// `low = limb(1)·D + limb(0)`, where a row that does not exist (below
/// row 0, or at or above `l`) reads 0. That is the padded column's own
/// content, so `top` and `low` equal a strided gather of the rows.
///
/// For `l ≤ 2` the whole value is `low`; [`plan_lanes`] hands that, not
/// `top`, to [`plan_lane`] as the top-two-word value.
#[inline]
pub fn head_words(l: usize, limb: impl Fn(usize) -> Limb) -> (u64, u64) {
    let word = |k: usize, present: bool| if present { limb(k) as u64 } else { 0 };
    let top = word(l.wrapping_sub(1), l >= 1) << LIMB_BITS | word(l.wrapping_sub(2), l >= 2);
    let low = word(1, l >= 2) << LIMB_BITS | word(0, l >= 1);
    (top, low)
}

/// A warp's per-lane head registers: each lane's operand lengths and the
/// §IV head words of `X` and `Y` (see [`head_words`]). The planner reads
/// only these; the engine keeps them current from the vector pass's
/// [`PassOut`], so no iteration gathers them from the column planes.
#[derive(Debug, Clone)]
pub struct LaneHeads {
    /// `lX` per lane.
    pub lx: Vec<u32>,
    /// `lY` per lane.
    pub ly: Vec<u32>,
    /// `X`'s top-two words per lane.
    pub xt: Vec<u64>,
    /// `X`'s low-two words per lane.
    pub xl: Vec<u64>,
    /// `Y`'s top-two words per lane.
    pub yt: Vec<u64>,
    /// `Y`'s low-two words per lane.
    pub yl: Vec<u64>,
}

impl LaneHeads {
    /// Registers for `w` lanes, all zero.
    pub fn new(w: usize) -> Self {
        LaneHeads {
            lx: vec![0; w],
            ly: vec![0; w],
            xt: vec![0; w],
            xl: vec![0; w],
            yt: vec![0; w],
            yl: vec![0; w],
        }
    }

    /// Set lane `t`'s `X` registers: length `l`, head words `(top, low)`.
    #[inline]
    pub fn set_x(&mut self, t: usize, l: usize, (top, low): (u64, u64)) {
        self.lx[t] = l as u32;
        self.xt[t] = top;
        self.xl[t] = low;
    }

    /// Set lane `t`'s `Y` registers: length `l`, head words `(top, low)`.
    #[inline]
    pub fn set_y(&mut self, t: usize, l: usize, (top, low): (u64, u64)) {
        self.ly[t] = l as u32;
        self.yt[t] = top;
        self.yl[t] = low;
    }

    /// Exchange lane `t`'s `X` and `Y` registers (the register half of the
    /// pointer swap).
    #[inline]
    pub fn swap_xy(&mut self, t: usize) {
        core::mem::swap(&mut self.lx[t], &mut self.ly[t]);
        core::mem::swap(&mut self.xt[t], &mut self.yt[t]);
        core::mem::swap(&mut self.xl[t], &mut self.yl[t]);
    }

    /// The epilogue of a vector pass over lanes `0..lanes`, branch-free:
    /// every fused lane (`alpha ≠ 0`) takes `out`'s new `lX` and head
    /// words, and where `out` found `X < Y` its selector mask flips and its
    /// `X` and `Y` registers swap. Other lanes keep their registers.
    pub fn take_pass(&mut self, lanes: usize, alpha: &[Limb], out: &PassOut, sel: &mut [Limb]) {
        assert!(out.lanes() >= lanes);
        // A 0 / all-ones limb mask widened to 64 bits.
        let wide = |m: Limb| (m as u64) << LIMB_BITS | m as u64;
        let (alpha, sel) = (&alpha[..lanes], &mut sel[..lanes]);
        let (lx, ly) = (&mut self.lx[..lanes], &mut self.ly[..lanes]);
        let (xt, xl) = (&mut self.xt[..lanes], &mut self.xl[..lanes]);
        let (yt, yl) = (&mut self.yt[..lanes], &mut self.yl[..lanes]);
        for t in 0..lanes {
            let fused = ((alpha[t] != 0) as Limb).wrapping_neg();
            let swap = out.less[t] & fused;
            let (f, s) = (wide(fused), wide(swap));
            let (top, low) = out.heads(t);
            let nlx = (out.len[t] & fused) | (lx[t] & !fused);
            let nxt = (top & f) | (xt[t] & !f);
            let nxl = (low & f) | (xl[t] & !f);
            let (oly, oyt, oyl) = (ly[t], yt[t], yl[t]);
            sel[t] ^= swap;
            lx[t] = (oly & swap) | (nlx & !swap);
            ly[t] = (nlx & swap) | (oly & !swap);
            xt[t] = (oyt & s) | (nxt & !s);
            yt[t] = (nxt & s) | (oyt & !s);
            xl[t] = (oyl & s) | (nxl & !s);
            yl[t] = (nxl & s) | (oyl & !s);
        }
    }

    /// Copy lane `src`'s registers onto lane `dst` (a compaction move).
    #[inline]
    pub fn copy_lane(&mut self, src: usize, dst: usize) {
        self.lx[dst] = self.lx[src];
        self.ly[dst] = self.ly[src];
        self.xt[dst] = self.xt[src];
        self.xl[dst] = self.xl[src];
        self.yt[dst] = self.yt[src];
        self.yl[dst] = self.yl[src];
    }
}

/// One lockstep iteration's plan for a warp's resident prefix, as
/// [`plan_lanes`] writes it. Sized once per warp; planning allocates
/// nothing after the first iterations have grown `fixups`.
#[derive(Debug, Clone)]
pub struct LanePlans {
    /// Per lane: the fused multiplier, 0 when the lane sits the vector pass
    /// out (terminated, or planned onto a scalar path).
    pub alpha: Vec<Limb>,
    /// Per lane: the fused shift, 0 when masked.
    pub rs: Vec<u32>,
    /// The lanes planned onto a scalar path, in lane order.
    pub fixups: Vec<(usize, LanePlan)>,
    /// The vector pass's trip count: the largest `lX` over the fused lanes
    /// (0 when no lane is fused).
    pub rows: usize,
    /// Lanes still running after this iteration's termination tests.
    pub running: usize,
    /// Per lane: 1 when the branch-free pass left the lane to the scalar
    /// path (termination or [`plan_lane`]).
    rare: Vec<u8>,
}

impl LanePlans {
    /// Plan storage for `w` lanes.
    pub fn new(w: usize) -> Self {
        LanePlans {
            alpha: vec![0; w],
            rs: vec![0; w],
            fixups: Vec::with_capacity(w),
            rows: 0,
            running: 0,
            rare: vec![0; w],
        }
    }
}

/// `n / d` for `d ≥ 1`, exact whenever the quotient is below 2³² (the
/// only quotients [`plan_lanes`] keeps). An f64 estimate, rounded so that
/// it never exceeds the true quotient and falls short of it by at most 1,
/// then one exact correction upward.
///
/// Below 2³² the estimate's relative error (three roundings, ≤ 3·2⁻⁵³)
/// is under 2⁻¹⁹ in absolute terms, so rounding `n/d − ½ − 2⁻¹⁸` to the
/// nearest integer gives `⌊n/d⌋ − 1` or `⌊n/d⌋`, and `n − q·d` cannot wrap.
/// The conversions are the exponent-bias kind (2⁵² and 2⁸⁴ magic
/// numbers): plain integer and float operations that vectorize on every
/// ISA, where a hardware 64-bit division does not.
#[inline(always)]
fn div_below_2_32(n: u64, d: u64) -> u64 {
    const M52: f64 = (1u64 << 52) as f64;
    const M84: f64 = M52 * (1u64 << 32) as f64;
    // u64 → f64 as (high half · 2³²) + low half, each half placed in the
    // mantissa of a 2⁸⁴ / 2⁵² float: exact until the one rounding add.
    let to_f64 = |v: u64| {
        let lo = f64::from_bits((v & 0xffff_ffff) | M52.to_bits()) - M52;
        let hi = f64::from_bits((v >> 32) | M84.to_bits()) - M84;
        hi + lo
    };
    let est = (to_f64(n) / to_f64(d) - (0.5 + 1.0 / (1u64 << 18) as f64)).max(0.0);
    // Adding 2⁵² rounds to the nearest integer and leaves it in the low
    // mantissa bits.
    let q = (est + M52).to_bits() & ((1u64 << 52) - 1);
    let r = n.wrapping_sub(q.wrapping_mul(d));
    q.wrapping_add((r >= d) as u64)
}

/// Plan one lockstep iteration for the resident prefix `0..lanes`.
///
/// For every running lane, in the scalar loop's order: `Y = 0` ends the
/// lane as [`LaneState::Done`]; with `threshold_bits > 0` a `Y` of fewer
/// bits (read from its head register) ends it as [`LaneState::Early`].
/// Every other running lane gets exactly the plan [`plan_lane`] would
/// give it: fused lanes their `(α, rs)` in `plans`, the rest a
/// [`LanePlans::fixups`] entry. `plans.rows` and `plans.running` are set
/// for the iteration.
///
/// One branch-free pass plans the common lane: both operands longer than
/// two words (the paper's Case 4) with β = 0 and a shift below one word.
/// Its quotient is [`div_below_2_32`] (Case 4's β = 0 quotients are below
/// 2³²), not a 64-bit division. The rest — short operands, β > 0, deep
/// shifts, lanes that terminate — take a scalar pass through the oracle.
///
/// The pass is compiled for AVX-512 (F, DQ, VL, CD), where it vectorizes
/// whole, and for AVX2, where it does in part, and dispatched at run time
/// like the vector pass. The portable build plans every running lane
/// through [`plan_lane`]: with only SSE2 the branch-free pass vectorizes
/// two lanes wide on shuffles and costs more than the per-lane oracle.
pub fn plan_lanes(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) {
    let isa = [KernelIsa::Avx512, KernelIsa::Avx2]
        .into_iter()
        .find(|&isa| planner_available(isa))
        .unwrap_or(KernelIsa::Portable);
    let ran = plan_lanes_on(isa, heads, state, lanes, threshold_bits, plans);
    debug_assert!(ran, "the chosen planner build is available");
}

/// Whether this CPU runs the planner build for `isa`: the AVX-512 one also
/// needs DQ (64-bit multiplies), VL and CD (leading-zero counts).
fn planner_available(isa: KernelIsa) -> bool {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => {
            isa.available()
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512cd")
        }
        _ => isa.available(),
    }
}

/// [`plan_lanes`] on the given build. Returns `false`, with nothing
/// touched, when this CPU cannot run it — how tests reach each build.
#[doc(hidden)]
pub fn plan_lanes_on(
    isa: KernelIsa,
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) -> bool {
    if !planner_available(isa) {
        return false;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `planner_available` confirmed every feature the build
        // enables.
        KernelIsa::Avx512 => unsafe { plan_avx512(heads, state, lanes, threshold_bits, plans) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `planner_available` confirmed AVX2.
        KernelIsa::Avx2 => unsafe { plan_avx2(heads, state, lanes, threshold_bits, plans) },
        _ => plan_body(heads, state, lanes, threshold_bits, plans, false),
    }
    true
}

// SAFETY: callers must only invoke this when the CPU supports every
// enabled feature; the body holds no intrinsics and no raw pointers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512cd")]
unsafe fn plan_avx512(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) {
    plan_body(heads, state, lanes, threshold_bits, plans, true);
}

// SAFETY: callers must only invoke this when the CPU supports AVX2; the
// body holds no intrinsics and no raw pointers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn plan_avx2(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
) {
    plan_body(heads, state, lanes, threshold_bits, plans, true);
}

/// The planner body; `inline(always)` so each build's target features
/// cover it. Without `branch_free` no lane fuses in the first pass, so
/// every running lane takes the scalar pass.
// analyze: constant-flow(public = "lanes, lx, ly, state, threshold_bits, branch_free, rows, running, fixups")
#[inline(always)]
fn plan_body(
    heads: &LaneHeads,
    state: &mut [LaneState],
    lanes: usize,
    threshold_bits: u64,
    plans: &mut LanePlans,
    branch_free: bool,
) {
    let (lx, ly) = (&heads.lx[..lanes], &heads.ly[..lanes]);
    let (xt, xl) = (&heads.xt[..lanes], &heads.xl[..lanes]);
    let (yt, yl) = (&heads.yt[..lanes], &heads.yl[..lanes]);
    let state = &mut state[..lanes];
    let alpha = &mut plans.alpha[..lanes];
    let rs = &mut plans.rs[..lanes];
    let rare = &mut plans.rare[..lanes];
    let mut rows = 0u32;
    let mut running = 0usize;
    for t in 0..lanes {
        let (lxt, lyt) = (lx[t], ly[t]);
        let (x12, y12) = (xt[t], yt[t]);
        let live = state[t] == LaneState::Running;
        // Y's bit length: its top word sits in the high half of `y12`.
        let ybits = (LIMB_BITS as u64 * lyt as u64).wrapping_sub(y12.leading_zeros() as u64);
        let stays = (lyt != 0) & (ybits >= threshold_bits);
        running += (live & stays) as usize;
        // Case 4 at β = 0: 4-A with lX = lY (α = x12/(y12+1)), 4-B with
        // lX = lY + 1 (α = x12/(y1+1)), 4-C (α = 1).
        let gt = x12 > y12;
        let beta0 = (lxt == lyt) | ((lxt == lyt + 1) & !gt);
        let gt_mask = (gt as u64).wrapping_neg();
        let d = (y12.wrapping_add(1) & gt_mask) | (((y12 >> LIMB_BITS) + 1) & !gt_mask);
        let one = ((lxt == lyt) & !gt) as u64;
        let q = div_below_2_32(x12, d) * (1 - one) + one;
        let a = force_odd(q);
        let low = low_diff64(xl[t], yl[t], 2, a as Limb);
        let tz = low.trailing_zeros();
        let fused = branch_free
            & live
            & stays
            & (lxt > 2)
            & (lyt > 2)
            & beta0
            & (a <= Limb::MAX as u64)
            & (tz < LIMB_BITS);
        let mask = (fused as Limb).wrapping_neg();
        alpha[t] = a as Limb & mask;
        rs[t] = tz & mask;
        rows = rows.max(lxt & mask);
        rare[t] = (live & !fused) as u8;
    }
    plans.fixups.clear();
    for t in 0..lanes {
        // analyze: allow(cf-branch, reason = "the fused/divergent dispatch is the documented warp-divergence point: diverged lanes queue for serialized scalar fixups")
        if rare[t] == 0 {
            continue;
        }
        let (lxl, lyl) = (lx[t] as usize, ly[t] as usize);
        // Same check order as the scalar loop's `finished()`: Y == 0
        // first, then the early-termination bit threshold.
        if lyl == 0 {
            state[t] = LaneState::Done;
            continue;
        }
        let ybits = (LIMB_BITS as usize * lyl) as u64 - yt[t].leading_zeros() as u64;
        // analyze: allow(cf-branch, reason = "early termination compares the live bit length of Y; terminated lanes mask off — the paper's documented data-dependent exit")
        if ybits < threshold_bits {
            state[t] = LaneState::Early;
            continue;
        }
        // Up to two limbs the whole value is the low register.
        let whole = |l: usize, top: u64, low: u64| if l <= 2 { low } else { top };
        let (x_top, x_lo) = (whole(lxl, xt[t], xl[t]), xl[t]);
        let (y_top, y_lo) = (whole(lyl, yt[t], yl[t]), yl[t]);
        let (plan, _, _, _) = plan_lane(x_top, x_lo, lxl, y_top, y_lo, lyl);
        // analyze: allow(cf-branch, reason = "the fused/divergent dispatch is the documented warp-divergence point: diverged lanes queue for serialized scalar fixups")
        match plan {
            LanePlan::Fused { alpha: a, rs: r } => {
                alpha[t] = a;
                rs[t] = r;
                rows = rows.max(lxl as u32);
            }
            // analyze: allow(za-alloc, reason = "live/fixups are cleared each iteration and keep their capacity: a push after warmup reuses the allocation")
            other => plans.fixups.push((t, other)),
        }
    }
    plans.rows = rows as usize;
    plans.running = running;
}

/// What the vector pass reports about each lane's new `X`, plus the scratch
/// rows its portable body needs. Sized once per warp (`new(w)`) and reused
/// across iterations.
///
/// The outputs describe the pass's own output rows `0..rows`, so they are
/// the lane's new `X` for every fused lane (its `lX` never exceeds
/// `rows`). For a masked lane they describe its rows `0..rows` and are
/// meaningless past them; the engine ignores them.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// The new `lX`: the highest nonzero output row plus 1 (0 when `X`
    /// became 0).
    pub len: Vec<u32>,
    /// All-ones when the new `X` is below `Y`, else 0.
    pub less: Vec<Limb>,
    /// Output row `len − 1` (0 when `len = 0`).
    pub top1: Vec<Limb>,
    /// Output row `len − 2` (0 when `len < 2`).
    pub top2: Vec<Limb>,
    /// Output row 0.
    pub low0: Vec<Limb>,
    /// Output row 1 (0 when `rows < 2`).
    pub low1: Vec<Limb>,
    // Portable-body scratch rows: the carry chain, and the previous and
    // the current difference row.
    carry: Vec<u64>,
    prev: Vec<Limb>,
    dcur: Vec<Limb>,
}

impl PassOut {
    /// Outputs and scratch for `w` lanes.
    pub fn new(w: usize) -> Self {
        PassOut {
            len: vec![0; w],
            less: vec![0; w],
            top1: vec![0; w],
            top2: vec![0; w],
            low0: vec![0; w],
            low1: vec![0; w],
            carry: vec![0; w],
            prev: vec![0; w],
            dcur: vec![0; w],
        }
    }

    /// Lane `t`'s new head words `(top, low)`, as [`head_words`] packs them.
    #[inline(always)]
    pub fn heads(&self, t: usize) -> (u64, u64) {
        (
            (self.top1[t] as u64) << LIMB_BITS | self.top2[t] as u64,
            (self.low1[t] as u64) << LIMB_BITS | self.low0[t] as u64,
        )
    }

    /// The number of lanes every output and scratch row holds.
    fn lanes(&self) -> usize {
        [
            self.len.len(),
            self.less.len(),
            self.top1.len(),
            self.top2.len(),
            self.low0.len(),
            self.low1.len(),
            self.carry.len(),
            self.prev.len(),
            self.dcur.len(),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }
}

/// One lockstep fused update `X ← rshift(X − α·Y)` over a warp's
/// column-major operand planes.
///
/// Layout: planes `u` and `v` each hold `rows_cap × w` limbs with limb `k`
/// of lane `t` at index `k·w + t` — limb `k` of all `w` lanes is
/// contiguous, the paper's Fig. 3 column-wise arrangement. Which plane
/// holds a lane's `X` is selected by `sel[t]`: 0 when `X` lives in plane
/// `u` ("buffer A"), all-ones when in plane `v` — the branchless analogue
/// of [`GcdPair`](crate::GcdPair)'s pointer swap.
///
/// Per lane, `alpha[t]` is the odd multiplier and `rs[t] ∈ 0..32` the
/// shift. A lane with `alpha = 0, rs = 0` is an exact identity (its
/// difference stream is its own `X` stream and the shift is 0), which is
/// how terminated and divergent lanes are masked without any conditional
/// in the inner loops.
///
/// `rows` is the limb-row count to process: the maximum `lX` over the
/// active fused lanes. Shorter lanes are handled by their high-zero
/// padding (difference limbs beyond `lX` are zero, so the emitted limbs
/// are too); each lane's result therefore lands exactly where the scalar
/// `fused_submul_rshift` would put it, with the padding invariant
/// preserved.
///
/// As it emits each output row the pass also tracks, per lane, the
/// highest nonzero row (the new `lX`) with the row below it, the two
/// lowest rows, and a bottom-up compare of the row against the `Y` row it
/// already loaded; `out` receives them (see [`PassOut`]), so the engine
/// needs no second sweep over the columns. The AVX-512 path keeps all of
/// that in registers and leaves `out`'s scratch rows untouched.
///
/// Requirements per active lane (the planner guarantees them): `α` odd,
/// `α·Y ≤ X`, `1 ≤ rs < 32`, and `rs` is the trailing-zero count of
/// `X − α·Y`.
#[allow(clippy::too_many_arguments)]
pub fn fused_submul_rshift_columns(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) {
    fused_submul_rshift_columns_prefix(u, v, w, w, rows, sel, alpha, rs, out);
}

/// [`fused_submul_rshift_columns`] over a **dense column prefix**: process
/// only columns `0..lanes` of planes whose row stride stays `w`.
///
/// This is the warp-compaction entry point: after survivors of a ragged
/// warp are repacked into a dense prefix (or the resident width shrinks as
/// lanes terminate without replacement), the vector pass only touches the
/// live columns instead of dragging `w − lanes` identity lanes through
/// every row. With `lanes == w` it is exactly the full-width pass.
#[allow(clippy::too_many_arguments)]
pub fn fused_submul_rshift_columns_prefix(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) {
    let ran = columns_on(
        KernelIsa::detect(),
        u,
        v,
        w,
        lanes,
        rows,
        sel,
        alpha,
        rs,
        out,
    );
    debug_assert!(ran, "the detected kernel ISA is always available");
}

/// Run the vector pass on the given implementation. Returns `false`, with
/// nothing touched, when this CPU cannot run it — which is how tests reach
/// each path and skip the ones the host lacks. Arguments as
/// [`fused_submul_rshift_columns_prefix`]; the length checks here are what
/// the AVX-512 path's raw accesses rely on.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn columns_on(
    isa: KernelIsa,
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) -> bool {
    assert!(
        lanes <= w,
        "column prefix wider than the plane: {lanes} > {w}"
    );
    assert!(rows == 0 || (u.len() >= rows * w && v.len() >= rows * w));
    assert!(sel.len() >= lanes && alpha.len() >= lanes && rs.len() >= lanes);
    assert!(out.lanes() >= lanes);
    if !isa.available() {
        return false;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX-512F above, and the asserts
        // above are the plane and per-lane slice lengths that the kernel's
        // pointer accesses rely on.
        KernelIsa::Avx512 => unsafe { columns_avx512(u, v, w, lanes, rows, sel, alpha, rs, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `available()` confirmed AVX2 above.
        KernelIsa::Avx2 => unsafe { columns_avx2(u, v, w, lanes, rows, sel, alpha, rs, out) },
        _ => columns_kernel(u, v, w, lanes, rows, sel, alpha, rs, out),
    }
    true
}

/// Copy lane column `src` onto lane column `dst` across **both** operand
/// planes (`rows` limb rows, row stride `w`) — the plane half of a warp
/// compaction: together with the per-lane registers (`sel`, the head
/// registers, state) it relocates a surviving lane into the dense prefix.
/// The copy is a fixed strided sweep: which lanes move is decided by the
/// public termination structure, never by operand values.
pub fn copy_lane_columns(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    rows: usize,
    src: usize,
    dst: usize,
) {
    assert!(src < w && dst < w, "lane out of range: {src}/{dst} vs {w}");
    assert!(rows == 0 || (u.len() >= rows * w && v.len() >= rows * w));
    for k in 0..rows {
        let base = k * w;
        u[base + dst] = u[base + src];
        v[base + dst] = v[base + src];
    }
}

/// Zero lane column `t` across both operand planes (`rows` limb rows, row
/// stride `w`): clears a dead column before a fresh pair is refilled into
/// it, restoring the high-zero padding invariant the vector pass relies on.
pub fn zero_lane_columns(u: &mut [Limb], v: &mut [Limb], w: usize, rows: usize, t: usize) {
    assert!(t < w, "lane out of range: {t} vs {w}");
    for k in 0..rows {
        let base = k * w;
        u[base + t] = 0;
        v[base + t] = 0;
    }
}

// SAFETY: callers must only invoke this when the CPU supports AVX2 (the
// dispatcher's `is_x86_feature_detected!` guard); beyond that the function
// is as safe as `columns_kernel` — the body holds no intrinsics and no raw
// pointers, the target-feature attribute merely licenses the compiler to
// autovectorize the inlined kernel with AVX2 instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn columns_avx2(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) {
    columns_kernel(u, v, w, lanes, rows, sel, alpha, rs, out);
}

/// The AVX-512F vector pass: lane-block outer, limb row inner.
///
/// A lane block is one zmm of 16 lanes' limbs. The multiply-subtract runs
/// on `u64` halves — the even lanes in place, the odd lanes shifted down —
/// and the block keeps its `α`, `rs`, `sel` mask, carries, previous
/// difference row and its [`PassOut`] tracking (previous `Y` and output
/// rows, top rows, length, the `X < Y` mask) in registers across all
/// `rows`, so unlike the portable body it needs no scratch rows and never
/// writes them. [`lane_blocks`] runs two blocks interleaved (four
/// independent carry chains), then one block for the rest of the prefix; a
/// tail mask on every load and store covers a `lanes` that is not a
/// multiple of 16. Each row reads `X`/`Y` through a `sel` blend and writes
/// the shifted result back with two masked stores: plane `u` where `sel`
/// is 0, plane `v` where it is all-ones. `Y` words and columns `≥ lanes`
/// are never stored to.
///
/// `sel` words must be 0 or all-ones (the engine only ever writes those):
/// the blend mask is "word is nonzero", where the portable body blends bit
/// by bit.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the slices must pass the length
/// checks of [`columns_on`]: `lanes ≤ w`, planes of at least `rows·w`
/// limbs, per-lane slices and `out` rows of at least `lanes`.
// SAFETY: every raw access below relies on the contract above.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn columns_avx512(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) {
    const BLOCK: usize = 16;
    const INTERLEAVE: usize = 2;
    let (up, vp) = (u.as_mut_ptr(), v.as_mut_ptr());
    let mut t = 0;
    while t + INTERLEAVE * BLOCK <= lanes {
        // SAFETY: columns t..t+32 lie inside the checked prefix.
        unsafe { lane_blocks::<INTERLEAVE>(up, vp, w, t, rows, sel, alpha, rs, out, 0xffff) };
        t += INTERLEAVE * BLOCK;
    }
    while t < lanes {
        let n = (lanes - t).min(BLOCK);
        let tail = (0xffff_u32 >> (BLOCK - n)) as u16;
        // SAFETY: the tail mask confines every access to columns t..t+n,
        // inside the checked prefix.
        unsafe { lane_blocks::<1>(up, vp, w, t, rows, sel, alpha, rs, out, tail) };
        t += n;
    }
}

/// One 16-lane block's [`PassOut`] tracking in the AVX-512 path.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct BlockHeads {
    /// The previous row's `Y` words (compared once its output is final).
    yprev: std::arch::x86_64::__m512i,
    /// The previous output row.
    pout: std::arch::x86_64::__m512i,
    top1: std::arch::x86_64::__m512i,
    top2: std::arch::x86_64::__m512i,
    len: std::arch::x86_64::__m512i,
    /// The running bottom-up `X < Y` verdict.
    less: u16,
}

/// Fold output row `row` (`out`) of one block into its tracking: a nonzero
/// row moves the top rows and the length up (`len_row` holds `row + 1` in
/// every lane), a row that differs from `Y`'s decides the verdict.
///
/// # Safety
///
/// The CPU must support AVX-512F.
// SAFETY: register-only intrinsics; the contract above is all they need.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn track_row(
    h: &mut BlockHeads,
    out: std::arch::x86_64::__m512i,
    len_row: std::arch::x86_64::__m512i,
) {
    use std::arch::x86_64::*;
    let nz = _mm512_test_epi32_mask(out, out);
    h.len = _mm512_mask_mov_epi32(h.len, nz, len_row);
    h.top2 = _mm512_mask_mov_epi32(h.top2, nz, h.pout);
    h.top1 = _mm512_mask_mov_epi32(h.top1, nz, out);
    let lt = _mm512_cmplt_epu32_mask(out, h.yprev);
    let ne = _mm512_cmpneq_epu32_mask(out, h.yprev);
    h.less = lt | (h.less & !ne);
    h.pout = out;
}

/// `N` interleaved 16-lane blocks of [`columns_avx512`] starting at column
/// `t0`; `tail` masks the columns of the last block (0xffff when full).
///
/// # Safety
///
/// As [`columns_avx512`], with `up`/`vp` its plane pointers; columns
/// `t0..t0 + 16·(N−1)` plus the `tail` columns of the last block must lie
/// inside the checked prefix `0..lanes`.
// SAFETY: every raw access below relies on the contract above.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn lane_blocks<const N: usize>(
    up: *mut Limb,
    vp: *mut Limb,
    w: usize,
    t0: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
    tail: u16,
) {
    use std::arch::x86_64::*;
    // The carry chain runs biased so that it needs no borrow extraction.
    // Row k's `s = x_k − α·y_k − carry` lies in [−(2⁶⁴ − 2³²), 2³²), so
    // `t = s + (2⁶⁴ − 2³²)` fits a u64 exactly: its low half is the
    // difference limb d and its high half is `hi = 2³² − 1 − carry'`. The
    // next row's `t' = x' − α·y' − carry' − 2³²` is then `x' + g − α·y'`
    // with `g = hi − (2³³ − 1)` (mod 2⁶⁴), and `carry = 0` is `g = −2³²`.
    let g0 = _mm512_set1_epi64(-(1i64 << 32));
    let bias = _mm512_set1_epi64(1 - (1i64 << 33));
    let lo32 = _mm512_set1_epi64(Limb::MAX as i64);
    let k32 = _mm512_set1_epi32(LIMB_BITS as i32);
    let zero = _mm512_setzero_si512();
    // Per block, `u64` halves (e = even lanes, o = odd lanes): α, carry
    // state g; per block, 16 limb lanes: rs, 32 − rs, previous d row.
    let [mut ae, mut ao, mut ge, mut go, mut r, mut rc, mut prev] = [[g0; N]; 7];
    let mut heads = [BlockHeads {
        yprev: zero,
        pout: zero,
        top1: zero,
        top2: zero,
        len: zero,
        less: 0,
    }; N];
    // Per block: the column mask, and the store masks of plane `u` (`X`
    // there: sel = 0) and plane `v` (sel = all-ones).
    let (mut kcol, mut ku, mut kv) = ([0u16; N], [0u16; N], [0u16; N]);
    for b in 0..N {
        let col = t0 + 16 * b;
        let k = if b + 1 == N { tail } else { 0xffff };
        // SAFETY: masked loads read only columns the mask admits, all
        // below `lanes ≤` each per-lane slice's length; the masked stores
        // clear `out`'s low rows at the same columns (rows not reached
        // below stay 0).
        let (selv, av, rv) = unsafe {
            _mm512_mask_storeu_epi32(out.low0.as_mut_ptr().add(col).cast(), k, zero);
            _mm512_mask_storeu_epi32(out.low1.as_mut_ptr().add(col).cast(), k, zero);
            (
                _mm512_maskz_loadu_epi32(k, sel.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, alpha.as_ptr().add(col).cast()),
                _mm512_maskz_loadu_epi32(k, rs.as_ptr().add(col).cast()),
            )
        };
        kcol[b] = k;
        kv[b] = _mm512_mask_test_epi32_mask(k, selv, selv);
        ku[b] = k & !kv[b];
        ae[b] = av;
        ao[b] = _mm512_srli_epi64::<32>(av);
        r[b] = rv;
        rc[b] = _mm512_sub_epi32(k32, rv);
    }
    let lows = [out.low0.as_mut_ptr(), out.low1.as_mut_ptr()];
    for k in 0..rows {
        let row = k * w + t0;
        // Output row k−1, if nonzero, makes the length k.
        let len_row = _mm512_set1_epi32(k as i32);
        for b in 0..N {
            let at = row + 16 * b;
            // SAFETY: row k < rows and the masked columns are < lanes ≤ w,
            // so every admitted word lies inside both `rows·w` planes.
            let (uw, vw) = unsafe {
                (
                    _mm512_maskz_loadu_epi32(kcol[b], up.add(at).cast()),
                    _mm512_maskz_loadu_epi32(kcol[b], vp.add(at).cast()),
                )
            };
            let x = _mm512_mask_blend_epi32(kv[b], uw, vw);
            let y = _mm512_mask_blend_epi32(kv[b], vw, uw);
            // `mul_epu32` reads the low limb of each u64: the even lanes
            // as loaded, the odd lanes once shifted down.
            let te = _mm512_sub_epi64(
                _mm512_add_epi64(_mm512_and_si512(x, lo32), ge[b]),
                _mm512_mul_epu32(ae[b], y),
            );
            let to = _mm512_sub_epi64(
                _mm512_add_epi64(_mm512_srli_epi64::<32>(x), go[b]),
                _mm512_mul_epu32(ao[b], _mm512_srli_epi64::<32>(y)),
            );
            ge[b] = _mm512_add_epi64(_mm512_srli_epi64::<32>(te), bias);
            go[b] = _mm512_add_epi64(_mm512_srli_epi64::<32>(to), bias);
            // This row's 16 difference limbs, back in lane order: the odd
            // lanes' d moves up from the low half of `to`.
            let d = _mm512_mask_shuffle_epi32::<0b10_10_00_00>(te, 0xaaaa, to);
            // Row k−1 is final now that its high bits (this row's d) are
            // known: out = (prev >> rs) | (d << (32 − rs)), where a shift
            // by 32 gives 0, so rs = 0 (identity lanes) is exact. Row 0
            // has no row below.
            if k > 0 {
                let o = _mm512_or_si512(
                    _mm512_srlv_epi32(prev[b], r[b]),
                    _mm512_sllv_epi32(d, rc[b]),
                );
                // SAFETY: row k−1 of the same admitted columns; masked
                // stores write only the words `ku`/`kv` admit, and the
                // low rows only the admitted columns of `out`.
                unsafe {
                    _mm512_mask_storeu_epi32(up.add(at - w).cast(), ku[b], o);
                    _mm512_mask_storeu_epi32(vp.add(at - w).cast(), kv[b], o);
                    if k <= 2 {
                        _mm512_mask_storeu_epi32(lows[k - 1].add(t0 + 16 * b).cast(), kcol[b], o);
                    }
                    track_row(&mut heads[b], o, len_row);
                }
            }
            prev[b] = d;
            heads[b].yprev = y;
        }
    }
    // Top row: no difference limb above it, so out = prev >> rs.
    if rows > 0 {
        let row = (rows - 1) * w + t0;
        let len_row = _mm512_set1_epi32(rows as i32);
        for b in 0..N {
            let at = row + 16 * b;
            let o = _mm512_srlv_epi32(prev[b], r[b]);
            // SAFETY: row rows−1 of the admitted columns, masked stores.
            unsafe {
                _mm512_mask_storeu_epi32(up.add(at).cast(), ku[b], o);
                _mm512_mask_storeu_epi32(vp.add(at).cast(), kv[b], o);
                if rows <= 2 {
                    _mm512_mask_storeu_epi32(lows[rows - 1].add(t0 + 16 * b).cast(), kcol[b], o);
                }
                track_row(&mut heads[b], o, len_row);
            }
        }
    }
    for (b, h) in heads.iter().enumerate() {
        let (col, k) = (t0 + 16 * b, kcol[b]);
        // SAFETY: masked stores to the admitted columns of `out`'s rows.
        unsafe {
            _mm512_mask_storeu_epi32(out.len.as_mut_ptr().add(col).cast(), k, h.len);
            _mm512_mask_storeu_epi32(
                out.less.as_mut_ptr().add(col).cast(),
                k,
                _mm512_maskz_mov_epi32(h.less, _mm512_set1_epi32(-1)),
            );
            _mm512_mask_storeu_epi32(out.top1.as_mut_ptr().add(col).cast(), k, h.top1);
            _mm512_mask_storeu_epi32(out.top2.as_mut_ptr().add(col).cast(), k, h.top2);
        }
    }
}

/// The portable kernel body; `inline(always)` so the AVX2 wrapper's
/// target-feature scope covers the loops it is asked to vectorize.
///
/// `w` is the plane row stride; `lanes ≤ w` the dense column prefix to
/// process (the warp's resident width after compaction).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn columns_kernel(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    lanes: usize,
    rows: usize,
    sel: &[Limb],
    alpha: &[Limb],
    rs: &[u32],
    out: &mut PassOut,
) {
    let sel = &sel[..lanes];
    let alpha = &alpha[..lanes];
    let rs = &rs[..lanes];
    let PassOut {
        len,
        less,
        top1,
        top2,
        low0,
        low1,
        carry,
        prev,
        dcur,
    } = out;
    let (len, less) = (&mut len[..lanes], &mut less[..lanes]);
    let carry = &mut carry[..lanes];
    let mut prev = &mut prev[..lanes];
    let mut dcur = &mut dcur[..lanes];
    carry.fill(0);
    prev.fill(0);
    len.fill(0);
    less.fill(0);
    for k in 0..rows {
        let base = k * w;
        // Difference row k: d = x_k − (α·y_k + carry) with the combined
        // mul-high + borrow carry chain of the scalar fused pass. Lanes
        // are independent — one row, `lanes` lanes, vectorizable.
        {
            let urow = &u[base..base + lanes];
            let vrow = &v[base..base + lanes];
            for t in 0..lanes {
                let m = sel[t];
                let uw = urow[t];
                let vw = vrow[t];
                let xk = (uw & !m) | (vw & m);
                let yk = (uw & m) | (vw & !m);
                let p = alpha[t] as u64 * yk as u64 + carry[t];
                let pl = p as Limb;
                dcur[t] = xk.wrapping_sub(pl);
                carry[t] = (p >> LIMB_BITS) + (xk < pl) as u64;
            }
        }
        // Emit output row k−1 now that its high bits (row k's difference)
        // are known: out = (prev | d·2³²) >> rs, the branchless form of the
        // scalar `(prev >> rs) | (d << (32 − rs))` that is also exact at
        // rs = 0 (identity lanes).
        if k > 0 {
            emit_row(u, v, w, k - 1, sel, rs, prev, dcur, len, less);
        }
        core::mem::swap(&mut prev, &mut dcur);
    }
    // Top row: no difference limb above it, so d = 0 and out = prev >> rs —
    // the scalar loop's final `x[xl−1] = prev >> rs` write.
    if rows == 0 {
        low0[..lanes].fill(0);
        low1[..lanes].fill(0);
        top1[..lanes].fill(0);
        top2[..lanes].fill(0);
        return;
    }
    dcur.fill(0);
    emit_row(u, v, w, rows - 1, sel, rs, prev, dcur, len, less);
    // The head words, read back once from the output rows now in the `X`
    // plane: fewer stores than carrying them through every row.
    let x_at = |row: usize, t: usize| {
        let m = sel[t];
        (u[row * w + t] & !m) | (v[row * w + t] & m)
    };
    let has = |l: u32, n: u32| ((l >= n) as Limb).wrapping_neg();
    for t in 0..lanes {
        let l = len[t];
        top1[t] = x_at(l.saturating_sub(1) as usize, t) & has(l, 1);
        top2[t] = x_at(l.saturating_sub(2) as usize, t) & has(l, 2);
        low0[t] = x_at(0, t);
        low1[t] = x_at(1.min(rows - 1), t) & has(rows as u32, 2);
    }
}

/// Emit one shifted output row into the selected `X` plane of each lane,
/// leaving the `Y` plane untouched, with branchless blend stores, and fold
/// it into the lane's tracking: a nonzero row moves the length up, a row
/// that differs from `Y`'s decides the `X < Y` verdict.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn emit_row(
    u: &mut [Limb],
    v: &mut [Limb],
    w: usize,
    row: usize,
    sel: &[Limb],
    rs: &[u32],
    prev: &[Limb],
    d: &[Limb],
    len: &mut [u32],
    less: &mut [Limb],
) {
    let lanes = sel.len();
    let base = row * w;
    let urow = &mut u[base..base + lanes];
    let vrow = &mut v[base..base + lanes];
    let len_row = row as u32 + 1;
    for t in 0..lanes {
        let m = sel[t];
        let out = (((prev[t] as u64) | ((d[t] as u64) << LIMB_BITS)) >> rs[t]) as Limb;
        let uw = urow[t];
        let vw = vrow[t];
        urow[t] = (out & !m) | (uw & m);
        vrow[t] = (out & m) | (vw & !m);
        let y = (uw & m) | (vw & !m);
        let nz = ((out != 0) as Limb).wrapping_neg();
        len[t] = (len_row & nz) | (len[t] & !nz);
        let ne = ((out != y) as Limb).wrapping_neg();
        less[t] = ((out < y) as Limb).wrapping_neg() | (less[t] & !ne);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::ops;
    use proptest::prelude::*;

    fn pack_lo(x: &[Limb]) -> u64 {
        let lo = *x.first().unwrap_or(&0) as u64;
        let hi = *x.get(1).unwrap_or(&0) as u64;
        hi << 32 | lo
    }

    fn top2(x: &[Limb], l: usize) -> u64 {
        match l {
            0 => 0,
            1 => x[0] as u64,
            _ => ((x[l - 1] as u64) << 32) | x[l - 2] as u64,
        }
    }

    #[test]
    fn force_odd_matches_branchy_form() {
        for a in [1u64, 2, 3, 4, u32::MAX as u64 + 1, u64::MAX - 1, u64::MAX] {
            let expect = if a & 1 == 0 { a - 1 } else { a };
            assert_eq!(force_odd(a), expect, "alpha={a}");
        }
    }

    #[test]
    fn low_diff_matches_scalar_probe() {
        // Mirror the scalar low-2 loop on explicit limb vectors.
        let cases: &[(&[Limb], &[Limb], Limb)] = &[
            (&[7, 9, 3], &[5, 1], 3),
            (&[0, 0, 1], &[1], 1),
            (&[10], &[3], 3),
            (&[0x8000_0000, 1], &[1, 1], 1),
        ];
        for &(x, y, alpha) in cases {
            let lx = x.len();
            let mut carry = 0u64;
            let mut d0 = 0;
            let mut d1 = 0;
            for (i, &xi) in x.iter().enumerate().take(2.min(lx)) {
                let yi = *y.get(i).unwrap_or(&0);
                let p = alpha as u64 * yi as u64 + carry;
                let (d, bo) = bulkgcd_bigint::limb::sbb(xi, p as Limb, 0);
                if i == 0 {
                    d0 = d;
                } else {
                    d1 = d;
                }
                carry = (p >> 32) + bo as u64;
            }
            let expect = (d1 as u64) << 32 | d0 as u64;
            assert_eq!(low_diff64(pack_lo(x), pack_lo(y), lx, alpha), expect);
        }
    }

    #[test]
    fn plan_classifies_and_matches_approx() {
        // X = 3 limbs, Y = 1 limb: Case 2, fused path expected.
        let x: &[Limb] = &[1, 2, 9];
        let y: &[Limb] = &[4];
        let (plan, alpha, beta, _) =
            plan_lane(top2(x, 3), pack_lo(x), 3, top2(y, 1), pack_lo(y), 1);
        assert_eq!(beta, 2, "Case 2-A has beta = lx - 1");
        assert!(plan.is_beta_positive());
        assert_eq!(alpha, 9 / 4);

        // Equal operands: Case 4-C, difference zero => DeepShift.
        let n: &[Limb] = &[5, 6, 7];
        let (plan, alpha, beta, _) =
            plan_lane(top2(n, 3), pack_lo(n), 3, top2(n, 3), pack_lo(n), 3);
        assert_eq!((alpha, beta), (1, 0));
        assert_eq!(plan, LanePlan::DeepShift { alpha: 1 });
    }

    /// The column kernel against the scalar fused pass, lane by lane,
    /// including identity (masked) lanes and ragged lengths.
    #[test]
    fn column_kernel_matches_scalar_fused_pass() {
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let w = 8usize;
        let stride = 6usize;
        for round in 0..200 {
            // Build w lanes: random X >= alpha*Y with normalized lengths.
            let mut xs: Vec<Vec<Limb>> = Vec::new();
            let mut ys: Vec<Vec<Limb>> = Vec::new();
            let mut alphas = vec![0 as Limb; w];
            let mut rss = vec![0u32; w];
            let mut sels = vec![0 as Limb; w];
            let mut u = vec![0 as Limb; stride * w];
            let mut v = vec![0 as Limb; stride * w];
            let mut rows = 0usize;
            for t in 0..w {
                let lx = 1 + (next() as usize % stride);
                let ly = 1 + (next() as usize % lx);
                let mut x: Vec<Limb> = (0..lx).map(|_| next() as Limb).collect();
                let mut y: Vec<Limb> = (0..ly).map(|_| next() as Limb).collect();
                // Keep X comfortably above alpha*Y: small alpha, big X top,
                // small Y top (alpha*(y_top+1) < 8*2^24 << 2^31 <= x_top).
                x[lx - 1] |= 0x8000_0000;
                y[ly - 1] >>= 8;
                if y[ly - 1] == 0 {
                    y[ly - 1] = 1;
                }
                let alpha = ((next() as Limb) & 0x7) | 1;
                let masked = round % 3 == 0 && t % 2 == 0;
                let lo = low_diff64(pack_lo(&x), pack_lo(&y), lx, alpha);
                let rs = if lo == 0 { 32 } else { lo.trailing_zeros() };
                if !masked && (1..32).contains(&rs) {
                    alphas[t] = alpha;
                    rss[t] = rs;
                    rows = rows.max(lx);
                }
                let sel = if next() & 1 == 0 { 0 } else { Limb::MAX };
                sels[t] = sel;
                let (xp, yp) = if sel == 0 {
                    (&mut u, &mut v)
                } else {
                    (&mut v, &mut u)
                };
                for (k, &l) in x.iter().enumerate() {
                    xp[k * w + t] = l;
                }
                for (k, &l) in y.iter().enumerate() {
                    yp[k * w + t] = l;
                }
                xs.push(x);
                ys.push(y);
            }
            let mut out = PassOut::new(w);
            fused_submul_rshift_columns(&mut u, &mut v, w, rows, &sels, &alphas, &rss, &mut out);
            for t in 0..w {
                let xp = if sels[t] == 0 { &u } else { &v };
                let yp = if sels[t] == 0 { &v } else { &u };
                let got_x: Vec<Limb> = (0..stride).map(|k| xp[k * w + t]).collect();
                let got_y: Vec<Limb> = (0..stride).map(|k| yp[k * w + t]).collect();
                let mut expect_x = xs[t].clone();
                if alphas[t] != 0 {
                    let yl = ys[t].len();
                    let (newl, r) =
                        ops::fused_submul_rshift(&mut expect_x, &ys[t][..yl], alphas[t]);
                    assert_eq!(r as u32, rss[t]);
                    expect_x.truncate(newl);
                }
                if alphas[t] != 0 {
                    // The pass's report on the new X: length, head words
                    // and the X < Y verdict.
                    let lx = ops::normalized_len(&expect_x);
                    let at = format!("round {round} lane {t}");
                    assert_eq!(out.len[t] as usize, lx, "{at} len");
                    assert_eq!(out.heads(t), head_words(lx, |k| expect_x[k]), "{at} heads");
                    let less = ops::cmp(&expect_x[..lx], &ys[t]) == core::cmp::Ordering::Less;
                    assert_eq!(out.less[t], (less as Limb).wrapping_neg(), "{at} less");
                }
                expect_x.resize(stride, 0);
                assert_eq!(got_x, expect_x, "round {round} lane {t} X");
                let mut expect_y = ys[t].clone();
                expect_y.resize(stride, 0);
                assert_eq!(got_y, expect_y, "round {round} lane {t} Y untouched");
            }
        }
    }

    /// Every ISA path against the portable oracle, bit for bit, on random
    /// planes: ragged prefixes of every width, mixed `sel`, identity lanes
    /// beside α = u32::MAX / rs = 31, and untouched bytes past the prefix
    /// and above `rows`.
    #[test]
    fn isa_paths_match_portable_kernel() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for isa in [KernelIsa::Avx512, KernelIsa::Avx2] {
            if !isa.available() {
                eprintln!("skipped: this CPU cannot run the {} kernel", isa.name());
                continue;
            }
            for w in [8usize, 32, 33, 128] {
                for rows in [0usize, 1, 2, 64] {
                    let cap = rows + 2;
                    for lanes in 1..=w {
                        let u0: Vec<Limb> = (0..cap * w).map(|_| next() as Limb).collect();
                        let v0: Vec<Limb> = (0..cap * w).map(|_| next() as Limb).collect();
                        let mut sel = vec![0 as Limb; w];
                        let mut alpha = vec![0 as Limb; w];
                        let mut rs = vec![0u32; w];
                        for t in 0..w {
                            let r = next();
                            sel[t] = if r & 1 == 0 { 0 } else { Limb::MAX };
                            (alpha[t], rs[t]) = match (r >> 1) % 4 {
                                0 => (0, 0),
                                1 => (Limb::MAX, 31),
                                _ => ((r >> 8) as Limb, (r >> 40) as u32 % 32),
                            };
                        }
                        let mut run = |isa: KernelIsa| {
                            let (mut u, mut v) = (u0.clone(), v0.clone());
                            // Per-lane slices and outputs exactly `lanes`
                            // long, the dispatcher's minimum; the outputs
                            // start as garbage, which the pass must not
                            // read.
                            let mut out = PassOut::new(lanes);
                            for t in 0..lanes {
                                out.len[t] = next() as u32;
                                out.less[t] = next() as Limb;
                                out.top1[t] = next() as Limb;
                                out.low1[t] = next() as Limb;
                            }
                            let ran = columns_on(
                                isa,
                                &mut u,
                                &mut v,
                                w,
                                lanes,
                                rows,
                                &sel[..lanes],
                                &alpha[..lanes],
                                &rs[..lanes],
                                &mut out,
                            );
                            assert!(ran);
                            (u, v, out)
                        };
                        let (u, v, out) = run(isa);
                        let (pu, pv, pout) = run(KernelIsa::Portable);
                        let at = format!("{} w={w} lanes={lanes} rows={rows}", isa.name());
                        assert!(u == pu && v == pv, "{at}: differs from portable");
                        assert_eq!(out.len, pout.len, "{at}: lengths");
                        assert_eq!(out.less, pout.less, "{at}: verdicts");
                        for t in 0..lanes {
                            assert_eq!(out.heads(t), pout.heads(t), "{at}: heads of lane {t}");
                        }
                        for i in 0..cap * w {
                            if i % w >= lanes || i / w >= rows {
                                assert_eq!((u[i], v[i]), (u0[i], v0[i]), "{at}: word {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `div_below_2_32` against the hardware division wherever the
    /// quotient is below 2³², 0 included: exact multiples (where an f64 estimate lands
    /// on or just past the integer), one below and one short of the next
    /// multiple, divisors across the whole range.
    #[test]
    fn f64_quotient_is_exact_below_2_32() {
        let mut state = 0x5851_f42d_4c95_7f2du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ds = [
            1u64,
            2,
            3,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX / 3,
        ];
        for round in 0..20_000 {
            let d = match round % 4 {
                0 => ds[round / 4 % ds.len()],
                1 => next() | 1 << 32,
                2 => next() >> (next() % 64),
                _ => (next() >> 31).max(1),
            }
            .max(1);
            let qmax = (u64::MAX / d).min(u32::MAX as u64);
            let q = match round % 3 {
                0 => qmax,
                1 => next() % (qmax + 1),
                _ => qmax.min(next() % 8),
            };
            let base = q * d;
            for n in [
                base,
                base.saturating_sub(1),
                base + (d - 1).min(u64::MAX - base),
            ] {
                if n / d <= u32::MAX as u64 {
                    assert_eq!(div_below_2_32(n, d), n / d, "n={n:#x} d={d:#x}");
                }
            }
        }
    }

    /// One lane's operands for the planner tests, from `shape`: random
    /// words, edge words (0, 1, `u32::MAX`), `Y` repeating `X`'s top two
    /// words, `Y = X` (a zero low difference), or `X`'s top two words an
    /// exact multiple of `y12 + 1` (where the f64 quotient must correct).
    fn lane_operands(shape: u8, mut next: impl FnMut() -> u64) -> (Vec<Limb>, Vec<Limb>) {
        const EDGE: [Limb; 4] = [0, 1, Limb::MAX, Limb::MAX - 1];
        let lx = match next() % 3 {
            0 => 1 + (next() % 4) as usize,
            1 => 3 + (next() % 3) as usize,
            _ => 1 + (next() % 64) as usize,
        };
        let ly = match next() % 4 {
            0 => lx,
            1 => lx.saturating_sub(1).max(1),
            _ => 1 + (next() % lx as u64) as usize,
        };
        let mut word = |edge: bool| -> Limb {
            if edge {
                EDGE[(next() % 4) as usize]
            } else {
                next() as Limb
            }
        };
        let edge = shape % 2 == 1;
        let mut x: Vec<Limb> = (0..lx).map(|_| word(edge)).collect();
        let mut y: Vec<Limb> = (0..ly).map(|_| word(edge)).collect();
        *x.last_mut().expect("lx >= 1") |= (x[lx - 1] == 0) as Limb;
        *y.last_mut().expect("ly >= 1") |= (y[ly - 1] == 0) as Limb;
        match shape / 2 % 5 {
            // Y repeats X's top two words.
            1 if ly >= 2 => {
                y[ly - 1] = x[lx - 1];
                y[ly - 2] = x[lx.max(2) - 2];
            }
            // Y = X.
            2 => y = x.clone(),
            // X's top two words a multiple of y12 + 1 (equal lengths).
            3 if ly >= 3 && y[ly - 1] != Limb::MAX => {
                x = y.clone();
                let y12 = (y[ly - 1] as u64) << LIMB_BITS | y[ly - 2] as u64;
                let q = (next() % (u64::MAX / (y12 + 1)).max(1)).max(1);
                let x12 = q * (y12 + 1);
                x[ly - 1] = (x12 >> LIMB_BITS) as Limb;
                x[ly - 2] = x12 as Limb;
            }
            // y1 = 1 (or Y = 1).
            4 => y[ly - 1] = 1,
            _ => {}
        }
        let (lx, ly) = (ops::normalized_len(&x), ops::normalized_len(&y));
        if ops::cmp(&x[..lx], &y[..ly]) == core::cmp::Ordering::Less {
            (y, x)
        } else {
            (x, y)
        }
    }

    proptest! {
        /// `plan_lanes` gives every lane exactly what the scalar planning
        /// loop gives it: the same termination, and `plan_lane`'s plan —
        /// fused `(α, rs)` or the same fixup, in lane order — with the
        /// same trip count and running count.
        #[test]
        fn plan_lanes_matches_plan_lane(
            seed in any::<u64>(),
            lanes in 1usize..96,
            threshold_bits in prop_oneof![Just(0u64), 1u64..2048],
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut heads = LaneHeads::new(lanes);
            let mut states = vec![LaneState::Running; lanes];
            let mut expect_states = states.clone();
            let mut expect_alpha = vec![0 as Limb; lanes];
            let mut expect_rs = vec![0u32; lanes];
            let mut expect_fixups = Vec::new();
            let (mut expect_rows, mut expect_running) = (0usize, 0usize);
            for t in 0..lanes {
                let (x, mut y) = lane_operands((next() % 10) as u8, &mut next);
                if next() % 16 == 0 {
                    y.clear();
                }
                let (lx, ly) = (ops::normalized_len(&x), ops::normalized_len(&y));
                heads.set_x(t, lx, head_words(lx, |k| x[k]));
                heads.set_y(t, ly, head_words(ly, |k| y[k]));
                states[t] = match next() % 16 {
                    0 => LaneState::Done,
                    1 => LaneState::Early,
                    _ => LaneState::Running,
                };
                expect_states[t] = states[t];
                if states[t] != LaneState::Running {
                    continue;
                }
                if ly == 0 {
                    expect_states[t] = LaneState::Done;
                    continue;
                }
                let ybits = (ly as u64 - 1) * 32 + 32 - y[ly - 1].leading_zeros() as u64;
                if ybits < threshold_bits {
                    expect_states[t] = LaneState::Early;
                    continue;
                }
                expect_running += 1;
                let (x_top, x_lo) = (top2(&x, lx), pack_lo(&x[..lx]));
                let (y_top, y_lo) = (top2(&y, ly), pack_lo(&y[..ly]));
                match plan_lane(x_top, x_lo, lx, y_top, y_lo, ly).0 {
                    LanePlan::Fused { alpha, rs } => {
                        expect_alpha[t] = alpha;
                        expect_rs[t] = rs;
                        expect_rows = expect_rows.max(lx);
                    }
                    other => expect_fixups.push((t, other)),
                }
            }
            // Every build this CPU runs, each from the same starting state.
            for isa in KernelIsa::ALL {
                let mut plans = LanePlans::new(lanes);
                plans.alpha.fill(7);
                plans.rs.fill(7);
                let mut got_states = states.clone();
                if !plan_lanes_on(isa, &heads, &mut got_states, lanes, threshold_bits, &mut plans) {
                    continue;
                }
                let at = isa.name();
                prop_assert_eq!(&got_states, &expect_states, "{}", at);
                prop_assert_eq!(&plans.alpha, &expect_alpha, "{}", at);
                prop_assert_eq!(&plans.rs, &expect_rs, "{}", at);
                prop_assert_eq!(&plans.fixups, &expect_fixups, "{}", at);
                prop_assert_eq!(plans.rows, expect_rows, "{}", at);
                prop_assert_eq!(plans.running, expect_running, "{}", at);
            }
        }
    }
}
