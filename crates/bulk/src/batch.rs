//! The batch-GCD baseline (product tree + scaled remainder tree).
//!
//! This is the attack the literature already had when the paper was written
//! (Heninger et al. / Lenstra et al., implemented by tools like `fastgcd`):
//! instead of `m(m−1)/2` pairwise GCDs it computes, for every modulus,
//! `gcd(n_i, (P mod n_i²)/n_i)` with `P = Π n_j` — quasi-linear in `m` at
//! the price of multi-million-bit multiplications. Implemented here as the
//! comparison baseline the repository's benchmarks pit the paper's
//! pairwise GPU approach against.
//!
//! The descent is Bernstein's *scaled* remainder tree ("Scaled remainder
//! trees", 2004). Instead of `P mod v²` every node `v` carries the
//! fixed-point fraction `y_v ≈ frac(P / v²)`, and a child `c` with sibling
//! `s` follows from its parent by one multiplication, because
//! `P / c² = (P / v²) · s²`:
//!
//! ```text
//! y_c = frac(y_v · s²)
//! ```
//!
//! At a leaf, `y_n · n = (P mod n²) / n = (P/n) mod n` is an integer, so
//! rounding recovers the old descent's quotient modulo `n` and the final
//! `gcd(q, n)` — and every output — is bitwise unchanged. The
//! per-node divisions (Newton at the wide nodes, 7–8× the cost of a
//! multiply of the same width) become one multiply each:
//!
//! * **Seed at the root's children.** `frac(P / c²) = (s mod c) / c`, so
//!   each root child costs one division by `c`, a Newton division whose
//!   small residues run as wrapped products (`bigint::newton`). Seeding
//!   at `1/P` instead would need a reciprocal twice the root's width and
//!   the largest transforms of the whole run. Nothing else needs the root
//!   `P`, so the product tree stops at its two children and the root
//!   multiply, the largest of the build, is never made.
//! * **Wrapped products.** A step only needs the product modulo
//!   `β^{p_v}` with its low limbs dropped, so wide steps use
//!   [`ntt::mul_wrap_into`] modulo `β^N − 1`, `N = p_v.next_power_of_two()`:
//!   half the transform of the full product. The largest transform of the
//!   descent is thus `next_pow2(p)` at the root's children. Both children
//!   of a node multiply the same `y_v` at the same wrap, so where both
//!   steps wrap, one [`ntt::mul_wrap_pair_into`] transforms `y_v` once for
//!   the two: 5 transforms per prime instead of 6.
//! * **Squares on the fly.** `s²` is computed when the step needs it and
//!   dropped; no squared tree is kept.
//!
//! The precision recurrence and the error bound that make the leaf
//! rounding exact are stated at `node_precision`. A leaf whose rounding
//! margin is nevertheless under ¼ is recomputed exactly as
//! `(P mod n²) / n`, with `P mod n²` the product of the root's two
//! children reduced modulo `n²`, so no bound slip can return a silently
//! wrong answer.
//!
//! **Leaf step.** The leaves run the paper's bulk engine: every leaf's
//! quotient is rounded first, and the odd moduli with a nonzero quotient
//! queue `(q / 2^k, n)` for one [`LockstepEngine::run_queue`] batch of
//! full Approximate Euclid GCDs, on an engine as wide as the compacted
//! scan backend's. Even moduli, zero quotients and the margin fallbacks
//! take the scalar path (`leaf_gcd`). Both drivers share the stage
//! (`leaf_stage`); the parallel one runs one queue per worker.
//!
//! The tree arithmetic rides the `bulkgcd-bigint` dispatch ladder
//! (NTT multiply, Newton division), and [`batch_gcd_into`] threads a
//! [`BatchScratch`] through every node so the steady state performs no
//! allocations below the subquadratic cutoffs (pinned by
//! `tests/alloc_steady_state.rs`).

use crate::lockstep::{LockstepEngine, POOL_WARPS};
use crate::scan::LockstepBackend;
use bulkgcd_bigint::div::DivScratch;
use bulkgcd_bigint::gcd::gcd_into;
use bulkgcd_bigint::mul::mul_dispatch;
use bulkgcd_bigint::{ntt, ops, thresholds, Limb, Nat, LIMB_BITS};
use bulkgcd_core::{run_in_place, Algorithm, GcdPair, GcdStatus, NoProbe, Termination};
use core::mem;
use rayon::prelude::*;

/// A bottom-up product tree: `levels[0]` are the inputs, each higher level
/// holds pairwise products, `levels.last()` is `[Π inputs]`.
#[derive(Debug, Clone)]
pub struct ProductTree {
    /// Tree levels, leaves first.
    pub levels: Vec<Vec<Nat>>,
}

impl ProductTree {
    /// Build the tree. Panics on empty input, which has no meaningful
    /// product.
    pub fn build(moduli: &[Nat]) -> ProductTree {
        assert!(!moduli.is_empty(), "product tree of nothing");
        let mut prev = moduli.to_vec();
        let mut levels = Vec::new();
        while prev.len() > 1 {
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for chunk in prev.chunks(2) {
                match chunk {
                    [a, b] => {
                        let mut p = Nat::default();
                        a.mul_into(b, &mut p);
                        next.push(p);
                    }
                    [a] => next.push(a.clone()),
                    _ => unreachable!(),
                }
            }
            levels.push(prev);
            prev = next;
        }
        levels.push(prev);
        ProductTree { levels }
    }

    /// The root product `Π n_i`.
    pub fn root(&self) -> &Nat {
        // build() always ends with a single-entry root level.
        &self.levels[self.levels.len() - 1][0]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the tree has no leaves (never: build rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }
}

/// Working memory of one node step ([`seed`], [`children`], [`leaf_gcd`]):
/// one per serial descent, one per rayon worker in the parallel one.
#[derive(Default)]
struct StepScratch {
    /// The sibling's square `s²`, or the seed's shifted dividend.
    sq: Nat,
    /// The other sibling's square, for a pair of children.
    sq1: Nat,
    /// Raw product limbs (full or wrapped).
    prod: Vec<Limb>,
    /// The second child's wrapped product, for a pair of children.
    prod1: Vec<Limb>,
    /// Seed quotient, then the leaf quotient `q`.
    q: Nat,
    /// Seed remainder (discarded).
    r: Nat,
    /// Knuth division working memory for the seed.
    div: DivScratch,
    /// Approximate Euclid operands for the leaf step.
    pair: GcdPair,
    /// Binary-GCD scratch for a leaf with an even modulus.
    gx: Vec<Limb>,
    /// Second binary-GCD scratch buffer.
    gy: Vec<Limb>,
}

/// Working memory for [`batch_gcd_into`]: the product-tree levels, their
/// precisions, the two fraction-level ping-pong buffers, the per-node
/// step scratch and the leaf stage's lockstep engine. A warm scratch
/// makes repeated batches over same-shaped corpora allocation-free in the
/// steady state (below the subquadratic cutoffs, whose algorithms
/// allocate internally by design).
#[derive(Default)]
pub struct BatchScratch {
    /// Computed product-tree levels, pairwise-up from the moduli
    /// (`levels[0]` pairs the inputs; the last built level holds the root's
    /// two children, and two moduli build none).
    levels: Vec<Vec<Nat>>,
    /// Fraction precisions in limbs; `prec[k]` belongs to `tree_level` `k`.
    prec: Vec<Vec<usize>>,
    /// Current fraction level of the descent.
    ys: Vec<Nat>,
    /// Next fraction level (ping-pong partner of `ys`).
    next: Vec<Nat>,
    /// Per-node temporaries.
    step: StepScratch,
    /// The leaf stage's quotient queue and lockstep engine.
    leaves: LeafScratch,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Grow a scratch level to at least `n` slots. Never shrinks: slots left
/// over from a larger batch keep their buffers for reuse.
fn grow_to(v: &mut Vec<Nat>, n: usize) {
    if v.len() < n {
        v.resize_with(n, Nat::default);
    }
}

/// Number of product-tree nodes at `levels[ci]` for an `m`-modulus batch:
/// `ceil(m / 2^(ci+1))`, computed by repeated halving to match the build.
fn level_width(m: usize, ci: usize) -> usize {
    let mut w = m;
    for _ in 0..=ci {
        w = w.div_ceil(2);
    }
    w
}

/// Tree level `k` counted from the leaves: `0` is the moduli themselves,
/// `k ≥ 1` is `levels[k − 1]` (only its live prefix: scratch levels may
/// hold spare slots from an earlier, larger batch).
fn tree_level<'a>(moduli: &'a [Nat], levels: &'a [Vec<Nat>], k: usize) -> &'a [Nat] {
    if k == 0 {
        moduli
    } else {
        &levels[k - 1][..level_width(moduli.len(), k - 1)]
    }
}

/// Precision in limbs of the fraction at node `i` of a level whose
/// children are `kids` with precisions `kid_prec`.
///
/// A leaf `n` carries `|n| + 1` limbs; a parent `v` with children `a`, `b`
/// carries `max(p_a + 2|b|, p_b + 2|a|) + 1`; a node carried up unpaired
/// shares its only child's fraction and precision. Write `ŷ_v` for the
/// stored fraction, an integer below `β^{p_v}`, and measure its error
/// against `frac(P / v²)` in units of `β^{−p_v}`, on the circle. Then:
///
/// * a root child's seed is an exact floor: error under 1;
/// * a step multiplies the parent's error by `s² < β^{p_v − p_c − 1}`
///   (that is the recurrence), which shrinks it below `1/β` of a child
///   unit, then truncates to `p_c` limbs (−1 at most) and, for a wrapped
///   product, adds the fold's carry into the window (+2 at most);
///
/// so every fraction is within 3 units. At a leaf the rounded value is
/// `x = ŷ·n / β^{|n|+1}`, within `3n/β^{|n|+1} < 2⁻³⁰` of the integer
/// `(P/n) mod n`: the one guard limb keeps its fractional part far from
/// ½, and [`leaf_gcd`]'s ¼-margin check never fires on a correct bound.
fn node_precision(kids: &[Nat], kid_prec: &[usize], i: usize) -> usize {
    let (a, b) = (2 * i, 2 * i + 1);
    match kids.get(b) {
        Some(nb) => (kid_prec[a] + 2 * nb.len()).max(kid_prec[b] + 2 * kids[a].len()) + 1,
        None => kid_prec[a],
    }
}

/// Fill `prec` with the precision of every tree level below the root.
/// Vectors only grow, so a warm `prec` is reused without allocating.
fn precisions(moduli: &[Nat], levels: &[Vec<Nat>], nl: usize, prec: &mut Vec<Vec<usize>>) {
    if prec.len() < nl {
        prec.resize_with(nl, Vec::new);
    }
    prec[0].clear();
    prec[0].extend(moduli.iter().map(|n| n.len() + 1));
    for k in 1..nl {
        let kids = tree_level(moduli, levels, k - 1);
        let (below, above) = prec.split_at_mut(k);
        above[0].clear();
        above[0].extend(
            (0..tree_level(moduli, levels, k).len())
                .map(|i| node_precision(kids, &below[k - 1], i)),
        );
    }
}

/// Seed a child `c` of the root whose sibling is `s`: `P / c² = s / c`, so
/// `y_c = frac(s / c)`, i.e. the low `p` limbs of `⌊s·β^p / c⌋` — one
/// division, exact to under one unit.
fn seed(c: &Nat, s: &Nat, p: usize, st: &mut StepScratch, y: &mut Nat) {
    st.prod.clear();
    st.prod.resize(p, 0);
    st.prod.extend_from_slice(s.limbs());
    st.sq.assign_limbs(&st.prod);
    st.sq.div_rem_into(c, &mut st.q, &mut st.r, &mut st.div);
    let q = st.q.limbs();
    y.assign_limbs(&q[..q.len().min(p)]);
}

/// Whether a step multiplies `y_v` by the square `s2` wrapped on the NTT:
/// when both factors reach the NTT cutoff (so `set_legacy_ladder()` turns
/// it off) and the wrap is a supported transform size. The recurrence
/// gives `p_v ≥ p_c + |s²| + 1`, so the limbs past the wrap
/// `p_v.next_power_of_two()` fold back strictly below the kept window.
fn wraps(y_v: &Nat, s2: &Nat, wrap: usize) -> bool {
    y_v.len().min(s2.len()) >= thresholds::NTT.get() && wrap <= ntt::MAX_NTT_TOTAL_LIMBS
}

/// Limbs `[p_v − p_c, p_v)` of a step's product `prod`, into `y_c`.
fn window(prod: &[Limb], p_v: usize, p_c: usize, y_c: &mut Nat) {
    let hi = p_v.min(prod.len());
    y_c.assign_limbs(prod.get(p_v - p_c..hi).unwrap_or(&[]));
}

/// One descent step: from the parent's fraction `y_v` (`p_v` limbs) and
/// the square `s2` of the child's sibling, the child's fraction
/// `y_c = frac(y_v · s²)` to `p_c` limbs — limbs `[p_v − p_c, p_v)` of the
/// product, computed in `prod`.
fn step(y_v: &Nat, p_v: usize, s2: &Nat, p_c: usize, prod: &mut Vec<Limb>, y_c: &mut Nat) {
    let (a, b) = (y_v.limbs(), s2.limbs());
    let wrap = p_v.next_power_of_two();
    prod.clear();
    if wraps(y_v, s2, wrap) {
        prod.resize(wrap, 0);
        ntt::mul_wrap_into(prod, a, b);
    } else {
        prod.resize(a.len() + b.len(), 0);
        mul_dispatch(prod, a, b);
    }
    window(prod, p_v, p_c, y_c);
}

/// The fractions of the children of tree node `v` into `ys` (one slot for
/// a node carried up unpaired, two for a pair), from the node's fraction
/// `y_v` of `p_v` limbs; the children are nodes `2v` and `2v + 1` of tree
/// level `nodes` (precisions `prec`). Both children of a pair multiply
/// `y_v` at the same wrap, so where both steps wrap, one
/// [`ntt::mul_wrap_pair_into`] transforms `y_v` once for the two.
fn children(
    nodes: &[Nat],
    prec: &[usize],
    v: usize,
    y_v: &Nat,
    p_v: usize,
    st: &mut StepScratch,
    ys: &mut [Nat],
) {
    let (a, b) = (2 * v, 2 * v + 1);
    let [y_a, y_b] = &mut *ys else {
        // Carried up unpaired: the parent is this node.
        ys[0].assign_limbs(y_v.limbs());
        return;
    };
    // Each child's step multiplies by its sibling's square.
    nodes[b].square_into(&mut st.sq);
    nodes[a].square_into(&mut st.sq1);
    let wrap = p_v.next_power_of_two();
    if wraps(y_v, &st.sq, wrap) && wraps(y_v, &st.sq1, wrap) {
        for prod in [&mut st.prod, &mut st.prod1] {
            prod.clear();
            prod.resize(wrap, 0);
        }
        ntt::mul_wrap_pair_into(
            [&mut st.prod, &mut st.prod1],
            y_v.limbs(),
            [st.sq.limbs(), st.sq1.limbs()],
        );
        window(&st.prod, p_v, prec[a], y_a);
        window(&st.prod1, p_v, prec[b], y_b);
    } else {
        step(y_v, p_v, &st.sq, prec[a], &mut st.prod, y_a);
        step(y_v, p_v, &st.sq1, prec[b], &mut st.prod, y_b);
    }
}

/// `q = round(y · n)` into `st.q` for a leaf `n` whose fraction `y` has
/// `p` limbs: `(P/n) mod n`, or `n` itself when a true 0 is approximated
/// from just below 1 — the same `gcd(q, n)`. Returns `false`, leaving
/// `st.q` unset, when the fractional part of `y·n / β^p` lies within ¼
/// of ½.
fn round_quotient(y: &Nat, p: usize, n: &Nat, st: &mut StepScratch) -> bool {
    let (a, b) = (y.limbs(), n.limbs());
    let z = &mut st.prod;
    z.clear();
    // One spare limb above the product takes the round-up carry.
    z.resize((a.len() + b.len()).max(p) + 1, 0);
    mul_dispatch(z, a, b);
    let top = z[p - 1] >> (LIMB_BITS - 2);
    if top == 1 || top == 2 {
        return false;
    }
    if top == 3 {
        ops::add_assign(&mut z[p..], &[1]);
    }
    st.q.assign_limbs(&z[p..]);
    true
}

/// The leaf step for modulus `n` with fraction `y` of `p` limbs:
/// `out = gcd((P/n) mod n, n)`, by the paper's Approximate Euclid. Returns
/// `true` when the rounding margin was under ¼ and the quotient was
/// recomputed exactly as `(P mod n²) / n` instead, from `factors`, whose
/// product is `P` (the root's children: the tree is never multiplied up
/// to the root itself).
fn leaf_gcd(
    y: &Nat,
    p: usize,
    n: &Nat,
    factors: &[Nat],
    st: &mut StepScratch,
    out: &mut Nat,
) -> bool {
    let exact = !round_quotient(y, p, n, st);
    if exact {
        let n2 = n.square();
        let p_mod = factors
            .iter()
            .fold(Nat::one(), |acc, f| acc.mul(&f.rem(&n2)).rem(&n2));
        st.q = p_mod.div(n);
    }
    if n.is_even() {
        // Approximate Euclid takes odd operands only.
        gcd_into(&st.q, n, &mut st.gx, &mut st.gy, out);
    } else if st.q.is_zero() {
        out.assign_limbs(n.limbs());
    } else {
        // gcd(q, n) = gcd(q / 2^k, n) for odd n.
        let q = &mut st.prod;
        q.clear();
        q.extend_from_slice(st.q.limbs());
        let (len, _) = ops::rshift_in_place(q);
        st.pair.load_from_limbs(&q[..len], n.limbs());
        run_in_place(
            Algorithm::Approximate,
            &mut st.pair,
            Termination::Full,
            &mut NoProbe,
        );
        out.assign_limbs(st.pair.x());
    }
    exact
}

/// Working memory of the leaf stage ([`leaf_stage`]): the queued leaves'
/// odd quotients and the lockstep engine that runs their GCDs. One per
/// serial batch, one per rayon worker in the parallel one.
struct LeafScratch {
    /// The queued quotients `q / 2^k`, back to back.
    quotients: Vec<Limb>,
    /// Per queued leaf: its index in the stage's slice and the end of its
    /// quotient in `quotients` (each starts where the previous ends).
    queued: Vec<(usize, usize)>,
    /// The engine's input pairs. Empty between calls: it only keeps its
    /// allocation, see [`recycle`].
    inputs: Vec<(&'static [Limb], &'static [Limb])>,
    /// A compacting engine as wide as the compacted scan backend's.
    engine: LockstepEngine,
}

impl Default for LeafScratch {
    fn default() -> Self {
        let width = LockstepBackend::default().warp_width * POOL_WARPS;
        LeafScratch {
            quotients: Vec::new(),
            queued: Vec::new(),
            inputs: Vec::new(),
            engine: LockstepEngine::new(width),
        }
    }
}

/// An empty `Vec` of borrowed pairs, on the allocation of `v`: the
/// in-place `collect` of a `Vec`'s own iterator into a same-layout element
/// type keeps its buffer, so the pair list of every leaf stage reuses the
/// last one's memory whatever the borrows' lifetimes.
fn recycle<'b>(mut v: Vec<(&[Limb], &[Limb])>) -> Vec<(&'b [Limb], &'b [Limb])> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// The leaf step for every modulus of `moduli`, whose fractions are `ys`
/// with precisions `prec`, into `out`. Each leaf's quotient is rounded
/// first; an odd modulus with a nonzero quotient then queues
/// `(q / 2^k, n)`, and the whole queue runs through the compacting
/// lockstep engine as one batch of full Approximate Euclid GCDs — the
/// sequence `leaf_gcd` runs per leaf, so the results are the same. Even
/// moduli, zero quotients and leaves whose rounding margin fails take
/// [`leaf_gcd`]'s scalar path, which takes the root's children `factors`.
fn leaf_stage(
    moduli: &[Nat],
    ys: &[Nat],
    prec: &[usize],
    factors: &[Nat],
    st: &mut StepScratch,
    leaves: &mut LeafScratch,
    out: &mut [Nat],
) {
    let LeafScratch {
        quotients,
        queued,
        inputs,
        engine,
    } = leaves;
    quotients.clear();
    queued.clear();
    for (i, n) in moduli.iter().enumerate() {
        if n.is_even() || !round_quotient(&ys[i], prec[i], n, st) {
            leaf_gcd(&ys[i], prec[i], n, factors, st, &mut out[i]);
        } else if st.q.is_zero() {
            out[i].assign_limbs(n.limbs());
        } else {
            // gcd(q, n) = gcd(q / 2^k, n) for odd n.
            let start = quotients.len();
            quotients.extend_from_slice(st.q.limbs());
            let (len, _) = ops::rshift_in_place(&mut quotients[start..]);
            quotients.truncate(start + len);
            queued.push((i, quotients.len()));
        }
    }
    if queued.is_empty() {
        return;
    }
    let mut pairs = recycle(mem::take(inputs));
    let mut start = 0;
    for &(i, end) in queued.iter() {
        pairs.push((&quotients[start..end], moduli[i].limbs()));
        start = end;
    }
    engine.run_queue(&pairs, Termination::Full);
    *inputs = recycle(pairs);
    for (e, &(i, _)) in queued.iter().enumerate() {
        debug_assert_eq!(engine.entry_status(e), GcdStatus::Done);
        match engine.entry_factor(e) {
            Some(g) => out[i].assign_limbs(g.limbs()),
            None => out[i].assign_limbs(&[1]),
        }
    }
}

/// For every modulus, compute `gcd(n_i, (P mod n_i²)/n_i)` by descending
/// a scaled remainder tree. The result is > 1 exactly for moduli sharing
/// a prime with some other modulus (or appearing twice).
///
/// ```
/// use bulkgcd_bigint::Nat;
/// use bulkgcd_bulk::batch_gcd;
///
/// let moduli = vec![
///     Nat::from_u64(101 * 211),
///     Nat::from_u64(101 * 223), // shares 101 with the first
///     Nat::from_u64(103 * 227), // clean
/// ];
/// let g = batch_gcd(&moduli);
/// assert_eq!(g[0], Nat::from_u64(101));
/// assert_eq!(g[1], Nat::from_u64(101));
/// assert!(g[2].is_one());
/// ```
pub fn batch_gcd(moduli: &[Nat]) -> Vec<Nat> {
    let mut scratch = BatchScratch::new();
    let mut out = Vec::new();
    batch_gcd_into(moduli, &mut scratch, &mut out);
    out
}

/// [`batch_gcd`] with caller-owned scratch and output: repeated calls over
/// same-shaped corpora reuse every buffer — tree levels, precisions,
/// fraction ping-pong, step scratch and the result `Nat`s.
pub fn batch_gcd_into(moduli: &[Nat], scratch: &mut BatchScratch, out: &mut Vec<Nat>) {
    out.resize_with(moduli.len(), Nat::default);
    if moduli.len() < 2 {
        for o in out.iter_mut() {
            o.assign_limbs(&[1]);
        }
        return;
    }
    let BatchScratch {
        levels,
        prec,
        ys,
        next,
        step,
        leaves,
    } = scratch;

    // Product tree, bottom-up, up to the root's two children: nothing
    // needs the root itself. `levels[0]` pairs the moduli themselves, so
    // the inputs are never copied; `nl` counts the tree levels below the
    // root this call, the moduli included. Scratch vectors only ever grow:
    // a smaller batch after a larger one leaves the extra slots (and their
    // buffers) in place instead of dropping them, so same-shaped repeat
    // calls stay allocation-free and shape changes re-pay only the delta.
    // Live widths are tracked via `level_width`, never via `Vec::len`.
    let m = moduli.len();
    let mut nl = 1usize;
    let mut width = m;
    while width > 2 {
        let next_w = width.div_ceil(2);
        if levels.len() < nl {
            levels.push(Vec::new());
        }
        let (below, above) = levels.split_at_mut(nl - 1);
        let cur = &mut above[0];
        grow_to(cur, next_w);
        let kids = tree_level(moduli, below, nl - 1);
        for (i, slot) in cur.iter_mut().take(next_w).enumerate() {
            match kids.get(2 * i + 1) {
                Some(b) => kids[2 * i].mul_into(b, slot),
                None => slot.assign_limbs(kids[2 * i].limbs()),
            }
        }
        nl += 1;
        width = next_w;
    }
    precisions(moduli, levels, nl, prec);

    // Scaled remainder tree, top down: seed the root's two children, then
    // one multiplication per node.
    let kids = tree_level(moduli, levels, nl - 1);
    grow_to(ys, 2);
    for (idx, y) in ys.iter_mut().take(2).enumerate() {
        seed(&kids[idx], &kids[idx ^ 1], prec[nl - 1][idx], step, y);
    }
    for k in (0..nl - 1).rev() {
        let nodes = tree_level(moduli, levels, k);
        grow_to(next, nodes.len());
        let slots = next[..nodes.len()].chunks_mut(2);
        for (v, (ys_v, y_v)) in slots.zip(ys.iter()).enumerate() {
            children(nodes, &prec[k], v, y_v, prec[k + 1][v], step, ys_v);
        }
        mem::swap(ys, next);
    }
    leaf_stage(moduli, &ys[..m], &prec[0], kids, step, leaves, out);
    // Hand the ping-pong buffers back in their starting roles, so a repeat
    // call of the same shape refills every slot with a value of the size
    // it held before: no slot has to grow in the steady state.
    if nl.is_multiple_of(2) {
        mem::swap(ys, next);
    }
}

/// Parallel [`batch_gcd`]: the same per-node steps with every tree level
/// mapped across the rayon pool. The level-by-level data dependence is
/// inherent (each fraction needs its parent's), but levels are wide near
/// the leaves, where the nodes are numerous. Per-worker scratch
/// (`map_init`) keeps the per-node temporaries off the allocator.
pub fn batch_gcd_parallel(moduli: &[Nat]) -> Vec<Nat> {
    if moduli.len() < 2 {
        return moduli.iter().map(|_| Nat::one()).collect();
    }
    // Product tree, parallel within each level, up to the root's children.
    let mut levels: Vec<Vec<Nat>> = Vec::new();
    loop {
        let kids = tree_level(moduli, &levels, levels.len());
        if kids.len() <= 2 {
            break;
        }
        let next = kids
            .par_chunks(2)
            .map(|chunk| match chunk {
                [a, b] => a.mul(b),
                [a] => a.clone(),
                _ => unreachable!(),
            })
            .collect();
        levels.push(next);
    }
    let nl = levels.len() + 1;
    let mut prec = Vec::new();
    precisions(moduli, &levels, nl, &mut prec);

    let kids = tree_level(moduli, &levels, nl - 1);
    let mut ys: Vec<Nat> = kids
        .par_iter()
        .enumerate()
        .map_init(StepScratch::default, |st, (idx, c)| {
            let mut y = Nat::default();
            seed(c, &kids[idx ^ 1], prec[nl - 1][idx], st, &mut y);
            y
        })
        .collect();
    for k in (0..nl - 1).rev() {
        let nodes = tree_level(moduli, &levels, k);
        ys = nodes
            .par_chunks(2)
            .enumerate()
            .map_init(StepScratch::default, |st, (v, pair)| {
                let mut ys_v = vec![Nat::default(); pair.len()];
                children(nodes, &prec[k], v, &ys[v], prec[k + 1][v], st, &mut ys_v);
                ys_v
            })
            .flatten()
            .collect();
    }
    // One leaf queue per worker: the engine's compaction pays off over a
    // long queue, so the leaves split into as many chunks as threads.
    let chunk = moduli.len().div_ceil(rayon::current_num_threads());
    moduli
        .par_chunks(chunk)
        .zip(ys.chunks(chunk).zip(prec[0].chunks(chunk)))
        .map_init(
            || (StepScratch::default(), LeafScratch::default()),
            |(st, leaves), (moduli, (ys, prec))| {
                let mut out = vec![Nat::default(); moduli.len()];
                leaf_stage(moduli, ys, prec, kids, st, leaves, &mut out);
                out
            },
        )
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::prime::random_rsa_prime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nat(v: u128) -> Nat {
        Nat::from_u128(v)
    }

    #[test]
    fn product_tree_root_is_product() {
        let xs = [3u128, 5, 7, 11, 13];
        let t = ProductTree::build(&xs.map(nat));
        assert_eq!(t.root(), &nat(3 * 5 * 7 * 11 * 13));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn product_tree_single_leaf() {
        let t = ProductTree::build(&[nat(42)]);
        assert_eq!(t.root(), &nat(42));
        assert_eq!(t.levels.len(), 1);
    }

    #[test]
    fn batch_gcd_finds_shared_primes() {
        // n0 and n2 share 101; n1 and n3 share 103; n4 is clean.
        let moduli = [
            nat(101 * 211),
            nat(103 * 223),
            nat(101 * 227),
            nat(103 * 229),
            nat(233 * 239),
        ];
        let g = batch_gcd(&moduli);
        assert_eq!(g[0], nat(101));
        assert_eq!(g[1], nat(103));
        assert_eq!(g[2], nat(101));
        assert_eq!(g[3], nat(103));
        assert_eq!(g[4], Nat::one());
    }

    #[test]
    fn batch_gcd_clean_corpus_all_ones() {
        let moduli = [nat(101 * 211), nat(103 * 223), nat(107 * 227)];
        assert!(batch_gcd(&moduli).iter().all(|g| g.is_one()));
    }

    #[test]
    fn batch_gcd_duplicate_modulus_reports_modulus() {
        let n = nat(101 * 211);
        let g = batch_gcd(&[n.clone(), n.clone(), nat(103 * 223)]);
        assert_eq!(g[0], n);
        assert_eq!(g[1], n);
        assert!(g[2].is_one());
    }

    #[test]
    fn batch_gcd_degenerate_sizes() {
        assert!(batch_gcd(&[]).is_empty());
        assert_eq!(batch_gcd(&[nat(15)]), vec![Nat::one()]);
    }

    #[test]
    fn batch_gcd_matches_pairwise_on_rsa_corpus() {
        let mut rng = StdRng::seed_from_u64(1);
        let p_shared = random_rsa_prime(&mut rng, 64);
        let mut moduli: Vec<Nat> = (0..6)
            .map(|_| random_rsa_prime(&mut rng, 64).mul(&random_rsa_prime(&mut rng, 64)))
            .collect();
        moduli.push(p_shared.mul(&random_rsa_prime(&mut rng, 64)));
        moduli.push(p_shared.mul(&random_rsa_prime(&mut rng, 64)));
        let batch = batch_gcd(&moduli);
        // Pairwise oracle.
        for (i, ni) in moduli.iter().enumerate() {
            let mut expect = Nat::one();
            for (j, nj) in moduli.iter().enumerate() {
                if i != j {
                    let g = ni.gcd_reference(nj);
                    if !g.is_one() {
                        expect = g;
                    }
                }
            }
            assert_eq!(batch[i], expect, "modulus {i}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(5);
        let shared = random_rsa_prime(&mut rng, 48);
        let mut moduli: Vec<Nat> = (0..9)
            .map(|_| random_rsa_prime(&mut rng, 48).mul(&random_rsa_prime(&mut rng, 48)))
            .collect();
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 48)));
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 48)));
        assert_eq!(batch_gcd_parallel(&moduli), batch_gcd(&moduli));
        assert_eq!(batch_gcd_parallel(&[]), batch_gcd(&[]));
        assert_eq!(batch_gcd_parallel(&[nat(15)]), batch_gcd(&[nat(15)]));
    }

    #[test]
    fn odd_level_sizes_handled() {
        // 7 leaves exercises the unpaired-node carry at two levels.
        let moduli: Vec<Nat> = [3u128, 5, 7, 11, 13, 17, 19].map(nat).to_vec();
        let t = ProductTree::build(&moduli);
        assert_eq!(t.root(), &nat(3 * 5 * 7 * 11 * 13 * 17 * 19));
        let g = batch_gcd(&moduli);
        assert!(g.iter().all(|x| x.is_one()));
    }

    /// The root `P` of the moduli's product tree, and the root's two
    /// children, whose product it is.
    fn root_and_children(moduli: &[Nat]) -> (Nat, Vec<Nat>) {
        let tree = ProductTree::build(moduli);
        let kids = tree.levels[tree.levels.len() - 2].clone();
        (tree.root().clone(), kids)
    }

    /// `⌊frac(P / n²)·β^p⌋`, the exact leaf fraction.
    fn exact_leaf_fraction(root: &Nat, n: &Nat, p: usize) -> Nat {
        let n2 = n.square();
        root.rem(&n2).shl(32 * p as u64).div(&n2)
    }

    #[test]
    fn leaf_rounding_falls_back_when_the_margin_is_under_a_quarter() {
        let mut rng = StdRng::seed_from_u64(11);
        let shared = random_rsa_prime(&mut rng, 64);
        let mut moduli: Vec<Nat> = (0..4)
            .map(|_| random_rsa_prime(&mut rng, 64).mul(&random_rsa_prime(&mut rng, 64)))
            .collect();
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 64)));
        moduli.push(shared.mul(&random_rsa_prime(&mut rng, 64)));
        let (root, factors) = root_and_children(&moduli);
        let expect = batch_gcd(&moduli);
        let mut st = StepScratch::default();
        let mut g = Nat::default();
        for (i, n) in moduli.iter().enumerate() {
            let p = n.len() + 1;
            let y = exact_leaf_fraction(&root, n, p);
            assert!(!leaf_gcd(&y, p, n, &factors, &mut st, &mut g));
            assert_eq!(g, expect[i], "exact fraction, modulus {i}");

            // Moving y by 1/(8n) moves y·n by 1/8: inside the margin, the
            // rounding still lands on the right quotient.
            let eighth = Nat::one().shl(32 * p as u64).div(&n.shl(3));
            assert!(!leaf_gcd(&y.add(&eighth), p, n, &factors, &mut st, &mut g));
            assert_eq!(g, expect[i], "y + 1/(8n), modulus {i}");

            // Moving it by 1/(2n) puts y·n halfway between integers: the
            // margin check must refuse to round and recompute exactly.
            let half = eighth.shl(2);
            assert!(leaf_gcd(&y.add(&half), p, n, &factors, &mut st, &mut g));
            assert_eq!(g, expect[i], "y + 1/(2n), modulus {i}");
        }
        assert!(expect[4] == shared && expect[5] == shared);
    }

    /// Deterministic pseudo-random odd number of `limbs` limbs (top limb
    /// non-zero): composite test moduli without the cost of prime search.
    fn wide(state: &mut u64, limbs: usize) -> Nat {
        let mut v: Vec<Limb> = (0..limbs)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                (*state >> 32) as Limb
            })
            .collect();
        v[0] |= 1;
        v[limbs - 1] |= 1;
        Nat::from_vec(v)
    }

    /// `gcd(n_i, Π_{j≠i} n_j)`, with `gcd(n, 0) = n` for duplicates.
    fn oracle(moduli: &[Nat]) -> Vec<Nat> {
        moduli
            .iter()
            .enumerate()
            .map(|(i, ni)| {
                let mut r = Nat::one();
                for (j, nj) in moduli.iter().enumerate() {
                    if i != j {
                        r = r.mul(&nj.rem(ni)).rem(ni);
                    }
                }
                if r.is_zero() {
                    ni.clone()
                } else {
                    ni.gcd_reference(&r)
                }
            })
            .collect()
    }

    #[test]
    fn wide_mixed_corpus_takes_the_wrapped_steps_and_matches_the_oracle() {
        // 67 moduli (odd m): 32-limb numbers with small shared factors,
        // 1-limb composites, a duplicate, and a modulus whose top limb is
        // 1. The root's larger child holds 64 moduli (~2100 limbs), so the
        // steps below it square ~1050-limb siblings: past the NTT cutoff,
        // wrapped products.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut moduli: Vec<Nat> = (0..60)
            .map(|i| wide(&mut state, 32).mul(&nat([1, 3, 5, 7, 101, 103][i % 6])))
            .collect();
        moduli.extend([nat(101 * 211), nat(107 * 223), nat(109 * 227)]);
        moduli.push(Nat::one().shl(32 * 31).add(&nat(113 * 229)));
        moduli.push(moduli[5].clone());
        moduli.push(wide(&mut state, 31));
        moduli.push(nat(127 * 233));
        assert!(moduli[63].len() == 32 && moduli[63].limbs()[31] == 1);
        let expect = oracle(&moduli);
        assert_eq!(batch_gcd(&moduli), expect);
        assert_eq!(batch_gcd_parallel(&moduli), expect);
    }

    #[test]
    fn wrapped_step_is_within_two_units_of_the_exact_window() {
        // A step wide enough for the wrapped NTT product: |s²| = 1040
        // limbs and p_v = p_c + |s²| + 1 = 1941, so a 2048-point transform
        // where the full 2981-limb product needs 4096 points.
        let mut state = 0x0123_4567_89ab_cdef_u64;
        let s = wide(&mut state, 520);
        let (p_c, s2) = (900usize, s.square());
        let p_v = p_c + s2.len() + 1;
        let y_v = wide(&mut state, p_v);
        let (mut prod, mut y_c) = (Vec::new(), Nat::default());
        step(&y_v, p_v, &s2, p_c, &mut prod, &mut y_c);
        let full = y_v.mul(&s2);
        let limbs = full.limbs();
        let exact = Nat::from_limbs(&limbs[p_v - p_c..p_v.min(limbs.len())]);
        let modulus = Nat::one().shl(32 * p_c as u64);
        let diff = y_c.add(&modulus).sub(&exact).rem(&modulus);
        assert!(diff.to_u128().is_some_and(|d| d <= 2), "off by {diff:?}");
    }

    /// A corpus for the leaf stage's routing: odd moduli with shared
    /// primes, a device batch of five moduli on one prime, even moduli, a
    /// duplicate, and `n = a·b` with `a` and `b` each in another modulus,
    /// whose quotient `(P/n) mod n` is 0.
    fn leaf_routing_corpus() -> Vec<Nat> {
        let mut rng = StdRng::seed_from_u64(23);
        let mut prime = || random_rsa_prime(&mut rng, 64);
        let (shared, device, a, b) = (prime(), prime(), prime(), prime());
        let mut moduli: Vec<Nat> = (0..24).map(|_| prime().mul(&prime())).collect();
        moduli.push(shared.mul(&prime()));
        moduli.push(shared.mul(&prime()));
        moduli.extend((0..5).map(|_| device.mul(&prime())));
        moduli.push(Nat::from_u64(2).mul(&prime()));
        moduli.push(Nat::from_u64(4).mul(&shared));
        moduli.push(moduli[3].clone());
        moduli.push(a.mul(&prime()));
        moduli.push(b.mul(&prime()));
        moduli.push(a.mul(&b));
        moduli
    }

    #[test]
    fn lockstep_leaves_match_the_oracle_on_a_hostile_corpus() {
        let moduli = leaf_routing_corpus();
        let expect = oracle(&moduli);
        let zero_quotient = moduli.len() - 1;
        assert_eq!(expect[zero_quotient], moduli[zero_quotient]);
        assert_eq!(expect[3], moduli[3], "the duplicate reports itself");
        assert_eq!(batch_gcd(&moduli), expect);
        assert_eq!(batch_gcd_parallel(&moduli), expect);
        // Three workers split the leaves into uneven queues.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("thread pool");
        assert_eq!(pool.install(|| batch_gcd_parallel(&moduli)), expect);
    }

    #[test]
    fn leaf_stage_queues_only_odd_moduli_with_a_sound_nonzero_quotient() {
        // Exact leaf fractions, a third of them moved by 1/(2n) so that
        // its rounding margin fails and the leaf recomputes its quotient
        // on the scalar path; the results must still be the oracle's.
        let moduli = leaf_routing_corpus();
        let expect = oracle(&moduli);
        let (root, factors) = root_and_children(&moduli);
        let prec: Vec<usize> = moduli.iter().map(|n| n.len() + 1).collect();
        let ys: Vec<Nat> = moduli
            .iter()
            .zip(&prec)
            .enumerate()
            .map(|(i, (n, &p))| {
                let y = exact_leaf_fraction(&root, n, p);
                if i % 3 == 1 {
                    y.add(&Nat::one().shl(32 * p as u64).div(&n.shl(1)))
                } else {
                    y
                }
            })
            .collect();
        let (mut st, mut leaves) = (StepScratch::default(), LeafScratch::default());
        let mut out = vec![Nat::default(); moduli.len()];
        leaf_stage(
            &moduli,
            &ys,
            &prec,
            &factors,
            &mut st,
            &mut leaves,
            &mut out,
        );
        assert_eq!(out, expect);
        // Modulus 3, its duplicate and the last modulus have quotient 0.
        let zero_quotients = [3, moduli.len() - 4, moduli.len() - 1];
        assert_eq!(moduli[zero_quotients[1]], moduli[3]);
        let queued: Vec<usize> = leaves.queued.iter().map(|&(i, _)| i).collect();
        let want: Vec<usize> = (0..moduli.len())
            .filter(|&i| i % 3 != 1 && moduli[i].is_odd() && !zero_quotients.contains(&i))
            .collect();
        assert_eq!(queued, want);
    }

    #[test]
    fn scratch_reuse_across_batches_matches_fresh() {
        // Same scratch across different corpora (including a larger one
        // after a smaller one) must not leak state between runs.
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let small = [nat(101 * 211), nat(101 * 223), nat(103 * 227)];
        let large: Vec<Nat> = [
            101 * 211,
            103 * 223,
            101 * 227,
            103 * 229,
            233 * 239,
            241 * 251,
            257 * 263,
        ]
        .map(nat)
        .to_vec();
        batch_gcd_into(&small, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&small));
        batch_gcd_into(&large, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&large));
        batch_gcd_into(&small, &mut scratch, &mut out);
        assert_eq!(out, batch_gcd(&small));
    }
}
