//! The lockstep SIMT bulk-GCD execution engine.
//!
//! Everything before this module *modeled* the paper's GPU execution
//! (replaying per-pair iteration traces through `gpu::warp`); this module
//! *performs* it on the host. A warp of `W` lanes stores its operands in
//! two column-major planes — limb `k` of all `W` lanes contiguous, the
//! paper's Fig. 3 column-wise arrangement — and executes Approximate
//! Euclid one shared instruction at a time across all lanes:
//!
//! 1. **Plan** (per lane, O(1) words, from registers): every lane keeps
//!    its lengths and the four §IV head words in per-lane registers
//!    ([`LaneHeads`](bulkgcd_core::LaneHeads)), so one branch-free
//!    [`plan_lanes`](bulkgcd_core::plan_lanes) pass over them terminates
//!    lanes whose `Y` ran out or fell below the early-termination
//!    threshold and classifies every other lane into the fused β = 0
//!    update or one of the rare divergent paths (those through the scalar
//!    oracle [`plan_lane`](bulkgcd_core::plan_lane)).
//! 2. **Vector pass** (shared): one [`fused_submul_rshift_columns_prefix`]
//!    call applies `X ← rshift(X − α·Y)` to every fused lane, limb-row
//!    innermost so the compiler vectorizes across lanes. Masked lanes
//!    (terminated, or queued for a divergent path) ride along as exact
//!    identities with `α = 0` — the SIMT analogue of inactive lanes
//!    burning the issue slot. The row loop computes only the difference
//!    and the shift; once per lane block, after its rows, the pass brings
//!    each fused lane's registers up to date itself: the new `lX`
//!    (scanned down from the old one), the new head words, and the
//!    `X < Y` verdict (lengths, then the top words against the `Y`
//!    register), and where `X < Y` it flips the lane's plane-selector mask
//!    and swaps its `X` and `Y` registers — a pointer swap with no
//!    copying, exactly like [`GcdPair::swap`](bulkgcd_core::GcdPair::swap).
//! 3. **Fixups** (per diverged lane): the β > 0 update, the two-pass deep
//!    shift, and the 64-bit Case 1 tail execute scalar, serialized — which
//!    is precisely what a real warp does with divergent branches — and
//!    each one re-reads its lane's head words and compares `X < Y` itself.
//!
//! One private loop runs these three steps for every entry point. A fixed
//! warp ([`LockstepEngine::run_warp`]) is that loop with no service pass:
//! its lanes stay resident until the last one terminates. Queue mode
//! ([`LockstepEngine::run_queue`]) adds a compaction/refill service pass
//! after every iteration in which a lane terminated (lanes terminate only
//! in planning; otherwise the service would have nothing to do). Both
//! harvest into one per-entry result store, read with
//! [`LockstepEngine::entry_status`] and its siblings.
//!
//! Each lane's value sequence is identical, iteration by iteration, to
//! what `run_in_place(Algorithm::Approximate, ..)` computes for that pair
//! — the equivalence suite asserts it — so findings, checkpoints, and
//! resume semantics carry over bit-for-bit.
//!
//! The loop is generic over an observer. With none, it does no accounting.
//! [`LockstepEngine::run_warp_measured`] feeds the descriptors of every
//! iteration into the same
//! [`WarpWorkAccumulator`](bulkgcd_gpu::WarpWorkAccumulator) that the
//! trace-replay model uses, so divergence fractions and coalesced-traffic
//! counts come from live execution rather than a replay. The `_traced`
//! entry points record the UMM address trace.

use bulkgcd_bigint::{ops, Limb, Nat, LIMB_BITS};
use bulkgcd_core::{
    copy_lane_columns, fused_submul_rshift_columns_prefix, head_words, load_lane_column,
    plan_lanes, GcdPair, GcdStatus, LaneHeads, LanePlan, LanePlans, LaneState, PassScratch,
    StepKind, Termination,
};
use bulkgcd_gpu::{CostModel, WarpWork, WarpWorkAccumulator};
use bulkgcd_umm::gcd_trace::IterDesc;
use bulkgcd_umm::trace::{BulkTrace, ThreadTrace};

/// Address-sequence record of one traced execution
/// ([`LockstepEngine::run_warp_traced`], [`LockstepEngine::run_queue_traced`]),
/// in the UMM trace model's per-entry logical offsets.
///
/// Logical offsets encode the two operand planes back to back: plane-A
/// row `k` is offset `k`, plane-B row `k` is offset `stride + k`. That
/// makes selector flips (the X/Y pointer swap) visible to
/// [`bulkgcd_umm::oblivious::analyze`] exactly the way the paper's
/// column-wise layout would see them.
#[derive(Debug, Clone)]
pub struct LockstepTrace {
    /// Head-read accesses of the per-lane planning phase: exactly 8 slots
    /// (reads or idles) per entry per iteration — the §IV top-two and
    /// bottom-two words of each operand.
    pub plan: BulkTrace,
    /// Accesses of the shared vector pass. Every resident entry records
    /// the same sequence — masked lanes ride along — so this trace must
    /// analyze as perfectly uniform; that is the dynamic half of the
    /// constant-flow claim the analyze pass checks statically.
    pub vector: BulkTrace,
    /// The vector-pass trip count of each iteration (0 = fixup-only
    /// iteration). Together with `stride` this fully determines `vector`:
    /// the documented residual leak of the semi-oblivious design.
    pub rows_per_iter: Vec<usize>,
    /// Limb rows per plane for this run (max operand length).
    pub stride: usize,
    /// Lockstep iterations executed until every entry terminated.
    pub iterations: usize,
    /// Compaction/refill service events, part of the public per-iteration
    /// structure: each records the iteration index it preceded, how many
    /// dead columns were reloaded from the pending queue, and the resident
    /// width afterwards. Empty for plain [`LockstepEngine::run_warp_traced`].
    pub events: Vec<CompactionEvent>,
}

/// One compaction/refill service event in a queue-mode execution
/// ([`LockstepEngine::run_queue`]). A service pass runs only after an
/// iteration in which a lane terminated, so every event retired at least
/// one terminated lane from the resident prefix (its column refilled in
/// place or repacked away).
///
/// Events are derived purely from the public termination structure (which
/// lanes have terminated), never from operand values, so recording them in
/// [`LockstepTrace`] leaks nothing beyond the documented per-iteration
/// structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionEvent {
    /// Index of the lockstep iteration this service pass preceded.
    pub iteration: usize,
    /// Dead columns reloaded with pending pairs during this pass.
    pub refilled: usize,
    /// Resident width (active column prefix) after the pass.
    pub width_after: usize,
}

/// Selects queue-mode compaction/refill for
/// [`LockstepBackend::with_compaction`](crate::LockstepBackend::with_compaction).
/// The policy is fixed, so the marker carries nothing: a service pass runs
/// after every iteration in which a lane terminated, refills the free
/// columns (width-gated, see [`LockstepEngine::run_queue`]) and repacks the
/// survivors into a dense prefix. Spelled `CompactionConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CompactionConfig;

/// Warps' worth of columns a queue-mode engine holds resident: the scan
/// backend and the product tree's leaf stage both size their compacting
/// engine at `POOL_WARPS × warp width` (modeling concurrent resident warps
/// on a streaming multiprocessor), amortizing per-iteration host overheads
/// that a single 32-lane warp cannot.
pub(crate) const POOL_WARPS: usize = 4;

/// Occupancy and service-event counters for the engine's most recent run
/// (either mode), reset on every load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockstepStats {
    /// Σ running lanes over the executed iterations (useful work slots).
    pub active_lane_iters: u64,
    /// Σ resident width over those iterations (issued work slots —
    /// masked lanes burn these).
    pub resident_lane_iters: u64,
    /// Compaction events: service passes that retired terminated lanes
    /// from the resident prefix.
    pub compactions: u64,
    /// Dead columns reloaded with pending pairs.
    pub refills: u64,
}

/// Harvested terminal result of one entry.
#[derive(Debug, Clone)]
struct EntryResult {
    status: GcdStatus,
    gcd_is_one: bool,
    factor: Option<Nat>,
}

/// The limb length of a pair's longer operand: the rows it needs.
fn pair_len(a: &[Limb], b: &[Limb]) -> usize {
    ops::normalized_len(a).max(ops::normalized_len(b))
}

/// Idle-pad every thread to the bulk's current step count, keeping a
/// trace step-aligned across partial-residency iterations.
fn pad_to_steps(tr: &mut BulkTrace) {
    let steps = tr.steps();
    for th in &mut tr.threads {
        while th.len() < steps {
            th.idle();
        }
    }
}

/// What the one iteration loop ([`LockstepEngine::run_lanes`]) reports to:
/// nothing (`()`), the warp's cost ([`Measure`]) or its address trace
/// ([`LockstepTrace`]).
trait Observer {
    /// Whether planning records each running lane's [`IterDesc`] in `live`.
    const LIVE: bool = false;
    /// One executed iteration, after planning and before its vector pass
    /// of `rows` limb rows.
    fn on_iteration(&mut self, _engine: &mut LockstepEngine, _rows: usize) {}
    /// A service pass (one after every iteration in which a lane
    /// terminated).
    fn on_service(&mut self, _event: CompactionEvent) {}
}

impl Observer for () {}

/// Feeds every executed iteration into the engine's [`WarpWorkAccumulator`].
struct Measure<'a>(&'a CostModel);

impl Observer for Measure<'_> {
    const LIVE: bool = true;

    fn on_iteration(&mut self, engine: &mut LockstepEngine, _rows: usize) {
        engine.record_work(self.0);
    }
}

/// Records each entry's plan and vector-pass addresses, threads indexed by
/// entry, plus the service events.
impl Observer for LockstepTrace {
    fn on_iteration(&mut self, engine: &mut LockstepEngine, rows: usize) {
        engine.record_plan_reads(&mut self.plan);
        self.rows_per_iter.push(rows);
        for k in 0..rows {
            // Every resident column whose entry is not yet harvested rides
            // the same row sweep — including terminated lanes, which ride
            // masked exactly like the real kernel until a service pass (or,
            // in a fixed warp, the end of the run) harvests them.
            for t in 0..engine.n {
                let q = engine.owner[t];
                if q == usize::MAX {
                    continue;
                }
                let th = &mut self.vector.threads[q];
                th.read(k);
                th.read(engine.stride + k);
                th.write(k);
            }
        }
        pad_to_steps(&mut self.vector);
    }

    fn on_service(&mut self, event: CompactionEvent) {
        self.events.push(event);
    }
}

/// A reusable lockstep warp executor.
///
/// One engine owns the column-major operand planes and every scratch row a
/// warp needs; [`run_warp`](Self::run_warp) reloads it for each warp of
/// pairs, so a scan driver keeps exactly one engine per worker and the
/// steady-state hot loop allocates nothing.
///
/// ```
/// use bulkgcd_bigint::Nat;
/// use bulkgcd_bulk::LockstepEngine;
/// use bulkgcd_core::{GcdStatus, Termination};
///
/// let mut engine = LockstepEngine::new(8);
/// let (a, b) = (Nat::from_u64(1_043_915), Nat::from_u64(768_955));
/// let inputs = [(a.as_limbs(), b.as_limbs())];
/// engine.run_warp(&inputs, Termination::Full);
/// assert_eq!(engine.entry_status(0), GcdStatus::Done);
/// assert_eq!(engine.entry_factor(0), Some(&Nat::from_u64(5)));
/// ```
#[derive(Debug, Clone)]
pub struct LockstepEngine {
    w: usize,
    stride: usize,
    n: usize,
    /// Operand plane A, column-major: limb k of lane t at `k*w + t`.
    u: Vec<Limb>,
    /// Operand plane B, same layout.
    v: Vec<Limb>,
    /// Per-lane registers: the plane selector (0 = X in plane A, all-ones
    /// = X in plane B), the lengths and the head words, kept current by
    /// the vector pass and the fixups.
    heads: LaneHeads,
    state: Vec<LaneState>,
    /// The current iteration's plan (fused `α`/`rs`, fixups, trip count).
    plans: LanePlans,
    /// The portable vector pass's scratch rows.
    scratch: PassScratch,
    // Divergent-path scratch.
    xg: Vec<Limb>,
    yg: Vec<Limb>,
    pair: GcdPair,
    // Which entry owns each resident column (usize::MAX = dead/harvested),
    // and the harvested per-entry results.
    owner: Vec<usize>,
    results: Vec<Option<EntryResult>>,
    stats: LockstepStats,
    // Measurement.
    live: Vec<IterDesc>,
    acc: WarpWorkAccumulator,
}

impl LockstepEngine {
    /// New engine with `w` lanes per warp (the paper's W = 32; 8 or 16 are
    /// better fits for host SIMD registers).
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "warp width must be at least 1");
        LockstepEngine {
            w,
            stride: 0,
            n: 0,
            u: Vec::new(),
            v: Vec::new(),
            heads: LaneHeads::new(w),
            state: vec![LaneState::Done; w],
            plans: LanePlans::new(w),
            scratch: PassScratch::new(w),
            xg: Vec::new(),
            yg: Vec::new(),
            pair: GcdPair::with_capacity(1),
            owner: vec![usize::MAX; w],
            results: Vec::new(),
            stats: LockstepStats::default(),
            live: Vec::with_capacity(w),
            acc: WarpWorkAccumulator::new(32),
        }
    }

    /// Occupancy and service-event counters of the most recent run.
    pub fn session_stats(&self) -> LockstepStats {
        self.stats
    }

    /// Lanes per warp.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Execute one warp of at most `width()` pairs to termination.
    ///
    /// Operands are borrowed little-endian limb slices (high zero padding
    /// fine). After return, every entry is terminated: read the results
    /// with [`entry_status`](Self::entry_status) /
    /// [`entry_gcd_is_one`](Self::entry_gcd_is_one) /
    /// [`entry_factor`](Self::entry_factor), indexed by position in
    /// `inputs`.
    pub fn run_warp(&mut self, inputs: &[(&[Limb], &[Limb])], term: Termination) {
        self.run_lanes(inputs, term, false, &mut ());
    }

    /// [`run_warp`](Self::run_warp) that also accumulates the warp's
    /// [`WarpWork`] from the iterations it actually executes, priced under
    /// `cost` with `words_per_transaction` words per coalesced transaction.
    pub fn run_warp_measured(
        &mut self,
        inputs: &[(&[Limb], &[Limb])],
        term: Termination,
        cost: &CostModel,
        words_per_transaction: u64,
    ) -> WarpWork {
        self.acc.reset(words_per_transaction);
        self.run_lanes(inputs, term, false, &mut Measure(cost));
        self.acc.take()
    }

    /// [`run_warp`](Self::run_warp) recording the address sequence of every
    /// lane in the UMM trace model.
    ///
    /// This is the dynamic cross-check of the analyze pass's static
    /// constant-flow claims: the vector pass must produce an identical
    /// trace in every lane (a pure function of the public per-iteration
    /// structure `rows_per_iter` × `stride`), while the planning phase
    /// must spend exactly 8 step-aligned head-read slots per lane per
    /// iteration. The serialized divergent fixups are the documented
    /// allow-pragma sites and are not part of the lockstep trace.
    ///
    /// Results are identical to an untraced run — the trace is recorded by
    /// an observer of the same loop, not a reimplementation.
    pub fn run_warp_traced(
        &mut self,
        inputs: &[(&[Limb], &[Limb])],
        term: Termination,
    ) -> LockstepTrace {
        self.run_traced(inputs, term, false)
    }

    /// Execute an arbitrarily long queue of pairs through one warp with
    /// compaction/refill, to termination of every entry.
    ///
    /// The engine loads the first `width()` entries, then after every
    /// lockstep iteration in which a lane terminated runs a **service
    /// pass**: terminated lanes are harvested into the per-entry result
    /// store (freeing their columns), free columns are refilled with
    /// pending entries, and the survivors are repacked into a dense column
    /// prefix so the shared vector pass stops issuing masked slots.
    ///
    /// Refill is **width-gated**: while survivors are resident, a pending
    /// pair is admitted only if its operand length fits under the live row
    /// ceiling (max `lX` over survivors), so topping up never re-inflates a
    /// vector pass that had already shrunk below the full stride; a drained
    /// warp admits anything. On uniform corpora the gate turns continuous
    /// refill into generational refill once operands start shrinking.
    ///
    /// Lane values are untouched by either move — lanes are completely
    /// value-independent, and the per-lane iteration sequence is identical
    /// to [`run_warp`](Self::run_warp) — so findings and statuses match the
    /// uncompacted engine bit for bit.
    ///
    /// Results are read exactly as after [`run_warp`](Self::run_warp),
    /// indexed by queue entry.
    pub fn run_queue(&mut self, inputs: &[(&[Limb], &[Limb])], term: Termination) {
        self.run_lanes(inputs, term, true, &mut ());
    }

    /// [`run_queue`](Self::run_queue) recording every queue entry's address
    /// sequence in the UMM trace model, with the compaction/refill service
    /// events in [`LockstepTrace::events`].
    ///
    /// Threads are indexed by **queue entry**, not column: a refilled
    /// entry's thread starts recording at the iteration its column goes
    /// live, idle-padded before and after so the bulk stays step-aligned.
    /// Every resident live column records the identical row sweep each
    /// iteration, so the vector trace must analyze as perfectly uniform
    /// across compaction boundaries — the dynamic half of the queue-mode
    /// constant-flow claim.
    pub fn run_queue_traced(
        &mut self,
        inputs: &[(&[Limb], &[Limb])],
        term: Termination,
    ) -> LockstepTrace {
        self.run_traced(inputs, term, true)
    }

    fn run_traced(
        &mut self,
        inputs: &[(&[Limb], &[Limb])],
        term: Termination,
        queue: bool,
    ) -> LockstepTrace {
        let mut trace = LockstepTrace {
            plan: BulkTrace::with_threads(inputs.len()),
            vector: BulkTrace::with_threads(inputs.len()),
            rows_per_iter: Vec::new(),
            stride: 0,
            iterations: 0,
            events: Vec::new(),
        };
        self.run_lanes(inputs, term, queue, &mut trace);
        trace.stride = self.stride;
        trace.iterations = trace.rows_per_iter.len();
        trace
    }

    /// The one lockstep iteration loop: plan, the shared vector pass with
    /// its register tail, and the serialized fixups, until every entry
    /// terminates.
    ///
    /// `queue: false` is the paper's fixed warp: at most `width()` entries,
    /// no harvest, repack or refill between iterations, and one harvest at
    /// the end. `queue: true` runs the compaction/refill service pass after
    /// every iteration in which a lane terminated.
    // analyze: constant-flow(public = "w, n, stride, term, queue, max_iters, rows")
    // analyze: zero-alloc
    fn run_lanes<O: Observer>(
        &mut self,
        inputs: &[(&[Limb], &[Limb])],
        term: Termination,
        queue: bool,
        obs: &mut O,
    ) {
        let w = self.w;
        if !queue {
            assert!(inputs.len() <= w, "warp overfilled: {} > {w}", inputs.len());
        }
        // analyze: allow(cf-reach, reason = "one-time load/scatter before lockstep begins: operand placement is per-pair setup, not part of the iteration kernel")
        // analyze: allow(za-alloc, reason = "setup sizes the column planes and result store once per run, before the iteration loop")
        self.load(inputs);
        let mut next = self.n;
        // Hang insurance only: every path strips bits from the pair, so the
        // scalar bound (~32·stride iterations) holds per lane; the engine
        // matches the scalar sequence exactly. A queue scales it by its
        // length, since each entry holds a column for at most its own
        // scalar iteration count.
        let entries = if queue { inputs.len().max(1) } else { 1 };
        let max_iters = 4096 + 64 * LIMB_BITS as usize * self.stride * entries;
        let mut iter = 0usize;
        loop {
            // analyze: allow(cf-branch, reason = "loop exit: the run continues until every entry terminates; the iteration count is operand-dependent and is the documented residual leak (rows_per_iter in the UMM trace model)")
            if self.plan_iteration(term, O::LIVE) {
                let rows = self.plans.rows;
                obs.on_iteration(self, rows);
                if rows > 0 {
                    fused_submul_rshift_columns_prefix(
                        &mut self.u,
                        &mut self.v,
                        w,
                        self.n,
                        rows,
                        &self.plans.alpha,
                        &self.plans.rs,
                        &mut self.heads,
                        &mut self.scratch,
                    );
                }
                for fi in 0..self.plans.fixups.len() {
                    let (t, plan) = self.plans.fixups[fi];
                    // analyze: allow(cf-reach, reason = "serialized scalar-fixup region: diverged lanes already left the vector pass; this is the documented divergence point")
                    self.apply_fixup(t, plan);
                }
                iter += 1;
                assert!(
                    iter <= max_iters,
                    "lockstep engine exceeded {max_iters} iterations"
                );
            } else if !queue {
                // analyze: allow(cf-reach, reason = "end-of-run harvest: reads each terminated lane's result once, after the last iteration")
                self.harvest();
                break;
            }
            if queue {
                // Lanes terminate only in planning, so after an iteration
                // in which every resident lane still runs, the service has
                // nothing to harvest or repack and its width gate still
                // turns the next pending pair away: skip it.
                // analyze: allow(cf-branch, reason = "loop exit: the run continues until every entry terminates; the iteration count is operand-dependent and is the documented residual leak (rows_per_iter in the UMM trace model)")
                if self.lane_terminated() {
                    // analyze: allow(cf-reach, reason = "harvest/repack/refill service pass between vector iterations: compaction is the documented serialized region")
                    let refilled = self.queue_service(inputs, &mut next);
                    obs.on_service(CompactionEvent {
                        iteration: iter,
                        refilled,
                        width_after: self.n,
                    });
                } else {
                    // analyze: allow(cf-reach, reason = "harvest/repack/refill service pass between vector iterations: compaction is the documented serialized region")
                    #[cfg(debug_assertions)]
                    self.check_idle_service(inputs, next);
                }
                if self.n == 0 {
                    break;
                }
            }
        }
    }

    /// The one loader: size the planes for every entry (stride = max
    /// operand length over the whole input, so any refill fits any
    /// column), clear the result store, and load the first
    /// `min(width, len)` entries.
    fn load(&mut self, inputs: &[(&[Limb], &[Limb])]) {
        let w = self.w;
        let mut stride = 1usize;
        for &(a, b) in inputs {
            stride = stride.max(pair_len(a, b));
        }
        self.stride = stride;
        let need = stride * w;
        if self.u.len() < need {
            self.u.resize(need, 0);
            self.v.resize(need, 0);
        }
        if self.xg.len() < stride {
            self.xg.resize(stride, 0);
            self.yg.resize(stride, 0);
        }
        for t in 0..w {
            self.heads.sel[t] = 0;
            self.heads.set_x(t, 0, (0, 0));
            self.heads.set_y(t, 0, (0, 0));
            self.state[t] = LaneState::Done;
            self.owner[t] = usize::MAX;
        }
        self.results.clear();
        self.results.resize(inputs.len(), None);
        self.stats = LockstepStats::default();
        // load_column zeroes each column it claims, so the planes need no
        // global fill: columns past the resident prefix are never touched.
        self.n = inputs.len().min(w);
        for (t, &(a, b)) in inputs.iter().enumerate().take(self.n) {
            self.load_column(t, t, a, b);
        }
    }

    /// Load entry `q` into column `t`: scatter the pair with the same
    /// larger-to-X (ties: `a`) ordering rule as `GcdPair::load_from_limbs`
    /// (X starts in plane A), zeroing the column's rows above each operand
    /// in the same sweep, set the lane's head registers, and mark it
    /// running.
    fn load_column(&mut self, t: usize, q: usize, a: &[Limb], b: &[Limb]) {
        let (w, stride) = (self.w, self.stride);
        let la = ops::normalized_len(a);
        let lb = ops::normalized_len(b);
        let (hi, lhi, lo, llo) = if ops::cmp(&a[..la], &b[..lb]) == core::cmp::Ordering::Less {
            (b, lb, a, la)
        } else {
            (a, la, b, lb)
        };
        load_lane_column(&mut self.u, w, stride, t, &hi[..lhi]);
        load_lane_column(&mut self.v, w, stride, t, &lo[..llo]);
        self.heads.sel[t] = 0;
        self.heads.set_x(t, lhi, head_words(lhi, |k| hi[k]));
        self.heads.set_y(t, llo, head_words(llo, |k| lo[k]));
        self.state[t] = LaneState::Running;
        self.owner[t] = q;
    }

    /// Whether a lane terminated in this iteration's planning (lanes
    /// terminate nowhere else): the only time the queue service has
    /// anything to do.
    // analyze: constant-flow(public = "n, running")
    // analyze: zero-alloc
    fn lane_terminated(&self) -> bool {
        self.plans.running < self.n
    }

    /// Queue-mode service pass, run after an iteration in which a lane
    /// terminated: harvest terminated lanes into the result store,
    /// **refill** free columns from the pending queue (the dead columns
    /// first, then the columns past the prefix) up to the warp width, the
    /// queue's end or the width gate; then **repack** the survivors into a
    /// dense column prefix, so the shared vector pass stops issuing masked
    /// slots for the dead columns no pending pair took (repacking is a
    /// handful of plane copies and strictly cheaper than the slots it
    /// retires).
    ///
    /// Every decision here derives from the termination structure (which
    /// lanes have terminated), never from operand values. Returns the
    /// number of columns refilled.
    fn queue_service(&mut self, inputs: &[(&[Limb], &[Limb])], next: &mut usize) -> usize {
        let dead = self.plans.ended.len();
        debug_assert_eq!(
            dead,
            self.n - self.plans.running,
            "only planning ends lanes"
        );
        for i in 0..dead {
            self.harvest_lane(self.plans.ended[i]);
        }
        let survivors = self.n - dead;
        let mut refilled = 0usize;
        // Width gate: while survivors are resident, admit a pending pair
        // only if it fits under the live row ceiling, so a top-up never
        // re-inflates a vector pass that had already shrunk below the full
        // stride. A drained warp admits anything. Lengths are public in the
        // semi-oblivious model, so the gate derives from the per-iteration
        // structure, not operand values. The ceiling is taken once a pair
        // is offered, before any load.
        let mut ceiling = None;
        while survivors + refilled < self.w && *next < inputs.len() {
            let (a, b) = inputs[*next];
            if survivors > 0 && pair_len(a, b) > *ceiling.get_or_insert_with(|| self.row_ceiling())
            {
                break;
            }
            // The dead columns first, in lane order, then the columns past
            // the prefix.
            let t = match self.plans.ended.get(refilled) {
                Some(&t) => t,
                None => {
                    self.n += 1;
                    self.n - 1
                }
            };
            self.load_column(t, *next, a, b);
            *next += 1;
            refilled += 1;
        }
        if survivors + refilled < self.n {
            self.repack();
        }
        self.stats.compactions += 1;
        self.stats.refills += refilled as u64;
        refilled
    }

    /// The refill width gate's ceiling: the largest `lX` over the running
    /// lanes.
    fn row_ceiling(&self) -> usize {
        let running = |t: usize| (self.state[t] == LaneState::Running) as u32;
        (0..self.n)
            .map(|t| self.heads.lx[t] * running(t))
            .max()
            .unwrap_or(0) as usize
    }

    /// The service skipped after an iteration in which no lane terminated
    /// had nothing to do: every resident lane runs, and the refill step
    /// would load nothing. That holds because lengths never grow and the
    /// last service already stopped its refill at the width, the queue's
    /// end or the gate, whose ceiling can only have fallen since.
    #[cfg(debug_assertions)]
    fn check_idle_service(&self, inputs: &[(&[Limb], &[Limb])], next: usize) {
        assert!(
            self.state[..self.n]
                .iter()
                .all(|&s| s == LaneState::Running),
            "skipped a service with a terminated lane resident"
        );
        let would_load = self.n < self.w
            && next < inputs.len()
            && (self.n == 0 || pair_len(inputs[next].0, inputs[next].1) <= self.row_ceiling());
        assert!(!would_load, "skipped a service that would refill");
    }

    /// Move every terminated, unharvested lane's result into the result
    /// store, freeing its column: the end of a fixed warp.
    fn harvest(&mut self) {
        for t in 0..self.n {
            self.harvest_lane(t);
        }
    }

    /// Move lane `t`'s result, if it terminated and is not yet harvested,
    /// into the result store and free its column. Allocates only for
    /// actual findings (gcd > 1).
    fn harvest_lane(&mut self, t: usize) {
        let q = self.owner[t];
        let status = match self.state[t] {
            LaneState::Running => return,
            LaneState::Done => GcdStatus::Done,
            LaneState::Early => GcdStatus::EarlyCoprime,
        };
        if q == usize::MAX {
            return;
        }
        let xp = self.x_plane(t);
        let lx = self.heads.lx[t] as usize;
        let gcd_is_one = status == GcdStatus::Done && lx == 1 && xp[t] == 1;
        let factor = if status == GcdStatus::Done && !gcd_is_one {
            // analyze: allow(za-alloc, reason = "allocates only for an actual finding (gcd > 1) — the rare path harvest exists to record")
            let limbs: Vec<Limb> = (0..lx).map(|k| xp[k * self.w + t]).collect();
            Some(Nat::from_limbs(&limbs))
        } else {
            None
        };
        self.results[q] = Some(EntryResult {
            status,
            gcd_is_one,
            factor,
        });
        self.owner[t] = usize::MAX;
    }

    /// Repack live columns into a dense prefix and shrink the resident
    /// width to match, so the shared vector pass stops issuing masked
    /// slots for dead columns. Swap-remove order: each hole is plugged by
    /// the **last** live column, so a death costs one lane move (not a
    /// shift of every survivor — lane order inside the warp is free, the
    /// `owner` registers track entry identity). Pure plane/register copies
    /// — lane values and their head registers move together (α/rs are
    /// per-iteration and already consumed).
    fn repack(&mut self) {
        let w = self.w;
        let mut n = self.n;
        while n > 0 && self.state[n - 1] != LaneState::Running {
            n -= 1;
        }
        let mut t = 0usize;
        while t < n {
            if self.state[t] == LaneState::Running {
                t += 1;
                continue;
            }
            // Column t is dead and column n-1 is live: move it in. Both
            // columns are zero above their lanes' operand lengths.
            let src = n - 1;
            let h = &self.heads;
            let rows = h.lx[src].max(h.ly[src]).max(h.lx[t]).max(h.ly[t]) as usize;
            copy_lane_columns(&mut self.u, &mut self.v, w, rows, src, t);
            self.heads.copy_lane(src, t);
            self.state[t] = LaneState::Running;
            self.owner[t] = self.owner[src];
            self.state[src] = LaneState::Done;
            self.owner[src] = usize::MAX;
            n -= 1;
            while n > 0 && self.state[n - 1] != LaneState::Running {
                n -= 1;
            }
            t += 1;
        }
        self.n = n;
    }

    /// Number of entries in the engine's last run.
    pub fn entry_count(&self) -> usize {
        self.results.len()
    }

    fn result(&self, q: usize) -> &EntryResult {
        // analyze: allow(no-panic, reason = "documented panic contract: entry accessors are valid only after a run returns, which harvests every entry")
        self.results[q].as_ref().expect("entry not harvested")
    }

    /// Terminal status of entry `q` of the last run.
    ///
    /// Panics if `q` is out of range for the last run.
    pub fn entry_status(&self, q: usize) -> GcdStatus {
        self.result(q).status
    }

    /// For a [`GcdStatus::Done`] entry: is the GCD exactly 1?
    pub fn entry_gcd_is_one(&self, q: usize) -> bool {
        self.result(q).gcd_is_one
    }

    /// For a [`GcdStatus::Done`] entry with GCD > 1: the factor, gathered
    /// at harvest time. `None` for coprime or interrupted entries.
    pub fn entry_factor(&self, q: usize) -> Option<&Nat> {
        self.result(q).factor.as_ref()
    }

    /// Record this iteration's planning-phase head reads: 8 slots per
    /// running lane (§IV's top-two and bottom-two words of each operand)
    /// into its owning entry's thread, and idles for every other thread so
    /// the bulk stays step-aligned.
    fn record_plan_reads(&self, tr: &mut BulkTrace) {
        for t in 0..self.n {
            if self.state[t] == LaneState::Running {
                self.record_lane_plan_reads(t, &mut tr.threads[self.owner[t]]);
            }
        }
        pad_to_steps(tr);
    }

    /// One running lane's 8 planning-phase head-read slots.
    fn record_lane_plan_reads(&self, t: usize, th: &mut ThreadTrace) {
        let stride = self.stride;
        let (lx, ly) = (self.heads.lx[t] as usize, self.heads.ly[t] as usize);
        // Plane-A offsets are 0..stride, plane-B offsets follow.
        let x_base = if self.heads.sel[t] == 0 { 0 } else { stride };
        let y_base = stride - x_base;
        if lx >= 2 {
            th.read(x_base + lx - 1);
            th.read(x_base + lx - 2);
        } else {
            th.read(x_base);
            th.idle();
        }
        if ly >= 2 {
            th.read(y_base + ly - 1);
            th.read(y_base + ly - 2);
        } else {
            th.read(y_base);
            th.idle();
        }
        if stride >= 2 {
            th.read(x_base + 1);
            th.read(x_base);
            th.read(y_base + 1);
            th.read(y_base);
        } else {
            th.read(x_base);
            th.idle();
            th.read(y_base);
            th.idle();
        }
    }

    /// Price this iteration's live lanes into the warp's accumulator. It
    /// runs inside the lockstep loop every iteration, so it is held to the
    /// loop's discipline; the accumulator's step-kind branches are the
    /// baselined replay-model accounting.
    // analyze: constant-flow(public = "cost, live")
    fn record_work(&mut self, cost: &CostModel) {
        self.acc.record_iteration(cost, &self.live);
    }

    #[inline]
    fn x_plane(&self, t: usize) -> &[Limb] {
        if self.heads.sel[t] == 0 {
            &self.u
        } else {
            &self.v
        }
    }

    /// Lane `t`'s `(X, Y)` planes.
    #[inline]
    fn planes(&self, t: usize) -> (&[Limb], &[Limb]) {
        if self.heads.sel[t] == 0 {
            (&self.u, &self.v)
        } else {
            (&self.v, &self.u)
        }
    }

    /// Terminate finished lanes, then classify every still-running lane for
    /// this iteration from its head registers. Returns false when no lane
    /// remains (loop exit).
    // analyze: constant-flow(public = "w, n, state, sel, stride, term, record, live, running")
    fn plan_iteration(&mut self, term: Termination, record: bool) -> bool {
        #[cfg(debug_assertions)]
        self.check_heads();
        let threshold_bits = match term {
            Termination::Early { threshold_bits } => threshold_bits,
            Termination::Full => 0,
        };
        plan_lanes(
            &self.heads,
            &mut self.state,
            self.n,
            threshold_bits,
            &mut self.plans,
        );
        if record {
            self.record_live();
        }
        let running = self.plans.running;
        if running > 0 {
            self.stats.active_lane_iters += running as u64;
            self.stats.resident_lane_iters += self.n as u64;
        }
        running > 0
    }

    /// Every running lane's head registers against a fresh strided gather
    /// of its columns, and its lengths against the padding: the check that
    /// the registers never drift from the planes they stand for.
    #[cfg(debug_assertions)]
    // analyze: constant-flow(public = "w, n, state, sel, stride, lx, ly")
    fn check_heads(&self) {
        let w = self.w;
        let h = &self.heads;
        let check = |plane: &[Limb], t: usize, l: usize, regs: (u64, u64), name: &str| {
            let limb = |k: usize| plane[k * w + t];
            assert_eq!(
                head_words(l, limb),
                regs,
                "lane {t}: {name} head registers out of step with the planes"
            );
            let top = if l == 0 { 1 } else { limb(l - 1) };
            let above = if l == self.stride { 0 } else { limb(l) };
            assert!(
                top != 0 && above == 0,
                "lane {t}: {name} length register {l} is not the column's length"
            );
        };
        for t in 0..self.n {
            if self.state[t] != LaneState::Running {
                continue;
            }
            let (xp, yp) = if self.heads.sel[t] == 0 {
                (&self.u, &self.v)
            } else {
                (&self.v, &self.u)
            };
            check(xp, t, h.lx[t] as usize, (h.xt[t], h.xl[t]), "X");
            check(yp, t, h.ly[t] as usize, (h.yt[t], h.yl[t]), "Y");
        }
    }

    /// The measured observer's view of this iteration: one descriptor per
    /// running lane, in lane order.
    // analyze: constant-flow(public = "n, state, sel, lx, ly, fixups, live")
    fn record_live(&mut self) {
        self.live.clear();
        let mut fixups = self.plans.fixups.iter().peekable();
        for t in 0..self.n {
            if self.state[t] != LaneState::Running {
                continue;
            }
            let beta_positive = match fixups.next_if(|&&(f, _)| f == t) {
                Some((_, plan)) => plan.is_beta_positive(),
                None => false,
            };
            let kind = if beta_positive {
                StepKind::ApproxBetaPositive
            } else {
                StepKind::ApproxBetaZero
            };
            // analyze: allow(za-alloc, reason = "live/fixups are cleared each iteration and keep their capacity: a push after warmup reuses the allocation")
            self.live.push(IterDesc {
                kind,
                lx: self.heads.lx[t] as usize,
                ly: self.heads.ly[t] as usize,
                x_in_a: self.heads.sel[t] == 0,
            });
        }
    }

    /// Serialized scalar execution of one diverged lane, via the same
    /// `GcdPair` updates the scalar algorithm uses — identical values by
    /// construction — then the lane's own head re-read, `X < Y` compare and
    /// swap.
    fn apply_fixup(&mut self, t: usize, plan: LanePlan) {
        let w = self.w;
        let old_lx = self.heads.lx[t] as usize;
        let ly = self.heads.ly[t] as usize;
        {
            let (xp, yp) = if self.heads.sel[t] == 0 {
                (&self.u, &self.v)
            } else {
                (&self.v, &self.u)
            };
            for k in 0..old_lx {
                self.xg[k] = xp[k * w + t];
            }
            for k in 0..ly {
                self.yg[k] = yp[k * w + t];
            }
        }
        let new_lx;
        match plan {
            LanePlan::WideAlpha { alpha } => {
                // Case 1 tail: X and Y fit in 64 bits, do the arithmetic
                // directly (scalar reference does the same).
                let pack = |g: &[Limb], l: usize| -> u64 {
                    let lo = g[0] as u64;
                    let hi = if l >= 2 { g[1] as u64 } else { 0 };
                    hi << LIMB_BITS | lo
                };
                let x64 = pack(&self.xg, old_lx);
                let y64 = pack(&self.yg, ly);
                let d = x64 - alpha * y64;
                let tz = if d == 0 { 0 } else { d.trailing_zeros() };
                let val = d >> tz;
                let xplane = if self.heads.sel[t] == 0 {
                    &mut self.u
                } else {
                    &mut self.v
                };
                for k in 0..old_lx {
                    xplane[k * w + t] = (val >> (LIMB_BITS as usize * k)) as Limb;
                }
                new_lx = if val == 0 {
                    0
                } else if val >> LIMB_BITS == 0 {
                    1
                } else {
                    2
                };
            }
            LanePlan::DeepShift { alpha } => {
                self.pair
                    .load_from_limbs(&self.xg[..old_lx], &self.yg[..ly]);
                self.pair.x_submul_rshift(alpha);
                new_lx = self.scatter_pair_x(t, old_lx);
            }
            LanePlan::BetaPositive { alpha, beta } => {
                self.pair
                    .load_from_limbs(&self.xg[..old_lx], &self.yg[..ly]);
                self.pair.x_submul_shifted_rshift(alpha, beta);
                new_lx = self.scatter_pair_x(t, old_lx);
            }
            LanePlan::Fused { .. } => unreachable!("fused lanes run in the vector pass"),
        }
        let (xp, yp) = self.planes(t);
        let x_heads = head_words(new_lx, |k| xp[k * w + t]);
        let less = match new_lx.cmp(&ly) {
            core::cmp::Ordering::Less => true,
            core::cmp::Ordering::Greater => false,
            core::cmp::Ordering::Equal => {
                let mut less = false;
                for k in (0..new_lx).rev() {
                    let (xv, yv) = (xp[k * w + t], yp[k * w + t]);
                    if xv != yv {
                        less = xv < yv;
                        break;
                    }
                }
                less
            }
        };
        self.heads.set_x(t, new_lx, x_heads);
        if less {
            self.heads.swap_xy(t);
        }
    }

    /// Write the fixup pair's X back into the lane's column, restoring the
    /// high-zero padding invariant over the rows it used to occupy.
    fn scatter_pair_x(&mut self, t: usize, old_lx: usize) -> usize {
        let w = self.w;
        let new_lx = self.pair.lx();
        let xs = self.pair.x();
        let xplane = if self.heads.sel[t] == 0 {
            &mut self.u
        } else {
            &mut self.v
        };
        for (k, &limb) in xs.iter().enumerate() {
            xplane[k * w + t] = limb;
        }
        for k in new_lx..old_lx {
            xplane[k * w + t] = 0;
        }
        new_lx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkgcd_bigint::random::random_odd_bits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The GCD of a `Done` entry, read through the entry accessors.
    fn entry_gcd(engine: &LockstepEngine, q: usize) -> Nat {
        match engine.entry_factor(q) {
            Some(f) => f.clone(),
            None => {
                assert!(
                    engine.entry_gcd_is_one(q),
                    "entry {q}: no factor, gcd not 1"
                );
                Nat::from_u64(1)
            }
        }
    }

    fn warp_vs_reference(pairs: &[(Nat, Nat)], w: usize, term: Termination) {
        let mut engine = LockstepEngine::new(w);
        for chunk in pairs.chunks(w) {
            let inputs: Vec<(&[Limb], &[Limb])> = chunk
                .iter()
                .map(|(a, b)| (a.as_limbs(), b.as_limbs()))
                .collect();
            engine.run_warp(&inputs, term);
            for (t, (a, b)) in chunk.iter().enumerate() {
                let mut pair = GcdPair::new(a, b);
                let status = bulkgcd_core::run_in_place(
                    bulkgcd_core::Algorithm::Approximate,
                    &mut pair,
                    term,
                    &mut bulkgcd_core::NoProbe,
                );
                assert_eq!(engine.entry_status(t), status, "status lane {t}");
                if status == GcdStatus::Done {
                    assert_eq!(entry_gcd(&engine, t), pair.x_nat(), "gcd lane {t}");
                    assert_eq!(engine.entry_gcd_is_one(t), pair.gcd_is_one());
                }
            }
        }
    }

    #[test]
    fn full_warp_matches_scalar_full_termination() {
        let mut rng = StdRng::seed_from_u64(11);
        let pairs: Vec<(Nat, Nat)> = (0..24)
            .map(|_| {
                (
                    random_odd_bits(&mut rng, 256),
                    random_odd_bits(&mut rng, 256),
                )
            })
            .collect();
        warp_vs_reference(&pairs, 8, Termination::Full);
    }

    #[test]
    fn ragged_warp_and_early_termination() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut pairs: Vec<(Nat, Nat)> = (0..13)
            .map(|_| {
                (
                    random_odd_bits(&mut rng, 192),
                    random_odd_bits(&mut rng, 192),
                )
            })
            .collect();
        // A shared factor so at least one lane runs to Done under Early.
        let p = random_odd_bits(&mut rng, 96);
        pairs.push((
            p.mul(&random_odd_bits(&mut rng, 96)),
            p.mul(&random_odd_bits(&mut rng, 96)),
        ));
        warp_vs_reference(&pairs, 8, Termination::Early { threshold_bits: 96 });
    }

    #[test]
    fn duplicate_pair_in_a_lane() {
        let n = Nat::from_u128(0xdead_beef_cafe_babe_1234_5678_9abc_def1);
        let other = Nat::from_u128(0xfeed_0000_0000_0003);
        warp_vs_reference(&[(n.clone(), n.clone()), (n, other)], 4, Termination::Full);
    }

    #[test]
    fn tiny_and_unbalanced_operands() {
        let cases = vec![
            (Nat::from_u64(1_043_915), Nat::from_u64(768_955)),
            (Nat::from_u64(3), Nat::from_u64(1)),
            (Nat::from_u128(1u128 << 100 | 1), Nat::from_u64(7)),
            (Nat::from_u64(1), Nat::from_u64(1)),
        ];
        warp_vs_reference(&cases, 8, Termination::Full);
    }

    #[test]
    fn engine_reuse_across_different_strides() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut engine = LockstepEngine::new(4);
        for bits in [1024u64, 64, 512, 32] {
            let a = random_odd_bits(&mut rng, bits);
            let b = random_odd_bits(&mut rng, bits);
            engine.run_warp(&[(a.as_limbs(), b.as_limbs())], Termination::Full);
            assert_eq!(entry_gcd(&engine, 0), a.gcd_reference(&b), "{bits} bits");
        }
    }
}
