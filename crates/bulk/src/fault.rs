//! Deterministic fault plans for testing the resumable scan driver.
//!
//! A [`FaultPlan`] maps launch indices to injected failures and is the
//! [`FaultInjector`] the scan pipeline's launch loop runs against
//! ([`ScanPipeline::faults`](crate::scan::ScanPipeline::faults)). Three
//! failure classes cover the fault surface:
//!
//! * **transient** launch faults — retried with exponential backoff;
//! * **persistent** launch faults — the launch degrades to the CPU path;
//! * **kills** — the *process* dies at a launch boundary. Kills are not
//!   launch faults at all (the injector never reports them); the scan
//!   driver checks [`kills`](FaultPlan::kills) at each boundary and stops
//!   exactly as a crash would, leaving the journal resumable.
//!
//! The plan is immutable and answers purely from the launch index, so the
//! parallel driver can query it from any worker, any number of times, and
//! a replayed run sees identical faults. To resume after an injected kill,
//! drop the kill that fired ([`without_kill_at`](FaultPlan::without_kill_at))
//! — modelling that the crash does not recur — and run the same plan again.

use bulkgcd_gpu::{FaultInjector, LaunchFault};
use std::collections::BTreeMap;

/// The failure injected at one launch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// The launch's first `failures` attempts fail transiently; the next
    /// attempt succeeds. Exercises the retry/backoff loop (and, when
    /// `failures` exceeds the retry budget, the CPU fallback).
    Transient {
        /// How many leading attempts fail.
        failures: u32,
    },
    /// Every attempt fails; the launch can only complete on the CPU path.
    Persistent,
    /// The process dies at this launch's boundary, before it runs.
    Kill,
}

/// A deterministic, seeded-or-scripted schedule of injected failures.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: BTreeMap<u64, FaultSpec>,
}

/// SplitMix64: the tiny, high-quality mixer behind the seeded plan.
/// Inlined so the library crate needs no RNG dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// The production plan: nothing ever fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a kill at launch `launch`'s boundary.
    pub fn with_kill(mut self, launch: u64) -> Self {
        self.faults.insert(launch, FaultSpec::Kill);
        self
    }

    /// Make launch `launch` fail transiently for its first `failures`
    /// attempts.
    pub fn with_transient(mut self, launch: u64, failures: u32) -> Self {
        self.faults
            .insert(launch, FaultSpec::Transient { failures });
        self
    }

    /// Make launch `launch` fail persistently (CPU fallback).
    pub fn with_persistent(mut self, launch: u64) -> Self {
        self.faults.insert(launch, FaultSpec::Persistent);
        self
    }

    /// A reproducible pseudo-random plan over `launches` launch indices:
    /// roughly 10% transient (1–3 failing attempts), 5% persistent and 10%
    /// kills. The same seed always yields the same plan, so a failing
    /// fuzz case is its seed.
    pub fn seeded(seed: u64, launches: u64) -> Self {
        let mut plan = FaultPlan::none();
        for launch in 0..launches {
            let roll = splitmix64(seed ^ splitmix64(launch));
            match roll % 100 {
                0..=9 => {
                    let failures = 1 + (roll >> 32) as u32 % 3;
                    plan.faults
                        .insert(launch, FaultSpec::Transient { failures });
                }
                10..=14 => {
                    plan.faults.insert(launch, FaultSpec::Persistent);
                }
                15..=24 => {
                    plan.faults.insert(launch, FaultSpec::Kill);
                }
                _ => {}
            }
        }
        plan
    }

    /// Whether the plan has no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faulted launches in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the process is scheduled to die at launch `launch`'s
    /// boundary.
    pub fn kills(&self, launch: u64) -> bool {
        self.faults.get(&launch) == Some(&FaultSpec::Kill)
    }

    /// The lowest-indexed kill, if any.
    pub fn first_kill(&self) -> Option<u64> {
        self.kill_launches().next()
    }

    /// All kill boundaries, in launch order.
    pub fn kill_launches(&self) -> impl Iterator<Item = u64> + '_ {
        self.faults
            .iter()
            .filter(|(_, spec)| **spec == FaultSpec::Kill)
            .map(|(&launch, _)| launch)
    }

    /// The plan with the kill at `launch` removed — the resume step after
    /// that kill fired (the crash does not recur). Non-kill faults at
    /// `launch` are kept.
    pub fn without_kill_at(mut self, launch: u64) -> Self {
        if self.kills(launch) {
            self.faults.remove(&launch);
        }
        self
    }

    /// The plan with every kill removed: the run that is finally allowed
    /// to finish (transient/persistent faults still fire).
    pub fn without_kills(mut self) -> Self {
        self.faults.retain(|_, spec| *spec != FaultSpec::Kill);
        self
    }

    /// The scripted fault at `launch`, if any.
    pub fn spec(&self, launch: u64) -> Option<FaultSpec> {
        self.faults.get(&launch).copied()
    }
}

/// The shard-level failure injected on one tile's *first* assignment.
///
/// These model the failure classes of the multi-shard coordinator
/// (DESIGN.md §4c): where [`FaultSpec`] breaks individual launches,
/// `ShardFaultSpec` breaks *workers* — the processes executing whole
/// tiles — and exercises the lease/reclaim/fingerprint machinery of
/// [`Coordinator`](crate::shard::Coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultSpec {
    /// The worker process dies after committing `after_launches` of its
    /// tile (clamped into the tile). Its journal keeps the committed
    /// prefix; its lease is never renewed, so the coordinator reclaims
    /// the tile and a fresh worker resumes from the journal.
    WorkerDeath {
        /// Launches the worker commits before dying.
        after_launches: u64,
    },
    /// The worker finishes its tile but stalls long enough that its lease
    /// expires before it reports back. Its renewal is refused
    /// (`LeaseLost`), it abandons the tile without completing it, and the
    /// reclaiming worker finds a fully committed journal to resume.
    LeaseLoss,
    /// [`WorkerDeath`](Self::WorkerDeath) plus a torn final journal line
    /// (the crash hit mid-append). Resume must drop the torn tail and
    /// re-execute only the uncommitted launches.
    TornJournal {
        /// Launches the worker commits before dying mid-append.
        after_launches: u64,
    },
    /// The worker completes its tile normally, then a resurrected
    /// incarnation of it submits the same completion again. The
    /// coordinator must detect the duplicate by tile fingerprint and
    /// discard it.
    DuplicateCompletion,
}

/// A deterministic schedule of [`ShardFaultSpec`]s keyed by tile index.
///
/// Like [`FaultPlan`], the plan is immutable, answers purely from the
/// tile index, and a seeded plan replays identically from its seed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardFaultPlan {
    faults: BTreeMap<u64, ShardFaultSpec>,
}

impl ShardFaultPlan {
    /// The production plan: every worker is healthy.
    pub fn none() -> Self {
        ShardFaultPlan::default()
    }

    /// Kill tile `tile`'s first worker after it commits `after_launches`.
    pub fn with_worker_death(mut self, tile: u64, after_launches: u64) -> Self {
        self.faults
            .insert(tile, ShardFaultSpec::WorkerDeath { after_launches });
        self
    }

    /// Expire tile `tile`'s first worker's lease before it reports back.
    pub fn with_lease_loss(mut self, tile: u64) -> Self {
        self.faults.insert(tile, ShardFaultSpec::LeaseLoss);
        self
    }

    /// Kill tile `tile`'s first worker mid-append after `after_launches`.
    pub fn with_torn_journal(mut self, tile: u64, after_launches: u64) -> Self {
        self.faults
            .insert(tile, ShardFaultSpec::TornJournal { after_launches });
        self
    }

    /// Have tile `tile`'s first worker submit its completion twice.
    pub fn with_duplicate_completion(mut self, tile: u64) -> Self {
        self.faults
            .insert(tile, ShardFaultSpec::DuplicateCompletion);
        self
    }

    /// A reproducible pseudo-random plan over `tiles` tile indices:
    /// roughly 15% worker deaths, 10% lease losses, 10% torn journals and
    /// 10% duplicate completions. The same seed always yields the same
    /// plan, so a failing fuzz case is its seed.
    pub fn seeded(seed: u64, tiles: u64) -> Self {
        let mut plan = ShardFaultPlan::none();
        for tile in 0..tiles {
            // Salted so a shard plan and a launch plan from the same seed
            // are decorrelated.
            let roll = splitmix64(seed ^ splitmix64(tile ^ 0x5a5a_5a5a_5a5a_5a5a));
            let after_launches = roll >> 32;
            match roll % 100 {
                0..=14 => {
                    plan.faults
                        .insert(tile, ShardFaultSpec::WorkerDeath { after_launches });
                }
                15..=24 => {
                    plan.faults.insert(tile, ShardFaultSpec::LeaseLoss);
                }
                25..=34 => {
                    plan.faults
                        .insert(tile, ShardFaultSpec::TornJournal { after_launches });
                }
                35..=44 => {
                    plan.faults
                        .insert(tile, ShardFaultSpec::DuplicateCompletion);
                }
                _ => {}
            }
        }
        plan
    }

    /// Whether the plan has no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faulted tiles in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scripted fault for tile `tile`, if any.
    pub fn spec(&self, tile: u64) -> Option<ShardFaultSpec> {
        self.faults.get(&tile).copied()
    }
}

impl FaultInjector for FaultPlan {
    fn fault(&self, launch: u64, attempt: u32) -> Option<LaunchFault> {
        match self.faults.get(&launch) {
            Some(FaultSpec::Transient { failures }) if attempt < *failures => {
                Some(LaunchFault::Transient)
            }
            Some(FaultSpec::Persistent) => Some(LaunchFault::Persistent),
            // Kills are process deaths at launch boundaries, handled by the
            // scan driver — from the device's point of view nothing failed.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_faults_fire_where_scripted() {
        let plan = FaultPlan::none()
            .with_transient(2, 2)
            .with_persistent(5)
            .with_kill(7);
        assert_eq!(plan.fault(2, 0), Some(LaunchFault::Transient));
        assert_eq!(plan.fault(2, 1), Some(LaunchFault::Transient));
        assert_eq!(plan.fault(2, 2), None, "third attempt succeeds");
        assert_eq!(plan.fault(5, 9), Some(LaunchFault::Persistent));
        assert_eq!(plan.fault(7, 0), None, "kills are not launch faults");
        assert!(plan.kills(7));
        assert!(!plan.kills(2));
        assert_eq!(plan.fault(0, 0), None);
    }

    #[test]
    fn kill_bookkeeping() {
        let plan = FaultPlan::none()
            .with_kill(3)
            .with_kill(9)
            .with_transient(1, 1);
        assert_eq!(plan.first_kill(), Some(3));
        assert_eq!(plan.kill_launches().collect::<Vec<_>>(), vec![3, 9]);

        let resumed = plan.clone().without_kill_at(3);
        assert_eq!(resumed.first_kill(), Some(9));
        assert_eq!(resumed.fault(1, 0), Some(LaunchFault::Transient));

        let finishing = plan.without_kills();
        assert_eq!(finishing.first_kill(), None);
        assert_eq!(
            finishing.fault(1, 0),
            Some(LaunchFault::Transient),
            "non-kill faults survive without_kills"
        );
    }

    #[test]
    fn without_kill_at_keeps_non_kill_faults() {
        let plan = FaultPlan::none().with_persistent(4).without_kill_at(4);
        assert_eq!(plan.spec(4), Some(FaultSpec::Persistent));
    }

    #[test]
    fn seeded_shard_plans_are_reproducible_and_cover_every_kind() {
        let a = ShardFaultPlan::seeded(99, 400);
        assert_eq!(a, ShardFaultPlan::seeded(99, 400));
        assert_ne!(a, ShardFaultPlan::seeded(100, 400));
        let specs: Vec<_> = (0..400).filter_map(|t| a.spec(t)).collect();
        assert!(specs
            .iter()
            .any(|s| matches!(s, ShardFaultSpec::WorkerDeath { .. })));
        assert!(specs.contains(&ShardFaultSpec::LeaseLoss));
        assert!(specs
            .iter()
            .any(|s| matches!(s, ShardFaultSpec::TornJournal { .. })));
        assert!(specs.contains(&ShardFaultSpec::DuplicateCompletion));
        // Healthy tiles exist too: the plan must not fault everything.
        assert!(a.len() < 400);
    }

    #[test]
    fn scripted_shard_faults_fire_where_scripted() {
        let plan = ShardFaultPlan::none()
            .with_worker_death(0, 2)
            .with_lease_loss(1)
            .with_torn_journal(2, 0)
            .with_duplicate_completion(3);
        assert_eq!(
            plan.spec(0),
            Some(ShardFaultSpec::WorkerDeath { after_launches: 2 })
        );
        assert_eq!(plan.spec(1), Some(ShardFaultSpec::LeaseLoss));
        assert_eq!(
            plan.spec(2),
            Some(ShardFaultSpec::TornJournal { after_launches: 0 })
        );
        assert_eq!(plan.spec(3), Some(ShardFaultSpec::DuplicateCompletion));
        assert_eq!(plan.spec(4), None);
        assert_eq!(plan.len(), 4);
        assert!(ShardFaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(1234, 200);
        let b = FaultPlan::seeded(1234, 200);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(1235, 200);
        assert_ne!(a, c, "different seeds should differ over 200 launches");
        // The advertised rates are rough, but over 200 launches each class
        // should appear at least once.
        let specs: Vec<_> = (0..200).filter_map(|l| a.spec(l)).collect();
        assert!(specs
            .iter()
            .any(|s| matches!(s, FaultSpec::Transient { .. })));
        assert!(specs.contains(&FaultSpec::Persistent));
        assert!(specs.contains(&FaultSpec::Kill));
    }
}
