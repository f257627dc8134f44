//! The per-launch step of the scan pipeline's one launch loop.
//!
//! Every launch-driven scan runs each launch through
//! [`run_layered_launch`]: fault injection from a
//! [`FaultPlan`] ([`FaultPlan::none`] unless the caller set one) and
//! retry-with-backoff under a [`RetryPolicy`] wrap the backend executor,
//! and a launch that exhausts its retries degrades to the CPU path. Its
//! findings pass the §V reporting rule (`retain_reportable`), and the
//! result is a journal record, which the pipeline commits to its
//! [`ScanJournal`](crate::checkpoint::ScanJournal) (a caller-held journal
//! or an in-memory one), plus the launch's metrics row.

use crate::checkpoint::LaunchRecord;
use crate::fault::FaultPlan;
use crate::scan::backend::{
    launch_termination, retain_reportable, scalar_fallback, ExecCtx, LaunchExecutor,
};
use crate::scan::report::LaunchMetrics;
use bulkgcd_gpu::{retry_launch, RetryPolicy};
use std::time::Instant;

/// One launch's result: the journal record the pipeline commits plus the
/// metrics row (also the source of the run's
/// [`FaultStats`](crate::scan::FaultStats)).
pub(crate) struct LayeredLaunch {
    pub record: LaunchRecord,
    pub metrics: LaunchMetrics,
}

/// Execute one launch through the fault/retry stack: inject faults from
/// `plan`, retry transient ones per `policy`, and degrade to the CPU path
/// (same lanes, same per-launch termination — so byte-identical findings)
/// when the device gives up.
pub(crate) fn run_layered_launch(
    cx: &ExecCtx<'_>,
    executor: &mut (dyn LaunchExecutor + Send),
    lanes: &[(usize, usize)],
    launch: u64,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> LayeredLaunch {
    let t0 = Instant::now();
    let (result, outcome) = retry_launch(launch, plan, policy, || executor.execute(cx, lanes));
    let (mut record, metrics) = match result {
        Ok(out) => (
            LaunchRecord {
                launch,
                simulated_seconds: out.simulated_seconds.unwrap_or(0.0),
                cpu_fallback: false,
                findings: out.findings,
            },
            LaunchMetrics {
                launch,
                lanes: lanes.len() as u64,
                warps: out.warps,
                warp_instructions: out.warp_instructions,
                mem_transactions: out.mem_transactions,
                lane_iterations: out.lane_iterations,
                active_lane_iters: out.active_lane_iters,
                resident_lane_iters: out.resident_lane_iters,
                compactions: out.compactions,
                refills: out.refills,
                simulated_seconds: out.simulated_seconds,
                host_seconds: t0.elapsed().as_secs_f64(),
                attempts: outcome.attempts,
                backoff: outcome.backoff,
                cpu_fallback: false,
            },
        ),
        // Graceful degradation: the device refuses this launch, so its
        // block of lanes runs on the host. Identical termination settings
        // make the findings byte-identical; only the simulated clock is
        // lost (a fallback launch contributes no device seconds).
        Err(_) => {
            let term = launch_termination(cx.arena, lanes, cx.early);
            let found = scalar_fallback(cx, lanes, term);
            (
                LaunchRecord {
                    launch,
                    simulated_seconds: 0.0,
                    cpu_fallback: true,
                    findings: found,
                },
                LaunchMetrics {
                    launch,
                    lanes: lanes.len() as u64,
                    warps: 0,
                    warp_instructions: 0.0,
                    mem_transactions: 0,
                    lane_iterations: 0,
                    active_lane_iters: 0,
                    resident_lane_iters: 0,
                    compactions: 0,
                    refills: 0,
                    simulated_seconds: None,
                    host_seconds: t0.elapsed().as_secs_f64(),
                    attempts: outcome.attempts,
                    backoff: outcome.backoff,
                    cpu_fallback: true,
                },
            )
        }
    };
    retain_reportable(cx, &mut record.findings);
    LayeredLaunch { record, metrics }
}
