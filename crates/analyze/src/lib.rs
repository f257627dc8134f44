//! Self-hosted static analysis for the bulk-GCD workspace.
//!
//! A multi-pass dataflow engine, fully offline (no rustc plumbing, no
//! external dependencies):
//!
//! 1. **Interprocedural constant-flow.** The paper's GPU pipeline
//!    (§IV–§VI) only coalesces and stays in lockstep because the hot
//!    kernels are *semi-oblivious*: their branch and address sequences
//!    are (almost) operand-independent. Functions opt in with
//!    `// analyze: constant-flow` and become roots: [`dataflow`] builds a
//!    per-function CFG + taint summary, [`callgraph`] propagates taint
//!    contexts through calls, and every transitively-reached helper is
//!    checked with no further annotation. Intentional divergence — the
//!    DeepShift / WideAlpha / β>0 scalar fixups — is documented in place
//!    with `// analyze: allow(...)` pragmas, and the static claims are
//!    cross-checked dynamically by the differential-trace test
//!    (`tests/lockstep_trace.rs` at the workspace root).
//!
//! 2. **Crash consistency.** `// analyze: journal` functions (the
//!    checkpoint/coordinator/store append and replay paths) are run
//!    through a forward durability dataflow: every append must reach
//!    `sync_data` before a completion-observable exit, commit headers
//!    must be single appends, replay paths must handle torn tails.
//!
//! 3. **Static zero-alloc.** `// analyze: zero-alloc` roots (the scan
//!    hot loop, the GPU retry path, the queue-mode engine) must not
//!    reach an allocating call, proved by call-graph reachability.
//!
//! 4. **Workspace invariants.** No `unwrap`/`expect`/`panic!` in library
//!    code, `// SAFETY:` above every `unsafe`, no debug prints in library
//!    crates, no bare `as Limb` truncation in bigint limb arithmetic.
//!
//! Analysis is two-phase: a per-file pass ([`lints::analyze_file`], run
//! fresh on every file every time) and a global pass ([`lints::finish`])
//! that runs the call-graph lints, then resolves `allow` pragmas and the
//! checked-in baseline (`analyze.baseline`). Nothing is written to disk.
//!
//! The `analyze` binary (same crate) runs everything over the workspace
//! and gates `scripts/check.sh`. Everything here is itself library code,
//! so the analyzer must pass its own lints — it is written panic-free.

pub mod callgraph;
pub mod cfg;
pub mod constant_flow;
pub mod dataflow;
pub mod durability;
pub mod findings;
pub mod lexer;
pub mod lints;
pub mod pragma;
pub mod workspace;

pub use findings::{Finding, Report};
pub use lints::{run_file, FileClass, FileCtx, FileOutcome, LINTS};

use std::fs;
use std::io;
use std::path::Path;

/// Name of the checked-in baseline file at the workspace root.
pub const BASELINE_FILE: &str = "analyze.baseline";

/// Options for a workspace run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Override the baseline path (default: `<root>/analyze.baseline`;
    /// a missing file is an empty baseline, not an error).
    pub baseline: Option<std::path::PathBuf>,
}

/// Lint every source file in the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    analyze_workspace_with(root, &RunOptions::default())
}

/// [`analyze_workspace`] with explicit options.
pub fn analyze_workspace_with(root: &Path, opts: &RunOptions) -> io::Result<Report> {
    let files = workspace::collect_files(root)?;
    let mut analyses = Vec::with_capacity(files.len());
    for (path, ctx) in files {
        let src = fs::read_to_string(&path)?;
        analyses.push(lints::analyze_file(&src, &ctx));
    }

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join(BASELINE_FILE));
    let baseline_rel = opts
        .baseline
        .as_ref()
        .map_or(BASELINE_FILE.to_string(), |p| p.display().to_string());
    let baseline_text = fs::read_to_string(&baseline_path).unwrap_or_default();
    let (entries, errors) = lints::parse_baseline(&baseline_text);

    let mut report = lints::finish(&analyses, &entries, &baseline_rel);
    for (line, message) in errors {
        report.findings.push(Finding {
            file: baseline_rel.clone(),
            line,
            lint: "stale-baseline",
            message,
            suggestion: "fix the baseline line format: `lint<TAB>path<TAB>fn<TAB>reason`"
                .to_string(),
        });
    }
    report.files_scanned = analyses.len();
    report.sort();
    Ok(report)
}
