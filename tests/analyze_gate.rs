//! Tier-1 analyze gate.
//!
//! Two guarantees, both enforced on every `cargo test`:
//!
//! 1. **Every lint fires** — each of the analyzer's lints produces at
//!    least one finding on the seeded-violation fixtures. A lint that
//!    never fires anywhere proves nothing by passing on the workspace.
//! 2. **The workspace is clean** — running the analyzer over the real
//!    source tree yields zero findings, so a regression (a new bare
//!    unwrap in library code, a divergent branch in a constant-flow
//!    kernel without a documented allow, an append that skips
//!    `sync_data`, an allocation on a zero-alloc path) fails the
//!    suite, not just `scripts/check.sh`.

use analyze::{analyze_workspace, lints, run_file, FileClass, FileCtx, LINTS};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn run_fixture(root: &Path, name: &str, bigint_limb: bool) -> Vec<&'static str> {
    let path = root.join("crates/analyze/fixtures").join(name);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let out = run_file(
        &src,
        &FileCtx {
            path: format!("fixtures/{name}"),
            class: FileClass::Library,
            bigint_limb,
        },
    );
    out.findings.iter().map(|f| f.lint).collect()
}

#[test]
fn every_lint_fires_on_fixtures() {
    let root = repo_root();
    let mut fired = BTreeSet::new();
    for (name, bigint_limb) in [
        ("cf_violations.rs", false),
        ("cf_interproc.rs", false),
        ("journal_violations.rs", false),
        ("za_violations.rs", false),
        ("panics.rs", false),
        ("unsafe_blocks.rs", false),
        ("casts.rs", true),
        ("meta.rs", false),
    ] {
        fired.extend(run_fixture(&root, name, bigint_limb));
    }

    // stale-baseline only exists relative to a baseline file; feed the
    // global pass one entry that matches nothing.
    let (entries, _) = lints::parse_baseline("no-panic\tsrc/ghost.rs\tghost_fn\tnever matches\n");
    let stale = lints::finish(&[], &entries, "test.baseline");
    fired.extend(stale.findings.iter().map(|f| f.lint));

    let catalog: BTreeSet<&'static str> = LINTS.iter().map(|(name, _)| *name).collect();
    // cf-reach is allow-only: it names a propagation edge an allow can
    // prune, and by design never fires as a finding.
    let allow_only: BTreeSet<&'static str> = ["cf-reach"].into_iter().collect();
    assert!(
        allow_only.is_subset(&catalog),
        "allow-only lints must stay in the catalog: {allow_only:?}"
    );
    let expected: BTreeSet<&'static str> = catalog.difference(&allow_only).copied().collect();
    assert_eq!(
        fired, expected,
        "every non-allow-only lint in the catalog must fire on at least one fixture"
    );
}

#[test]
fn clean_fixture_stays_clean() {
    let root = repo_root();
    let fired = run_fixture(&root, "clean.rs", false);
    assert!(fired.is_empty(), "clean fixture flagged: {fired:?}");
}

#[test]
fn workspace_is_clean() {
    let root = repo_root();
    let report = analyze_workspace(&root).expect("workspace scan must not error");
    assert!(report.files_scanned > 50, "walk found too few files");
    assert!(
        report.constant_flow_fns >= 4,
        "constant-flow roots missing: found {}",
        report.constant_flow_fns
    );
    // Interprocedural coverage: the roots must pull in strictly more
    // functions than the pragmas name — helpers are checked because they
    // are reached, not because someone remembered to opt them in.
    assert!(
        report.cf_covered_fns >= report.constant_flow_fns + 8,
        "constant-flow closure too small: {} root(s) cover {} fn(s)",
        report.constant_flow_fns,
        report.cf_covered_fns
    );
    assert!(
        report.journal_fns >= 15,
        "crash-consistency annotations missing: found {}",
        report.journal_fns
    );
    assert!(
        report.zero_alloc_roots >= 3,
        "zero-alloc roots missing: found {}",
        report.zero_alloc_roots
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "analyze found {} finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}
