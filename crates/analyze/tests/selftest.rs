//! Seeded-violation self-test: every lint must fire on its fixture and
//! stay silent on the clean fixture. This is what makes the analyzer
//! trustworthy — a lint that can't be shown to fire proves nothing by
//! passing.

use analyze::{run_file, FileClass, FileCtx, FileOutcome};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn run_fixture(name: &str, bigint_limb: bool) -> FileOutcome {
    let src = fixture(name);
    run_file(
        &src,
        &FileCtx {
            path: format!("fixtures/{name}"),
            class: FileClass::Library,
            bigint_limb,
        },
    )
}

fn lint_counts(out: &FileOutcome) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for f in &out.findings {
        *counts.entry(f.lint).or_insert(0) += 1;
    }
    counts
}

#[test]
fn constant_flow_lints_fire() {
    let out = run_fixture("cf_violations.rs", false);
    let counts = lint_counts(&out);
    // branchy's if, loopy's while, matchy's match.
    assert_eq!(counts.get("cf-branch"), Some(&3), "{:?}", out.findings);
    // branchy's return and tryish's `?`.
    assert_eq!(
        counts.get("cf-early-return"),
        Some(&2),
        "{:?}",
        out.findings
    );
    assert_eq!(
        counts.get("cf-short-circuit"),
        Some(&1),
        "{:?}",
        out.findings
    );
    assert_eq!(counts.get("cf-index"), Some(&1), "{:?}", out.findings);
    assert_eq!(
        counts.len(),
        4,
        "unexpected extra lints: {:?}",
        out.findings
    );
    assert_eq!(out.constant_flow_fns, 6);
}

#[test]
fn panic_and_print_lints_fire() {
    let out = run_fixture("panics.rs", false);
    let counts = lint_counts(&out);
    // unwrap, expect, panic!, todo! — assert!/unreachable! and the
    // #[cfg(test)] module must not be flagged.
    assert_eq!(counts.get("no-panic"), Some(&4), "{:?}", out.findings);
    // println!, eprintln!, dbg!.
    assert_eq!(counts.get("no-debug-print"), Some(&3), "{:?}", out.findings);
    assert_eq!(
        counts.len(),
        2,
        "unexpected extra lints: {:?}",
        out.findings
    );
}

#[test]
fn safety_comment_lint_fires() {
    let out = run_fixture("unsafe_blocks.rs", false);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert_eq!(out.findings[0].lint, "safety-comment");
    // Only the undocumented block; the SAFETY-commented one is clean.
    assert!(out.findings[0].line > 20, "{:?}", out.findings);
}

#[test]
fn truncating_cast_lint_fires_and_allow_consumes() {
    let out = run_fixture("casts.rs", true);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert_eq!(out.findings[0].lint, "truncating-cast");
    assert_eq!(out.allows_consumed, 1);
}

#[test]
fn truncating_cast_needs_bigint_flag() {
    // Without the bigint-limb flag the cast lint is off; the only
    // residue is the now-stale allow pragma, which unused-allow reports.
    let out = run_fixture("casts.rs", false);
    let counts = lint_counts(&out);
    assert_eq!(counts.get("truncating-cast"), None, "{:?}", out.findings);
    assert_eq!(counts.get("unused-allow"), Some(&1), "{:?}", out.findings);
}

#[test]
fn meta_lints_fire() {
    let out = run_fixture("meta.rs", false);
    let counts = lint_counts(&out);
    assert_eq!(counts.get("unused-allow"), Some(&1), "{:?}", out.findings);
    // Missing reason + unknown directive.
    assert_eq!(counts.get("bad-pragma"), Some(&2), "{:?}", out.findings);
    assert_eq!(
        counts.len(),
        2,
        "unexpected extra lints: {:?}",
        out.findings
    );
}

#[test]
fn clean_fixture_is_clean() {
    let out = run_fixture("clean.rs", false);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(out.constant_flow_fns, 3);
    assert_eq!(out.allows_consumed, 1);
}

#[test]
fn test_class_skips_panic_lints() {
    let src = fixture("panics.rs");
    let out = run_file(
        &src,
        &FileCtx {
            path: "tests/panics.rs".into(),
            class: FileClass::Test,
            bigint_limb: false,
        },
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn journal_lints_fire() {
    let out = run_fixture("journal_violations.rs", false);
    let counts = lint_counts(&out);
    // Three distinct unsynced shapes: direct, skippable sync, and a
    // helper that forgets the fsync (interprocedural effect).
    assert_eq!(
        counts.get("journal-unsynced"),
        Some(&3),
        "{:?}",
        out.findings
    );
    assert_eq!(
        counts.get("journal-split-commit"),
        Some(&1),
        "{:?}",
        out.findings
    );
    assert_eq!(
        counts.get("journal-torn-tail"),
        Some(&1),
        "{:?}",
        out.findings
    );
    assert_eq!(
        counts.len(),
        3,
        "unexpected extra lints: {:?}",
        out.findings
    );
    // The dirty helper's effect is attributed to its journal caller.
    assert!(out
        .findings
        .iter()
        .any(|f| f.lint == "journal-unsynced" && f.message.contains("record_via_helper")));
}

#[test]
fn zero_alloc_lints_fire() {
    let out = run_fixture("za_violations.rs", false);
    let counts = lint_counts(&out);
    // vec! macro, .push(), and a .to_string() one call deep.
    assert_eq!(counts.get("za-alloc"), Some(&3), "{:?}", out.findings);
    assert_eq!(
        counts.len(),
        1,
        "unexpected extra lints: {:?}",
        out.findings
    );
    assert!(
        out.findings.iter().any(|f| f.message.contains("widen")),
        "transitive allocation should name the helper: {:?}",
        out.findings
    );
    // The warmup resize in `steady` is excused, and the allow is consumed.
    assert_eq!(out.allows_consumed, 1);
}

#[test]
fn interprocedural_constant_flow_fires_and_prunes() {
    let out = run_fixture("cf_interproc.rs", false);
    let counts = lint_counts(&out);
    // `accumulate` has no pragma of its own; both findings come from the
    // taint context `kernel` hands it through the call.
    assert_eq!(counts.get("cf-branch"), Some(&1), "{:?}", out.findings);
    assert_eq!(
        counts.get("cf-early-return"),
        Some(&1),
        "{:?}",
        out.findings
    );
    assert_eq!(
        counts.len(),
        2,
        "unexpected extra lints: {:?}",
        out.findings
    );
    assert!(
        out.findings.iter().all(|f| f
            .message
            .contains("reached from constant-flow root `kernel`")),
        "interprocedural findings must name their root: {:?}",
        out.findings
    );
    // Two roots: `kernel` and the laundering-clean `drive`.
    assert_eq!(out.constant_flow_fns, 2);
    // The cf-reach gate on `tail` pruned the edge and was consumed.
    assert_eq!(out.allows_consumed, 1);
}
