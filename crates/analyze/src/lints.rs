//! Per-file analysis, the global finish phase, and allow/baseline
//! resolution.
//!
//! The engine runs in two phases, so a global lint sees every file's
//! summaries at once:
//!
//! 1. [`analyze_file`] — everything derivable from one file alone: lex,
//!    parse pragmas, build [`crate::dataflow`] summaries for every fn,
//!    run the token-level invariant lints (no-panic, safety-comment,
//!    truncating-cast, debug prints). The result — a
//!    [`FileAnalysis`] — is plain data.
//! 2. [`finish`] — the global passes over all summaries: interprocedural
//!    constant-flow ([`crate::callgraph`]), crash-consistency
//!    ([`crate::durability`]), zero-alloc reachability, then per-file
//!    `allow` resolution, baseline application, and the meta-lints
//!    (`unused-allow`, `stale-baseline`). Allow resolution runs *last* so
//!    a pragma can excuse a finding produced by a global pass.
//!
//! [`run_file`] wraps both phases for a single file — the fixture
//! self-tests exercise every lint family through it.

use crate::callgraph::{self, FnInfo, Program};
use crate::constant_flow;
use crate::durability;
use crate::findings::{Finding, Report};
use crate::lexer::{lex, CommentLine, Tok};
use crate::pragma::{parse_pragmas, JournalMode, Pragma, ALLOW_WINDOW};
use crate::{cfg, dataflow};
use std::collections::{HashMap, HashSet};

/// What kind of source a file is; decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library crate source (`crates/*/src`, root `src/lib.rs`): all lints.
    Library,
    /// Binaries and benches: call-site lints only (panics and prints are a
    /// CLI's job).
    Binary,
    /// Integration tests: call-site lints only.
    Test,
    /// Examples: call-site lints only.
    Example,
}

/// Per-file context the lints need beyond the source text.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, used verbatim in findings.
    pub path: String,
    /// Which lints apply.
    pub class: FileClass,
    /// True for `crates/bigint/src`: enables the truncating-cast lint,
    /// which is specific to limb arithmetic.
    pub bigint_limb: bool,
}

/// Output of linting one file (the [`run_file`] compatibility surface).
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived allow resolution.
    pub findings: Vec<Finding>,
    /// How many `constant-flow` functions were analyzed.
    pub constant_flow_fns: usize,
    /// How many allow pragmas excused at least one finding.
    pub allows_consumed: usize,
}

/// One `allow` gate, as phase 1 records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateSpec {
    /// Line of the pragma comment.
    pub line: u32,
    /// Lint it excuses.
    pub lint: String,
}

/// Everything phase 1 learns about one file. Plain data: this is all the
/// global phase sees of the file.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Lint class (affects which intra lints ran).
    pub class: FileClass,
    /// Raw file-local findings, before allow resolution.
    pub intra: Vec<Finding>,
    /// Allow gates declared in the file.
    pub gates: Vec<GateSpec>,
    /// Function summaries plus their pragma facts.
    pub fns: Vec<FnInfo>,
    /// Constant-flow pragma roots in this file.
    pub cf_roots: usize,
    /// Journal-pragma fns in this file.
    pub journal_fns: usize,
    /// Zero-alloc roots in this file.
    pub za_roots: usize,
}

/// Lint catalog: name and one-line description, for `--list-lints`, the
/// SARIF rule table, and the self-test's every-lint-fires assertion.
pub const LINTS: &[(&str, &str)] = &[
    (
        "cf-branch",
        "if/while/match on operand-derived values in a constant-flow fn",
    ),
    (
        "cf-short-circuit",
        "&&/|| on operand-derived values in a constant-flow fn",
    ),
    (
        "cf-early-return",
        "return or ? on an operand-dependent path in a constant-flow fn",
    ),
    (
        "cf-index",
        "indexing by operand-derived values in a constant-flow fn",
    ),
    (
        "cf-reach",
        "allow-only: prunes constant-flow propagation through a documented-divergence call",
    ),
    (
        "za-alloc",
        "allocating call reachable from a zero-alloc root",
    ),
    (
        "journal-unsynced",
        "journal append path reaching a completion exit without sync_data",
    ),
    (
        "journal-split-commit",
        "journal(create) fn appending a commit record in more than one write",
    ),
    (
        "journal-torn-tail",
        "journal(replay) fn with no torn-tail handling on any path",
    ),
    (
        "no-panic",
        "unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
    ),
    (
        "no-debug-print",
        "println!/print!/eprintln!/eprint!/dbg! in library code",
    ),
    (
        "safety-comment",
        "unsafe block or fn without a preceding // SAFETY: comment",
    ),
    (
        "truncating-cast",
        "`as Limb` truncation in bigint limb arithmetic without an allow",
    ),
    ("unused-allow", "allow pragma that excused no finding"),
    ("bad-pragma", "analyze pragma that failed to parse"),
    (
        "stale-baseline",
        "baseline entry that matched no current finding",
    ),
];

/// Macros that abort in library code.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Debug-print macros that have no business in a library crate.
const PRINT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit
/// (multi-line justifications and interleaved attributes included).
const SAFETY_WINDOW: u32 = 10;

/// Phase 1: analyze one file in isolation.
pub fn analyze_file(src: &str, ctx: &FileCtx) -> FileAnalysis {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let (pragmas, pragma_errors) = parse_pragmas(&lexed.comments);
    let excluded = cfg::test_regions(toks);
    let in_test = |idx: usize| excluded.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut fa = FileAnalysis {
        path: ctx.path.clone(),
        class: ctx.class,
        intra: Vec::new(),
        gates: Vec::new(),
        fns: Vec::new(),
        cf_roots: 0,
        journal_fns: 0,
        za_roots: 0,
    };

    for e in &pragma_errors {
        fa.intra.push(Finding {
            file: ctx.path.clone(),
            line: e.line,
            lint: "bad-pragma",
            message: e.message.clone(),
            suggestion: "fix the pragma; a typo here silently disables a lint".to_string(),
        });
    }

    // Bind fn-scoped pragmas to the next fn item below each.
    let decls = cfg::find_fns(toks);
    let mut cf_of: HashMap<usize, HashSet<String>> = HashMap::new();
    let mut za_of: HashSet<usize> = HashSet::new();
    let mut journal_of: HashMap<usize, JournalMode> = HashMap::new();
    for p in &pragmas {
        let (line, kind) = match p {
            Pragma::ConstantFlow { line, .. } => (*line, "constant-flow"),
            Pragma::ZeroAlloc { line } => (*line, "zero-alloc"),
            Pragma::Journal { line, .. } => (*line, "journal"),
            Pragma::Allow { line, lint, .. } => {
                fa.gates.push(GateSpec {
                    line: *line,
                    lint: lint.clone(),
                });
                continue;
            }
        };
        // Nearest fn below the pragma line.
        let target = decls
            .iter()
            .enumerate()
            .filter(|(_, d)| d.line > line)
            .min_by_key(|(_, d)| d.line)
            .map(|(i, _)| i);
        let Some(i) = target else {
            fa.intra.push(Finding {
                file: ctx.path.clone(),
                line,
                lint: "bad-pragma",
                message: format!("{kind} pragma with no following fn item"),
                suggestion: "place the pragma directly above the function it annotates".to_string(),
            });
            continue;
        };
        match p {
            Pragma::ConstantFlow { public, .. } => {
                cf_of.insert(i, public.iter().cloned().collect());
                fa.cf_roots += 1;
            }
            Pragma::ZeroAlloc { .. } => {
                za_of.insert(i);
                fa.za_roots += 1;
            }
            Pragma::Journal { mode, .. } => {
                journal_of.insert(i, *mode);
                fa.journal_fns += 1;
            }
            _ => {}
        }
    }

    let empty: HashSet<String> = HashSet::new();
    for (i, d) in decls.iter().enumerate() {
        let public = cf_of.get(&i).unwrap_or(&empty);
        let mut s = dataflow::summarize(toks, d, public);
        // Functions outside library code never participate in the global
        // passes: a test helper must not capture a call edge by name.
        if ctx.class != FileClass::Library {
            s.in_test = true;
        }
        fa.fns.push(FnInfo {
            file: ctx.path.clone(),
            s,
            cf_public: cf_of.get(&i).cloned(),
            za_root: za_of.contains(&i),
            journal: journal_of.get(&i).copied(),
        });
    }

    let lib = ctx.class == FileClass::Library;
    if lib {
        lint_no_panic(toks, ctx, &in_test, &mut fa.intra);
        lint_no_debug_print(toks, ctx, &in_test, &mut fa.intra);
        lint_safety_comment(toks, &lexed.comments, ctx, &mut fa.intra);
    }
    if ctx.bigint_limb {
        lint_truncating_cast(toks, ctx, &in_test, &mut fa.intra);
    }

    fa
}

/// One baseline entry: `lint<TAB>path<TAB>fn<TAB>reason`.
#[derive(Debug, Clone)]
pub struct BaselineEntry {
    /// Line in the baseline file (for stale-baseline findings).
    pub line: u32,
    pub lint: String,
    pub file: String,
    pub func: String,
}

/// Parse a baseline file. `#` starts a comment; blank lines are skipped.
/// Malformed lines become parse errors the caller reports as findings.
pub fn parse_baseline(text: &str) -> (Vec<BaselineEntry>, Vec<(u32, String)>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = (i + 1) as u32;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut parts = raw.split('\t');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(lint), Some(file), Some(func), Some(reason)) if !reason.trim().is_empty() => {
                entries.push(BaselineEntry {
                    line,
                    lint: lint.trim().to_string(),
                    file: file.trim().to_string(),
                    func: func.trim().to_string(),
                });
            }
            _ => errors.push((
                line,
                "baseline line needs `lint<TAB>path<TAB>fn<TAB>reason`".to_string(),
            )),
        }
    }
    (entries, errors)
}

/// Phase 2: the global passes plus resolution. `baseline_path` is the
/// path baseline findings are attributed to (empty slice of entries is
/// fine — single-file runs pass none).
pub fn finish(files: &[FileAnalysis], baseline: &[BaselineEntry], baseline_path: &str) -> Report {
    let mut report = Report::default();

    // Flatten into the program; remember where each fn came from.
    let all: Vec<FnInfo> = files.iter().flat_map(|f| f.fns.iter().cloned()).collect();
    let prog = Program::build(all);

    for f in files {
        report.constant_flow_fns += f.cf_roots;
        report.journal_fns += f.journal_fns;
        report.zero_alloc_roots += f.za_roots;
    }

    // Allow gates the global passes consult directly: `cf-reach` prunes
    // constant-flow propagation edges at documented divergence boundaries,
    // `za-alloc` exempts allocation call subtrees. Lines consumed by the
    // passes are recorded so the gates count as used.
    let mut pass_gates: HashMap<(&str, &str), Vec<&GateSpec>> = HashMap::new();
    for f in files {
        for g in &f.gates {
            if g.lint == "za-alloc" || g.lint == "cf-reach" {
                pass_gates
                    .entry((f.path.as_str(), g.lint.as_str()))
                    .or_default()
                    .push(g);
            }
        }
    }
    let covered = |file: &str, lint: &str, line: u32| {
        pass_gates.get(&(file, lint)).is_some_and(|gs| {
            gs.iter()
                .any(|g| line >= g.line && line <= g.line + ALLOW_WINDOW)
        })
    };

    // Interprocedural constant flow.
    let mut cf_consumed: Vec<(String, u32)> = Vec::new();
    let pruned = |file: &str, line: u32| covered(file, "cf-reach", line);
    let contexts = callgraph::constant_flow_contexts(&prog, &pruned, &mut cf_consumed);
    report.cf_covered_fns = contexts.len();
    let mut global: Vec<Finding> = Vec::new();
    let mut ordered: Vec<(&usize, &callgraph::CfContext)> = contexts.iter().collect();
    ordered.sort_by_key(|(i, _)| **i);
    for (&i, c) in ordered {
        let info = &prog.fns[i];
        let is_root = info.cf_public.is_some();
        constant_flow::check_summary(info, c.mask, &c.root, is_root, &mut global);
    }

    // Crash consistency.
    global.extend(durability::check(&prog));

    // Zero-alloc reachability.
    let allowed = |file: &str, line: u32| covered(file, "za-alloc", line);
    let mut za_consumed: Vec<(String, u32)> = Vec::new();
    global.extend(callgraph::zero_alloc(&prog, &allowed, &mut za_consumed));

    // Per-file resolution: allow gates first (nearest line-scoped gate
    // wins), then the baseline, then the meta-lints.
    let mut baseline_used: Vec<bool> = vec![false; baseline.len()];
    for f in files {
        let mut raw: Vec<Finding> = f.intra.clone();
        raw.extend(global.iter().filter(|g| g.file == f.path).cloned());
        raw.sort_by_key(|x| (x.line, x.lint));
        dedupe(&mut raw);

        let mut gates: Vec<(GateSpec, bool)> = f.gates.iter().map(|g| (g.clone(), false)).collect();
        for (lint, list) in [("cf-reach", &cf_consumed), ("za-alloc", &za_consumed)] {
            for (file, line) in list.iter() {
                if file != &f.path {
                    continue;
                }
                if let Some(g) = nearest_gate(&mut gates, lint, *line) {
                    g.1 = true;
                }
            }
        }
        for finding in raw {
            let suppressible = finding.lint != "unused-allow"
                && finding.lint != "bad-pragma"
                && finding.lint != "stale-baseline";
            if suppressible {
                if let Some(g) = nearest_gate(&mut gates, finding.lint, finding.line) {
                    g.1 = true;
                    continue;
                }
                // Baseline: match by (lint, file, enclosing fn).
                let func = enclosing_fn(f, finding.line);
                let hit = baseline
                    .iter()
                    .position(|b| b.lint == finding.lint && b.file == f.path && b.func == func);
                if let Some(b) = hit {
                    baseline_used[b] = true;
                    report.baselined += 1;
                    continue;
                }
            }
            report.findings.push(finding);
        }
        for (g, consumed) in &gates {
            if *consumed {
                report.allows_consumed += 1;
            } else {
                report.findings.push(Finding {
                    file: f.path.clone(),
                    line: g.line,
                    lint: "unused-allow",
                    message: format!("allow({}) excused no finding", g.lint),
                    suggestion: "delete the stale pragma, or fix it if a lint name is misspelled"
                        .to_string(),
                });
            }
        }
    }

    for (b, used) in baseline.iter().zip(&baseline_used) {
        if !used {
            report.findings.push(Finding {
                file: baseline_path.to_string(),
                line: b.line,
                lint: "stale-baseline",
                message: format!(
                    "baseline entry `{}` in `{}` fn `{}` matched no finding",
                    b.lint, b.file, b.func
                ),
                suggestion: "delete the entry; the divergence it documented is gone".to_string(),
            });
        }
    }

    report
}

/// Nearest applicable gate: later (closer) lines beat earlier ones.
fn nearest_gate<'a>(
    gates: &'a mut [(GateSpec, bool)],
    lint: &str,
    line: u32,
) -> Option<&'a mut (GateSpec, bool)> {
    gates
        .iter_mut()
        .filter(|(g, _)| g.lint == lint && line >= g.line && line <= g.line + ALLOW_WINDOW)
        .max_by_key(|(g, _)| g.line)
}

/// Name of the innermost fn whose span covers `line`, or empty.
fn enclosing_fn(f: &FileAnalysis, line: u32) -> String {
    f.fns
        .iter()
        .filter(|i| i.s.line <= line && line <= i.s.end_line)
        .max_by_key(|i| i.s.line)
        .map(|i| i.s.name.clone())
        .unwrap_or_default()
}

/// Remove duplicate (line, lint) hits — e.g. an `else if` chain re-visiting
/// the same condition.
fn dedupe(findings: &mut Vec<Finding>) {
    let mut seen: HashSet<(u32, &'static str)> = HashSet::new();
    findings.retain(|f| seen.insert((f.line, f.lint)));
}

/// Lint one file through both phases (no baseline). The self-test
/// fixtures go through here; journal/zero-alloc/constant-flow pragmas are
/// fully checked as long as the call graph stays within the file.
pub fn run_file(src: &str, ctx: &FileCtx) -> FileOutcome {
    let fa = analyze_file(src, ctx);
    let report = finish(std::slice::from_ref(&fa), &[], "");
    FileOutcome {
        findings: report.findings,
        constant_flow_fns: report.constant_flow_fns,
        allows_consumed: report.allows_consumed,
    }
}

fn finding(
    ctx: &FileCtx,
    line: u32,
    lint: &'static str,
    message: String,
    suggestion: &str,
) -> Finding {
    Finding {
        file: ctx.path.clone(),
        line,
        lint,
        message,
        suggestion: suggestion.to_string(),
    }
}

/// `no-panic`: `.unwrap()` / `.expect(` / `panic!` / `todo!` /
/// `unimplemented!` in non-test library code. `unreachable!` and the
/// assert family are exempt: those are invariant documentation, not error
/// handling.
fn lint_no_panic(
    toks: &[Tok],
    ctx: &FileCtx,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        let next_is = |p: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(p));
        if (name == "unwrap" || name == "expect")
            && i > 0
            && toks[i - 1].is_punct(".")
            && next_is("(")
        {
            out.push(finding(
                ctx,
                t.line,
                "no-panic",
                format!("`.{name}()` in library code"),
                "return a Result/Option like ScanReport::simulated, use a checked accessor, \
                 or add an allow pragma documenting the panic contract",
            ));
        } else if PANIC_MACROS.contains(&name) && next_is("!") {
            out.push(finding(
                ctx,
                t.line,
                "no-panic",
                format!("`{name}!` in library code"),
                "propagate an error instead; aborts in library code kill whole scans",
            ));
        }
    }
}

/// `no-debug-print`: stray stdout/stderr chatter in library crates.
fn lint_no_debug_print(
    toks: &[Tok],
    ctx: &FileCtx,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let Some(name) = t.ident() else { continue };
        if PRINT_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            out.push(finding(
                ctx,
                t.line,
                "no-debug-print",
                format!("`{name}!` in library code"),
                "return data to the caller; only binaries talk to stdio",
            ));
        }
    }
}

/// `safety-comment`: every `unsafe` keyword (blocks and fns alike) needs a
/// `// SAFETY:` comment within the preceding [`SAFETY_WINDOW`] lines.
fn lint_safety_comment(
    toks: &[Tok],
    comments: &[CommentLine],
    ctx: &FileCtx,
    out: &mut Vec<Finding>,
) {
    for t in toks {
        // `unsafe {`, `unsafe fn`, `unsafe impl` — every form needs the
        // audit comment.
        if !t.is_ident("unsafe") {
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW);
        let documented = comments
            .iter()
            .any(|c| c.line >= lo && c.line <= t.line && c.text.contains("SAFETY:"));
        if !documented {
            out.push(finding(
                ctx,
                t.line,
                "safety-comment",
                "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                "state the invariant that makes this sound, directly above the unsafe site",
            ));
        }
    }
}

/// `truncating-cast`: `as Limb` silently drops high bits of a wide value.
/// Limb extraction must go through `limb::lo` / `limb::hi` (which carry
/// the audit) or an allow pragma.
fn lint_truncating_cast(
    toks: &[Tok],
    ctx: &FileCtx,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        if t.is_ident("as") && toks.get(i + 1).is_some_and(|n| n.is_ident("Limb")) {
            out.push(finding(
                ctx,
                t.line,
                "truncating-cast",
                "`as Limb` truncation in limb arithmetic".to_string(),
                "use limb::lo / limb::hi, which document the intended truncation, \
                 or add an allow pragma",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileCtx {
        FileCtx {
            path: "lib.rs".to_string(),
            class: FileClass::Library,
            bigint_limb: false,
        }
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn f() -> u32 { 1 }\n\
                   #[cfg(test)]\nmod tests {\n fn g() { None::<u32>.unwrap(); }\n}\n";
        let out = run_file(src, &ctx());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn unwrap_outside_tests_is_flagged() {
        let src = "fn f() { None::<u32>.unwrap(); }";
        let out = run_file(src, &ctx());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "no-panic");
    }

    #[test]
    fn allow_consumes_and_unused_allow_fires() {
        let src = "// analyze: allow(no-panic, reason = \"documented contract\")\n\
                   fn f() { None::<u32>.unwrap(); }\n\
                   // analyze: allow(no-panic, reason = \"stale\")\n\
                   fn g() -> u32 { 1 }\n";
        let out = run_file(src, &ctx());
        assert_eq!(out.allows_consumed, 1);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "unused-allow");
        assert_eq!(out.findings[0].line, 3);
    }

    #[test]
    fn constant_flow_pragma_binds_next_fn() {
        let src = "// analyze: constant-flow(public = \"n\")\n\
                   fn f(x: u64, n: usize) -> u64 {\n\
                       let mut acc = 0u64;\n\
                       for i in 0..n { acc = acc.wrapping_add(i as u64); }\n\
                       if x > 0 { acc += 1; }\n\
                       acc\n\
                   }\n";
        let out = run_file(src, &ctx());
        assert_eq!(out.constant_flow_fns, 1);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].lint, "cf-branch");
        assert_eq!(out.findings[0].line, 5);
    }

    #[test]
    fn interprocedural_helper_is_checked() {
        let src = "// analyze: constant-flow(public = \"n\")\n\
                   fn root(x: u64, n: usize) -> u64 {\n\
                       helper(x, n)\n\
                   }\n\
                   fn helper(v: u64, n: usize) -> u64 {\n\
                       if v > 1 { return 0; }\n\
                       let mut acc = v;\n\
                       for _ in 0..n { acc = acc.wrapping_mul(3); }\n\
                       acc\n\
                   }\n";
        let out = run_file(src, &ctx());
        let lints: Vec<&str> = out.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&"cf-branch"), "{:?}", out.findings);
        assert!(lints.contains(&"cf-early-return"), "{:?}", out.findings);
        assert!(out
            .findings
            .iter()
            .any(|f| f.message.contains("reached from constant-flow root `root`")));
    }

    #[test]
    fn uniform_early_return_is_fine() {
        // A return guarded only by public structure is uniform across the
        // warp: every lane takes it together.
        let src = "// analyze: constant-flow(public = \"n\")\n\
                   fn f(x: u64, n: usize) -> u64 {\n\
                       if n == 0 { return 0; }\n\
                       x.wrapping_mul(n as u64)\n\
                   }\n";
        let out = run_file(src, &ctx());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn baseline_suppresses_and_goes_stale() {
        let src = "fn f() { None::<u32>.unwrap(); }";
        let fa = analyze_file(src, &ctx());
        let (baseline, errs) = parse_baseline(
            "# comment\n\
             no-panic\tlib.rs\tf\tdocumented divergence\n\
             no-panic\tlib.rs\tgone_fn\twas removed\n",
        );
        assert!(errs.is_empty());
        let report = finish(std::slice::from_ref(&fa), &baseline, "analyze.baseline");
        // The unwrap is baselined; the second entry is stale.
        assert_eq!(report.baselined, 1);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].lint, "stale-baseline");
        assert_eq!(report.findings[0].file, "analyze.baseline");
    }
}
