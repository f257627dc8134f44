//! The `// analyze:` pragma grammar.
//!
//! Four forms, all line comments so they survive rustfmt and cost nothing
//! at compile time:
//!
//! ```text
//! // analyze: constant-flow
//! // analyze: constant-flow(public = "w, rows, lx")
//! // analyze: zero-alloc
//! // analyze: journal
//! // analyze: journal(create | append | replay)
//! // analyze: allow(<lint>, reason = "...")
//! ```
//!
//! `constant-flow` opts the next `fn` item into the data-dependent
//! control-flow lints **as an interprocedural root**: every function it
//! transitively calls is checked in the taint context the call graph
//! derives, with no further annotation. Its optional `public` list names
//! parameters and `self` fields whose values are input-independent
//! (widths, lengths, configuration) and therefore legal to branch on.
//! `zero-alloc` makes the next `fn` a static no-allocation root: no
//! allocating call may be reachable from it. `journal` opts the next `fn`
//! into the crash-consistency lints; the optional mode refines which ones
//! (`create` adds the single-append commit rule, `replay` adds the
//! torn-tail rule). `allow` suppresses the named lint on findings within
//! the next few source lines and **requires** a non-empty reason — the
//! escape hatch is also the documentation of the divergence it excuses.
//! Unconsumed `allow`s are themselves findings ([`crate::lints`]'
//! `unused-allow`), so stale excuses rot loudly.

use crate::lexer::CommentLine;

/// How many lines past an `allow` pragma a finding may sit and still be
/// suppressed. Covers rustfmt splitting a long condition without letting a
/// pragma silence an unrelated violation further down.
pub const ALLOW_WINDOW: u32 = 4;

/// Which crash-consistency lints a `journal` pragma enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Plain `journal`: the sync-before-completion rule only.
    General,
    /// `journal(create)`: also the single-append commit rule.
    Create,
    /// `journal(append)`: sync-before-completion (same checks as
    /// `General`; the mode documents intent).
    Append,
    /// `journal(replay)`: also the torn-tail handling rule.
    Replay,
}

/// One parsed pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pragma {
    /// `constant-flow` opt-in for the next function item.
    ConstantFlow {
        /// Line of the pragma comment.
        line: u32,
        /// Identifiers (params or `self` fields) declared input-independent.
        public: Vec<String>,
    },
    /// `zero-alloc`: the next fn is a static no-allocation root.
    ZeroAlloc {
        /// Line of the pragma comment.
        line: u32,
    },
    /// `journal` / `journal(mode)`: the next fn joins the
    /// crash-consistency lints.
    Journal {
        /// Line of the pragma comment.
        line: u32,
        /// Which rules apply.
        mode: JournalMode,
    },
    /// `allow(lint, reason = "...")` for findings within [`ALLOW_WINDOW`].
    Allow {
        /// Line of the pragma comment.
        line: u32,
        /// Lint name being excused.
        lint: String,
        /// Mandatory human rationale.
        reason: String,
    },
}

/// A pragma the parser could not accept, reported as a finding so typos
/// fail the gate instead of silently deactivating a lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaError {
    /// Line of the malformed pragma.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

/// Parse all pragmas out of a file's comment lines.
pub fn parse_pragmas(comments: &[CommentLine]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(body) = text.strip_prefix("analyze:") else {
            continue;
        };
        match parse_one(body.trim(), c.line) {
            Ok(p) => pragmas.push(p),
            Err(message) => errors.push(PragmaError {
                line: c.line,
                message,
            }),
        }
    }
    (pragmas, errors)
}

fn parse_one(body: &str, line: u32) -> Result<Pragma, String> {
    if body == "constant-flow" {
        return Ok(Pragma::ConstantFlow {
            line,
            public: Vec::new(),
        });
    }
    if let Some(rest) = body.strip_prefix("constant-flow(") {
        let inner = rest
            .strip_suffix(')')
            .ok_or_else(|| "constant-flow(...) missing closing paren".to_string())?;
        let public = parse_public(inner)?;
        return Ok(Pragma::ConstantFlow { line, public });
    }
    if body == "zero-alloc" {
        return Ok(Pragma::ZeroAlloc { line });
    }
    if body == "journal" {
        return Ok(Pragma::Journal {
            line,
            mode: JournalMode::General,
        });
    }
    if let Some(rest) = body.strip_prefix("journal(") {
        let inner = rest
            .strip_suffix(')')
            .ok_or_else(|| "journal(...) missing closing paren".to_string())?;
        let mode = match inner.trim() {
            "create" => JournalMode::Create,
            "append" => JournalMode::Append,
            "replay" => JournalMode::Replay,
            other => {
                return Err(format!(
                    "unknown journal mode `{other}` (expected create, append, or replay)"
                ))
            }
        };
        return Ok(Pragma::Journal { line, mode });
    }
    if let Some(rest) = body.strip_prefix("allow(") {
        let inner = rest
            .strip_suffix(')')
            .ok_or_else(|| "allow(...) missing closing paren".to_string())?;
        let (lint, reason) = parse_allow(inner)?;
        return Ok(Pragma::Allow { line, lint, reason });
    }
    Err(format!(
        "unrecognized pragma `{body}` (expected constant-flow, zero-alloc, journal or allow)"
    ))
}

/// `public = "a, b, c"`.
fn parse_public(inner: &str) -> Result<Vec<String>, String> {
    let rest = inner
        .trim()
        .strip_prefix("public")
        .and_then(|r| r.trim_start().strip_prefix('='))
        .ok_or_else(|| "expected `public = \"...\"`".to_string())?;
    let list = unquote(rest.trim())?;
    Ok(list
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect())
}

/// `<lint>, reason = "..."`.
fn parse_allow(inner: &str) -> Result<(String, String), String> {
    let (lint, rest) = inner
        .split_once(',')
        .ok_or_else(|| "allow needs `lint, reason = \"...\"`".to_string())?;
    let lint = lint.trim().to_string();
    if lint.is_empty() {
        return Err("allow with empty lint name".to_string());
    }
    let reason_src = rest
        .trim()
        .strip_prefix("reason")
        .and_then(|r| r.trim_start().strip_prefix('='))
        .ok_or_else(|| "allow missing `reason = \"...\"`".to_string())?;
    let reason = unquote(reason_src.trim())?;
    if reason.trim().is_empty() {
        return Err("allow with empty reason — document why the site diverges".to_string());
    }
    Ok((lint, reason))
}

fn unquote(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got `{s}`"))?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: u32, text: &str) -> CommentLine {
        CommentLine {
            line,
            text: text.to_string(),
        }
    }

    #[test]
    fn parses_all_forms() {
        let comments = vec![
            comment(1, " analyze: constant-flow"),
            comment(2, " analyze: constant-flow(public = \"w, rows\")"),
            comment(3, " analyze: allow(cf-branch, reason = \"documented\")"),
            comment(5, " just prose"),
        ];
        let (pragmas, errors) = parse_pragmas(&comments);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(pragmas.len(), 3);
        assert_eq!(
            pragmas[1],
            Pragma::ConstantFlow {
                line: 2,
                public: vec!["w".into(), "rows".into()]
            }
        );
        match &pragmas[2] {
            Pragma::Allow { lint, reason, .. } => {
                assert_eq!(lint, "cf-branch");
                assert_eq!(reason, "documented");
            }
            other => unreachable!("{other:?}"),
        }
    }

    #[test]
    fn malformed_pragmas_are_errors_not_silence() {
        let comments = vec![
            comment(1, " analyze: allow(cf-branch)"),
            comment(2, " analyze: allow(cf-branch, reason = \"\")"),
            comment(3, " analyze: constant-flo"),
            comment(4, " analyze: journal(weird)"),
            comment(
                5,
                " analyze: allow-file(no-panic, reason = \"test harness\")",
            ),
        ];
        let (pragmas, errors) = parse_pragmas(&comments);
        assert!(pragmas.is_empty());
        assert_eq!(errors.len(), 5);
        // The whole-file form is gone: a leftover one is an unknown pragma.
        assert!(
            errors[4].message.starts_with("unrecognized pragma"),
            "{:?}",
            errors[4]
        );
    }

    #[test]
    fn parses_journal_and_zero_alloc_forms() {
        let comments = vec![
            comment(1, " analyze: zero-alloc"),
            comment(2, " analyze: journal"),
            comment(3, " analyze: journal(create)"),
            comment(4, " analyze: journal(append)"),
            comment(5, " analyze: journal(replay)"),
        ];
        let (pragmas, errors) = parse_pragmas(&comments);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(
            pragmas,
            vec![
                Pragma::ZeroAlloc { line: 1 },
                Pragma::Journal {
                    line: 2,
                    mode: JournalMode::General
                },
                Pragma::Journal {
                    line: 3,
                    mode: JournalMode::Create
                },
                Pragma::Journal {
                    line: 4,
                    mode: JournalMode::Append
                },
                Pragma::Journal {
                    line: 5,
                    mode: JournalMode::Replay
                },
            ]
        );
    }
}
