//! Fingerprint-keyed incremental cache for per-file analysis.
//!
//! Phase 1 ([`crate::lints::analyze_file`]) is the expensive part of a
//! run — lexing, fn discovery, statement parsing, taint fixpoints — and
//! it depends on nothing but the file's own bytes. So each
//! [`FileAnalysis`] is serialized to `target/analyze-cache/` keyed by an
//! FNV-1a fingerprint of the source text; an unchanged file costs one
//! read + fingerprint on the next run, and the global passes (which are
//! cheap — they walk summaries, never source) always run fresh. A
//! version stamp invalidates every entry when the analysis format
//! changes, and *any* parse hiccup simply reports a miss — the cache can
//! be deleted at will.
//!
//! The format is line-oriented text, one record per line with
//! tab-separated fields (tabs/newlines/backslashes escaped in string
//! fields). No serde: the workspace vendors no dependencies, and the
//! analyzer must pass its own lints, so everything here is panic-free.

use crate::callgraph::FnInfo;
use crate::dataflow::{Block, BranchKind, CallKind, CallSite, FnSummary, Site, EXIT};
use crate::findings::Finding;
use crate::lints::{lint_tag, FileAnalysis, FileClass, GateSpec};
use crate::pragma::JournalMode;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Bump when [`FileAnalysis`] or the summary format changes shape.
pub const CACHE_VERSION: u32 = 2;

/// 64-bit FNV-1a over the source bytes.
pub fn fingerprint(src: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in src.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where entries live, under the workspace's own target dir.
pub fn cache_dir(root: &Path) -> PathBuf {
    root.join("target").join("analyze-cache")
}

fn entry_path(root: &Path, rel: &str) -> PathBuf {
    let mut name = rel.replace(['/', '\\'], "_");
    name.push_str(".cache");
    cache_dir(root).join(name)
}

/// Load the cached analysis for `rel` if it matches `fp`.
pub fn load(root: &Path, rel: &str, fp: u64) -> Option<FileAnalysis> {
    let text = fs::read_to_string(entry_path(root, rel)).ok()?;
    let fa = deserialize(&text, fp)?;
    (fa.path == rel).then_some(fa)
}

/// Store an analysis; errors are ignored (a cold cache is only slow).
pub fn store(root: &Path, rel: &str, fp: u64, fa: &FileAnalysis) {
    let dir = cache_dir(root);
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = fs::write(entry_path(root, rel), serialize(fa, fp));
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

fn class_tag(c: FileClass) -> char {
    match c {
        FileClass::Library => 'L',
        FileClass::Binary => 'B',
        FileClass::Test => 'T',
        FileClass::Example => 'E',
    }
}

fn class_of(c: &str) -> Option<FileClass> {
    match c {
        "L" => Some(FileClass::Library),
        "B" => Some(FileClass::Binary),
        "T" => Some(FileClass::Test),
        "E" => Some(FileClass::Example),
        _ => None,
    }
}

fn journal_tag(m: Option<JournalMode>) -> &'static str {
    match m {
        None => "-",
        Some(JournalMode::General) => "g",
        Some(JournalMode::Create) => "c",
        Some(JournalMode::Append) => "a",
        Some(JournalMode::Replay) => "r",
    }
}

fn journal_of(s: &str) -> Option<Option<JournalMode>> {
    match s {
        "-" => Some(None),
        "g" => Some(Some(JournalMode::General)),
        "c" => Some(Some(JournalMode::Create)),
        "a" => Some(Some(JournalMode::Append)),
        "r" => Some(Some(JournalMode::Replay)),
        _ => None,
    }
}

fn list(items: &[String]) -> String {
    items.join(",")
}

fn unlist(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(',').map(str::to_string).collect()
    }
}

/// Serialize one analysis (public for tests and debugging).
pub fn serialize(fa: &FileAnalysis, fp: u64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "analyze-cache {CACHE_VERSION}");
    let _ = writeln!(s, "fp {fp:016x}");
    let _ = writeln!(s, "path\t{}", esc(&fa.path));
    let _ = writeln!(s, "class\t{}", class_tag(fa.class));
    let _ = writeln!(
        s,
        "counts\t{}\t{}\t{}",
        fa.cf_roots, fa.journal_fns, fa.za_roots
    );
    for f in &fa.intra {
        let _ = writeln!(
            s,
            "I\t{}\t{}\t{}\t{}",
            f.line,
            f.lint,
            esc(&f.message),
            esc(&f.suggestion)
        );
    }
    for g in &fa.gates {
        let _ = writeln!(s, "G\t{}\t{}", g.line, esc(&g.lint));
    }
    for f in &fa.fns {
        let cf = match &f.cf_public {
            None => "-".to_string(),
            Some(p) => {
                let mut names: Vec<String> = p.iter().cloned().collect();
                names.sort();
                format!("P{}", list(&names))
            }
        };
        let _ = writeln!(
            s,
            "N\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            esc(&f.s.name),
            f.s.owner.as_deref().map_or("-".to_string(), esc),
            f.s.line,
            f.s.end_line,
            u8::from(f.s.in_test),
            list(&f.s.params),
            cf,
            u8::from(f.za_root),
            journal_tag(f.journal),
            list(&f.s.mentions)
        );
        for site in &f.s.sites {
            match site {
                Site::Branch { line, kind, mask } => {
                    let k = match kind {
                        BranchKind::If => 'i',
                        BranchKind::While => 'w',
                        BranchKind::Match => 'm',
                        BranchKind::Short => 's',
                    };
                    let _ = writeln!(s, "S\tB\t{line}\t{k}\t{mask:x}");
                }
                Site::Index { line, mask } => {
                    let _ = writeln!(s, "S\tI\t{line}\t{mask:x}");
                }
                Site::Exit {
                    line,
                    mask,
                    is_try,
                    is_err,
                } => {
                    let _ = writeln!(
                        s,
                        "S\tX\t{line}\t{mask:x}\t{}\t{}",
                        u8::from(*is_try),
                        u8::from(*is_err)
                    );
                }
                Site::Alloc { line, what } => {
                    let _ = writeln!(s, "S\tA\t{line}\t{}", esc(what));
                }
                Site::Io { line, write } => {
                    let _ = writeln!(s, "S\tO\t{line}\t{}", u8::from(*write));
                }
                Site::Call(c) => {
                    let k = match c.kind {
                        CallKind::Free => 'f',
                        CallKind::SelfMethod => 's',
                        CallKind::Method => 'm',
                        CallKind::Qualified => 'q',
                    };
                    let args: Vec<String> = c.args.iter().map(|a| format!("{a:x}")).collect();
                    let _ = writeln!(
                        s,
                        "S\tC\t{}\t{}\t{k}\t{}\t{:x}\t{}",
                        c.line,
                        esc(&c.name),
                        esc(&c.qual),
                        c.recv,
                        args.join(",")
                    );
                }
            }
        }
        for b in &f.s.blocks {
            let sites: Vec<String> = b.sites.iter().map(u32::to_string).collect();
            let succs: Vec<String> = b
                .succs
                .iter()
                .map(|&x| {
                    if x == EXIT {
                        "E".to_string()
                    } else {
                        x.to_string()
                    }
                })
                .collect();
            let _ = writeln!(s, "K\t{}\t{}", sites.join(","), succs.join(","));
        }
    }
    s
}

/// Parse a serialized analysis; any mismatch or malformed record is a
/// cache miss (`None`).
pub fn deserialize(text: &str, expect_fp: u64) -> Option<FileAnalysis> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let version: u32 = header.strip_prefix("analyze-cache ")?.parse().ok()?;
    if version != CACHE_VERSION {
        return None;
    }
    let fp = u64::from_str_radix(lines.next()?.strip_prefix("fp ")?, 16).ok()?;
    if fp != expect_fp {
        return None;
    }

    let mut fa = FileAnalysis {
        path: String::new(),
        class: FileClass::Library,
        intra: Vec::new(),
        gates: Vec::new(),
        fns: Vec::new(),
        cf_roots: 0,
        journal_fns: 0,
        za_roots: 0,
    };
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.first().copied()? {
            "path" => fa.path = unesc(fields.get(1)?),
            "class" => fa.class = class_of(fields.get(1)?)?,
            "counts" => {
                fa.cf_roots = fields.get(1)?.parse().ok()?;
                fa.journal_fns = fields.get(2)?.parse().ok()?;
                fa.za_roots = fields.get(3)?.parse().ok()?;
            }
            "I" => {
                fa.intra.push(Finding {
                    file: String::new(), // filled below from path
                    line: fields.get(1)?.parse().ok()?,
                    lint: lint_tag(fields.get(2)?)?,
                    message: unesc(fields.get(3)?),
                    suggestion: unesc(fields.get(4)?),
                });
            }
            "G" => {
                fa.gates.push(GateSpec {
                    line: fields.get(1)?.parse().ok()?,
                    lint: unesc(fields.get(2)?),
                });
            }
            "N" => {
                let owner = *fields.get(2)?;
                let cf = *fields.get(7)?;
                let cf_public: Option<HashSet<String>> = if cf == "-" {
                    None
                } else {
                    Some(unlist(cf.strip_prefix('P')?).into_iter().collect())
                };
                fa.fns.push(FnInfo {
                    file: String::new(), // filled below from path
                    s: FnSummary {
                        name: unesc(fields.get(1)?),
                        owner: (owner != "-").then(|| unesc(owner)),
                        line: fields.get(3)?.parse().ok()?,
                        end_line: fields.get(4)?.parse().ok()?,
                        in_test: *fields.get(5)? == "1",
                        params: unlist(fields.get(6)?),
                        sites: Vec::new(),
                        blocks: Vec::new(),
                        mentions: unlist(fields.get(10)?),
                    },
                    cf_public,
                    za_root: *fields.get(8)? == "1",
                    journal: journal_of(fields.get(9)?)?,
                });
            }
            "S" => {
                let f = fa.fns.last_mut()?;
                let site = match *fields.get(1)? {
                    "B" => Site::Branch {
                        line: fields.get(2)?.parse().ok()?,
                        kind: match *fields.get(3)? {
                            "i" => BranchKind::If,
                            "w" => BranchKind::While,
                            "m" => BranchKind::Match,
                            "s" => BranchKind::Short,
                            _ => return None,
                        },
                        mask: u64::from_str_radix(fields.get(4)?, 16).ok()?,
                    },
                    "I" => Site::Index {
                        line: fields.get(2)?.parse().ok()?,
                        mask: u64::from_str_radix(fields.get(3)?, 16).ok()?,
                    },
                    "X" => Site::Exit {
                        line: fields.get(2)?.parse().ok()?,
                        mask: u64::from_str_radix(fields.get(3)?, 16).ok()?,
                        is_try: *fields.get(4)? == "1",
                        is_err: *fields.get(5)? == "1",
                    },
                    "A" => Site::Alloc {
                        line: fields.get(2)?.parse().ok()?,
                        what: unesc(fields.get(3)?),
                    },
                    "O" => Site::Io {
                        line: fields.get(2)?.parse().ok()?,
                        write: *fields.get(3)? == "1",
                    },
                    "C" => {
                        let args_field = *fields.get(7)?;
                        let mut args = Vec::new();
                        if !args_field.is_empty() {
                            for a in args_field.split(',') {
                                args.push(u64::from_str_radix(a, 16).ok()?);
                            }
                        }
                        Site::Call(CallSite {
                            line: fields.get(2)?.parse().ok()?,
                            name: unesc(fields.get(3)?),
                            kind: match *fields.get(4)? {
                                "f" => CallKind::Free,
                                "s" => CallKind::SelfMethod,
                                "m" => CallKind::Method,
                                "q" => CallKind::Qualified,
                                _ => return None,
                            },
                            qual: unesc(fields.get(5)?),
                            recv: u64::from_str_radix(fields.get(6)?, 16).ok()?,
                            args,
                        })
                    }
                    _ => return None,
                };
                f.s.sites.push(site);
            }
            "K" => {
                let f = fa.fns.last_mut()?;
                let mut block = Block::default();
                let sites = *fields.get(1)?;
                if !sites.is_empty() {
                    for x in sites.split(',') {
                        block.sites.push(x.parse().ok()?);
                    }
                }
                let succs = *fields.get(2)?;
                if !succs.is_empty() {
                    for x in succs.split(',') {
                        block
                            .succs
                            .push(if x == "E" { EXIT } else { x.parse().ok()? });
                    }
                }
                f.s.blocks.push(block);
            }
            _ => return None,
        }
    }
    for f in &mut fa.intra {
        f.file = fa.path.clone();
    }
    for f in &mut fa.fns {
        f.file = fa.path.clone();
    }
    Some(fa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{analyze_file, finish};

    const SRC: &str = "// analyze: constant-flow(public = \"n\")\n\
                       fn root(x: u64, n: usize) -> u64 { helper(x, n) }\n\
                       fn helper(v: u64, n: usize) -> u64 {\n\
                           if v > 1 { return 0; }\n\
                           v.wrapping_mul(n as u64)\n\
                       }\n\
                       // analyze: journal(append)\n\
                       fn append(&mut self, x: &[u8]) -> io::Result<()> {\n\
                           self.file.write_all(x)?;\n\
                           Ok(())\n\
                       }\n";

    fn ctx() -> FileCtx {
        FileCtx {
            path: "crates/x/src/lib.rs".to_string(),
            class: FileClass::Library,
            bigint_limb: false,
        }
    }

    use crate::lints::FileCtx;

    #[test]
    fn roundtrip_preserves_findings() {
        let fa = analyze_file(SRC, &ctx());
        let fp = fingerprint(SRC);
        let text = serialize(&fa, fp);
        let back = deserialize(&text, fp).expect("roundtrip");
        assert_eq!(back.path, fa.path);
        assert_eq!(back.fns.len(), fa.fns.len());
        assert_eq!(back.cf_roots, fa.cf_roots);
        assert_eq!(back.journal_fns, fa.journal_fns);

        // The global passes must produce identical findings either way.
        let direct = finish(std::slice::from_ref(&fa), &[], "");
        let cached = finish(std::slice::from_ref(&back), &[], "");
        let a: Vec<String> = direct.findings.iter().map(|f| f.render()).collect();
        let b: Vec<String> = cached.findings.iter().map(|f| f.render()).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "expected seeded findings, got none");
    }

    #[test]
    fn wrong_fingerprint_or_version_misses() {
        let fa = analyze_file(SRC, &ctx());
        let fp = fingerprint(SRC);
        let text = serialize(&fa, fp);
        assert!(deserialize(&text, fp ^ 1).is_none());
        let bumped = text.replace(
            &format!("analyze-cache {CACHE_VERSION}"),
            "analyze-cache 999999",
        );
        assert!(deserialize(&bumped, fp).is_none());
    }

    #[test]
    fn garbage_is_a_miss_not_a_panic() {
        assert!(deserialize("", 0).is_none());
        assert!(deserialize("analyze-cache 1\nfp zz\n", 0).is_none());
        let fa = analyze_file(SRC, &ctx());
        let fp = fingerprint(SRC);
        let mut text = serialize(&fa, fp);
        text.push_str("Z\tbogus\n");
        assert!(deserialize(&text, fp).is_none());
    }
}
