//! Workspace discovery: find every Rust source file and classify it.
//!
//! Classification is path-based and mirrors the workspace layout in
//! `Cargo.toml`: `crates/*/src` and the root facade are [library
//! code](FileClass::Library) and get the full lint set; binaries, benches,
//! tests and examples get only the call-site lints. `vendor/`, `target/`
//! and the analyzer's own seeded-violation `fixtures/` are skipped — the
//! fixtures *must* contain violations, that is their job.

use crate::lints::{FileClass, FileCtx};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Collect every `.rs` file under `root` with its lint context, in stable
/// (sorted) order.
pub fn collect_files(root: &Path) -> io::Result<Vec<(PathBuf, FileCtx)>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(class) = classify(&rel) {
            let bigint_limb = rel.starts_with("crates/bigint/src");
            out.push((
                path,
                FileCtx {
                    path: rel,
                    class,
                    bigint_limb,
                },
            ));
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint class for a workspace-relative path; `None` means don't lint
/// (scripts, build helpers outside the known layout).
fn classify(rel: &str) -> Option<FileClass> {
    if rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
        || rel.starts_with("crates/bench/")
        || rel.ends_with("/src/main.rs")
        || rel == "src/main.rs"
    {
        return Some(FileClass::Binary);
    }
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        return Some(FileClass::Test);
    }
    if rel.starts_with("examples/") || rel.contains("/examples/") || rel.contains("/benches/") {
        return Some(FileClass::Example);
    }
    if rel.starts_with("src/") || rel.contains("/src/") {
        return Some(FileClass::Library);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_layout() {
        assert_eq!(
            classify("crates/core/src/lanes.rs"),
            Some(FileClass::Library)
        );
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Library));
        assert_eq!(
            classify("crates/bench/src/bin/scan_bench.rs"),
            Some(FileClass::Binary)
        );
        assert_eq!(classify("src/bin/tool.rs"), Some(FileClass::Binary));
        assert_eq!(
            classify("crates/analyze/src/main.rs"),
            Some(FileClass::Binary)
        );
        assert_eq!(classify("tests/lockstep_trace.rs"), Some(FileClass::Test));
        assert_eq!(
            classify("crates/bulk/tests/golden_pins.rs"),
            Some(FileClass::Test)
        );
        assert_eq!(classify("examples/demo.rs"), Some(FileClass::Example));
        assert_eq!(classify("build.rs"), None);
    }
}
