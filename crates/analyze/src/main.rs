//! `analyze` — the workspace static-analysis gate.
//!
//! ```text
//! cargo run -p analyze [--release] -- [--root PATH] [--json PATH] \
//!     [--sarif PATH] [--baseline PATH] [--list-lints]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use analyze::RunOptions;
use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: analyze [--root PATH] [--json PATH] [--sarif PATH] [--baseline PATH]\n\
     \x20              [--list-lints]\n\
     \n\
     Runs the constant-flow, crash-consistency, zero-alloc, and workspace\n\
     invariant lints over every Rust source file in the workspace.\n\
     \n\
     --root PATH      workspace root (default: this crate's workspace)\n\
     --json PATH      also write the report as JSON to PATH\n\
     --sarif PATH     also write the report as SARIF 2.1.0 to PATH\n\
     --baseline PATH  baseline file (default: <root>/analyze.baseline)\n\
     --list-lints     print the lint catalog and exit\n"
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut sarif: Option<PathBuf> = None;
    let mut opts = RunOptions::default();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" | "--json" | "--sarif" | "--baseline" => {
                let Some(p) = args.next() else {
                    eprintln!("{arg} needs a path\n{}", usage());
                    return ExitCode::from(2);
                };
                let p = PathBuf::from(p);
                match arg.as_str() {
                    "--root" => root = Some(p),
                    "--json" => json = Some(p),
                    "--sarif" => sarif = Some(p),
                    _ => opts.baseline = Some(p),
                }
            }
            "--list-lints" => {
                for (name, desc) in analyze::LINTS {
                    println!("{name:20} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    // Default root: two levels up from this crate (crates/analyze -> repo).
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let report = match analyze::analyze_workspace_with(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json {
        if let Err(e) = fs::write(&path, report.to_json()) {
            eprintln!("analyze: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = sarif {
        if let Err(e) = fs::write(&path, report.to_sarif(analyze::LINTS)) {
            eprintln!("analyze: failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for f in &report.findings {
        println!("{}", f.render());
    }
    println!(
        "analyze: {} file(s), {} cf root(s) covering {} fn(s), \
         {} journal fn(s), {} zero-alloc root(s), {} allow(s) consumed, \
         {} baselined, {} finding(s)",
        report.files_scanned,
        report.constant_flow_fns,
        report.cf_covered_fns,
        report.journal_fns,
        report.zero_alloc_roots,
        report.allows_consumed,
        report.baselined,
        report.findings.len()
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
