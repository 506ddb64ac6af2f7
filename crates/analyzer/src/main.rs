//! CLI for the workspace static analyzer.
//!
//! ```text
//! cargo run -p olap-analyzer -- check               # exit 1 on any finding not allowed inline
//! cargo run -p olap-analyzer -- check --root <dir>  # scan another checkout
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/scan errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: olap-analyzer check [--root <dir>]\n\
     \n\
     Scans crates/*/src and src/ for violations of the workspace rules\n\
     (atomic-ordering, lock-order, error-surface, budget-coverage,\n\
     pin-across-blocking, span-discipline, estimate-isolation).\n\
     Exit 0: every finding is allowed inline. Exit 1: findings.\n\
     Exit 2: bad usage or unreadable sources."
        .to_string()
}

fn parse_args() -> Result<PathBuf, String> {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("check") => {}
        Some("--help") | Some("-h") | None => return Err(usage()),
        Some(other) => return Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
    // Default root: the workspace directory (two levels above this
    // crate's manifest), so `cargo run -p olap-analyzer` works from any
    // cwd inside the workspace.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut root = manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(argv.next().ok_or("--root needs a directory")?),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_args() {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match olap_analyzer::run_check(&root) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("olap-analyzer: {msg}");
            return ExitCode::from(2);
        }
    };
    let active: Vec<_> = report.active().collect();
    for f in &active {
        println!("{}", f.display());
    }
    eprintln!(
        "olap-analyzer: {} findings ({} allowed inline, {} active)",
        report.findings.len(),
        report.findings.len() - active.len(),
        active.len()
    );
    if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
