//! CLI for the workspace static analyzer.
//!
//! ```text
//! cargo run -p olap-analyzer -- check                  # human output, exit 1 on new findings
//! cargo run -p olap-analyzer -- check --json           # machine-readable report on stdout
//! cargo run -p olap-analyzer -- check --format sarif   # SARIF 2.1.0 log on stdout
//! cargo run -p olap-analyzer -- check --jobs 8         # parallel scan + rule passes
//! cargo run -p olap-analyzer -- check --write-baseline
//! cargo run -p olap-analyzer -- check --root <dir> --baseline <file>
//! ```
//!
//! Exit codes: `0` clean (or fully base-lined), `1` new findings or stale
//! baseline entries, `2` usage/scan errors.

use std::path::PathBuf;
use std::process::ExitCode;

/// Output rendering for `check`.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// Per-finding lines plus a one-line summary.
    Text,
    /// The full JSON report.
    Json,
    /// A SARIF 2.1.0 log (new findings unsuppressed).
    Sarif,
}

struct Args {
    root: PathBuf,
    baseline: PathBuf,
    format: Format,
    write_baseline: bool,
    jobs: usize,
}

fn usage() -> String {
    "usage: olap-analyzer check [--json | --format text|json|sarif] [--write-baseline]\n\
     \x20                          [--jobs N] [--root <dir>] [--baseline <file>]\n\
     \n\
     Scans crates/*/src and src/ for violations of the workspace rules\n\
     (panic-site, atomic-ordering, lock-order, error-surface,\n\
     budget-coverage, pin-across-blocking, span-discipline,\n\
     estimate-isolation) and compares them against the\n\
     checked-in baseline. --jobs N parallelizes the per-file scan and\n\
     the rule passes (output is identical for every N).\n\
     Exit 0: no findings beyond the baseline. Exit 1: new findings or a\n\
     stale baseline. Exit 2: bad usage or unreadable sources."
        .to_string()
}

fn parse_args() -> Result<Args, String> {
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
    let default_root = manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut args = Args {
        baseline: default_root.join("crates/analyzer/baseline.json"),
        root: default_root,
        format: Format::Text,
        write_baseline: false,
        jobs: 1,
    };
    let mut explicit_baseline = false;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => args.format = Format::Json,
            "--format" => {
                let v = argv.next().ok_or("--format needs text, json, or sarif")?;
                args.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`\n\n{}", usage())),
                };
            }
            "--write-baseline" => args.write_baseline = true,
            "--jobs" => {
                let v = argv.next().ok_or("--jobs needs a thread count")?;
                args.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs: `{v}` is not a positive integer"))?;
            }
            "--root" => {
                let v = argv.next().ok_or("--root needs a directory")?;
                args.root = PathBuf::from(v);
                if !explicit_baseline {
                    args.baseline = args.root.join("crates/analyzer/baseline.json");
                }
            }
            "--baseline" => {
                let v = argv.next().ok_or("--baseline needs a file path")?;
                args.baseline = PathBuf::from(v);
                explicit_baseline = true;
            }
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let outcome = match olap_analyzer::run_check_with(&args.root, &args.baseline, args.jobs) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("olap-analyzer: {msg}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;
    if args.write_baseline {
        let rendered = outcome.report.render_baseline();
        if let Err(e) = std::fs::write(&args.baseline, &rendered) {
            eprintln!("olap-analyzer: writing {}: {e}", args.baseline.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "olap-analyzer: wrote {} entries to {}",
            outcome.report.baseline_counts().len(),
            args.baseline.display()
        );
        return ExitCode::SUCCESS;
    }
    match args.format {
        Format::Json => {
            print!("{}", outcome.report.render_json(outcome.new_findings.len()));
        }
        Format::Sarif => {
            print!("{}", outcome.report.render_sarif(&outcome.new_findings));
        }
        Format::Text => {
            for f in &outcome.new_findings {
                println!("{}", f.display());
            }
            for k in &outcome.stale {
                println!(
                    "stale baseline entry: [{}] {} :: {} (run `cargo run -p olap-analyzer -- check --write-baseline`)",
                    k.0, k.1, k.2
                );
            }
            let total = outcome.report.findings.len();
            let allowed = total - outcome.report.active().count();
            eprintln!(
                "olap-analyzer: {} findings ({} allowed inline, {} baselined, {} new, {} stale baseline entries)",
                total,
                allowed,
                outcome.baseline_len,
                outcome.new_findings.len(),
                outcome.stale.len()
            );
        }
    }
    eprintln!(
        "olap-analyzer: analyzer_self_time_ms: {elapsed_ms} (jobs: {})",
        args.jobs
    );
    if outcome.new_findings.is_empty() && outcome.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
