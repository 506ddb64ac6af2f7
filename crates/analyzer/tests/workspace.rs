//! The checked-out workspace holds both static gates under plain
//! `cargo test`:
//!
//! - clippy is the panic-freedom gate for the query path: every
//!   query-path package root denies the panicking escape hatches outside
//!   test builds, and no library source opts out with `allow`. A site
//!   whose bound is an invariant uses `#[expect(…, reason = "…")]`
//!   instead, which clippy reports once the site is gone;
//! - a fresh `olap-analyzer` scan has no finding that an inline allow
//!   does not cover, the invariant `olap-analyzer check` enforces in CI.

use std::path::{Path, PathBuf};

/// The lints `cargo clippy -- -D warnings` must deny on the query path.
const DENIED: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::indexing_slicing",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The query-path packages, by source directory.
const QUERY_PATH: &[&str] = &[
    "crates/aggregate/src",
    "crates/array/src",
    "crates/engine/src",
    "crates/planner/src",
    "crates/prefix-sum/src",
    "crates/query/src",
    "crates/range-max/src",
    "crates/server/src",
    "crates/sparse/src",
    "crates/storage/src",
    "crates/telemetry/src",
    "crates/tree-sum/src",
    "src",
];

fn workspace() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("analyzer lives two levels below the workspace root")
        .to_path_buf()
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let p = entry.expect("dir entry").path();
        if p.is_dir() {
            rust_sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The source text with all whitespace removed, so rustfmt's layout of
/// an attribute does not matter.
fn squeezed(path: &Path) -> String {
    std::fs::read_to_string(path)
        .expect("readable source")
        .split_whitespace()
        .collect()
}

#[test]
fn every_query_path_root_denies_the_panicking_lints() {
    let root = workspace();
    for dir in QUERY_PATH {
        let lib = root.join(dir).join("lib.rs");
        let src = squeezed(&lib);
        let start = src
            .find("#![cfg_attr(not(test),deny(")
            .unwrap_or_else(|| panic!("{} lacks #![cfg_attr(not(test), deny(…))]", lib.display()));
        let attr = &src[start..start + src[start..].find(")]").expect("closed attribute")];
        for lint in DENIED {
            assert!(
                attr.split([',', '(', ')']).any(|l| l == *lint),
                "{} does not deny {lint}",
                lib.display()
            );
        }
    }
}

#[test]
fn no_query_path_source_allows_a_denied_lint() {
    let root = workspace();
    let mut files = Vec::new();
    for dir in QUERY_PATH {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(files.len() > QUERY_PATH.len());
    for file in files {
        let src = squeezed(&file);
        for attr in src.split("allow(").skip(1) {
            let args = attr.split(')').next().unwrap_or("");
            for lint in DENIED {
                assert!(
                    !args.split(',').any(|l| l == *lint),
                    "{} allows {lint}; use #[expect({lint}, reason = \"…\")]",
                    file.display()
                );
            }
        }
    }
}

#[test]
fn a_fresh_scan_has_no_active_findings() {
    let report = olap_analyzer::run_check(&workspace()).expect("scan succeeds");
    let active: Vec<String> = report.active().map(|f| f.display()).collect();
    assert!(
        active.is_empty(),
        "findings not covered by an inline allow:\n{active:#?}"
    );
    assert!(
        !report.findings.is_empty(),
        "the scan saw the allowed sites"
    );
}
