//! Rules the workspace's library sources obey, checked on their text
//! under plain `cargo test`:
//!
//! - the clippy gate: every query-path package root denies the panicking
//!   escape hatches outside test builds, and no library source opts out
//!   with `allow`. A site whose bound is an invariant uses
//!   `#[expect(…, reason = "…")]` instead, which clippy reports once the
//!   site is gone;
//! - every atomic `Ordering` states its reason in an `ordering:` comment,
//!   and none is `SeqCst`: the workspace's protocols are pairwise
//!   (publish/observe), so none needs one total order;
//! - the query path does not block: no sleep, thread, channel, condvar,
//!   barrier or park, outside the three files that exist to do one. A
//!   snapshot pin or a lock guard then has no blocking call to span.
//!
//! A library source is read up to its first `#[cfg(test)]`: test modules
//! may do all of these.

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

/// The query-path files that block on purpose, each with its reason.
const MAY_BLOCK: &[(&str, &str)] = &[
    (
        "crates/engine/src/faults.rs",
        "a fault plan's injected delay sleeps the reading thread",
    ),
    (
        "crates/server/src/metrics_http.rs",
        "the `/metrics` endpoint answers scrapes on a thread of its own",
    ),
    (
        "crates/server/src/driver.rs",
        "the load driver runs its readers on scoped threads",
    ),
];

/// Identifiers that park a thread, start one, or hand work to one.
const BLOCKING: &[&str] = &[
    "sleep",
    "spawn",
    "park",
    "park_timeout",
    "JoinHandle",
    "mpsc",
    "send",
    "Sender",
    "SyncSender",
    "Receiver",
    "recv",
    "recv_timeout",
    "Condvar",
    "Barrier",
];

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
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

/// Every `.rs` file under the `dirs` of the root, with its path relative
/// to the root and its text up to its first `#[cfg(test)]`.
fn library_sources(dirs: &[PathBuf]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_sources(&root().join(dir), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable source");
            let end = text.find("#[cfg(test)]").unwrap_or(text.len());
            let rel = path.strip_prefix(root()).expect("under the root");
            (rel.display().to_string(), text[..end].to_string())
        })
        .collect()
}

/// `crates/*/src` and the facade's `src`: every library source.
fn all_library_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    dirs.push(PathBuf::from("src"));
    dirs
}

/// The code of a line, without its `//` comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// The source text with all whitespace removed, so rustfmt's layout of
/// an attribute does not matter.
fn squeezed(text: &str) -> String {
    text.split_whitespace().collect()
}

/// `(line, variant)` for each atomic `Ordering` in `src` that no
/// `ordering:` comment justifies — on its own line, or in the comment
/// block directly above — and for each `SeqCst`, justified or not.
/// Lines are 1-based; `use` lines are skipped.
fn unjustified_orderings(src: &str) -> Vec<(usize, &'static str)> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = code(line);
        if code.trim_start().starts_with("use ") {
            continue;
        }
        for variant in ATOMIC_ORDERINGS {
            if !code.contains(&format!("Ordering::{variant}")) {
                continue;
            }
            let comments_above = lines[..i]
                .iter()
                .rev()
                .take_while(|l| l.trim_start().starts_with("//"));
            let justified = line.contains("ordering:")
                || comments_above.into_iter().any(|l| l.contains("ordering:"));
            if !justified || *variant == "SeqCst" {
                out.push((i + 1, *variant));
            }
        }
    }
    out
}

/// `(line, identifier)` for each blocking call or type `src` names.
fn blocking_calls(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let code = code(line);
        let idents = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        for ident in idents.filter(|w| BLOCKING.contains(w)) {
            out.push((i + 1, ident.to_string()));
        }
        if code.contains("thread::scope") {
            out.push((i + 1, "thread::scope".to_string()));
        }
    }
    out
}

#[test]
fn every_query_path_root_denies_the_panicking_lints() {
    for dir in QUERY_PATH {
        let lib = root().join(dir).join("lib.rs");
        let src = squeezed(&std::fs::read_to_string(&lib).expect("readable root"));
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
    let mut files = Vec::new();
    for dir in QUERY_PATH {
        rust_sources(&root().join(dir), &mut files);
    }
    assert!(files.len() > QUERY_PATH.len());
    for file in files {
        let src = squeezed(&std::fs::read_to_string(&file).expect("readable source"));
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
fn every_atomic_ordering_states_its_reason_and_none_is_seqcst() {
    let mut sites = 0;
    let mut bad = Vec::new();
    for (file, src) in library_sources(&all_library_dirs()) {
        sites += src.matches("Ordering::").count();
        for (line, variant) in unjustified_orderings(&src) {
            bad.push(format!("{file}:{line}: Ordering::{variant}"));
        }
    }
    assert!(sites > 0, "the scan saw no atomic ordering");
    assert!(
        bad.is_empty(),
        "each atomic ordering needs an `// ordering:` comment on its line or directly \
         above, and SeqCst needs none of the workspace's pairwise protocols:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_ordering_check_rejects_an_untagged_ordering_and_a_tagged_seqcst() {
    let positive = "\
use std::sync::atomic::{AtomicBool, Ordering};

static FLAG: AtomicBool = AtomicBool::new(false);

pub fn untagged() -> bool {
    FLAG.load(Ordering::Relaxed)
}

pub fn tagged_seqcst() {
    // ordering: SeqCst — tagged, but SeqCst fails anyway.
    FLAG.store(true, Ordering::SeqCst);
}
";
    assert_eq!(
        unjustified_orderings(positive),
        vec![(6, "Relaxed"), (11, "SeqCst")]
    );
    let guard = "\
use std::sync::atomic::Ordering;

pub fn compare(a: u8, b: u8) -> std::cmp::Ordering {
    a.cmp(&b).then(std::cmp::Ordering::Less)
}

pub fn tagged() -> u64 {
    // ordering: Acquire — pairs with the Release store in `publish`,
    // so the slot it guards is visible.
    SEQ.load(Ordering::Acquire) + OTHER.load(Ordering::Relaxed) // ordering: Relaxed — a hint.
}
";
    assert!(unjustified_orderings(guard).is_empty());
}

#[test]
fn the_query_path_does_not_block() {
    let dirs: Vec<PathBuf> = QUERY_PATH.iter().map(PathBuf::from).collect();
    let mut bad = Vec::new();
    let mut exempt_seen = 0;
    for (file, src) in library_sources(&dirs) {
        let calls = blocking_calls(&src);
        if let Some((_, why)) = MAY_BLOCK.iter().find(|(f, _)| *f == file) {
            assert!(
                !calls.is_empty(),
                "{file} no longer blocks ({why}): drop its exemption"
            );
            exempt_seen += 1;
            continue;
        }
        for (line, ident) in calls {
            bad.push(format!("{file}:{line}: {ident}"));
        }
    }
    assert_eq!(exempt_seen, MAY_BLOCK.len(), "an exempt file is gone");
    assert!(
        bad.is_empty(),
        "the query path runs on its caller's thread and must not block, start or \
         hand work to a thread:\n{}",
        bad.join("\n")
    );
}

#[test]
fn the_blocking_check_rejects_a_pin_held_across_a_send_a_sleep_and_a_join() {
    let positive = "\
use std::sync::mpsc::Sender;

impl Shard {
    pub fn answer(&self, tx: &Sender<u64>) {
        let snap = self.current.load();
        tx.send(*snap);
    }

    pub fn drain(&self, worker: std::thread::JoinHandle<()>) {
        let guard = self.jobs.lock();
        std::thread::sleep(PAUSE);
        worker.join();
        drop(guard);
    }
}
";
    let lines: Vec<usize> = blocking_calls(positive).iter().map(|c| c.0).collect();
    assert_eq!(lines, vec![1, 1, 4, 6, 9, 11]);
    // A lock, a snapshot load, `join` on a path, and the thread-local
    // macro do not block.
    let guard = "\
thread_local! { static DEPTH: Cell<usize> = const { Cell::new(0) }; }
fn read(&self) -> PathBuf {
    let _g = self.state.lock();
    let set = self.snapshots.load();
    Path::new(\"a\").join(\"b\")
}
";
    assert!(blocking_calls(guard).is_empty());
}
