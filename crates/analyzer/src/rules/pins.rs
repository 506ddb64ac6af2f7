//! Rule `pin-across-blocking`: snapshot pins must not span blocking ops.
//!
//! PR 6's no-tear guarantee hinges on read-pins being *short*:
//! `VersionCell::load` hands out an epoch-pinned snapshot, and an
//! `install` of the next engine version waits for every outstanding pin
//! to retire. The same goes for the plain `Mutex`/`RwLock` guards the
//! serving layer holds around shared maps. A guard that stays live
//! across a channel `send`/`recv`, a `join`, or a `sleep` couples the
//! pin's lifetime to another thread's progress — exactly the shape that
//! turns "installs wait briefly" into "installs wait for the slowest
//! queue", and a reader + writer pair into a deadlock.
//!
//! The pass takes lock identities from the outline (the same vocabulary
//! the lock-order rule uses), finds `let g = ident.lock()/.read()/
//! .write()/.load()` bindings via [`crate::cfg::guard_bindings`], and
//! scans each guard's live span — end of the binding statement to end of
//! the enclosing block, truncated at `drop(g)` — for a call to one of
//! the blocking names. Dropping the guard before the blocking call (or
//! restructuring so the copy-out happens under the guard and the send
//! after) fixes the finding; a deliberate hand-off can carry an
//! `// analyzer: allow(pin-across-blocking, reason = "…")`.

use crate::cfg;
use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model::Model;
use crate::outline::LockKind;
use std::collections::{BTreeMap, BTreeSet};

/// Calls that park the current thread (or couple it to another thread's
/// progress). Queue pushes on the std mpsc flavors are `send`; bounded
/// variants and join handles cover the rest. Deliberately short — a
/// miss is a silent gap, a false positive is noise in every PR.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "join",
    "sleep",
    "wait",
    "wait_timeout",
    "park",
];

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    // Pinnable identities: Mutex/RwLock fields (guard methods
    // lock/read/write) and VersionCell fields (load = read-pin).
    let mut kinds: BTreeMap<String, BTreeSet<LockKind>> = BTreeMap::new();
    for file in &model.files {
        for l in &file.outline.lock_fields {
            if !l.in_test && matches!(l.kind, LockKind::Sync | LockKind::Cell) {
                kinds.entry(l.field.clone()).or_default().insert(l.kind);
            }
        }
    }
    if kinds.is_empty() {
        return Vec::new();
    }
    let is_guard_acq = |recv: &str, method: &str| -> bool {
        kinds.get(recv).is_some_and(|ks| {
            (ks.contains(&LockKind::Sync) && matches!(method, "lock" | "read" | "write"))
                || (ks.contains(&LockKind::Cell) && method == "load")
        })
    };

    let mut findings = Vec::new();
    for file in &model.files {
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            let Some((a, b)) = f.body else { continue };
            let toks = &file.lexed.tokens;
            for g in cfg::guard_bindings(toks, a, b, &is_guard_acq) {
                let (la, lb) = g.live;
                for i in la..=lb.min(toks.len().saturating_sub(1)) {
                    let t = &toks[i];
                    if t.kind == TokKind::Ident
                        && BLOCKING.contains(&t.text.as_str())
                        && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    {
                        let what = if g.method == "load" {
                            "snapshot read-pin"
                        } else {
                            "lock guard"
                        };
                        findings.push(file.finding(
                            "pin-across-blocking",
                            t.line,
                            t.col,
                            format!(
                                "`{}()` called while `{}` (a {} from `{}.{}()`, bound at \
                                 line {}) is live in `{}` — a pin held across a blocking \
                                 call stalls snapshot installs; drop the guard first",
                                t.text, g.name, what, g.recv, g.method, g.line, f.name,
                            ),
                        ));
                        break; // one finding per guard is enough
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn run(src: &str) -> Vec<Finding> {
        let model = Model::from_sources(&[("crates/server/src/fx.rs", src)]);
        check(&model)
    }

    const DECLS: &str = "pub struct S {\n  current: VersionCell<u32>,\n  inner: Mutex<u32>,\n}\n";

    #[test]
    fn pin_held_across_send_is_flagged() {
        let f = run(&format!(
            "{DECLS}impl S {{\n  fn bad(&self, tx: &Sender<u32>) {{\n    \
             let snap = self.current.load();\n    tx.send(*snap).unwrap();\n  }}\n}}\n"
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("snapshot read-pin"));
        assert!(f[0].message.contains("send"));
    }

    #[test]
    fn lock_guard_across_join_is_flagged() {
        let f = run(&format!(
            "{DECLS}impl S {{\n  fn bad(&self, h: JoinHandle<()>) {{\n    \
             let g = self.inner.lock().unwrap();\n    h.join().unwrap();\n    use_(g);\n  }}\n}}\n"
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock guard"));
    }

    #[test]
    fn dropping_the_guard_first_is_clean() {
        let f = run(&format!(
            "{DECLS}impl S {{\n  fn good(&self, tx: &Sender<u32>) {{\n    \
             let snap = self.current.load();\n    let v = *snap;\n    drop(snap);\n    \
             tx.send(v).unwrap();\n  }}\n}}\n"
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn blocking_before_the_pin_or_unrelated_receivers_are_clean() {
        let f = run(&format!(
            "{DECLS}impl S {{\n  fn good(&self, tx: &Sender<u32>) {{\n    \
             tx.send(1).unwrap();\n    let snap = self.current.load();\n    use_(*snap);\n  }}\n  \
             fn also_good(&self) {{\n    let x = other.load();\n    h.join();\n  }}\n}}\n"
        ));
        assert!(f.is_empty(), "{f:?}");
    }
}
