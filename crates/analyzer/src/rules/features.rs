//! Rule `feature-gate`: gated symbols are referenced only under a
//! matching `#[cfg(feature = "…")]`.
//!
//! The workspace ships with and without `telemetry` and CI builds both
//! — but an ungated reference to a telemetry-only symbol only fails the
//! no-default leg, after the default build has gone green. This rule
//! catches the mistake at `analyze` time in every configuration:
//!
//! 1. **Same-crate**: a symbol defined under `#[cfg(feature = "F")]` —
//!    directly, or by living in a `#[cfg(feature = "F")] mod m;` file —
//!    must only be referenced from code whose effective gate set
//!    includes `F`.
//! 2. **Cross-crate**: every crate that gates telemetry treats
//!    `olap-telemetry` as an optional dependency, so any
//!    `olap_telemetry::…` path in such a crate must itself sit under a
//!    `telemetry` gate.
//!
//! Symbols whose name *also* has an ungated definition in the same crate
//! are skipped (the reference may resolve to the ungated one — the
//! compiler, not a token-level lint, owns that distinction).

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model::{FileModel, Model};
use std::collections::BTreeMap;

/// Runs the rule over the model.
pub fn check(model: &Model) -> Vec<Finding> {
    let mut out = Vec::new();
    // Group file indices by crate.
    let mut crates: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, f) in model.files.iter().enumerate() {
        crates.entry(f.crate_name.as_str()).or_default().push(fi);
    }
    for files in crates.values() {
        check_crate(model, files, &mut out);
    }
    out
}

/// File-level gates: the union of gates on every `mod m;` declaration
/// (in any file of the crate) that resolves to this file.
fn file_gates(model: &Model, crate_files: &[usize], fi: usize) -> Vec<String> {
    let rel = &model.files[fi].rel;
    let mut gates = Vec::new();
    for &other in crate_files {
        for m in &model.files[other].outline.file_mods {
            let base = match model.files[other].rel.rfind('/') {
                Some(p) => &model.files[other].rel[..p],
                None => "",
            };
            let as_file = format!("{base}/{}.rs", m.name);
            let as_dir = format!("{base}/{}/", m.name);
            if *rel == as_file || rel.starts_with(&as_dir) {
                for g in &m.gates {
                    if !gates.contains(g) {
                        gates.push(g.clone());
                    }
                }
            }
        }
    }
    gates
}

/// Top-level item names defined at brace depth 0 of a file
/// (`fn`/`struct`/`enum`/`trait`/`type`/`const`/`static` + name).
fn top_level_items(file: &FileModel) -> Vec<String> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static"
            )
        {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                out.push(name.text.clone());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn check_crate(model: &Model, crate_files: &[usize], out: &mut Vec<Finding>) {
    // --- collect gated symbol definitions --------------------------------
    // name → required gates (first definition wins; conflicts resolved by
    // the ambiguity pass below).
    let mut gated: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut per_file_gates: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for &fi in crate_files {
        per_file_gates.insert(fi, file_gates(model, crate_files, fi));
    }
    for &fi in crate_files {
        let file = &model.files[fi];
        let fg = &per_file_gates[&fi];
        for item in &file.outline.gated_items {
            let mut gates = fg.clone();
            for g in &item.gates {
                if !gates.contains(g) {
                    gates.push(g.clone());
                }
            }
            gated.entry(item.name.clone()).or_insert(gates);
        }
        if !fg.is_empty() {
            for name in top_level_items(file) {
                gated.entry(name).or_insert_with(|| fg.clone());
            }
        }
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            let mut gates = fg.clone();
            for g in &f.gates {
                if !gates.contains(g) {
                    gates.push(g.clone());
                }
            }
            if !gates.is_empty() {
                gated.entry(f.name.clone()).or_insert(gates);
            }
        }
    }
    // --- ambiguity filter ------------------------------------------------
    // Drop any symbol that also has a definition whose effective gates do
    // not cover the requirement: the name is overloaded across configs and
    // a token-level pass cannot tell which definition a reference binds to.
    let mut ambiguous: Vec<String> = Vec::new();
    for &fi in crate_files {
        let file = &model.files[fi];
        let fg = &per_file_gates[&fi];
        for f in &file.outline.fns {
            if f.in_test {
                continue;
            }
            if let Some(req) = gated.get(&f.name) {
                let mut eff = fg.clone();
                eff.extend(f.gates.iter().cloned());
                if req.iter().any(|g| !eff.contains(g)) && !ambiguous.contains(&f.name) {
                    ambiguous.push(f.name.clone());
                }
            }
        }
        if fg.is_empty() {
            for name in top_level_items(file) {
                if let Some(req) = gated.get(&name) {
                    // Defined ungated at top level of an ungated file; the
                    // definition token's own gates decide.
                    let defs_gated = file
                        .outline
                        .gated_items
                        .iter()
                        .any(|g| g.name == name && !req.iter().any(|r| !g.gates.contains(r)));
                    let fn_def = file.outline.fns.iter().any(|f| {
                        f.name == name && !f.in_test && !req.iter().any(|r| !f.gates.contains(r))
                    });
                    if !defs_gated && !fn_def && !ambiguous.contains(&name) {
                        ambiguous.push(name.clone());
                    }
                }
            }
        }
    }
    for name in &ambiguous {
        gated.remove(name);
    }
    // --- cross-crate: olap_telemetry needs a `telemetry` gate ------------
    // A crate "gates telemetry" when any of its files carries a telemetry
    // feature gate; in this workspace that is exactly the set of crates
    // declaring olap-telemetry as an optional dependency.
    let crate_gates_telemetry = crate_files.iter().any(|&fi| {
        let o = &model.files[fi].outline;
        per_file_gates[&fi].iter().any(|g| g == "telemetry")
            || o.gated_ranges
                .iter()
                .any(|r| r.gates.iter().any(|g| g == "telemetry"))
            || o.file_mods
                .iter()
                .any(|m| m.gates.iter().any(|g| g == "telemetry"))
    });
    // --- scan references -------------------------------------------------
    for &fi in crate_files {
        let file = &model.files[fi];
        let fg = &per_file_gates[&fi];
        let toks = &file.lexed.tokens;
        let mut flagged_lines: Vec<(u32, &str)> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || file.outline.in_test(i) {
                continue;
            }
            // Skip definition sites (`fn name`, `struct name`, …) and
            // `mod name;` declarations.
            if i > 0
                && matches!(
                    toks[i - 1].text.as_str(),
                    "fn" | "struct" | "enum" | "trait" | "type" | "mod"
                )
            {
                continue;
            }
            let needs_telemetry = t.text == "olap_telemetry";
            if needs_telemetry && (!crate_gates_telemetry || file.crate_name == "telemetry") {
                continue;
            }
            let telemetry_req = ["telemetry".to_string()];
            let required: &[String] = if needs_telemetry {
                &telemetry_req
            } else {
                match gated.get(&t.text) {
                    Some(req) => req.as_slice(),
                    None => continue,
                }
            };
            let mut eff = fg.clone();
            eff.extend(file.outline.gates_at(i));
            let missing: Vec<&str> = required
                .iter()
                .filter(|g| !eff.contains(g))
                .map(|g| g.as_str())
                .collect();
            if missing.is_empty() {
                continue;
            }
            // One finding per (line, symbol): a path like
            // `olap_telemetry::Telemetry` has one violation, not two.
            if flagged_lines.contains(&(t.line, t.text.as_str())) {
                continue;
            }
            flagged_lines.push((t.line, &toks[i].text));
            out.push(file.finding(
                "feature-gate",
                t.line,
                t.col,
                format!(
                    "`{}` is gated behind feature `{}` but referenced without a matching cfg",
                    t.text,
                    missing.join("`, `"),
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn ungated_reference_to_gated_fn_is_flagged() {
        let m = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "#[cfg(feature = \"parallel\")]\nfn fan_out() {}\nfn caller() { fan_out(); }\n",
        )]);
        let f = check(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("fan_out") && f[0].message.contains("parallel"));
    }

    #[test]
    fn gated_reference_is_fine() {
        let m = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "#[cfg(feature = \"parallel\")]\nfn fan_out() {}\n\
             #[cfg(feature = \"parallel\")]\nfn caller() { fan_out(); }\n\
             fn other() {\n  #[cfg(feature = \"parallel\")]\n  fan_out();\n}\n",
        )]);
        let f = check(&m);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn gated_mod_file_symbols_need_gates_at_references() {
        let m = Model::from_sources(&[
            (
                "crates/engine/src/lib.rs",
                "#[cfg(feature = \"telemetry\")]\nmod spans;\nfn f() { span_guard(); }\n",
            ),
            ("crates/engine/src/spans.rs", "pub fn span_guard() {}\n"),
        ]);
        let f = check(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("span_guard"));
    }

    #[test]
    fn olap_telemetry_paths_need_telemetry_gates() {
        let m = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "#[cfg(feature = \"telemetry\")]\nfn gated() { olap_telemetry::current(); }\n\
             fn ungated() { olap_telemetry::current(); }\n",
        )]);
        let f = check(&m);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("olap_telemetry"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn crates_that_never_gate_telemetry_are_exempt() {
        // A crate with a hard (non-optional) telemetry dependency has no
        // telemetry gates anywhere; its bare references are legitimate.
        let m = Model::from_sources(&[(
            "crates/cli/src/a.rs",
            "fn f() { olap_telemetry::current(); }\n",
        )]);
        assert!(check(&m).is_empty());
    }

    #[test]
    fn ambiguous_names_are_skipped() {
        // `run` has both a gated and an ungated definition: references
        // cannot be attributed, so the rule stays quiet.
        let m = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "#[cfg(feature = \"parallel\")]\nfn run() {}\n#[cfg(not(feature = \"parallel\"))]\nfn run() {}\nfn caller() { run(); }\n",
        )]);
        assert!(check(&m).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let m = Model::from_sources(&[(
            "crates/engine/src/a.rs",
            "#[cfg(feature = \"telemetry\")]\nfn gated() {}\n\
             #[cfg(test)]\nmod tests {\n  fn t() { gated(); olap_telemetry::current(); }\n}\n",
        )]);
        assert!(check(&m).is_empty());
    }
}
