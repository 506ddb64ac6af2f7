//! Findings, the inline `// analyzer: allow(...)` escape hatch, and the
//! checked-in baseline.
//!
//! ## Allow directives
//!
//! A finding is suppressed — but still reported as `allowed` in the JSON
//! output — by a comment on the same line or on the comment line(s)
//! directly above the flagged code:
//!
//! ```text
//! // analyzer: allow(panic-site, reason = "index proven in-bounds by check_index above")
//! let v = cells[off];
//! ```
//!
//! The `reason` is **mandatory**: an allow without a non-empty reason is
//! itself a violation (`malformed-allow`), as is an allow naming an
//! unknown rule. This keeps the escape hatch auditable — `grep
//! 'analyzer: allow'` reads as a list of justified exceptions.
//!
//! ## Baseline
//!
//! The baseline (`crates/analyzer/baseline.json`) records pre-existing
//! findings as `(rule, file, context-line)` entries with counts, where
//! the context is the trimmed source line. Keying on line *text* rather
//! than line *numbers* keeps the baseline stable across unrelated edits
//! to the same file. A fresh scan fails only when a `(rule, file,
//! context)` key is new or its count grew.

use crate::json::Value;
use std::collections::BTreeMap;

/// Rule identifiers, in the order they are documented.
pub const RULES: &[&str] = &[
    "panic-site",
    "atomic-ordering",
    "lock-order",
    "error-surface",
    "budget-coverage",
    "pin-across-blocking",
    "span-discipline",
    "estimate-isolation",
    "malformed-allow",
];

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// The trimmed source line (the baseline key).
    pub context: String,
    /// `Some(reason)` when an inline allow suppressed this finding.
    pub allowed: Option<String>,
}

impl Finding {
    /// The `rule|file|context` baseline key.
    pub fn key(&self) -> (String, String, String) {
        (
            self.rule.to_string(),
            self.file.clone(),
            self.context.clone(),
        )
    }

    /// Renders as `file:line:col: [rule] message`.
    pub fn display(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    fn to_json(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("rule".into(), Value::Str(self.rule.to_string()));
        m.insert("file".into(), Value::Str(self.file.clone()));
        m.insert("line".into(), Value::Num(self.line as f64));
        m.insert("col".into(), Value::Num(self.col as f64));
        m.insert("message".into(), Value::Str(self.message.clone()));
        m.insert("context".into(), Value::Str(self.context.clone()));
        m.insert(
            "allowed".into(),
            match &self.allowed {
                Some(r) => Value::Str(r.clone()),
                None => Value::Null,
            },
        );
        Value::Obj(m)
    }
}

/// One parsed `// analyzer: allow(rule, reason = "…")` directive.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory reason, if present and non-empty.
    pub reason: Option<String>,
    /// The line the directive *applies to* (the code line).
    pub target_line: u32,
    /// The line the directive is written on.
    pub directive_line: u32,
}

/// Parses allow directives out of a file's comments. `code_lines` maps a
/// 1-based line number to whether any significant token starts there —
/// used to resolve which code line a comment-only directive targets.
pub fn parse_allows(
    comments: &[crate::lexer::Comment],
    lines: &[String],
    code_lines: &[bool],
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("analyzer:") else {
            continue;
        };
        let rest = c.text[at + "analyzer:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            continue;
        };
        let args = args.trim_start();
        let parsed = parse_allow_args(args);
        let line_idx = (c.line as usize).saturating_sub(1);
        let own_line_text = lines.get(line_idx).map(String::as_str).unwrap_or("");
        let comment_only = own_line_text.trim_start().starts_with("//")
            || own_line_text.trim_start().starts_with("/*");
        let target_line = if comment_only {
            // Applies to the next line holding code (skipping further
            // comment-only and blank lines).
            let mut l = c.line as usize; // 0-based index of the next line
            loop {
                if l >= code_lines.len() {
                    break c.line; // nothing follows; degrade to own line
                }
                if code_lines[l] {
                    break (l + 1) as u32;
                }
                l += 1;
            }
        } else {
            c.line
        };
        match parsed {
            Ok((rule, reason)) => {
                if !RULES.contains(&rule.as_str()) {
                    malformed.push(Finding {
                        rule: "malformed-allow",
                        file: String::new(),
                        line: c.line,
                        col: c.col,
                        message: format!("allow names unknown rule `{rule}`"),
                        context: own_line_text.trim().to_string(),
                        allowed: None,
                    });
                    continue;
                }
                match reason {
                    Some(r) if !r.trim().is_empty() => allows.push(Allow {
                        rule,
                        reason: Some(r),
                        target_line,
                        directive_line: c.line,
                    }),
                    _ => malformed.push(Finding {
                        rule: "malformed-allow",
                        file: String::new(),
                        line: c.line,
                        col: c.col,
                        message: format!("allow({rule}) is missing its mandatory `reason = \"…\"`"),
                        context: own_line_text.trim().to_string(),
                        allowed: None,
                    }),
                }
            }
            Err(msg) => malformed.push(Finding {
                rule: "malformed-allow",
                file: String::new(),
                line: c.line,
                col: c.col,
                message: msg,
                context: own_line_text.trim().to_string(),
                allowed: None,
            }),
        }
    }
    (allows, malformed)
}

/// Parses `(rule, reason = "…")` → `(rule, Some(reason))`.
fn parse_allow_args(args: &str) -> Result<(String, Option<String>), String> {
    let args = args.trim_start();
    let Some(inner) = args.strip_prefix('(') else {
        return Err("allow directive is missing its `(rule, reason = \"…\")`".to_string());
    };
    let Some(close) = inner.find(')') else {
        return Err("allow directive is missing the closing `)`".to_string());
    };
    let inner = &inner[..close];
    let mut parts = inner.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    if rule.is_empty() {
        return Err("allow directive names no rule".to_string());
    }
    let reason = match parts.next() {
        None => None,
        Some(rest) => {
            let rest = rest.trim();
            let Some(eq) = rest.strip_prefix("reason") else {
                return Err(format!("expected `reason = \"…\"`, got `{rest}`"));
            };
            let eq = eq.trim_start();
            let Some(q) = eq.strip_prefix('=') else {
                return Err("`reason` is missing its `=`".to_string());
            };
            let q = q.trim_start();
            let q = q.strip_prefix('"').unwrap_or(q);
            let q = q.strip_suffix('"').unwrap_or(q);
            Some(q.to_string())
        }
    };
    Ok((rule, reason))
}

/// Applies allow directives to raw findings: marks matches as allowed.
pub fn apply_allows(findings: &mut [Finding], allows: &[Allow]) {
    for f in findings.iter_mut() {
        if f.allowed.is_some() {
            continue;
        }
        for a in allows {
            if a.rule == f.rule && a.target_line == f.line {
                f.allowed = a.reason.clone();
                break;
            }
        }
    }
}

/// The report: every finding plus the baseline verdict.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding (allowed ones included).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not suppressed by an inline allow.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    /// Groups active findings into baseline-entry counts.
    pub fn baseline_counts(&self) -> BTreeMap<(String, String, String), u64> {
        let mut m = BTreeMap::new();
        for f in self.active() {
            *m.entry(f.key()).or_insert(0) += 1;
        }
        m
    }

    /// Renders the baseline JSON for the current findings.
    pub fn render_baseline(&self) -> String {
        let entries: Vec<Value> = self
            .baseline_counts()
            .into_iter()
            .map(|((rule, file, context), count)| {
                let mut m = BTreeMap::new();
                m.insert("rule".into(), Value::Str(rule));
                m.insert("file".into(), Value::Str(file));
                m.insert("context".into(), Value::Str(context));
                m.insert("count".into(), Value::Num(count as f64));
                Value::Obj(m)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Num(1.0));
        root.insert("entries".into(), Value::Arr(entries));
        Value::Obj(root).render()
    }

    /// Findings that are **new** relative to `baseline` (absent key, or a
    /// key whose count grew — the surplus findings are reported).
    pub fn new_vs_baseline(&self, baseline: &Baseline) -> Vec<&Finding> {
        let mut seen: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        let mut out = Vec::new();
        for f in self.active() {
            let k = f.key();
            let n = seen.entry(k.clone()).or_insert(0);
            *n += 1;
            if *n > baseline.count(&k) {
                out.push(f);
            }
        }
        out
    }

    /// Renders the full JSON report.
    pub fn render_json(&self, new_count: usize) -> String {
        let findings: Vec<Value> = self.findings.iter().map(Finding::to_json).collect();
        let mut summary = BTreeMap::new();
        summary.insert("total".into(), Value::Num(self.findings.len() as f64));
        summary.insert(
            "allowed".into(),
            Value::Num(self.findings.iter().filter(|f| f.allowed.is_some()).count() as f64),
        );
        summary.insert("active".into(), Value::Num(self.active().count() as f64));
        summary.insert("new".into(), Value::Num(new_count as f64));
        let mut root = BTreeMap::new();
        root.insert("findings".into(), Value::Arr(findings));
        root.insert("summary".into(), Value::Obj(summary));
        Value::Obj(root).render()
    }

    /// Renders a SARIF 2.1.0 log of the report.
    ///
    /// Every finding becomes a `result`. Findings silenced inline carry
    /// an `inSource` suppression with the allow reason; findings covered
    /// by the baseline carry an `external` suppression; only the
    /// findings in `new_findings` are unsuppressed — so SARIF viewers
    /// and code-scanning uploads surface exactly what `check` fails on.
    pub fn render_sarif(&self, new_findings: &[Finding]) -> String {
        let mut new_keys: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for f in new_findings {
            *new_keys.entry(f.key()).or_insert(0) += 1;
        }
        let rules: Vec<Value> = RULES
            .iter()
            .map(|r| {
                let mut m = BTreeMap::new();
                m.insert("id".into(), Value::Str((*r).into()));
                Value::Obj(m)
            })
            .collect();
        let mut driver = BTreeMap::new();
        driver.insert("name".into(), Value::Str("olap-analyzer".into()));
        driver.insert(
            "informationUri".into(),
            Value::Str("https://github.com/olap-cubes/olap-cubes".into()),
        );
        driver.insert("rules".into(), Value::Arr(rules));
        let mut tool = BTreeMap::new();
        tool.insert("driver".into(), Value::Obj(driver));

        let results: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                let mut artifact = BTreeMap::new();
                artifact.insert("uri".into(), Value::Str(f.file.clone()));
                let mut region = BTreeMap::new();
                region.insert("startLine".into(), Value::Num(f.line as f64));
                region.insert("startColumn".into(), Value::Num(f.col as f64));
                let mut physical = BTreeMap::new();
                physical.insert("artifactLocation".into(), Value::Obj(artifact));
                physical.insert("region".into(), Value::Obj(region));
                let mut location = BTreeMap::new();
                location.insert("physicalLocation".into(), Value::Obj(physical));
                let mut message = BTreeMap::new();
                message.insert("text".into(), Value::Str(f.message.clone()));
                let mut result = BTreeMap::new();
                result.insert("ruleId".into(), Value::Str(f.rule.into()));
                result.insert("level".into(), Value::Str("warning".into()));
                result.insert("message".into(), Value::Obj(message));
                result.insert("locations".into(), Value::Arr(vec![Value::Obj(location)]));
                let suppression = if let Some(reason) = &f.allowed {
                    let mut s = BTreeMap::new();
                    s.insert("kind".into(), Value::Str("inSource".into()));
                    s.insert("justification".into(), Value::Str(reason.clone()));
                    Some(Value::Obj(s))
                } else {
                    // Unsuppressed iff this occurrence is beyond the
                    // baseline's count for its key.
                    let remaining = new_keys.entry(f.key()).or_insert(0);
                    if *remaining > 0 {
                        *remaining -= 1;
                        None
                    } else {
                        let mut s = BTreeMap::new();
                        s.insert("kind".into(), Value::Str("external".into()));
                        s.insert(
                            "justification".into(),
                            Value::Str("covered by crates/analyzer/baseline.json".into()),
                        );
                        Some(Value::Obj(s))
                    }
                };
                if let Some(s) = suppression {
                    result.insert("suppressions".into(), Value::Arr(vec![s]));
                }
                Value::Obj(result)
            })
            .collect();

        let mut run = BTreeMap::new();
        run.insert("tool".into(), Value::Obj(tool));
        run.insert("results".into(), Value::Arr(results));
        let mut root = BTreeMap::new();
        root.insert(
            "$schema".into(),
            Value::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        );
        root.insert("version".into(), Value::Str("2.1.0".into()));
        root.insert("runs".into(), Value::Arr(vec![Value::Obj(run)]));
        Value::Obj(root).render()
    }
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: BTreeMap<(String, String, String), u64>,
}

impl Baseline {
    /// Parses the baseline JSON.
    ///
    /// # Errors
    /// A message describing the malformed content.
    pub fn parse(src: &str) -> Result<Self, String> {
        let v = crate::json::parse(src)?;
        let entries = v
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("baseline has no `entries` array")?;
        let mut counts = BTreeMap::new();
        for e in entries {
            let rule = e
                .get("rule")
                .and_then(Value::as_str)
                .ok_or("entry missing rule")?;
            let file = e
                .get("file")
                .and_then(Value::as_str)
                .ok_or("entry missing file")?;
            let context = e
                .get("context")
                .and_then(Value::as_str)
                .ok_or("entry missing context")?;
            let count = e.get("count").and_then(Value::as_u64).unwrap_or(1);
            counts.insert(
                (rule.to_string(), file.to_string(), context.to_string()),
                count,
            );
        }
        Ok(Baseline { counts })
    }

    /// The baselined count for `key` (0 when absent).
    pub fn count(&self, key: &(String, String, String)) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Number of baselined entries.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the baseline is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Keys present in the baseline but absent from `report` — stale
    /// entries that should be cleaned up with `--write-baseline`.
    pub fn stale_keys(&self, report: &Report) -> Vec<(String, String, String)> {
        let current = report.baseline_counts();
        self.counts
            .keys()
            .filter(|k| !current.contains_key(*k))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(rule: &'static str, file: &str, line: u32, context: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
            context: context.to_string(),
            allowed: None,
        }
    }

    fn allows_of(src: &str) -> (Vec<Allow>, Vec<Finding>) {
        let lx = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let mut code_lines = vec![false; lines.len() + 2];
        for t in &lx.tokens {
            if let Some(slot) = code_lines.get_mut((t.line as usize).saturating_sub(1)) {
                *slot = true;
            }
        }
        parse_allows(&lx.comments, &lines, &code_lines)
    }

    #[test]
    fn allow_on_preceding_line_targets_next_code_line() {
        let src = "fn f() {\n  // analyzer: allow(panic-site, reason = \"bounded above\")\n  // more prose\n  let x = v[i];\n}\n";
        let (allows, bad) = allows_of(src);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].target_line, 4);
        assert_eq!(allows[0].reason.as_deref(), Some("bounded above"));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = v[i]; // analyzer: allow(panic-site, reason = \"len checked\")\n";
        let (allows, bad) = allows_of(src);
        assert!(bad.is_empty());
        assert_eq!(allows[0].target_line, 1);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let (allows, bad) = allows_of("// analyzer: allow(panic-site)\nlet x = v[i];\n");
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "malformed-allow");
        let (allows, bad) =
            allows_of("// analyzer: allow(panic-site, reason = \"\")\nlet x = v[i];\n");
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn allow_of_unknown_rule_is_malformed() {
        let (_, bad) = allows_of("// analyzer: allow(no-such-rule, reason = \"x\")\nfn f() {}\n");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("unknown rule"));
    }

    #[test]
    fn apply_allows_matches_rule_and_line() {
        let mut fs = vec![
            finding("panic-site", "a.rs", 4, "let x = v[i];"),
            finding("atomic-ordering", "a.rs", 4, "let x = v[i];"),
        ];
        let allows = vec![Allow {
            rule: "panic-site".to_string(),
            reason: Some("ok".to_string()),
            target_line: 4,
            directive_line: 3,
        }];
        apply_allows(&mut fs, &allows);
        assert!(fs[0].allowed.is_some());
        assert!(fs[1].allowed.is_none());
    }

    #[test]
    fn baseline_roundtrip_and_new_detection() {
        let mut report = Report::default();
        report
            .findings
            .push(finding("panic-site", "a.rs", 1, "v[i]"));
        report
            .findings
            .push(finding("panic-site", "a.rs", 9, "v[i]"));
        report
            .findings
            .push(finding("lock-order", "b.rs", 2, "a.lock()"));
        let baseline = Baseline::parse(&report.render_baseline()).unwrap();
        assert_eq!(baseline.len(), 2);
        // Same findings ⇒ nothing new.
        assert!(report.new_vs_baseline(&baseline).is_empty());
        // One more of an existing key ⇒ exactly the surplus is new.
        report
            .findings
            .push(finding("panic-site", "a.rs", 20, "v[i]"));
        let new = report.new_vs_baseline(&baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 20);
        // A brand-new key ⇒ new.
        report.findings.pop();
        report
            .findings
            .push(finding("error-surface", "c.rs", 3, "pub fn x"));
        let new = report.new_vs_baseline(&baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].rule, "error-surface");
    }

    #[test]
    fn stale_baseline_keys_are_reported() {
        let mut report = Report::default();
        report
            .findings
            .push(finding("panic-site", "a.rs", 1, "v[i]"));
        let baseline = Baseline::parse(&report.render_baseline()).unwrap();
        report.findings.clear();
        let stale = baseline.stale_keys(&report);
        assert_eq!(stale.len(), 1);
    }
}
