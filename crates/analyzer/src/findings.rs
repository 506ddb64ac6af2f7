//! Findings and the inline `// analyzer: allow(...)` escape hatch.
//!
//! A finding is suppressed — but still counted as allowed — by a comment
//! on the same line or on the comment line(s) directly above the flagged
//! code:
//!
//! ```text
//! // analyzer: allow(budget-coverage, reason = "trip count = ndim, not data volume")
//! for axis in 0..d { … }
//! ```
//!
//! The `reason` is **mandatory**: an allow without a non-empty reason is
//! itself a violation (`malformed-allow`), as is an allow naming an
//! unknown rule, and an allow that suppresses no finding is one too
//! (`stale-allow`): once its code is gone it would silently cover the
//! next finding to land on that line. This keeps the escape hatch
//! auditable — `grep 'analyzer: allow'` reads as a list of justified
//! exceptions, each still in use.

/// Rule identifiers, in the order they are documented.
pub const RULES: &[&str] = &[
    "atomic-ordering",
    "lock-order",
    "error-surface",
    "budget-coverage",
    "pin-across-blocking",
    "span-discipline",
    "estimate-isolation",
    "malformed-allow",
    "stale-allow",
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
    /// `Some(reason)` when an inline allow suppressed this finding.
    pub allowed: Option<String>,
}

impl Finding {
    /// Renders as `file:line:col: [rule] message`.
    pub fn display(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
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
    /// The directive's own 1-based line and column.
    pub at: (u32, u32),
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
                        allowed: None,
                    });
                    continue;
                }
                match reason {
                    Some(r) if !r.trim().is_empty() => allows.push(Allow {
                        rule,
                        reason: Some(r),
                        target_line,
                        at: (c.line, c.col),
                    }),
                    _ => malformed.push(Finding {
                        rule: "malformed-allow",
                        file: String::new(),
                        line: c.line,
                        col: c.col,
                        message: format!("allow({rule}) is missing its mandatory `reason = \"…\"`"),
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

/// Applies `file`'s allow directives to the findings in `file`: marks
/// matches as allowed, and returns one `stale-allow` finding for every
/// directive that matched none.
pub fn apply_allows(findings: &mut [Finding], file: &str, allows: &[Allow]) -> Vec<Finding> {
    let mut used = vec![false; allows.len()];
    for f in findings.iter_mut() {
        if f.file != file || f.allowed.is_some() {
            continue;
        }
        let hit = allows
            .iter()
            .position(|a| a.rule == f.rule && a.target_line == f.line);
        if let Some(i) = hit {
            f.allowed = allows[i].reason.clone();
            used[i] = true;
        }
    }
    allows
        .iter()
        .zip(used)
        .filter(|(_, used)| !used)
        .map(|(a, _)| Finding {
            rule: "stale-allow",
            file: file.to_string(),
            line: a.at.0,
            col: a.at.1,
            message: format!(
                "allow({}) suppresses no finding on line {} — delete it",
                a.rule, a.target_line
            ),
            allowed: None,
        })
        .collect()
}

/// The report: every finding, allowed ones included.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
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
        let src = "fn f() {\n  // analyzer: allow(budget-coverage, reason = \"bounded above\")\n  // more prose\n  let x = v[i];\n}\n";
        let (allows, bad) = allows_of(src);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].target_line, 4);
        assert_eq!(allows[0].reason.as_deref(), Some("bounded above"));
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let src = "let x = v[i]; // analyzer: allow(budget-coverage, reason = \"len checked\")\n";
        let (allows, bad) = allows_of(src);
        assert!(bad.is_empty());
        assert_eq!(allows[0].target_line, 1);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let (allows, bad) = allows_of("// analyzer: allow(budget-coverage)\nlet x = v[i];\n");
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "malformed-allow");
        let (allows, bad) =
            allows_of("// analyzer: allow(budget-coverage, reason = \"\")\nlet x = v[i];\n");
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
            finding("budget-coverage", "a.rs", 4),
            finding("atomic-ordering", "a.rs", 4),
        ];
        let allow = |rule: &str, target_line: u32| Allow {
            rule: rule.to_string(),
            reason: Some("ok".to_string()),
            target_line,
            at: (target_line - 1, 1),
        };
        let stale = apply_allows(&mut fs, "a.rs", &[allow("budget-coverage", 4)]);
        assert!(fs[0].allowed.is_some());
        assert!(fs[1].allowed.is_none());
        assert!(stale.is_empty());
        // Another file's allow covers nothing here.
        let stale = apply_allows(&mut fs, "b.rs", &[allow("atomic-ordering", 4)]);
        assert!(fs[1].allowed.is_none());
        assert_eq!(stale.len(), 1);
        assert_eq!((stale[0].rule, stale[0].line), ("stale-allow", 3));
    }
}
