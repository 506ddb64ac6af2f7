//! A structural outline of one lexed file: functions with body extents,
//! test-ness, impl context, and lock-typed fields.
//!
//! This is *not* a parser. It is a single forward pass over the token
//! stream with a scope stack and brace matching — exactly enough
//! structure for the rules to ask "which function am I in", "is this
//! code test-only", and "which struct fields are `Mutex`/`RwLock`".
//! Constructs the pass does not model (macros defining functions, items
//! generated by `include!`) simply don't produce outline entries; the
//! rules degrade to not flagging them, never to false positives.

use crate::lexer::{Lexed, TokKind, Token};

/// One `fn` item (or trait method with a body).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// Whether the declaration is `pub` (any visibility restriction such
    /// as `pub(crate)` counts as pub here; rules narrow further).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[fn_kw, body_open)` of the signature.
    pub sig: (usize, usize),
    /// Token range `[open_brace, close_brace]` of the body, if any.
    pub body: Option<(usize, usize)>,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Text of the enclosing `impl …` / `trait …` header, if any.
    pub impl_header: Option<String>,
    /// Whether the return type mentions `Result`.
    pub returns_result: bool,
    /// Whether the return type mentions `Option`.
    pub returns_option: bool,
}

/// What kind of synchronisation primitive a [`LockField`] declares —
/// the lock-order rule picks its acquisition vocabulary from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    /// A plain `Mutex<…>` or `RwLock<…>`: acquired via
    /// `.lock(` / `.read(` / `.write(`.
    Sync,
    /// A `VersionCell<…>` snapshot slot: `.load(` / `.update(` /
    /// `.install(` / `.swap_in(` each enter the cell's internal
    /// `writer`/`current` locks, so calls through the cell participate
    /// in the acquisition graph under the cell's own identity.
    Cell,
    /// A `SemanticCache<…>` front: `.range_sum(` / `.read(` /
    /// `.apply_updates(` / `.clear(` / `.stats(` / `.len(` each enter the
    /// cache's internal
    /// `update_lock`/`inner` mutexes, so calls through the cache
    /// participate under the cache's own identity.
    Cache,
    /// A `TraceSink` handle: `.record(` / `.finish_root(` and the
    /// read-side assembly calls (`.records(` / `.trace_tree(` /
    /// `.slow_traces(` / `.to_chrome_json(` …) each enter the sink's
    /// internal `store` mutex, so calls through the sink participate in
    /// the acquisition graph under the sink's own identity.
    Sink,
}

/// A struct field or `static` whose type is `Mutex<…>`, `RwLock<…>`,
/// `VersionCell<…>`, `SemanticCache<…>`, or `TraceSink`.
#[derive(Debug, Clone)]
pub struct LockField {
    /// The struct name, or `"static"` for a static item.
    pub holder: String,
    /// Field (or static) name — the identity used by the lock-order rule.
    pub field: String,
    /// Which acquisition vocabulary applies to this identity.
    pub kind: LockKind,
    /// 1-based declaration line.
    pub line: u32,
    /// Declared inside test-only code.
    pub in_test: bool,
}

/// Any struct field (or `static`), with the capitalized identifiers its
/// declared type mentions — enough for the call graph to guess receiver
/// types (`self.meter.charge()` → the impls of `Meter`) and for the
/// span-discipline rule to know which fields carry trace state.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// The struct name, or `"static"` for a static item.
    pub holder: String,
    /// Field (or static) name.
    pub field: String,
    /// Capitalized identifiers in the declared type, in source order
    /// (`Option<Arc<Meter>>` → `["Option", "Arc", "Meter"]`).
    pub type_idents: Vec<String>,
    /// 1-based declaration line.
    pub line: u32,
    /// Declared inside test-only code.
    pub in_test: bool,
}

/// Everything the outline pass extracts from one file.
#[derive(Debug, Default)]
pub struct Outline {
    /// All functions, in source order.
    pub fns: Vec<FnInfo>,
    /// All `Mutex`/`RwLock`/`VersionCell` fields and statics.
    pub lock_fields: Vec<LockField>,
    /// Every struct field and typed static, with its type's capitalized
    /// identifiers (for receiver-type heuristics).
    pub fields: Vec<FieldInfo>,
    /// Token ranges of `use` items (skipped by several rules).
    pub use_ranges: Vec<(usize, usize)>,
    /// Token ranges of test-only code (`#[cfg(test)]` modules, `#[test]`
    /// functions).
    pub test_ranges: Vec<(usize, usize)>,
}

impl Outline {
    /// Whether token index `i` lies in test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }

    /// Whether token index `i` lies inside a `use` item.
    pub fn in_use(&self, i: usize) -> bool {
        self.use_ranges.iter().any(|&(a, b)| a <= i && i <= b)
    }
}

/// Pending attribute state accumulated before the next item.
#[derive(Debug, Default, Clone)]
struct Pending {
    is_test: bool,
    is_pub: bool,
}

#[derive(Debug)]
enum ScopeKind {
    Mod,
    Impl { header: String },
    Fn { fn_id: usize },
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    open_depth: usize,
    open_tok: usize,
    is_test: bool,
}

/// Item keywords that start a construct the outline models explicitly.
fn is_item_keyword(t: &Token) -> bool {
    matches!(
        t.text.as_str(),
        "fn" | "mod" | "struct" | "enum" | "impl" | "trait" | "use" | "static" | "const" | "type"
    ) && t.kind == TokKind::Ident
}

/// Builds the outline for one lexed file.
pub fn outline(lx: &Lexed) -> Outline {
    let toks = &lx.tokens;
    let mut out = Outline::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth = 0usize;
    let mut pending = Pending::default();
    let mut i = 0usize;

    let inherited_test = |scopes: &[Scope]| scopes.iter().any(|s| s.is_test);

    while i < toks.len() {
        let t = &toks[i];
        // ---- attributes -------------------------------------------------
        if t.is_punct("#") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct("!") {
                j += 1; // inner attribute `#![…]` — applies to the file; skip
            }
            if j < toks.len() && toks[j].is_punct("[") {
                let end = match_bracket(toks, j);
                // Inner attributes (`#![…]`) never mark following items.
                if !toks[i + 1].is_punct("!") {
                    pending.is_test |= is_test_attr(&toks[j..=end.min(toks.len() - 1)]);
                }
                i = end + 1;
                continue;
            }
        }
        // ---- visibility -------------------------------------------------
        if t.is_ident("pub") {
            pending.is_pub = true;
            if i + 1 < toks.len() && toks[i + 1].is_punct("(") {
                i = match_paren(toks, i + 1) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        // ---- items ------------------------------------------------------
        if t.is_ident("use") {
            pending = Pending::default();
            let end = scan_to_semi(toks, i);
            out.use_ranges.push((i, end));
            i = end + 1;
            continue;
        }
        if t.is_ident("fn") {
            let p = std::mem::take(&mut pending);
            let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
            // Signature: forward to the first `{` or `;` at bracket depth 0.
            let mut j = i + 1;
            let mut pd = 0i32;
            let mut body_open = None;
            while j < toks.len() {
                let tj = &toks[j];
                if tj.is_punct("(") || tj.is_punct("[") {
                    pd += 1;
                } else if tj.is_punct(")") || tj.is_punct("]") {
                    pd -= 1;
                } else if pd == 0 && tj.is_punct("{") {
                    body_open = Some(j);
                    break;
                } else if pd == 0 && tj.is_punct(";") {
                    break;
                }
                j += 1;
            }
            let sig_end = body_open.unwrap_or(j);
            let (mut returns_result, mut returns_option) = (false, false);
            let mut k = i;
            while k < sig_end {
                if toks[k].is_punct("->") {
                    for r in &toks[k..sig_end] {
                        if r.is_ident("Result") {
                            returns_result = true;
                        }
                        if r.is_ident("Option") {
                            returns_option = true;
                        }
                    }
                    break;
                }
                k += 1;
            }
            let in_test = inherited_test(&scopes) || p.is_test;
            let impl_header = scopes.iter().rev().find_map(|s| match &s.kind {
                ScopeKind::Impl { header, .. } => Some(header.clone()),
                _ => None,
            });
            let fn_id = out.fns.len();
            out.fns.push(FnInfo {
                name,
                is_pub: p.is_pub,
                line: t.line,
                sig: (i, sig_end),
                body: None,
                in_test,
                impl_header,
                returns_result,
                returns_option,
            });
            match body_open {
                Some(b) => {
                    scopes.push(Scope {
                        kind: ScopeKind::Fn { fn_id },
                        open_depth: depth,
                        open_tok: b,
                        is_test: p.is_test,
                    });
                    depth += 1;
                    i = b + 1;
                }
                None => {
                    i = j + 1; // trait method declaration without a body
                }
            }
            continue;
        }
        if t.is_ident("mod") {
            let p = std::mem::take(&mut pending);
            match toks.get(i + 2) {
                // `mod name;` — a file module, outlined as its own file.
                Some(t2) if t2.is_punct(";") => i += 3,
                Some(t2) if t2.is_punct("{") => {
                    scopes.push(Scope {
                        kind: ScopeKind::Mod,
                        open_depth: depth,
                        open_tok: i + 2,
                        is_test: p.is_test,
                    });
                    depth += 1;
                    i += 3;
                }
                _ => i += 1,
            }
            continue;
        }
        if t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union") {
            let is_struct = t.is_ident("struct");
            let p = std::mem::take(&mut pending);
            let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
            // Scan to the body `{`, a `(` (tuple struct), or `;`.
            let mut j = i + 1;
            let mut angle = 0i32;
            while j < toks.len() {
                let tj = &toks[j];
                if tj.is_punct("<") {
                    angle += 1;
                } else if tj.is_punct(">") {
                    angle -= 1;
                } else if tj.is_punct(">>") {
                    // The lexer emits `>>` as one shift token; in a type
                    // position it closes two angle brackets.
                    angle -= 2;
                } else if angle <= 0 && tj.is_punct("{") {
                    let end = match_brace(toks, j);
                    if is_struct {
                        collect_fields(
                            toks,
                            j,
                            end,
                            &name,
                            inherited_test(&scopes) || p.is_test,
                            &mut out,
                        );
                    }
                    j = end;
                    break;
                } else if angle <= 0 && tj.is_punct("(") {
                    j = match_paren(toks, j);
                } else if angle <= 0 && tj.is_punct(";") {
                    break;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("static") || t.is_ident("const") {
            let p = std::mem::take(&mut pending);
            // `const fn` / `const` generics positions are handled by the
            // `fn` branch (const precedes fn); only look at `NAME : TYPE`.
            if toks.get(i + 1).is_some_and(|t| t.is_ident("fn")) {
                pending = p; // let the fn branch consume visibility/test-ness
                i += 1;
                continue;
            }
            let name = toks.get(i + 1).map(|t| t.text.clone()).unwrap_or_default();
            if toks.get(i + 2).is_some_and(|t| t.is_punct(":")) {
                let mut j = i + 3;
                let mut ty = Vec::new();
                while j < toks.len() && !toks[j].is_punct("=") && !toks[j].is_punct(";") {
                    ty.push(toks[j].text.clone());
                    j += 1;
                }
                let type_idents: Vec<String> = ty
                    .iter()
                    .filter(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                    .cloned()
                    .collect();
                if !type_idents.is_empty() {
                    out.fields.push(FieldInfo {
                        holder: "static".to_string(),
                        field: name.clone(),
                        type_idents,
                        line: t.line,
                        in_test: inherited_test(&scopes) || p.is_test,
                    });
                }
                let kind = if ty.iter().any(|s| s == "Mutex" || s == "RwLock") {
                    Some(LockKind::Sync)
                } else if ty.iter().any(|s| s == "VersionCell") {
                    Some(LockKind::Cell)
                } else if ty.iter().any(|s| s == "SemanticCache") {
                    Some(LockKind::Cache)
                } else if ty.iter().any(|s| s == "TraceSink") {
                    Some(LockKind::Sink)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    out.lock_fields.push(LockField {
                        holder: "static".to_string(),
                        field: name,
                        kind,
                        line: t.line,
                        in_test: inherited_test(&scopes) || p.is_test,
                    });
                }
                i = j;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("type") {
            pending = Pending::default();
            i = scan_to_semi(toks, i) + 1;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            let p = std::mem::take(&mut pending);
            let kw = t.text.clone();
            let mut j = i + 1;
            let mut header = kw.clone();
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                header.push(' ');
                header.push_str(&toks[j].text);
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                scopes.push(Scope {
                    kind: ScopeKind::Impl { header },
                    open_depth: depth,
                    open_tok: j,
                    is_test: p.is_test,
                });
                depth += 1;
            }
            i = j + 1;
            continue;
        }
        // ---- statement-level `#[cfg(test)]` -----------------------------
        if pending.is_test && !is_item_keyword(t) && !t.is_punct("#") {
            // A test attribute not followed by a modeled item covers the
            // next statement (e.g. `#[cfg(test)] if let …`). Falls through
            // so the token itself still gets brace handling.
            out.test_ranges.push((i, scan_statement(toks, i)));
            pending = Pending::default();
        }
        // ---- braces -----------------------------------------------------
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            pending = Pending::default();
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while let Some(top) = scopes.last() {
                if top.open_depth == depth {
                    let top = match scopes.pop() {
                        Some(s) => s,
                        None => break,
                    };
                    match top.kind {
                        ScopeKind::Fn { fn_id } => {
                            if let Some(f) = out.fns.get_mut(fn_id) {
                                f.body = Some((top.open_tok, i));
                                if f.in_test {
                                    out.test_ranges.push((f.sig.0, i));
                                }
                            }
                        }
                        ScopeKind::Mod => {
                            if top.is_test {
                                out.test_ranges.push((top.open_tok, i));
                            }
                        }
                        ScopeKind::Impl { .. } => {}
                    }
                } else {
                    break;
                }
            }
            i += 1;
            pending = Pending::default();
            continue;
        }
        // Any other token clears pending visibility (attrs survive until
        // an item or statement consumes them above).
        if !pending.is_test {
            pending.is_pub = false;
        }
        i += 1;
    }
    out
}

/// Collects `name: Type` fields of a struct body `[open, close]`,
/// recording those whose type mentions `Mutex` or `RwLock`.
fn collect_fields(
    toks: &[Token],
    open: usize,
    close: usize,
    holder: &str,
    in_test: bool,
    out: &mut Outline,
) {
    let mut i = open + 1;
    while i < close {
        // Field attributes carry nothing the outline models.
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i = match_bracket(toks, i + 1) + 1;
            continue;
        }
        if toks[i].is_ident("pub") {
            if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                i = match_paren(toks, i + 1) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        if toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let field = toks[i].text.clone();
            let line = toks[i].line;
            // Type runs to the `,` at nesting depth 0 or the close brace.
            let mut j = i + 2;
            let mut d = 0i32;
            let mut kind: Option<LockKind> = None;
            let mut type_idents: Vec<String> = Vec::new();
            while j < close {
                let tj = &toks[j];
                if tj.is_punct("<") || tj.is_punct("(") || tj.is_punct("[") {
                    d += 1;
                } else if tj.is_punct(">") || tj.is_punct(")") || tj.is_punct("]") {
                    d -= 1;
                } else if tj.is_punct(">>") {
                    d -= 2; // one shift token closes two type angles
                } else if d <= 0 && tj.is_punct(",") {
                    break;
                }
                if tj.kind == TokKind::Ident
                    && tj
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                {
                    type_idents.push(tj.text.clone());
                }
                if tj.is_ident("Mutex") || tj.is_ident("RwLock") {
                    kind = Some(LockKind::Sync);
                } else if tj.is_ident("VersionCell") && kind.is_none() {
                    kind = Some(LockKind::Cell);
                } else if tj.is_ident("SemanticCache") && kind.is_none() {
                    kind = Some(LockKind::Cache);
                } else if tj.is_ident("TraceSink") && kind.is_none() {
                    kind = Some(LockKind::Sink);
                }
                j += 1;
            }
            if !type_idents.is_empty() {
                out.fields.push(FieldInfo {
                    holder: holder.to_string(),
                    field: field.clone(),
                    type_idents,
                    line,
                    in_test,
                });
            }
            if let Some(kind) = kind {
                out.lock_fields.push(LockField {
                    holder: holder.to_string(),
                    field,
                    kind,
                    line,
                    in_test,
                });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
}

/// Whether one attribute token slice (`[ … ]`, brackets included) marks
/// test-only code: `#[test]`, or a `#[cfg(…)]` naming `test`. `cfg_attr`
/// and `not(…)` mark nothing.
fn is_test_attr(attr: &[Token]) -> bool {
    if attr.len() >= 3 && attr[1].is_ident("test") {
        return true;
    }
    let names = |id: &str| attr.iter().any(|t| t.is_ident(id));
    names("cfg") && !names("cfg_attr") && !names("not") && names("test")
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn match_bracket(toks: &[Token], open: usize) -> usize {
    match_delim(toks, open, "[", "]")
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn match_paren(toks: &[Token], open: usize) -> usize {
    match_delim(toks, open, "(", ")")
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn match_brace(toks: &[Token], open: usize) -> usize {
    match_delim(toks, open, "{", "}")
}

fn match_delim(toks: &[Token], open: usize, o: &str, c: &str) -> usize {
    let mut d = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(o) {
            d += 1;
        } else if toks[i].is_punct(c) {
            d -= 1;
            if d == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Forward to the `;` ending the item starting at `i` (depth-0).
fn scan_to_semi(toks: &[Token], i: usize) -> usize {
    let mut d = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            d -= 1;
        } else if d <= 0 && t.is_punct(";") {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Forward to the end of the statement starting at `i`: the depth-0 `;`,
/// or the `}` closing a block the statement itself opened (an `if`/`for`
/// statement), whichever comes first.
fn scan_statement(toks: &[Token], i: usize) -> usize {
    let mut d = 0i32;
    let mut j = i;
    let mut opened_brace = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") {
            d += 1;
            opened_brace = true;
        } else if t.is_punct("(") || t.is_punct("[") {
            d += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            d -= 1;
            if d <= 0 && opened_brace && t.is_punct("}") {
                return j;
            }
            if d < 0 {
                // Ran out of the enclosing block: end just before it.
                return j.saturating_sub(1);
            }
        } else if d <= 0 && t.is_punct(";") {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn outline_of(src: &str) -> Outline {
        outline(&lex(src))
    }

    #[test]
    fn functions_with_bodies_and_visibility() {
        let o = outline_of(
            "pub fn a(x: usize) -> Result<(), E> { x; }\nfn b() -> Option<u8> { None }\n",
        );
        assert_eq!(o.fns.len(), 2);
        assert!(o.fns[0].is_pub && o.fns[0].returns_result);
        assert!(!o.fns[1].is_pub && o.fns[1].returns_option);
        assert!(o.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn test_modules_and_test_fns_are_marked() {
        let o = outline_of(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { body(); }\n}\nfn lib() {}\n",
        );
        let t = o.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
        let l = o.fns.iter().find(|f| f.name == "lib").unwrap();
        assert!(!l.in_test);
        // Token positions inside the test mod report in_test.
        let (a, b) = t.body.unwrap();
        assert!(o.in_test(a) && o.in_test(b));
    }

    #[test]
    fn lock_fields_in_structs_and_statics() {
        let o = outline_of(
            "struct S { inner: Mutex<Vec<u8>>, plain: usize, shared: std::sync::RwLock<u8> }\n\
             static LOCK: Mutex<()> = Mutex::new(());\n",
        );
        let names: Vec<&str> = o.lock_fields.iter().map(|l| l.field.as_str()).collect();
        assert_eq!(names, vec!["inner", "shared", "LOCK"]);
        assert_eq!(o.lock_fields[0].holder, "S");
        assert_eq!(o.lock_fields[2].holder, "static");
        assert!(o.lock_fields.iter().all(|l| l.kind == LockKind::Sync));
    }

    #[test]
    fn version_cell_fields_are_cell_kind_lock_identities() {
        let o = outline_of(
            "struct Shard { slot: VersionCell<i64>, writer: Mutex<()>, n: usize }\n\
             static GLOBAL: VersionCell<i64> = VersionCell::new();\n",
        );
        let kinds: Vec<(&str, LockKind)> = o
            .lock_fields
            .iter()
            .map(|l| (l.field.as_str(), l.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("slot", LockKind::Cell),
                ("writer", LockKind::Sync),
                ("GLOBAL", LockKind::Cell),
            ]
        );
    }

    #[test]
    fn semantic_cache_fields_are_cache_kind_lock_identities() {
        // A `Mutex` mention anywhere in the type outranks the cache
        // (the sync vocabulary is the sharper identity).
        let o = outline_of(
            "struct Shard { cache: Arc<SemanticCache<i64, R>>, guarded: Mutex<SemanticCache<i64, R>> }\n\
             static FRONT: SemanticCache<i64, R> = front();\n",
        );
        let kinds: Vec<(&str, LockKind)> = o
            .lock_fields
            .iter()
            .map(|l| (l.field.as_str(), l.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("cache", LockKind::Cache),
                ("guarded", LockKind::Sync),
                ("FRONT", LockKind::Cache),
            ]
        );
    }

    #[test]
    fn impl_headers_reach_methods() {
        let o =
            outline_of("impl<V> RangeEngine<V> for CubeIndex<V> {\n  fn range_sum(&self) {}\n}\n");
        let f = &o.fns[0];
        assert!(f.impl_header.as_deref().unwrap().contains("RangeEngine"));
    }

    #[test]
    fn use_ranges_cover_imports() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f() { Ordering::Relaxed; }\n";
        let o = outline_of(src);
        let lx = lex(src);
        let first_ord = lx
            .tokens
            .iter()
            .position(|t| t.is_ident("Ordering"))
            .unwrap();
        let last_ord = lx
            .tokens
            .iter()
            .rposition(|t| t.is_ident("Ordering"))
            .unwrap();
        assert!(o.in_use(first_ord));
        assert!(!o.in_use(last_ord));
    }
}
