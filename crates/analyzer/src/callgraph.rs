//! A cross-file call graph resolved through the outline, with
//! receiver-type heuristics for method calls.
//!
//! The protocol rules (budget-coverage, estimate-isolation) need to know
//! *which* definition a call site resolves to, per-site positions for
//! diagnostics, and a graph that supports both forward reachability and
//! backward closure ("which fns may transitively charge the meter?").
//!
//! Resolution is still heuristic — no type inference, no trait solving —
//! but method calls narrow by receiver type where the outline can tell:
//!
//! * `self.m(…)` resolves to `m` in impls of the enclosing impl's self
//!   type (trait impls and inherent impls alike);
//! * `Type::m(…)` resolves to `m` in impls of `Type`;
//! * `x.m(…)` where `x` is a parameter, a `let x = Type::…`/`let x: Type`
//!   local, or a struct field whose declared type the outline recorded,
//!   resolves through those candidate types;
//! * anything else falls back to every fn named `m` outside the
//!   front-end crates ([`FRONT_ENDS`]) — an over-approximation that can
//!   only add edges, never hide a real one, since no query path calls
//!   into a front end.
//!
//! Every resolution then drops the candidates that take more arguments
//! than the site can pass: `lock.read()` passes none, so it never
//! reaches a `read(&self, region, op, meter)`. The site's count is an
//! upper bound (a closure's `|a, b|` or a trailing comma only raise it),
//! so the filter cannot drop a real target either.
//!
//! Free-function calls resolve by name. Test fns contribute no nodes.

use crate::lexer::{TokKind, Token};
use crate::model::Model;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Crates that drive the library from outside (benchmarks, the CLI, the
/// load generators, this analyzer). The name fallback never resolves to
/// their fns: a `pub fn all()` in `olap-bench` must not turn every
/// `Iterator::all` on a query path into an edge out of the library.
pub const FRONT_ENDS: &[&str] = &["analyzer", "bench", "cli", "workload"];

/// Index into [`CallGraph::nodes`].
pub type NodeId = usize;

/// One non-test function in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into `Model::files`.
    pub file: usize,
    /// Index into that file's `Outline::fns`.
    pub fn_id: usize,
    /// The function's name.
    pub name: String,
    /// Self type of the enclosing impl (`CubeIndex` for
    /// `impl<V> RangeEngine<V> for CubeIndex<V>`), if any.
    pub self_type: Option<String>,
    /// Trait implemented by the enclosing impl, if it is a trait impl
    /// (or the trait's own name for default methods in `trait … { }`).
    pub trait_name: Option<String>,
    /// Parameters other than the `self` receiver.
    pub params: usize,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`m` in `x.m(…)`, `f` in `f(…)`).
    pub callee: String,
    /// Receiver identifier for `recv.m(…)` method calls (the ident
    /// directly before the dot; chained receivers record the last link).
    pub receiver: Option<String>,
    /// Qualifier for `Type::m(…)` / `Enum::Variant(…)` path calls (the
    /// path segment directly before the `::`).
    pub qualifier: Option<String>,
    /// Whether this is a method call (`….m(…)`) — true even when the
    /// receiver is a chained expression with no ident to record.
    pub dotted: bool,
    /// An upper bound on the arguments passed (receiver excluded).
    pub args: usize,
    /// Token index of the callee ident.
    pub tok: usize,
    /// 1-based position of the callee ident.
    pub line: u32,
    /// 1-based column of the callee ident.
    pub col: u32,
}

/// One call site with its resolution.
#[derive(Debug, Clone)]
pub struct ResolvedSite {
    /// The syntactic site.
    pub site: CallSite,
    /// Resolved target nodes (possibly empty for calls into std or
    /// unresolved externals).
    pub targets: Vec<NodeId>,
    /// Whether the targets came from type-narrowed resolution (a
    /// qualifier or a typed receiver) rather than the conservative
    /// all-fns-of-this-name fallback. Rules that must not over-report
    /// (estimate-isolation's sink matching) only trust narrowed sites.
    pub narrowed: bool,
}

/// The resolved graph.
pub struct CallGraph {
    /// All nodes, ordered by (file, fn_id) — deterministic.
    pub nodes: Vec<FnNode>,
    /// Per-node call sites with their resolutions.
    sites: Vec<Vec<ResolvedSite>>,
    /// Per-node deduped outgoing edges.
    edges: Vec<Vec<NodeId>>,
}

/// Per-model resolution tables shared across nodes.
struct Index {
    /// fn name → node ids.
    by_name: BTreeMap<String, Vec<NodeId>>,
    /// (self type, fn name) → node ids.
    by_type: BTreeMap<(String, String), Vec<NodeId>>,
    /// field name → candidate type names (from every struct's declared
    /// field types across the workspace).
    field_types: BTreeMap<String, BTreeSet<String>>,
    /// Type names that have at least one impl block in the workspace.
    known_types: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the graph for a whole model.
    pub fn build(model: &Model) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in model.files.iter().enumerate() {
            for (gi, f) in file.outline.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let (self_type, trait_name) = f
                    .impl_header
                    .as_deref()
                    .map(parse_impl_header)
                    .unwrap_or((None, None));
                let (params, has_self) = signature_params(&file.lexed.tokens, f.sig);
                nodes.push(FnNode {
                    file: fi,
                    fn_id: gi,
                    name: f.name.clone(),
                    self_type,
                    trait_name,
                    params,
                    has_self,
                });
            }
        }
        let mut index = Index {
            by_name: BTreeMap::new(),
            by_type: BTreeMap::new(),
            field_types: BTreeMap::new(),
            known_types: BTreeSet::new(),
        };
        for (n, node) in nodes.iter().enumerate() {
            if !FRONT_ENDS.contains(&model.files[node.file].crate_name.as_str()) {
                index.by_name.entry(node.name.clone()).or_default().push(n);
            }
            if let Some(t) = &node.self_type {
                index.known_types.insert(t.clone());
                index
                    .by_type
                    .entry((t.clone(), node.name.clone()))
                    .or_default()
                    .push(n);
            }
            if let Some(t) = &node.trait_name {
                index.known_types.insert(t.clone());
                index
                    .by_type
                    .entry((t.clone(), node.name.clone()))
                    .or_default()
                    .push(n);
            }
        }
        for file in &model.files {
            for field in &file.outline.fields {
                for ty in &field.type_idents {
                    index
                        .field_types
                        .entry(field.field.clone())
                        .or_default()
                        .insert(ty.clone());
                }
            }
        }
        let mut sites = Vec::with_capacity(nodes.len());
        let mut edges = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let file = &model.files[node.file];
            let f = &file.outline.fns[node.fn_id];
            let Some((a, b)) = f.body else {
                sites.push(Vec::new());
                edges.push(Vec::new());
                continue;
            };
            let toks = &file.lexed.tokens;
            let (locals, local_names) = local_types(toks, f.sig, (a, b), &index.known_types);
            let mut node_sites = Vec::new();
            let mut node_edges = BTreeSet::new();
            for site in call_sites(toks, a, b) {
                let (mut targets, narrowed) = resolve(&site, node, &locals, &local_names, &index);
                // A fn needing more arguments than the site passes is not
                // its target; `Type::m(recv, …)` passes the receiver too.
                targets.retain(|&t| {
                    let callee = &nodes[t];
                    callee.params + usize::from(callee.has_self && !site.dotted) <= site.args
                });
                for &t in &targets {
                    node_edges.insert(t);
                }
                node_sites.push(ResolvedSite {
                    site,
                    targets,
                    narrowed,
                });
            }
            sites.push(node_sites);
            edges.push(node_edges.into_iter().collect());
        }
        CallGraph {
            nodes,
            sites,
            edges,
        }
    }

    /// Resolved outgoing edges of a node (sorted, deduped).
    pub fn callees(&self, n: NodeId) -> &[NodeId] {
        &self.edges[n]
    }

    /// Call sites of a node with their resolutions, in source order.
    pub fn sites(&self, n: NodeId) -> &[ResolvedSite] {
        &self.sites[n]
    }

    /// Forward reachability following only **trusted** edges: sites whose
    /// resolution is type-narrowed, plus free-function/path calls. A
    /// name-fallback *method* call on an unknown receiver (`a.max(b)` on
    /// a numeric) resolves to every fn of that name and would drag whole
    /// unrelated crates into the reachable set; rules that *report* on
    /// the reachable region (budget-coverage, estimate-isolation) use
    /// this to keep their findings on plausible paths. Closures that
    /// *suppress* findings keep the full over-approximation.
    pub fn reachable_trusted(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for s in &self.sites[n] {
                if !s.narrowed && s.site.dotted {
                    continue;
                }
                for &c in &s.targets {
                    if !seen[c] {
                        seen[c] = true;
                        queue.push_back(c);
                    }
                }
            }
        }
        seen
    }

    /// A shortest call path from `from` to any node satisfying `hit`,
    /// following only trusted edges (see [`Self::reachable_trusted`]).
    pub fn path_to_trusted(
        &self,
        from: NodeId,
        hit: impl Fn(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        let mut prev: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            if hit(n) {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(p) = prev[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for s in &self.sites[n] {
                if !s.narrowed && s.site.dotted {
                    continue;
                }
                for &c in &s.targets {
                    if !seen[c] {
                        seen[c] = true;
                        prev[c] = Some(n);
                        queue.push_back(c);
                    }
                }
            }
        }
        None
    }

    /// Backward closure: `out[n]` is true when `seeds[n]` or some callee
    /// of `n` is in the closure — "n may transitively enter a seed".
    pub fn callers_closure(&self, seeds: &[bool]) -> Vec<bool> {
        let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (n, cs) in self.edges.iter().enumerate() {
            for &c in cs {
                rev[c].push(n);
            }
        }
        let mut out = seeds.to_vec();
        let mut queue: VecDeque<NodeId> = (0..self.nodes.len()).filter(|&n| out[n]).collect();
        while let Some(n) = queue.pop_front() {
            for &p in &rev[n] {
                if !out[p] {
                    out[p] = true;
                    queue.push_back(p);
                }
            }
        }
        out
    }

    /// Renders a node as `Type::name` / `name` for diagnostics.
    pub fn label(&self, n: NodeId) -> String {
        let node = &self.nodes[n];
        match &node.self_type {
            Some(t) => format!("{t}::{}", node.name),
            None => node.name.clone(),
        }
    }
}

/// Extracts `(self_type, trait_name)` from an outline impl header such
/// as `impl < V > RangeEngine < V > for CubeIndex < V >` (tokens joined
/// by spaces) or `trait RangeEngine < V >`.
fn parse_impl_header(h: &str) -> (Option<String>, Option<String>) {
    let words: Vec<&str> = h.split_whitespace().collect();
    let is_trait_decl = words.first() == Some(&"trait");
    // Segments at angle-depth 0, split by `for`.
    let mut segs: Vec<Vec<&str>> = vec![Vec::new()];
    let mut depth = 0i32;
    for w in words.iter().skip(1) {
        match *w {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "for" if depth == 0 => segs.push(Vec::new()),
            "where" if depth == 0 => break,
            // Supertrait bounds (`trait T : Send`) are not the name.
            ":" if depth == 0 => break,
            _ if depth == 0 => {
                if let Some(seg) = segs.last_mut() {
                    seg.push(w);
                }
            }
            _ => {}
        }
    }
    let last_ident = |seg: &[&str]| -> Option<String> {
        seg.iter()
            .rev()
            .find(|w| {
                w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !matches!(**w, "dyn" | "mut" | "const")
            })
            .map(|s| s.to_string())
    };
    if is_trait_decl {
        // Default methods in `trait T { … }` belong to the trait name.
        return (None, last_ident(&segs[0]));
    }
    match segs.len() {
        0 | 1 => (
            last_ident(segs.first().map(Vec::as_slice).unwrap_or(&[])),
            None,
        ),
        _ => (last_ident(&segs[1]), last_ident(&segs[0])),
    }
}

/// Statement keywords that look like calls when followed by `(`.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "fn"
            | "as"
            | "in"
            | "move"
            | "unsafe"
            | "ref"
            | "mut"
            | "where"
            | "impl"
            | "dyn"
    )
}

/// Index just past a `<…>` generic-argument list opening at `open`
/// (handles the lexer's `>>` shift token closing two angles).
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut d = 0i32;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("<") {
            d += 1;
        } else if t.is_punct(">") {
            d -= 1;
            if d <= 0 {
                return i + 1;
            }
        } else if t.is_punct(">>") {
            d -= 2;
            if d <= 0 {
                return i + 1;
            }
        } else if t.is_punct(";") || t.is_punct("{") {
            return i; // not a generic list after all
        }
        i += 1;
    }
    toks.len()
}

/// All syntactic call sites in `[a, b]`: `name(…)`, `name::<T>(…)`,
/// `recv.name(…)`, `Type::name(…)`. Macro invocations (`name!`) are not
/// calls.
pub fn call_sites(toks: &[Token], a: usize, b: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let end = b.min(toks.len().saturating_sub(1));
    for i in a..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        let open = match toks.get(i + 1) {
            Some(n) if n.is_punct("(") => i + 1,
            // Turbofish `name::<T>(` only; `Type::name` is handled when
            // the cursor reaches `name` itself.
            Some(n) if n.is_punct("::") && toks.get(i + 2).is_some_and(|t| t.is_punct("<")) => {
                skip_angles(toks, i + 2)
            }
            _ => continue,
        };
        if !toks.get(open).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        let mut receiver = None;
        let mut qualifier = None;
        let dotted = i >= 1 && toks[i - 1].is_punct(".");
        if i >= 2 {
            if toks[i - 1].is_punct(".") && toks[i - 2].kind == TokKind::Ident {
                receiver = Some(toks[i - 2].text.clone());
            } else if toks[i - 1].is_punct("::") && toks[i - 2].kind == TokKind::Ident {
                qualifier = Some(toks[i - 2].text.clone());
            }
        } else if i == 1 && toks[0].is_punct(".") {
            // Chained call at the very start of the range — no receiver
            // ident available; treated as an unqualified method call.
        }
        // `x.await(…)`-style keywords after a dot are not user calls.
        if receiver.is_some() && t.text == "await" {
            continue;
        }
        out.push(CallSite {
            callee: t.text.clone(),
            receiver,
            qualifier,
            dotted,
            args: count_args(toks, open),
            tok: i,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// An upper bound on the comma-separated items of the list opening at
/// `toks[open]`: 0 for `()`, else one more than its depth-0 commas. Angle
/// brackets are not tracked, so a turbofish's commas only raise it.
fn count_args(toks: &[Token], open: usize) -> usize {
    if toks.get(open + 1).is_some_and(|t| t.is_punct(")")) {
        return 0;
    }
    let mut depth = 0i32;
    let mut commas = 0usize;
    for t in toks.iter().skip(open + 1) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(",") {
            commas += 1;
        }
    }
    commas + 1
}

/// `(parameters other than self, has a self receiver)` of the signature
/// in token range `sig` (`fn name<…>(…) -> …`).
fn signature_params(toks: &[Token], sig: (usize, usize)) -> (usize, bool) {
    let end = sig.1.min(toks.len());
    let mut i = sig.0 + 2; // past `fn name`
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i);
    }
    if i >= end || !toks[i].is_punct("(") {
        return (0, false);
    }
    let mut depth = 0i32;
    let mut params = 0usize;
    let mut has_self = false;
    let mut in_param = false;
    for t in &toks[i + 1..end] {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && t.is_punct(",") {
            in_param = false;
            continue;
        }
        if !in_param {
            in_param = true;
            params += 1;
        }
        if params == 1 && depth == 0 && t.is_ident("self") {
            has_self = true;
        }
    }
    (params - usize::from(has_self), has_self)
}

/// Local name → candidate type names, from parameters (`x: Type`) and
/// simple lets (`let x: Type = …` / `let x = Type::…`). Only types the
/// workspace defines impls for are recorded — everything else resolves
/// by the name fallback anyway. The second return is the set of *all*
/// locally bound names, typed or not: a call to one of those is a
/// closure/fn-pointer invocation, not a call to some same-named free fn.
fn local_types(
    toks: &[Token],
    sig: (usize, usize),
    body: (usize, usize),
    known: &BTreeSet<String>,
) -> (BTreeMap<String, BTreeSet<String>>, BTreeSet<String>) {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut names: BTreeSet<String> = BTreeSet::new();
    // Parameters: scan `ident :` pairs in the signature, collecting the
    // known type idents until the depth-0 `,` or `)`.
    let (sa, sb) = sig;
    let mut i = sa;
    while i < sb.min(toks.len()) {
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && !toks[i].is_ident("self")
        {
            let name = toks[i].text.clone();
            names.insert(name.clone());
            let mut j = i + 2;
            let mut d = 0i32;
            while j < sb.min(toks.len()) {
                let tj = &toks[j];
                if tj.is_punct("(") || tj.is_punct("[") || tj.is_punct("<") {
                    d += 1;
                } else if tj.is_punct(")") || tj.is_punct("]") || tj.is_punct(">") {
                    if d == 0 {
                        break;
                    }
                    d -= 1;
                } else if tj.is_punct(">>") {
                    d -= 2;
                } else if d <= 0 && tj.is_punct(",") {
                    break;
                }
                if tj.kind == TokKind::Ident && known.contains(&tj.text) {
                    out.entry(name.clone()).or_default().insert(tj.text.clone());
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // Simple lets in the body.
    let (ba, bb) = body;
    let mut i = ba;
    let end = bb.min(toks.len().saturating_sub(1));
    // Every let-bound name, including lets nested inside larger
    // statements (a closure bound inside `let handles = …spawn(…)…;`) —
    // the statement-wise type scan below skips those.
    let mut k = ba;
    while k <= end {
        if toks[k].is_ident("let") {
            let mut j = k + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(t) = toks.get(j) {
                if t.kind == TokKind::Ident {
                    names.insert(t.text.clone());
                }
            }
        }
        k += 1;
    }
    while i <= end {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident) {
                let name = toks[j].text.clone();
                names.insert(name.clone());
                // Scan the rest of the statement for known type idents.
                let mut k = j + 1;
                let mut d = 0i32;
                while k <= end {
                    let tk = &toks[k];
                    if tk.is_punct("(") || tk.is_punct("[") || tk.is_punct("{") {
                        d += 1;
                    } else if tk.is_punct(")") || tk.is_punct("]") || tk.is_punct("}") {
                        d -= 1;
                    } else if d <= 0 && tk.is_punct(";") {
                        break;
                    }
                    if tk.kind == TokKind::Ident && known.contains(&tk.text) {
                        out.entry(name.clone()).or_default().insert(tk.text.clone());
                    }
                    k += 1;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    (out, names)
}

/// Resolves one call site to `(targets, narrowed)` — `narrowed` is true
/// when the answer came from type information rather than the
/// every-library-fn-of-this-name fallback.
fn resolve(
    site: &CallSite,
    caller: &FnNode,
    locals: &BTreeMap<String, BTreeSet<String>>,
    local_names: &BTreeSet<String>,
    index: &Index,
) -> (Vec<NodeId>, bool) {
    // `run()` where `run` is a parameter or a `let`-bound local is a
    // closure call — resolving it to every fn named `run` would wire
    // e.g. a benchmark's closure straight into the CLI dispatcher.
    if !site.dotted && site.qualifier.is_none() && local_names.contains(&site.callee) {
        return (Vec::new(), false);
    }
    let by_name = || -> (Vec<NodeId>, bool) {
        (
            index.by_name.get(&site.callee).cloned().unwrap_or_default(),
            false,
        )
    };
    if let Some(q) = &site.qualifier {
        let q = if q == "Self" {
            caller.self_type.clone().unwrap_or_else(|| q.clone())
        } else {
            q.clone()
        };
        if let Some(ts) = index.by_type.get(&(q.clone(), site.callee.clone())) {
            return (ts.clone(), true);
        }
        // A known workspace type without this associated fn: the call is
        // external (std, vendored) — no edge. An unknown qualifier could
        // be a module path alias; fall back to the name.
        if index.known_types.contains(&q) {
            return (Vec::new(), true);
        }
        return by_name();
    }
    if let Some(r) = &site.receiver {
        let mut candidates: BTreeSet<String> = BTreeSet::new();
        if r == "self" {
            if let Some(t) = &caller.self_type {
                candidates.insert(t.clone());
            }
            if let Some(t) = &caller.trait_name {
                candidates.insert(t.clone());
            }
        }
        if let Some(ts) = locals.get(r) {
            candidates.extend(ts.iter().cloned());
        }
        if candidates.is_empty() {
            if let Some(ts) = index.field_types.get(r) {
                candidates.extend(ts.iter().cloned());
            }
        }
        if !candidates.is_empty() {
            let mut out = BTreeSet::new();
            for t in &candidates {
                if let Some(ts) = index.by_type.get(&(t.clone(), site.callee.clone())) {
                    out.extend(ts.iter().copied());
                }
            }
            if !out.is_empty() {
                return (out.into_iter().collect(), true);
            }
            // Receiver type(s) known but none defines the method — a
            // std/container method on a typed value (e.g. `.clone()` on
            // a known struct). `self` is authoritative: the enclosing
            // impl *is* the receiver type, so an absent method means an
            // external/blanket method, not a name collision. For other
            // receivers the candidate set is heuristic, so fall back to
            // the conservative name match.
            if r == "self" {
                return (Vec::new(), true);
            }
        }
        return by_name();
    }
    by_name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn graph(sources: &[(&str, &str)]) -> (Model, CallGraph) {
        let model = Model::from_sources(sources);
        let g = CallGraph::build(&model);
        (model, g)
    }

    fn node_by_label(g: &CallGraph, label: &str) -> NodeId {
        (0..g.nodes.len())
            .find(|&n| g.label(n) == label)
            .unwrap_or_else(|| {
                panic!(
                    "no node {label}; have {:?}",
                    (0..g.nodes.len()).map(|n| g.label(n)).collect::<Vec<_>>()
                )
            })
    }

    #[test]
    fn impl_header_parsing() {
        assert_eq!(
            parse_impl_header("impl < V > RangeEngine < V > for CubeIndex < V >"),
            (Some("CubeIndex".into()), Some("RangeEngine".into()))
        );
        assert_eq!(
            parse_impl_header("impl CubeServer"),
            (Some("CubeServer".into()), None)
        );
        assert_eq!(
            parse_impl_header("impl < V : Copy > Grid < V >"),
            (Some("Grid".into()), None)
        );
        assert_eq!(
            parse_impl_header("trait RangeEngine < V > : Send"),
            (None, Some("RangeEngine".into()))
        );
        assert_eq!(
            parse_impl_header("impl olap_engine :: Router"),
            (Some("Router".into()), None)
        );
    }

    #[test]
    fn self_calls_resolve_to_the_enclosing_impl_only() {
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "impl A {\n  fn top(&self) { self.step(); }\n  fn step(&self) {}\n}\n\
             impl B {\n  fn step(&self) {}\n}\n",
        )]);
        let top = node_by_label(&g, "A::top");
        let a_step = node_by_label(&g, "A::step");
        let b_step = node_by_label(&g, "B::step");
        assert_eq!(g.callees(top), &[a_step]);
        assert_ne!(a_step, b_step);
    }

    #[test]
    fn qualified_calls_resolve_by_type() {
        let (_, g) = graph(&[
            (
                "crates/engine/src/a.rs",
                "pub struct Meter;\nimpl Meter {\n  pub fn charge(&self) {}\n}\n",
            ),
            (
                "crates/server/src/b.rs",
                "impl Srv {\n  fn go(&self) { Meter::charge(&m); Other::charge(&m); }\n}\n\
                 pub struct Other;\nimpl Other {\n  fn unrelated(&self) {}\n}\n",
            ),
        ]);
        let go = node_by_label(&g, "Srv::go");
        let charge = node_by_label(&g, "Meter::charge");
        // `Other` is a known type without `charge` — no spurious edge.
        assert_eq!(g.callees(go), &[charge]);
    }

    #[test]
    fn typed_receivers_narrow_and_unknown_receivers_fall_back() {
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "impl Meter {\n  pub fn charge(&self) {}\n}\n\
             impl Gauge {\n  pub fn charge(&self) {}\n}\n\
             fn typed(m: & Meter) { m.charge(); }\n\
             fn untyped(m: &dyn Any) { m.charge(); }\n",
        )]);
        let typed = node_by_label(&g, "typed");
        let untyped = node_by_label(&g, "untyped");
        let meter = node_by_label(&g, "Meter::charge");
        let gauge = node_by_label(&g, "Gauge::charge");
        assert_eq!(g.callees(typed), &[meter]);
        assert_eq!(g.callees(untyped), &[meter, gauge]);
    }

    #[test]
    fn let_bound_locals_and_field_types_resolve() {
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "pub struct Shard { meter: Meter }\n\
             impl Meter {\n  pub fn charge(&self) {}\n  pub fn new() -> Meter { Meter }\n}\n\
             impl Gauge {\n  pub fn charge(&self) {}\n}\n\
             fn with_let() { let m = Meter::new(); m.charge(); }\n\
             impl Shard {\n  fn with_field(&self) { self.meter.charge(); }\n}\n",
        )]);
        let meter = node_by_label(&g, "Meter::charge");
        let new_fn = node_by_label(&g, "Meter::new");
        // `with_let` calls both `Meter::new` and the narrowed `m.charge()`
        // — crucially not `Gauge::charge`.
        assert_eq!(g.callees(node_by_label(&g, "with_let")), &[meter, new_fn]);
        let with_field = node_by_label(&g, "Shard::with_field");
        assert_eq!(g.callees(with_field), &[meter]);
    }

    #[test]
    fn calls_never_reach_fns_that_need_more_arguments() {
        // `engines.read()` on a lock passes nothing, so it is not a call
        // to the engine's `read(&self, region, op)`, though the field
        // types name both; `Vec::new()` is not `Cube::new(shape, pts)`.
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "pub struct Router { engines: RwLock<Vec<Engine>> }\n\
             impl Engine {\n  fn read(&self, region: &Region, op: Op) {}\n}\n\
             impl Cube {\n  fn new(shape: Shape, pts: Vec<u8>) -> Cube { Cube }\n}\n\
             impl Router {\n  fn load(&self) { let v = Vec::new(); self.engines.read(); }\n  \
             fn dispatch(&self, e: &Engine) { e.read(&r, Op::Sum); Engine::read(e, &r, op); }\n}\n",
        )]);
        assert!(g.callees(node_by_label(&g, "Router::load")).is_empty());
        let read = node_by_label(&g, "Engine::read");
        assert_eq!(g.callees(node_by_label(&g, "Router::dispatch")), &[read]);
    }

    #[test]
    fn recursion_terminates_in_reachability_and_closure() {
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "fn a() { b(); }\nfn b() { a(); sink(); }\nfn sink() {}\n",
        )]);
        let a = node_by_label(&g, "a");
        let sink = node_by_label(&g, "sink");
        let reach = g.reachable_trusted(&[a]);
        assert!(reach[a] && reach[sink]);
        let mut seeds = vec![false; g.nodes.len()];
        seeds[sink] = true;
        let closure = g.callers_closure(&seeds);
        assert!(closure[a], "cycle members reach the seed");
        let path = g.path_to_trusted(a, |n| n == sink).unwrap();
        assert_eq!(path.first(), Some(&a));
        assert_eq!(path.last(), Some(&sink));
    }

    #[test]
    fn turbofish_and_macros() {
        let (_, g) = graph(&[(
            "crates/engine/src/a.rs",
            "fn f() { helper::<u32>(); println!(\"{}\", not_a_call); }\nfn helper<T>() {}\n",
        )]);
        let f = node_by_label(&g, "f");
        let helper = node_by_label(&g, "helper");
        assert_eq!(g.callees(f), &[helper]);
    }
}
