//! The v3 workspace call graph: function nodes keyed by
//! `(crate, impl type, fn name)`, edges from the AST's call sites.
//!
//! Call resolution is evidence-based and layered, cheapest first:
//!
//! 1. `self.m(...)` binds to the enclosing impl's own `m`, then to any
//!    same-crate `m`.
//! 2. `recv.m(...)` is resolved through the *receiver's type* where the
//!    type is locally recoverable: a fn parameter `recv: T`, a
//!    `let recv = T::...` / `let recv: T = ...` binding, or — for
//!    `self.field.m(...)` — the owner struct's field type (struct shapes
//!    are indexed workspace-wide). A type without the method passes the
//!    call to its `Deref` target (the typed clients are façades that
//!    deref to their `idlc`-generated stub).
//! 3. Calls into the orb stub API ([`REMOTE_API`]) bind to the orb
//!    crate's implementations and are recorded as **remote invocation
//!    sites**; when the operation name is evidenced in the argument list
//!    (string literal or ALL-CAPS op const) — as it is in every generated
//!    stub method — the site additionally gets a *dispatch edge* to every
//!    `Servant::dispatch` skeleton that handles that IDL operation, and
//!    a generated `<I>Skeleton::dispatch` hands `self.0.m(...)` on to the
//!    impls of interface `I` (or one it inherits): the IDL op table
//!    links client to server.
//! 4. A method implemented only by impls of one trait fans out to every
//!    impl (trait-virtual dispatch, e.g. `servant.dispatch(...)`).
//! 5. A workspace-unique free-fn/method name resolves globally.
//!
//! Unresolvable calls get no edge (never guessed). The graph covers the
//! sim-facing crates (minus `simnet`, which sits below the stub layer),
//! the `bench` harness that drives them, and the workspace-level
//! integration tests (crate label `tests`); test functions are kept as
//! nodes (they are the experiment roots reachability starts from) but
//! flagged so the failure-path rules skip them.

use crate::analysis::FileAnalysis;
use crate::ast::TokKind;
use crate::contracts::Contracts;
use crate::rules::SIM_CRATES;
use std::collections::{BTreeMap, BTreeSet};

/// Orb stub methods that perform (or complete) a remote invocation.
/// `Ctx`-receiver calls are excluded at the use site: `ctx.call(..)` is
/// the simnet syscall underneath the stub layer, not a remote invocation.
pub const REMOTE_API: &[&str] = &[
    "invoke",
    "invoke_oneway",
    "invoke_with_timeout",
    "call",
    "call_with_timeout",
    "oneway",
    "ping",
    "locate",
    "send_deferred",
    "get_response",
];

/// Stub methods whose argument list names the IDL operation (literal or
/// op-const) — the evidence the dispatch edges key on.
const OP_CARRYING: &[&str] = &[
    "call",
    "call_with_timeout",
    "oneway",
    "invoke",
    "invoke_with_timeout",
    "invoke_oneway",
];

/// Method names too generic to resolve by name: std-library vocabulary
/// that would alias unrelated functions across the workspace. A call
/// whose receiver type is recovered still resolves (`channel.push(..)` on
/// an `EventChannelStub` is the IDL operation, not `Vec::push`).
const RESOLVE_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "write",
    "read",
    "with",
    "take",
    "put",
    "replace",
    "lock",
    "from",
    "into",
    "to_string",
    "to_vec",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_deref",
    "contains",
    "contains_key",
    "clear",
    "extend",
    "send",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "ok_or",
    "err",
    "min",
    "max",
    "abs",
    "collect",
    "filter",
    "filter_map",
    "flat_map",
    "any",
    "all",
    "find",
    "position",
    "sum",
    "count",
    "join",
    "split",
    "trim",
    "sort",
    "sort_by",
    "sort_by_key",
    "entry",
    "or_default",
    "or_insert",
    "values",
    "values_mut",
    "keys",
    "cmp",
    "eq",
    "ne",
    "hash",
    "retain",
    "drain",
    "chunks",
    "windows",
    "rev",
    "enumerate",
    "zip",
    "chain",
    "copied",
    "cloned",
    "first",
    "last",
    "expect",
    "unwrap",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "then",
    "then_some",
    "saturating_add",
    "saturating_sub",
    "wrapping_mul",
    "checked_sub",
];

/// Which graph crate a file belongs to, if any. `simnet` is excluded (it
/// implements the transport the stub layer sits on); files outside
/// `crates/` (the root `tests/` harness) get the pseudo-crate `tests`.
pub fn graph_crate(crate_dir: Option<&str>) -> Option<String> {
    match crate_dir {
        Some("simnet") => None,
        Some("bench") => Some("bench".to_string()),
        Some(d) if SIM_CRATES.contains(&d) => Some(d.to_string()),
        Some(_) => None,
        None => Some("tests".to_string()),
    }
}

/// How an edge was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Free fn or `self.` method resolved within one crate (sound subset).
    Static,
    /// Receiver-type, trait-fan-out, or workspace-unique-name resolution.
    Method,
    /// Call into the orb stub API (client side of a remote invocation).
    Stub,
    /// Client op routed to the `Servant::dispatch` skeleton handling it.
    Dispatch,
}

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Graph crate (`orb`, `ft`, ..., `bench`, `tests`).
    pub krate: String,
    /// Enclosing impl's type name, `""` for free functions.
    pub owner: String,
    /// Function name.
    pub name: String,
    /// Trait the enclosing impl implements, if any.
    pub trait_name: Option<String>,
    pub file: String,
    pub line: usize,
    /// Declared in test code (test roots; exempt from the F rules).
    pub is_test: bool,
    /// Index into the analyses slice this node was parsed from.
    pub file_idx: usize,
    /// Body token range (brace indices, exclusive content).
    pub body: (usize, usize),
    /// Body mentions a reply deadline (`deadline` / `request_timeout`).
    pub has_deadline: bool,
    /// Body sleeps or backs off (`sleep` / `*backoff*`).
    pub has_sleep: bool,
    /// Body contains a remote invocation site.
    pub has_remote: bool,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// Token index of the call-name identifier in `from`'s file.
    pub call_tok: usize,
    pub line: usize,
    pub kind: EdgeKind,
}

/// One remote invocation site (a call into [`REMOTE_API`]).
#[derive(Debug, Clone)]
pub struct RemoteSite {
    /// Enclosing fn node.
    pub node: usize,
    /// Token index of the method-name identifier.
    pub tok: usize,
    pub line: usize,
    pub method: String,
    /// IDL operation the site names, when evidenced in the arguments.
    pub op: Option<String>,
    /// Resolved callee nodes (empty when resolution failed).
    pub targets: Vec<usize>,
    pub is_test: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Edge>,
    pub remote_sites: Vec<RemoteSite>,
    /// Edge indices grouped by `from` node.
    adj: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Nodes reachable from `starts` over edges whose kind passes `allow`
    /// (including the start nodes themselves).
    pub fn reachable(
        &self,
        starts: impl IntoIterator<Item = usize>,
        allow: impl Fn(EdgeKind) -> bool,
    ) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = starts.into_iter().collect();
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for &ei in &self.adj[n] {
                let e = &self.edges[ei];
                if allow(e.kind) && !seen.contains(&e.to) {
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Outgoing edges of one node.
    pub fn edges_from(&self, n: usize) -> impl Iterator<Item = &Edge> {
        self.adj[n].iter().map(move |&ei| &self.edges[ei])
    }

    /// Per-crate `(nodes, edges-from)` counts, for the selfcheck pin.
    pub fn crate_counts(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for n in &self.nodes {
            out.entry(n.krate.clone()).or_default().0 += 1;
        }
        for e in &self.edges {
            out.entry(self.nodes[e.from].krate.clone()).or_default().1 += 1;
        }
        out
    }

    /// Graphviz rendering: one cluster per crate, dispatch edges dashed.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            by_crate.entry(&n.krate).or_default().push(i);
        }
        for (krate, nodes) in &by_crate {
            let _ = writeln!(
                out,
                "  subgraph \"cluster_{krate}\" {{\n    label=\"{krate}\";"
            );
            for &i in nodes {
                let n = &self.nodes[i];
                let label = if n.owner.is_empty() {
                    n.name.clone()
                } else {
                    format!("{}::{}", n.owner, n.name)
                };
                let style = if n.is_test { ", style=dotted" } else { "" };
                let _ = writeln!(out, "    n{i} [label=\"{label}\"{style}];");
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            let style = match e.kind {
                EdgeKind::Dispatch => " [style=dashed, color=blue]",
                EdgeKind::Stub => " [color=red]",
                _ => "",
            };
            let _ = writeln!(out, "  n{} -> n{}{style};", e.from, e.to);
        }
        out.push_str("}\n");
        out
    }

    /// Machine-readable rendering (nodes, edges, remote sites).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"crate\":{},\"impl\":{},\"fn\":{},\"file\":{},\"line\":{},\"test\":{}}}",
                    esc(&n.krate),
                    esc(&n.owner),
                    esc(&n.name),
                    esc(&n.file),
                    n.line,
                    n.is_test
                )
            })
            .collect();
        let edges: Vec<String> = self
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"from\":{},\"to\":{},\"line\":{},\"kind\":{}}}",
                    e.from,
                    e.to,
                    e.line,
                    esc(&format!("{:?}", e.kind).to_ascii_lowercase())
                )
            })
            .collect();
        let sites: Vec<String> = self
            .remote_sites
            .iter()
            .map(|s| {
                let op = s.op.as_deref().map(esc).unwrap_or_else(|| "null".into());
                format!(
                    "{{\"node\":{},\"line\":{},\"method\":{},\"op\":{}}}",
                    s.node,
                    s.line,
                    esc(&s.method),
                    op
                )
            })
            .collect();
        format!(
            "{{\"nodes\":[{}],\"edges\":[{}],\"remote_sites\":[{}]}}",
            nodes.join(","),
            edges.join(","),
            sites.join(",")
        )
    }
}

/// Last path segment of a type spelling: `&mut orb::ObjectRef` →
/// `ObjectRef`, `Option<Shared<T>>` → `Option`.
fn ty_tail(raw: &str) -> String {
    let t = raw.replace('&', "").replace("mut ", "");
    let t = t.trim();
    let cut = t.find('<').unwrap_or(t.len());
    let head = &t[..cut];
    head.rsplit("::").next().unwrap_or(head).trim().to_string()
}

/// Build the graph over the analyzed workspace.
pub fn build(files: &[FileAnalysis], idls: &Contracts) -> CallGraph {
    let mut g = CallGraph::default();

    // --- Nodes -------------------------------------------------------------
    for (fi, fa) in files.iter().enumerate() {
        let Some(krate) = graph_crate(fa.crate_dir.as_deref()) else {
            continue;
        };
        for f in &fa.ast.fns {
            let Some(body) = f.body else { continue };
            let imp = fa
                .ast
                .impls
                .iter()
                .filter(|im| im.body.open < body.open && body.close < im.body.close)
                .min_by_key(|im| im.body.close - im.body.open);
            let mut has_deadline = false;
            let mut has_sleep = false;
            for t in &fa.ast.toks[body.open..body.close] {
                if t.kind != TokKind::Ident {
                    continue;
                }
                let lower = t.text.to_ascii_lowercase();
                if lower.contains("deadline") || t.text == "request_timeout" {
                    has_deadline = true;
                }
                if t.text == "sleep" || lower.contains("backoff") {
                    has_sleep = true;
                }
            }
            g.nodes.push(Node {
                krate: krate.clone(),
                owner: imp.map(|i| i.type_name.clone()).unwrap_or_default(),
                name: f.name.clone(),
                trait_name: imp.and_then(|i| i.trait_name.clone()),
                file: fa.path.clone(),
                line: f.line,
                is_test: fa.is_test_line(f.line),
                file_idx: fi,
                body: (body.open, body.close),
                has_deadline,
                has_sleep,
                has_remote: false,
            });
        }
    }

    // --- Indexes -----------------------------------------------------------
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_krate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
        by_krate_name
            .entry((&n.krate, &n.name))
            .or_default()
            .push(i);
        if !n.owner.is_empty() {
            by_owner.entry((&n.owner, &n.name)).or_default().push(i);
        }
    }
    // ALL-CAPS string consts (op names) across the workspace.
    let mut consts: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // Struct shapes: type name → field name → field type tail.
    let mut fields: BTreeMap<&str, BTreeMap<&str, String>> = BTreeMap::new();
    for fa in files {
        for (name, value, _) in &fa.ast.str_consts {
            consts.entry(name).or_default().insert(value);
        }
        for st in &fa.ast.structs {
            let entry = fields.entry(&st.name).or_default();
            for f in &st.fields {
                entry.insert(&f.name, ty_tail(&f.ty));
            }
        }
    }
    // Types the workspace knows the shape of: a typed-resolution miss on
    // one of these is final (the method is off-graph, e.g. on `simnet`),
    // while a miss on an unknown type (generic param, boxed trait object)
    // may still fall through to trait fan-out.
    let mut known_types: BTreeSet<&str> = fields.keys().copied().collect();
    for n in &g.nodes {
        if !n.owner.is_empty() {
            known_types.insert(&n.owner);
        }
    }
    // Return-type index: fn name → the workspace types its declared return
    // type mentions first (`SimResult<Result<NamingClient, Exception>>` →
    // `NamingClient`, the success position). Lets `let c = helper(...)`
    // and `let c = recv.method(...)` initializers type their binding when
    // every fn of that name agrees.
    let mut ret_types: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for fa in files {
        // Only graphed crates: an off-graph fn that shadows a std method
        // name (`expect`, `unwrap`) must not type graph-crate bindings.
        if graph_crate(fa.crate_dir.as_deref()).is_none() {
            continue;
        }
        for f in &fa.ast.fns {
            if f.ret.is_empty() || RESOLVE_STOPLIST.contains(&f.name.as_str()) {
                continue;
            }
            if let Some(ty) = first_known_type(&f.ret, &known_types) {
                ret_types.entry(&f.name).or_default().insert(ty);
            }
        }
    }
    // `impl Deref for X { type Target = Y; }`: X → Y.
    let mut deref: BTreeMap<&str, String> = BTreeMap::new();
    for fa in files {
        for im in &fa.ast.impls {
            if im.trait_name.as_deref() != Some("Deref") {
                continue;
            }
            let body = &fa.ast.toks[im.body.open..im.body.close];
            if let Some(at) = body
                .windows(2)
                .position(|w| w[0].is("type") && w[1].is("Target"))
            {
                let ty = body[at + 3..].iter().take_while(|t| !t.is(";"));
                let ty: Vec<_> = ty.cloned().collect();
                deref.insert(&im.type_name, ty_tail(&crate::ast::join_tokens(&ty)));
            }
        }
    }
    // Interface name → itself plus the interfaces it inherits: the traits
    // whose impls a generated `<I>Skeleton` dispatches to.
    let mut lineage: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for item in &idls.model.items {
        if let idlc::Item::Interface { def, .. } = item {
            let mut line = vec![def.name.as_str()];
            if let Some(base) = &def.base {
                let base = base.rsplit("::").next().unwrap_or(base);
                line.extend(lineage.get(base).into_iter().flatten());
            }
            lineage.insert(&def.name, line);
        }
    }
    // IDL op names, and per-op dispatch skeleton nodes: a `dispatch` fn in
    // an `impl Servant` whose body evidences the op (literal or op const).
    let idl_ops: BTreeSet<&str> = idls.ops().map(|op| op.name.as_str()).collect();
    let mut dispatchers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate() {
        if n.name != "dispatch" || n.trait_name.as_deref() != Some("Servant") {
            continue;
        }
        let fa = &files[n.file_idx];
        for t in &fa.ast.toks[n.body.0..n.body.1] {
            match t.kind {
                TokKind::Lit => {
                    if let Some(op) = idl_ops.get(t.text.as_str()) {
                        dispatchers.entry(op).or_default().push(i);
                    }
                }
                TokKind::Ident => {
                    for v in consts.get(t.text.as_str()).into_iter().flatten() {
                        if let Some(op) = idl_ops.get(*v) {
                            dispatchers.entry(op).or_default().push(i);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // --- Edges -------------------------------------------------------------
    let mut edge_set: BTreeSet<Edge> = BTreeSet::new();
    let mut remote_flags: BTreeSet<usize> = BTreeSet::new();
    for ni in 0..g.nodes.len() {
        let n = g.nodes[ni].clone();
        let fa = &files[n.file_idx];
        let ast = &fa.ast;
        for c in &ast.calls {
            if c.name_tok <= n.body.0 || c.name_tok >= n.body.1 {
                continue;
            }
            // Innermost-fn ownership (nested fns own their own calls).
            if ast
                .enclosing_fn(c.name_tok)
                .map(|o| o.line != n.line || o.name != n.name)
                .unwrap_or(true)
            {
                continue;
            }
            // Generic vocabulary resolves through a recovered receiver
            // type only, never by name.
            let generic = RESOLVE_STOPLIST.contains(&c.method.as_str());
            // `ctx.*` is the simnet syscall layer below the graph — never
            // resolve it (a `ctx.call` is a channel send, not a stub call).
            if c.recv_tail.as_deref() == Some("ctx") {
                continue;
            }
            let is_remote = c.is_method && REMOTE_API.contains(&c.method.as_str());

            // Resolve the call to candidate nodes.
            let mut kind = EdgeKind::Method;
            let mut targets: Vec<usize> = Vec::new();
            if !c.is_method {
                if generic {
                    continue;
                }
                if let Some(v) = by_krate_name.get(&(n.krate.as_str(), c.method.as_str())) {
                    targets = v.clone();
                    kind = EdgeKind::Static;
                } else if let Some(v) = by_name.get(c.method.as_str()) {
                    if v.len() == 1 {
                        targets = v.clone();
                    }
                }
            } else if c.recv_tail.as_deref() == Some("self") {
                if !n.owner.is_empty() {
                    if let Some(v) = by_owner.get(&(n.owner.as_str(), c.method.as_str())) {
                        // Same-crate impls of the owner type win.
                        let local: Vec<usize> = v
                            .iter()
                            .copied()
                            .filter(|&t| g.nodes[t].krate == n.krate)
                            .collect();
                        targets = if local.is_empty() { v.clone() } else { local };
                        kind = EdgeKind::Static;
                    }
                }
                if targets.is_empty() && !generic {
                    if let Some(v) = by_krate_name.get(&(n.krate.as_str(), c.method.as_str())) {
                        targets = v.clone();
                        kind = EdgeKind::Static;
                    }
                }
            } else {
                // Receiver-typed resolution; a recovered type is trusted
                // (no name-based fallback past it, except the stub API).
                let ty = recv_type(fa, &n, c, &fields, &ret_types);
                let mut owner = ty.as_deref();
                while let Some(o) = owner {
                    if let Some(v) = by_owner.get(&(o, c.method.as_str())) {
                        targets = v.clone();
                        break;
                    }
                    owner = deref.get(o).map(String::as_str);
                }
                // A generated skeleton handing the decoded request to
                // the servant: `self.0.m(...)` in `<I>Skeleton::dispatch`
                // reaches every impl of `I`'s (or an inherited) trait.
                let toks = &ast.toks;
                if ty.is_none()
                    && n.name == "dispatch"
                    && n.trait_name.as_deref() == Some("Servant")
                    && c.name_tok >= 4
                    && toks[c.name_tok - 2].text == "0"
                    && toks[c.name_tok - 4].is("self")
                {
                    let iface = n.owner.strip_suffix("Skeleton").unwrap_or("");
                    let traits = lineage.get(iface).map(Vec::as_slice).unwrap_or(&[]);
                    targets = by_name
                        .get(c.method.as_str())
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&t| {
                            let of = g.nodes[t].trait_name.as_deref();
                            of.is_some_and(|of| traits.contains(&of))
                        })
                        .collect();
                    kind = EdgeKind::Dispatch;
                }
                // Stub API: the orb crate implements these.
                if targets.is_empty() && is_remote {
                    if let Some(v) = by_krate_name.get(&("orb", c.method.as_str())) {
                        targets = v.clone();
                        kind = EdgeKind::Stub;
                    }
                }
                // Name-based: trait fan-out (every candidate impls the
                // same trait) or workspace-unique — only for receivers
                // whose type is unrecovered or unknown to the workspace.
                let ty_is_final = ty
                    .as_deref()
                    .map(|t| known_types.contains(t))
                    .unwrap_or(false);
                if targets.is_empty() && !ty_is_final && !generic {
                    if let Some(v) = by_name.get(c.method.as_str()) {
                        let traits: BTreeSet<&str> = v
                            .iter()
                            .filter_map(|&t| g.nodes[t].trait_name.as_deref())
                            .collect();
                        if v.len() == 1 {
                            targets = v.clone();
                        } else if traits.len() == 1
                            && v.iter().all(|&t| g.nodes[t].trait_name.is_some())
                        {
                            targets = v.clone();
                            // Fanning out through `Servant` is the POA
                            // handing a request to a skeleton: that edge
                            // crosses the wire, and client-side facts
                            // (deadlines, backoff) must not flow over it.
                            if traits.contains("Servant") {
                                kind = EdgeKind::Dispatch;
                            }
                        }
                    }
                }
            }
            for &t in &targets {
                // Keep soundly-resolved self-recursion (it is a real retry
                // cycle); drop self-edges from name-based fan-out noise.
                if t == ni && kind != EdgeKind::Static {
                    continue;
                }
                edge_set.insert(Edge {
                    from: ni,
                    to: t,
                    call_tok: c.name_tok,
                    line: c.line,
                    kind,
                });
            }

            if is_remote {
                // Op evidence: a short argument that is a string literal
                // or an ALL-CAPS const naming an IDL operation.
                let mut op: Option<String> = None;
                if OP_CARRYING.contains(&c.method.as_str()) {
                    'args: for arg in &c.args {
                        if arg.toks.1 - arg.toks.0 > 3 {
                            continue;
                        }
                        for t in &ast.toks[arg.toks.0..arg.toks.1] {
                            let found = match t.kind {
                                TokKind::Lit => idl_ops.get(t.text.as_str()).copied(),
                                TokKind::Ident => consts
                                    .get(t.text.as_str())
                                    .and_then(|vals| vals.iter().find(|v| idl_ops.contains(**v)))
                                    .copied(),
                                _ => None,
                            };
                            if let Some(o) = found {
                                op = Some(o.to_string());
                                break 'args;
                            }
                        }
                    }
                }
                if let Some(o) = &op {
                    for &d in dispatchers.get(o.as_str()).into_iter().flatten() {
                        if d != ni {
                            edge_set.insert(Edge {
                                from: ni,
                                to: d,
                                call_tok: c.name_tok,
                                line: c.line,
                                kind: EdgeKind::Dispatch,
                            });
                        }
                    }
                }
                remote_flags.insert(ni);
                g.remote_sites.push(RemoteSite {
                    node: ni,
                    tok: c.name_tok,
                    line: c.line,
                    method: c.method.clone(),
                    op,
                    targets: targets.clone(),
                    is_test: n.is_test || fa.is_test_line(c.line),
                });
            }
        }
    }

    for ni in remote_flags {
        g.nodes[ni].has_remote = true;
    }
    g.edges = edge_set.into_iter().collect();
    g.adj = vec![Vec::new(); g.nodes.len()];
    for (ei, e) in g.edges.iter().enumerate() {
        g.adj[e.from].push(ei);
    }
    g.remote_sites.sort_by_key(|s| (s.node, s.tok));
    g
}

/// First workspace-known type named in a return-type string — the success
/// position of `SimResult<Result<T, Exception>>` wrappers.
fn first_known_type(ret: &str, known: &BTreeSet<&str>) -> Option<String> {
    ret.split(|c: char| !c.is_alphanumeric() && c != '_')
        .find(|seg| known.contains(seg))
        .map(str::to_string)
}

/// Recover the receiver's type for `recv.m(...)`: fn parameter, local
/// `let` binding, or — for `self.field.m(...)` — the owner struct's field.
fn recv_type(
    fa: &FileAnalysis,
    node: &Node,
    call: &crate::ast::Call,
    fields: &BTreeMap<&str, BTreeMap<&str, String>>,
    ret_types: &BTreeMap<&str, BTreeSet<String>>,
) -> Option<String> {
    let recv = call.recv_tail.as_deref()?;
    let ast = &fa.ast;
    let toks = &ast.toks;
    // `self.field.m(...)`: tokens walk `m ( ← . ← field ← . ← self`.
    if call.name_tok >= 4
        && toks[call.name_tok - 1].is(".")
        && toks[call.name_tok - 2].text == recv
        && toks[call.name_tok - 3].is(".")
        && toks[call.name_tok - 4].is("self")
        && !node.owner.is_empty()
    {
        if let Some(ty) = fields.get(node.owner.as_str()).and_then(|m| m.get(recv)) {
            return Some(ty.clone());
        }
    }
    // Fn parameter `recv: T`.
    let item = ast
        .fns
        .iter()
        .find(|f| f.line == node.line && f.name == node.name)?;
    for p in &item.params {
        if p.name == recv && !p.ty.is_empty() {
            return Some(ty_tail(&p.ty));
        }
    }
    // `let [mut] recv [: T] = [T2 ::|{] ...` inside the body.
    let body = item.body?;
    let mut i = body.open;
    while i + 2 < body.close {
        if !toks[i].is("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).map(|t| t.is("mut")).unwrap_or(false) {
            j += 1;
        }
        if toks.get(j).map(|t| t.text != recv).unwrap_or(true) {
            i += 1;
            continue;
        }
        j += 1;
        // Explicit ascription: `: T =`.
        if toks.get(j).map(|t| t.is(":")).unwrap_or(false) {
            let ty_start = j + 1;
            let mut k = ty_start;
            while k < body.close && !toks[k].is("=") && !toks[k].is(";") {
                k += 1;
            }
            if k > ty_start {
                return Some(ty_tail(&crate::ast::join_tokens(&toks[ty_start..k])));
            }
        }
        // Initializer: `= T::...`, `= T { ...`, or a call whose declared
        // return type names a workspace type (`= helper(...)`,
        // `= recv.method(...).unwrap()...`).
        if toks.get(j).map(|t| t.is("=")).unwrap_or(false) {
            // Walk a path `A :: B :: C` or a chain `a . b . c` up to the
            // call paren / struct-literal brace.
            let mut segs: Vec<&str> = Vec::new();
            let mut pure_path = true;
            let mut k = j + 1;
            while k < body.close {
                let t = &toks[k];
                if t.kind == TokKind::Ident {
                    segs.push(&t.text);
                    k += 1;
                    if toks.get(k).map(|t| t.is("::")).unwrap_or(false) {
                        k += 1;
                        continue;
                    }
                    if toks.get(k).map(|t| t.is(".")).unwrap_or(false) {
                        pure_path = false;
                        k += 1;
                        continue;
                    }
                    break;
                }
                break;
            }
            let ends_call = toks.get(k).map(|t| t.is("(")).unwrap_or(false);
            let ends_lit = toks.get(k).map(|t| t.is("{")).unwrap_or(false);
            // `T::f(...)`: associated constructor — the type is the
            // segment before the fn.
            if pure_path && segs.len() >= 2 && ends_call {
                return Some(segs[segs.len() - 2].to_string());
            }
            if pure_path && segs.len() == 1 && ends_lit {
                return Some(segs[0].to_string());
            }
            // Any other call head: type from the callee's declared return
            // when every fn of that name agrees on one workspace type.
            if ends_call {
                if let Some(tys) = segs.last().and_then(|f| ret_types.get(f)) {
                    if tys.len() == 1 {
                        return Some(tys.iter().next().unwrap().clone());
                    }
                }
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<FileAnalysis> = sources
            .iter()
            .map(|(path, src)| {
                let dir = crate::crate_dir_of(path);
                FileAnalysis::new(path, dir.as_deref(), src)
            })
            .collect();
        build(&files, &Default::default())
    }

    #[test]
    fn nodes_keyed_by_crate_impl_fn() {
        let g = graph_of(&[(
            "crates/ft/src/a.rs",
            "struct P;\nimpl P {\n fn go(&self) { self.step(); }\n fn step(&self) {}\n}\nfn free() {}\n",
        )]);
        assert_eq!(g.nodes.len(), 3);
        let go = g.nodes.iter().find(|n| n.name == "go").unwrap();
        assert_eq!(go.owner, "P");
        assert_eq!(go.krate, "ft");
        let free = g.nodes.iter().find(|n| n.name == "free").unwrap();
        assert_eq!(free.owner, "");
        // self.step() resolved within the impl.
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, EdgeKind::Static);
    }

    #[test]
    fn receiver_type_resolution_via_param_and_field() {
        let g = graph_of(&[
            (
                "crates/orb/src/object.rs",
                "pub struct ObjectRef;\nimpl ObjectRef {\n pub fn call(&self) { let deadline = 1; let _ = deadline; }\n}\n",
            ),
            (
                "crates/ft/src/client.rs",
                "pub struct C { obj: ObjectRef }\nimpl C {\n pub fn hit(&self) { self.obj.call(); }\n}\n",
            ),
        ]);
        let hit = g.nodes.iter().position(|n| n.name == "hit").unwrap();
        let call = g.nodes.iter().position(|n| n.name == "call").unwrap();
        assert!(g.edges.iter().any(|e| e.from == hit && e.to == call));
        assert!(g.nodes[call].has_deadline);
        assert_eq!(g.remote_sites.len(), 1);
        assert_eq!(g.remote_sites[0].targets, vec![call]);
    }

    #[test]
    fn trait_fanout_resolves_dispatch() {
        let g = graph_of(&[(
            "crates/orb/src/poa.rs",
            "struct A; struct B;\nimpl Servant for A {\n fn dispatch(&mut self) {}\n}\nimpl Servant for B {\n fn dispatch(&mut self) {}\n}\nfn route(s: &mut S) { s.dispatch(); }\n",
        )]);
        let route = g.nodes.iter().position(|n| n.name == "route").unwrap();
        let outs: Vec<_> = g.edges_from(route).collect();
        assert_eq!(outs.len(), 2, "{outs:?}");
    }

    #[test]
    fn ctx_call_is_not_a_remote_site() {
        let g = graph_of(&[(
            "crates/orb/src/core.rs",
            "fn f(ctx: &mut Ctx) { ctx.call(1); }\n",
        )]);
        assert!(g.remote_sites.is_empty());
    }
}
