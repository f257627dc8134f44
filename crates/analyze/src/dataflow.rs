//! Origin-set taint analysis and per-function summaries.
//!
//! Where the old engine tracked a flat *set of tainted names*, this pass
//! tracks **which parameters** flow into every binding and site, as a
//! bitmask over parameter positions (bit `i` = the i-th parameter,
//! including a `self` receiver at its declared position; parameters past
//! 62 share the last bit, conservatively). That single change is what
//! makes constant-flow checking interprocedural: a call site records the
//! origin mask of every argument, so the call-graph pass in
//! [`crate::callgraph`] can translate a caller's taint context into the
//! callee's and check the callee's sites *in that context* — no pragma
//! needed on the callee.
//!
//! [`summarize`] is the per-file workhorse: statement tree → local taint
//! environment (a monotone fixpoint over `let` / `for` / `if let` /
//! match-arm bindings, with `.len()` / `.is_empty()` and pragma-listed
//! public fields laundering taint exactly as before) → a [`FnSummary`]
//! holding every interesting **site** (branches, short-circuits, indexing,
//! early exits, allocating calls, file-write/sync effects, and call sites
//! with per-argument origin masks) plus the basic-block CFG the
//! crash-consistency dataflow walks. Summaries are plain data, and all
//! the global passes ever look at.

use crate::cfg::{self, FnDecl, Stmt};
use crate::lexer::{Tok, TokKind};
use std::collections::{HashMap, HashSet};

/// Methods whose results are considered public even on tainted receivers:
/// sizes are part of the semi-oblivious contract (visible in every address
/// trace), so branching on them is structure, not data.
pub const TAINT_LAUNDERING: &[&str] = &["len", "is_empty"];

/// Idents whose presence marks a torn-tail guard in a replay function:
/// trimming to the committed prefix (`rposition` / `rfind` on the byte
/// stream, `set_len` / `truncate` repair) or explicitly classifying a
/// short read (`Truncated` error construction).
pub const TAIL_GUARDS: &[&str] = &["rposition", "rfind", "set_len", "truncate", "Truncated"];

/// Method / associated-fn names that allocate from the global heap.
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "clone",
    "collect",
    "push",
    "push_str",
    "insert",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "with_capacity",
    "resize",
    "append",
    "into_vec",
    "into_boxed_slice",
    "split_off",
];

/// Types whose `new()` (and `from*` constructors) allocate.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "VecDeque", "Rc", "Arc",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Sentinel successor meaning "function exit".
pub const EXIT: u32 = u32::MAX;

/// How a branch site was spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    If,
    While,
    Match,
    /// `&&` / `||` — lazy evaluation is a hidden branch.
    Short,
}

/// How a call site was spelled, which decides how it resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(..)`.
    Free,
    /// `self.name(..)` — resolves within the caller's impl type.
    SelfMethod,
    /// `recv.name(..)` — resolves only if the name is workspace-unique.
    Method,
    /// `Qual::name(..)` — resolves against `impl Qual` or free fns.
    Qualified,
}

/// One call site with per-argument origin masks.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub line: u32,
    pub name: String,
    pub kind: CallKind,
    /// The `Qual` of a qualified call, else empty.
    pub qual: String,
    /// Origin mask of the receiver chain (method calls), else 0.
    pub recv: u64,
    /// Origin mask of each argument, in order.
    pub args: Vec<u64>,
}

/// One interesting site inside a function body.
#[derive(Debug, Clone)]
pub enum Site {
    /// `if` / `while` / `match` / `&&`-`||` with the condition's mask.
    Branch {
        line: u32,
        kind: BranchKind,
        mask: u64,
    },
    /// Indexing `x[i]` with the index expression's mask.
    Index { line: u32, mask: u64 },
    /// An early exit: `return` (mask = enclosing guard conditions) or `?`
    /// (mask additionally includes the tried expression). `is_err` marks
    /// error exits (`return Err(..)` and every `?`), which the
    /// crash-consistency lints exempt from the completion-exit rule.
    Exit {
        line: u32,
        mask: u64,
        is_try: bool,
        is_err: bool,
    },
    /// A heap-allocating call or macro.
    Alloc { line: u32, what: String },
    /// A file append (`write_all` / `write!` / ..) or sync
    /// (`sync_data` / `sync_all`) effect.
    Io { line: u32, write: bool },
    /// A call that may resolve to a workspace function.
    Call(CallSite),
}

impl Site {
    pub fn line(&self) -> u32 {
        match self {
            Site::Branch { line, .. }
            | Site::Index { line, .. }
            | Site::Exit { line, .. }
            | Site::Alloc { line, .. }
            | Site::Io { line, .. } => *line,
            Site::Call(c) => c.line,
        }
    }
}

/// One basic block: site indices in execution order plus successors.
/// [`EXIT`] as a successor means the function's end (a completion exit).
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub sites: Vec<u32>,
    pub succs: Vec<u32>,
}

/// Everything the global passes need to know about one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub name: String,
    pub owner: Option<String>,
    pub line: u32,
    pub end_line: u32,
    pub params: Vec<String>,
    pub in_test: bool,
    pub sites: Vec<Site>,
    pub blocks: Vec<Block>,
    /// Tail-guard idents present in the body (see [`TAIL_GUARDS`]).
    pub mentions: Vec<String>,
}

impl FnSummary {
    /// Bit for the parameter at `pos` (positions past 62 share bit 62).
    pub fn param_bit(pos: usize) -> u64 {
        1u64 << pos.min(62)
    }

    /// Mask with a bit per parameter.
    pub fn all_params_mask(&self) -> u64 {
        let mut m = 0u64;
        for i in 0..self.params.len() {
            m |= Self::param_bit(i);
        }
        m
    }

    /// Mask for the parameters *not* named in `public` (the root taint of
    /// a constant-flow function).
    pub fn root_taint(&self, public: &HashSet<String>) -> u64 {
        let mut m = 0u64;
        for (i, p) in self.params.iter().enumerate() {
            if !public.contains(p.as_str()) {
                m |= Self::param_bit(i);
            }
        }
        m
    }

    /// Position of the `self` receiver, if any.
    pub fn self_pos(&self) -> Option<usize> {
        self.params.iter().position(|p| p == "self")
    }
}

/// Build the summary of one function: taint environment fixpoint over the
/// statement tree, then site extraction + CFG lowering. `public` is the
/// constant-flow pragma's public list (empty without a pragma): it
/// launders `self.<public field>` projections at mask-construction time.
pub fn summarize(toks: &[Tok], decl: &FnDecl, public: &HashSet<String>) -> FnSummary {
    let stmts = cfg::parse_body(toks, decl.body_open + 1, decl.body_close);
    let mut env: HashMap<String, u64> = HashMap::new();
    for (i, p) in decl.params.iter().enumerate() {
        env.insert(p.clone(), FnSummary::param_bit(i));
    }
    // Monotone fixpoint: three rounds cover bindings used textually before
    // a later binding re-mentions them (two sufficed for the old engine;
    // match-arm bindings add one more hop).
    for _ in 0..3 {
        bind_pass(toks, &stmts, public, &mut env);
    }

    let mut lw = Lowerer {
        toks,
        env: &env,
        public,
        sites: Vec::new(),
        blocks: vec![Block::default()],
        loops: Vec::new(),
        guards: Vec::new(),
    };
    let last = lw.stmts(&stmts, 0);
    lw.blocks[last as usize].succs.push(EXIT);

    let mut mentions: Vec<String> = Vec::new();
    for t in &toks[decl.body_open..decl.body_close.min(toks.len())] {
        if let Some(name) = t.ident() {
            if TAIL_GUARDS.contains(&name) && !mentions.iter().any(|m| m == name) {
                mentions.push(name.to_string());
            }
        }
    }

    FnSummary {
        name: decl.name.clone(),
        owner: decl.owner.clone(),
        line: decl.line,
        end_line: decl.end_line,
        params: decl.params.clone(),
        in_test: decl.in_test,
        sites: lw.sites,
        blocks: lw.blocks,
        mentions,
    }
}

/// One taint-binding sweep over the statement tree.
fn bind_pass(
    toks: &[Tok],
    stmts: &[Stmt],
    public: &HashSet<String>,
    env: &mut HashMap<String, u64>,
) {
    for s in stmts {
        match s {
            Stmt::Let { binds, init, .. } => {
                if let Some(&(a, b)) = init.as_ref() {
                    let m = eval_mask(toks, a, b, env, public);
                    bind_all(binds, m, env);
                }
            }
            Stmt::If {
                cond,
                let_binds,
                then_b,
                else_b,
                ..
            } => {
                let m = eval_mask(toks, cond.0, cond.1, env, public);
                bind_all(let_binds, m, env);
                bind_pass(toks, then_b, public, env);
                bind_pass(toks, else_b, public, env);
            }
            Stmt::While {
                cond,
                let_binds,
                body,
                ..
            } => {
                let m = eval_mask(toks, cond.0, cond.1, env, public);
                bind_all(let_binds, m, env);
                bind_pass(toks, body, public, env);
            }
            Stmt::Loop { body } => bind_pass(toks, body, public, env),
            Stmt::For {
                binds, iter, body, ..
            } => {
                let m = eval_mask(toks, iter.0, iter.1, env, public);
                bind_all(binds, m, env);
                bind_pass(toks, body, public, env);
            }
            Stmt::Match {
                scrutinee, arms, ..
            } => {
                let m = eval_mask(toks, scrutinee.0, scrutinee.1, env, public);
                for arm in arms {
                    bind_all(&arm.binds, m, env);
                    bind_pass(toks, &arm.body, public, env);
                }
            }
            Stmt::Return { .. } | Stmt::Break { .. } | Stmt::Continue { .. } => {}
            Stmt::Expr { .. } => {}
        }
    }
}

fn bind_all(binds: &[String], mask: u64, env: &mut HashMap<String, u64>) {
    if mask == 0 {
        return;
    }
    for b in binds {
        *env.entry(b.clone()).or_insert(0) |= mask;
    }
}

/// Origin mask of the expression span `toks[start..end)`.
///
/// Chains are evaluated left to right: a tainted base keeps its mask
/// through field projections and method calls, except projections onto a
/// pragma-declared public field and the size methods in
/// [`TAINT_LAUNDERING`], which zero the chain. Call results pick up the
/// union of their argument masks via the continuing linear scan.
pub fn eval_mask(
    toks: &[Tok],
    start: usize,
    end: usize,
    env: &HashMap<String, u64>,
    public: &HashSet<String>,
) -> u64 {
    let mut mask = 0u64;
    let mut i = start;
    let end = end.min(toks.len());
    while i < end {
        let t = &toks[i];
        if let Some(name) = t.ident() {
            // Skip path segments `Foo::bar` — enum variants and constants
            // are not data.
            if toks.get(i + 1).is_some_and(|n| n.is_punct("::")) {
                i += 2;
                continue;
            }
            let mut chain = env.get(name).copied().unwrap_or(0);
            let mut j = i + 1;
            while j + 1 < toks.len() && toks[j].is_punct(".") {
                let Some(field) = toks[j + 1].ident() else {
                    break;
                };
                let is_call = toks.get(j + 2).is_some_and(|n| n.is_punct("("));
                // A `.field` projection launders when the field is declared
                // public; a call does when it is a size query or a declared
                // public accessor (`self.fused_rows()` — the iteration
                // structure is the documented residual leak).
                let launders =
                    public.contains(field) || (is_call && TAINT_LAUNDERING.contains(&field));
                if launders {
                    chain = 0;
                }
                j += 2;
                if is_call {
                    break; // arguments are folded in by the linear walk
                }
            }
            mask |= chain;
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    mask
}

/// Keywords that start statements, never calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "fn", "let",
    "move", "in", "as", "mut", "ref", "unsafe", "impl", "struct", "enum", "use", "pub", "where",
    "const", "static", "type", "trait", "mod", "dyn",
];

struct Lowerer<'a> {
    toks: &'a [Tok],
    env: &'a HashMap<String, u64>,
    public: &'a HashSet<String>,
    sites: Vec<Site>,
    blocks: Vec<Block>,
    /// (continue-target block, break fixup list) per enclosing loop.
    loops: Vec<(u32, Vec<u32>)>,
    /// Condition masks of the enclosing branches.
    guards: Vec<u64>,
}

impl Lowerer<'_> {
    fn new_block(&mut self) -> u32 {
        self.blocks.push(Block::default());
        (self.blocks.len() - 1) as u32
    }

    fn edge(&mut self, from: u32, to: u32) {
        self.blocks[from as usize].succs.push(to);
    }

    fn site(&mut self, blk: u32, s: Site) -> u32 {
        let id = self.sites.len() as u32;
        self.sites.push(s);
        self.blocks[blk as usize].sites.push(id);
        id
    }

    fn guard_mask(&self) -> u64 {
        self.guards.iter().fold(0, |a, b| a | b)
    }

    fn mask(&self, span: (usize, usize)) -> u64 {
        eval_mask(self.toks, span.0, span.1, self.env, self.public)
    }

    /// Lower a statement list into `cur`, returning the block control
    /// falls out of.
    fn stmts(&mut self, stmts: &[Stmt], mut cur: u32) -> u32 {
        for s in stmts {
            cur = self.stmt(s, cur);
        }
        cur
    }

    fn stmt(&mut self, s: &Stmt, cur: u32) -> u32 {
        match s {
            Stmt::Let { init, spliced, .. } => {
                // A spliced block initializer already lowered its inner
                // statements (and their sites) just before this binding;
                // re-walking the flat span would double-count them.
                if !spliced {
                    if let Some(&(a, b)) = init.as_ref() {
                        self.span_sites((a, b), cur);
                    }
                }
                cur
            }
            Stmt::Expr { range, .. } => {
                self.span_sites(*range, cur);
                cur
            }
            Stmt::If {
                line,
                cond,
                then_b,
                else_b,
                ..
            } => {
                self.span_sites(*cond, cur);
                let m = self.mask(*cond);
                self.site(
                    cur,
                    Site::Branch {
                        line: *line,
                        kind: BranchKind::If,
                        mask: m,
                    },
                );
                let join = self.new_block();
                self.guards.push(m);
                let then_blk = self.new_block();
                self.edge(cur, then_blk);
                let then_end = self.stmts(then_b, then_blk);
                self.edge(then_end, join);
                if else_b.is_empty() {
                    self.edge(cur, join);
                } else {
                    let else_blk = self.new_block();
                    self.edge(cur, else_blk);
                    let else_end = self.stmts(else_b, else_blk);
                    self.edge(else_end, join);
                }
                self.guards.pop();
                join
            }
            Stmt::While {
                line, cond, body, ..
            } => {
                let header = self.new_block();
                self.edge(cur, header);
                self.span_sites(*cond, header);
                let m = self.mask(*cond);
                self.site(
                    header,
                    Site::Branch {
                        line: *line,
                        kind: BranchKind::While,
                        mask: m,
                    },
                );
                let after = self.new_block();
                self.edge(header, after);
                self.guards.push(m);
                self.loops.push((header, Vec::new()));
                let body_blk = self.new_block();
                self.edge(header, body_blk);
                let body_end = self.stmts(body, body_blk);
                self.edge(body_end, header);
                self.guards.pop();
                if let Some((_, brks)) = self.loops.pop() {
                    for b in brks {
                        self.edge(b, after);
                    }
                }
                after
            }
            Stmt::Loop { body } => {
                let header = self.new_block();
                self.edge(cur, header);
                let after = self.new_block();
                self.loops.push((header, Vec::new()));
                let body_end = self.stmts(body, header);
                self.edge(body_end, header);
                if let Some((_, brks)) = self.loops.pop() {
                    for b in brks {
                        self.edge(b, after);
                    }
                }
                after
            }
            Stmt::For { iter, body, .. } => {
                self.span_sites(*iter, cur);
                let m = self.mask(*iter);
                let after = self.new_block();
                self.edge(cur, after); // zero iterations
                self.guards.push(m);
                self.loops.push((cur, Vec::new()));
                let body_blk = self.new_block();
                self.edge(cur, body_blk);
                let body_end = self.stmts(body, body_blk);
                self.edge(body_end, body_blk); // next iteration
                self.edge(body_end, after);
                self.guards.pop();
                if let Some((_, brks)) = self.loops.pop() {
                    for b in brks {
                        self.edge(b, after);
                    }
                }
                after
            }
            Stmt::Match {
                line,
                scrutinee,
                arms,
            } => {
                self.span_sites(*scrutinee, cur);
                let m = self.mask(*scrutinee);
                self.site(
                    cur,
                    Site::Branch {
                        line: *line,
                        kind: BranchKind::Match,
                        mask: m,
                    },
                );
                let join = self.new_block();
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                for arm in arms {
                    let ablk = self.new_block();
                    self.edge(cur, ablk);
                    let mut g = m;
                    if let Some(gspan) = arm.guard {
                        self.span_sites(gspan, ablk);
                        g |= self.mask(gspan);
                    }
                    self.guards.push(g);
                    let aend = self.stmts(&arm.body, ablk);
                    self.guards.pop();
                    self.edge(aend, join);
                }
                join
            }
            Stmt::Return { line, expr } => {
                self.span_sites(*expr, cur);
                let is_err = self.toks.get(expr.0).is_some_and(|t| t.is_ident("Err"));
                self.site(
                    cur,
                    Site::Exit {
                        line: *line,
                        mask: self.guard_mask(),
                        is_try: false,
                        is_err,
                    },
                );
                self.new_block() // dead
            }
            Stmt::Break { .. } => {
                if let Some((_, brks)) = self.loops.last_mut() {
                    brks.push(cur);
                }
                self.new_block()
            }
            Stmt::Continue { .. } => {
                let target = self.loops.last().map(|(h, _)| *h);
                if let Some(h) = target {
                    self.edge(cur, h);
                }
                self.new_block()
            }
        }
    }

    /// Flat scan of an expression span: `?`, embedded control keywords,
    /// indexing, short-circuits, calls, allocs, io effects.
    fn span_sites(&mut self, span: (usize, usize), blk: u32) {
        let (start, end) = span;
        let end = end.min(self.toks.len());
        let mut i = start;
        while i < end {
            let t = &self.toks[i];
            match &t.kind {
                TokKind::Punct("?") => {
                    let prev_ok = i > start
                        && (matches!(self.toks[i - 1].kind, TokKind::Ident(_))
                            || self.toks[i - 1].is_punct(")")
                            || self.toks[i - 1].is_punct("]"));
                    if prev_ok {
                        let chain = eval_mask(self.toks, start, i, self.env, self.public);
                        self.site(
                            blk,
                            Site::Exit {
                                line: t.line,
                                mask: self.guard_mask() | chain,
                                is_try: true,
                                is_err: true,
                            },
                        );
                    }
                }
                TokKind::Punct("&&") | TokKind::Punct("||") => {
                    let binary = i > start
                        && (matches!(self.toks[i - 1].kind, TokKind::Ident(_) | TokKind::Number)
                            || self.toks[i - 1].is_punct(")")
                            || self.toks[i - 1].is_punct("]"));
                    if binary {
                        self.site(
                            blk,
                            Site::Branch {
                                line: t.line,
                                kind: BranchKind::Short,
                                mask: eval_mask(self.toks, start, end, self.env, self.public),
                            },
                        );
                    }
                }
                TokKind::Punct("[") => {
                    let indexing = i > start
                        && (matches!(self.toks[i - 1].kind, TokKind::Ident(_))
                            || self.toks[i - 1].is_punct(")")
                            || self.toks[i - 1].is_punct("]"));
                    if indexing {
                        let close = self.match_square(i, end);
                        let m = eval_mask(self.toks, i + 1, close, self.env, self.public);
                        self.site(
                            blk,
                            Site::Index {
                                line: t.line,
                                mask: m,
                            },
                        );
                    }
                }
                TokKind::Ident(name) => {
                    let name = name.as_str();
                    if name == "return" {
                        let is_err = self.toks.get(i + 1).is_some_and(|n| n.is_ident("Err"));
                        self.site(
                            blk,
                            Site::Exit {
                                line: t.line,
                                mask: self.guard_mask()
                                    | eval_mask(self.toks, start, i, self.env, self.public),
                                is_try: false,
                                is_err,
                            },
                        );
                    } else if (name == "if" || name == "while" || name == "match")
                        && !self.toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    {
                        // Control flow embedded in an expression (a match
                        // used as a value, a closure body, a let-else).
                        let cstart = if self.toks.get(i + 1).is_some_and(|n| n.is_ident("let")) {
                            // Scrutinee after the `=`.
                            let mut j = i + 2;
                            while j < end && !self.toks[j].is_punct("=") {
                                j += 1;
                            }
                            j + 1
                        } else {
                            i + 1
                        };
                        let open = cfg::block_open(self.toks, cstart, end);
                        let kind = match name {
                            "while" => BranchKind::While,
                            "match" => BranchKind::Match,
                            _ => BranchKind::If,
                        };
                        self.site(
                            blk,
                            Site::Branch {
                                line: t.line,
                                kind,
                                mask: eval_mask(self.toks, cstart, open, self.env, self.public),
                            },
                        );
                    } else if self.toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
                        && self
                            .toks
                            .get(i + 2)
                            .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
                    {
                        if ALLOC_MACROS.contains(&name) {
                            self.site(
                                blk,
                                Site::Alloc {
                                    line: t.line,
                                    what: format!("{name}!"),
                                },
                            );
                        } else if name == "write" || name == "writeln" {
                            self.site(
                                blk,
                                Site::Io {
                                    line: t.line,
                                    write: true,
                                },
                            );
                        }
                        i += 2;
                    } else if self.toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                        && !KEYWORDS.contains(&name)
                        && !(i > 0 && self.toks[i - 1].is_ident("fn"))
                    {
                        self.call_site(i, name, start, end, blk);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Classify and record the call whose name ident sits at `i`.
    fn call_site(&mut self, i: usize, name: &str, span_start: usize, end: usize, blk: u32) {
        let t = &self.toks[i];
        let prev_dot = i > 0 && self.toks[i - 1].is_punct(".");
        let prev_path = i > 0 && self.toks[i - 1].is_punct("::");

        if prev_dot && (TAINT_LAUNDERING.contains(&name) || self.public.contains(name)) {
            // Size queries and declared-public accessors: their results are
            // input-independent by declaration, so the call is neither a
            // taint source nor a constant-flow propagation edge.
            return;
        }

        // Effects first: they are effects wherever they resolve.
        if prev_dot && (name == "write_all" || name == "write" || name == "write_vectored") {
            self.site(
                blk,
                Site::Io {
                    line: t.line,
                    write: true,
                },
            );
            return;
        }
        if prev_dot && (name == "sync_data" || name == "sync_all") {
            self.site(
                blk,
                Site::Io {
                    line: t.line,
                    write: false,
                },
            );
            return;
        }

        let qual = if prev_path {
            self.toks
                .get(i.wrapping_sub(2))
                .and_then(|q| q.ident())
                .unwrap_or("")
        } else {
            ""
        };
        if prev_dot && ALLOC_METHODS.contains(&name) {
            self.site(
                blk,
                Site::Alloc {
                    line: t.line,
                    what: format!(".{name}()"),
                },
            );
            return;
        }
        if prev_path && ALLOC_TYPES.contains(&qual) {
            self.site(
                blk,
                Site::Alloc {
                    line: t.line,
                    what: format!("{qual}::{name}"),
                },
            );
            return;
        }

        let (kind, recv) = if prev_dot {
            let chain_start = self.chain_start(i - 1, span_start);
            let is_self = chain_start + 2 == i && self.toks[chain_start].is_ident("self");
            let recv = eval_mask(self.toks, chain_start, i - 1, self.env, self.public);
            (
                if is_self {
                    CallKind::SelfMethod
                } else {
                    CallKind::Method
                },
                recv,
            )
        } else if prev_path {
            (CallKind::Qualified, 0)
        } else {
            // A bare call on a let-bound name is a closure (or fn-pointer)
            // invocation, not a workspace free fn — resolving it by name
            // would wire the call graph to an unrelated same-named fn.
            if self.env.contains_key(name) {
                return;
            }
            (CallKind::Free, 0)
        };

        let args = self.arg_masks(i + 1, end);
        self.site(
            blk,
            Site::Call(CallSite {
                line: t.line,
                name: name.to_string(),
                kind,
                qual: qual.to_string(),
                recv,
                args,
            }),
        );
    }

    /// Walk a method-call receiver chain backwards from the `.` at `dot`.
    fn chain_start(&self, dot: usize, limit: usize) -> usize {
        let mut i = dot;
        while i > limit {
            let p = &self.toks[i - 1];
            if p.is_punct(")") || p.is_punct("]") {
                // Match backwards to the opener.
                let (open, close) = if p.is_punct(")") {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0i32;
                let mut j = i - 1;
                loop {
                    if self.toks[j].is_punct(close) {
                        depth += 1;
                    } else if self.toks[j].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == limit {
                        break;
                    }
                    j -= 1;
                }
                i = j;
                continue;
            }
            if matches!(p.kind, TokKind::Ident(_)) || p.is_punct(".") || p.is_punct("::") {
                i -= 1;
                continue;
            }
            break;
        }
        i
    }

    /// Per-argument origin masks of the call whose `(` sits at `open`.
    fn arg_masks(&self, open: usize, end: usize) -> Vec<u64> {
        let mut args = Vec::new();
        let close = self.match_paren(open, end);
        if close <= open + 1 {
            return args; // no arguments
        }
        let mut depth = 0i32;
        let mut arg_start = open + 1;
        let mut i = open;
        while i <= close && i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    if i > arg_start && args.len() < 16 {
                        args.push(eval_mask(self.toks, arg_start, i, self.env, self.public));
                    }
                    break;
                }
            } else if t.is_punct(",") && depth == 1 && args.len() < 16 {
                args.push(eval_mask(self.toks, arg_start, i, self.env, self.public));
                arg_start = i + 1;
            }
            i += 1;
        }
        args
    }

    fn match_paren(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        let end = end.min(self.toks.len());
        while i < end {
            if self.toks[i].is_punct("(") {
                depth += 1;
            } else if self.toks[i].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end
    }

    fn match_square(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        let end = end.min(self.toks.len());
        while i < end {
            if self.toks[i].is_punct("[") {
                depth += 1;
            } else if self.toks[i].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::find_fns;
    use crate::lexer::lex;

    fn summary(src: &str, public: &[&str]) -> FnSummary {
        let lexed = lex(src);
        let decl = &find_fns(&lexed.toks)[0];
        let public: HashSet<String> = public.iter().map(|s| s.to_string()).collect();
        summarize(&lexed.toks, decl, &public)
    }

    #[test]
    fn param_masks_flow_through_lets() {
        let src = "fn f(x: u64, n: usize) {\n\
                       let y = x + 1;\n\
                       let z = n * 2;\n\
                       if y > 0 { g(); }\n\
                       if z > 0 { g(); }\n\
                   }\n";
        let s = summary(src, &[]);
        let branches: Vec<u64> = s
            .sites
            .iter()
            .filter_map(|site| match site {
                Site::Branch { mask, kind, .. } if *kind == BranchKind::If => Some(*mask),
                _ => None,
            })
            .collect();
        assert_eq!(branches, vec![1, 2], "{:?}", s.sites);
    }

    #[test]
    fn len_launders_and_public_fields_launder() {
        let src = "fn f(&mut self, x: u64) {\n\
                       if self.w > 0 { g(); }\n\
                       if x.len() > 0 { g(); }\n\
                       if self.data > 0 { g(); }\n\
                   }\n";
        let s = summary(src, &["w"]);
        let branches: Vec<u64> = s
            .sites
            .iter()
            .filter_map(|site| match site {
                Site::Branch { mask, .. } => Some(*mask),
                _ => None,
            })
            .collect();
        // self.w public → 0; x.len() laundered → 0; self.data → self bit.
        assert_eq!(branches, vec![0, 0, 1]);
    }

    #[test]
    fn call_sites_carry_arg_masks() {
        let src = "fn f(x: u64, n: usize) {\n\
                       helper(x, n, 3);\n\
                       self.step(n);\n\
                   }\n";
        let s = summary(src, &[]);
        let calls: Vec<&CallSite> = s
            .sites
            .iter()
            .filter_map(|site| match site {
                Site::Call(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].name, "helper");
        assert_eq!(calls[0].kind, CallKind::Free);
        assert_eq!(calls[0].args, vec![1, 2, 0]);
        assert_eq!(calls[1].name, "step");
        assert_eq!(calls[1].kind, CallKind::SelfMethod); // spelled on `self`
    }

    #[test]
    fn returns_record_guard_masks() {
        let src = "fn f(x: u64, n: usize) -> u64 {\n\
                       if n == 0 { return 1; }\n\
                       if x == 0 { return 2; }\n\
                       x\n\
                   }\n";
        let s = summary(src, &["n"]);
        let exits: Vec<u64> = s
            .sites
            .iter()
            .filter_map(|site| match site {
                Site::Exit { mask, .. } => Some(*mask),
                _ => None,
            })
            .collect();
        // First return guarded by public n (mask has n's bit), second by x.
        assert_eq!(exits, vec![2, 1]);
    }

    #[test]
    fn io_and_alloc_sites() {
        let src = "fn f(&mut self) -> std::io::Result<()> {\n\
                       let mut v = Vec::new();\n\
                       v.push(1);\n\
                       self.file.write_all(b\"x\")?;\n\
                       self.file.sync_data()?;\n\
                       Ok(())\n\
                   }\n";
        let s = summary(src, &[]);
        let allocs = s
            .sites
            .iter()
            .filter(|s| matches!(s, Site::Alloc { .. }))
            .count();
        let writes = s
            .sites
            .iter()
            .filter(|s| matches!(s, Site::Io { write: true, .. }))
            .count();
        let syncs = s
            .sites
            .iter()
            .filter(|s| matches!(s, Site::Io { write: false, .. }))
            .count();
        assert_eq!((allocs, writes, syncs), (2, 1, 1), "{:?}", s.sites);
    }

    #[test]
    fn cfg_has_loop_back_edges() {
        let src = "fn f(n: usize) { while n > 0 { g(); } h(); }\n";
        let s = summary(src, &[]);
        // Some block must point back to an earlier block (the loop).
        let back = s
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|&t| t != EXIT && (t as usize) <= i));
        assert!(back, "{:?}", s.blocks);
    }

    #[test]
    fn self_method_spelling_detected() {
        let src = "fn f(&mut self) { self.step(); self.queue.refill(); }\n";
        let s = summary(src, &[]);
        let kinds: Vec<CallKind> = s
            .sites
            .iter()
            .filter_map(|site| match site {
                Site::Call(c) => Some(c.kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![CallKind::SelfMethod, CallKind::Method]);
    }
}
