//! Lowering: compiles a [`Program`] into a flat, index-resolved instruction
//! stream for the register-VM executor in `anduril-sim`.
//!
//! The tree-walking interpreter re-traverses `Expr` trees and re-resolves
//! template/handler metadata on every execution of every statement. Because
//! the Explorer replays the same program thousands of times per search, that
//! per-step overhead dominates reproduction time (the paper's §7 measures
//! reproduction cost as run count × run cost). Lowering moves all of it to a
//! once-per-program compile:
//!
//! - every statement becomes one [`Instr`] in a single flat array, addressed
//!   by `stmt_base[block] + idx` (so a [`StmtRef`] maps to an index with two
//!   adds, no nested `Vec` walks);
//! - every expression gets one compiled form ([`CExpr`]): a flat scalar
//!   tree ([`SNode`]) the executor evaluates by reference when it builds no
//!   value, a run of register ops ([`EOp`]) when it does; the register file
//!   is allocated once per run and reused across statements;
//! - literals live in a constant pool; log templates are pre-split into
//!   text/argument segments so bodies render into a single `String` with no
//!   intermediate per-argument strings;
//! - names that the simulator emits repeatedly (spawned-thread names,
//!   executor worker names) are interned as `Arc<str>`;
//! - `try`/`catch`/`finally` metadata and the meta-info access-point set are
//!   pre-resolved into flat lookup tables shared by both engines.
//!
//! Whatever a statement or a template holds a variable number of — call
//! arguments, list items, catch clauses, template segments and their text —
//! lies in one table per kind and is named by a range into it, so compiling
//! allocates per table, not per statement.
//!
//! Lowering is purely structural: it never reorders or elides effects, so a
//! VM run draws random numbers, counts steps, and emits log entries in
//! exactly the same order as the tree-walking oracle.

use std::sync::Arc;

use crate::expr::{BinOp, Expr};
use crate::ids::{
    BlockId, ChanId, CondId, ExecId, FuncId, GlobalId, SiteId, StmtRef, TemplateId, VarId,
};
use crate::log::Level;
use crate::program::Program;
use crate::stmt::{Handler, Stmt};
use crate::value::Value;

/// A compiled expression. Every expression has exactly one form, chosen by
/// what evaluating it has to do.
#[derive(Debug, Clone, Copy)]
pub enum CExpr {
    /// The expression builds no value: loads, `rand_range`, `!`, `len`,
    /// `[idx]` and binaries over those. The executor evaluates it by
    /// reference from locals / globals / pool to a `Copy` result and
    /// materialises a [`Value`] only where a statement stores one.
    Scalar(Operand),
    /// The expression builds a value (`List`, `SelfNode`, or something
    /// over one): a run of [`EOp`]s in [`CompiledProgram::eops`] leaving
    /// the result in register `out`.
    Build {
        /// Start of the op run (index into [`CompiledProgram::eops`]).
        start: u32,
        /// End of the op run (exclusive).
        end: u32,
        /// Register holding the result after the run executes.
        out: u16,
    },
}

/// A run of consecutive entries of one of [`CompiledProgram`]'s tables:
/// how a statement names its argument expressions
/// ([`CompiledProgram::args_of`]), a list its item registers
/// ([`CompiledProgram::gathered_of`]), a template its segments.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    start: u32,
    end: u32,
}

impl Run {
    /// The run `table[start..]`, for a caller about to append it.
    fn from<T>(table: &[T]) -> Run {
        let start = table.len() as u32;
        Run { start, end: start }
    }

    /// The run from where [`Run::from`] found `table` to its end now.
    fn to<T>(self, table: &[T]) -> Run {
        Run {
            start: self.start,
            end: table.len() as u32,
        }
    }

    /// `true` for a run of nothing (a statement without arguments).
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    fn of<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..self.end as usize]
    }
}

/// Where a scalar tree reads an operand: a side-effect-free load resolved
/// at compile time, or the result of another node.
#[derive(Debug, Clone, Copy)]
pub enum Operand {
    /// The current frame's local slot.
    Var(u32),
    /// The current node's global slot.
    Global(u32),
    /// A constant-pool entry.
    Const(u32),
    /// The result of a node of [`CompiledProgram::snodes`].
    Node(u32),
}

/// One inner node of a scalar tree; the trees of a program lie flat in
/// [`CompiledProgram::snodes`], children before parents. Loads are not
/// nodes: a parent names them in its [`Operand`]s, so `x < 5` is one node
/// and `x` alone is none.
#[derive(Debug, Clone, Copy)]
pub enum SNode {
    /// `rand_range(lo, hi)` drawn from the run's seeded generator (`lo`
    /// when the range is empty, like the tree-walk).
    Rand {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// `!a` (type error on non-bool).
    Not(Operand),
    /// `len(a)` (type error on non-list/string).
    Len(Operand),
    /// `a[idx]`, borrowing the element from the list `a` borrows.
    Index(Operand, u32),
    /// `a <op> b`, left before right. For `&&` / `||` the right side is
    /// evaluated — and draws random numbers — only when the left does not
    /// decide, mirroring the tree-walk's short-circuit.
    Bin(BinOp, Operand, Operand),
}

/// One op of a [`CExpr::Build`] run. Operands are registers in the per-run
/// scratch frame; `dst` is always written.
#[derive(Debug, Clone, Copy)]
pub enum EOp {
    /// `dst = <scalar tree>`: a maximal sub-expression that builds no
    /// value, evaluated by reference and materialised into the register.
    Scalar {
        /// Destination register.
        dst: u16,
        /// The tree.
        src: Operand,
    },
    /// `dst = <current node name>` as a string value (refcount bump only).
    SelfNode {
        /// Destination register.
        dst: u16,
    },
    /// `dst = [srcs...]`; the item registers are moved, not cloned.
    Gather {
        /// Destination register.
        dst: u16,
        /// Item registers in order.
        srcs: Run,
    },
    /// `dst = src[idx]` where `src` is a register holding a built list.
    Index {
        /// Destination register.
        dst: u16,
        /// Register holding the list.
        src: u16,
        /// Element index.
        idx: u32,
    },
    /// `dst = !src` (type error on non-bool).
    Not {
        /// Destination register.
        dst: u16,
        /// Operand register.
        src: u16,
    },
    /// `dst = len(src)` (type error on non-list/string).
    Len {
        /// Destination register.
        dst: u16,
        /// Operand register.
        src: u16,
    },
    /// Non-short-circuit binary op: `dst = a <op> b`.
    Bin {
        /// Destination register.
        dst: u16,
        /// The operator (never `And`/`Or`; those lower to [`EOp::SkipIf`]).
        op: BinOp,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst = src as bool` (type error with the tree-walk's
    /// `expected bool, got ...` message otherwise).
    AsBool {
        /// Destination register.
        dst: u16,
        /// Operand register.
        src: u16,
    },
    /// Skip the next `skip` ops when `src` holds `Bool(if_val)` — the
    /// lowering of an `&&` / `||` with a side that builds a value. Skipped
    /// ops draw no random numbers, preserving the oracle's RNG stream.
    SkipIf {
        /// Register tested (already coerced to bool by [`EOp::AsBool`]).
        src: u16,
        /// Skip when the register equals this boolean.
        if_val: bool,
        /// Number of following ops to skip.
        skip: u32,
    },
}

/// One lowered statement. Mirrors [`Stmt`] with expressions compiled to
/// [`CExpr`] runs and names/ids pre-resolved.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Emit a log entry.
    Log {
        /// Severity.
        level: Level,
        /// Source template (for the structured entry).
        template: TemplateId,
        /// Compiled argument expressions.
        args: Run,
        /// Whether to attach the pending handler exception's stack.
        attach_stack: bool,
        /// Pre-rendered body for zero-argument templates, shared by every
        /// entry the statement emits.
        pre: Option<Arc<str>>,
    },
    /// `locals[var] = e`.
    Assign {
        /// Destination local.
        var: VarId,
        /// Compiled value expression.
        e: CExpr,
    },
    /// `globals[global] = e`.
    SetGlobal {
        /// Destination global.
        global: GlobalId,
        /// Compiled value expression.
        e: CExpr,
    },
    /// Append `e` to a list-valued global.
    PushBack {
        /// The queue global.
        global: GlobalId,
        /// Compiled value expression.
        e: CExpr,
    },
    /// Pop the front of a list-valued global into a local.
    PopFront {
        /// The queue global.
        global: GlobalId,
        /// Destination local.
        var: VarId,
    },
    /// Synchronous call on the same thread.
    Call {
        /// Callee.
        func: FuncId,
        /// Compiled actual arguments.
        args: Run,
        /// Local receiving the return value.
        ret: Option<VarId>,
    },
    /// External-exception fault site.
    External {
        /// The fault site.
        site: SiteId,
    },
    /// New-exception fault site (`throw new`).
    ThrowNew {
        /// The fault site.
        site: SiteId,
    },
    /// Rethrow the nearest handler's exception.
    Rethrow,
    /// Two-way branch.
    If {
        /// Compiled condition.
        cond: CExpr,
        /// Then block.
        then_blk: BlockId,
        /// Else block, if present.
        else_blk: Option<BlockId>,
    },
    /// Pre-tested loop.
    While {
        /// Compiled condition.
        cond: CExpr,
        /// Loop body.
        body: BlockId,
    },
    /// Exception-handling region; handlers/finally live in the try table.
    Try {
        /// The protected body.
        body: BlockId,
    },
    /// Return from the current function.
    Return {
        /// Compiled return value (`None` returns unit).
        e: Option<CExpr>,
    },
    /// Exit the nearest loop.
    Break,
    /// Next iteration of the nearest loop.
    Continue,
    /// Spawn a thread on the current node.
    Spawn {
        /// Interned thread base name.
        name: Arc<str>,
        /// Entry function.
        func: FuncId,
        /// Compiled arguments.
        args: Run,
    },
    /// Submit a task to an executor.
    Submit {
        /// Target executor.
        exec: ExecId,
        /// Task body.
        func: FuncId,
        /// Compiled arguments.
        args: Run,
        /// Local receiving the future handle.
        future: Option<VarId>,
    },
    /// Block until a future completes.
    Await {
        /// Local holding the future handle.
        future: VarId,
        /// Compiled timeout in ticks.
        timeout: Option<CExpr>,
        /// Local receiving the task's return value.
        ret: Option<VarId>,
    },
    /// Send a message to `(node, chan)`.
    Send {
        /// Compiled destination node name.
        dest: CExpr,
        /// Destination channel.
        chan: ChanId,
        /// Compiled payload.
        payload: CExpr,
    },
    /// Block until a message arrives on `chan`.
    Recv {
        /// Source channel.
        chan: ChanId,
        /// Local receiving the payload.
        var: VarId,
        /// Compiled timeout in ticks.
        timeout: Option<CExpr>,
    },
    /// Wait on a condition variable.
    WaitCond {
        /// The condition variable.
        cond: CondId,
        /// Compiled timeout in ticks.
        timeout: Option<CExpr>,
        /// Local receiving the signalled-vs-timed-out flag.
        ok: Option<VarId>,
    },
    /// Wake every waiter on a condition variable.
    SignalCond {
        /// The condition variable.
        cond: CondId,
    },
    /// Suspend the thread.
    Sleep {
        /// Compiled duration in ticks.
        ticks: CExpr,
    },
    /// Abort the current node.
    Abort {
        /// Abort reason for the log entry.
        reason: Box<str>,
    },
    /// End the current thread normally.
    Halt,
}

/// Pre-resolved `catch`/`finally` metadata of one `try` statement.
#[derive(Debug, Clone, Copy)]
pub struct TryInfo<'a> {
    /// Catch clauses, in order.
    pub handlers: &'a [Handler],
    /// Optional finally block.
    pub finally: Option<BlockId>,
}

/// [`TryInfo`] as stored: the clauses are a run of
/// `CompiledProgram::handlers`.
#[derive(Debug, Clone, Copy)]
struct TryEntry {
    handlers: Run,
    finally: Option<BlockId>,
}

/// One segment of a pre-split log template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg<'a> {
    /// Literal text between holes.
    Text(&'a str),
    /// The n-th `{}` hole (missing arguments render as `?`).
    Arg(u16),
}

/// [`Seg`] as stored: literal text is a run of the bytes of
/// `CompiledProgram::template_text`.
#[derive(Debug, Clone, Copy)]
enum RawSeg {
    Text(Run),
    Arg(u16),
}

/// A log template pre-split into text and argument segments, so the VM
/// renders bodies into one `String` without per-argument intermediates.
#[derive(Debug, Clone, Copy)]
struct CompiledTemplate {
    /// The template's run of `CompiledProgram::segs`.
    segs: Run,
    /// Length of the literal text: the template's specificity when several
    /// match one body.
    text_len: usize,
}

/// Returns `true` if `body` could have been rendered from a template with
/// these segments — [`LogTemplate::matches`](crate::log::LogTemplate::matches)
/// over the pre-split literals instead of re-splitting the text.
///
/// Matching is anchored: the literals must appear in order, the first at
/// the beginning of `body` and the last at its end.
fn segs_match<'a>(mut segs: impl DoubleEndedIterator<Item = Seg<'a>>, body: &str) -> bool {
    let mut rest = body;
    let mut next = segs.next();
    if let Some(Seg::Text(t)) = next {
        let Some(r) = rest.strip_prefix(t) else {
            return false;
        };
        rest = r;
        next = segs.next();
    }
    if next.is_none() {
        // No hole at all: the body is the literal.
        return rest.is_empty();
    }
    // What is left starts with a hole; a trailing literal is anchored at
    // the end, everything before it matches leftmost.
    let last = match segs.next_back() {
        Some(Seg::Text(t)) => Some(t),
        _ => None,
    };
    for seg in segs {
        if let Seg::Text(t) = seg {
            match rest.find(t) {
                Some(pos) => rest = &rest[pos + t.len()..],
                None => return false,
            }
        }
    }
    last.is_none_or(|t| rest.ends_with(t))
}

/// "No entry" in [`LeadingLiteral::parent`].
const NO_PARENT: u32 = u32::MAX;

/// One distinct leading literal of [`CompiledProgram::best_template`]'s
/// index.
#[derive(Debug, Clone, Copy)]
struct LeadingLiteral {
    /// The literal: a run of the bytes of `CompiledProgram::template_text`.
    text: Run,
    /// The entry of the longest other literal this one starts with, or
    /// [`NO_PARENT`].
    parent: u32,
    /// The templates that open with it: a run of
    /// [`TemplateIndex::by_literal`], most specific first, ties by id.
    templates: Run,
}

/// The index behind [`CompiledProgram::best_template`]: the templates
/// grouped by leading literal.
#[derive(Debug, Clone)]
struct TemplateIndex {
    /// The distinct leading literals, in byte order.
    literals: Vec<LeadingLiteral>,
    /// Template ids grouped by leading literal; the last group (`open`)
    /// holds the templates that open with a hole or are empty.
    by_literal: Vec<TemplateId>,
    open: Run,
}

impl TemplateIndex {
    fn build(templates: &[CompiledTemplate], segs: &[RawSeg], text: &str) -> TemplateIndex {
        let bytes = |run: Run| run.of(text.as_bytes());
        let leading = |t: &TemplateId| match templates[t.index()].segs.of(segs).first() {
            Some(&RawSeg::Text(literal)) => Some(literal),
            _ => None,
        };
        // By leading literal, then most specific first, then id; the
        // hole-first templates at the end.
        let mut by_literal: Vec<TemplateId> = (0..templates.len() as u32).map(TemplateId).collect();
        by_literal.sort_by_key(|t| {
            let specificity = (std::cmp::Reverse(templates[t.index()].text_len), t.0);
            (leading(t).is_none(), leading(t).map(bytes), specificity)
        });
        let mut literals: Vec<LeadingLiteral> = Vec::new();
        // The entries the current literal may start with, outermost first.
        let mut enclosing: Vec<u32> = Vec::new();
        let mut open = Run::from(&by_literal);
        for (i, t) in (0u32..).zip(&by_literal) {
            let Some(literal) = leading(t) else {
                open.start = i;
                break;
            };
            if let Some(last) = literals.last_mut() {
                if bytes(last.text) == bytes(literal) {
                    last.templates.end = i + 1;
                    continue;
                }
            }
            while enclosing
                .last()
                .is_some_and(|&e| !bytes(literal).starts_with(bytes(literals[e as usize].text)))
            {
                enclosing.pop();
            }
            literals.push(LeadingLiteral {
                text: literal,
                parent: enclosing.last().copied().unwrap_or(NO_PARENT),
                templates: Run {
                    start: i,
                    end: i + 1,
                },
            });
            enclosing.push(literals.len() as u32 - 1);
        }
        TemplateIndex {
            literals,
            by_literal,
            open,
        }
    }
}

/// A [`Program`] lowered to the flat register-VM form. Compile once per
/// search (the `SearchContext` caches it), run many times.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// One instruction per statement, flattened block-major: the statement
    /// `StmtRef { block, idx }` lives at `stmt_base[block] + idx`.
    pub code: Vec<Instr>,
    /// Per-block offset of the first instruction in [`CompiledProgram::code`].
    pub stmt_base: Vec<u32>,
    /// Per-block statement count.
    pub block_len: Vec<u32>,
    /// The argument expressions of every statement that takes a list of
    /// them, each statement's a [`Run`].
    pub args: Vec<CExpr>,
    /// The inner nodes of every scalar tree, children before parents.
    pub snodes: Vec<SNode>,
    /// All register ops, referenced by [`CExpr::Build`] ranges.
    pub eops: Vec<EOp>,
    /// The item registers of every [`EOp::Gather`], each list's a
    /// [`Run`].
    pub gathered: Vec<u16>,
    /// Constant pool for [`Operand::Const`].
    pub pool: Vec<Value>,
    /// Size of the scratch register frame a run must allocate.
    pub max_regs: usize,
    /// How many threads a node is likely to run: its main, one per `Spawn`
    /// statement and one worker per executor. A sizing hint — a `Spawn` in
    /// a loop starts more, one in a branch never taken starts none.
    pub threads_per_node: usize,
    /// Interned worker-thread names (`"{exec}-worker"`), parallel to
    /// `Program::execs`.
    pub worker_names: Vec<Arc<str>>,
    /// Interned global-variable names, parallel to `Program::globals`, so
    /// per-run result snapshots share one allocation per name.
    pub global_names: Vec<Arc<str>>,
    /// Interned function names, parallel to `Program::funcs`, so the call
    /// stacks of per-run result snapshots clone no strings.
    pub func_names: Vec<Arc<str>>,
    /// Statements that touch a meta-info global, sorted (CrashTuner's
    /// candidate crash points).
    pub meta_points: Vec<StmtRef>,
    /// Pre-split log templates, parallel to `Program::templates`.
    templates: Vec<CompiledTemplate>,
    segs: Vec<RawSeg>,
    /// The literal text of every template, hole markers dropped.
    template_text: String,
    template_index: TemplateIndex,
    tries: Vec<TryEntry>,
    handlers: Vec<Handler>,
    /// Per-instruction index into `tries` (`u32::MAX` for non-`try`).
    try_of: Vec<u32>,
    /// Bitset over flat instruction indices marking meta access points.
    meta_bits: Vec<u64>,
}

const NO_TRY: u32 = u32::MAX;

impl CompiledProgram {
    /// Maps a statement reference to its flat instruction index.
    #[inline]
    pub fn flat(&self, r: StmtRef) -> usize {
        self.stmt_base[r.block.index()] as usize + r.idx as usize
    }

    /// The argument expressions of a statement.
    #[inline]
    pub fn args_of(&self, args: Run) -> &[CExpr] {
        args.of(&self.args)
    }

    /// The item registers of a [`EOp::Gather`].
    #[inline]
    pub fn gathered_of(&self, srcs: Run) -> &[u16] {
        srcs.of(&self.gathered)
    }

    /// Returns the pre-resolved handler/finally table of a `try` statement,
    /// or `None` if `r` is not a `try`.
    #[inline]
    pub fn try_info(&self, r: StmtRef) -> Option<TryInfo<'_>> {
        let t = self.try_of[self.flat(r)];
        if t == NO_TRY {
            return None;
        }
        let entry = self.tries[t as usize];
        Some(TryInfo {
            handlers: entry.handlers.of(&self.handlers),
            finally: entry.finally,
        })
    }

    /// Returns the finally block of a `try` statement, if any.
    #[inline]
    pub fn try_finally(&self, r: StmtRef) -> Option<BlockId> {
        self.try_info(r).and_then(|t| t.finally)
    }

    fn text(&self, run: Run) -> &str {
        &self.template_text[run.start as usize..run.end as usize]
    }

    /// The segments of a template, in order.
    #[inline]
    pub fn segs(
        &self,
        template: TemplateId,
    ) -> impl DoubleEndedIterator<Item = Seg<'_>> + Clone + '_ {
        let segs = self.templates[template.index()].segs.of(&self.segs);
        segs.iter().map(|seg| match *seg {
            RawSeg::Text(literal) => Seg::Text(self.text(literal)),
            RawSeg::Arg(n) => Seg::Arg(n),
        })
    }

    /// Returns `true` if `body` could have been rendered from `template`;
    /// agrees with [`LogTemplate::matches`](crate::log::LogTemplate::matches).
    pub fn template_matches(&self, template: TemplateId, body: &str) -> bool {
        segs_match(self.segs(template), body)
    }

    /// Picks the most specific template whose rendered form matches `body`
    /// (longest literal text wins; ties broken by id for determinism).
    ///
    /// A body can only match a template whose leading literal it starts
    /// with (or one that opens with a hole). The distinct leading literals
    /// are kept in byte order, each linked to the longest other literal it
    /// starts with: every literal `body` starts with is on the chain that
    /// begins at the greatest literal not above `body` — anything between
    /// a prefix of `body` and `body` itself starts with that prefix — and
    /// is exactly a chain member no longer than what the chain's first
    /// literal shares with `body`. So one binary search finds the chain,
    /// and only the groups on it and the hole-first group are searched,
    /// each stopping at its first — most specific — match.
    pub fn best_template(&self, body: &str) -> Option<TemplateId> {
        let index = &self.template_index;
        let first_match = |group: Run| {
            let mut group = group.of(&index.by_literal).iter().copied();
            group.find(|&t| self.template_matches(t, body))
        };
        let rank = |t: &TemplateId| (self.templates[t.index()].text_len, std::cmp::Reverse(t.0));
        let mut best = first_match(index.open);
        let below = index
            .literals
            .partition_point(|l| self.text(l.text).as_bytes() <= body.as_bytes());
        let Some(mut at) = below.checked_sub(1) else {
            return best;
        };
        let greatest = self.text(index.literals[at].text).as_bytes();
        let shared = (greatest.iter().zip(body.as_bytes()))
            .take_while(|(a, b)| a == b)
            .count();
        loop {
            let literal = &index.literals[at];
            if literal.text.len() <= shared {
                best = best
                    .into_iter()
                    .chain(first_match(literal.templates))
                    .max_by_key(rank);
            }
            if literal.parent == NO_PARENT {
                return best;
            }
            at = literal.parent as usize;
        }
    }

    /// Returns `true` if the flat instruction index is a meta access point.
    #[inline]
    pub fn is_meta(&self, flat: usize) -> bool {
        (self.meta_bits[flat >> 6] >> (flat & 63)) & 1 == 1
    }
}

/// `true` if executing `stmt` touches a meta-info global: it writes one,
/// or an expression it evaluates on the way reads one.
fn touches_meta(program: &Program, stmt: &Stmt) -> bool {
    let meta = |g: GlobalId| program.globals[g.index()].meta_info;
    match stmt {
        Stmt::SetGlobal { global, expr } | Stmt::PushBack { global, expr } => {
            meta(*global) || expr.reads_global(&meta)
        }
        Stmt::PopFront { global, .. } => meta(*global),
        Stmt::Assign { expr, .. } => expr.reads_global(&meta),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => cond.reads_global(&meta),
        _ => false,
    }
}

/// Statements whose execution touches a meta-info global — CrashTuner's
/// candidate crash points, in deterministic (statement) order.
pub fn meta_access_points(program: &Program) -> Vec<StmtRef> {
    if !program.globals.iter().any(|g| g.meta_info) {
        return Vec::new();
    }
    program
        .all_stmts()
        .filter(|(_, stmt)| touches_meta(program, stmt))
        .map(|(sref, _)| sref)
        .collect()
}

struct ExprCompiler {
    args: Vec<CExpr>,
    snodes: Vec<SNode>,
    eops: Vec<EOp>,
    gathered: Vec<u16>,
    /// Item registers of the lists under construction, innermost last.
    pending: Vec<u16>,
    pool: Vec<Value>,
    next_reg: u16,
    max_regs: usize,
}

impl ExprCompiler {
    fn alloc(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("statement uses more than 65535 registers");
        if self.next_reg as usize > self.max_regs {
            self.max_regs = self.next_reg as usize;
        }
        r
    }

    /// True when evaluating the expression builds no value: everything but
    /// a `List`, a `SelfNode` and what contains one.
    fn is_scalar(e: &Expr) -> bool {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) | Expr::RandRange(..) => true,
            Expr::Not(a) | Expr::Len(a) | Expr::Index(a, _) => Self::is_scalar(a),
            Expr::Bin(_, a, b) => Self::is_scalar(a) && Self::is_scalar(b),
            Expr::List(_) | Expr::SelfNode => false,
        }
    }

    /// Compiles an expression that builds no value to a scalar tree,
    /// children before parents and left before right — the order the
    /// tree-walk evaluates them in.
    fn scalar(&mut self, e: &Expr) -> Operand {
        let node = match e {
            Expr::Const(v) => {
                self.pool.push(v.clone());
                return Operand::Const((self.pool.len() - 1) as u32);
            }
            Expr::Var(v) => return Operand::Var(v.index() as u32),
            Expr::Global(g) => return Operand::Global(g.index() as u32),
            Expr::RandRange(lo, hi) => SNode::Rand { lo: *lo, hi: *hi },
            Expr::Not(a) => SNode::Not(self.scalar(a)),
            Expr::Len(a) => SNode::Len(self.scalar(a)),
            Expr::Index(a, i) => SNode::Index(self.scalar(a), *i),
            Expr::Bin(op, a, b) => {
                let a = self.scalar(a);
                SNode::Bin(*op, a, self.scalar(b))
            }
            Expr::List(_) | Expr::SelfNode => {
                unreachable!("scalar() is only called on is_scalar exprs")
            }
        };
        self.snodes.push(node);
        Operand::Node((self.snodes.len() - 1) as u32)
    }

    /// Emits the ops that leave the expression's value in a register,
    /// evaluating sub-expressions in exactly the tree-walk's order (so RNG
    /// draws and error precedence are preserved). A sub-expression that
    /// builds no value is one [`EOp::Scalar`], however large.
    fn build(&mut self, e: &Expr) -> u16 {
        if Self::is_scalar(e) {
            let src = self.scalar(e);
            let dst = self.alloc();
            self.eops.push(EOp::Scalar { dst, src });
            return dst;
        }
        match e {
            Expr::SelfNode => {
                let dst = self.alloc();
                self.eops.push(EOp::SelfNode { dst });
                dst
            }
            Expr::List(items) => {
                // An item may be a list itself, whose run must not split
                // this one: the registers wait on a stack until all of
                // this list's items are built.
                let mark = self.pending.len();
                for item in items {
                    let r = self.build(item);
                    self.pending.push(r);
                }
                let srcs = Run::from(&self.gathered);
                self.gathered.extend(self.pending.drain(mark..));
                let srcs = srcs.to(&self.gathered);
                let dst = self.alloc();
                self.eops.push(EOp::Gather { dst, srcs });
                dst
            }
            Expr::Index(a, i) => {
                let src = self.build(a);
                let dst = self.alloc();
                self.eops.push(EOp::Index { dst, src, idx: *i });
                dst
            }
            Expr::Not(a) => {
                let src = self.build(a);
                let dst = self.alloc();
                self.eops.push(EOp::Not { dst, src });
                dst
            }
            Expr::Len(a) => {
                let src = self.build(a);
                let dst = self.alloc();
                self.eops.push(EOp::Len { dst, src });
                dst
            }
            Expr::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                // A conditional skip over the right operand's ops mirrors
                // the tree-walk's short-circuit (skipped ops draw no random
                // numbers).
                let ra = self.build(a);
                let dst = self.alloc();
                self.eops.push(EOp::AsBool { dst, src: ra });
                let skip_at = self.eops.len();
                self.eops.push(EOp::SkipIf {
                    src: dst,
                    if_val: matches!(op, BinOp::Or),
                    skip: 0,
                });
                let rb = self.build(b);
                self.eops.push(EOp::AsBool { dst, src: rb });
                let skip = (self.eops.len() - skip_at - 1) as u32;
                if let EOp::SkipIf { skip: s, .. } = &mut self.eops[skip_at] {
                    *s = skip;
                }
                dst
            }
            Expr::Bin(op, a, b) => {
                let ra = self.build(a);
                let rb = self.build(b);
                let dst = self.alloc();
                self.eops.push(EOp::Bin {
                    dst,
                    op: *op,
                    a: ra,
                    b: rb,
                });
                dst
            }
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) | Expr::RandRange(..) => {
                unreachable!("a leaf other than SelfNode is scalar")
            }
        }
    }

    /// The op run of an expression whose value must end up in a register.
    fn run(&mut self, e: &Expr) -> CExpr {
        let start = self.eops.len() as u32;
        let out = self.build(e);
        CExpr::Build {
            start,
            end: self.eops.len() as u32,
            out,
        }
    }

    fn cexpr(&mut self, e: &Expr) -> CExpr {
        if Self::is_scalar(e) {
            CExpr::Scalar(self.scalar(e))
        } else {
            self.run(e)
        }
    }

    /// Compiles a statement's argument list into a run of the argument
    /// table. No argument expression holds an argument list, so the run is
    /// contiguous.
    fn arg_run(&mut self, es: &[Expr], mut one: impl FnMut(&mut Self, &Expr) -> CExpr) -> Run {
        let run = Run::from(&self.args);
        for e in es {
            let c = one(self, e);
            self.args.push(c);
        }
        run.to(&self.args)
    }

    fn cexprs(&mut self, es: &[Expr]) -> Run {
        self.arg_run(es, Self::cexpr)
    }

    /// Log arguments are all evaluated before the body renders: a plain
    /// load stays where it is and renders by reference, anything else
    /// waits for the render in a register.
    fn log_args(&mut self, es: &[Expr]) -> Run {
        self.arg_run(es, |c, e| match e {
            Expr::Const(_) | Expr::Var(_) | Expr::Global(_) => CExpr::Scalar(c.scalar(e)),
            _ => c.run(e),
        })
    }
}

/// Compiles a program into its flat register-VM form.
pub fn compile(program: &Program) -> CompiledProgram {
    let n_stmts: usize = program.blocks.iter().map(Vec::len).sum();
    let mut stmt_base = Vec::with_capacity(program.blocks.len());
    let mut block_len = Vec::with_capacity(program.blocks.len());
    let mut base = 0u32;
    for b in &program.blocks {
        stmt_base.push(base);
        block_len.push(b.len() as u32);
        base += b.len() as u32;
    }

    let mut c = ExprCompiler {
        args: Vec::new(),
        snodes: Vec::new(),
        eops: Vec::new(),
        gathered: Vec::new(),
        pending: Vec::new(),
        pool: Vec::new(),
        next_reg: 0,
        max_regs: 0,
    };
    let mut code = Vec::with_capacity(n_stmts);
    let mut tries = Vec::new();
    let mut all_handlers = Vec::new();
    let mut try_of = vec![NO_TRY; n_stmts];
    // A statement that logs a template without arguments emits the same
    // body every time: one shared string per template.
    let mut fixed_body: Vec<Option<Arc<str>>> = vec![None; program.templates.len()];
    let has_meta = program.globals.iter().any(|g| g.meta_info);
    let mut meta_points = Vec::new();
    let mut meta_bits = vec![0u64; n_stmts.div_ceil(64)];

    for (b, block) in program.blocks.iter().enumerate() {
        for (idx, stmt) in block.iter().enumerate() {
            // Registers are scratch within one statement: every statement
            // starts from register 0 and the frame is sized to the widest.
            c.next_reg = 0;
            let flat = code.len();
            if has_meta && touches_meta(program, stmt) {
                meta_points.push(StmtRef::new(BlockId(b as u32), idx as u32));
                meta_bits[flat >> 6] |= 1 << (flat & 63);
            }
            let instr = match stmt {
                Stmt::Log {
                    level,
                    template,
                    args,
                    attach_stack,
                } => {
                    let cargs = c.log_args(args);
                    let pre = cargs.is_empty().then(|| {
                        fixed_body[template.index()]
                            .get_or_insert_with(|| {
                                let t = &program.templates[template.index()];
                                match t.arity() {
                                    0 => Arc::from(t.text.as_str()),
                                    _ => Arc::from(t.render(&[])),
                                }
                            })
                            .clone()
                    });
                    Instr::Log {
                        level: *level,
                        template: *template,
                        args: cargs,
                        attach_stack: *attach_stack,
                        pre,
                    }
                }
                Stmt::Assign { var, expr } => Instr::Assign {
                    var: *var,
                    e: c.cexpr(expr),
                },
                Stmt::SetGlobal { global, expr } => Instr::SetGlobal {
                    global: *global,
                    e: c.cexpr(expr),
                },
                Stmt::PushBack { global, expr } => Instr::PushBack {
                    global: *global,
                    e: c.cexpr(expr),
                },
                Stmt::PopFront { global, var } => Instr::PopFront {
                    global: *global,
                    var: *var,
                },
                Stmt::Call { func, args, ret } => Instr::Call {
                    func: *func,
                    args: c.cexprs(args),
                    ret: *ret,
                },
                Stmt::External { site } => Instr::External { site: *site },
                Stmt::ThrowNew { site } => Instr::ThrowNew { site: *site },
                Stmt::Rethrow => Instr::Rethrow,
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => Instr::If {
                    cond: c.cexpr(cond),
                    then_blk: *then_blk,
                    else_blk: *else_blk,
                },
                Stmt::While { cond, body } => Instr::While {
                    cond: c.cexpr(cond),
                    body: *body,
                },
                Stmt::Try {
                    body,
                    handlers,
                    finally,
                } => {
                    try_of[flat] = tries.len() as u32;
                    let run = Run::from(&all_handlers);
                    all_handlers.extend_from_slice(handlers);
                    tries.push(TryEntry {
                        handlers: run.to(&all_handlers),
                        finally: *finally,
                    });
                    Instr::Try { body: *body }
                }
                Stmt::Return { expr } => Instr::Return {
                    e: expr.as_ref().map(|e| c.cexpr(e)),
                },
                Stmt::Break => Instr::Break,
                Stmt::Continue => Instr::Continue,
                Stmt::Spawn { name, func, args } => Instr::Spawn {
                    name: Arc::from(name.as_str()),
                    func: *func,
                    args: c.cexprs(args),
                },
                Stmt::Submit {
                    exec,
                    func,
                    args,
                    future,
                } => Instr::Submit {
                    exec: *exec,
                    func: *func,
                    args: c.cexprs(args),
                    future: *future,
                },
                Stmt::Await {
                    future,
                    timeout,
                    ret,
                } => Instr::Await {
                    future: *future,
                    timeout: timeout.as_ref().map(|e| c.cexpr(e)),
                    ret: *ret,
                },
                Stmt::Send {
                    node,
                    chan,
                    payload,
                } => Instr::Send {
                    dest: c.cexpr(node),
                    chan: *chan,
                    payload: c.cexpr(payload),
                },
                Stmt::Recv { chan, var, timeout } => Instr::Recv {
                    chan: *chan,
                    var: *var,
                    timeout: timeout.as_ref().map(|e| c.cexpr(e)),
                },
                Stmt::WaitCond { cond, timeout, ok } => Instr::WaitCond {
                    cond: *cond,
                    timeout: timeout.as_ref().map(|e| c.cexpr(e)),
                    ok: *ok,
                },
                Stmt::SignalCond { cond } => Instr::SignalCond { cond: *cond },
                Stmt::Sleep { ticks } => Instr::Sleep {
                    ticks: c.cexpr(ticks),
                },
                Stmt::Abort { reason } => Instr::Abort {
                    reason: reason.clone().into_boxed_str(),
                },
                Stmt::Halt => Instr::Halt,
            };
            code.push(instr);
        }
    }

    // Templates: split at the holes, the literal text of all of them in
    // one string.
    let mut templates = Vec::with_capacity(program.templates.len());
    let mut segs = Vec::new();
    let mut template_text = String::new();
    for t in &program.templates {
        let run = Run::from(&segs);
        let mut text_len = 0;
        let mut literal = |text: &str, segs: &mut Vec<RawSeg>| {
            if !text.is_empty() {
                text_len += text.len();
                let run = Run::from(template_text.as_bytes());
                template_text.push_str(text);
                segs.push(RawSeg::Text(run.to(template_text.as_bytes())));
            }
        };
        let mut rest = t.text.as_str();
        let mut arg = 0u16;
        while let Some(pos) = rest.find("{}") {
            literal(&rest[..pos], &mut segs);
            segs.push(RawSeg::Arg(arg));
            arg += 1;
            rest = &rest[pos + 2..];
        }
        literal(rest, &mut segs);
        templates.push(CompiledTemplate {
            segs: run.to(&segs),
            text_len,
        });
    }

    let template_index = TemplateIndex::build(&templates, &segs, &template_text);

    let spawns = (code.iter())
        .filter(|i| matches!(i, Instr::Spawn { .. }))
        .count();
    let worker_names = program
        .execs
        .iter()
        .map(|e| Arc::from(format!("{e}-worker").as_str()))
        .collect();

    let global_names = program
        .globals
        .iter()
        .map(|g| Arc::from(g.name.as_str()))
        .collect();

    let func_names = program
        .funcs
        .iter()
        .map(|f| Arc::from(f.name.as_str()))
        .collect();

    CompiledProgram {
        code,
        stmt_base,
        block_len,
        args: c.args,
        snodes: c.snodes,
        eops: c.eops,
        gathered: c.gathered,
        pool: c.pool,
        max_regs: c.max_regs,
        threads_per_node: 1 + spawns + program.execs.len(),
        worker_names,
        global_names,
        func_names,
        meta_points,
        templates,
        segs,
        template_text,
        template_index,
        tries,
        handlers: all_handlers,
        try_of,
        meta_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::build as e;

    #[test]
    fn flat_indexing_covers_every_statement() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            let x = b.local();
            b.assign(x, e::int(1));
            b.if_(e::gt(e::var(x), e::int(0)), |b| {
                b.log(Level::Info, "pos {}", vec![e::var(x)]);
            });
        });
        let p = pb.finish().unwrap();
        let c = compile(&p);
        let n: usize = p.blocks.iter().map(Vec::len).sum();
        assert_eq!(c.code.len(), n);
        for (sref, _) in p.all_stmts() {
            assert!(c.flat(sref) < n);
        }
    }

    #[test]
    fn try_info_resolves_handlers_and_finally() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            b.try_catch(
                |b| {
                    b.external("io", &[crate::ExceptionType::Io]);
                },
                crate::ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "caught", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let c = compile(&p);
        let (tref, _) = p
            .all_stmts()
            .into_iter()
            .find(|(_, s)| matches!(s, Stmt::Try { .. }))
            .unwrap();
        let info = c.try_info(tref).expect("try has info");
        assert_eq!(info.handlers.len(), 1);
        assert_eq!(info.finally, None);
        // A non-try statement has no info.
        let (aref, _) = p
            .all_stmts()
            .into_iter()
            .find(|(_, s)| !matches!(s, Stmt::Try { .. }))
            .unwrap();
        assert!(c.try_info(aref).is_none());
    }

    /// One form per expression: what builds no value is a scalar tree and
    /// emits no op; what builds one is an op run whose scalar sub-trees are
    /// one op each, with `&&` lowered to a skip.
    #[test]
    fn an_expression_has_one_form_chosen_by_its_job() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            let x = b.local();
            b.assign(x, e::var(x));
            b.assign(x, e::and(e::lt(e::var(x), e::int(3)), e::bool_(true)));
            b.assign(
                x,
                e::and(
                    e::lt(e::var(x), e::int(3)),
                    e::eq(e::list(vec![e::var(x)]), e::self_node()),
                ),
            );
        });
        let p = pb.finish().unwrap();
        let c = compile(&p);
        let exprs: Vec<CExpr> = (c.code.iter())
            .map(|i| match i {
                Instr::Assign { e, .. } => *e,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(matches!(exprs[0], CExpr::Scalar(Operand::Var(0))));
        // `x < 3 && true`: the comparison's node, then the `&&` over it.
        let CExpr::Scalar(Operand::Node(root)) = exprs[1] else {
            panic!("{:?} is not a tree", exprs[1]);
        };
        assert!(matches!(
            c.snodes[root as usize],
            SNode::Bin(BinOp::And, Operand::Node(lt), Operand::Const(_)) if lt + 1 == root
        ));
        // Only the third expression has ops; its scalar sides are one each.
        let CExpr::Build { start, end, .. } = exprs[2] else {
            panic!("{:?} builds a list", exprs[2]);
        };
        assert_eq!((start as usize, end as usize), (0, c.eops.len()));
        let count = |f: fn(&EOp) -> bool| c.eops.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, EOp::Scalar { .. })), 2);
        assert_eq!(count(|op| matches!(op, EOp::SkipIf { .. })), 1);
        assert_eq!(count(|op| matches!(op, EOp::Gather { .. })), 1);
        assert_eq!(count(|op| matches!(op, EOp::SelfNode { .. })), 1);
    }

    #[test]
    fn meta_bitset_matches_point_list() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.meta_global("leader", Value::Int(0));
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            b.set_global(g, e::int(1));
            b.log(Level::Info, "done", vec![]);
        });
        let p = pb.finish().unwrap();
        let c = compile(&p);
        assert!(!c.meta_points.is_empty());
        for (sref, _) in p.all_stmts() {
            assert_eq!(c.is_meta(c.flat(sref)), c.meta_points.contains(&sref));
        }
    }
}
