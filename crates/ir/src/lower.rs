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
#[derive(Debug, Clone)]
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
        srcs: Box<[u16]>,
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
        args: Box<[CExpr]>,
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
        args: Box<[CExpr]>,
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
        args: Box<[CExpr]>,
    },
    /// Submit a task to an executor.
    Submit {
        /// Target executor.
        exec: ExecId,
        /// Task body.
        func: FuncId,
        /// Compiled arguments.
        args: Box<[CExpr]>,
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
#[derive(Debug, Clone)]
pub struct TryInfo {
    /// Catch clauses, in order.
    pub handlers: Box<[Handler]>,
    /// Optional finally block.
    pub finally: Option<BlockId>,
}

/// One segment of a pre-split log template.
#[derive(Debug, Clone)]
pub enum Seg {
    /// Literal text between holes.
    Text(Box<str>),
    /// The n-th `{}` hole (missing arguments render as `?`).
    Arg(u16),
}

/// A log template pre-split into text and argument segments, so the VM
/// renders bodies into one `String` without per-argument intermediates.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    /// The segments in order.
    pub segs: Box<[Seg]>,
    /// Length of the literal text: the render capacity hint, and the
    /// template's specificity when several match one body.
    pub text_len: usize,
}

impl CompiledTemplate {
    /// Returns `true` if `body` could have been rendered from this
    /// template — [`LogTemplate::matches`](crate::log::LogTemplate::matches)
    /// over the pre-split literals instead of re-splitting the text.
    ///
    /// Matching is anchored: the literals must appear in order, the first
    /// at the beginning of `body` and the last at its end.
    pub fn matches(&self, body: &str) -> bool {
        let (mut segs, mut rest) = (&self.segs[..], body);
        if let Some((Seg::Text(t), after)) = segs.split_first() {
            let Some(r) = rest.strip_prefix(&**t) else {
                return false;
            };
            (segs, rest) = (after, r);
            if segs.is_empty() {
                // No hole at all: the body is the literal.
                return rest.is_empty();
            }
        } else if segs.is_empty() {
            return rest.is_empty();
        }
        // `segs` now starts with a hole; a trailing literal is anchored at
        // the end, everything before it matches leftmost.
        let last = match segs.split_last() {
            Some((Seg::Text(t), before)) => {
                segs = before;
                Some(t)
            }
            _ => None,
        };
        for seg in segs {
            if let Seg::Text(t) = seg {
                match rest.find(&**t) {
                    Some(pos) => rest = &rest[pos + t.len()..],
                    None => return false,
                }
            }
        }
        last.is_none_or(|t| rest.ends_with(&**t))
    }
}

/// Bucket of [`CompiledProgram::template_buckets`] for templates with no
/// leading literal.
const OPEN_BUCKET: usize = 256;

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
    /// The inner nodes of every scalar tree, children before parents.
    pub snodes: Vec<SNode>,
    /// All register ops, referenced by [`CExpr::Build`] ranges.
    pub eops: Vec<EOp>,
    /// Constant pool for [`Operand::Const`].
    pub pool: Vec<Value>,
    /// Size of the scratch register frame a run must allocate.
    pub max_regs: usize,
    /// Pre-split log templates, parallel to `Program::templates`.
    pub templates: Vec<CompiledTemplate>,
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
    /// Template ids bucketed by the first byte of their leading literal
    /// ([`OPEN_BUCKET`]: templates that open with a hole, or are empty),
    /// each bucket most specific first, ties by id.
    template_buckets: Vec<Vec<TemplateId>>,
    tries: Vec<TryInfo>,
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

    /// Returns the pre-resolved handler/finally table of a `try` statement,
    /// or `None` if `r` is not a `try`.
    #[inline]
    pub fn try_info(&self, r: StmtRef) -> Option<&TryInfo> {
        let t = self.try_of[self.flat(r)];
        if t == NO_TRY {
            None
        } else {
            Some(&self.tries[t as usize])
        }
    }

    /// Returns the finally block of a `try` statement, if any.
    #[inline]
    pub fn try_finally(&self, r: StmtRef) -> Option<BlockId> {
        self.try_info(r).and_then(|t| t.finally)
    }

    /// Picks the most specific template whose rendered form matches `body`
    /// (longest literal text wins; ties broken by id for determinism).
    ///
    /// A body can only match a template whose leading literal it starts
    /// with, so only the bucket of the body's first byte and the bucket of
    /// hole-first templates are searched, and each search stops at its
    /// first — most specific — match.
    pub fn best_template(&self, body: &str) -> Option<TemplateId> {
        let first_match = |bucket: usize| {
            self.template_buckets[bucket]
                .iter()
                .copied()
                .find(|t| self.templates[t.index()].matches(body))
        };
        let rank = |t: &TemplateId| (self.templates[t.index()].text_len, std::cmp::Reverse(t.0));
        let literal = body.bytes().next().and_then(|b| first_match(b as usize));
        literal
            .into_iter()
            .chain(first_match(OPEN_BUCKET))
            .max_by_key(rank)
    }

    /// Returns `true` if the flat instruction index is a meta access point.
    #[inline]
    pub fn is_meta(&self, flat: usize) -> bool {
        (self.meta_bits[flat >> 6] >> (flat & 63)) & 1 == 1
    }
}

/// Statements whose execution touches a meta-info global — CrashTuner's
/// candidate crash points, in deterministic (sorted) order.
pub fn meta_access_points(program: &Program) -> Vec<StmtRef> {
    let meta: Vec<bool> = program.globals.iter().map(|g| g.meta_info).collect();
    if !meta.iter().any(|m| *m) {
        return Vec::new();
    }
    let mut points = Vec::new();
    for (sref, stmt) in program.all_stmts() {
        let mut exprs: Vec<&Expr> = Vec::new();
        let mut writes_meta = false;
        match stmt {
            Stmt::SetGlobal { global, expr } | Stmt::PushBack { global, expr } => {
                writes_meta = meta[global.index()];
                exprs.push(expr);
            }
            Stmt::PopFront { global, .. } => {
                writes_meta = meta[global.index()];
            }
            Stmt::Assign { expr, .. } => exprs.push(expr),
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => exprs.push(cond),
            _ => {}
        }
        let reads_meta = exprs.iter().any(|e| {
            let mut vars = Vec::new();
            let mut globals = Vec::new();
            e.reads(&mut vars, &mut globals);
            globals.iter().any(|g| meta[g.index()])
        });
        if writes_meta || reads_meta {
            points.push(sref);
        }
    }
    points.sort_unstable();
    points
}

struct ExprCompiler<'p> {
    snodes: Vec<SNode>,
    eops: Vec<EOp>,
    pool: Vec<Value>,
    next_reg: u16,
    max_regs: usize,
    program: &'p Program,
}

impl ExprCompiler<'_> {
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
                let srcs: Box<[u16]> = items.iter().map(|i| self.build(i)).collect();
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

    fn cexprs(&mut self, es: &[Expr]) -> Box<[CExpr]> {
        es.iter().map(|e| self.cexpr(e)).collect()
    }

    /// Log arguments are all evaluated before the body renders: a plain
    /// load stays where it is and renders by reference, anything else
    /// waits for the render in a register.
    fn log_args(&mut self, es: &[Expr]) -> Box<[CExpr]> {
        es.iter()
            .map(|e| match e {
                Expr::Const(_) | Expr::Var(_) | Expr::Global(_) => CExpr::Scalar(self.scalar(e)),
                _ => self.run(e),
            })
            .collect()
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
        snodes: Vec::new(),
        eops: Vec::new(),
        pool: Vec::new(),
        next_reg: 0,
        max_regs: 0,
        program,
    };
    let mut code = Vec::with_capacity(n_stmts);
    let mut tries = Vec::new();
    let mut try_of = vec![NO_TRY; n_stmts];

    for block in &program.blocks {
        for stmt in block {
            // Registers are scratch within one statement: every statement
            // starts from register 0 and the frame is sized to the widest.
            c.next_reg = 0;
            let flat = code.len();
            let instr = match stmt {
                Stmt::Log {
                    level,
                    template,
                    args,
                    attach_stack,
                } => {
                    let cargs = c.log_args(args);
                    let pre = if cargs.is_empty() {
                        Some(Arc::from(c.program.templates[template.index()].render(&[])))
                    } else {
                        None
                    };
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
                    tries.push(TryInfo {
                        handlers: handlers.clone().into_boxed_slice(),
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

    let templates: Vec<CompiledTemplate> = program
        .templates
        .iter()
        .map(|t| {
            let mut segs = Vec::new();
            let mut text_len = 0;
            let mut rest = t.text.as_str();
            let mut arg = 0u16;
            while let Some(pos) = rest.find("{}") {
                if pos > 0 {
                    text_len += pos;
                    segs.push(Seg::Text(rest[..pos].into()));
                }
                segs.push(Seg::Arg(arg));
                arg += 1;
                rest = &rest[pos + 2..];
            }
            if !rest.is_empty() {
                text_len += rest.len();
                segs.push(Seg::Text(rest.into()));
            }
            CompiledTemplate {
                segs: segs.into_boxed_slice(),
                text_len,
            }
        })
        .collect();

    let mut template_buckets = vec![Vec::new(); OPEN_BUCKET + 1];
    for (i, t) in templates.iter().enumerate() {
        let bucket = match t.segs.first() {
            Some(Seg::Text(lit)) => lit.as_bytes()[0] as usize,
            _ => OPEN_BUCKET,
        };
        template_buckets[bucket].push(TemplateId(i as u32));
    }
    for bucket in &mut template_buckets {
        bucket.sort_by_key(|t| (std::cmp::Reverse(templates[t.index()].text_len), t.0));
    }

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

    let meta_points = meta_access_points(program);
    let mut meta_bits = vec![0u64; n_stmts.div_ceil(64)];
    for p in &meta_points {
        let flat = stmt_base[p.block.index()] as usize + p.idx as usize;
        meta_bits[flat >> 6] |= 1 << (flat & 63);
    }

    CompiledProgram {
        code,
        stmt_base,
        block_len,
        snodes: c.snodes,
        eops: c.eops,
        pool: c.pool,
        max_regs: c.max_regs,
        templates,
        worker_names,
        global_names,
        func_names,
        meta_points,
        template_buckets,
        tries,
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
