//! The register-VM statement executor — the default engine, running the
//! flat instruction stream produced by [`anduril_ir::lower`].
//!
//! One `Instr` per statement, addressed by `stmt_base[block] + idx`. An
//! expression that builds no value — nearly every condition, assignment and
//! tick count — is a scalar tree evaluated by reference, straight from
//! locals / globals / pool to a `Copy` [`Scalar`]; one that builds a list
//! or names the node is a run of register ops over a scratch frame that
//! is part of the world's storage (`storage`). The common path allocates
//! nothing per step:
//! names are interned `Arc<str>`s, log bodies render in one scratch buffer,
//! call arguments are evaluated straight onto the callee's slots, and a
//! store releases what it overwrites only if that owns something. Every
//! statement mirrors the tree-walk oracle (`exec_ast`) — same evaluation
//! order, same RNG draws, same error strings — so runs are byte-identical
//! across engines.
//!
//! Statements that stay on their thread run inside the slice loop
//! ([`World::run_slice_vm`]); the rest run out of line in `exec_instr`.

use super::*;
use crate::config::{NET_LATENCY, QUANTUM};
use crate::thread::Frame;
use anduril_ir::builder::TMPL_ABORT;
use anduril_ir::lower::{CExpr, EOp, Instr, Operand, Run, SNode, Seg};
use anduril_ir::{BinOp, ExceptionType, SiteId};

/// Everything a statement that stays on its thread reads, writes or draws
/// from, borrowed apart from the rest of the world: the slice loop builds
/// one per run of in-place steps and keeps it until a statement needs more.
pub(super) struct Eval<'a> {
    compiled: &'a CompiledProgram,
    regs: &'a mut [Value],
    rng: &'a mut SmallRng,
    node_name: &'a Arc<str>,
    /// The node's globals.
    globals: &'a mut [Value],
    thread: &'a mut Thread,
    /// Where the innermost frame's slots begin in `thread.locals`.
    base: usize,
}

/// Why the slice loop left its run of in-place steps: what the step in
/// progress needs from the rest of the world.
enum Cold<'p> {
    /// Nothing: the quantum is used up.
    Quantum,
    /// The thread has no frame.
    Idle,
    /// The outermost frame's body is exhausted: the thread (or task) ends.
    Return,
    /// A `try` body, handler or `finally` block ended.
    BlockEnd,
    /// A CrashTuner crash point fired at the statement.
    Crash,
    /// The traced fault site has an armed candidate: the fault runtime
    /// decides whether it throws.
    Armed(SiteId),
    /// A transfer out of the block that `try` machinery may intercept.
    Flow(Flow),
    /// Any statement the loop does not execute in place.
    Instr(StmtRef, &'p Instr),
}

/// What a scalar tree ([`CExpr::Scalar`]) evaluates to: an int or a bool
/// it computed, or a value it found. `Copy`, so the evaluator carries no
/// drop glue; a [`Value`] is made of it only where a statement stores one.
#[derive(Clone, Copy)]
enum Scalar<'a> {
    Int(i64),
    Bool(bool),
    Ref(&'a Value),
}

impl Scalar<'_> {
    #[inline]
    fn as_int(self) -> Option<i64> {
        match self {
            Scalar::Int(i) | Scalar::Ref(&Value::Int(i)) => Some(i),
            _ => None,
        }
    }

    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Bool(b) | Scalar::Ref(&Value::Bool(b)) => Some(b),
            _ => None,
        }
    }

    /// The result as a value of its own (a clone of a borrowed one).
    #[inline]
    fn to_value(self) -> Value {
        match self {
            Scalar::Int(i) => Value::Int(i),
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Ref(v) => v.clone(),
        }
    }

    /// `Value`'s structural equality.
    fn same(self, other: Scalar<'_>) -> bool {
        match (self, other) {
            (Scalar::Ref(a), Scalar::Ref(b)) => a == b,
            _ => match (self.as_int(), other.as_int()) {
                (Some(x), Some(y)) => x == y,
                (None, None) => matches!(
                    (self.as_bool(), other.as_bool()),
                    (Some(x), Some(y)) if x == y
                ),
                _ => false,
            },
        }
    }
}

/// What a scalar tree reads, borrowed apart from the generator it draws
/// from so that a result can outlive the draw of a sibling.
#[derive(Clone, Copy)]
struct Scalars<'a> {
    nodes: &'a [SNode],
    pool: &'a [Value],
    /// The innermost frame's slots.
    locals: &'a [Value],
    globals: &'a [Value],
}

impl<'a> Scalars<'a> {
    /// Evaluates an operand: a load in place, a node by recursion.
    #[inline(always)]
    fn eval(self, rng: &mut SmallRng, o: Operand) -> Sim<Scalar<'a>> {
        Ok(Scalar::Ref(match o {
            Operand::Var(v) => &self.locals[v as usize],
            Operand::Global(g) => &self.globals[g as usize],
            Operand::Const(i) => &self.pool[i as usize],
            Operand::Node(n) => return self.node(rng, n),
        }))
    }

    /// Evaluates one node: operands left to right, the tree-walk's order,
    /// typing rules and error strings.
    fn node(self, rng: &mut SmallRng, n: u32) -> Sim<Scalar<'a>> {
        match self.nodes[n as usize] {
            SNode::Bin(BinOp::And | BinOp::Or, ..) | SNode::Not(_) => {
                self.cond(rng, n).map(Scalar::Bool)
            }
            SNode::Bin(op, a, b) => {
                let x = self.eval(rng, a)?;
                let y = self.eval(rng, b)?;
                bin_scalars(op, x, y)
            }
            SNode::Rand { lo, hi } => Ok(Scalar::Int(if hi > lo {
                rng.random_range(lo..hi)
            } else {
                lo
            })),
            SNode::Len(a) => {
                let v = self.eval(rng, a)?;
                let len = match v {
                    Scalar::Ref(v) => v.len(),
                    _ => None,
                };
                match len {
                    Some(n) => Ok(Scalar::Int(n)),
                    None => Err(len_on(&v.to_value())),
                }
            }
            SNode::Index(a, idx) => match self.eval(rng, a)? {
                Scalar::Ref(Value::List(items)) => match items.get(idx as usize) {
                    Some(item) => Ok(Scalar::Ref(item)),
                    None => Err(index_out_of_bounds(idx, items.len())),
                },
                other => Err(index_on_non_list(&other.to_value())),
            },
        }
    }

    /// Evaluates an operand of `&&` / `||` (tree-walk `eval_bool`); a node
    /// goes through [`Scalars::cond`].
    #[inline]
    fn truth(self, rng: &mut SmallRng, o: Operand) -> Sim<bool> {
        if let Operand::Node(n) = o {
            return self.cond(rng, n);
        }
        let v = self.eval(rng, o)?;
        v.as_bool().ok_or_else(|| expected("bool", v))
    }

    /// [`Scalars::node`] fused with the bool check of a branch: `&&`,
    /// `||`, a comparison of two ints and `!` answer a bool without
    /// building a [`Scalar`]; any other node is evaluated and checked.
    /// Same operand order, draws and error strings as `node`, which asks
    /// this for `&&`, `||` and `!`.
    fn cond(self, rng: &mut SmallRng, n: u32) -> Sim<bool> {
        match self.nodes[n as usize] {
            SNode::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                let left = self.truth(rng, a)?;
                // The left side decides: the right draws nothing.
                if left == matches!(op, BinOp::Or) {
                    return Ok(left);
                }
                self.truth(rng, b)
            }
            SNode::Bin(
                op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
                a,
                b,
            ) => {
                let x = self.eval(rng, a)?;
                let y = self.eval(rng, b)?;
                let (Some(i), Some(j)) = (x.as_int(), y.as_int()) else {
                    let v = bin_scalars_slow(op, x, y)?;
                    return v.as_bool().ok_or_else(|| expected("bool", v));
                };
                Ok(match op {
                    BinOp::Lt => i < j,
                    BinOp::Le => i <= j,
                    BinOp::Gt => i > j,
                    BinOp::Ge => i >= j,
                    BinOp::Eq => i == j,
                    _ => i != j,
                })
            }
            SNode::Not(a) => {
                let v = self.eval(rng, a)?;
                match v.as_bool() {
                    Some(b) => Ok(!b),
                    None => Err(not_on_non_bool(&v.to_value())),
                }
            }
            _ => {
                let v = self.node(rng, n)?;
                v.as_bool().ok_or_else(|| expected("bool", v))
            }
        }
    }
}

/// A type error of an expression. Evaluation does not know which statement
/// it serves: [`Eval`]'s entry points name it ([`located`]) on the way out.
#[cold]
fn expr_error(msg: String) -> Box<SimError> {
    type_error(None, msg)
}

/// Names the statement an expression's type error happened at.
#[cold]
fn located(mut e: Box<SimError>, at: StmtRef) -> Box<SimError> {
    if let SimError::Type { stmt, .. } = &mut *e {
        *stmt = Some(at);
    }
    e
}

#[cold]
fn expected(what: &str, got: Scalar<'_>) -> Box<SimError> {
    expr_error(format!("expected {what}, got {:?}", got.to_value()))
}

#[cold]
fn not_on_non_bool(got: &Value) -> Box<SimError> {
    expr_error(format!("! on non-bool {got:?}"))
}

#[cold]
fn len_on(got: &Value) -> Box<SimError> {
    expr_error(format!("len on {got:?}"))
}

#[cold]
fn index_out_of_bounds(idx: u32, len: usize) -> Box<SimError> {
    expr_error(format!("index {idx} out of bounds ({len} items)"))
}

#[cold]
fn index_on_non_list(got: &Value) -> Box<SimError> {
    expr_error(format!("index on non-list {got:?}"))
}

impl Eval<'_> {
    /// Writes a slot of the innermost frame.
    #[inline]
    fn set_local(&mut self, var: VarId, value: Value) {
        self.thread.locals[self.base + var.index()].store(value);
    }

    /// Returns `value` to the calling frame, which becomes the innermost
    /// one. Only for a frame that has a caller.
    #[inline]
    fn return_to_caller(&mut self, value: Value) -> Frame {
        self.thread.leave_frame(value);
        let caller = self.thread.frames[self.thread.frames.len() - 1];
        self.base = caller.locals_base;
        caller
    }

    /// Moves a register's value out, leaving `Unit`.
    #[inline]
    fn take_reg(&mut self, r: u16) -> Value {
        std::mem::replace(&mut self.regs[r as usize], Value::Unit)
    }

    /// Evaluates a compiled expression where it lies: a scalar tree by
    /// reference, a built value in its `out` register.
    #[inline(always)]
    fn eval(&mut self, e: &CExpr, at: StmtRef) -> Sim<Scalar<'_>> {
        let result = match *e {
            // A plain load is answered before a `Scalars` is assembled:
            // folding these three arms into `Scalars::eval` reads the same
            // but cost 3 % of a `scaled-seq` campaign (11 of 14 pairs).
            CExpr::Scalar(Operand::Var(v)) => {
                return Ok(Scalar::Ref(&self.thread.locals[self.base + v as usize]))
            }
            CExpr::Scalar(Operand::Global(g)) => return Ok(Scalar::Ref(&self.globals[g as usize])),
            CExpr::Scalar(Operand::Const(i)) => {
                return Ok(Scalar::Ref(&self.compiled.pool[i as usize]))
            }
            CExpr::Scalar(Operand::Node(n)) => {
                let scalars = Scalars {
                    nodes: &self.compiled.snodes,
                    pool: &self.compiled.pool,
                    locals: &self.thread.locals[self.base..],
                    globals: self.globals,
                };
                scalars.node(self.rng, n)
            }
            CExpr::Build { start, end, out } => self
                .build(start, end)
                .map(|()| Scalar::Ref(&self.regs[out as usize])),
        };
        result.map_err(|e| located(e, at))
    }

    /// Evaluates a compiled expression to a value of its own.
    #[inline]
    fn eval_owned(&mut self, e: &CExpr, at: StmtRef) -> Sim<Value> {
        match *e {
            CExpr::Scalar(_) => Ok(self.eval(e, at)?.to_value()),
            CExpr::Build { out, .. } => {
                self.eval(e, at)?;
                Ok(self.take_reg(out))
            }
        }
    }

    /// Evaluates a compiled expression and hands the value to `store`,
    /// which puts it where the statement wants it.
    ///
    /// A value returned whole and then moved into place is read back in
    /// wider pieces than it was just written in, and the move waits for
    /// those writes to leave the store buffer. So each kind of value that
    /// is a word or two — nearly all of them — is made in its own inlined
    /// copy of `store`, from what the evaluation left in registers; the
    /// rest, which allocate anyway, are moved.
    #[inline(always)]
    fn eval_into(
        &mut self,
        e: &CExpr,
        at: StmtRef,
        store: impl FnOnce(&mut Self, Value),
    ) -> Sim<()> {
        match *e {
            CExpr::Scalar(_) => match self.eval(e, at)? {
                Scalar::Int(i) | Scalar::Ref(&Value::Int(i)) => store(self, Value::Int(i)),
                Scalar::Bool(b) | Scalar::Ref(&Value::Bool(b)) => store(self, Value::Bool(b)),
                Scalar::Ref(Value::Unit) => store(self, Value::Unit),
                Scalar::Ref(Value::Str(s)) => {
                    let s = s.clone();
                    store(self, Value::Str(s))
                }
                Scalar::Ref(other) => {
                    let v = other.clone();
                    store(self, v)
                }
            },
            CExpr::Build { out, .. } => {
                self.eval(e, at)?;
                let v = self.take_reg(out);
                store(self, v)
            }
        }
        Ok(())
    }

    /// Evaluates a compiled expression as a bool (tree-walk `eval_bool`
    /// semantics): a scalar tree straight to the bool
    /// ([`Scalars::cond`]), anything else through [`Eval::eval`].
    #[inline]
    fn eval_cond(&mut self, e: &CExpr, at: StmtRef) -> Sim<bool> {
        if let CExpr::Scalar(Operand::Node(n)) = *e {
            let scalars = Scalars {
                nodes: &self.compiled.snodes,
                pool: &self.compiled.pool,
                locals: &self.thread.locals[self.base..],
                globals: self.globals,
            };
            return scalars.cond(self.rng, n).map_err(|e| located(e, at));
        }
        let v = self.eval(e, at)?;
        match v.as_bool() {
            Some(b) => Ok(b),
            None => Err(located(expected("bool", v), at)),
        }
    }

    /// Evaluates a compiled expression as an int (tree-walk `eval_int`
    /// semantics).
    #[inline]
    fn eval_ticks(&mut self, e: &CExpr, at: StmtRef) -> Sim<i64> {
        let v = self.eval(e, at)?;
        match v.as_int() {
            Some(i) => Ok(i),
            None => Err(located(expected("int", v), at)),
        }
    }

    /// Executes the op run `eops[start..end]` of an expression that builds
    /// a value, leaving it in the run's `out` register.
    ///
    /// The ops evaluate sub-expressions in exactly the tree-walk's order;
    /// `SkipIf` jumps over the skipped operand's ops, so a short-circuited
    /// right-hand side draws no random numbers.
    fn build(&mut self, start: u32, end: u32) -> Sim<()> {
        let Eval {
            compiled,
            regs,
            rng,
            node_name,
            globals,
            thread,
            base,
        } = self;
        let scalars = Scalars {
            nodes: &compiled.snodes,
            pool: &compiled.pool,
            locals: &thread.locals[*base..],
            globals,
        };
        // Slice the expression's op run once: the loop bound is the slice
        // length, so the per-op fetch needs no bounds check.
        let ops = &compiled.eops[start as usize..end as usize];
        let mut i = 0usize;
        while i < ops.len() {
            match &ops[i] {
                EOp::Scalar { dst, src } => {
                    let v = scalars.eval(rng, *src)?.to_value();
                    regs[*dst as usize].store(v);
                }
                EOp::SelfNode { dst } => {
                    regs[*dst as usize].store(Value::Str((*node_name).clone()));
                }
                EOp::Gather { dst, srcs } => {
                    let items: Vec<Value> = compiled
                        .gathered_of(*srcs)
                        .iter()
                        .map(|s| std::mem::replace(&mut regs[*s as usize], Value::Unit))
                        .collect();
                    regs[*dst as usize].store(Value::List(items));
                }
                EOp::Index { dst, src, idx } => {
                    match std::mem::replace(&mut regs[*src as usize], Value::Unit) {
                        Value::List(mut items) => {
                            if (*idx as usize) >= items.len() {
                                return Err(index_out_of_bounds(*idx, items.len()));
                            }
                            // The list is scratch: move the element out.
                            regs[*dst as usize].store(items.swap_remove(*idx as usize));
                        }
                        other => return Err(index_on_non_list(&other)),
                    }
                }
                EOp::Not { dst, src } => {
                    let s = *src as usize;
                    match regs[s].as_bool() {
                        Some(b) => regs[*dst as usize].store(Value::Bool(!b)),
                        None => return Err(not_on_non_bool(&regs[s])),
                    }
                }
                EOp::Len { dst, src } => {
                    let s = *src as usize;
                    match regs[s].len() {
                        Some(n) => regs[*dst as usize].store(Value::Int(n)),
                        None => return Err(len_on(&regs[s])),
                    }
                }
                EOp::Bin { dst, op, a, b } => {
                    let (a, b) = (&regs[*a as usize], &regs[*b as usize]);
                    let r = bin_scalars(*op, Scalar::Ref(a), Scalar::Ref(b))?.to_value();
                    regs[*dst as usize].store(r);
                }
                EOp::AsBool { dst, src } => {
                    let v = Scalar::Ref(&regs[*src as usize]);
                    let b = v.as_bool().ok_or_else(|| expected("bool", v))?;
                    regs[*dst as usize].store(Value::Bool(b));
                }
                EOp::SkipIf { src, if_val, skip } => {
                    if regs[*src as usize] == Value::Bool(*if_val) {
                        i += *skip as usize;
                    }
                }
            }
            i += 1;
        }
        Ok(())
    }
}

impl<'p> World<'p> {
    /// The evaluation context of `tid`'s innermost frame, for statements
    /// executed outside the slice loop's in-place run.
    fn eval_cx(&mut self, tid: ThreadId) -> Eval<'_> {
        let thread = &mut self.threads[tid];
        let node = &mut self.nodes[thread.node];
        Eval {
            compiled: self.compiled,
            regs: &mut self.regs,
            rng: &mut self.rng,
            node_name: &node.name,
            globals: &mut node.globals,
            base: thread.frames.last().map_or(0, |f| f.locals_base),
            thread,
        }
    }

    /// Evaluates the arguments of a `Spawn` / `Submit`, which outlive the
    /// caller's frame, handing each to `push` in order.
    fn eval_args(
        &mut self,
        tid: ThreadId,
        args: Run,
        at: StmtRef,
        mut push: impl FnMut(Value),
    ) -> Sim<()> {
        let args = self.compiled.args_of(args);
        let mut ev = self.eval_cx(tid);
        for a in args {
            push(ev.eval_owned(a, at)?);
        }
        Ok(())
    }

    /// One scheduling slice of the register VM.
    ///
    /// The loop resolves the thread, its node and its innermost frame once
    /// and runs on them for as long as steps stay on the thread: branches,
    /// loops, assignments, `try` entry, calls and returns, unarmed fault
    /// sites and the ends of plain and loop blocks — four steps in five —
    /// move the cursor right here. Anything that needs the rest of the
    /// world (the scheduler, the log, other threads, `try` unwinding) leaves
    /// the inner loop as a [`Cold`] step, runs out of line, and the loop
    /// resolves again.
    pub(super) fn run_slice_vm(&mut self, tid: ThreadId) -> Sim<Option<u64>> {
        let left = QUANTUM + self.rng.random_range(0..3);
        self.slice_vm(tid, left, 0)
    }

    /// The slice loop of [`World::run_slice_vm`] with `left` steps of the
    /// slice to go and `elapsed` ticks into it: a slice from its start, or
    /// the rest of the one a [`PausedRun`] stopped in.
    #[inline(always)]
    pub(super) fn slice_vm(
        &mut self,
        tid: ThreadId,
        mut left: u64,
        mut elapsed: u64,
    ) -> Sim<Option<u64>> {
        let program = self.program;
        let compiled = self.compiled;
        // Meta-info accesses matter to a crash point only: the feedback
        // search arms none, and then no step looks its statement up.
        let has_meta = !compiled.meta_points.is_empty() && self.fir.crash_armed();
        let max_steps = self.cfg.max_steps;
        while left > 0 {
            let cold = 'hot: {
                let thread = &mut self.threads[tid];
                let Some(&(mut frame)) = thread.frames.last() else {
                    left -= 1;
                    elapsed += 1;
                    break 'hot Cold::Idle;
                };
                let node = &mut self.nodes[thread.node];
                let mut ev = Eval {
                    compiled,
                    regs: &mut self.regs,
                    rng: &mut self.rng,
                    node_name: &node.name,
                    globals: &mut node.globals,
                    base: frame.locals_base,
                    thread,
                };
                loop {
                    if left == 0 {
                        break Cold::Quantum;
                    }
                    left -= 1;
                    elapsed += 1;
                    let cursors = &mut ev.thread.cursors;
                    if cursors.len() <= frame.cursors_base {
                        // The function body is exhausted: implicit `return`.
                        if ev.thread.frames.len() == 1 {
                            break Cold::Return;
                        }
                        frame = ev.return_to_caller(Value::Unit);
                    } else {
                        let top = cursors.len() - 1;
                        let cur = cursors[top];
                        if cur.idx >= compiled.block_len[cur.block.index()] {
                            match cur.tag {
                                CursorTag::Plain => {
                                    cursors.pop();
                                }
                                CursorTag::Loop => {
                                    // Back to the `while`, whose condition
                                    // the next step re-evaluates.
                                    cursors.pop();
                                    if top > frame.cursors_base {
                                        cursors[top - 1].idx = cur.owner;
                                    }
                                }
                                // A `try` body that ends normally just
                                // ends, unless a `finally` wants to run.
                                CursorTag::TryBody
                                    if top > frame.cursors_base
                                        && compiled
                                            .try_finally(StmtRef::new(
                                                cursors[top - 1].block,
                                                cur.owner,
                                            ))
                                            .is_none() =>
                                {
                                    cursors.pop();
                                }
                                _ => break Cold::BlockEnd,
                            }
                        } else {
                            let sref = StmtRef::new(cur.block, cur.idx);
                            let flat = compiled.flat(sref);
                            if has_meta && compiled.is_meta(flat) && self.fir.on_meta_access(sref) {
                                break Cold::Crash;
                            }
                            match &compiled.code[flat] {
                                Instr::If {
                                    cond,
                                    then_blk,
                                    else_blk,
                                } => {
                                    let taken = ev.eval_cond(cond, sref)?;
                                    ev.thread.cursors[top].idx += 1;
                                    if let Some(b) = if taken { Some(*then_blk) } else { *else_blk }
                                    {
                                        ev.thread.push_cursor(b, CursorTag::Plain, 0);
                                    }
                                }
                                Instr::While { cond, body } => {
                                    if ev.eval_cond(cond, sref)? {
                                        ev.thread.push_cursor(*body, CursorTag::Loop, cur.idx);
                                    } else {
                                        ev.thread.cursors[top].idx += 1;
                                    }
                                }
                                Instr::Assign { var, e } => {
                                    ev.eval_into(e, sref, |ev, v| ev.set_local(*var, v))?;
                                    ev.thread.cursors[top].idx += 1;
                                }
                                Instr::SetGlobal { global, e } => {
                                    ev.eval_into(e, sref, |ev, v| {
                                        ev.globals[global.index()].store(v)
                                    })?;
                                    ev.thread.cursors[top].idx += 1;
                                }
                                Instr::Try { body } => {
                                    cursors[top].idx += 1;
                                    ev.thread.push_cursor(*body, CursorTag::TryBody, cur.idx);
                                }
                                Instr::Call { func, args, ret } => {
                                    // The arguments, evaluated in the
                                    // caller's frame, land where the
                                    // callee's slots begin.
                                    let args_at = ev.thread.locals.len();
                                    for a in compiled.args_of(*args) {
                                        ev.eval_into(a, sref, |ev, v| ev.thread.locals.push(v))?;
                                    }
                                    ev.thread.cursors[top].idx += 1;
                                    frame = ev.thread.enter(
                                        &program.funcs[func.index()],
                                        *func,
                                        args_at,
                                        *ret,
                                    )?;
                                    ev.base = frame.locals_base;
                                }
                                Instr::Return { e } => {
                                    let v = match e {
                                        Some(e) => ev.eval_owned(e, sref)?,
                                        None => Value::Unit,
                                    };
                                    if ev.thread.frames.len() == 1 || ev.thread.frame_in_try() {
                                        break Cold::Flow(Flow::Return(v));
                                    }
                                    frame = ev.return_to_caller(v);
                                }
                                Instr::External { site } => {
                                    elapsed += program.sites[site.index()].latency as u64;
                                    let log_pos = self.log.len() as u32;
                                    if self.fir.trace_site(*site, self.clock + elapsed, log_pos) {
                                        break Cold::Armed(*site);
                                    }
                                    cursors[top].idx += 1;
                                }
                                instr => break Cold::Instr(sref, instr),
                            }
                        }
                    }
                    self.steps += 1;
                    if self.steps > max_steps {
                        return Err(Box::new(SimError::StepLimit));
                    }
                }
            };
            match cold {
                Cold::Quantum => break,
                Cold::Idle => self.thread_idle(tid)?,
                Cold::Return => self.do_return(tid, Value::Unit)?,
                Cold::BlockEnd => self.block_end(tid)?,
                Cold::Crash => self.crash_node(tid, elapsed),
                Cold::Armed(site) => {
                    // A paused run stops before its occurrence is decided
                    // (`trace_site` has counted it: the count is at least 1).
                    if (self.pause_at)
                        .is_some_and(|k| self.fir.occurrences()[site.index()] - 1 == k)
                    {
                        return Err(self.pause(Interrupted {
                            tid,
                            site,
                            left,
                            elapsed,
                        }));
                    }
                    self.throw_if_enabled(tid, site, elapsed)?
                }
                Cold::Flow(flow) => self.apply_flow(tid, flow)?,
                Cold::Instr(sref, instr) => {
                    if let Some(flow) = self.exec_instr(tid, sref, instr, elapsed)? {
                        self.apply_flow(tid, flow)?;
                    }
                }
            }
            self.count_step()?;
            if !matches!(self.threads[tid].status, ThreadStatus::Runnable) {
                return Ok(None);
            }
        }
        Ok(Some(elapsed.max(1)))
    }

    /// The second half of an `External` whose site has an armed candidate:
    /// throws if the fault runtime says so. The call stack is built when
    /// someone will look at it — a candidate's guard, or the handler of
    /// the exception thrown.
    pub(super) fn throw_if_enabled(
        &mut self,
        tid: ThreadId,
        site: SiteId,
        elapsed: u64,
    ) -> Sim<()> {
        let guarded = self.fir.guards_stack(site);
        let mut stack = if guarded {
            self.threads[tid].stack_funcs()
        } else {
            Vec::new()
        };
        match self
            .fir
            .throw_if_enabled(site, self.clock + elapsed, &stack)
        {
            Some(ty) => {
                if !guarded {
                    stack = self.threads[tid].stack_funcs();
                }
                self.do_throw(
                    tid,
                    Arc::new(ExcValue {
                        ty,
                        inner: None,
                        origin_site: Some(site),
                        injected: true,
                        stack,
                    }),
                )
            }
            None => {
                self.threads[tid].advance();
                Ok(())
            }
        }
    }

    /// Executes one statement the slice loop does not run in place.
    /// Completing statements advance the cursor themselves; a returned
    /// [`Flow`] is a transfer out of the block.
    // Kept out of line: inlining this large dispatch into the slice loop
    // bloats it past the icache and costs more than the call.
    #[inline(never)]
    fn exec_instr(
        &mut self,
        tid: ThreadId,
        sref: StmtRef,
        instr: &'p Instr,
        elapsed: u64,
    ) -> Sim<Option<Flow>> {
        let program = self.program;
        let compiled = self.compiled;
        let node = self.threads[tid].node;
        match instr {
            Instr::If { .. }
            | Instr::While { .. }
            | Instr::Assign { .. }
            | Instr::SetGlobal { .. }
            | Instr::Try { .. }
            | Instr::Call { .. }
            | Instr::Return { .. }
            | Instr::External { .. } => {
                return Err(internal(format!(
                    "statement at {sref} belongs to the slice loop"
                )))
            }
            Instr::Log {
                level,
                template,
                args,
                attach_stack,
                pre,
            } => {
                // Bodies render in the run's scratch buffer: the entry's
                // shared body is the only allocation.
                let mut out = std::mem::take(&mut self.body_buf);
                let args = compiled.args_of(*args);
                let mut ev = self.eval_cx(tid);
                // Plain loads are pure and render by reference below.
                // Everything else is an op run (`ExprCompiler::log_args`)
                // and runs now, in arg order, preserving RNG draws.
                for a in args {
                    if let CExpr::Build { .. } = a {
                        ev.eval(a, sref)?;
                    }
                }
                let body = match pre {
                    Some(p) => p.clone(),
                    None => {
                        out.clear();
                        for seg in compiled.segs(*template) {
                            match seg {
                                Seg::Text(t) => out.push_str(t),
                                Seg::Arg(n) => match args.get(n as usize) {
                                    Some(CExpr::Build { out: r, .. }) => {
                                        ev.regs[*r as usize].render_into(&mut out)
                                    }
                                    Some(load) => match ev.eval(load, sref)? {
                                        Scalar::Ref(v) => v.render_into(&mut out),
                                        computed => computed.to_value().render_into(&mut out),
                                    },
                                    None => out.push('?'),
                                },
                            }
                        }
                        Arc::from(out.as_str())
                    }
                };
                self.body_buf = out;
                let exc = if *attach_stack {
                    self.current_handler_exc(tid)
                } else {
                    None
                };
                let thread_name = self.threads[tid].name.clone();
                self.emit_raw(
                    node,
                    thread_name,
                    *level,
                    *template,
                    sref,
                    body,
                    exc.as_deref(),
                    elapsed,
                );
            }
            Instr::PushBack { global, e } => {
                let mut ev = self.eval_cx(tid);
                let v = ev.eval_owned(e, sref)?;
                match &mut ev.globals[global.index()] {
                    Value::List(items) => items.push(v),
                    other => {
                        return Err(type_error(
                            Some(sref),
                            format!("PushBack on non-list {other:?}"),
                        ))
                    }
                }
            }
            Instr::PopFront { global, var } => {
                let popped = match &mut self.nodes[node].globals[global.index()] {
                    Value::List(items) => {
                        if items.is_empty() {
                            Value::Unit
                        } else {
                            items.remove(0)
                        }
                    }
                    other => {
                        return Err(type_error(
                            Some(sref),
                            format!("PopFront on non-list {other:?}"),
                        ))
                    }
                };
                self.write_local(tid, *var, popped);
            }
            Instr::ThrowNew { site } => {
                let info = &program.sites[site.index()];
                let stack = self.threads[tid].stack_funcs();
                let time = self.clock + elapsed;
                let log_pos = self.log.len() as u32;
                // `throw new` always throws when reached; the FIR call
                // traces the occurrence and records a matching plan
                // candidate as this round's injection.
                let injected = self.fir.trace_site(*site, time, log_pos)
                    && self.fir.throw_if_enabled(*site, time, &stack).is_some();
                return Ok(Some(Flow::Throw(Arc::new(ExcValue {
                    ty: info.exceptions[0],
                    inner: None,
                    origin_site: Some(*site),
                    injected,
                    stack,
                }))));
            }
            Instr::Rethrow => {
                return match self.current_handler_exc(tid) {
                    Some(exc) => Ok(Some(Flow::Throw(exc))),
                    None => Err(internal(format!("Rethrow outside a handler at {sref}"))),
                }
            }
            Instr::Break => return Ok(Some(Flow::Break)),
            Instr::Continue => return Ok(Some(Flow::Continue)),
            Instr::Spawn { name, func, args } => {
                // The arguments go straight onto the child's slot stack.
                let locals = program.funcs[func.index()].locals as usize;
                let mut stacks = self.idle_stacks(locals);
                self.eval_args(tid, *args, sref, |v| stacks.locals.push(v))?;
                let child = self.create_thread(node, name, Role::Normal, stacks);
                self.push_entry_frame(child, *func, 0)?;
                self.schedule_wake(child, 1, false);
            }
            Instr::Submit {
                exec,
                func,
                args,
                future,
            } => {
                // A task's arguments wait in the executor's argument queue
                // and move onto the worker's slot stack when it starts.
                let exec_at = self.exec_at(node, *exec);
                let mut queued = std::mem::take(&mut self.execs[exec_at].args);
                let evaluated = self.eval_args(tid, *args, sref, |v| queued.push_back(v));
                self.execs[exec_at].args = queued;
                evaluated?;
                let fid = self.futures.len() as u64;
                self.futures.push(FutureState {
                    done: None,
                    waiters: Vec::new(),
                });
                self.execs[exec_at].queue.push_back(Task {
                    func: *func,
                    args: compiled.args_of(*args).len(),
                    future: fid,
                });
                match self.execs[exec_at].worker {
                    Some(worker) => {
                        if matches!(
                            self.threads[worker].status,
                            ThreadStatus::Blocked(BlockReason::IdleWorker)
                        ) {
                            self.wake_thread(worker, WakeNote::Signaled);
                        }
                    }
                    None => {
                        let name = compiled.worker_names[exec.index()].clone();
                        let stacks = self.idle_stacks(0);
                        let worker = self.create_thread(node, &name, Role::Worker(*exec), stacks);
                        self.execs[exec_at].worker = Some(worker);
                        self.schedule_wake(worker, 1, false);
                    }
                }
                if let Some(var) = future {
                    self.write_local(tid, *var, Value::Future(fid));
                }
            }
            Instr::Await {
                future,
                timeout,
                ret,
            } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                let fid = match &self.threads[tid].frame_locals()[future.index()] {
                    Value::Future(f) => *f,
                    other => {
                        return Err(type_error(
                            Some(sref),
                            format!("Await on non-future {other:?}"),
                        ))
                    }
                };
                match self.futures[fid as usize].done.clone() {
                    Some(Ok(v)) => {
                        if let Some(var) = ret {
                            self.write_local(tid, *var, v);
                        }
                    }
                    Some(Err(task_exc)) => {
                        let stack = self.threads[tid].stack_funcs();
                        return Ok(Some(Flow::Throw(Arc::new(ExcValue {
                            ty: ExceptionType::Execution,
                            inner: Some(Box::new((*task_exc).clone())),
                            origin_site: task_exc.origin_site,
                            injected: task_exc.injected,
                            stack,
                        }))));
                    }
                    None => {
                        if note == WakeNote::Expired {
                            return Ok(Some(self.timeout_exc(tid)));
                        }
                        let t = self.eval_timeout(tid, timeout, sref)?;
                        self.park(tid, BlockReason::Future(fid), t);
                        return Ok(None);
                    }
                }
            }
            Instr::Send {
                dest,
                chan,
                payload,
            } => {
                let dest_name = match self.eval_cx(tid).eval_owned(dest, sref)? {
                    Value::Str(s) => s,
                    other => {
                        return Err(type_error(
                            Some(sref),
                            format!("Send destination must be a node name, got {other:?}"),
                        ))
                    }
                };
                let dest_idx = self
                    .node_named(&dest_name)
                    .ok_or_else(|| Box::new(SimError::NoSuchNode(dest_name.to_string())))?;
                let value = self.eval_cx(tid).eval_owned(payload, sref)?;
                let latency = self.rng.random_range(NET_LATENCY);
                self.schedule_deliver(latency, dest_idx, *chan, value);
            }
            Instr::Recv { chan, var, timeout } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                let chan_at = self.chan_at(node, *chan);
                match self.chans[chan_at].pop_front() {
                    Some(v) => self.write_local(tid, *var, v),
                    None => {
                        if note == WakeNote::Expired {
                            return Ok(Some(self.timeout_exc(tid)));
                        }
                        let t = self.eval_timeout(tid, timeout, sref)?;
                        self.park(tid, BlockReason::Chan(*chan), t);
                        return Ok(None);
                    }
                }
            }
            Instr::WaitCond { cond, timeout, ok } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                if note == WakeNote::None {
                    let t = self.eval_timeout(tid, timeout, sref)?;
                    self.park(tid, BlockReason::Cond(*cond), t);
                    return Ok(None);
                }
                if let Some(var) = ok {
                    self.write_local(tid, *var, Value::Bool(note == WakeNote::Signaled));
                }
            }
            Instr::SignalCond { cond } => {
                let cond_at = self.cond_at(node, *cond);
                let waiters = std::mem::take(&mut self.cond_waiters[cond_at]);
                for w in waiters {
                    self.wake_thread(w, WakeNote::Signaled);
                }
            }
            Instr::Sleep { ticks } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                if note != WakeNote::Expired {
                    let t = self.eval_cx(tid).eval_ticks(ticks, sref)? as u64;
                    self.park(tid, BlockReason::Sleep, Some(t));
                    return Ok(None);
                }
            }
            Instr::Abort { reason } => {
                let node_name = self.nodes[node].name.to_string();
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name,
                    Level::Error,
                    TMPL_ABORT,
                    STMT_RUNTIME,
                    &[node_name, reason.to_string()],
                    None,
                    elapsed,
                );
                self.nodes[node].aborted = true;
                self.kill_node(node);
                return Ok(None);
            }
            Instr::Halt => {
                let t = &mut self.threads[tid];
                t.clear_frames();
                if t.role == Role::Normal {
                    t.status = ThreadStatus::Done;
                }
                return Ok(None);
            }
        }
        self.threads[tid].advance();
        Ok(None)
    }

    /// A blocking statement's optional timeout, in ticks.
    fn eval_timeout(
        &mut self,
        tid: ThreadId,
        timeout: &Option<CExpr>,
        at: StmtRef,
    ) -> Sim<Option<u64>> {
        match timeout {
            Some(e) => Ok(Some(self.eval_cx(tid).eval_ticks(e, at)? as u64)),
            None => Ok(None),
        }
    }
}

/// Non-short-circuit binary op over two scalar results, with the
/// tree-walk's exact typing rules and error strings.
#[inline]
fn bin_scalars<'a>(op: BinOp, a: Scalar<'_>, b: Scalar<'_>) -> Sim<Scalar<'a>> {
    let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
        return bin_scalars_slow(op, a, b);
    };
    Ok(match op {
        BinOp::Add => Scalar::Int(x.wrapping_add(y)),
        BinOp::Sub => Scalar::Int(x.wrapping_sub(y)),
        BinOp::Mul => Scalar::Int(x.wrapping_mul(y)),
        BinOp::Lt => Scalar::Bool(x < y),
        BinOp::Le => Scalar::Bool(x <= y),
        BinOp::Gt => Scalar::Bool(x > y),
        BinOp::Ge => Scalar::Bool(x >= y),
        BinOp::Eq => Scalar::Bool(x == y),
        BinOp::Ne => Scalar::Bool(x != y),
        BinOp::Rem if y != 0 => Scalar::Int(x.wrapping_rem(y)),
        BinOp::Rem | BinOp::And | BinOp::Or => return bin_scalars_slow(op, a, b),
    })
}

/// Everything but arithmetic and comparison over two ints: structural
/// (in)equality, and the errors.
fn bin_scalars_slow<'a>(op: BinOp, a: Scalar<'_>, b: Scalar<'_>) -> Sim<Scalar<'a>> {
    match op {
        BinOp::Eq => Ok(Scalar::Bool(a.same(b))),
        BinOp::Ne => Ok(Scalar::Bool(!a.same(b))),
        BinOp::And | BinOp::Or => Err(internal("And/Or short-circuit, they are no Bin op")),
        BinOp::Rem if a.as_int().is_some() && b.as_int().is_some() => {
            Err(expr_error("remainder by zero".into()))
        }
        _ => Err(expr_error(format!("{op:?} on non-ints"))),
    }
}
