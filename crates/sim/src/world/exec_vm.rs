//! The register-VM statement executor — the default engine, running the
//! flat instruction stream produced by [`anduril_ir::lower`].
//!
//! One `Instr` per statement, addressed by `stmt_base[block] + idx`;
//! expression trees are runs of register ops over a scratch frame allocated
//! once per run. The common path allocates nothing per step: constants clone
//! from the pool, names are interned `Arc<str>`s, log bodies render in one
//! scratch buffer, call arguments are evaluated straight onto the callee's
//! slots, and values move between registers with `mem::replace`. Every
//! statement mirrors the tree-walk oracle (`exec_ast`) — same evaluation
//! order, same RNG draws, same error strings — so runs are byte-identical
//! across engines.
//!
//! Statements that stay on their thread run inside the slice loop
//! ([`World::run_slice_vm`]); the rest run out of line in `exec_instr`.

use super::*;
use crate::thread::Frame;
use anduril_ir::builder::TMPL_ABORT;
use anduril_ir::lower::{CExpr, EOp, FastExpr, Instr, Operand, Seg};
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
    /// wants the call stack.
    Armed(SiteId),
    /// A transfer out of the block that `try` machinery may intercept.
    Flow(Flow),
    /// Any statement the loop does not execute in place.
    Instr(StmtRef, &'p Instr),
}

impl Eval<'_> {
    /// Resolves an operand to a borrowed value.
    #[inline]
    fn operand(&self, o: &Operand) -> &Value {
        match o {
            Operand::Var(v) => &self.thread.locals[self.base + *v as usize],
            Operand::Global(g) => &self.globals[*g as usize],
            Operand::Const(i) => &self.compiled.pool[*i as usize],
        }
    }

    /// Writes a slot of the innermost frame.
    #[inline]
    fn set_local(&mut self, var: VarId, value: Value) {
        self.thread.locals[self.base + var.index()] = value;
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

    /// Evaluates a compiled expression to an owned value, skipping the
    /// register file when the compiler collapsed it to a load or a fused
    /// comparison. Semantics, evaluation order, and error strings are
    /// exactly `eval_c` + `take_reg`.
    #[inline]
    fn eval_owned(&mut self, e: &CExpr, at: Option<StmtRef>) -> Sim<Value> {
        match &e.fast {
            FastExpr::Load(o) => Ok(self.operand(o).clone()),
            FastExpr::Bin(op, a, b) => bin_values(*op, self.operand(a), self.operand(b), at),
            FastExpr::None => {
                self.eval_c(e, at)?;
                Ok(self.take_reg(e.out))
            }
        }
    }

    /// Evaluates a compiled expression as a bool (tree-walk `eval_bool`
    /// semantics), using the fast shape when available.
    #[inline]
    fn eval_cond(&mut self, e: &CExpr, at: StmtRef) -> Sim<bool> {
        let fused;
        let got = match &e.fast {
            FastExpr::Load(o) => self.operand(o),
            FastExpr::Bin(op, a, b) => {
                fused = bin_values(*op, self.operand(a), self.operand(b), Some(at))?;
                &fused
            }
            FastExpr::None => {
                self.eval_c(e, Some(at))?;
                &self.regs[e.out as usize]
            }
        };
        got.as_bool()
            .ok_or_else(|| type_error(Some(at), format!("expected bool, got {got:?}")))
    }

    /// Evaluates a compiled expression as an int (tree-walk `eval_int`
    /// semantics).
    #[inline]
    fn eval_ticks(&mut self, e: &CExpr, at: StmtRef) -> Sim<i64> {
        let v = self.eval_owned(e, Some(at))?;
        v.as_int()
            .ok_or_else(|| type_error(Some(at), format!("expected int, got {v:?}")))
    }

    /// Evaluates a compiled expression into its `out` register, using the
    /// fast shape to skip the op loop when possible.
    #[inline]
    fn eval_reg(&mut self, e: &CExpr, at: Option<StmtRef>) -> Sim<()> {
        if matches!(e.fast, FastExpr::None) {
            return self.eval_c(e, at);
        }
        let v = self.eval_owned(e, at)?;
        self.regs[e.out as usize] = v;
        Ok(())
    }

    /// Executes a compiled expression, leaving the result in `e.out`.
    ///
    /// The op run evaluates sub-expressions in exactly the tree-walk's
    /// order; `SkipIf` jumps over the skipped operand's ops, so a
    /// short-circuited right-hand side draws no random numbers.
    fn eval_c(&mut self, e: &CExpr, at: Option<StmtRef>) -> Sim<()> {
        let Eval {
            compiled,
            regs,
            rng,
            node_name,
            globals,
            thread,
            base,
        } = self;
        let locals = &thread.locals[*base..];
        let pool: &[Value] = &compiled.pool;
        let operand = |o: &Operand| -> &Value {
            match o {
                Operand::Var(v) => &locals[*v as usize],
                Operand::Global(g) => &globals[*g as usize],
                Operand::Const(i) => &pool[*i as usize],
            }
        };
        // Slice the expression's op run once: the loop bound is the slice
        // length, so the per-op fetch needs no bounds check.
        let ops = &compiled.eops[e.start as usize..e.end as usize];
        let mut i = 0usize;
        while i < ops.len() {
            match &ops[i] {
                EOp::Const { dst, idx } => {
                    regs[*dst as usize] = pool[*idx as usize].clone();
                }
                EOp::Var { dst, var } => {
                    regs[*dst as usize] = locals[*var as usize].clone();
                }
                EOp::Global { dst, global } => {
                    regs[*dst as usize] = globals[*global as usize].clone();
                }
                EOp::Not { dst, src } => {
                    let s = *src as usize;
                    match regs[s].as_bool() {
                        Some(b) => regs[*dst as usize] = Value::Bool(!b),
                        None => return Err(type_error(at, format!("! on non-bool {:?}", regs[s]))),
                    }
                }
                EOp::Len { dst, src } => {
                    let s = *src as usize;
                    match regs[s].len() {
                        Some(n) => regs[*dst as usize] = Value::Int(n),
                        None => return Err(type_error(at, format!("len on {:?}", regs[s]))),
                    }
                }
                EOp::Gather { dst, srcs } => {
                    let items: Vec<Value> = srcs
                        .iter()
                        .map(|s| std::mem::replace(&mut regs[*s as usize], Value::Unit))
                        .collect();
                    regs[*dst as usize] = Value::List(items);
                }
                EOp::Index { dst, src, idx } => {
                    let v = std::mem::replace(&mut regs[*src as usize], Value::Unit);
                    match v {
                        Value::List(mut items) => {
                            let n = items.len();
                            if (*idx as usize) < n {
                                // The list is scratch: move the element out.
                                regs[*dst as usize] = items.swap_remove(*idx as usize);
                            } else {
                                return Err(type_error(
                                    at,
                                    format!("index {idx} out of bounds ({n} items)"),
                                ));
                            }
                        }
                        other => {
                            return Err(type_error(at, format!("index on non-list {other:?}")))
                        }
                    }
                }
                EOp::IndexVar { dst, var, idx } => {
                    regs[*dst as usize] = index_list(&locals[*var as usize], *idx, at)?;
                }
                EOp::IndexGlobal { dst, global, idx } => {
                    regs[*dst as usize] = index_list(&globals[*global as usize], *idx, at)?;
                }
                EOp::Rand { dst, lo, hi } => {
                    let v = if hi > lo {
                        rng.random_range(*lo..*hi)
                    } else {
                        *lo
                    };
                    regs[*dst as usize] = Value::Int(v);
                }
                EOp::SelfNode { dst } => {
                    regs[*dst as usize] = Value::Str((*node_name).clone());
                }
                EOp::Bin { dst, op, a, b } => {
                    let r = bin_values(*op, &regs[*a as usize], &regs[*b as usize], at)?;
                    regs[*dst as usize] = r;
                }
                EOp::BinRef { dst, op, a, b } => {
                    let r = bin_values(*op, operand(a), operand(b), at)?;
                    regs[*dst as usize] = r;
                }
                EOp::AsBool { dst, src } => {
                    let s = *src as usize;
                    match regs[s].as_bool() {
                        Some(b) => regs[*dst as usize] = Value::Bool(b),
                        None => {
                            return Err(type_error(at, format!("expected bool, got {:?}", regs[s])))
                        }
                    }
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

/// Clones element `idx` of a list value (the fused `var[idx]` /
/// `global[idx]` forms), with the tree-walk's error strings.
fn index_list(list: &Value, idx: u32, at: Option<StmtRef>) -> Sim<Value> {
    match list {
        Value::List(items) => items.get(idx as usize).cloned().ok_or_else(|| {
            type_error(
                at,
                format!("index {idx} out of bounds ({} items)", items.len()),
            )
        }),
        other => Err(type_error(at, format!("index on non-list {other:?}"))),
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
    /// caller's frame.
    fn eval_args(&mut self, tid: ThreadId, args: &[CExpr], at: StmtRef) -> Sim<Vec<Value>> {
        let mut ev = self.eval_cx(tid);
        args.iter().map(|a| ev.eval_owned(a, Some(at))).collect()
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
        let program = self.program;
        let compiled = self.compiled;
        let has_meta = !compiled.meta_points.is_empty();
        let max_steps = self.cfg.max_steps;
        let mut left = self.cfg.quantum as u64 + self.rng.random_range(0..3);
        let mut elapsed: u64 = 0;
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
                                    let v = ev.eval_owned(e, Some(sref))?;
                                    ev.set_local(*var, v);
                                    ev.thread.cursors[top].idx += 1;
                                }
                                Instr::SetGlobal { global, e } => {
                                    let v = ev.eval_owned(e, Some(sref))?;
                                    ev.globals[global.index()] = v;
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
                                    for a in args.iter() {
                                        let v = ev.eval_owned(a, Some(sref))?;
                                        ev.thread.locals.push(v);
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
                                        Some(e) => ev.eval_owned(e, Some(sref))?,
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
                Cold::Armed(site) => self.throw_if_enabled(tid, site, elapsed)?,
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
    /// builds the call stack the candidate's guard may read and throws if
    /// the fault runtime says so.
    fn throw_if_enabled(&mut self, tid: ThreadId, site: SiteId, elapsed: u64) -> Sim<()> {
        let stack = self.threads[tid].stack_funcs();
        match self
            .fir
            .throw_if_enabled(site, self.clock + elapsed, &stack)
        {
            Some(ty) => self.do_throw(
                tid,
                Arc::new(ExcValue {
                    ty,
                    inner: None,
                    origin_site: Some(site),
                    injected: true,
                    stack,
                }),
            ),
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
                let mut ev = self.eval_cx(tid);
                // Simple loads are pure: leave them unevaluated and render
                // them by reference below. Everything else runs in arg
                // order, preserving RNG draws.
                for a in args.iter() {
                    if !matches!(a.fast, FastExpr::Load(_)) {
                        ev.eval_reg(a, Some(sref))?;
                    }
                }
                let body = match pre {
                    Some(p) => p.clone(),
                    None => {
                        out.clear();
                        for seg in compiled.templates[template.index()].segs.iter() {
                            match seg {
                                Seg::Text(t) => out.push_str(t),
                                Seg::Arg(n) => match args.get(*n as usize) {
                                    Some(a) => match &a.fast {
                                        FastExpr::Load(o) => ev.operand(o).render_into(&mut out),
                                        _ => ev.regs[a.out as usize].render_into(&mut out),
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
                let v = ev.eval_owned(e, Some(sref))?;
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
                let vals = self.eval_args(tid, args, sref)?;
                let child = self.create_thread(node, name, Role::Normal);
                self.push_entry_frame(child, *func, vals)?;
                self.schedule_wake(child, 1, false);
            }
            Instr::Submit {
                exec,
                func,
                args,
                future,
            } => {
                let vals = self.eval_args(tid, args, sref)?;
                let fid = self.futures.len() as u64;
                self.futures.push(FutureState {
                    done: None,
                    waiters: Vec::new(),
                });
                self.nodes[node].execs[exec.index()].queue.push_back(Task {
                    func: *func,
                    args: vals,
                    future: fid,
                });
                match self.nodes[node].execs[exec.index()].worker {
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
                        let worker = self.create_thread(node, &name, Role::Worker(*exec));
                        self.nodes[node].execs[exec.index()].worker = Some(worker);
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
                let dest_name = match self.eval_cx(tid).eval_owned(dest, Some(sref))? {
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
                let value = self.eval_cx(tid).eval_owned(payload, Some(sref))?;
                let (lo, hi) = self.cfg.net_latency;
                let latency = if hi > lo {
                    self.rng.random_range(lo..hi)
                } else {
                    lo
                };
                self.schedule_deliver(latency, dest_idx, *chan, value);
            }
            Instr::Recv { chan, var, timeout } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                match self.nodes[node].chans[chan.index()].pop_front() {
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
                let waiters = std::mem::take(&mut self.nodes[node].cond_waiters[cond.index()]);
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

/// Non-short-circuit binary op over two values, with the tree-walk's
/// exact typing rules and error strings.
#[inline]
fn bin_values(op: BinOp, a: &Value, b: &Value, at: Option<StmtRef>) -> Sim<Value> {
    let (Some(x), Some(y)) = (a.as_int(), b.as_int()) else {
        return bin_values_slow(op, a, b, at);
    };
    Ok(match op {
        BinOp::Add => Value::Int(x.wrapping_add(y)),
        BinOp::Sub => Value::Int(x.wrapping_sub(y)),
        BinOp::Mul => Value::Int(x.wrapping_mul(y)),
        BinOp::Lt => Value::Bool(x < y),
        BinOp::Le => Value::Bool(x <= y),
        BinOp::Gt => Value::Bool(x > y),
        BinOp::Ge => Value::Bool(x >= y),
        BinOp::Eq => Value::Bool(x == y),
        BinOp::Ne => Value::Bool(x != y),
        BinOp::Rem if y != 0 => Value::Int(x.wrapping_rem(y)),
        BinOp::Rem | BinOp::And | BinOp::Or => return bin_values_slow(op, a, b, at),
    })
}

/// Everything but arithmetic and comparison over two ints: structural
/// (in)equality, and the errors.
fn bin_values_slow(op: BinOp, a: &Value, b: &Value, at: Option<StmtRef>) -> Sim<Value> {
    match op {
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::And | BinOp::Or => Err(internal("And/Or must lower to SkipIf, not Bin")),
        BinOp::Rem if a.as_int().is_some() && b.as_int().is_some() => {
            Err(type_error(at, "remainder by zero".into()))
        }
        _ => Err(type_error(at, format!("{op:?} on non-ints"))),
    }
}
