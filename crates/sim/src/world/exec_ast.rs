//! The tree-walking statement executor — the original interpreter, retained
//! as a differential oracle for the register VM (`exec_vm`).
//!
//! Compiled out of release builds unless the `tree-walk-oracle` feature is
//! enabled (the log-diff crate's superseded quadratic Myers is kept the
//! same way, for its own tests only: `cfg(test)`, no feature). It shares
//! every scheduler/control-flow/FIR path with the VM through the parent
//! module; only statement execution and expression evaluation live here, so
//! any divergence between engines is a bug in exactly one of these two
//! files.

use super::*;
use crate::config::{NET_LATENCY, QUANTUM};
use anduril_ir::builder::TMPL_ABORT;
use anduril_ir::{BinOp, ExceptionType, Expr, Stmt};

impl World<'_> {
    /// One scheduling slice of the tree-walk: the VM's slice
    /// (`run_slice_vm`) with every step taken out of line.
    pub(super) fn run_slice_ast(&mut self, tid: ThreadId) -> Sim<Option<u64>> {
        let quantum = QUANTUM + self.rng.random_range(0..3);
        let mut elapsed: u64 = 0;
        for _ in 0..quantum {
            elapsed += 1;
            self.step_ast(tid, &mut elapsed)?;
            self.count_step()?;
            if !matches!(self.threads[tid].status, ThreadStatus::Runnable) {
                return Ok(None);
            }
        }
        Ok(Some(elapsed.max(1)))
    }

    fn step_ast(&mut self, tid: ThreadId, elapsed: &mut u64) -> Sim<()> {
        let t = &mut self.threads[tid];
        if t.frames.is_empty() {
            return self.thread_idle(tid);
        }
        let Some(&mut cur) = t.top_cursor_mut() else {
            // The function body is exhausted: implicit `return`.
            return self.do_return(tid, Value::Unit);
        };
        if cur.idx >= self.compiled.block_len[cur.block.index()] {
            return self.block_end(tid);
        }
        let sref = StmtRef::new(cur.block, cur.idx);
        if self.compiled.is_meta(self.compiled.flat(sref)) && self.fir.on_meta_access(sref) {
            self.crash_node(tid, *elapsed);
            return Ok(());
        }
        match self.exec_stmt(tid, sref, elapsed)? {
            Some(flow) => self.apply_flow(tid, flow),
            None => Ok(()),
        }
    }

    /// The statement completed: move past it.
    fn advanced(&mut self, tid: ThreadId) -> Option<Flow> {
        self.threads[tid].advance();
        None
    }

    /// Clones a local (the tree-walk's variable read; the VM reads locals
    /// by borrow).
    fn read_local(&self, tid: ThreadId, var: VarId) -> Value {
        self.threads[tid].frame_locals()[var.index()].clone()
    }

    fn eval_vals(&mut self, tid: ThreadId, args: &[Expr], at: StmtRef) -> Sim<Vec<Value>> {
        args.iter().map(|a| self.eval(tid, a, Some(at))).collect()
    }

    fn exec_stmt(&mut self, tid: ThreadId, sref: StmtRef, elapsed: &mut u64) -> Sim<Option<Flow>> {
        let program = self.program;
        let stmt = program.stmt(sref);
        let node = self.threads[tid].node;
        match stmt {
            Stmt::Log {
                level,
                template,
                args,
                attach_stack,
            } => {
                let mut rendered = Vec::with_capacity(args.len());
                for a in args {
                    rendered.push(self.eval(tid, a, Some(sref))?.render());
                }
                let exc = if *attach_stack {
                    self.current_handler_exc(tid)
                } else {
                    None
                };
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name,
                    *level,
                    *template,
                    sref,
                    &rendered,
                    exc.as_deref(),
                    *elapsed,
                );
                Ok(self.advanced(tid))
            }
            Stmt::Assign { var, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                self.write_local(tid, *var, v);
                Ok(self.advanced(tid))
            }
            Stmt::SetGlobal { global, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                self.nodes[node].globals[global.index()] = v;
                Ok(self.advanced(tid))
            }
            Stmt::PushBack { global, expr } => {
                let v = self.eval(tid, expr, Some(sref))?;
                match &mut self.nodes[node].globals[global.index()] {
                    Value::List(items) => {
                        items.push(v);
                        Ok(self.advanced(tid))
                    }
                    other => Err(type_error(
                        Some(sref),
                        format!("PushBack on non-list {other:?}"),
                    )),
                }
            }
            Stmt::PopFront { global, var } => {
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
                Ok(self.advanced(tid))
            }
            Stmt::Call { func, args, ret } => {
                let vals = self.eval_vals(tid, args, sref)?;
                // Advance past the call before pushing the callee frame.
                let t = &mut self.threads[tid];
                t.advance();
                let args_at = t.locals.len();
                t.locals.extend(vals);
                t.enter(&program.funcs[func.index()], *func, args_at, *ret)?;
                Ok(None)
            }
            Stmt::External { site } => {
                let info = &program.sites[site.index()];
                *elapsed += info.latency as u64;
                let stack = self.threads[tid].stack_funcs();
                let time = self.clock + *elapsed;
                let log_pos = self.log.len() as u32;
                let armed = self.fir.trace_site(*site, time, log_pos);
                match armed
                    .then(|| self.fir.throw_if_enabled(*site, time, &stack))
                    .flatten()
                {
                    Some(ty) => Ok(Some(Flow::Throw(Arc::new(ExcValue {
                        ty,
                        inner: None,
                        origin_site: Some(*site),
                        injected: true,
                        stack,
                    })))),
                    None => Ok(self.advanced(tid)),
                }
            }
            Stmt::ThrowNew { site } => {
                let info = &program.sites[site.index()];
                let stack = self.threads[tid].stack_funcs();
                let time = self.clock + *elapsed;
                let log_pos = self.log.len() as u32;
                // `throw new` always throws when reached; the FIR call
                // traces the occurrence and records a matching plan
                // candidate as this round's injection.
                let injected = self.fir.trace_site(*site, time, log_pos)
                    && self.fir.throw_if_enabled(*site, time, &stack).is_some();
                Ok(Some(Flow::Throw(Arc::new(ExcValue {
                    ty: info.exceptions[0],
                    inner: None,
                    origin_site: Some(*site),
                    injected,
                    stack,
                }))))
            }
            Stmt::Rethrow => match self.current_handler_exc(tid) {
                Some(exc) => Ok(Some(Flow::Throw(exc))),
                None => Err(internal(format!("Rethrow outside a handler at {sref}"))),
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = self.eval_bool(tid, cond, sref)?;
                let t = &mut self.threads[tid];
                t.advance();
                if let Some(b) = if taken { Some(*then_blk) } else { *else_blk } {
                    t.push_cursor(b, CursorTag::Plain, 0);
                }
                Ok(None)
            }
            Stmt::While { cond, body } => {
                if self.eval_bool(tid, cond, sref)? {
                    self.threads[tid].push_cursor(*body, CursorTag::Loop, sref.idx);
                    Ok(None)
                } else {
                    Ok(self.advanced(tid))
                }
            }
            Stmt::Try { body, .. } => {
                let t = &mut self.threads[tid];
                t.advance();
                t.push_cursor(*body, CursorTag::TryBody, sref.idx);
                Ok(None)
            }
            Stmt::Return { expr } => {
                let v = match expr {
                    Some(e) => self.eval(tid, e, Some(sref))?,
                    None => Value::Unit,
                };
                Ok(Some(Flow::Return(v)))
            }
            Stmt::Break => Ok(Some(Flow::Break)),
            Stmt::Continue => Ok(Some(Flow::Continue)),
            Stmt::Spawn { name, func, args } => {
                let locals = program.funcs[func.index()].locals as usize;
                let mut stacks = self.idle_stacks(locals);
                for a in args {
                    stacks.locals.push(self.eval(tid, a, Some(sref))?);
                }
                let name: Arc<str> = Arc::from(name.as_str());
                let child = self.create_thread(node, &name, Role::Normal, stacks);
                self.push_entry_frame(child, *func, 0)?;
                self.schedule_wake(child, 1, false);
                Ok(self.advanced(tid))
            }
            Stmt::Submit {
                exec,
                func,
                args,
                future,
            } => {
                let exec_at = self.exec_at(node, *exec);
                for a in args {
                    let v = self.eval(tid, a, Some(sref))?;
                    self.execs[exec_at].args.push_back(v);
                }
                let fid = self.futures.len() as u64;
                self.futures.push(FutureState {
                    done: None,
                    waiters: Vec::new(),
                });
                self.execs[exec_at].queue.push_back(Task {
                    func: *func,
                    args: args.len(),
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
                        let name: Arc<str> =
                            Arc::from(format!("{}-worker", program.execs[exec.index()]).as_str());
                        let stacks = self.idle_stacks(0);
                        let worker = self.create_thread(node, &name, Role::Worker(*exec), stacks);
                        self.execs[exec_at].worker = Some(worker);
                        self.schedule_wake(worker, 1, false);
                    }
                }
                if let Some(var) = future {
                    self.write_local(tid, *var, Value::Future(fid));
                }
                Ok(self.advanced(tid))
            }
            Stmt::Await {
                future,
                timeout,
                ret,
            } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                let fid = match self.read_local(tid, *future) {
                    Value::Future(f) => f,
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
                        Ok(self.advanced(tid))
                    }
                    Some(Err(task_exc)) => {
                        let stack = self.threads[tid].stack_funcs();
                        Ok(Some(Flow::Throw(Arc::new(ExcValue {
                            ty: ExceptionType::Execution,
                            inner: Some(Box::new((*task_exc).clone())),
                            origin_site: task_exc.origin_site,
                            injected: task_exc.injected,
                            stack,
                        }))))
                    }
                    None => {
                        if note == WakeNote::Expired {
                            return Ok(Some(self.timeout_exc(tid)));
                        }
                        let t = match timeout {
                            Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                            None => None,
                        };
                        self.park(tid, BlockReason::Future(fid), t);
                        Ok(None)
                    }
                }
            }
            Stmt::Send {
                node: dest,
                chan,
                payload,
            } => {
                let dest_name = match self.eval(tid, dest, Some(sref))? {
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
                let value = self.eval(tid, payload, Some(sref))?;
                let latency = self.rng.random_range(NET_LATENCY);
                self.schedule_deliver(latency, dest_idx, *chan, value);
                Ok(self.advanced(tid))
            }
            Stmt::Recv { chan, var, timeout } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                let chan_at = self.chan_at(node, *chan);
                if let Some(v) = self.chans[chan_at].pop_front() {
                    self.write_local(tid, *var, v);
                    return Ok(self.advanced(tid));
                }
                if note == WakeNote::Expired {
                    return Ok(Some(self.timeout_exc(tid)));
                }
                let t = match timeout {
                    Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                    None => None,
                };
                self.park(tid, BlockReason::Chan(*chan), t);
                Ok(None)
            }
            Stmt::WaitCond { cond, timeout, ok } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                match note {
                    WakeNote::Signaled => {
                        if let Some(var) = ok {
                            self.write_local(tid, *var, Value::Bool(true));
                        }
                        Ok(self.advanced(tid))
                    }
                    WakeNote::Expired => {
                        if let Some(var) = ok {
                            self.write_local(tid, *var, Value::Bool(false));
                        }
                        Ok(self.advanced(tid))
                    }
                    WakeNote::None => {
                        let t = match timeout {
                            Some(e) => Some(self.eval_int(tid, e, sref)? as u64),
                            None => None,
                        };
                        self.park(tid, BlockReason::Cond(*cond), t);
                        Ok(None)
                    }
                }
            }
            Stmt::SignalCond { cond } => {
                let cond_at = self.cond_at(node, *cond);
                let waiters = std::mem::take(&mut self.cond_waiters[cond_at]);
                for w in waiters {
                    self.wake_thread(w, WakeNote::Signaled);
                }
                Ok(self.advanced(tid))
            }
            Stmt::Sleep { ticks } => {
                let note = std::mem::replace(&mut self.threads[tid].note, WakeNote::None);
                if note == WakeNote::Expired {
                    Ok(self.advanced(tid))
                } else {
                    let t = self.eval_int(tid, ticks, sref)? as u64;
                    self.park(tid, BlockReason::Sleep, Some(t));
                    Ok(None)
                }
            }
            Stmt::Abort { reason } => {
                let node_name = self.nodes[node].name.to_string();
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name,
                    Level::Error,
                    TMPL_ABORT,
                    STMT_RUNTIME,
                    &[node_name, reason.clone()],
                    None,
                    *elapsed,
                );
                self.nodes[node].aborted = true;
                self.kill_node(node);
                Ok(None)
            }
            Stmt::Halt => {
                let t = &mut self.threads[tid];
                t.clear_frames();
                if t.role == Role::Normal {
                    t.status = ThreadStatus::Done;
                }
                Ok(None)
            }
        }
    }

    /// Borrow-based fast path for side-effect-free expressions: resolves
    /// `Const`/`Var`/`Global` and index chains over them to a reference
    /// without cloning. Returns `None` for anything else (or an index miss),
    /// in which case the caller falls back to [`World::eval`], which
    /// reproduces the exact error.
    fn eval_ref<'a>(&'a self, tid: ThreadId, e: &'a Expr) -> Option<&'a Value> {
        match e {
            Expr::Const(v) => Some(v),
            Expr::Var(v) => self.threads[tid].frame_locals().get(v.index()),
            Expr::Global(g) => {
                let node = self.threads[tid].node;
                Some(&self.nodes[node].globals[g.index()])
            }
            Expr::Index(a, i) => match self.eval_ref(tid, a)? {
                Value::List(items) => items.get(*i as usize),
                _ => None,
            },
            _ => None,
        }
    }

    /// Expression evaluation keeps the plain error inside the tree (it
    /// recurses per node); statements see it boxed like the VM's.
    fn eval(&mut self, tid: ThreadId, e: &Expr, at: Option<StmtRef>) -> Sim<Value> {
        self.eval_tree(tid, e, at).map_err(Box::new)
    }

    fn eval_tree(
        &mut self,
        tid: ThreadId,
        e: &Expr,
        at: Option<StmtRef>,
    ) -> Result<Value, SimError> {
        let node = self.threads[tid].node;
        match e {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(v) => Ok(self.read_local(tid, *v)),
            Expr::Global(g) => Ok(self.nodes[node].globals[g.index()].clone()),
            Expr::Not(a) => {
                let v = self.eval_tree(tid, a, at)?;
                match v.as_bool() {
                    Some(b) => Ok(Value::Bool(!b)),
                    None => Err(SimError::Type {
                        stmt: at,
                        msg: format!("! on non-bool {v:?}"),
                    }),
                }
            }
            Expr::Len(a) => {
                let v = self.eval_tree(tid, a, at)?;
                v.len().map(Value::Int).ok_or(SimError::Type {
                    stmt: at,
                    msg: format!("len on {v:?}"),
                })
            }
            Expr::List(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for i in items {
                    vs.push(self.eval_tree(tid, i, at)?);
                }
                Ok(Value::List(vs))
            }
            Expr::Index(a, i) => {
                // Fast path: index the list in place, cloning only the
                // element instead of the whole list.
                if let Some(base) = self.eval_ref(tid, a) {
                    return match base {
                        Value::List(items) => {
                            items.get(*i as usize).cloned().ok_or(SimError::Type {
                                stmt: at,
                                msg: format!("index {i} out of bounds ({} items)", items.len()),
                            })
                        }
                        other => Err(SimError::Type {
                            stmt: at,
                            msg: format!("index on non-list {other:?}"),
                        }),
                    };
                }
                let v = self.eval_tree(tid, a, at)?;
                match v {
                    Value::List(items) => items.get(*i as usize).cloned().ok_or(SimError::Type {
                        stmt: at,
                        msg: format!("index {i} out of bounds ({} items)", items.len()),
                    }),
                    other => Err(SimError::Type {
                        stmt: at,
                        msg: format!("index on non-list {other:?}"),
                    }),
                }
            }
            Expr::RandRange(lo, hi) => {
                if hi > lo {
                    Ok(Value::Int(self.rng.random_range(*lo..*hi)))
                } else {
                    Ok(Value::Int(*lo))
                }
            }
            Expr::SelfNode => Ok(Value::Str(self.nodes[node].name.clone())),
            Expr::Bin(op, a, b) => {
                // Short-circuit booleans first.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let av = self.eval_bool_v(tid, a, at)?;
                    return match (op, av) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => Ok(Value::Bool(self.eval_bool_v(tid, b, at)?)),
                    };
                }
                // Fast path for comparisons: when both operands resolve by
                // reference (no side effects possible), compare without
                // cloning either value.
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    if let (Some(x), Some(y)) = (self.eval_ref(tid, a), self.eval_ref(tid, b)) {
                        let eq = x == y;
                        return Ok(Value::Bool(if matches!(op, BinOp::Eq) { eq } else { !eq }));
                    }
                }
                let av = self.eval_tree(tid, a, at)?;
                let bv = self.eval_tree(tid, b, at)?;
                match op {
                    BinOp::Eq => Ok(Value::Bool(av == bv)),
                    BinOp::Ne => Ok(Value::Bool(av != bv)),
                    _ => {
                        let (x, y) = match (av.as_int(), bv.as_int()) {
                            (Some(x), Some(y)) => (x, y),
                            _ => {
                                return Err(SimError::Type {
                                    stmt: at,
                                    msg: format!("{op:?} on non-ints"),
                                })
                            }
                        };
                        Ok(match op {
                            BinOp::Add => Value::Int(x.wrapping_add(y)),
                            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                            BinOp::Rem => {
                                if y == 0 {
                                    return Err(SimError::Type {
                                        stmt: at,
                                        msg: "remainder by zero".into(),
                                    });
                                }
                                Value::Int(x.wrapping_rem(y))
                            }
                            BinOp::Lt => Value::Bool(x < y),
                            BinOp::Le => Value::Bool(x <= y),
                            BinOp::Gt => Value::Bool(x > y),
                            BinOp::Ge => Value::Bool(x >= y),
                            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!(),
                        })
                    }
                }
            }
        }
    }

    fn eval_bool_v(
        &mut self,
        tid: ThreadId,
        e: &Expr,
        at: Option<StmtRef>,
    ) -> Result<bool, SimError> {
        // Fast path: read the condition by reference (no clone).
        if let Some(v) = self.eval_ref(tid, e) {
            return v.as_bool().ok_or_else(|| SimError::Type {
                stmt: at,
                msg: format!("expected bool, got {v:?}"),
            });
        }
        let v = self.eval_tree(tid, e, at)?;
        v.as_bool().ok_or(SimError::Type {
            stmt: at,
            msg: format!("expected bool, got {v:?}"),
        })
    }

    fn eval_bool(&mut self, tid: ThreadId, e: &Expr, at: StmtRef) -> Sim<bool> {
        self.eval_bool_v(tid, e, Some(at)).map_err(Box::new)
    }

    fn eval_int(&mut self, tid: ThreadId, e: &Expr, at: StmtRef) -> Sim<i64> {
        let v = self.eval(tid, e, Some(at))?;
        v.as_int()
            .ok_or_else(|| type_error(Some(at), format!("expected int, got {v:?}")))
    }
}
