//! The discrete-event world: scheduler plus engine-agnostic run machinery.
//!
//! All simulated nondeterminism (message latency, scheduling jitter,
//! workload jitter) flows from one seeded generator, so a run is a pure
//! function of `(program, topology, config, plan)`. The Explorer exploits
//! this: a successful round is replayed exactly by re-running with the same
//! seed and an [`InjectionPlan::exact`] plan — the paper's "deterministic
//! reproduction script" (§3 step 4.a).
//!
//! Statement execution is pluggable ([`crate::config::Engine`]): the default
//! register-VM executor runs the lowered instruction stream produced by
//! [`anduril_ir::lower`], while the original tree-walking interpreter is
//! retained behind the `tree-walk-oracle` feature as a differential oracle.
//! Everything else — event scheduling, thread lifecycle, control-flow
//! unwinding, fault-injection bookkeeping, log emission, RNG draws — is
//! shared by both engines, which is what makes their runs byte-identical.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Engine, SimConfig, Topology};
use crate::fir::{Fir, InjectionPlan};
use crate::result::{BlockReason, NodeSnapshot, RunResult, ThreadEndState, ThreadSnapshot};
use crate::rng::SmallRng;
use crate::thread::{
    Cursor, CursorTag, Pending, Role, Thread, ThreadId, ThreadStatus, Unwinding, WakeNote,
};
use anduril_ir::builder::{STMT_RUNTIME, TMPL_NODE_CRASH, TMPL_UNCAUGHT};
use anduril_ir::lower::CompiledProgram;
use anduril_ir::{
    BlockId, ChanId, CondId, ExcValue, ExecId, FuncId, Level, LogEntry, Program, StmtRef,
    TemplateId, Value, VarId,
};

mod events;
mod exec_vm;

#[cfg(any(test, feature = "tree-walk-oracle"))]
mod exec_ast;

#[cfg(test)]
mod expr_differential;

use events::{Event, EventQueue};

/// Errors surfaced by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A value had the wrong type for an operation.
    Type {
        /// The statement being executed (if known).
        stmt: Option<StmtRef>,
        /// Description of the mismatch.
        msg: String,
    },
    /// A message was addressed to an unknown node.
    NoSuchNode(String),
    /// The run exceeded [`SimConfig::max_steps`].
    StepLimit,
    /// A structural invariant was violated (an IR or interpreter bug).
    Internal(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Type { stmt, msg } => match stmt {
                Some(s) => write!(f, "type error at {s}: {msg}"),
                None => write!(f, "type error: {msg}"),
            },
            SimError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            SimError::StepLimit => write!(f, "step limit exceeded"),
            SimError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// How results travel inside the crate: the error is one word, so a
/// hot-path `Sim<Value>` is no wider than the `Value`, and building the
/// error stays out of line. The public entry points unbox it.
pub(crate) type Sim<T> = Result<T, Box<SimError>>;

#[cold]
fn type_error(stmt: Option<StmtRef>, msg: String) -> Box<SimError> {
    Box::new(SimError::Type { stmt, msg })
}

#[cold]
pub(crate) fn internal(msg: impl Into<String>) -> Box<SimError> {
    Box::new(SimError::Internal(msg.into()))
}

/// Runs one simulation to completion (quiescence, horizon, or step limit)
/// over the program's own compiled form ([`Program::compiled`]), which the
/// first run of a program lowers and every later one reuses.
pub fn run(
    program: &Program,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> Result<RunResult, SimError> {
    run_compiled(program, program.compiled(), topo, cfg, plan)
}

/// Runs one simulation over a compiled form of `program` the caller
/// holds: the program's own, or a copy from [`anduril_ir::lower::compile`].
pub fn run_compiled(
    program: &Program,
    compiled: &CompiledProgram,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> Result<RunResult, SimError> {
    run_compiled_or_partial(program, compiled, topo, cfg, plan).map_err(|failed| failed.error)
}

/// A run an error stopped, with what it had done by then.
#[derive(Debug)]
pub struct FailedRun {
    /// What stopped the run.
    pub error: SimError,
    /// The run's result as it stood when the error stopped it: the log so
    /// far, the injection that fired, the threads where they were. An
    /// injected fault that livelocks the system ends in
    /// [`SimError::StepLimit`], and which fault that was is here. `None`
    /// when the run could not be set up.
    pub partial: Option<RunResult>,
}

/// [`run_compiled`], keeping what a run did before an error stopped it.
pub fn run_compiled_or_partial(
    program: &Program,
    compiled: &CompiledProgram,
    topo: &Topology,
    cfg: &SimConfig,
    plan: InjectionPlan,
) -> Result<RunResult, Box<FailedRun>> {
    let failed = |error, partial| Box::new(FailedRun { error, partial });
    let mut world =
        World::new(program, compiled, topo, cfg, plan).map_err(|error| failed(error, None))?;
    match world.drive() {
        Ok(()) => Ok(world.finish()),
        Err(error) => Err(failed(error, Some(world.finish()))),
    }
}

#[derive(Debug)]
struct FutureState {
    done: Option<Result<Value, Arc<ExcValue>>>,
    waiters: Vec<ThreadId>,
}

#[derive(Debug)]
struct Task {
    func: FuncId,
    args: Vec<Value>,
    future: u64,
}

#[derive(Debug, Default)]
struct ExecState {
    queue: VecDeque<Task>,
    worker: Option<ThreadId>,
}

#[derive(Debug)]
struct Node {
    name: Arc<str>,
    alive: bool,
    aborted: bool,
    globals: Vec<Value>,
}

/// A control transfer that leaves the statement's block. Everything else
/// a statement can do to the cursor — advance, stay, enter a block — it
/// does where it runs.
enum Flow {
    /// An exception was raised.
    Throw(Arc<ExcValue>),
    /// `return expr`.
    Return(Value),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
}

struct World<'p> {
    program: &'p Program,
    compiled: &'p CompiledProgram,
    engine: Engine,
    cfg: SimConfig,
    rng: SmallRng,
    clock: u64,
    seq: u64,
    events: EventQueue,
    threads: Vec<Thread>,
    nodes: Vec<Node>,
    /// Every node's channels, condition variables and executors: node `n`'s
    /// `i`-th is entry `n * <how many the program declares> + i`, so a run
    /// sets each table up once, not once per node.
    chans: Vec<VecDeque<Value>>,
    chan_waiters: Vec<VecDeque<ThreadId>>,
    cond_waiters: Vec<Vec<ThreadId>>,
    execs: Vec<ExecState>,
    /// Threads created so far per `(node, base name)`; a run has a few
    /// dozen pairs at most.
    spawn_counts: Vec<(usize, Arc<str>, u32)>,
    futures: Vec<FutureState>,
    log: Vec<LogEntry>,
    fir: Fir,
    steps: u64,
    /// The VM's scratch register frame, reused across every statement of
    /// the whole run (sized to the widest statement at compile time).
    regs: Vec<Value>,
    /// The VM's scratch buffer for rendering log bodies.
    body_buf: String,
    started: Instant,
}

impl<'p> World<'p> {
    fn new(
        program: &'p Program,
        compiled: &'p CompiledProgram,
        topo: &Topology,
        cfg: &SimConfig,
        plan: InjectionPlan,
    ) -> Result<Self, SimError> {
        #[cfg(not(any(test, feature = "tree-walk-oracle")))]
        if cfg.engine == Engine::TreeWalk {
            return Err(SimError::Internal(
                "tree-walk engine requires the `tree-walk-oracle` feature".into(),
            ));
        }
        // What the compiled program knows of a run's size: each node runs
        // its main, about one thread per `Spawn` statement and one worker
        // per executor.
        let n_nodes = topo.nodes.len();
        let threads_hint = n_nodes * compiled.threads_per_node;
        let mut world = World {
            program,
            compiled,
            engine: cfg.engine,
            cfg: cfg.clone(),
            rng: SmallRng::seed_from_u64(cfg.seed),
            clock: 0,
            seq: 0,
            events: EventQueue::new(threads_hint),
            threads: Vec::with_capacity(threads_hint),
            nodes: Vec::with_capacity(n_nodes),
            chans: vec![VecDeque::new(); n_nodes * program.chans.len()],
            chan_waiters: vec![VecDeque::new(); n_nodes * program.chans.len()],
            cond_waiters: vec![Vec::new(); n_nodes * program.conds.len()],
            execs: (0..n_nodes * program.execs.len())
                .map(|_| ExecState::default())
                .collect(),
            spawn_counts: Vec::with_capacity(threads_hint),
            futures: Vec::new(),
            log: Vec::with_capacity(64),
            fir: Fir::new(program.sites.len(), plan),
            steps: 0,
            regs: vec![Value::Unit; compiled.max_regs],
            body_buf: String::new(),
            started: Instant::now(),
        };
        for spec in &topo.nodes {
            if world.node_named(&spec.name).is_some() {
                return Err(SimError::Internal(format!(
                    "duplicate node name {}",
                    spec.name
                )));
            }
            world.nodes.push(Node {
                name: Arc::from(spec.name.as_str()),
                alive: true,
                aborted: false,
                globals: program.globals.iter().map(|g| g.init.clone()).collect(),
            });
        }
        let main_name: Arc<str> = Arc::from("main");
        for (i, spec) in topo.nodes.iter().enumerate() {
            let tid = world.create_thread(i, &main_name, Role::Normal);
            let mut args = world.frame_slots(spec.main);
            args.extend_from_slice(&spec.args);
            world
                .push_entry_frame(tid, spec.main, args)
                .map_err(|e| *e)?;
            world.schedule_wake(tid, i as u64, false);
        }
        Ok(world)
    }

    // ---- infrastructure -------------------------------------------------

    fn create_thread(&mut self, node: usize, name: &Arc<str>, role: Role) -> ThreadId {
        let counts = &mut self.spawn_counts;
        let at = match counts
            .iter()
            .position(|(n, base, _)| *n == node && base == name)
        {
            Some(at) => at,
            None => {
                counts.push((node, name.clone(), 0));
                counts.len() - 1
            }
        };
        let count = &mut counts[at].2;
        let unique: Arc<str> = if *count == 0 {
            name.clone()
        } else {
            self.body_buf.clear();
            let _ = write!(self.body_buf, "{name}-{count}");
            Arc::from(self.body_buf.as_str())
        };
        *count += 1;
        let tid = self.threads.len();
        self.threads.push(Thread {
            node,
            name: unique,
            frames: Vec::new(),
            locals: Vec::new(),
            cursors: Vec::new(),
            unwinding: Vec::new(),
            status: ThreadStatus::Runnable,
            role,
            current_future: None,
            wait_token: 0,
            note: WakeNote::None,
        });
        tid
    }

    /// An empty argument vector with room for all of `func`'s local
    /// slots: the thread that starts in `func` adopts it as its slot stack.
    fn frame_slots(&self, func: FuncId) -> Vec<Value> {
        Vec::with_capacity(self.program.funcs[func.index()].locals as usize)
    }

    /// Starts a thread's (or an executor task's) outermost activation. A
    /// thread that has no slot stack yet takes the argument vector for it.
    fn push_entry_frame(&mut self, tid: ThreadId, func: FuncId, args: Vec<Value>) -> Sim<()> {
        let t = &mut self.threads[tid];
        let args_at = t.locals.len();
        if t.locals.capacity() == 0 {
            t.locals = args;
        } else {
            t.locals.extend(args);
        }
        t.enter(&self.program.funcs[func.index()], func, args_at, None)?;
        Ok(())
    }

    /// Where node `node`'s channel `chan` lies in `chans` / `chan_waiters`.
    fn chan_at(&self, node: usize, chan: ChanId) -> usize {
        node * self.program.chans.len() + chan.index()
    }

    /// Where node `node`'s condition variable lies in `cond_waiters`.
    fn cond_at(&self, node: usize, cond: CondId) -> usize {
        node * self.program.conds.len() + cond.index()
    }

    /// Where node `node`'s executor lies in `execs`.
    fn exec_at(&self, node: usize, exec: ExecId) -> usize {
        node * self.program.execs.len() + exec.index()
    }

    /// Index of the node called `name`. Clusters are a handful of nodes,
    /// and comparing a few short names beats hashing one.
    fn node_named(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| &*n.name == name)
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn schedule_wake(&mut self, tid: ThreadId, delay: u64, expired: bool) {
        let token = self.threads[tid].wait_token;
        let seq = self.next_seq();
        self.events
            .push_wake(self.clock + delay, seq, tid, token, expired);
    }

    fn schedule_deliver(&mut self, delay: u64, node: usize, chan: ChanId, payload: Value) {
        let seq = self.next_seq();
        self.events
            .push_deliver(self.clock + delay, seq, node, chan, payload);
    }

    /// Unblocks a thread immediately (signal / delivery / future path).
    fn wake_thread(&mut self, tid: ThreadId, note: WakeNote) {
        if !self.threads[tid].is_live() {
            return;
        }
        if let ThreadStatus::Blocked(reason) = self.threads[tid].status {
            self.deregister(tid, reason);
            let t = &mut self.threads[tid];
            t.status = ThreadStatus::Runnable;
            t.note = note;
            t.wait_token += 1;
            self.schedule_wake(tid, 0, false);
        }
    }

    fn deregister(&mut self, tid: ThreadId, reason: BlockReason) {
        // Waiter lists are FIFO and the thread being deregistered is almost
        // always the one at the front (it is the one that just woke), so try
        // the O(1) front removal before falling back to the order-preserving
        // scan.
        let node = self.threads[tid].node;
        match reason {
            BlockReason::Chan(c) => {
                let at = self.chan_at(node, c);
                let w = &mut self.chan_waiters[at];
                if w.front() == Some(&tid) {
                    w.pop_front();
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Cond(c) => {
                let at = self.cond_at(node, c);
                let w = &mut self.cond_waiters[at];
                if w.first() == Some(&tid) {
                    w.remove(0);
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Future(f) => {
                let w = &mut self.futures[f as usize].waiters;
                if w.first() == Some(&tid) {
                    w.remove(0);
                } else {
                    w.retain(|t| *t != tid);
                }
            }
            BlockReason::Sleep | BlockReason::IdleWorker => {}
        }
    }

    fn park(&mut self, tid: ThreadId, reason: BlockReason, timeout: Option<u64>) {
        {
            let t = &mut self.threads[tid];
            t.status = ThreadStatus::Blocked(reason);
            t.note = WakeNote::None;
        }
        let node = self.threads[tid].node;
        match reason {
            BlockReason::Chan(c) => {
                let at = self.chan_at(node, c);
                self.chan_waiters[at].push_back(tid)
            }
            BlockReason::Cond(c) => {
                let at = self.cond_at(node, c);
                self.cond_waiters[at].push(tid)
            }
            BlockReason::Future(f) => self.futures[f as usize].waiters.push(tid),
            BlockReason::Sleep | BlockReason::IdleWorker => {}
        }
        if let Some(after) = timeout {
            self.schedule_wake(tid, after.max(1), true);
        }
    }

    /// Emits a log entry rendered from a template and pre-rendered argument
    /// strings (the tree-walk and runtime-message path).
    #[allow(clippy::too_many_arguments)] // Log emission legitimately carries the full record.
    fn emit(
        &mut self,
        node: usize,
        thread: Arc<str>,
        level: Level,
        template: TemplateId,
        stmt: StmtRef,
        args: &[String],
        exc: Option<&ExcValue>,
        offset: u64,
    ) {
        let body = self.program.templates[template.index()].render(args);
        self.emit_raw(
            node,
            thread,
            level,
            template,
            stmt,
            body.into(),
            exc,
            offset,
        );
    }

    /// Emits a log entry with an already-rendered body (the VM's fast path;
    /// node and thread names are interned, so this allocates nothing beyond
    /// the entry itself).
    #[allow(clippy::too_many_arguments)] // Log emission legitimately carries the full record.
    fn emit_raw(
        &mut self,
        node: usize,
        thread: Arc<str>,
        level: Level,
        template: TemplateId,
        stmt: StmtRef,
        body: Arc<str>,
        exc: Option<&ExcValue>,
        offset: u64,
    ) {
        let (exc_name, stack) = match exc {
            Some(e) => (
                Some(e.render()),
                e.stack
                    .iter()
                    .map(|f| self.program.funcs[f.index()].name.clone())
                    .collect(),
            ),
            None => (None, Vec::new()),
        };
        self.log.push(LogEntry {
            time: self.clock + offset,
            node: self.nodes[node].name.clone(),
            thread,
            level,
            template,
            stmt,
            body,
            exc: exc_name,
            stack,
        });
    }

    fn complete_future(&mut self, fid: u64, result: Result<Value, Arc<ExcValue>>) {
        let fut = &mut self.futures[fid as usize];
        if fut.done.is_some() {
            return;
        }
        fut.done = Some(result);
        let waiters = std::mem::take(&mut self.futures[fid as usize].waiters);
        for w in waiters {
            // `wake_thread` re-checks the block reason; waiters parked on
            // this future are woken to re-execute their `Await`.
            self.wake_thread(w, WakeNote::Signaled);
        }
    }

    fn kill_node(&mut self, node: usize) {
        self.nodes[node].alive = false;
        for tid in 0..self.threads.len() {
            if self.threads[tid].node == node && self.threads[tid].is_live() {
                if let ThreadStatus::Blocked(reason) = self.threads[tid].status {
                    self.deregister(tid, reason);
                }
                self.threads[tid].status = ThreadStatus::Killed;
                self.threads[tid].wait_token += 1;
            }
        }
        let n_chans = self.program.chans.len();
        for chan in &mut self.chans[node * n_chans..(node + 1) * n_chans] {
            chan.clear();
        }
    }

    // ---- main loop -------------------------------------------------------

    fn drive(&mut self) -> Result<(), SimError> {
        self.drive_events().map_err(|e| *e)
    }

    fn drive_events(&mut self) -> Sim<()> {
        while let Some(due) = self.events.pop() {
            if due.time > self.cfg.max_time {
                break;
            }
            self.clock = due.time;
            match due.event {
                Event::Wake {
                    tid,
                    token,
                    expired,
                } => {
                    if token != self.threads[tid].wait_token {
                        continue;
                    }
                    match self.threads[tid].status {
                        ThreadStatus::Runnable => self.run_thread(tid)?,
                        ThreadStatus::Blocked(reason) if expired => {
                            self.deregister(tid, reason);
                            let t = &mut self.threads[tid];
                            t.status = ThreadStatus::Runnable;
                            t.note = WakeNote::Expired;
                            t.wait_token += 1;
                            self.run_thread(tid)?;
                        }
                        _ => {}
                    }
                }
                Event::Deliver {
                    node,
                    chan,
                    payload,
                } => {
                    if !self.nodes[node].alive {
                        continue;
                    }
                    let at = self.chan_at(node, chan);
                    self.chans[at].push_back(payload);
                    if let Some(&waiter) = self.chan_waiters[at].front() {
                        self.wake_thread(waiter, WakeNote::Signaled);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs a runnable thread slice after slice for as long as it is the
    /// lone runner: when a slice ends runnable and nothing queued is due at
    /// or before the thread's own wake time, its wake would be the very next
    /// event popped, so `seq`, `clock` and the wheel move as push-then-pop
    /// would have moved them and the next slice starts right away — same
    /// `(time, seq)` order, same RNG draws. A wake past the horizon goes
    /// through the queue: popping it is what ends the run.
    fn run_thread(&mut self, tid: ThreadId) -> Sim<()> {
        loop {
            let Some(delay) = self.run_slice(tid)? else {
                return Ok(());
            };
            let wake = self.clock + delay;
            if wake > self.cfg.max_time || !self.events.none_due_by(wake) {
                self.schedule_wake(tid, delay, false);
                return Ok(());
            }
            self.seq += 1;
            self.events.skip_to(wake);
            self.clock = wake;
        }
    }

    /// Runs one scheduling slice of a runnable thread. Returns the delay
    /// after which it wants to run again, or `None` if it no longer can.
    fn run_slice(&mut self, tid: ThreadId) -> Sim<Option<u64>> {
        match self.engine {
            Engine::Vm => self.run_slice_vm(tid),
            #[cfg(any(test, feature = "tree-walk-oracle"))]
            Engine::TreeWalk => self.run_slice_ast(tid),
            #[cfg(not(any(test, feature = "tree-walk-oracle")))]
            Engine::TreeWalk => Err(internal(
                "tree-walk engine requires the `tree-walk-oracle` feature",
            )),
        }
    }

    /// Counts the step just taken against [`SimConfig::max_steps`].
    #[inline]
    fn count_step(&mut self) -> Sim<()> {
        self.steps += 1;
        if self.steps > self.cfg.max_steps {
            return Err(Box::new(SimError::StepLimit));
        }
        Ok(())
    }

    // ---- engine-agnostic stepping ---------------------------------------
    //
    // A step that executes nothing — a block end, an implicit return, an
    // idle worker polling its queue — still counts and still costs a tick:
    // slice boundaries, and with them every timestamp of a run, depend on
    // it.

    /// A CrashTuner crash point fired: the node goes down mid-step.
    fn crash_node(&mut self, tid: ThreadId, elapsed: u64) {
        let node = self.threads[tid].node;
        let name = self.nodes[node].name.to_string();
        let thread = self.threads[tid].name.clone();
        self.emit(
            node,
            thread,
            Level::Error,
            TMPL_NODE_CRASH,
            STMT_RUNTIME,
            &[name],
            None,
            elapsed,
        );
        self.kill_node(node);
    }

    /// Handles a thread with an empty frame stack.
    fn thread_idle(&mut self, tid: ThreadId) -> Sim<()> {
        match self.threads[tid].role {
            Role::Normal => {
                self.threads[tid].status = ThreadStatus::Done;
                Ok(())
            }
            Role::Worker(exec) => {
                let node = self.threads[tid].node;
                let at = self.exec_at(node, exec);
                match self.execs[at].queue.pop_front() {
                    Some(task) => {
                        self.threads[tid].current_future = Some(task.future);
                        self.push_entry_frame(tid, task.func, task.args)
                    }
                    None => {
                        self.park(tid, BlockReason::IdleWorker, None);
                        Ok(())
                    }
                }
            }
        }
    }

    fn apply_flow(&mut self, tid: ThreadId, flow: Flow) -> Sim<()> {
        match flow {
            Flow::Throw(exc) => self.do_throw(tid, exc),
            Flow::Return(v) => self.do_return_walk(tid, v),
            Flow::Break => self.do_loop_ctl(tid, false),
            Flow::Continue => self.do_loop_ctl(tid, true),
        }
    }

    /// The exception of the nearest enclosing handler, this frame's or a
    /// caller's.
    fn current_handler_exc(&self, tid: ThreadId) -> Option<Arc<ExcValue>> {
        self.threads[tid]
            .unwinding
            .iter()
            .rev()
            .find_map(|u| match u {
                Unwinding::Caught(exc) => Some(exc.clone()),
                Unwinding::Resume(_) => None,
            })
    }

    /// The `TimeoutException` a blocking statement raises when it wakes
    /// expired.
    fn timeout_exc(&self, tid: ThreadId) -> Flow {
        Flow::Throw(Arc::new(ExcValue {
            ty: anduril_ir::ExceptionType::Timeout,
            inner: None,
            origin_site: None,
            injected: false,
            stack: self.threads[tid].stack_funcs(),
        }))
    }

    /// Returns from the innermost frame, whose cursors are exhausted,
    /// handing `value` to the caller — or, from the outermost frame, ending
    /// the thread or completing the task's future with it.
    fn do_return(&mut self, tid: ThreadId, value: Value) -> Sim<()> {
        let t = &mut self.threads[tid];
        if t.frames.is_empty() {
            return Err(internal("return with no frame"));
        }
        if let Some(result) = t.leave_frame(value) {
            match t.role {
                Role::Normal => t.status = ThreadStatus::Done,
                Role::Worker(_) => {
                    if let Some(fid) = t.current_future.take() {
                        self.complete_future(fid, Ok(result));
                    }
                }
            }
        }
        Ok(())
    }

    /// The `finally` block of the `try` owning a body or handler cursor
    /// that was just popped.
    fn finally_of(&self, tid: ThreadId, popped: &Cursor) -> Option<BlockId> {
        let owner = self.threads[tid].owner_of(popped)?;
        self.compiled.try_finally(owner)
    }

    /// Implements `return`, unwinding through `finally` blocks.
    ///
    /// Handler/finally metadata comes from the compiled try table, so the
    /// walk is shared verbatim by both engines.
    fn do_return_walk(&mut self, tid: ThreadId, value: Value) -> Sim<()> {
        if self.threads[tid].frames.is_empty() {
            return Err(internal("return with no frame"));
        }
        loop {
            let Some((cursor, _)) = self.threads[tid].pop_cursor() else {
                return self.do_return(tid, value);
            };
            if matches!(cursor.tag, CursorTag::TryBody | CursorTag::Handler) {
                if let Some(f) = self.finally_of(tid, &cursor) {
                    self.threads[tid].push_unwinding(
                        f,
                        CursorTag::Finally,
                        0,
                        Unwinding::Resume(Pending::Return(value)),
                    );
                    return Ok(());
                }
            }
        }
    }

    /// Implements `break` (`continue` when `is_continue`), honouring
    /// `finally` blocks between the statement and the loop.
    fn do_loop_ctl(&mut self, tid: ThreadId, is_continue: bool) -> Sim<()> {
        if self.threads[tid].frames.is_empty() {
            return Err(internal("loop control with no frame"));
        }
        loop {
            let Some((cursor, _)) = self.threads[tid].pop_cursor() else {
                return Err(internal("break/continue outside a loop"));
            };
            match cursor.tag {
                CursorTag::Loop => {
                    // The parent cursor still points at the `while`
                    // statement: `continue` leaves it there so the
                    // condition is re-evaluated; `break` advances past
                    // the loop.
                    if let Some(c) = self.threads[tid].top_cursor_mut() {
                        c.idx = cursor.owner + if is_continue { 0 } else { 1 };
                    }
                    return Ok(());
                }
                CursorTag::TryBody | CursorTag::Handler => {
                    if let Some(f) = self.finally_of(tid, &cursor) {
                        let pending = if is_continue {
                            Pending::Continue
                        } else {
                            Pending::Break
                        };
                        self.threads[tid].push_unwinding(
                            f,
                            CursorTag::Finally,
                            0,
                            Unwinding::Resume(pending),
                        );
                        return Ok(());
                    }
                }
                CursorTag::Plain | CursorTag::Finally => {}
            }
        }
    }

    fn do_throw(&mut self, tid: ThreadId, exc: Arc<ExcValue>) -> Sim<()> {
        let compiled = self.compiled;
        loop {
            let t = &mut self.threads[tid];
            if t.frames.is_empty() {
                return self.uncaught(tid, exc);
            }
            while let Some((cursor, _)) = t.pop_cursor() {
                let finally = match cursor.tag {
                    CursorTag::TryBody => {
                        let info = t
                            .owner_of(&cursor)
                            .and_then(|owner| compiled.try_info(owner))
                            .ok_or_else(|| internal("TryBody without Try"))?;
                        if let Some(h) = info.handlers.iter().find(|h| h.pattern.matches(exc.ty)) {
                            if let Some(bind) = h.bind {
                                t.frame_locals_mut()[bind.index()] = Value::Exc(exc.clone());
                            }
                            t.push_unwinding(
                                h.block,
                                CursorTag::Handler,
                                cursor.owner,
                                Unwinding::Caught(exc),
                            );
                            return Ok(());
                        }
                        info.finally
                    }
                    CursorTag::Handler => t
                        .owner_of(&cursor)
                        .and_then(|owner| compiled.try_finally(owner)),
                    CursorTag::Plain | CursorTag::Loop | CursorTag::Finally => None,
                };
                if let Some(f) = finally {
                    t.push_unwinding(
                        f,
                        CursorTag::Finally,
                        0,
                        Unwinding::Resume(Pending::Exc(exc)),
                    );
                    return Ok(());
                }
            }
            // No handler in this frame.
            t.pop_frame();
        }
    }

    fn uncaught(&mut self, tid: ThreadId, exc: Arc<ExcValue>) -> Sim<()> {
        match self.threads[tid].role {
            Role::Normal => {
                let node = self.threads[tid].node;
                let thread_name = self.threads[tid].name.clone();
                self.emit(
                    node,
                    thread_name.clone(),
                    Level::Error,
                    TMPL_UNCAUGHT,
                    STMT_RUNTIME,
                    &[exc.render(), thread_name.to_string()],
                    Some(&exc),
                    0,
                );
                self.threads[tid].status = ThreadStatus::Died(exc);
                Ok(())
            }
            Role::Worker(_) => {
                // Executor semantics: the task's exception completes its
                // future; the worker survives and drains the next task.
                if let Some(fid) = self.threads[tid].current_future.take() {
                    self.complete_future(fid, Err(exc));
                }
                Ok(())
            }
        }
    }

    /// Control ran off the end of the innermost block.
    fn block_end(&mut self, tid: ThreadId) -> Sim<()> {
        let t = &mut self.threads[tid];
        if t.frames.is_empty() {
            return Err(internal("block end with no frame"));
        }
        let (cursor, unwinding) = t
            .pop_cursor()
            .ok_or_else(|| internal("block end with no cursor"))?;
        match cursor.tag {
            CursorTag::Plain => Ok(()),
            CursorTag::Loop => {
                // Point the parent cursor back at the `while` statement so
                // the condition is re-evaluated on the next step.
                if let Some(c) = t.top_cursor_mut() {
                    c.idx = cursor.owner;
                }
                Ok(())
            }
            CursorTag::TryBody | CursorTag::Handler => {
                if let Some(f) = self.finally_of(tid, &cursor) {
                    self.threads[tid].push_unwinding(
                        f,
                        CursorTag::Finally,
                        0,
                        Unwinding::Resume(Pending::None),
                    );
                }
                Ok(())
            }
            CursorTag::Finally => match unwinding {
                Some(Unwinding::Resume(pending)) => match pending {
                    Pending::None => Ok(()),
                    Pending::Exc(exc) => self.do_throw(tid, exc),
                    Pending::Return(v) => self.do_return_walk(tid, v),
                    Pending::Break => self.do_loop_ctl(tid, false),
                    Pending::Continue => self.do_loop_ctl(tid, true),
                },
                _ => Err(internal("finally block without its pending transfer")),
            },
        }
    }

    // ---- locals ----------------------------------------------------------

    fn write_local(&mut self, tid: ThreadId, var: VarId, value: Value) {
        let t = &mut self.threads[tid];
        if !t.frames.is_empty() {
            t.frame_locals_mut()[var.index()].store(value);
        }
    }

    // ---- finalization ------------------------------------------------------

    fn finish(mut self) -> RunResult {
        let site_occurrences = self.fir.take_occurrences();
        let crashed = self.fir.crashed;
        let decision_ns = self.fir.decision_ns();
        let func_names = &self.compiled.func_names;
        let threads = self
            .threads
            .iter()
            .map(|t| {
                let state = match &t.status {
                    ThreadStatus::Runnable => ThreadEndState::Running,
                    ThreadStatus::Blocked(r) => ThreadEndState::Blocked(*r),
                    ThreadStatus::Done => ThreadEndState::Done,
                    ThreadStatus::Died(e) => ThreadEndState::Died(e.render()),
                    ThreadStatus::Killed => ThreadEndState::Killed,
                };
                ThreadSnapshot {
                    node: self.nodes[t.node].name.clone(),
                    thread: t.name.clone(),
                    state,
                    stack: t
                        .frames
                        .iter()
                        .rev()
                        .map(|f| func_names[f.func.index()].clone())
                        .collect(),
                }
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| NodeSnapshot {
                name: n.name.clone(),
                alive: n.alive,
                aborted: n.aborted,
                globals: self
                    .compiled
                    .global_names
                    .iter()
                    .zip(&n.globals)
                    .map(|(g, v)| (g.clone(), v.clone()))
                    .collect(),
            })
            .collect();
        RunResult {
            log: self.log,
            trace: self.fir.trace,
            injected: self.fir.injected,
            injected_all: self.fir.injected_all,
            crashed,
            site_occurrences,
            threads,
            nodes,
            end_time: self.clock,
            steps: self.steps,
            injection_requests: self.fir.requests,
            armed_requests: self.fir.armed_requests,
            decision_ns,
            wall: self.started.elapsed(),
        }
    }
}
