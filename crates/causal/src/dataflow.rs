//! Abstract interpretation over the IR: static occurrence bounds.
//!
//! The search layers enumerate injection plans as `(site, occurrence,
//! exception)` triples, but nothing stops a strategy from arming an
//! occurrence index the program can never reach — the fourth retry of a
//! loop that statically runs three times, or any occurrence of a site
//! whose enclosing branch is constant-false under the scenario's
//! configuration. This module computes, per fault site, a static interval
//! `[lo, hi]` on how many times the site can execute in one run, so that
//! provably-infeasible plans are pruned before they ever reach the
//! simulator (see DESIGN.md §14).
//!
//! The analysis is a small abstract interpreter with two cooperating
//! domains:
//!
//! - **Execution-count intervals** ([`Interval`]): `[lo, hi]` with
//!   `hi = None` meaning *unbounded* (⊤). Statement counts multiply along
//!   loop nests and invocation chains (`Call`/`Submit`/`Spawn`) and sum
//!   over call sites.
//! - **Constant value ranges** (an internal `[min, max]`-or-⊤ lattice over
//!   `i64`): seeded from the workload roots' literal arguments (the
//!   topology passes constants to node mains), propagated through call
//!   arguments and single-assignment locals, and consumed by the loop
//!   trip-count matcher and branch-condition evaluation.
//!
//! Per function the interpreter solves the block CFG structurally (the
//! block tree is reducible by construction, so the intraprocedural
//! fixpoint closes in one walk); counter-shaped loops (`i = c; while (i <
//! bound) { ...; i = i + step }` with a constant-range `bound`) get exact
//! trip counts, and every other loop *widens* straight to ⊤. The
//! interprocedural half solves invocation-count and parameter-value
//! equations over the call graph, with recursion widened to ⊤ up front
//! (every function on a call-graph cycle gets unbounded multiplicity and
//! unknown parameters) and every other function visited once, after its
//! callers.
//!
//! # Soundness
//!
//! `hi` over-approximates and `lo` under-approximates: for every concrete
//! run and every site, `lo ≤ dynamic occurrence count ≤ hi`. The analysis
//! only tightens a bound when the program structure proves it (exact trip
//! counts require the counter to be written nowhere else and the loop body
//! to be `Continue`-free; branch pruning requires the condition to be
//! decidable over the joined argument ranges of *all* live call sites).
//! Everything unprovable degrades to `lo = 0` / `hi = ⊤`, never the other
//! way. `crates/failures/tests/bounds_soundness.rs` checks this
//! differentially against the simulator on all 22 cases.

use anduril_ir::{BinOp, BlockId, Expr, FuncId, Program, SiteId, Stmt, Value, VarId};

use crate::callgraph::CallGraph;

/// A static interval `[lo, hi]` on an execution count; `hi = None` means
/// the analysis could not prove any finite upper bound (⊤).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Executions every run performs at least (under-approximate).
    pub lo: u64,
    /// Executions no run can exceed (over-approximate); `None` = unbounded.
    pub hi: Option<u64>,
}

impl Interval {
    /// The empty count `[0, 0]` — statically dead.
    pub const ZERO: Interval = Interval { lo: 0, hi: Some(0) };
    /// Exactly once, `[1, 1]`.
    pub const ONE: Interval = Interval { lo: 1, hi: Some(1) };
    /// No information: `[0, ⊤]`.
    pub const UNBOUNDED: Interval = Interval { lo: 0, hi: None };

    /// The exact interval `[n, n]`.
    pub fn exact(n: u64) -> Interval {
        Interval { lo: n, hi: Some(n) }
    }

    /// `true` if the count is provably zero (`hi == 0`).
    pub fn is_dead(self) -> bool {
        self.hi == Some(0)
    }

    /// `true` if no finite upper bound was proved.
    pub fn is_unbounded(self) -> bool {
        self.hi.is_none()
    }

    /// Interval product (nesting: a body that runs `b` times per execution
    /// of a construct that runs `a` times). `0 × ⊤ = 0`: a dead
    /// multiplicity annihilates even an unbounded inner count.
    // Not `std::ops::Mul`: this is a saturating lattice operation with
    // absorbing ⊥/⊤ cases, and spelling it out keeps call sites honest.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        let hi = match (self.hi, o.hi) {
            (Some(0), _) | (_, Some(0)) => Some(0),
            (Some(a), Some(b)) => Some(a.saturating_mul(b)),
            _ => None,
        };
        Interval {
            lo: self.lo.saturating_mul(o.lo),
            hi,
        }
    }

    /// Interval sum (independent contributions, e.g. distinct call sites).
    // Same rationale as `mul`: saturating lattice op, not field arithmetic.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// Lattice join (either count is possible): `[min lo, max hi]`.
    pub fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.hi {
            Some(hi) => write!(f, "[{}, {}]", self.lo, hi),
            None => write!(f, "[{}, ∞)", self.lo),
        }
    }
}

/// One root invocation of the workload: a topology node's entry function
/// together with the literal argument values the scenario passes it. Two
/// nodes sharing a `main` contribute two entries (their multiplicities
/// sum).
#[derive(Debug, Clone)]
pub struct RootCall {
    /// The entry function.
    pub func: FuncId,
    /// Its actual arguments (constants reach the trip-count analysis;
    /// anything non-integer degrades that parameter to ⊤).
    pub args: Vec<Value>,
}

/// Constant-range lattice over `i64` values: ⊥ (no value seen), a closed
/// range, or ⊤ (statically unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CRange {
    Bot,
    Range(i64, i64),
    Top,
}

impl CRange {
    fn join(self, o: CRange) -> CRange {
        match (self, o) {
            (CRange::Bot, x) | (x, CRange::Bot) => x,
            (CRange::Top, _) | (_, CRange::Top) => CRange::Top,
            (CRange::Range(a, b), CRange::Range(c, d)) => CRange::Range(a.min(c), b.max(d)),
        }
    }

    fn of_value(v: &Value) -> CRange {
        match v {
            Value::Int(i) => CRange::Range(*i, *i),
            _ => CRange::Top,
        }
    }

    fn range(self) -> Option<(i64, i64)> {
        match self {
            CRange::Range(a, b) => Some((a, b)),
            // ⊥ means "never called with a value"; any use must stay
            // conservative, same as ⊤.
            CRange::Bot | CRange::Top => None,
        }
    }
}

/// Per-function evaluation environment: one `CRange` per local slot
/// (parameters first, then resolved single-assignment locals; everything
/// else ⊤).
struct FnEnv {
    slots: Vec<CRange>,
}

impl FnEnv {
    fn get(&self, v: VarId) -> CRange {
        self.slots.get(v.index()).copied().unwrap_or(CRange::Top)
    }
}

/// Evaluates an expression to a constant range, or ⊤.
fn eval_range(expr: &Expr, env: &FnEnv) -> CRange {
    match expr {
        Expr::Const(v) => CRange::of_value(v),
        Expr::Var(v) => env.get(*v),
        // `[lo, hi)` with at least one representable draw.
        Expr::RandRange(lo, hi) if hi > lo => CRange::Range(*lo, *hi - 1),
        Expr::Bin(op, a, b) => {
            let (Some((al, ah)), Some((bl, bh))) =
                (eval_range(a, env).range(), eval_range(b, env).range())
            else {
                return CRange::Top;
            };
            let combine = |f: fn(i64, i64) -> Option<i64>| -> CRange {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for &x in &[al, ah] {
                    for &y in &[bl, bh] {
                        match f(x, y) {
                            Some(v) => {
                                lo = lo.min(v);
                                hi = hi.max(v);
                            }
                            None => return CRange::Top,
                        }
                    }
                }
                CRange::Range(lo, hi)
            };
            match op {
                BinOp::Add => combine(i64::checked_add),
                BinOp::Sub => combine(i64::checked_sub),
                BinOp::Mul => combine(i64::checked_mul),
                _ => CRange::Top,
            }
        }
        _ => CRange::Top,
    }
}

/// Decides a boolean condition over the constant ranges, if possible.
fn eval_bool(expr: &Expr, env: &FnEnv) -> Option<bool> {
    match expr {
        Expr::Const(Value::Bool(b)) => Some(*b),
        Expr::Not(e) => eval_bool(e, env).map(|b| !b),
        Expr::Bin(BinOp::And, a, b) => match (eval_bool(a, env), eval_bool(b, env)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Bin(BinOp::Or, a, b) => match (eval_bool(a, env), eval_bool(b, env)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Bin(op, a, b) => {
            let (al, ah) = eval_range(a, env).range()?;
            let (bl, bh) = eval_range(b, env).range()?;
            match op {
                BinOp::Lt if ah < bl => Some(true),
                BinOp::Lt if al >= bh => Some(false),
                BinOp::Le if ah <= bl => Some(true),
                BinOp::Le if al > bh => Some(false),
                BinOp::Gt if al > bh => Some(true),
                BinOp::Gt if ah <= bl => Some(false),
                BinOp::Ge if al >= bh => Some(true),
                BinOp::Ge if ah < bl => Some(false),
                BinOp::Eq if al == ah && bl == bh && al == bl => Some(true),
                BinOp::Eq if ah < bl || bh < al => Some(false),
                BinOp::Ne if al == ah && bl == bh && al == bl => Some(false),
                BinOp::Ne if ah < bl || bh < al => Some(true),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Whether a statement can stop straight-line flow from reaching its
/// successor: throw, return, break out, abort, or block forever. Used only
/// for the `lo` bound (anything uncertain degrades `lo` to 0, which is
/// always sound).
fn may_stop(program: &Program, stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Log { .. }
        | Stmt::Assign { .. }
        | Stmt::SetGlobal { .. }
        | Stmt::PushBack { .. }
        | Stmt::PopFront { .. }
        | Stmt::SignalCond { .. }
        | Stmt::Sleep { .. }
        | Stmt::Send { .. }
        | Stmt::Spawn { .. }
        | Stmt::Submit { .. } => false,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            block_may_stop(program, *then_blk)
                || else_blk
                    .map(|b| block_may_stop(program, b))
                    .unwrap_or(false)
        }
        // Conservative: any loop may fail to terminate or propagate a
        // throw from its body.
        Stmt::While { .. } => true,
        Stmt::Try {
            body,
            handlers,
            finally,
        } => {
            // A caught exception resumes after the try, so only the
            // handlers'/finally's own control flow (plus an uncaught or
            // rethrown body exception) can stop the successor. Deciding
            // catch coverage statically is the exception analysis's job;
            // stay conservative here unless every child is quiet.
            block_may_stop(program, *body)
                || handlers.iter().any(|h| block_may_stop(program, h.block))
                || finally.map(|b| block_may_stop(program, b)).unwrap_or(false)
        }
        // Calls (may throw or not return), faults, waits, and explicit
        // control transfers all count.
        _ => true,
    }
}

fn block_may_stop(program: &Program, block: BlockId) -> bool {
    program.blocks[block.index()]
        .iter()
        .any(|s| may_stop(program, s))
}

/// `true` if the subtree contains a `Continue` that would bind to the
/// enclosing loop (nested `While` bodies rebind `Continue`, so they are
/// not descended into).
fn has_loop_continue(program: &Program, block: BlockId) -> bool {
    program.blocks[block.index()].iter().any(|s| match s {
        Stmt::Continue => true,
        Stmt::While { .. } => false,
        _ => s.child_blocks().any(|(b, _)| has_loop_continue(program, b)),
    })
}

/// Collects every statement-level writer of local variables in a function
/// body subtree (handler binds included).
fn collect_writers(program: &Program, block: BlockId, out: &mut Vec<(BlockId, u32, VarId)>) {
    for (idx, stmt) in program.blocks[block.index()].iter().enumerate() {
        let idx = idx as u32;
        match stmt {
            Stmt::Assign { var, .. } | Stmt::PopFront { var, .. } | Stmt::Recv { var, .. } => {
                out.push((block, idx, *var))
            }
            Stmt::Call { ret: Some(v), .. }
            | Stmt::Submit {
                future: Some(v), ..
            }
            | Stmt::Await { ret: Some(v), .. }
            | Stmt::WaitCond { ok: Some(v), .. } => out.push((block, idx, *v)),
            Stmt::Try { handlers, .. } => {
                for h in handlers {
                    if let Some(v) = h.bind {
                        out.push((h.block, 0, v));
                    }
                }
            }
            _ => {}
        }
        for (child, _) in stmt.child_blocks() {
            collect_writers(program, child, out);
        }
    }
}

/// Trip-count interval of a `While` at `(block, idx)`.
///
/// Exact counts are produced only for the counter idiom
/// `i = c; while (i < bound) { ...; i = i + step }` where the counter has
/// exactly those two writers in the whole function, the increment sits at
/// the top level of a `Continue`-free body, and `bound` evaluates to a
/// constant range. Everything else widens: a decidably-false condition
/// gives `[0, 0]`, anything unprovable gives `[0, ⊤]`.
#[allow(clippy::too_many_arguments)]
fn trip_count(
    program: &Program,
    env: &FnEnv,
    writers: &[(BlockId, u32, VarId)],
    block: BlockId,
    idx: u32,
    cond: &Expr,
    body: BlockId,
) -> Interval {
    if eval_bool(cond, env) == Some(false) {
        return Interval::ZERO;
    }
    let Expr::Bin(op @ (BinOp::Lt | BinOp::Le), lhs, rhs) = cond else {
        return Interval::UNBOUNDED;
    };
    let Expr::Var(counter) = **lhs else {
        return Interval::UNBOUNDED;
    };
    let Some((bound_lo, bound_hi)) = eval_range(rhs, env).range() else {
        return Interval::UNBOUNDED;
    };
    // The counter's writers must be exactly: one init in this block before
    // the loop, one constant-step increment at the body's top level.
    let mut counter_writers = writers.iter().filter(|(_, _, v)| *v == counter);
    let (Some(w_a), Some(w_b), None) = (
        counter_writers.next(),
        counter_writers.next(),
        counter_writers.next(),
    ) else {
        return Interval::UNBOUNDED;
    };
    let (init_ref, step_ref) = if w_a.0 == block && w_a.1 < idx && w_b.0 == body {
        (w_a, w_b)
    } else if w_b.0 == block && w_b.1 < idx && w_a.0 == body {
        (w_b, w_a)
    } else {
        return Interval::UNBOUNDED;
    };
    let Stmt::Assign { expr: init, .. } = &program.blocks[init_ref.0.index()][init_ref.1 as usize]
    else {
        return Interval::UNBOUNDED;
    };
    let Some((init_lo, init_hi)) = eval_range(init, env).range() else {
        return Interval::UNBOUNDED;
    };
    let Stmt::Assign { expr: inc, .. } = &program.blocks[step_ref.0.index()][step_ref.1 as usize]
    else {
        return Interval::UNBOUNDED;
    };
    let step = match inc {
        Expr::Bin(BinOp::Add, a, b) => match (&**a, &**b) {
            (Expr::Var(v), Expr::Const(Value::Int(s))) if *v == counter => *s,
            (Expr::Const(Value::Int(s)), Expr::Var(v)) if *v == counter => *s,
            _ => return Interval::UNBOUNDED,
        },
        _ => return Interval::UNBOUNDED,
    };
    if step <= 0 || has_loop_continue(program, body) {
        return Interval::UNBOUNDED;
    }
    // Iterations of `for (i = init; i < bound; i += step)` as a function
    // of the endpoints, in i128 to dodge overflow.
    let trips = |init: i64, bound: i64| -> u64 {
        let span = bound as i128 - init as i128 + i128::from(*op == BinOp::Le);
        if span <= 0 {
            0
        } else {
            let t = (span + step as i128 - 1) / step as i128;
            u64::try_from(t).unwrap_or(u64::MAX)
        }
    };
    let hi = trips(init_lo, bound_hi);
    // The lower bound additionally requires that no iteration can exit
    // early (break, return, or a propagating throw).
    let lo = if block_may_stop(program, body) {
        0
    } else {
        trips(init_hi, bound_lo)
    };
    Interval { lo, hi: Some(hi) }
}

/// The structural walk of one function body at a time, threading the
/// current execution-count interval through the block tree. One walker
/// serves every function of an analysis: its tables are cleared, not
/// rebuilt, from one function to the next.
struct FuncWalker<'p> {
    program: &'p Program,
    /// The function under analysis: its local slots' ranges.
    env: FnEnv,
    /// The slots as the pass in progress leaves them (single-assignment
    /// resolution reads `env`, the pass before).
    next_slots: Vec<CRange>,
    /// Its statement-level writers of locals.
    writers: Vec<(BlockId, u32, VarId)>,
    /// By slot: the expression of a local's one `Assign`, if that is its
    /// only writer.
    sa_exprs: Vec<Option<&'p Expr>>,
    /// What the walk found, relative to a single invocation of the
    /// function: `(site, execution interval)` for every fault site in it.
    sites: Vec<(SiteId, Interval)>,
    /// `(callee, call multiplicity, argument ranges)` for every
    /// `Call`/`Submit`/`Spawn`, the ranges a run of `call_args`.
    calls: Vec<(FuncId, Interval, (u32, u32))>,
    call_args: Vec<CRange>,
}

impl<'p> FuncWalker<'p> {
    fn new(program: &'p Program) -> Self {
        FuncWalker {
            program,
            env: FnEnv { slots: Vec::new() },
            next_slots: Vec::new(),
            writers: Vec::new(),
            sa_exprs: Vec::new(),
            sites: Vec::new(),
            calls: Vec::new(),
            call_args: Vec::new(),
        }
    }

    /// Analyzes one function under the given parameter ranges, leaving its
    /// per-invocation site intervals and call contributions in `sites` and
    /// `calls`.
    fn analyze(&mut self, f: FuncId, params: &[CRange]) {
        let program = self.program;
        let func = &program.funcs[f.index()];
        let (n_params, n_locals) = (func.params as usize, func.locals as usize);
        self.writers.clear();
        collect_writers(program, func.entry, &mut self.writers);

        // Environment: parameters first, then single-assignment locals whose
        // one writer is a constant-range `Assign` (resolved iteratively so an
        // SA local may feed another).
        let writers = &self.writers;
        self.sa_exprs.clear();
        self.sa_exprs.extend((0..n_locals).map(|slot| {
            let var = VarId(slot as u32);
            let mut ws = writers.iter().filter(|(_, _, v)| *v == var);
            match (slot >= n_params, ws.next(), ws.next()) {
                (true, Some(&(b, i, _)), None) => match &program.blocks[b.index()][i as usize] {
                    Stmt::Assign { expr, .. } => Some(expr),
                    _ => None,
                },
                _ => None,
            }
        }));
        let slots = &mut self.env.slots;
        slots.clear();
        slots.extend(self.sa_exprs.iter().enumerate().map(|(slot, sa)| match sa {
            Some(_) => CRange::Bot, // pending resolution
            None if slot < n_params => params.get(slot).copied().unwrap_or(CRange::Top),
            None => CRange::Top,
        }));
        for _ in 0..func.locals.max(1) {
            self.next_slots.clone_from(&self.env.slots);
            for (slot, sa) in self.sa_exprs.iter().enumerate() {
                if let Some(expr) = sa {
                    self.next_slots[slot] = eval_range(expr, &self.env);
                }
            }
            if self.next_slots == self.env.slots {
                break;
            }
            std::mem::swap(&mut self.next_slots, &mut self.env.slots);
        }
        // Unresolved ⊥ (an SA local defined in terms of itself) degrades to ⊤.
        for s in &mut self.env.slots {
            if *s == CRange::Bot {
                *s = CRange::Top;
            }
        }

        self.sites.clear();
        self.calls.clear();
        self.call_args.clear();
        self.walk_block(func.entry, Interval::ONE);
    }

    fn walk_block(&mut self, block: BlockId, mult: Interval) {
        let mut cur = mult;
        for (idx, stmt) in self.program.blocks[block.index()].iter().enumerate() {
            match stmt {
                Stmt::External { site } | Stmt::ThrowNew { site } => {
                    self.sites.push((*site, cur));
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let (then_m, else_m) = match eval_bool(cond, &self.env) {
                        Some(true) => (cur, Interval::ZERO),
                        Some(false) => (Interval::ZERO, cur),
                        None => {
                            let m = Interval { lo: 0, hi: cur.hi };
                            (m, m)
                        }
                    };
                    self.walk_block(*then_blk, then_m);
                    if let Some(e) = else_blk {
                        self.walk_block(*e, else_m);
                    }
                }
                Stmt::While { cond, body } => {
                    let trips = trip_count(
                        self.program,
                        &self.env,
                        &self.writers,
                        block,
                        idx as u32,
                        cond,
                        *body,
                    );
                    self.walk_block(*body, cur.mul(trips));
                }
                Stmt::Try {
                    body,
                    handlers,
                    finally,
                } => {
                    self.walk_block(*body, cur);
                    let exceptional = Interval { lo: 0, hi: cur.hi };
                    for h in handlers {
                        self.walk_block(h.block, exceptional);
                    }
                    if let Some(f) = finally {
                        self.walk_block(*f, exceptional);
                    }
                }
                _ => {}
            }
            if let Some((callee, args)) = stmt.invocation() {
                let start = self.call_args.len() as u32;
                let env = &self.env;
                self.call_args
                    .extend(args.iter().map(|a| eval_range(a, env)));
                let arg_ranges = (start, self.call_args.len() as u32);
                self.calls.push((callee, cur, arg_ranges));
            }
            if may_stop(self.program, stmt) {
                cur.lo = 0;
            }
        }
    }
}

/// Static per-site occurrence bounds for a program under a set of workload
/// roots — the result of the interprocedural analysis.
#[derive(Debug, Clone)]
pub struct OccurrenceBounds {
    site: Vec<Interval>,
    func: Vec<Interval>,
}

impl OccurrenceBounds {
    /// Runs the analysis: per-function structural interpretation, each
    /// reachable function once, in call-graph order seeded from `roots`.
    ///
    /// The interprocedural equations give a function's invocation count and
    /// parameter ranges as a sum and a join over its callers' call
    /// statements. Every function on a call-graph cycle is pinned at
    /// unbounded multiplicity and unknown parameters up front (the widening
    /// for recursion), so what is left to solve only ever reads a caller's
    /// value: a DAG, whose one solution is reached by visiting callers
    /// before callees, each with its own value already final.
    pub fn compute(program: &Program, roots: &[RootCall]) -> OccurrenceBounds {
        Self::over(program, &CallGraph::build(program), roots)
    }

    /// [`OccurrenceBounds::compute`] over a call graph the caller already
    /// has.
    pub fn over(program: &Program, calls: &CallGraph, roots: &[RootCall]) -> OccurrenceBounds {
        let reachable = calls.reachable_from(roots.iter().map(|r| r.func));
        let sccs = &calls.sccs;

        // Root contributions (the unreachable remainder keeps `[0, 0]`).
        // Every function's parameter ranges lie in one array, function
        // `f`'s from `param_base[f]`.
        let mut inv = vec![Interval::ZERO; program.funcs.len()];
        let mut param_base = Vec::with_capacity(program.funcs.len() + 1);
        let mut n_params = 0;
        for f in &program.funcs {
            param_base.push(n_params);
            n_params += f.params as usize;
        }
        param_base.push(n_params);
        let of = |f: usize| param_base[f]..param_base[f + 1];
        let mut params = vec![CRange::Bot; n_params];
        for r in roots {
            let f = r.func.index();
            inv[f] = inv[f].add(Interval::ONE);
            for (p, a) in params[of(f)].iter_mut().zip(&r.args) {
                *p = p.join(CRange::of_value(a));
            }
        }
        for f in (0..inv.len()).filter(|&f| reachable[f] && sccs.cyclic[f]) {
            inv[f] = Interval::UNBOUNDED;
            params[of(f)].fill(CRange::Top);
        }

        let mut site = vec![Interval::ZERO; program.sites.len()];
        let mut walker = FuncWalker::new(program);
        for f in sccs.callers_first() {
            // A function nothing live invokes leaves its sites at `[0, 0]`
            // and contributes to no callee.
            if !reachable[f] || inv[f].is_dead() {
                continue;
            }
            walker.analyze(FuncId(f as u32), &params[of(f)]);
            for (s, local_mult) in &walker.sites {
                site[s.index()] = inv[f].mul(*local_mult);
            }
            for &(callee, mult, (start, end)) in &walker.calls {
                let callee = callee.index();
                if sccs.cyclic[callee] {
                    continue;
                }
                let contribution = inv[f].mul(mult);
                inv[callee] = inv[callee].add(contribution);
                if !contribution.is_dead() {
                    let args = &walker.call_args[start as usize..end as usize];
                    for (p, a) in params[of(callee)].iter_mut().zip(args) {
                        *p = p.join(*a);
                    }
                }
            }
        }
        OccurrenceBounds { site, func: inv }
    }

    /// The occurrence interval of one fault site.
    pub fn site(&self, site: SiteId) -> Interval {
        self.site[site.index()]
    }

    /// All per-site intervals, indexed by `SiteId`.
    pub fn sites(&self) -> &[Interval] {
        &self.site
    }

    /// How many times a function is invoked per run.
    pub fn func_invocations(&self, func: FuncId) -> Interval {
        self.func[func.index()]
    }

    /// Per-site `hi` bounds in the shape
    /// [`Program::lints`](anduril_ir::Program::lints) consumes.
    pub fn site_his(&self) -> Vec<Option<u64>> {
        self.site.iter().map(|b| b.hi).collect()
    }

    /// Whether an injection plan candidate is statically feasible: a
    /// concrete occurrence index must lie below `hi` (indices are
    /// 0-based, so occurrence `o` requires `o + 1` executions); an
    /// any-occurrence candidate merely requires the site not to be dead.
    pub fn feasible(&self, site: SiteId, occurrence: Option<u32>) -> bool {
        let b = self.site[site.index()];
        match (occurrence, b.hi) {
            (_, None) => true,
            (Some(o), Some(hi)) => u64::from(o) < hi,
            (None, Some(hi)) => hi > 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::builder::ProgramBuilder;
    use anduril_ir::{expr::build as e, ExceptionType, Program};

    /// One function's walk with results of its own, as the reference
    /// below keeps one per function.
    struct FuncLocal {
        sites: Vec<(SiteId, Interval)>,
        calls: Vec<(FuncId, Interval, Vec<CRange>)>,
    }

    fn analyze_function(program: &Program, f: FuncId, params: &[CRange]) -> FuncLocal {
        let mut walker = FuncWalker::new(program);
        walker.analyze(f, params);
        let args =
            |&(start, end): &(u32, u32)| walker.call_args[start as usize..end as usize].to_vec();
        FuncLocal {
            sites: walker.sites.clone(),
            calls: (walker.calls.iter())
                .map(|(callee, mult, run)| (*callee, *mult, args(run)))
                .collect(),
        }
    }

    /// The interprocedural half as it was first written, kept as the
    /// reference [`OccurrenceBounds::compute`] is compared against: a
    /// per-function DFS for the cycle test, then a Jacobi iteration that
    /// re-analyses every reachable function on every pass until the
    /// invocation counts and parameter ranges stop moving.
    fn compute_jacobi(program: &Program, roots: &[RootCall]) -> OccurrenceBounds {
        let nf = program.funcs.len();

        // Invocation adjacency (same edges as `Reachability`).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nf];
        for (sref, stmt) in program.all_stmts() {
            if let Some((callee, _)) = stmt.invocation() {
                adj[program.func_of_stmt(sref).index()].push(callee.index());
            }
        }

        // Reachable set (the unreachable remainder keeps `[0, 0]`).
        let mut reachable = vec![false; nf];
        let mut stack: Vec<usize> = Vec::new();
        for r in roots {
            if !reachable[r.func.index()] {
                reachable[r.func.index()] = true;
                stack.push(r.func.index());
            }
        }
        while let Some(f) = stack.pop() {
            for &c in &adj[f] {
                if !reachable[c] {
                    reachable[c] = true;
                    stack.push(c);
                }
            }
        }

        // Widening for recursion: any reachable function on a call-graph
        // cycle gets unbounded multiplicity and unknown parameters before
        // iteration starts, so the remaining equations form a DAG and the
        // Jacobi iteration below converges.
        let mut cyclic = vec![false; nf];
        for f in 0..nf {
            if !reachable[f] {
                continue;
            }
            let mut seen = vec![false; nf];
            let mut s: Vec<usize> = adj[f].clone();
            while let Some(g) = s.pop() {
                if g == f {
                    cyclic[f] = true;
                    break;
                }
                if !seen[g] {
                    seen[g] = true;
                    s.extend(adj[g].iter().copied());
                }
            }
        }

        // Root contributions, recomputed fresh each iteration.
        let mut root_mult = vec![0u64; nf];
        let mut root_params: Vec<Vec<CRange>> = program
            .funcs
            .iter()
            .map(|f| vec![CRange::Bot; f.params as usize])
            .collect();
        for r in roots {
            root_mult[r.func.index()] += 1;
            for (i, a) in r.args.iter().enumerate() {
                if let Some(p) = root_params[r.func.index()].get_mut(i) {
                    *p = p.join(CRange::of_value(a));
                }
            }
        }

        let mut inv: Vec<Interval> = vec![Interval::ZERO; nf];
        let mut params: Vec<Vec<CRange>> = root_params.clone();
        let top_params =
            |f: usize| -> Vec<CRange> { vec![CRange::Top; program.funcs[f].params as usize] };
        for f in 0..nf {
            if reachable[f] && cyclic[f] {
                inv[f] = Interval::UNBOUNDED;
                params[f] = top_params(f);
            } else if reachable[f] {
                inv[f] = Interval::exact(root_mult[f]);
            }
        }

        let mut locals: Vec<Option<FuncLocal>> = (0..nf).map(|_| None).collect();
        for _ in 0..nf + 2 {
            for f in 0..nf {
                locals[f] = reachable[f].then(|| {
                    let widened;
                    let p = if cyclic[f] {
                        widened = top_params(f);
                        &widened
                    } else {
                        &params[f]
                    };
                    analyze_function(program, FuncId(f as u32), p)
                });
            }
            let mut new_inv: Vec<Interval> = (0..nf)
                .map(|f| {
                    if reachable[f] {
                        Interval::exact(root_mult[f])
                    } else {
                        Interval::ZERO
                    }
                })
                .collect();
            let mut new_params = root_params.clone();
            for f in 0..nf {
                let Some(local) = &locals[f] else { continue };
                if inv[f].is_dead() {
                    continue;
                }
                for (callee, mult, args) in &local.calls {
                    let contribution = inv[f].mul(*mult);
                    new_inv[callee.index()] = new_inv[callee.index()].add(contribution);
                    if !contribution.is_dead() {
                        for (i, a) in args.iter().enumerate() {
                            if let Some(p) = new_params[callee.index()].get_mut(i) {
                                *p = p.join(*a);
                            }
                        }
                    }
                }
            }
            for f in 0..nf {
                if reachable[f] && cyclic[f] {
                    new_inv[f] = Interval::UNBOUNDED;
                    new_params[f] = top_params(f);
                }
            }
            if new_inv == inv && new_params == params {
                break;
            }
            inv = new_inv;
            params = new_params;
        }

        let mut site = vec![Interval::ZERO; program.sites.len()];
        for f in 0..nf {
            let Some(local) = &locals[f] else { continue };
            for (s, local_mult) in &local.sites {
                site[s.index()] = inv[f].mul(*local_mult);
            }
        }
        OccurrenceBounds { site, func: inv }
    }

    fn site_named(p: &Program, desc: &str) -> SiteId {
        p.sites.iter().find(|s| s.desc == desc).unwrap().id
    }

    fn roots(p: &[(FuncId, Vec<Value>)]) -> Vec<RootCall> {
        p.iter()
            .map(|(func, args)| RootCall {
                func: *func,
                args: args.clone(),
            })
            .collect()
    }

    #[test]
    fn straight_line_sites_are_exact() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            b.external("a.op", &[ExceptionType::Io]);
            b.external("b.op", &[ExceptionType::Io]);
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        assert_eq!(bounds.site(site_named(&p, "a.op")), Interval::ONE);
        // `a.op` can throw, so the statement after it only gets `lo = 0`.
        assert_eq!(
            bounds.site(site_named(&p, "b.op")),
            Interval { lo: 0, hi: Some(1) }
        );
    }

    #[test]
    fn counter_loops_with_constant_bounds_are_exact() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::lt(e::var(i), e::int(4)), |b| {
                b.external("loop.op", &[ExceptionType::Io]);
                b.assign(i, e::add(e::var(i), e::int(1)));
            });
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        let b = bounds.site(site_named(&p, "loop.op"));
        assert_eq!(b.hi, Some(4));
        // The site can throw out of the loop, so lo stays 0.
        assert_eq!(b.lo, 0);
        assert!(bounds.feasible(site_named(&p, "loop.op"), Some(3)));
        assert!(!bounds.feasible(site_named(&p, "loop.op"), Some(4)));
    }

    #[test]
    fn loop_bounds_propagate_from_root_arguments() {
        let mut pb = ProgramBuilder::new("t");
        let worker = pb.declare("worker", 1);
        let main = pb.declare("main", 1);
        pb.body(worker, |b| {
            let iters = b.param(0);
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::lt(e::var(i), e::var(iters)), |b| {
                b.external("w.op", &[ExceptionType::Io]);
                b.assign(i, e::add(e::var(i), e::int(1)));
            });
        });
        pb.body(main, |b| {
            let n = b.param(0);
            b.spawn("w", worker, vec![e::var(n)]);
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![Value::Int(7)])]));
        assert_eq!(bounds.site(site_named(&p, "w.op")).hi, Some(7));

        // Two nodes with different arguments join: the larger bound wins.
        let bounds = OccurrenceBounds::compute(
            &p,
            &roots(&[(main, vec![Value::Int(3)]), (main, vec![Value::Int(5)])]),
        );
        // Two roots × up to 5 iterations each.
        assert_eq!(bounds.site(site_named(&p, "w.op")).hi, Some(10));
    }

    #[test]
    fn call_multiplicity_multiplies_along_chains() {
        let mut pb = ProgramBuilder::new("t");
        let inner = pb.declare("inner", 0);
        let outer = pb.declare("outer", 0);
        let main = pb.declare("main", 0);
        pb.body(inner, |b| {
            b.external("deep.op", &[ExceptionType::Io]);
        });
        pb.body(outer, |b| {
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::lt(e::var(i), e::int(3)), |b| {
                b.call(inner, vec![]);
                b.assign(i, e::add(e::var(i), e::int(1)));
            });
        });
        pb.body(main, |b| {
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::lt(e::var(i), e::int(2)), |b| {
                b.call(outer, vec![]);
                b.assign(i, e::add(e::var(i), e::int(1)));
            });
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        assert_eq!(bounds.site(site_named(&p, "deep.op")).hi, Some(6));
        assert_eq!(bounds.func_invocations(inner).hi, Some(6));
    }

    #[test]
    fn constant_false_branches_are_dead() {
        let mut pb = ProgramBuilder::new("t");
        let saver = pb.declare("saver", 0);
        let main = pb.declare("main", 1);
        pb.body(saver, |b| {
            b.external("saver.op", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            let n = b.param(0);
            b.if_(e::gt(e::var(n), e::int(0)), |b| {
                b.spawn("saver", saver, vec![]);
            });
            b.external("main.op", &[ExceptionType::Io]);
        });
        let p = pb.finish().unwrap();
        // Configured off: the guarded spawn never runs, its site is dead.
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![Value::Int(0)])]));
        assert!(bounds.site(site_named(&p, "saver.op")).is_dead());
        assert!(!bounds.feasible(site_named(&p, "saver.op"), None));
        assert!(bounds.feasible(site_named(&p, "main.op"), Some(0)));
        // Configured on: alive again.
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![Value::Int(4)])]));
        assert_eq!(bounds.site(site_named(&p, "saver.op")).hi, Some(1));
    }

    #[test]
    fn unbounded_loops_and_recursion_widen_to_top() {
        let mut pb = ProgramBuilder::new("t");
        let rec = pb.declare("rec", 0);
        let main = pb.declare("main", 0);
        pb.body(rec, |b| {
            b.external("rec.op", &[ExceptionType::Io]);
            b.if_(e::gt(e::rand(0, 2), e::int(0)), |b| {
                b.call(rec, vec![]);
            });
        });
        pb.body(main, |b| {
            b.loop_(|b| {
                b.external("forever.op", &[ExceptionType::Io]);
                b.if_(e::gt(e::rand(0, 2), e::int(0)), |b| {
                    b.break_();
                });
            });
            b.call(rec, vec![]);
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        assert!(bounds.site(site_named(&p, "forever.op")).is_unbounded());
        assert!(bounds.site(site_named(&p, "rec.op")).is_unbounded());
        // Unbounded sites accept any occurrence index.
        assert!(bounds.feasible(site_named(&p, "forever.op"), Some(1_000_000)));
    }

    #[test]
    fn unreachable_functions_are_dead() {
        let mut pb = ProgramBuilder::new("t");
        let dead = pb.declare("dead", 0);
        let main = pb.declare("main", 0);
        pb.body(dead, |b| {
            b.external("dead.op", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            b.external("live.op", &[ExceptionType::Io]);
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        assert!(bounds.site(site_named(&p, "dead.op")).is_dead());
        assert_eq!(bounds.func_invocations(dead), Interval::ZERO);
    }

    #[test]
    fn non_counter_loops_widen() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("ready", Value::Bool(false));
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            b.while_(e::not(e::glob(g)), |b| {
                b.external("poll.op", &[ExceptionType::Io]);
            });
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        assert!(bounds.site(site_named(&p, "poll.op")).is_unbounded());
    }

    #[test]
    fn interval_arithmetic_laws() {
        let three = Interval::exact(3);
        assert_eq!(three.mul(Interval::exact(4)), Interval::exact(12));
        assert_eq!(Interval::ZERO.mul(Interval::UNBOUNDED), Interval::ZERO);
        assert_eq!(Interval::UNBOUNDED.mul(three), Interval { lo: 0, hi: None });
        assert_eq!(three.add(Interval::exact(4)), Interval::exact(7));
        assert_eq!(
            three.join(Interval::exact(5)),
            Interval { lo: 3, hi: Some(5) }
        );
        assert_eq!(three.join(Interval::UNBOUNDED).hi, None);
        assert_eq!(Interval::exact(2).to_string(), "[2, 2]");
        assert_eq!(Interval::UNBOUNDED.to_string(), "[0, ∞)");
    }

    #[test]
    fn le_loops_and_nonunit_steps_count_correctly() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            let i = b.local();
            b.assign(i, e::int(0));
            b.while_(e::le(e::var(i), e::int(10)), |b| {
                b.external("le.op", &[ExceptionType::Io]);
                b.assign(i, e::add(e::var(i), e::int(3)));
            });
        });
        let p = pb.finish().unwrap();
        let bounds = OccurrenceBounds::compute(&p, &roots(&[(main, vec![])]));
        // i = 0, 3, 6, 9 — then 12 > 10.
        assert_eq!(bounds.site(site_named(&p, "le.op")).hi, Some(4));
    }

    /// Call-graph order against the Jacobi iteration, on call graphs the
    /// tickets do not have.
    #[test]
    fn bounds_equal_the_jacobi_reference() {
        use crate::test_programs::{build, shapes, Rng};
        // What the comparison saw: sites pinned at ⊤, sites proved dead,
        // sites bounded above one execution.
        let (mut unbounded, mut dead, mut counted) = (0, 0, 0);
        for shape in shapes() {
            for seed in 0..64 {
                let (p, roots) = build(&shape, &mut Rng(seed));
                let fast = OccurrenceBounds::compute(&p, &roots);
                let slow = compute_jacobi(&p, &roots);
                assert_eq!(fast.site, slow.site, "{} seed {seed}", shape.name);
                assert_eq!(fast.func, slow.func, "{} seed {seed}", shape.name);
                unbounded += fast.site.iter().filter(|b| b.is_unbounded()).count();
                dead += fast.site.iter().filter(|b| b.is_dead()).count();
                counted += fast.site.iter().filter(|b| b.hi > Some(1)).count();
            }
        }
        assert!(
            unbounded > 100 && dead > 100 && counted > 100,
            "{unbounded} unbounded, {dead} dead, {counted} counted"
        );
    }
}
