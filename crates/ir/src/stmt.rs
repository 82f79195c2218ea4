//! IR statements.
//!
//! Blocks are stored flat in [`crate::Program::blocks`]; structured
//! statements (`if`, `while`, `try`) reference child blocks by
//! [`BlockId`], which lets both the interpreter (explicit cursor stacks)
//! and the static analyses (parent maps, dominators) address any statement
//! with a plain [`crate::StmtRef`].

use crate::exception::ExceptionPattern;
use crate::expr::Expr;
use crate::ids::{BlockId, ChanId, CondId, ExecId, FuncId, GlobalId, SiteId, TemplateId, VarId};
use crate::log::Level;

/// One `catch` clause of a [`Stmt::Try`].
#[derive(Debug, Clone, PartialEq)]
pub struct Handler {
    /// Which exception types this clause catches.
    pub pattern: ExceptionPattern,
    /// The handler body.
    pub block: BlockId,
    /// Optional local variable bound to the caught exception value.
    pub bind: Option<VarId>,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Emit a log message rendered from a template and argument expressions.
    Log {
        /// Severity.
        level: Level,
        /// The message template.
        template: TemplateId,
        /// Expressions substituted into the template's `{}` holes.
        args: Vec<Expr>,
        /// If `true` and an exception value is among the args (or one is
        /// pending in the enclosing handler), the rendered entry carries a
        /// stack trace, as Java loggers do for `log.warn(msg, throwable)`.
        attach_stack: bool,
    },
    /// Assign to a function-local variable.
    Assign {
        /// Destination slot.
        var: VarId,
        /// Value to store.
        expr: Expr,
    },
    /// Assign to a per-node global variable.
    SetGlobal {
        /// Destination global.
        global: GlobalId,
        /// Value to store.
        expr: Expr,
    },
    /// Append a value to a list-valued global (queue push).
    PushBack {
        /// The queue global.
        global: GlobalId,
        /// Value to append.
        expr: Expr,
    },
    /// Pop the front of a list-valued global into a local; stores
    /// [`crate::Value::Unit`] when the queue is empty.
    PopFront {
        /// The queue global.
        global: GlobalId,
        /// Destination local.
        var: VarId,
    },
    /// Synchronously invoke another IR function on the same thread.
    Call {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<Expr>,
        /// Local receiving the return value, if any.
        ret: Option<VarId>,
    },
    /// An external library / OS / RPC-substrate call that may fail.
    ///
    /// This is an *external-exception* fault site: the fault-injection
    /// runtime traces every execution and may force it to throw one of the
    /// site's declared exception types.
    External {
        /// The fault site (metadata lives in [`crate::Program::sites`]).
        site: SiteId,
    },
    /// `throw new E(...)`: a *new-exception* fault site.
    ThrowNew {
        /// The fault site (metadata lives in [`crate::Program::sites`]).
        site: SiteId,
    },
    /// Rethrow the exception caught by the nearest enclosing handler.
    Rethrow,
    /// Two-way branch.
    If {
        /// The branch condition.
        cond: Expr,
        /// Block executed when the condition is true.
        then_blk: BlockId,
        /// Block executed when the condition is false, if present.
        else_blk: Option<BlockId>,
    },
    /// Pre-tested loop.
    While {
        /// The loop condition.
        cond: Expr,
        /// The loop body.
        body: BlockId,
    },
    /// Exception-handling region.
    Try {
        /// The protected body.
        body: BlockId,
        /// Catch clauses, tried in order.
        handlers: Vec<Handler>,
        /// Optional finally block, run on both normal and exceptional exit.
        finally: Option<BlockId>,
    },
    /// Return from the current function.
    Return {
        /// Return value; `None` returns unit.
        expr: Option<Expr>,
    },
    /// Exit the nearest enclosing loop.
    Break,
    /// Jump to the next iteration of the nearest enclosing loop.
    Continue,
    /// Start a new thread on the current node running `func`.
    Spawn {
        /// Thread name (unique per node; an instance counter is appended on
        /// repeat spawns).
        name: String,
        /// Thread entry function.
        func: FuncId,
        /// Arguments passed to the entry function.
        args: Vec<Expr>,
    },
    /// Submit `func` as a task to a single-threaded executor, yielding a
    /// future handle.
    Submit {
        /// Target executor.
        exec: ExecId,
        /// Task body.
        func: FuncId,
        /// Arguments passed to the task.
        args: Vec<Expr>,
        /// Local receiving the [`crate::Value::Future`] handle.
        future: Option<VarId>,
    },
    /// Block until a future completes.
    ///
    /// If the task failed, throws [`crate::ExceptionType::Execution`] wrapping the
    /// task's exception; if `timeout` elapses first, throws
    /// [`crate::ExceptionType::Timeout`].
    Await {
        /// Local holding the future handle.
        future: VarId,
        /// Optional timeout in ticks.
        timeout: Option<Expr>,
        /// Local receiving the task's return value.
        ret: Option<VarId>,
    },
    /// Asynchronously send a message to `(node, chan)`; delivery latency is
    /// simulated.
    Send {
        /// Destination node name (a string-valued expression).
        node: Expr,
        /// Destination channel on that node.
        chan: ChanId,
        /// Message payload.
        payload: Expr,
    },
    /// Block until a message arrives on this node's `chan`.
    ///
    /// If `timeout` elapses first, throws [`crate::ExceptionType::Timeout`].
    Recv {
        /// Source channel.
        chan: ChanId,
        /// Local receiving the payload.
        var: VarId,
        /// Optional timeout in ticks.
        timeout: Option<Expr>,
    },
    /// Wait on a condition variable.
    ///
    /// With a timeout, stores `true` into `ok` if signalled and `false` on
    /// timeout (mirroring Java's `Condition.await(timeout)`); without one,
    /// blocks until signalled.
    WaitCond {
        /// The condition variable.
        cond: CondId,
        /// Optional timeout in ticks.
        timeout: Option<Expr>,
        /// Local receiving the signalled-vs-timed-out flag.
        ok: Option<VarId>,
    },
    /// Wake every thread waiting on a condition variable (`signalAll`).
    SignalCond {
        /// The condition variable.
        cond: CondId,
    },
    /// Suspend the thread for a number of ticks.
    Sleep {
        /// Sleep duration in ticks.
        ticks: Expr,
    },
    /// Abort the current node: every thread on it stops and an ABORT log
    /// entry is emitted (HBase-style `abort()`).
    Abort {
        /// Human-readable abort reason included in the log.
        reason: String,
    },
    /// End the current thread normally.
    Halt,
}

impl Stmt {
    /// Returns the fault site id if this statement is a fault site.
    pub fn site(&self) -> Option<SiteId> {
        match self {
            Stmt::External { site } | Stmt::ThrowNew { site } => Some(*site),
            _ => None,
        }
    }

    /// Returns the invoked function and the actual-argument expressions if
    /// this statement transfers control to another function (`Call`,
    /// `Submit`, or `Spawn`).
    ///
    /// The arguments are positional: `args[i]` is bound to the callee's
    /// parameter slot `VarId(i)`, which is what lets the interprocedural
    /// slicer jump from a parameter read out to every call site.
    pub fn invocation(&self) -> Option<(FuncId, &[Expr])> {
        match self {
            Stmt::Call { func, args, .. }
            | Stmt::Submit { func, args, .. }
            | Stmt::Spawn { func, args, .. } => Some((*func, args)),
            _ => None,
        }
    }

    /// Returns every expression this statement evaluates, in evaluation
    /// order. Used by the lints and the dataflow analysis to enumerate
    /// reads without matching each variant separately.
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Stmt::Log { args, .. } => args.iter().collect(),
            Stmt::Assign { expr, .. }
            | Stmt::SetGlobal { expr, .. }
            | Stmt::PushBack { expr, .. } => vec![expr],
            Stmt::Call { args, .. } | Stmt::Spawn { args, .. } | Stmt::Submit { args, .. } => {
                args.iter().collect()
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => vec![cond],
            Stmt::Return { expr } => expr.iter().collect(),
            Stmt::Await { timeout, .. }
            | Stmt::Recv { timeout, .. }
            | Stmt::WaitCond { timeout, .. } => timeout.iter().collect(),
            Stmt::Send { node, payload, .. } => vec![node, payload],
            Stmt::Sleep { ticks } => vec![ticks],
            Stmt::PopFront { .. }
            | Stmt::External { .. }
            | Stmt::ThrowNew { .. }
            | Stmt::Rethrow
            | Stmt::Try { .. }
            | Stmt::Break
            | Stmt::Continue
            | Stmt::SignalCond { .. }
            | Stmt::Abort { .. }
            | Stmt::Halt => Vec::new(),
        }
    }

    /// Returns the child blocks this statement owns, with their roles, in
    /// structural order: `then` before `else`; a `try`'s body, its
    /// handlers, its `finally`.
    pub fn child_blocks(&self) -> impl Iterator<Item = (BlockId, crate::program::BlockRole)> + '_ {
        use crate::program::BlockRole;
        let (first, handlers, last): (_, &[Handler], _) = match self {
            Stmt::If {
                then_blk, else_blk, ..
            } => (
                Some((*then_blk, BlockRole::Then)),
                &[],
                else_blk.map(|e| (e, BlockRole::Else)),
            ),
            Stmt::While { body, .. } => (Some((*body, BlockRole::LoopBody)), &[], None),
            Stmt::Try {
                body,
                handlers,
                finally,
            } => (
                Some((*body, BlockRole::TryBody)),
                handlers,
                finally.map(|f| (f, BlockRole::Finally)),
            ),
            _ => (None, &[], None),
        };
        let handlers = handlers
            .iter()
            .enumerate()
            .map(|(i, h)| (h.block, BlockRole::Handler(i as u32)));
        first.into_iter().chain(handlers).chain(last)
    }
}
