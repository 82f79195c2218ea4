//! Fluent construction of IR programs.
//!
//! Target systems declare functions up front (allowing recursion and
//! forward references), then define bodies with nested closures:
//!
//! ```
//! use anduril_ir::builder::ProgramBuilder;
//! use anduril_ir::expr as e;
//! use anduril_ir::{ExceptionType, Level, Value};
//!
//! let mut pb = ProgramBuilder::new("wal");
//! let pending = pb.global("pending", Value::Int(0));
//! let sync = pb.declare("sync", 0);
//! let consume = pb.declare("consume", 0);
//! pb.body(sync, |b| {
//!     b.external("hdfs.write", &[ExceptionType::Io]);
//!     b.set_global(pending, e::int(0));
//! });
//! pb.body(consume, |b| {
//!     b.while_(e::gt(e::glob(pending), e::int(0)), |b| {
//!         b.call(sync, vec![]);
//!         b.log(Level::Info, "synced pending entries", vec![]);
//!     });
//! });
//! let program = pb.finish().unwrap();
//! assert_eq!(program.funcs.len(), 2);
//! ```

use std::collections::HashMap;

use crate::exception::{ExceptionPattern, ExceptionType};
use crate::expr::Expr;
use crate::ids::{
    BlockId, ChanId, CondId, ExecId, FuncId, GlobalId, SiteId, StmtRef, TemplateId, VarId,
};
use crate::log::{Level, LogTemplate};
use crate::program::{FaultSite, Function, GlobalInfo, IrError, Program, SiteKind};
use crate::stmt::{Handler, Stmt};
use crate::value::Value;

/// Template id of the runtime-emitted `Uncaught exception {} in thread {}`
/// message, present in every program.
pub const TMPL_UNCAUGHT: TemplateId = TemplateId(0);
/// Template id of the runtime-emitted `ABORT: node {} aborting: {}` message.
pub const TMPL_ABORT: TemplateId = TemplateId(1);
/// Template id of the runtime-emitted `Node {} crashed` message (used by the
/// CrashTuner baseline's crash injections).
pub const TMPL_NODE_CRASH: TemplateId = TemplateId(2);

/// Statement reference used for entries emitted by the runtime rather than
/// by a program statement.
pub const STMT_RUNTIME: StmtRef = StmtRef {
    block: BlockId(u32::MAX),
    idx: u32::MAX,
};

/// A boxed body-building closure, used by [`BodyBuilder::try_full`].
pub type BodyFn<'f> = Box<dyn FnOnce(&mut BodyBuilder<'_>) + 'f>;

/// Builds a [`Program`] incrementally.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    funcs: Vec<FunctionDraft>,
    blocks: Vec<Vec<Stmt>>,
    templates: Vec<LogTemplate>,
    template_index: HashMap<String, TemplateId>,
    sites: Vec<FaultSite>,
    globals: Vec<GlobalInfo>,
    conds: Vec<String>,
    chans: Vec<String>,
    execs: Vec<String>,
}

#[derive(Debug)]
struct FunctionDraft {
    name: String,
    params: u32,
    locals: u32,
    entry: Option<BlockId>,
}

impl ProgramBuilder {
    /// Creates an empty builder; the three runtime templates are interned
    /// at their fixed ids.
    pub fn new(name: &str) -> Self {
        let mut pb = ProgramBuilder {
            name: name.to_string(),
            funcs: Vec::new(),
            blocks: Vec::new(),
            templates: Vec::new(),
            template_index: HashMap::new(),
            sites: Vec::new(),
            globals: Vec::new(),
            conds: Vec::new(),
            chans: Vec::new(),
            execs: Vec::new(),
        };
        let uncaught = pb.intern_template("Uncaught exception {} in thread {}");
        let abort = pb.intern_template("ABORT: node {} aborting: {}");
        let crash = pb.intern_template("Node {} crashed");
        debug_assert_eq!(uncaught, TMPL_UNCAUGHT);
        debug_assert_eq!(abort, TMPL_ABORT);
        debug_assert_eq!(crash, TMPL_NODE_CRASH);
        pb
    }

    /// Declares a function with `params` parameters; its body is supplied
    /// later via [`ProgramBuilder::body`].
    pub fn declare(&mut self, name: &str, params: u32) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(FunctionDraft {
            name: name.to_string(),
            params,
            locals: params,
            entry: None,
        });
        id
    }

    /// Declares a per-node global variable with an initial value.
    pub fn global(&mut self, name: &str, init: Value) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(GlobalInfo {
            name: name.to_string(),
            init,
            meta_info: false,
        });
        id
    }

    /// Declares a *meta-info* global (node membership / role state); the
    /// CrashTuner baseline injects crashes around accesses to these.
    pub fn meta_global(&mut self, name: &str, init: Value) -> GlobalId {
        let id = self.global(name, init);
        self.globals[id.index()].meta_info = true;
        id
    }

    /// Declares a per-node condition variable.
    pub fn cond(&mut self, name: &str) -> CondId {
        let id = CondId(self.conds.len() as u32);
        self.conds.push(name.to_string());
        id
    }

    /// Declares a per-node message channel.
    pub fn chan(&mut self, name: &str) -> ChanId {
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(name.to_string());
        id
    }

    /// Declares a per-node single-threaded executor.
    pub fn executor(&mut self, name: &str) -> ExecId {
        let id = ExecId(self.execs.len() as u32);
        self.execs.push(name.to_string());
        id
    }

    /// Defines the body of a previously declared function.
    ///
    /// # Panics
    ///
    /// Panics if the function already has a body.
    pub fn body(&mut self, func: FuncId, f: impl FnOnce(&mut BodyBuilder<'_>)) {
        assert!(
            self.funcs[func.index()].entry.is_none(),
            "function `{}` defined twice",
            self.funcs[func.index()].name
        );
        let entry = self.new_block();
        self.funcs[func.index()].entry = Some(entry);
        let mut b = BodyBuilder {
            pb: self,
            func,
            block: entry,
        };
        f(&mut b);
    }

    /// Finalizes the program, validating structural invariants. The
    /// non-fatal smells are [`Program::lints`]'s, computed when asked for.
    pub fn finish(self) -> Result<Program, IrError> {
        let mut funcs = Vec::with_capacity(self.funcs.len());
        for d in &self.funcs {
            let entry = d
                .entry
                .ok_or_else(|| IrError::UndefinedFunction(d.name.clone()))?;
            funcs.push(Function {
                name: d.name.clone(),
                params: d.params,
                locals: d.locals,
                entry,
            });
        }
        Program::assemble(
            self.name,
            funcs,
            self.blocks,
            self.templates,
            self.sites,
            self.globals,
            self.conds,
            self.chans,
            self.execs,
        )
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Vec::new());
        id
    }

    fn intern_template(&mut self, text: &str) -> TemplateId {
        if let Some(id) = self.template_index.get(text) {
            return *id;
        }
        let id = TemplateId(self.templates.len() as u32);
        self.templates.push(LogTemplate {
            text: text.to_string(),
        });
        self.template_index.insert(text.to_string(), id);
        id
    }
}

/// Appends statements to one block of one function.
#[derive(Debug)]
pub struct BodyBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    func: FuncId,
    block: BlockId,
}

impl<'a> BodyBuilder<'a> {
    fn push(&mut self, stmt: Stmt) -> StmtRef {
        let idx = self.pb.blocks[self.block.index()].len() as u32;
        self.pb.blocks[self.block.index()].push(stmt);
        StmtRef::new(self.block, idx)
    }

    fn child(&mut self, f: impl FnOnce(&mut BodyBuilder<'_>)) -> BlockId {
        let block = self.pb.new_block();
        let mut b = BodyBuilder {
            pb: self.pb,
            func: self.func,
            block,
        };
        f(&mut b);
        block
    }

    /// Allocates a fresh local variable slot in the current function.
    pub fn local(&mut self) -> VarId {
        let d = &mut self.pb.funcs[self.func.index()];
        let id = VarId(d.locals);
        d.locals += 1;
        id
    }

    /// Returns the parameter slot `i` of the current function.
    pub fn param(&self, i: u32) -> VarId {
        debug_assert!(i < self.pb.funcs[self.func.index()].params);
        VarId(i)
    }

    /// Emits a log statement, interning the template text.
    pub fn log(&mut self, level: Level, template: &str, args: Vec<Expr>) -> StmtRef {
        let template = self.pb.intern_template(template);
        self.push(Stmt::Log {
            level,
            template,
            args,
            attach_stack: false,
        })
    }

    /// Emits a log statement that attaches the current exception's stack
    /// trace (like `log.warn(msg, throwable)` in Java).
    pub fn log_exc(&mut self, level: Level, template: &str, args: Vec<Expr>) -> StmtRef {
        let template = self.pb.intern_template(template);
        self.push(Stmt::Log {
            level,
            template,
            args,
            attach_stack: true,
        })
    }

    /// Assigns to a local.
    pub fn assign(&mut self, var: VarId, expr: Expr) -> StmtRef {
        self.push(Stmt::Assign { var, expr })
    }

    /// Assigns to a global.
    pub fn set_global(&mut self, global: GlobalId, expr: Expr) -> StmtRef {
        self.push(Stmt::SetGlobal { global, expr })
    }

    /// Pushes onto a queue global.
    pub fn push_back(&mut self, global: GlobalId, expr: Expr) -> StmtRef {
        self.push(Stmt::PushBack { global, expr })
    }

    /// Pops from a queue global into a local (unit when empty).
    pub fn pop_front(&mut self, global: GlobalId, var: VarId) -> StmtRef {
        self.push(Stmt::PopFront { global, var })
    }

    /// Calls a function, discarding its return value.
    pub fn call(&mut self, func: FuncId, args: Vec<Expr>) -> StmtRef {
        self.push(Stmt::Call {
            func,
            args,
            ret: None,
        })
    }

    /// Calls a function, storing its return value.
    pub fn call_ret(&mut self, func: FuncId, args: Vec<Expr>, ret: VarId) -> StmtRef {
        self.push(Stmt::Call {
            func,
            args,
            ret: Some(ret),
        })
    }

    /// Emits an external call fault site with default latency.
    pub fn external(&mut self, desc: &str, throws: &[ExceptionType]) -> SiteId {
        self.external_lat(desc, throws, 1)
    }

    /// Emits an external call fault site with an explicit latency in ticks.
    pub fn external_lat(&mut self, desc: &str, throws: &[ExceptionType], latency: u32) -> SiteId {
        let id = SiteId(self.pb.sites.len() as u32);
        let idx = self.pb.blocks[self.block.index()].len() as u32;
        let stmt = StmtRef::new(self.block, idx);
        self.pb.sites.push(FaultSite {
            id,
            kind: SiteKind::External,
            func: self.func,
            stmt,
            exceptions: throws.to_vec(),
            desc: desc.to_string(),
            latency,
        });
        self.push(Stmt::External { site: id });
        id
    }

    /// Emits a `throw new` fault site (always throws when reached).
    pub fn throw_new(&mut self, desc: &str, exc: ExceptionType) -> SiteId {
        let id = SiteId(self.pb.sites.len() as u32);
        let idx = self.pb.blocks[self.block.index()].len() as u32;
        let stmt = StmtRef::new(self.block, idx);
        self.pb.sites.push(FaultSite {
            id,
            kind: SiteKind::ThrowNew,
            func: self.func,
            stmt,
            exceptions: vec![exc],
            desc: desc.to_string(),
            latency: 0,
        });
        self.push(Stmt::ThrowNew { site: id });
        id
    }

    /// Rethrows the exception caught by the nearest enclosing handler.
    pub fn rethrow(&mut self) -> StmtRef {
        self.push(Stmt::Rethrow)
    }

    /// Emits an `if` with both branches.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_f: impl FnOnce(&mut BodyBuilder<'_>),
        else_f: impl FnOnce(&mut BodyBuilder<'_>),
    ) -> StmtRef {
        let then_blk = self.child(then_f);
        let else_blk = self.child(else_f);
        self.push(Stmt::If {
            cond,
            then_blk,
            else_blk: Some(else_blk),
        })
    }

    /// Emits an `if` with only a then branch.
    pub fn if_(&mut self, cond: Expr, then_f: impl FnOnce(&mut BodyBuilder<'_>)) -> StmtRef {
        let then_blk = self.child(then_f);
        self.push(Stmt::If {
            cond,
            then_blk,
            else_blk: None,
        })
    }

    /// Emits a `while` loop.
    pub fn while_(&mut self, cond: Expr, body_f: impl FnOnce(&mut BodyBuilder<'_>)) -> StmtRef {
        let body = self.child(body_f);
        self.push(Stmt::While { cond, body })
    }

    /// Emits an infinite loop (`while true`).
    pub fn loop_(&mut self, body_f: impl FnOnce(&mut BodyBuilder<'_>)) -> StmtRef {
        self.while_(Expr::Const(Value::Bool(true)), body_f)
    }

    /// Emits `try { body } catch (pattern) { handler }`.
    pub fn try_catch(
        &mut self,
        body_f: impl FnOnce(&mut BodyBuilder<'_>),
        pattern: impl Into<ExceptionPattern>,
        handler_f: impl FnOnce(&mut BodyBuilder<'_>),
    ) -> StmtRef {
        let body = self.child(body_f);
        let hblock = self.child(handler_f);
        self.push(Stmt::Try {
            body,
            handlers: vec![Handler {
                pattern: pattern.into(),
                block: hblock,
                bind: None,
            }],
            finally: None,
        })
    }

    /// Emits a `try` with multiple catch clauses and an optional finally.
    pub fn try_full(
        &mut self,
        body_f: impl FnOnce(&mut BodyBuilder<'_>),
        handlers: Vec<(ExceptionPattern, BodyFn<'_>)>,
        finally_f: Option<BodyFn<'_>>,
    ) -> StmtRef {
        let body = self.child(body_f);
        let mut hs = Vec::with_capacity(handlers.len());
        for (pattern, f) in handlers {
            let block = self.child(f);
            hs.push(Handler {
                pattern,
                block,
                bind: None,
            });
        }
        let finally = finally_f.map(|f| self.child(f));
        self.push(Stmt::Try {
            body,
            handlers: hs,
            finally,
        })
    }

    /// Returns from the current function.
    pub fn ret(&mut self, expr: Option<Expr>) -> StmtRef {
        self.push(Stmt::Return { expr })
    }

    /// Breaks out of the nearest loop.
    pub fn break_(&mut self) -> StmtRef {
        self.push(Stmt::Break)
    }

    /// Continues the nearest loop.
    pub fn continue_(&mut self) -> StmtRef {
        self.push(Stmt::Continue)
    }

    /// Spawns a named thread on the current node.
    pub fn spawn(&mut self, name: &str, func: FuncId, args: Vec<Expr>) -> StmtRef {
        self.push(Stmt::Spawn {
            name: name.to_string(),
            func,
            args,
        })
    }

    /// Submits a task to an executor, storing the future handle.
    pub fn submit(
        &mut self,
        exec: ExecId,
        func: FuncId,
        args: Vec<Expr>,
        future: VarId,
    ) -> StmtRef {
        self.push(Stmt::Submit {
            exec,
            func,
            args,
            future: Some(future),
        })
    }

    /// Submits a fire-and-forget task to an executor.
    pub fn submit_forget(&mut self, exec: ExecId, func: FuncId, args: Vec<Expr>) -> StmtRef {
        self.push(Stmt::Submit {
            exec,
            func,
            args,
            future: None,
        })
    }

    /// Awaits a future, optionally with a timeout and a return slot.
    pub fn await_(&mut self, future: VarId, timeout: Option<Expr>, ret: Option<VarId>) -> StmtRef {
        self.push(Stmt::Await {
            future,
            timeout,
            ret,
        })
    }

    /// Sends a message to `(node, chan)`.
    pub fn send(&mut self, node: Expr, chan: ChanId, payload: Expr) -> StmtRef {
        self.push(Stmt::Send {
            node,
            chan,
            payload,
        })
    }

    /// Receives a message from this node's `chan`.
    pub fn recv(&mut self, chan: ChanId, var: VarId, timeout: Option<Expr>) -> StmtRef {
        self.push(Stmt::Recv { chan, var, timeout })
    }

    /// Waits on a condition variable.
    pub fn wait_cond(&mut self, cond: CondId, timeout: Option<Expr>, ok: Option<VarId>) -> StmtRef {
        self.push(Stmt::WaitCond { cond, timeout, ok })
    }

    /// Signals every waiter of a condition variable.
    pub fn signal(&mut self, cond: CondId) -> StmtRef {
        self.push(Stmt::SignalCond { cond })
    }

    /// Sleeps for `ticks`.
    pub fn sleep(&mut self, ticks: Expr) -> StmtRef {
        self.push(Stmt::Sleep { ticks })
    }

    /// Aborts the current node.
    pub fn abort(&mut self, reason: &str) -> StmtRef {
        self.push(Stmt::Abort {
            reason: reason.to_string(),
        })
    }

    /// Ends the current thread.
    pub fn halt(&mut self) -> StmtRef {
        self.push(Stmt::Halt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::build as e;

    #[test]
    fn builds_nested_structure() {
        let mut pb = ProgramBuilder::new("t");
        let g = pb.global("g", Value::Int(0));
        let f = pb.declare("f", 1);
        pb.body(f, |b| {
            let v = b.local();
            b.assign(v, e::add(e::var(b.param(0)), e::int(1)));
            b.if_else(
                e::gt(e::var(v), e::int(10)),
                |b| {
                    b.set_global(g, e::var(v));
                },
                |b| {
                    b.log(Level::Info, "small value {}", vec![e::var(v)]);
                },
            );
        });
        let p = pb.finish().unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].locals, 2);
        assert!(p.func_named("f").is_some());
        // Entry block + then + else.
        assert_eq!(p.blocks.len(), 3);
    }

    #[test]
    fn fault_sites_record_location() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("write", 0);
        pb.body(f, |b| {
            b.try_catch(
                |b| {
                    b.external("disk.write", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "write failed", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        assert_eq!(p.sites.len(), 1);
        let site = &p.sites[0];
        assert_eq!(site.kind, SiteKind::External);
        assert_eq!(p.func_of_stmt(site.stmt), FuncId(0));
        assert!(matches!(p.stmt(site.stmt), Stmt::External { .. }));
    }

    #[test]
    fn undefined_function_rejected() {
        let mut pb = ProgramBuilder::new("t");
        pb.declare("ghost", 0);
        assert!(matches!(pb.finish(), Err(IrError::UndefinedFunction(_))));
    }

    #[test]
    fn template_arity_validated() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            // Template has one hole but zero args are supplied.
            let template = b.pb.intern_template("value {}");
            b.push(Stmt::Log {
                level: Level::Info,
                template,
                args: vec![],
                attach_stack: false,
            });
        });
        assert!(matches!(
            pb.finish(),
            Err(IrError::TemplateArityMismatch { .. })
        ));
    }

    #[test]
    fn builtin_templates_present() {
        let pb = ProgramBuilder::new("t");
        let mut pb = pb;
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.halt();
        });
        let p = pb.finish().unwrap();
        assert!(p.templates[TMPL_UNCAUGHT.index()]
            .text
            .contains("Uncaught exception"));
        assert!(p.templates[TMPL_ABORT.index()].text.contains("ABORT"));
    }

    #[test]
    fn unsignaled_cond_linted() {
        let mut pb = ProgramBuilder::new("t");
        let ready = pb.cond("ready");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.wait_cond(ready, Some(e::int(10)), None);
        });
        let warnings = pb.finish().unwrap().lints(&[]);
        assert_eq!(warnings.len(), 1);
        let crate::program::LintWarning::UnsignaledCond { name, .. } = &warnings[0] else {
            panic!("expected UnsignaledCond, got {:?}", warnings[0]);
        };
        assert_eq!(name, "ready");
    }

    #[test]
    fn signaled_cond_not_linted() {
        let mut pb = ProgramBuilder::new("t");
        let ready = pb.cond("ready");
        let f = pb.declare("waiter", 0);
        let g = pb.declare("signaler", 0);
        pb.body(f, |b| {
            b.wait_cond(ready, None, None);
        });
        pb.body(g, |b| {
            b.signal(ready);
        });
        assert!(pb.finish().unwrap().lints(&[]).is_empty());
    }

    #[test]
    fn duplicate_body_panics() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.halt();
        });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pb.body(f, |b| {
                b.halt();
            });
        }));
        assert!(result.is_err());
    }
}
