//! Interprocedural exception analysis (§4.1, "Exception Analysis").
//!
//! For every function this computes which exception types can *escape* it
//! and through which local statements, propagating summaries over the call
//! graph. Cross-thread propagation through future semantics is modelled: a
//! task submitted to an executor that can fail makes the corresponding
//! `Await` a thrower of `ExecutionException` wrapping the task's own
//! exceptions — the paper's motivating case for analysing "the inner
//! scheduled code".
//!
//! A function's summary reads the summaries of the functions it calls and
//! of the tasks it submits, so the call graph's components are visited
//! callees first: a function outside a cycle is walked once, with every
//! summary it reads final, and only the members of a cycle are iterated
//! (from the empty set, so they reach the same least fixpoint a
//! whole-program iteration would).

use std::collections::BTreeSet;

use anduril_ir::{
    BlockId, BlockRole, ExceptionPattern, ExceptionType, FuncId, Program, SiteId, Stmt, StmtRef,
    VarId,
};

use crate::callgraph::CallGraph;

/// How a statement can raise an exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThrowKind {
    /// A fault site (external call or `throw new`) raising it directly.
    Site(SiteId),
    /// A call to an internal function from which the exception propagates.
    Call(FuncId),
    /// An `Await` whose linked tasks can fail (the raised type is
    /// [`ExceptionType::Execution`] wrapping the task's exception).
    AwaitTask(Vec<FuncId>),
    /// An environmental timeout (`Recv` / `Await` with a timeout).
    Env,
}

/// One statement that can raise a given exception type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrowPoint {
    /// The raising statement.
    pub stmt: StmtRef,
    /// The exception type raised *at this statement* (for `AwaitTask` this
    /// is `Execution`, not the wrapped type).
    pub ty: ExceptionType,
    /// How the statement raises it.
    pub kind: ThrowKind,
}

/// A set of exception types: bit `t as u16` for type `t`, so iteration is
/// in declaration order — the order of a `BTreeSet<ExceptionType>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct TypeSet(u16);

impl TypeSet {
    const ALL: TypeSet = TypeSet((1 << ExceptionType::ALL.len()) - 1);

    fn of(ty: ExceptionType) -> TypeSet {
        TypeSet(1 << ty as u16)
    }

    fn of_pattern(pattern: &ExceptionPattern) -> TypeSet {
        match pattern {
            ExceptionPattern::Any => TypeSet::ALL,
            ExceptionPattern::Only(t) => TypeSet::of(*t),
            ExceptionPattern::OneOf(ts) => ts
                .iter()
                .fold(TypeSet::default(), |s, t| s | TypeSet::of(*t)),
        }
    }

    fn contains(self, ty: ExceptionType) -> bool {
        self.0 & TypeSet::of(ty).0 != 0
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    fn without(self, o: TypeSet) -> TypeSet {
        TypeSet(self.0 & !o.0)
    }

    fn iter(self) -> impl Iterator<Item = ExceptionType> {
        ExceptionType::ALL
            .into_iter()
            .filter(move |t| self.contains(*t))
    }
}

impl std::ops::BitOr for TypeSet {
    type Output = TypeSet;
    fn bitor(self, o: TypeSet) -> TypeSet {
        TypeSet(self.0 | o.0)
    }
}

impl std::ops::BitAnd for TypeSet {
    type Output = TypeSet;
    fn bitand(self, o: TypeSet) -> TypeSet {
        TypeSet(self.0 & o.0)
    }
}

/// Per-program exception summaries.
#[derive(Debug)]
pub struct ExcAnalysis {
    /// Types that can escape each function.
    pub escapes: Vec<BTreeSet<ExceptionType>>,
    /// Local statements through which exceptions escape each function.
    pub escape_points: Vec<Vec<ThrowPoint>>,
    /// `escapes` as the analysis itself reads it.
    escape_sets: Vec<TypeSet>,
    /// Per function, the task functions whose `Submit` stores into each
    /// future-holding local.
    futures: Vec<Vec<(VarId, Vec<FuncId>)>>,
}

/// Computes exception summaries for a program.
pub fn analyze(program: &Program) -> ExcAnalysis {
    analyze_over(program, &CallGraph::build(program))
}

/// [`analyze`] over a call graph the caller already has.
pub fn analyze_over(program: &Program, calls: &CallGraph) -> ExcAnalysis {
    let n = program.funcs.len();
    let mut a = ExcAnalysis {
        escapes: Vec::new(),
        escape_points: vec![Vec::new(); n],
        escape_sets: vec![TypeSet::default(); n],
        futures: collect_future_tasks(program),
    };
    // The invocation edges cover every summary a function reads: a `Call`'s
    // callee, and an `Await`'s tasks through the `Submit`s that name them.
    let sccs = &calls.sccs;
    for component in sccs.callees_first() {
        if sccs.cyclic[component[0] as usize] {
            loop {
                let mut changed = false;
                for &f in component {
                    let mut esc = TypeSet::default();
                    let entry = program.funcs[f as usize].entry;
                    walk(
                        program,
                        entry,
                        TypeSet::default(),
                        &mut |sref, stmt, caught| {
                            esc = esc | a.raised(program, sref, stmt, FuncId(f)).without(caught);
                        },
                    );
                    changed |= esc != a.escape_sets[f as usize];
                    a.escape_sets[f as usize] = esc;
                }
                if !changed {
                    break;
                }
            }
        }
        // Escape points under the component's final summaries; outside a
        // cycle this one walk is also what computes the function's own.
        for &f in component {
            let func = FuncId(f);
            let points = a.points_reaching(
                program,
                program.funcs[f as usize].entry,
                func,
                &ExceptionPattern::Any,
            );
            a.escape_sets[f as usize] = points
                .iter()
                .fold(TypeSet::default(), |s, p| s | TypeSet::of(p.ty));
            a.escape_points[f as usize] = points;
        }
    }
    a.escapes = a.escape_sets.iter().map(|s| s.iter().collect()).collect();
    a
}

impl ExcAnalysis {
    /// The task functions whose `Submit` stores into future-holding local
    /// `var` of `func` (intra-procedural, which matches how our targets use
    /// futures), in statement order.
    pub fn future_tasks(&self, func: FuncId, var: VarId) -> &[FuncId] {
        self.futures[func.index()]
            .iter()
            .find(|(v, _)| *v == var)
            .map_or(&[], |(_, tasks)| tasks)
    }

    /// Statements within `block`'s subtree whose exceptions of a type
    /// matching `pattern` can reach a handler attached *around* that block
    /// (i.e. they are not caught by any `try` nested inside it).
    ///
    /// For a function's entry block and `ExceptionPattern::Only(ty)` this
    /// is `escape_points[func]` filtered by `ty`: nothing re-walks a callee.
    pub fn points_reaching(
        &self,
        program: &Program,
        block: BlockId,
        func: FuncId,
        pattern: &ExceptionPattern,
    ) -> Vec<ThrowPoint> {
        let wanted = TypeSet::of_pattern(pattern);
        let mut points = Vec::new();
        walk(
            program,
            block,
            TypeSet::default(),
            &mut |sref, stmt, caught| {
                let live = self.raised(program, sref, stmt, func) & wanted.without(caught);
                if !live.is_empty() {
                    self.push_points(program, sref, stmt, func, live, &mut points);
                }
            },
        );
        points
    }

    /// The linked tasks of an `Await` that can fail.
    fn failing_tasks(&self, func: FuncId, future: VarId) -> impl Iterator<Item = FuncId> + '_ {
        self.future_tasks(func, future)
            .iter()
            .copied()
            .filter(|g| !self.escape_sets[g.index()].is_empty())
    }

    /// Raw exception types a single statement can raise (before any handler
    /// filtering).
    fn raised(&self, program: &Program, sref: StmtRef, stmt: &Stmt, func: FuncId) -> TypeSet {
        let timeout = |t: &Option<_>| match t {
            Some(_) => TypeSet::of(ExceptionType::Timeout),
            None => TypeSet::default(),
        };
        match stmt {
            Stmt::External { site } => program.sites[site.index()]
                .exceptions
                .iter()
                .fold(TypeSet::default(), |s, t| s | TypeSet::of(*t)),
            Stmt::ThrowNew { site } => TypeSet::of(program.sites[site.index()].exceptions[0]),
            Stmt::Call { func: callee, .. } => self.escape_sets[callee.index()],
            Stmt::Await {
                future, timeout: t, ..
            } => {
                let failing = match self.failing_tasks(func, *future).next() {
                    Some(_) => TypeSet::of(ExceptionType::Execution),
                    None => TypeSet::default(),
                };
                failing | timeout(t)
            }
            Stmt::Recv { timeout: t, .. } => timeout(t),
            // `Rethrow` re-raises whatever the enclosing handler caught;
            // the conservative approximation (sound for our targets) is
            // every type its innermost enclosing handler can catch.
            Stmt::Rethrow => enclosing_handler_pattern(program, sref)
                .map_or(TypeSet::default(), TypeSet::of_pattern),
            _ => TypeSet::default(),
        }
    }

    /// One [`ThrowPoint`] per `(type, kind)` the statement raises with the
    /// type in `live`, in the statement's own order: declared order for a
    /// site, declaration order of the types for a call, `Execution` before
    /// `Timeout` for an await, the pattern's order for a rethrow.
    fn push_points(
        &self,
        program: &Program,
        sref: StmtRef,
        stmt: &Stmt,
        func: FuncId,
        live: TypeSet,
        out: &mut Vec<ThrowPoint>,
    ) {
        let mut push = |ty: ExceptionType, kind: ThrowKind| {
            if live.contains(ty) {
                out.push(ThrowPoint {
                    stmt: sref,
                    ty,
                    kind,
                });
            }
        };
        match stmt {
            Stmt::External { site } => {
                for &ty in &program.sites[site.index()].exceptions {
                    push(ty, ThrowKind::Site(*site));
                }
            }
            Stmt::ThrowNew { site } => {
                push(
                    program.sites[site.index()].exceptions[0],
                    ThrowKind::Site(*site),
                );
            }
            Stmt::Call { func: callee, .. } => {
                for ty in self.escape_sets[callee.index()].iter() {
                    push(ty, ThrowKind::Call(*callee));
                }
            }
            Stmt::Await { future, .. } => {
                if live.contains(ExceptionType::Execution) {
                    let failing = self.failing_tasks(func, *future).collect();
                    push(ExceptionType::Execution, ThrowKind::AwaitTask(failing));
                }
                push(ExceptionType::Timeout, ThrowKind::Env);
            }
            Stmt::Recv { .. } => push(ExceptionType::Timeout, ThrowKind::Env),
            Stmt::Rethrow => {
                if let Some(pattern) = enclosing_handler_pattern(program, sref) {
                    for ty in pattern.types() {
                        push(ty, ThrowKind::Env);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Visits every statement of `block`'s subtree with the types the `try`s
/// between it and `block` catch.
fn walk(
    program: &Program,
    block: BlockId,
    caught: TypeSet,
    visit: &mut impl FnMut(StmtRef, &Stmt, TypeSet),
) {
    for (idx, stmt) in program.blocks[block.index()].iter().enumerate() {
        visit(StmtRef::new(block, idx as u32), stmt, caught);
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                walk(program, *then_blk, caught, visit);
                if let Some(e) = else_blk {
                    walk(program, *e, caught, visit);
                }
            }
            Stmt::While { body, .. } => walk(program, *body, caught, visit),
            Stmt::Try {
                body,
                handlers,
                finally,
            } => {
                let inner = handlers
                    .iter()
                    .fold(caught, |s, h| s | TypeSet::of_pattern(&h.pattern));
                walk(program, *body, inner, visit);
                for h in handlers {
                    walk(program, h.block, caught, visit);
                }
                if let Some(f) = finally {
                    walk(program, *f, caught, visit);
                }
            }
            _ => {}
        }
    }
}

/// Maps each future-holding local to the task functions whose `Submit`
/// stores into it, per owning function.
fn collect_future_tasks(program: &Program) -> Vec<Vec<(VarId, Vec<FuncId>)>> {
    let mut futures: Vec<Vec<(VarId, Vec<FuncId>)>> = vec![Vec::new(); program.funcs.len()];
    for (b, stmts) in program.blocks.iter().enumerate() {
        for stmt in stmts {
            if let Stmt::Submit {
                func,
                future: Some(var),
                ..
            } = stmt
            {
                let of_owner = &mut futures[program.func_of_block(BlockId(b as u32)).index()];
                match of_owner.iter_mut().find(|(v, _)| v == var) {
                    Some((_, tasks)) => tasks.push(*func),
                    None => of_owner.push((*var, vec![*func])),
                }
            }
        }
    }
    futures
}

/// Finds the pattern of the innermost handler block enclosing a statement.
fn enclosing_handler_pattern(program: &Program, sref: StmtRef) -> Option<&ExceptionPattern> {
    let mut block = sref.block;
    loop {
        let parent = program.block_parent(block);
        match (parent.stmt, parent.role) {
            (Some(owner), BlockRole::Handler(i)) => {
                if let Stmt::Try { handlers, .. } = program.stmt(owner) {
                    return Some(&handlers[i as usize].pattern);
                }
                return None;
            }
            (Some(owner), _) => block = owner.block,
            (None, _) => return None,
        }
    }
}

/// The analysis as it was first written, kept as the reference
/// [`analyze`] and [`ExcAnalysis::points_reaching`] are compared against:
/// one fixpoint over the whole program that recomputes every function's
/// escape set on every pass, over `BTreeSet`s, with the handlers between a
/// statement and the function boundary as a list of patterns.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeSet, HashMap};

    use super::{enclosing_handler_pattern, ThrowKind, ThrowPoint};
    use anduril_ir::{
        BlockId, ExceptionPattern, ExceptionType, FuncId, Program, Stmt, StmtRef, VarId,
    };

    pub(super) struct Reference {
        pub(super) escapes: Vec<BTreeSet<ExceptionType>>,
        pub(super) escape_points: Vec<Vec<ThrowPoint>>,
        future_tasks: HashMap<(FuncId, VarId), Vec<FuncId>>,
    }

    pub(super) fn analyze(program: &Program) -> Reference {
        let n = program.funcs.len();
        let mut r = Reference {
            escapes: vec![BTreeSet::new(); n],
            escape_points: Vec::new(),
            future_tasks: collect_future_tasks(program),
        };
        let escape_points = |r: &Reference, f: usize| {
            r.points_reaching(
                program,
                program.funcs[f].entry,
                FuncId(f as u32),
                &ExceptionPattern::Any,
            )
        };
        // Fixpoint on escape sets: what escapes a function is the types of
        // its escape points.
        loop {
            let mut changed = false;
            for f in 0..n {
                let esc: BTreeSet<ExceptionType> =
                    escape_points(&r, f).iter().map(|p| p.ty).collect();
                if esc != r.escapes[f] {
                    r.escapes[f] = esc;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        r.escape_points = (0..n).map(|f| escape_points(&r, f)).collect();
        r
    }

    impl Reference {
        pub(super) fn points_reaching(
            &self,
            program: &Program,
            block: BlockId,
            func: FuncId,
            pattern: &ExceptionPattern,
        ) -> Vec<ThrowPoint> {
            let mut points = Vec::new();
            collect_points(
                program,
                block,
                &[],
                &self.escapes,
                &self.future_tasks,
                func,
                pattern,
                &mut points,
            );
            points
        }
    }

    /// Maps each future-holding local to the task functions whose `Submit`
    /// stores into it (intra-procedural, which matches how our targets use
    /// futures).
    fn collect_future_tasks(program: &Program) -> HashMap<(FuncId, VarId), Vec<FuncId>> {
        let mut map: HashMap<(FuncId, VarId), Vec<FuncId>> = HashMap::new();
        for (sref, stmt) in program.all_stmts() {
            if let Stmt::Submit {
                func,
                future: Some(var),
                ..
            } = stmt
            {
                let owner = program.func_of_stmt(sref);
                map.entry((owner, *var)).or_default().push(*func);
            }
        }
        map
    }

    /// Raw exception types a single statement can raise (before any handler
    /// filtering), as `(type, kind)` pairs.
    fn stmt_raises(
        program: &Program,
        sref: StmtRef,
        stmt: &Stmt,
        escapes: &[BTreeSet<ExceptionType>],
        future_tasks: &HashMap<(FuncId, VarId), Vec<FuncId>>,
        func: FuncId,
    ) -> Vec<(ExceptionType, ThrowKind)> {
        match stmt {
            Stmt::External { site } => program.sites[site.index()]
                .exceptions
                .iter()
                .map(|t| (*t, ThrowKind::Site(*site)))
                .collect(),
            Stmt::ThrowNew { site } => {
                let ty = program.sites[site.index()].exceptions[0];
                vec![(ty, ThrowKind::Site(*site))]
            }
            Stmt::Call { func: callee, .. } => escapes[callee.index()]
                .iter()
                .map(|t| (*t, ThrowKind::Call(*callee)))
                .collect(),
            Stmt::Await {
                future, timeout, ..
            } => {
                let mut out = Vec::new();
                let tasks: Vec<FuncId> = future_tasks
                    .get(&(func, *future))
                    .cloned()
                    .unwrap_or_default();
                let failing: Vec<FuncId> = tasks
                    .into_iter()
                    .filter(|g| !escapes[g.index()].is_empty())
                    .collect();
                if !failing.is_empty() {
                    out.push((ExceptionType::Execution, ThrowKind::AwaitTask(failing)));
                }
                if timeout.is_some() {
                    out.push((ExceptionType::Timeout, ThrowKind::Env));
                }
                out
            }
            Stmt::Recv { timeout, .. } => {
                if timeout.is_some() {
                    vec![(ExceptionType::Timeout, ThrowKind::Env)]
                } else {
                    Vec::new()
                }
            }
            // `Rethrow` re-raises whatever the enclosing handler caught; the
            // conservative approximation is the handler's own pattern, handled
            // by the caller via handler-context tracking. To stay simple (and
            // sound for our targets) treat it as raising every type its
            // innermost enclosing handler can catch.
            Stmt::Rethrow => {
                let mut out = Vec::new();
                if let Some(pattern) = enclosing_handler_pattern(program, sref) {
                    for ty in pattern.types() {
                        out.push((ty, ThrowKind::Env));
                    }
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// Collects the throw points within `block`'s subtree whose types match
    /// `pattern` and escape the subtree (are not caught by nested handlers).
    #[allow(clippy::too_many_arguments)]
    fn collect_points(
        program: &Program,
        block: BlockId,
        protection: &[&ExceptionPattern],
        escapes: &[BTreeSet<ExceptionType>],
        future_tasks: &HashMap<(FuncId, VarId), Vec<FuncId>>,
        func: FuncId,
        pattern: &ExceptionPattern,
        out: &mut Vec<ThrowPoint>,
    ) {
        for (idx, stmt) in program.blocks[block.index()].iter().enumerate() {
            let sref = StmtRef::new(block, idx as u32);
            for (ty, kind) in stmt_raises(program, sref, stmt, escapes, future_tasks, func) {
                if pattern.matches(ty) && !protection.iter().any(|p| p.matches(ty)) {
                    out.push(ThrowPoint {
                        stmt: sref,
                        ty,
                        kind,
                    });
                }
            }
            match stmt {
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    collect_points(
                        program,
                        *then_blk,
                        protection,
                        escapes,
                        future_tasks,
                        func,
                        pattern,
                        out,
                    );
                    if let Some(e) = else_blk {
                        collect_points(
                            program,
                            *e,
                            protection,
                            escapes,
                            future_tasks,
                            func,
                            pattern,
                            out,
                        );
                    }
                }
                Stmt::While { body, .. } => {
                    collect_points(
                        program,
                        *body,
                        protection,
                        escapes,
                        future_tasks,
                        func,
                        pattern,
                        out,
                    );
                }
                Stmt::Try {
                    body,
                    handlers,
                    finally,
                } => {
                    let mut inner: Vec<&ExceptionPattern> = protection.to_vec();
                    for h in handlers {
                        inner.push(&h.pattern);
                    }
                    collect_points(
                        program,
                        *body,
                        &inner,
                        escapes,
                        future_tasks,
                        func,
                        pattern,
                        out,
                    );
                    for h in handlers {
                        collect_points(
                            program,
                            h.block,
                            protection,
                            escapes,
                            future_tasks,
                            func,
                            pattern,
                            out,
                        );
                    }
                    if let Some(f) = finally {
                        collect_points(
                            program,
                            *f,
                            protection,
                            escapes,
                            future_tasks,
                            func,
                            pattern,
                            out,
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::builder::ProgramBuilder;
    use anduril_ir::{expr::build as e, Level};

    #[test]
    fn direct_external_escapes() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.external("io.op", &[ExceptionType::Io, ExceptionType::Socket]);
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[0].contains(&ExceptionType::Io));
        assert!(a.escapes[0].contains(&ExceptionType::Socket));
        assert_eq!(a.escape_points[0].len(), 2);
    }

    #[test]
    fn caught_exceptions_do_not_escape() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.try_catch(
                |b| {
                    b.external("io.op", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "handled", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[0].is_empty());
    }

    #[test]
    fn propagation_through_calls_fixpoint() {
        let mut pb = ProgramBuilder::new("t");
        let leaf = pb.declare("leaf", 0);
        let mid = pb.declare("mid", 0);
        let top = pb.declare("top", 0);
        pb.body(leaf, |b| {
            b.external("io.op", &[ExceptionType::Io]);
        });
        pb.body(mid, |b| {
            b.call(leaf, vec![]);
        });
        pb.body(top, |b| {
            b.try_catch(
                |b| {
                    b.call(mid, vec![]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "caught", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[leaf.index()].contains(&ExceptionType::Io));
        assert!(a.escapes[mid.index()].contains(&ExceptionType::Io));
        assert!(a.escapes[top.index()].is_empty());
        // mid's escape point is the Call statement, attributed to `leaf`.
        assert!(matches!(
            a.escape_points[mid.index()][0].kind,
            ThrowKind::Call(f) if f == leaf
        ));
    }

    #[test]
    fn await_wraps_task_exceptions_in_execution() {
        let mut pb = ProgramBuilder::new("t");
        let exec = pb.executor("pool");
        let task = pb.declare("task", 0);
        let main = pb.declare("main", 0);
        pb.body(task, |b| {
            b.external("hdfs.write", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            let f = b.local();
            b.submit(exec, task, vec![], f);
            b.await_(f, None, None);
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[main.index()].contains(&ExceptionType::Execution));
        assert!(!a.escapes[main.index()].contains(&ExceptionType::Io));
        let point = a.escape_points[main.index()]
            .iter()
            .find(|p| p.ty == ExceptionType::Execution)
            .expect("await point");
        assert!(matches!(&point.kind, ThrowKind::AwaitTask(ts) if ts.contains(&task)));
    }

    #[test]
    fn recursion_terminates() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.if_(e::gt(e::rand(0, 10), e::int(5)), |b| {
                b.call(f, vec![]);
            });
            b.external("io.op", &[ExceptionType::Io]);
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[0].contains(&ExceptionType::Io));
    }

    #[test]
    fn points_reaching_respects_nested_handlers() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.try_catch(
                |b| {
                    // Inner try catches Io; only Socket reaches the outer
                    // handler.
                    b.try_catch(
                        |b| {
                            b.external("a", &[ExceptionType::Io]);
                        },
                        ExceptionType::Io,
                        |b| {
                            b.log(Level::Warn, "inner", vec![]);
                        },
                    );
                    b.external("b", &[ExceptionType::Socket]);
                },
                ExceptionPattern::Any,
                |b| {
                    b.log(Level::Warn, "outer", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        // The outer try body is block of the first Try stmt.
        let (try_ref, _) = p
            .all_stmts()
            .find(|(_, s)| matches!(s, Stmt::Try { .. }))
            .unwrap();
        let Stmt::Try { body, .. } = p.stmt(try_ref) else {
            unreachable!()
        };
        let pts = a.points_reaching(&p, *body, f, &ExceptionPattern::Any);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].ty, ExceptionType::Socket);
    }

    #[test]
    fn points_reaching_surfaces_task_exception_at_await() {
        // The exception is raised on the executor thread inside `task`, but
        // a handler around the `Await` in `main` must see the Await as a
        // throw point of Execution type linked back to the task.
        let mut pb = ProgramBuilder::new("t");
        let exec = pb.executor("pool");
        let task = pb.declare("task", 0);
        let main = pb.declare("main", 0);
        pb.body(task, |b| {
            b.external("wal.sync", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            b.try_catch(
                |b| {
                    let f = b.local();
                    b.submit(exec, task, vec![], f);
                    b.await_(f, None, None);
                },
                ExceptionType::Execution,
                |b| {
                    b.log(Level::Warn, "sync task failed", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        let (try_ref, _) = p
            .all_stmts()
            .find(|(_, s)| matches!(s, Stmt::Try { .. }))
            .unwrap();
        let Stmt::Try { body, .. } = p.stmt(try_ref) else {
            unreachable!()
        };
        let pts = a.points_reaching(&p, *body, main, &ExceptionPattern::Any);
        let await_pt = pts
            .iter()
            .find(|pt| pt.ty == ExceptionType::Execution)
            .expect("await is a throw point");
        assert!(matches!(p.stmt(await_pt.stmt), Stmt::Await { .. }));
        assert!(matches!(&await_pt.kind, ThrowKind::AwaitTask(ts) if ts == &vec![task]));
        // The Io type itself does not cross the future boundary unwrapped.
        assert!(!pts.iter().any(|pt| pt.ty == ExceptionType::Io));
    }

    #[test]
    fn nested_submit_chains_propagate_execution_across_two_hops() {
        // inner fails with Io -> middle awaits it and escapes with
        // Execution -> outer awaits middle and escapes with Execution.
        // Each hop re-wraps: the outer Await's linked task is `middle`,
        // not `inner`.
        let mut pb = ProgramBuilder::new("t");
        let exec = pb.executor("pool");
        let inner = pb.declare("inner", 0);
        let middle = pb.declare("middle", 0);
        let outer = pb.declare("outer", 0);
        pb.body(inner, |b| {
            b.external("disk.flush", &[ExceptionType::Io]);
        });
        pb.body(middle, |b| {
            let f = b.local();
            b.submit(exec, inner, vec![], f);
            b.await_(f, None, None);
        });
        pb.body(outer, |b| {
            let f = b.local();
            b.submit(exec, middle, vec![], f);
            b.await_(f, None, None);
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[middle.index()].contains(&ExceptionType::Execution));
        assert!(a.escapes[outer.index()].contains(&ExceptionType::Execution));
        assert!(!a.escapes[outer.index()].contains(&ExceptionType::Io));
        let outer_pt = a.escape_points[outer.index()]
            .iter()
            .find(|pt| pt.ty == ExceptionType::Execution)
            .expect("outer escapes through its await");
        assert!(matches!(&outer_pt.kind, ThrowKind::AwaitTask(ts) if ts == &vec![middle]));
        let middle_pt = a.escape_points[middle.index()]
            .iter()
            .find(|pt| pt.ty == ExceptionType::Execution)
            .expect("middle escapes through its await");
        assert!(matches!(&middle_pt.kind, ThrowKind::AwaitTask(ts) if ts == &vec![inner]));
    }

    #[test]
    fn caught_task_exception_does_not_escape_submitter() {
        let mut pb = ProgramBuilder::new("t");
        let exec = pb.executor("pool");
        let task = pb.declare("task", 0);
        let main = pb.declare("main", 0);
        pb.body(task, |b| {
            b.external("io.op", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            b.try_catch(
                |b| {
                    let f = b.local();
                    b.submit(exec, task, vec![], f);
                    b.await_(f, None, None);
                },
                ExceptionType::Execution,
                |b| {
                    b.log(Level::Warn, "handled", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let a = analyze(&p);
        assert!(a.escapes[main.index()].is_empty());
        // The task itself still escapes Io on its own thread.
        assert!(a.escapes[task.index()].contains(&ExceptionType::Io));
    }

    #[test]
    fn type_set_bits_follow_declaration_order() {
        for (i, ty) in ExceptionType::ALL.into_iter().enumerate() {
            assert_eq!(ty as usize, i);
        }
        let all: Vec<_> = TypeSet::ALL.iter().collect();
        assert_eq!(all, ExceptionType::ALL);
        assert_eq!(all, ExceptionPattern::Any.types());
    }

    /// Component order against the whole-program fixpoint, on call graphs
    /// the tickets do not have.
    #[test]
    fn summaries_equal_the_whole_program_fixpoint() {
        use crate::test_programs::{build, shapes, Rng};
        for shape in shapes() {
            let (mut escaping, mut handlers) = (0, 0);
            for seed in 0..64 {
                let (p, _) = build(&shape, &mut Rng(seed));
                let fast = analyze(&p);
                let slow = reference::analyze(&p);
                let at = format!("{} seed {seed}", shape.name);
                assert_eq!(fast.escapes, slow.escapes, "{at}");
                assert_eq!(fast.escape_points, slow.escape_points, "{at}");
                escaping += fast.escapes.iter().filter(|e| !e.is_empty()).count();
                for (sref, stmt) in p.all_stmts() {
                    let Stmt::Try {
                        body, handlers: hs, ..
                    } = stmt
                    else {
                        continue;
                    };
                    let func = p.func_of_stmt(sref);
                    for pattern in hs
                        .iter()
                        .map(|h| &h.pattern)
                        .chain([&ExceptionPattern::Any])
                    {
                        assert_eq!(
                            fast.points_reaching(&p, *body, func, pattern),
                            slow.points_reaching(&p, *body, func, pattern),
                            "{at}: {sref} {pattern:?}"
                        );
                        handlers += 1;
                    }
                }
            }
            assert!(
                escaping > 0 && handlers > 0,
                "{}: nothing compared",
                shape.name
            );
        }
    }
}
