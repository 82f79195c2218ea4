//! The program container and structural queries used by the analyses.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::exception::ExceptionType;
use crate::ids::{BlockId, FuncId, SiteId, StmtRef, TemplateId};
use crate::log::LogTemplate;
use crate::lower::CompiledProgram;
use crate::stmt::Stmt;
use crate::value::Value;

/// Errors detected while validating a built program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A function was declared but its body was never defined.
    UndefinedFunction(String),
    /// A block is owned by more than one structural parent.
    SharedBlock(BlockId),
    /// A statement references an out-of-range id.
    DanglingReference(String),
    /// A log statement's argument count does not match its template arity.
    TemplateArityMismatch {
        /// The offending statement.
        stmt: StmtRef,
        /// The template's hole count.
        expected: usize,
        /// The number of arguments supplied.
        got: usize,
    },
    /// Two log templates share the same text, making
    /// [`Program::template_named`] (and hence observable resolution)
    /// ambiguous.
    DuplicateTemplate(String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::UndefinedFunction(name) => write!(f, "function `{name}` has no body"),
            IrError::SharedBlock(b) => write!(f, "block {b} has multiple parents"),
            IrError::DanglingReference(what) => write!(f, "dangling reference: {what}"),
            IrError::TemplateArityMismatch {
                stmt,
                expected,
                got,
            } => write!(
                f,
                "log at {stmt} supplies {got} args for a template with {expected} holes"
            ),
            IrError::DuplicateTemplate(text) => {
                write!(f, "duplicate log template `{text}`")
            }
        }
    }
}

/// A non-fatal issue found while linting a built program.
///
/// Warnings are advisory: the program is still executable, but the flagged
/// construct usually indicates a target-modelling mistake (e.g. a
/// condition-variable wait that can only ever time out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintWarning {
    /// A condition variable is waited on but no statement ever signals it,
    /// so every [`Stmt::WaitCond`] on it either blocks forever or times
    /// out.
    UnsignaledCond {
        /// The offending condition variable.
        cond: crate::ids::CondId,
        /// Its declared name.
        name: String,
    },
    /// A condition variable is signaled but no statement ever waits on it,
    /// so every [`Stmt::SignalCond`] is a no-op.
    UnwaitedCond {
        /// The offending condition variable.
        cond: crate::ids::CondId,
        /// Its declared name.
        name: String,
    },
    /// A channel is sent to but no statement ever receives from it, so
    /// every [`Stmt::Send`] queues a message nobody consumes.
    UnreceivedChan {
        /// The offending channel.
        chan: crate::ids::ChanId,
        /// Its declared name.
        name: String,
    },
    /// A channel is received from but no statement ever sends to it, so
    /// every [`Stmt::Recv`] either blocks forever or times out.
    UnsentChan {
        /// The offending channel.
        chan: crate::ids::ChanId,
        /// Its declared name.
        name: String,
    },
    /// An [`Stmt::Await`] whose future variable is never written in the
    /// function (and is not a parameter), so the await always sees a
    /// non-future value.
    UnsubmittedAwait {
        /// Name of the containing function.
        func: String,
        /// The await statement.
        at: StmtRef,
    },
    /// A global variable is written but never read by any expression (or
    /// queue pop). Meta-info globals are exempt: the CrashTuner baseline
    /// and the oracle read them out of band.
    UnreadGlobal {
        /// The offending global.
        global: crate::ids::GlobalId,
        /// Its declared name.
        name: String,
    },
    /// A fault site the occurrence-bounds analysis proves can never
    /// execute (`hi == 0`) under the analyzed workload roots; injecting
    /// into it can never do anything.
    DeadSite {
        /// The offending fault site.
        site: SiteId,
        /// Its human-readable description.
        desc: String,
    },
}

impl std::fmt::Display for LintWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintWarning::UnsignaledCond { cond, name } => write!(
                f,
                "condition variable `{name}` ({cond}) is waited on but never signaled"
            ),
            LintWarning::UnwaitedCond { cond, name } => write!(
                f,
                "condition variable `{name}` ({cond}) is signaled but never waited on"
            ),
            LintWarning::UnreceivedChan { chan, name } => write!(
                f,
                "channel `{name}` ({chan}) is sent to but never received from"
            ),
            LintWarning::UnsentChan { chan, name } => write!(
                f,
                "channel `{name}` ({chan}) is received from but never sent to"
            ),
            LintWarning::UnsubmittedAwait { func, at } => write!(
                f,
                "await at {at} in `{func}` on a future that is never produced"
            ),
            LintWarning::UnreadGlobal { global, name } => {
                write!(f, "global `{name}` ({global}) is written but never read")
            }
            LintWarning::DeadSite { site, desc } => write!(
                f,
                "fault site `{desc}` ({site}) is statically dead (bound hi = 0)"
            ),
        }
    }
}

impl std::error::Error for IrError {}

/// The structural role a block plays under its parent statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Function entry block (no parent statement).
    Entry,
    /// `then` branch of an [`Stmt::If`].
    Then,
    /// `else` branch of an [`Stmt::If`].
    Else,
    /// Body of a [`Stmt::While`].
    LoopBody,
    /// Protected body of a [`Stmt::Try`].
    TryBody,
    /// The `i`-th catch clause of a [`Stmt::Try`].
    Handler(u32),
    /// Finally block of a [`Stmt::Try`].
    Finally,
}

/// Where a block sits in the program structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParent {
    /// The owning statement, or `None` for a function entry block.
    pub stmt: Option<StmtRef>,
    /// The block's role under that statement.
    pub role: BlockRole,
    /// The function the block belongs to.
    pub func: FuncId,
}

/// How a fault site can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// An external library / OS / RPC call ([`Stmt::External`]); in the
    /// paper's taxonomy an *external-exception* source node.
    External,
    /// A `throw new` in internal code ([`Stmt::ThrowNew`]); a
    /// *new-exception* source node.
    ThrowNew,
}

/// Static metadata for one fault site.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSite {
    /// This site's id (its index in [`Program::sites`]).
    pub id: SiteId,
    /// Whether the site is an external call or a `throw new`.
    pub kind: SiteKind,
    /// The function containing the site.
    pub func: FuncId,
    /// The site's statement.
    pub stmt: StmtRef,
    /// Exception types the site can throw. External sites may declare
    /// several; `throw new` sites have exactly one.
    pub exceptions: Vec<ExceptionType>,
    /// Human-readable description, e.g. `"hdfs.channelRead0"`.
    pub desc: String,
    /// Simulated latency of the call in ticks (external sites only).
    pub latency: u32,
}

/// Static metadata for one per-node global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalInfo {
    /// Variable name (unique within the program).
    pub name: String,
    /// Initial value on every node.
    pub init: Value,
    /// `true` if the variable holds node "meta-info" (membership, leader
    /// identity, epoch); used by the CrashTuner baseline.
    pub meta_info: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within the program).
    pub name: String,
    /// Number of parameters (bound to locals `0..params`).
    pub params: u32,
    /// Total number of local slots, including parameters.
    pub locals: u32,
    /// Entry block.
    pub entry: BlockId,
}

/// A complete IR program plus interned metadata tables.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program (target system) name.
    pub name: String,
    /// All functions.
    pub funcs: Vec<Function>,
    /// All statement blocks (functions reference them by id).
    pub blocks: Vec<Vec<Stmt>>,
    /// Interned log templates.
    pub templates: Vec<LogTemplate>,
    /// All static fault sites.
    pub sites: Vec<FaultSite>,
    /// Per-node global variables.
    pub globals: Vec<GlobalInfo>,
    /// Names of per-node condition variables.
    pub conds: Vec<String>,
    /// Names of per-node message channels.
    pub chans: Vec<String>,
    /// Names of per-node single-threaded executors.
    pub execs: Vec<String>,
    block_parent: Vec<BlockParent>,
    func_by_name: HashMap<String, FuncId>,
    template_by_text: HashMap<String, TemplateId>,
    compiled: OnceLock<CompiledProgram>,
    derived: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl Program {
    /// Assembles a program from its parts and computes derived tables.
    ///
    /// Intended to be called by [`crate::builder::ProgramBuilder::finish`];
    /// validates structural invariants.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        name: String,
        funcs: Vec<Function>,
        blocks: Vec<Vec<Stmt>>,
        templates: Vec<LogTemplate>,
        sites: Vec<FaultSite>,
        globals: Vec<GlobalInfo>,
        conds: Vec<String>,
        chans: Vec<String>,
        execs: Vec<String>,
    ) -> Result<Self, IrError> {
        let mut program = Program {
            name,
            funcs,
            blocks,
            templates,
            sites,
            globals,
            conds,
            chans,
            execs,
            block_parent: Vec::new(),
            func_by_name: HashMap::new(),
            template_by_text: HashMap::new(),
            compiled: OnceLock::new(),
            derived: OnceLock::new(),
        };
        program.compute_parents()?;
        program.build_indexes();
        program.validate()?;
        Ok(program)
    }

    fn compute_parents(&mut self) -> Result<(), IrError> {
        let placeholder = BlockParent {
            stmt: None,
            role: BlockRole::Entry,
            func: FuncId(u32::MAX),
        };
        let mut parents = vec![None; self.blocks.len()];
        for (fid, func) in self.funcs.iter().enumerate() {
            let fid = FuncId(fid as u32);
            if parents[func.entry.index()].is_some() {
                return Err(IrError::SharedBlock(func.entry));
            }
            parents[func.entry.index()] = Some(BlockParent {
                stmt: None,
                role: BlockRole::Entry,
                func: fid,
            });
            // Walk the block tree of this function.
            let mut stack = vec![func.entry];
            while let Some(block) = stack.pop() {
                for (idx, stmt) in self.blocks[block.index()].iter().enumerate() {
                    let sref = StmtRef::new(block, idx as u32);
                    for (child, role) in stmt.child_blocks() {
                        if parents[child.index()].is_some() {
                            return Err(IrError::SharedBlock(child));
                        }
                        parents[child.index()] = Some(BlockParent {
                            stmt: Some(sref),
                            role,
                            func: fid,
                        });
                        stack.push(child);
                    }
                }
            }
        }
        self.block_parent = parents
            .into_iter()
            .map(|p| p.unwrap_or(placeholder))
            .collect();
        Ok(())
    }

    fn build_indexes(&mut self) {
        self.func_by_name = self
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        self.template_by_text = self
            .templates
            .iter()
            .enumerate()
            .map(|(i, t)| (t.text.clone(), TemplateId(i as u32)))
            .collect();
    }

    fn validate(&self) -> Result<(), IrError> {
        let mut seen_templates = std::collections::HashSet::new();
        for t in &self.templates {
            if !seen_templates.insert(t.text.as_str()) {
                return Err(IrError::DuplicateTemplate(t.text.clone()));
            }
        }
        for (sref, stmt) in self.all_stmts() {
            if let Stmt::Log { template, args, .. } = stmt {
                let arity = self
                    .templates
                    .get(template.index())
                    .ok_or_else(|| IrError::DanglingReference(format!("template {template}")))?
                    .arity();
                if args.len() != arity {
                    return Err(IrError::TemplateArityMismatch {
                        stmt: sref,
                        expected: arity,
                        got: args.len(),
                    });
                }
            }
            if let Some(site) = stmt.site() {
                if site.index() >= self.sites.len() {
                    return Err(IrError::DanglingReference(format!("site {site}")));
                }
            }
            if let Stmt::Call { func, .. } | Stmt::Spawn { func, .. } | Stmt::Submit { func, .. } =
                stmt
            {
                if func.index() >= self.funcs.len() {
                    return Err(IrError::DanglingReference(format!("function {func}")));
                }
            }
        }
        Ok(())
    }

    /// The program lowered to the register-VM form, on first use.
    ///
    /// A derived table like the block parents, only computed late: the
    /// program is immutable once assembled, so its lowering is too, and
    /// every run of it — a search's rounds on every thread, the ground
    /// truth scan, a one-shot run — reads this one copy. A program that is
    /// built but never run (most of a generated corpus) never pays for it.
    /// Like the block parents, it describes the tables as `assemble` saw
    /// them: a program whose public tables are edited afterwards has to be
    /// built again.
    pub fn compiled(&self) -> &CompiledProgram {
        self.compiled.get_or_init(|| crate::lower::compile(self))
    }

    /// Whether [`Program::compiled`] has lowered the program yet.
    pub fn is_compiled(&self) -> bool {
        self.compiled.get().is_some()
    }

    /// The table an analysis crate derives from the program alone, built
    /// by `build` on first use and kept as long as the program: what
    /// [`Program::compiled`] is for the VM code, for a type this crate does
    /// not know (`anduril-causal` keeps its call graph, exception summaries
    /// and use-def tables here). A program holds one such table, so every
    /// caller asks for the same `T`; like the compiled form, a clone of the
    /// program carries what was derived.
    ///
    /// # Panics
    ///
    /// If the program already holds a table of another type.
    pub fn derived<T: Any + Send + Sync>(&self, build: impl FnOnce(&Program) -> T) -> &T {
        (self.derived.get_or_init(|| Arc::new(build(self))))
            .downcast_ref()
            .expect("a program holds one derived analysis type")
    }

    /// Looks up a function by name.
    pub fn func_named(&self, name: &str) -> Option<FuncId> {
        self.func_by_name.get(name).copied()
    }

    /// Looks up a template by its exact text.
    pub fn template_named(&self, text: &str) -> Option<TemplateId> {
        self.template_by_text.get(text).copied()
    }

    /// Returns the statement at a reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of range (references produced by this
    /// program's own tables are always valid).
    pub fn stmt(&self, r: StmtRef) -> &Stmt {
        &self.blocks[r.block.index()][r.idx as usize]
    }

    /// Returns the structural parent of a block.
    pub fn block_parent(&self, b: BlockId) -> BlockParent {
        self.block_parent[b.index()]
    }

    /// Returns the function that contains a block.
    pub fn func_of_block(&self, b: BlockId) -> FuncId {
        self.block_parent[b.index()].func
    }

    /// Returns the function that contains a statement.
    pub fn func_of_stmt(&self, r: StmtRef) -> FuncId {
        self.func_of_block(r.block)
    }

    /// Iterates over every statement in the program.
    pub fn all_stmts(&self) -> impl Iterator<Item = (StmtRef, &Stmt)> {
        self.blocks.iter().enumerate().flat_map(|(b, stmts)| {
            stmts
                .iter()
                .enumerate()
                .map(move |(i, s)| (StmtRef::new(BlockId(b as u32), i as u32), s))
        })
    }

    /// Total number of statements; a proxy for "lines of code" in Table 1.
    pub fn stmt_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Returns all log statements that use the given template.
    pub fn log_stmts_of_template(&self, template: TemplateId) -> Vec<StmtRef> {
        self.all_stmts()
            .filter(|(_, s)| matches!(s, Stmt::Log { template: t, .. } if *t == template))
            .map(|(r, _)| r)
            .collect()
    }

    /// Returns every `Return` statement of a function.
    ///
    /// Used by the interprocedural slicer to jump from a `Call { ret }`
    /// writer into the callee's return expressions. A function with no
    /// `Return` statements returns unit implicitly, so an empty result is
    /// normal.
    pub fn return_stmts_of(&self, func: FuncId) -> Vec<StmtRef> {
        self.all_stmts()
            .filter(|(r, s)| matches!(s, Stmt::Return { .. }) && self.func_of_stmt(*r) == func)
            .map(|(r, _)| r)
            .collect()
    }

    /// Lints the program for advisory issues (see [`LintWarning`]).
    ///
    /// Fatal structural problems (duplicate templates, dangling
    /// references) are rejected at build time; this reports the non-fatal
    /// smells on top: unpaired concurrency primitives (condition
    /// variables, channels, futures) and write-only globals.
    ///
    /// The result is deterministically ordered by the `(function, block,
    /// statement)` position of each warning's anchor statement (the first
    /// use of the unpaired primitive, in program order), so serialized
    /// reports are byte-stable across runs.
    pub fn lints(&self) -> Vec<LintWarning> {
        let mut anchored = self.syntactic_lints();
        anchored.sort_by_key(|(key, _)| *key);
        anchored.into_iter().map(|(_, w)| w).collect()
    }

    /// [`Program::lints`] plus the bounds-aware lint: fault sites the
    /// occurrence-bounds analysis proves dead (`hi == 0`).
    ///
    /// `site_hi` is the per-site static upper bound indexed by `SiteId`
    /// (`None` = unbounded), as produced by the dataflow analysis in
    /// `anduril-causal` (`OccurrenceBounds::site_his`). Ordering follows
    /// the same `(function, block, statement)` anchor rule, a dead site
    /// anchoring at its own statement.
    pub fn lints_with_bounds(&self, site_hi: &[Option<u64>]) -> Vec<LintWarning> {
        let mut anchored = self.syntactic_lints();
        for site in &self.sites {
            if site_hi.get(site.id.index()).copied() == Some(Some(0)) {
                anchored.push((
                    self.anchor_key(site.stmt),
                    LintWarning::DeadSite {
                        site: site.id,
                        desc: site.desc.clone(),
                    },
                ));
            }
        }
        anchored.sort_by_key(|(key, _)| *key);
        anchored.into_iter().map(|(_, w)| w).collect()
    }

    /// The deterministic sort key of a warning anchored at `r`.
    fn anchor_key(&self, r: StmtRef) -> (u32, u32, u32) {
        (self.func_of_stmt(r).0, r.block.0, r.idx)
    }

    /// Computes the syntactic (bounds-free) lints, each paired with its
    /// anchor key; unsorted.
    fn syntactic_lints(&self) -> Vec<((u32, u32, u32), LintWarning)> {
        use std::collections::BTreeMap;
        // First statement touching each primitive, per role.
        let mut cond_waits: BTreeMap<crate::ids::CondId, StmtRef> = BTreeMap::new();
        let mut cond_signals: BTreeMap<crate::ids::CondId, StmtRef> = BTreeMap::new();
        let mut chan_sends: BTreeMap<crate::ids::ChanId, StmtRef> = BTreeMap::new();
        let mut chan_recvs: BTreeMap<crate::ids::ChanId, StmtRef> = BTreeMap::new();
        let mut global_writes: BTreeMap<crate::ids::GlobalId, StmtRef> = BTreeMap::new();
        let mut global_reads: std::collections::BTreeSet<crate::ids::GlobalId> =
            std::collections::BTreeSet::new();
        let mut awaits: Vec<(StmtRef, crate::ids::VarId)> = Vec::new();
        // Local-variable writers per function (for the future-producer
        // check); params are implicit writers.
        let mut var_writers: std::collections::BTreeSet<(FuncId, crate::ids::VarId)> =
            std::collections::BTreeSet::new();

        fn first<K: Ord>(this: &Program, map: &mut BTreeMap<K, StmtRef>, key: K, r: StmtRef) {
            let entry = map.entry(key).or_insert(r);
            if this.anchor_key(r) < this.anchor_key(*entry) {
                *entry = r;
            }
        }
        for (r, stmt) in self.all_stmts() {
            let func = self.func_of_stmt(r);
            match stmt {
                Stmt::WaitCond { cond, .. } => first(self, &mut cond_waits, *cond, r),
                Stmt::SignalCond { cond } => first(self, &mut cond_signals, *cond, r),
                Stmt::Send { chan, .. } => first(self, &mut chan_sends, *chan, r),
                Stmt::Recv { chan, .. } => first(self, &mut chan_recvs, *chan, r),
                Stmt::SetGlobal { global, .. } | Stmt::PushBack { global, .. } => {
                    first(self, &mut global_writes, *global, r)
                }
                Stmt::PopFront { global, .. } => {
                    global_reads.insert(*global);
                }
                Stmt::Await { future, .. } => awaits.push((r, *future)),
                _ => {}
            }
            match stmt {
                Stmt::Assign { var, .. } | Stmt::PopFront { var, .. } | Stmt::Recv { var, .. } => {
                    var_writers.insert((func, *var));
                }
                Stmt::Call { ret: Some(v), .. }
                | Stmt::Submit {
                    future: Some(v), ..
                }
                | Stmt::Await { ret: Some(v), .. }
                | Stmt::WaitCond { ok: Some(v), .. } => {
                    var_writers.insert((func, *v));
                }
                Stmt::Try { handlers, .. } => {
                    for h in handlers {
                        if let Some(v) = h.bind {
                            var_writers.insert((func, v));
                        }
                    }
                }
                _ => {}
            }
            for expr in stmt.exprs() {
                let (_, globals) = expr.reads_collected();
                global_reads.extend(globals);
            }
        }

        let mut out = Vec::new();
        for (&cond, &r) in &cond_waits {
            if !cond_signals.contains_key(&cond) {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnsignaledCond {
                        cond,
                        name: self.conds[cond.index()].clone(),
                    },
                ));
            }
        }
        for (&cond, &r) in &cond_signals {
            if !cond_waits.contains_key(&cond) {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnwaitedCond {
                        cond,
                        name: self.conds[cond.index()].clone(),
                    },
                ));
            }
        }
        for (&chan, &r) in &chan_sends {
            if !chan_recvs.contains_key(&chan) {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnreceivedChan {
                        chan,
                        name: self.chans[chan.index()].clone(),
                    },
                ));
            }
        }
        for (&chan, &r) in &chan_recvs {
            if !chan_sends.contains_key(&chan) {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnsentChan {
                        chan,
                        name: self.chans[chan.index()].clone(),
                    },
                ));
            }
        }
        for (r, future) in awaits {
            let func = self.func_of_stmt(r);
            let is_param = future.0 < self.funcs[func.index()].params;
            if !is_param && !var_writers.contains(&(func, future)) {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnsubmittedAwait {
                        func: self.funcs[func.index()].name.clone(),
                        at: r,
                    },
                ));
            }
        }
        for (&global, &r) in &global_writes {
            if !global_reads.contains(&global) && !self.globals[global.index()].meta_info {
                out.push((
                    self.anchor_key(r),
                    LintWarning::UnreadGlobal {
                        global,
                        name: self.globals[global.index()].name.clone(),
                    },
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogTemplate;

    fn one_func(blocks: Vec<Vec<Stmt>>, templates: Vec<LogTemplate>) -> Result<Program, IrError> {
        Program::assemble(
            "t".into(),
            vec![Function {
                name: "f".into(),
                params: 0,
                locals: 0,
                entry: crate::ids::BlockId(0),
            }],
            blocks,
            templates,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn duplicate_templates_rejected() {
        let templates = vec![
            LogTemplate {
                text: "sync failed".into(),
            },
            LogTemplate {
                text: "sync failed".into(),
            },
        ];
        let err = one_func(vec![vec![Stmt::Halt]], templates).unwrap_err();
        assert!(matches!(err, IrError::DuplicateTemplate(t) if t == "sync failed"));
    }

    #[test]
    fn distinct_templates_accepted() {
        let templates = vec![
            LogTemplate {
                text: "sync failed".into(),
            },
            LogTemplate {
                text: "sync ok".into(),
            },
        ];
        assert!(one_func(vec![vec![Stmt::Halt]], templates).is_ok());
    }

    #[test]
    fn lint_suite_flags_each_unpaired_primitive() {
        use crate::builder::ProgramBuilder;
        use crate::expr::build as e;
        use crate::log::Level;
        let mut pb = ProgramBuilder::new("t");
        let ghost_wait = pb.cond("ghost_wait"); // waited, never signaled
        let ghost_sig = pb.cond("ghost_sig"); // signaled, never waited
        let paired = pb.cond("paired");
        let dead_letter = pb.chan("dead_letter"); // sent, never received
        let silent = pb.chan("silent"); // received, never sent
        let write_only = pb.global("write_only", Value::Int(0));
        let meta = pb.meta_global("leader", Value::Int(0));
        let read_back = pb.global("read_back", Value::Int(0));
        let f = pb.declare("f", 1);
        pb.body(f, |b| {
            b.wait_cond(ghost_wait, Some(e::int(5)), None);
            b.signal(ghost_sig);
            b.wait_cond(paired, None, None);
            b.signal(paired);
            b.send(e::str_("n1"), dead_letter, e::int(1));
            let v = b.local();
            b.recv(silent, v, Some(e::int(5)));
            b.set_global(write_only, e::int(1));
            b.set_global(meta, e::int(2)); // meta-info: exempt
            b.set_global(read_back, e::int(3));
            b.log(Level::Info, "rb {}", vec![e::glob(read_back)]);
            let fut = b.local(); // never written: await lints
            b.await_(fut, Some(e::int(5)), None);
            let arg_fut = b.param(0); // param: exempt
            b.await_(arg_fut, Some(e::int(5)), None);
        });
        let p = pb.finish().unwrap();
        let lints = p.lints();
        // One warning of each kind, in statement order.
        assert_eq!(lints.len(), 6);
        assert!(
            matches!(&lints[0], LintWarning::UnsignaledCond { name, .. } if name == "ghost_wait")
        );
        assert!(matches!(&lints[1], LintWarning::UnwaitedCond { name, .. } if name == "ghost_sig"));
        assert!(
            matches!(&lints[2], LintWarning::UnreceivedChan { name, .. } if name == "dead_letter")
        );
        assert!(matches!(&lints[3], LintWarning::UnsentChan { name, .. } if name == "silent"));
        assert!(
            matches!(&lints[4], LintWarning::UnreadGlobal { name, .. } if name == "write_only")
        );
        assert!(matches!(&lints[5], LintWarning::UnsubmittedAwait { func, .. } if func == "f"));
    }

    #[test]
    fn lints_are_ordered_by_function_block_and_statement() {
        use crate::builder::ProgramBuilder;
        use crate::expr::build as e;
        // Declare primitives in the opposite order of their first use so id
        // order and anchor order disagree.
        let mut pb = ProgramBuilder::new("t");
        let late = pb.cond("late");
        let early = pb.cond("early");
        let f1 = pb.declare("f1", 0);
        let f2 = pb.declare("f2", 0);
        pb.body(f1, |b| {
            b.wait_cond(early, Some(e::int(1)), None);
        });
        pb.body(f2, |b| {
            b.wait_cond(late, Some(e::int(1)), None);
        });
        let p = pb.finish().unwrap();
        let lints = p.lints();
        assert_eq!(lints.len(), 2);
        assert!(matches!(&lints[0], LintWarning::UnsignaledCond { name, .. } if name == "early"));
        assert!(matches!(&lints[1], LintWarning::UnsignaledCond { name, .. } if name == "late"));
        // Byte-stable: repeated runs render identically.
        let render = |ws: &[LintWarning]| ws.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(render(&p.lints()), render(&lints));
    }

    #[test]
    fn dead_sites_lint_with_bounds_and_anchor_in_order() {
        use crate::builder::ProgramBuilder;
        use crate::expr::build as e;
        let mut pb = ProgramBuilder::new("t");
        let ghost = pb.cond("ghost");
        let f = pb.declare("f", 0);
        pb.body(f, |b| {
            b.external("a.op", &[ExceptionType::Io]);
            b.wait_cond(ghost, Some(e::int(1)), None);
            b.external("b.op", &[ExceptionType::Io]);
        });
        let p = pb.finish().unwrap();
        // a.op dead, b.op live: the DeadSite warning slots in before the
        // cond warning because its statement comes first.
        let lints = p.lints_with_bounds(&[Some(0), Some(3)]);
        assert_eq!(lints.len(), 2);
        assert!(matches!(&lints[0], LintWarning::DeadSite { desc, .. } if desc == "a.op"));
        assert!(matches!(&lints[1], LintWarning::UnsignaledCond { .. }));
        // No bounds info at all degrades to the syntactic suite.
        assert_eq!(p.lints_with_bounds(&[None, None]).len(), 1);
    }

    #[test]
    fn return_stmts_of_finds_all_returns_per_function() {
        use crate::builder::ProgramBuilder;
        use crate::expr::build as e;
        let mut pb = ProgramBuilder::new("t");
        let two = pb.declare("two_returns", 0);
        let none = pb.declare("no_return", 0);
        pb.body(two, |b| {
            b.if_(e::gt(e::rand(0, 10), e::int(5)), |b| {
                b.ret(Some(e::int(1)));
            });
            b.ret(Some(e::int(0)));
        });
        pb.body(none, |b| {
            b.halt();
        });
        let p = pb.finish().unwrap();
        assert_eq!(p.return_stmts_of(two).len(), 2);
        assert!(p.return_stmts_of(none).is_empty());
    }
}
