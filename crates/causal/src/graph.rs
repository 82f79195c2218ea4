//! Static causal graph construction (Algorithm 1).
//!
//! Starting from the relevant observables' log statements (sinks), the
//! builder walks *causally prior* nodes backwards until it reaches
//! new-exception or external-exception nodes — the fault-site sources.
//! Node kinds follow §4.1: location, condition, invocation, handler,
//! internal-exception, new-exception, external-exception; we add a virtual
//! `UncaughtRoot` sink for the runtime's "Uncaught exception in thread"
//! message, whose priors are the exceptions escaping thread entry points.
//!
//! The analysis is deliberately conservative (the Pensieve-style "jumping"
//! strategy introduces false dependencies); the Explorer's dynamic feedback
//! is what prunes them — exactly the trade-off the paper makes.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use anduril_ir::builder::{TMPL_ABORT, TMPL_UNCAUGHT};
use anduril_ir::{
    BlockId, BlockRole, ExceptionType, FuncId, Level, Program, SiteId, SiteKind, Stmt, StmtRef,
    TemplateId,
};

use crate::exceptions::{ExcAnalysis, ThrowKind, ThrowPoint};
use crate::slicing::{Slicer, UseDefTables};
use crate::ProgramFacts;

/// "No node" in an id-indexed intern table.
const ABSENT: u32 = u32::MAX;

/// A causal-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKey {
    /// A program point being executed.
    Location(StmtRef),
    /// A branch/loop condition being satisfied.
    Condition(StmtRef),
    /// A function being invoked.
    Invocation(FuncId),
    /// Entry of the `i`-th handler of a `try`.
    Handler(StmtRef, u32),
    /// An exception of a type propagating out of an invocation statement.
    InternalExc(StmtRef, ExceptionType),
    /// A `throw new` fault site — a source node.
    NewExc(SiteId),
    /// An external-call fault site — a source node.
    ExternalExc(SiteId),
    /// Virtual sink: an exception escaping a thread entry function.
    UncaughtRoot(FuncId),
}

/// An observable the graph is built for (one per relevant log message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observable {
    /// The message template the observable was matched to.
    pub template: TemplateId,
}

/// Phase timings of one graph construction (regenerates Table 7). The
/// three phases are disjoint and `total_ns` covers them plus the use-def
/// table scan and sink seeding, so `exception_ns + slicing_ns + chaining_ns
/// <= total_ns`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Exception-analysis time (nanoseconds): what the program's call
    /// graph and exception summaries took when they were derived, once per
    /// program ([`crate::ProgramFacts`]).
    pub exception_ns: u64,
    /// Slicing time: the condition nodes' writer searches.
    pub slicing_ns: u64,
    /// Chain construction: the worklist as a whole, minus `slicing_ns`.
    pub chaining_ns: u64,
    /// End-to-end build time, the program's facts counted at what they
    /// took when they were derived.
    pub total_ns: u64,
}

/// The static causal graph.
#[derive(Debug)]
pub struct CausalGraph {
    /// Interned nodes.
    pub nodes: Vec<NodeKey>,
    /// `prior_edges[prior_starts[n]..prior_starts[n + 1]]` = the causally
    /// prior nodes of `n`, ascending: every edge of the graph in one array.
    prior_starts: Vec<u32>,
    prior_edges: Vec<u32>,
    /// Sink node ids per observable (same order as the build input).
    pub sinks: Vec<Vec<u32>>,
    /// `(site, source node)` of every fault site in the graph, by site.
    sources: Vec<(SiteId, u32)>,
}

impl CausalGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.prior_edges.len()
    }

    /// The causally prior nodes of `n`, ascending.
    pub fn priors(&self, n: u32) -> &[u32] {
        let n = n as usize;
        &self.prior_edges[self.prior_starts[n] as usize..self.prior_starts[n + 1] as usize]
    }

    /// The fault sites present as source nodes — the paper's *inferred*
    /// fault sites (Table 1).
    pub fn sources(&self) -> Vec<SiteId> {
        self.sources.iter().map(|&(site, _)| site).collect()
    }

    /// Shortest causal distance from every fault-site source to observable
    /// `k` (the spatial distance `L_{i,k}` of §5.2.2).
    pub fn distances(&self, k: usize) -> HashMap<SiteId, u32> {
        let mut scratch = Vec::new();
        self.distances_into(k, &mut scratch)
    }

    /// Like [`CausalGraph::distances`], but reuses a caller-owned distance
    /// buffer so computing the map for every observable allocates the
    /// `O(nodes)` working memory once instead of once per observable.
    pub fn distances_into(&self, k: usize, dist: &mut Vec<u32>) -> HashMap<SiteId, u32> {
        self.distances_from_nodes_into(&self.sinks[k], dist)
    }

    /// Shortest causal distance from every fault-site source to an
    /// arbitrary sink set of existing nodes.
    ///
    /// This is [`CausalGraph::distances_into`] generalised away from the
    /// frozen per-observable sink lists, so a distance table for an
    /// observable promoted mid-search (whose sink is an interior node that
    /// was already interned during the original build) costs one BFS over
    /// the existing graph instead of a full context re-preparation.
    pub fn distances_from_nodes_into(
        &self,
        seeds: &[u32],
        dist: &mut Vec<u32>,
    ) -> HashMap<SiteId, u32> {
        self.distances_bfs(seeds, dist, &mut VecDeque::new())
    }

    /// The distance table of every observable, in order — what
    /// [`CausalGraph::distances`] returns for each, over one set of
    /// buffers.
    pub fn distances_all(&self) -> Vec<HashMap<SiteId, u32>> {
        let (mut dist, mut queue) = (Vec::new(), VecDeque::new());
        (self.sinks.iter())
            .map(|sinks| self.distances_bfs(sinks, &mut dist, &mut queue))
            .collect()
    }

    fn distances_bfs(
        &self,
        seeds: &[u32],
        dist: &mut Vec<u32>,
        queue: &mut VecDeque<u32>,
    ) -> HashMap<SiteId, u32> {
        dist.clear();
        dist.resize(self.nodes.len(), u32::MAX);
        for &s in seeds {
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            let d = dist[n as usize];
            for &p in self.priors(n) {
                if dist[p as usize] == u32::MAX {
                    dist[p as usize] = d + 1;
                    queue.push_back(p);
                }
            }
        }
        let connected = || {
            let sources = self.sources.iter();
            sources.filter(|&&(_, n)| dist[n as usize] != u32::MAX)
        };
        let mut table = HashMap::with_capacity(connected().count());
        table.extend(connected().map(|&(site, n)| (site, dist[n as usize])));
        table
    }

    /// The source node interned for a fault site, if the site is connected
    /// to any observable.
    pub fn site_node(&self, site: SiteId) -> Option<u32> {
        let at = self.sources.binary_search_by_key(&site, |&(s, _)| s).ok()?;
        Some(self.sources[at].1)
    }

    /// Scores interior condition/invocation nodes by causal proximity to
    /// the given fault sites and pairs each with a *witness* log template —
    /// the raw material for adaptive observable promotion.
    ///
    /// For each focus site (in the given priority order) the graph is
    /// walked breadth-first from the site's source node, treating edges as
    /// undirected: interior nodes both causally upstream and downstream of
    /// the site are "near" it for instrumentation purposes. An interior
    /// node is eligible when a parameter-free log statement sits in the
    /// region it governs (the branch blocks of a condition, the body of an
    /// invoked function), because a hole-free template renders to a single
    /// fixed `(level, body)` key whose presence in a round log is an exact
    /// intern-table probe. Templates in `exclude` (existing observables and
    /// prior promotions) are skipped; templates in `common` (seen on the
    /// fault-free run) are kept but deprioritised, since an always-firing
    /// witness discriminates poorly.
    ///
    /// Candidates come back sorted by `(hops, common, site rank, node id)`
    /// — nearest first, rare witnesses before common ones — and deduped by
    /// template. Everything here is deterministic: BFS distances are
    /// independent of edge order and all ties break on stable ids.
    pub fn promotion_candidates(
        &self,
        program: &Program,
        sites: &[SiteId],
        exclude: &std::collections::HashSet<TemplateId>,
        common: &std::collections::HashSet<TemplateId>,
    ) -> Vec<PromotionCandidate> {
        // Undirected adjacency: priors plus reversed edges.
        let mut adj: Vec<Vec<u32>> = (0..self.nodes.len() as u32)
            .map(|n| self.priors(n).to_vec())
            .collect();
        for n in 0..self.nodes.len() as u32 {
            for &p in self.priors(n) {
                adj[p as usize].push(n);
            }
        }
        // Best (hops, site-rank) per interior node over all focus sites;
        // earlier (higher-priority) sites win ties.
        let mut best: HashMap<u32, (u32, usize, SiteId)> = HashMap::new();
        let mut dist = vec![u32::MAX; self.nodes.len()];
        for (rank, &site) in sites.iter().enumerate() {
            let Some(src) = self.site_node(site) else {
                continue;
            };
            for d in dist.iter_mut() {
                *d = u32::MAX;
            }
            let mut queue = VecDeque::new();
            dist[src as usize] = 0;
            queue.push_back(src);
            while let Some(n) = queue.pop_front() {
                let d = dist[n as usize];
                for &m in &adj[n as usize] {
                    if dist[m as usize] == u32::MAX {
                        dist[m as usize] = d + 1;
                        queue.push_back(m);
                    }
                }
            }
            for (n, key) in self.nodes.iter().enumerate() {
                if !matches!(key, NodeKey::Condition(_) | NodeKey::Invocation(_)) {
                    continue;
                }
                let d = dist[n];
                if d == u32::MAX {
                    continue;
                }
                let entry = best.entry(n as u32).or_insert((d, rank, site));
                if d < entry.0 {
                    *entry = (d, rank, site);
                }
            }
        }
        let mut out: Vec<PromotionCandidate> = Vec::new();
        let mut nodes: Vec<u32> = best.keys().copied().collect();
        nodes.sort_unstable();
        for n in nodes {
            let (hops, rank, site) = best[&n];
            let Some((template, level)) =
                witness_template(program, self.nodes[n as usize], exclude, common)
            else {
                continue;
            };
            out.push(PromotionCandidate {
                node: n,
                node_key: self.nodes[n as usize],
                site,
                site_rank: rank,
                hops,
                template,
                level,
                common: common.contains(&template),
            });
        }
        out.sort_by_key(|c| (c.hops, c.common, c.site_rank, c.node));
        let mut seen = std::collections::HashSet::new();
        out.retain(|c| seen.insert(c.template));
        out
    }
}

/// A scored interior-node candidate for adaptive observable promotion.
#[derive(Debug, Clone, Copy)]
pub struct PromotionCandidate {
    /// Graph node id of the interior condition/invocation node.
    pub node: u32,
    /// The node's key (for provenance rendering).
    pub node_key: NodeKey,
    /// The focus fault site the node was found nearest to.
    pub site: SiteId,
    /// Rank of that site in the focus list the search supplied.
    pub site_rank: usize,
    /// Undirected BFS hops from the site's source node.
    pub hops: u32,
    /// The parameter-free witness log template governed by the node.
    pub template: TemplateId,
    /// Severity the witness statement logs at.
    pub level: Level,
    /// `true` when the witness also fires on the fault-free run.
    pub common: bool,
}

/// Finds a parameter-free witness log template in the region an interior
/// node governs: the branch/body blocks of a condition (searched
/// recursively, without crossing function boundaries) or the whole body of
/// an invoked function. Prefers templates absent from `common`; returns
/// the first eligible one in block/statement order otherwise.
fn witness_template(
    program: &Program,
    key: NodeKey,
    exclude: &std::collections::HashSet<TemplateId>,
    common: &std::collections::HashSet<TemplateId>,
) -> Option<(TemplateId, Level)> {
    let mut blocks: VecDeque<BlockId> = VecDeque::new();
    match key {
        NodeKey::Condition(sref) => {
            for (b, _) in program.stmt(sref).child_blocks() {
                blocks.push_back(b);
            }
        }
        NodeKey::Invocation(f) => {
            for b in 0..program.blocks.len() {
                let id = BlockId(b as u32);
                if program.block_parent(id).func == f {
                    blocks.push_back(id);
                }
            }
        }
        _ => return None,
    }
    let nested = matches!(key, NodeKey::Condition(_));
    let mut found: Vec<(TemplateId, Level)> = Vec::new();
    while let Some(b) = blocks.pop_front() {
        for stmt in &program.blocks[b.index()] {
            if let Stmt::Log {
                level, template, ..
            } = stmt
            {
                let eligible =
                    program.templates[template.index()].arity() == 0 && !exclude.contains(template);
                if eligible {
                    found.push((*template, *level));
                }
            }
            if nested {
                for (child, _) in stmt.child_blocks() {
                    blocks.push_back(child);
                }
            }
        }
    }
    found
        .iter()
        .find(|(t, _)| !common.contains(t))
        .or_else(|| found.first())
        .copied()
}

/// Builds the causal graph for a list of observables over the program's
/// facts.
///
/// `roots` are thread entry functions (node mains and spawn targets are
/// derived automatically; pass the topology's mains) used as sinks for the
/// runtime "Uncaught exception" observable.
pub fn build(
    program: &Program,
    facts: &ProgramFacts,
    observables: &[Observable],
    roots: &[FuncId],
    timings: &mut BuildTimings,
) -> CausalGraph {
    let total_start = Instant::now();
    let mut b = Builder::new(program, facts);
    b.seed(observables, roots);

    // Worklist (Algorithm 1). A node is queued when it is interned, so the
    // queue is the node list itself.
    let worklist_start = Instant::now();
    let mut priors: Vec<NodeKey> = Vec::new();
    let mut n = 0;
    while let Some(&key) = b.g.nodes.get(n) {
        priors.clear();
        b.causally_prior(key, &mut priors);
        // Dedupe at the key level so repeated priors (e.g. a writer that is
        // both a structural and a sliced prior) are interned and inserted
        // once.
        priors.sort_unstable();
        priors.dedup();
        let start = b.g.prior_edges.len();
        for &p in &priors {
            let id = b.intern(p);
            b.g.prior_edges.push(id);
        }
        b.g.prior_edges[start..].sort_unstable();
        b.g.prior_starts.push(b.g.prior_edges.len() as u32);
        n += 1;
    }
    let worklist_ns = worklist_start.elapsed().as_nanos() as u64;
    timings.slicing_ns += b.slicing_ns;
    timings.chaining_ns += worklist_ns.saturating_sub(b.slicing_ns);

    b.g.sources = (0u32..)
        .zip(&b.site)
        .filter(|(_, &n)| n != ABSENT)
        .map(|(site, &n)| (SiteId(site), n))
        .collect();
    timings.total_ns += total_start.elapsed().as_nanos() as u64;
    b.g
}

/// One graph under construction: the graph, the slicer, and the intern
/// tables — one per node kind, indexed by the dense id the kind is keyed
/// by, holding the node id or [`ABSENT`].
struct Builder<'p> {
    program: &'p Program,
    analysis: &'p ExcAnalysis,
    tables: &'p UseDefTables,
    slicer: Slicer<'p>,
    g: CausalGraph,
    /// By statement ([`crate::slicing::UseDefTables::flat`]).
    location: Vec<u32>,
    condition: Vec<u32>,
    /// By statement: the row of `internal_rows` holding the statement's
    /// `InternalExc` nodes, one per exception type. Rows exist only for the
    /// calls and awaits that propagate something.
    internal: Vec<u32>,
    internal_rows: Vec<[u32; ExceptionType::ALL.len()]>,
    /// By the handler's own block.
    handler: Vec<u32>,
    /// By function.
    invocation: Vec<u32>,
    uncaught: Vec<u32>,
    /// By site, for both source kinds: a site is either an external call or
    /// a `throw new`.
    site: Vec<u32>,
    slicing_ns: u64,
}

impl<'p> Builder<'p> {
    fn new(program: &'p Program, facts: &'p ProgramFacts) -> Self {
        let tables = &facts.tables;
        let stmts = tables.stmt_count();
        let funcs = program.funcs.len();
        Builder {
            program,
            analysis: &facts.exceptions,
            tables,
            g: CausalGraph {
                nodes: Vec::new(),
                prior_starts: vec![0],
                prior_edges: Vec::new(),
                sinks: Vec::new(),
                sources: Vec::new(),
            },
            site: vec![ABSENT; program.sites.len()],
            location: vec![ABSENT; stmts],
            condition: vec![ABSENT; stmts],
            internal: vec![ABSENT; stmts],
            internal_rows: Vec::new(),
            handler: vec![ABSENT; program.blocks.len()],
            invocation: vec![ABSENT; funcs],
            uncaught: vec![ABSENT; funcs],
            slicer: Slicer::new(program, tables),
            slicing_ns: 0,
        }
    }

    /// The node of `key`, appended to the node list (and so to the
    /// worklist) on first sight.
    fn intern(&mut self, key: NodeKey) -> u32 {
        let tables = self.tables;
        let slot = match key {
            NodeKey::Location(sref) => &mut self.location[tables.flat(sref)],
            NodeKey::Condition(sref) => &mut self.condition[tables.flat(sref)],
            NodeKey::Invocation(f) => &mut self.invocation[f.index()],
            NodeKey::UncaughtRoot(f) => &mut self.uncaught[f.index()],
            NodeKey::NewExc(site) | NodeKey::ExternalExc(site) => &mut self.site[site.index()],
            NodeKey::Handler(try_ref, i) => {
                let Stmt::Try { handlers, .. } = self.program.stmt(try_ref) else {
                    unreachable!("handler nodes are made from `try` statements");
                };
                &mut self.handler[handlers[i as usize].block.index()]
            }
            NodeKey::InternalExc(sref, ty) => {
                let row = &mut self.internal[tables.flat(sref)];
                if *row == ABSENT {
                    *row = self.internal_rows.len() as u32;
                    self.internal_rows.push([ABSENT; ExceptionType::ALL.len()]);
                }
                &mut self.internal_rows[*row as usize][ty as usize]
            }
        };
        if *slot == ABSENT {
            *slot = self.g.nodes.len() as u32;
            self.g.nodes.push(key);
        }
        *slot
    }

    /// Interns every observable's sinks, from one scan of the program that
    /// files the statements any of them can ask for: log statements by
    /// template, aborts, and spawn targets (thread entry functions besides
    /// `roots`).
    fn seed(&mut self, observables: &[Observable], roots: &[FuncId]) {
        let program = self.program;
        // `Some` for the templates an observable asks for.
        let mut logs: Vec<Option<Vec<StmtRef>>> = vec![None; program.templates.len()];
        for obs in observables {
            if let Some(wanted) = logs.get_mut(obs.template.index()) {
                *wanted = Some(Vec::new());
            }
        }
        let mut aborts: Vec<StmtRef> = Vec::new();
        let mut all_roots: Vec<FuncId> = roots.to_vec();
        for (sref, stmt) in program.all_stmts() {
            match stmt {
                Stmt::Log { template, .. } => {
                    if let Some(of_template) = &mut logs[template.index()] {
                        of_template.push(sref);
                    }
                }
                Stmt::Abort { .. } => aborts.push(sref),
                Stmt::Spawn { func, .. } => all_roots.push(*func),
                _ => {}
            }
        }
        all_roots.sort_unstable();
        all_roots.dedup();

        for obs in observables {
            let sinks = if obs.template == TMPL_UNCAUGHT {
                all_roots
                    .iter()
                    .filter(|f| !self.analysis.escapes[f.index()].is_empty())
                    .map(|&f| self.intern(NodeKey::UncaughtRoot(f)))
                    .collect()
            } else {
                let stmts: &[StmtRef] = if obs.template == TMPL_ABORT {
                    &aborts
                } else {
                    match logs.get(obs.template.index()) {
                        Some(Some(of_template)) => of_template,
                        _ => &[],
                    }
                };
                stmts
                    .iter()
                    .map(|&sref| self.intern(NodeKey::Location(sref)))
                    .collect()
            };
            self.g.sinks.push(sinks);
        }
    }

    /// Appends the nodes causally prior to `key`.
    fn causally_prior(&mut self, key: NodeKey, out: &mut Vec<NodeKey>) {
        let (program, analysis, tables) = (self.program, self.analysis, self.tables);
        match key {
            NodeKey::Location(sref) => {
                out.push(structural_prior(program, sref));
                // The previous statement in the block dominates this one.
                if sref.idx > 0 {
                    out.push(NodeKey::Location(StmtRef::new(sref.block, sref.idx - 1)));
                }
                let located = |stmts: &[StmtRef], out: &mut Vec<NodeKey>| {
                    out.extend(stmts.iter().map(|&s| NodeKey::Location(s)));
                };
                match program.stmt(sref) {
                    // Reaching (or passing) a fault site is causally tied to
                    // the site's outcome; this is the conservative inclusion
                    // that makes the paper's graphs large and its feedback
                    // loop necessary.
                    Stmt::External { site } => out.push(NodeKey::ExternalExc(*site)),
                    Stmt::ThrowNew { site } if !inside_handler(program, sref) => {
                        out.push(NodeKey::NewExc(*site));
                    }
                    // Statement-specific cross-resource dependencies.
                    Stmt::Recv { chan, .. } => located(tables.chan_senders(*chan), out),
                    Stmt::WaitCond { cond, .. } => located(tables.cond_signalers(*cond), out),
                    Stmt::Await { future, .. } => {
                        let func = program.func_of_stmt(sref);
                        let tasks = analysis.future_tasks(func, *future);
                        out.extend(tasks.iter().map(|&f| NodeKey::Invocation(f)));
                    }
                    _ => {}
                }
            }
            NodeKey::Condition(sref) => {
                out.push(structural_prior(program, sref));
                // The interprocedural slice: every program point that could
                // have produced a value this condition reads, following the
                // jumping strategy across call, message, queue, and future
                // boundaries (see `crate::slicing`).
                let slice_start = Instant::now();
                let writers = self.slicer.condition_writers(program, analysis, sref);
                out.extend(writers.iter().map(|&w| NodeKey::Location(w)));
                self.slicing_ns += slice_start.elapsed().as_nanos() as u64;
            }
            NodeKey::Invocation(f) => {
                out.extend(tables.callers(f).iter().map(|&c| NodeKey::Location(c)));
            }
            NodeKey::Handler(try_ref, i) => {
                let Stmt::Try { body, handlers, .. } = program.stmt(try_ref) else {
                    return;
                };
                let pattern = &handlers[i as usize].pattern;
                let func = program.func_of_stmt(try_ref);
                for point in analysis.points_reaching(program, *body, func, pattern) {
                    throw_point_nodes(program, &point, out);
                }
            }
            NodeKey::InternalExc(sref, ty) => {
                // What leaves a function with type `ty` is its escape
                // points of that type: the summary already holds them, no
                // callee is walked again per `(call statement, type)`.
                let mut escaping = |f: FuncId, only: Option<ExceptionType>| {
                    for point in &analysis.escape_points[f.index()] {
                        if only.is_none_or(|ty| point.ty == ty) {
                            throw_point_nodes(program, point, out);
                        }
                    }
                };
                match program.stmt(sref) {
                    Stmt::Call { func: callee, .. } => escaping(*callee, Some(ty)),
                    Stmt::Await { future, .. } => {
                        let func = program.func_of_stmt(sref);
                        for &task in analysis.future_tasks(func, *future) {
                            escaping(task, None);
                        }
                    }
                    _ => {}
                }
            }
            NodeKey::UncaughtRoot(f) => {
                for point in &analysis.escape_points[f.index()] {
                    throw_point_nodes(program, point, out);
                }
                out.push(NodeKey::Invocation(f));
            }
            // Source nodes terminate the recursion.
            NodeKey::NewExc(_) | NodeKey::ExternalExc(_) => {}
        }
    }
}

/// The structural prior of a statement: the condition, handler, or
/// invocation that dominates its execution.
fn structural_prior(program: &Program, sref: StmtRef) -> NodeKey {
    let parent = program.block_parent(sref.block);
    match (parent.stmt, parent.role) {
        (None, _) => NodeKey::Invocation(parent.func),
        (Some(owner), BlockRole::Then | BlockRole::Else) => NodeKey::Condition(owner),
        (Some(owner), BlockRole::LoopBody) => NodeKey::Condition(owner),
        (Some(owner), BlockRole::Handler(i)) => NodeKey::Handler(owner, i),
        (Some(owner), BlockRole::TryBody | BlockRole::Finally) => NodeKey::Location(owner),
        (Some(owner), BlockRole::Entry) => NodeKey::Location(owner),
    }
}

/// Maps a throw point to its prior nodes for handler / internal-exception
/// expansion, applying the paper's new-exception downgrade rule.
fn throw_point_nodes(program: &Program, point: &ThrowPoint, out: &mut Vec<NodeKey>) {
    match &point.kind {
        ThrowKind::Site(site) => {
            let info = &program.sites[site.index()];
            match info.kind {
                SiteKind::External => out.push(NodeKey::ExternalExc(*site)),
                SiteKind::ThrowNew => {
                    // Downgrade: a `throw new` inside a catch block is
                    // propagating a caught (possibly external) fault, so it
                    // is treated as internal and the analysis continues
                    // through the handler's own priors.
                    if !inside_handler(program, point.stmt) {
                        out.push(NodeKey::NewExc(*site));
                    }
                }
            }
            // Reaching the throwing statement has its own causal story
            // (guards, callers), so keep analysing its location.
            out.push(NodeKey::Location(point.stmt));
        }
        ThrowKind::Call(_) | ThrowKind::AwaitTask(_) => {
            out.push(NodeKey::InternalExc(point.stmt, point.ty));
            out.push(NodeKey::Location(point.stmt));
        }
        ThrowKind::Env => out.push(NodeKey::Location(point.stmt)),
    }
}

fn inside_handler(program: &Program, sref: StmtRef) -> bool {
    let mut block = sref.block;
    loop {
        let parent = program.block_parent(block);
        match (parent.stmt, parent.role) {
            (Some(_), BlockRole::Handler(_)) => return true,
            (Some(owner), _) => block = owner.block,
            (None, _) => return false,
        }
    }
}
