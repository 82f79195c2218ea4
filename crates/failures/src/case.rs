//! The failure-case model: scenario + oracle + ground truth.

use anduril_core::{Oracle, Scenario, SearchContext, Tracer};
use anduril_ir::{ExceptionType, SiteId, Value};
use anduril_sim::{InjectionPlan, PausedRun, Reached, RunResult};

/// The known root cause of a failure, resolved to a concrete dynamic
/// instance under the failure seed.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Root-cause fault site.
    pub site: SiteId,
    /// Dynamic occurrence to inject at.
    pub occurrence: u32,
    /// Exception type to inject.
    pub exc: ExceptionType,
    /// Seed of the "production" run.
    pub seed: u64,
}

/// An additional, deeper root cause that also satisfies the oracle
/// (Table 6's "new root cause" discoveries).
#[derive(Debug, Clone)]
pub struct DeeperCause {
    /// Description of the alternative root-cause site.
    pub site_desc: &'static str,
    /// Exception type to inject there.
    pub exc: ExceptionType,
    /// The analog ticket from the paper's Table 6 and what it teaches.
    pub note: &'static str,
}

/// A node's name and the integer arguments its entry function gets (see
/// [`FailureCase::with_workload`]).
pub type NodeArgs<'a> = (&'a str, &'a [i64]);

/// One of the 22 evaluated failures.
#[derive(Debug, Clone)]
pub struct FailureCase {
    /// Paper id, `f1`..`f22`.
    pub id: &'static str,
    /// Ticket name, e.g. `HB-25905`.
    pub ticket: &'static str,
    /// Target system name.
    pub system: &'static str,
    /// One-line description (Table 5).
    pub description: &'static str,
    /// Target + workload.
    pub scenario: Scenario,
    /// The failure oracle.
    pub oracle: Oracle,
    /// Description string of the root-cause site in the target program.
    pub root_site_desc: &'static str,
    /// Exception the root cause throws (Table 5's "Injected Fault").
    pub root_exc: ExceptionType,
    /// Seed of the production failure run.
    pub failure_seed: u64,
    /// Alternative deeper causes (empty for most cases).
    pub deeper_causes: Vec<DeeperCause>,
}

/// A case ready to search, as [`FailureCase::prepare`] returns it.
pub struct PreparedCase {
    /// The known root cause.
    pub gt: GroundTruth,
    /// The rendered "production" failure log.
    pub failure_log: String,
    /// The search context (normal run + causal graph) over that log.
    pub ctx: SearchContext,
}

impl PreparedCase {
    /// The context a production log that lost its best guidance prepares:
    /// every entry (line plus continuation lines) of the nearest
    /// observable — the failure-only template at the smallest graph
    /// distance from a fault site — is stripped from the failure log, and
    /// what is left is prepared at this context's seed.
    ///
    /// Production failure logs are routinely incomplete (rotation, rate
    /// limiting and buffered appenders drop exactly the bursty messages
    /// around a failure); this is the stall-prone input the
    /// `full-adaptive` strategy's tests search.
    pub fn degraded(&self) -> Result<SearchContext, CaseError> {
        let ctx = &self.ctx;
        let nearest = (0..ctx.observables.len())
            .filter_map(|k| ctx.distances[k].values().min().map(|&d| (d, k)))
            .min()
            .map(|(_, k)| &ctx.scenario.program.templates[ctx.observables[k].template.index()]);
        let mut log = String::new();
        let mut drop = false;
        for line in self.failure_log.lines() {
            if let Some(entry) = anduril_core::log_header(line) {
                drop = nearest.is_some_and(|template| template.matches(entry.body));
            }
            if !drop {
                log.push_str(line);
                log.push('\n');
            }
        }
        // Not `FailureCase::prepare`: the log is not the one the ground
        // truth renders.
        SearchContext::prepare(ctx.scenario.clone(), &log, ctx.base_seed)
            .map_err(|e| CaseError::Sim(e.to_string()))
    }
}

/// Errors from ground-truth resolution and preparation.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The named root site does not exist in the program.
    NoSuchSite(String),
    /// A node named in a workload is not in the topology.
    NoSuchNode(String),
    /// No occurrence of the root site satisfies the oracle.
    NotReproducible(String),
    /// The simulator failed.
    Sim(String),
}

impl std::fmt::Display for CaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseError::NoSuchSite(s) => write!(f, "no such site: {s}"),
            CaseError::NoSuchNode(s) => write!(f, "no such node: {s}"),
            CaseError::NotReproducible(s) => write!(f, "not reproducible: {s}"),
            CaseError::Sim(s) => write!(f, "simulation error: {s}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl FailureCase {
    /// Resolves the root-cause site id from its description.
    pub fn root_site(&self) -> Result<SiteId, CaseError> {
        self.scenario
            .program
            .sites
            .iter()
            .find(|s| s.desc == self.root_site_desc)
            .map(|s| s.id)
            .ok_or_else(|| CaseError::NoSuchSite(self.root_site_desc.to_string()))
    }

    /// This failure under another workload volume: each named node's
    /// arguments replaced by `args`, and the simulated horizon by
    /// `max_time` when one is given. A case of its own — another ground
    /// truth, another failure log — to prepare like any other. A name the
    /// topology lacks is [`CaseError::NoSuchNode`].
    pub fn with_workload(
        &self,
        args: &[NodeArgs<'_>],
        max_time: Option<u64>,
    ) -> Result<FailureCase, CaseError> {
        let mut case = self.clone();
        for &(name, args) in args {
            let node = case
                .scenario
                .topology
                .nodes
                .iter_mut()
                .find(|node| node.name == name)
                .ok_or_else(|| CaseError::NoSuchNode(format!("{}: {name}", self.id)))?;
            node.args = args.iter().map(|&a| Value::Int(a)).collect();
        }
        if let Some(max_time) = max_time {
            case.scenario.config.max_time = max_time;
        }
        Ok(case)
    }

    /// Resolves the ground truth: scans the root site's dynamic occurrences
    /// under the failure seed for one that satisfies the oracle.
    ///
    /// This mirrors the paper's setup: the tickets are resolved, so the
    /// root-cause *site* is known, and the failure log is obtained "by
    /// manually reproducing the failure first based on the ground truth".
    pub fn ground_truth(&self) -> Result<GroundTruth, CaseError> {
        Ok(self.resolve()?.0)
    }

    /// Renders the "production" failure log for this case.
    pub fn failure_log(&self) -> Result<String, CaseError> {
        Ok(self.resolve()?.1.log_text())
    }

    /// The ground truth and the run that established it — the "production"
    /// run, whose log is the failure log.
    ///
    /// Every run reads the program's own compiled form, which a later
    /// `prepare` of any case of the same program reuses. Occurrence `k`'s
    /// run is the fault-free run up to the site's `k`-th execution, so one
    /// world paused there ([`PausedRun`]) serves the whole scan: occurrence
    /// `k` is a copy that injects and runs to the end, and on an oracle miss
    /// the world passes `k` and stops at `k + 1`. A world that ends before
    /// it gets there executed the site fewer times — it is the fault-free
    /// run, its own count says how many occurrences there were, and the
    /// scan is over.
    fn resolve(&self) -> Result<(GroundTruth, RunResult), CaseError> {
        let site = self.root_site()?;
        let sim = |e: anduril_sim::SimError| CaseError::Sim(e.to_string());
        let program = &self.scenario.program;
        let mut reached = PausedRun::start(
            program,
            program.compiled(),
            &self.scenario.topology,
            &self.scenario.config.with_seed(self.failure_seed),
            site,
            0,
            self.root_exc,
        )
        .map_err(sim)?;
        loop {
            let at = match reached {
                Reached::Paused(at) => at,
                Reached::Ended(run) => {
                    return Err(CaseError::NotReproducible(format!(
                        "{}: no occurrence of {} (of {}) satisfies the oracle",
                        self.id,
                        self.root_site_desc,
                        run.site_occurrences[site.index()]
                    )))
                }
            };
            let r = at.clone().inject(u64::MAX).map_err(sim)?;
            if self.oracle.check(&r) {
                let gt = GroundTruth {
                    site,
                    occurrence: at.occurrence(),
                    exc: self.root_exc,
                    seed: self.failure_seed,
                };
                return Ok((gt, r));
            }
            let next = at.occurrence() + 1;
            reached = at.pass_to(next).map_err(sim)?;
        }
    }

    /// The one way from a case to a search: resolves the ground truth,
    /// takes the failure log of the run that established it and prepares a
    /// context over that log at `base_seed`, preparation phases going to
    /// `tracer`.
    pub fn prepare(&self, base_seed: u64, tracer: &dyn Tracer) -> Result<PreparedCase, CaseError> {
        let (gt, production) = self.resolve()?;
        let failure_log = production.log_text();
        let ctx =
            SearchContext::prepare_traced(self.scenario.clone(), &failure_log, base_seed, tracer)
                .map_err(|e| CaseError::Sim(e.to_string()))?;
        Ok(PreparedCase {
            gt,
            failure_log,
            ctx,
        })
    }

    /// Checks that the workload alone (no injection) does **not** satisfy
    /// the oracle — the defining property of a fault-induced failure.
    pub fn fault_free_run_is_healthy(&self) -> Result<bool, CaseError> {
        let r = self
            .scenario
            .run(self.failure_seed, InjectionPlan::none())
            .map_err(|e| CaseError::Sim(e.to_string()))?;
        Ok(!self.oracle.check(&r))
    }
}
