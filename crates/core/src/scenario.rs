//! A reproduction scenario: target system, cluster topology, and driving
//! workload.
//!
//! The workload is embodied by the topology's entry functions (typically a
//! `client` node whose main drives the cluster), matching the paper's
//! setup where an existing test or a constructed workload exercises the
//! affected feature (§2, input 3).

use std::sync::Arc;

use anduril_causal::RootCall;
use anduril_ir::{CompiledProgram, FuncId, Program};
use anduril_sim::{run, run_compiled, InjectionPlan, RunResult, SimConfig, SimError, Topology};

/// Everything needed to execute one run of the target under the workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (e.g. the failure ticket id).
    pub name: String,
    /// The target system's IR program. Shared, not owned: nothing mutates
    /// a scenario's program after construction, so cloning a scenario (one
    /// per prepared context) copies a pointer, not the IR.
    pub program: Arc<Program>,
    /// Cluster topology, including the workload driver node.
    pub topology: Topology,
    /// Base simulation configuration; the Explorer varies only the seed.
    pub config: SimConfig,
}

impl Scenario {
    /// The thread entry functions (node mains), used as causal-graph roots
    /// for the uncaught-exception observable.
    pub fn roots(&self) -> Vec<FuncId> {
        let mut v: Vec<FuncId> = self.topology.nodes.iter().map(|n| n.main).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The root invocations with their literal arguments, one per node —
    /// the constant environment the occurrence-bounds dataflow analysis
    /// starts from (node multiplicities sum for shared mains).
    pub fn root_calls(&self) -> Vec<RootCall> {
        self.topology
            .nodes
            .iter()
            .map(|n| RootCall {
                func: n.main,
                args: n.args.clone(),
            })
            .collect()
    }

    /// Runs the workload once with the given seed and injection plan, over
    /// the program's own compiled form ([`Program::compiled`]): the first
    /// run of a program lowers it, every later one — a search's rounds
    /// included — reuses it.
    pub fn run(&self, seed: u64, plan: InjectionPlan) -> Result<RunResult, SimError> {
        run(
            &self.program,
            &self.topology,
            &self.config.with_seed(seed),
            plan,
        )
    }

    /// [`Scenario::run`] over a compiled form the caller holds, such as a
    /// copy from [`anduril_ir::lower::compile`]; the same run as
    /// [`Scenario::run`] (compilation is a function of the program only).
    pub fn run_compiled(
        &self,
        compiled: &CompiledProgram,
        seed: u64,
        plan: InjectionPlan,
    ) -> Result<RunResult, SimError> {
        run_compiled(
            &self.program,
            compiled,
            &self.topology,
            &self.config.with_seed(seed),
            plan,
        )
    }
}
