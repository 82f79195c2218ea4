//! Simulation configuration and cluster topology.

use anduril_ir::{FuncId, Value};

/// Which executor interprets the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The bytecode register VM running the lowered instruction stream
    /// (the default; compiled once per program, no per-step allocation).
    #[default]
    Vm,
    /// The original tree-walking interpreter over the `Stmt`/`Expr` AST.
    /// Kept as a differential oracle for tests: only available when the sim
    /// crate is built with the `tree-walk-oracle` feature (a dev-dependency
    /// feature of the crates whose tests drive it) or under `cfg(test)`.
    TreeWalk,
}

/// Base number of statements a thread executes per scheduling slice (a
/// slice draws 0-2 more).
pub(crate) const QUANTUM: u64 = 8;

/// Inclusive-exclusive bounds on simulated message delivery latency.
pub(crate) const NET_LATENCY: std::ops::Range<u64> = 3..9;

/// Configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for every source of simulated nondeterminism (message latency,
    /// scheduling jitter, workload jitter). Identical seeds give identical
    /// runs; the Explorer varies the seed per round, which is what makes the
    /// paper's flexible priority window necessary.
    pub seed: u64,
    /// Logical-time horizon; the run stops when the clock passes it.
    pub max_time: u64,
    /// Safety cap on executed statements.
    pub max_steps: u64,
    /// Which executor interprets the program. Both engines are
    /// step-for-step deterministic and produce byte-identical results; the
    /// tree-walk is retained as a differential oracle.
    pub engine: Engine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            max_time: 1_000_000,
            max_steps: 50_000_000,
            engine: Engine::default(),
        }
    }
}

impl SimConfig {
    /// Returns a copy with a different seed (one Explorer round each).
    pub fn with_seed(&self, seed: u64) -> Self {
        SimConfig {
            seed,
            ..self.clone()
        }
    }
}

/// One node in the simulated cluster.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node name, e.g. `"nn1"`, `"rs2"`, `"client"`.
    pub name: String,
    /// Entry function run by the node's `main` thread.
    pub main: FuncId,
    /// Arguments passed to the entry function.
    pub args: Vec<Value>,
}

impl NodeSpec {
    /// Creates a node spec.
    pub fn new(name: &str, main: FuncId, args: Vec<Value>) -> Self {
        NodeSpec {
            name: name.to_string(),
            main,
            args,
        }
    }
}

/// The simulated cluster: a list of nodes all running the same program.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// The cluster's nodes; names must be unique.
    pub nodes: Vec<NodeSpec>,
}

impl Topology {
    /// Creates a topology from node specs.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        Topology { nodes }
    }
}
