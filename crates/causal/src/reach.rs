//! Static call-graph reachability pruning of the fault-site space.
//!
//! The paper's Table 1 distinguishes fault sites that are merely *present*
//! in the code from those the workload can actually *reach*. The use-def
//! tables are program-wide, so dead code (an unused admin path, a tool
//! entry point the scenario never runs) can leak into the causal graph as
//! writers and even surface as source nodes. This module computes the set
//! of functions reachable from the workload's root functions over the
//! invocation edges (`Call`, `Submit`, `Spawn`) and prunes candidate fault
//! sites down to those inside reachable functions — a cheap static filter
//! applied *before* the strategies ever schedule an injection.

use anduril_ir::{FuncId, Program, SiteId};

use crate::callgraph::{invocation_edges, reachable_from, CallGraph};

/// Which functions a set of workload roots can reach.
#[derive(Debug, Clone)]
pub struct Reachability {
    reachable: Vec<bool>,
}

impl Reachability {
    /// Closure over the invocation edges from `roots`.
    pub fn compute(program: &Program, roots: &[FuncId]) -> Self {
        Reachability {
            reachable: reachable_from(&invocation_edges(program), roots.iter().copied()),
        }
    }

    /// [`Reachability::compute`] over a call graph the caller already has.
    pub fn over(calls: &CallGraph, roots: &[FuncId]) -> Self {
        Reachability {
            reachable: calls.reachable_from(roots.iter().copied()),
        }
    }

    /// Whether `func` is reachable from the roots.
    pub fn func(&self, func: FuncId) -> bool {
        self.reachable[func.index()]
    }

    /// Number of reachable functions.
    pub fn count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }

    /// The fault sites whose containing function is reachable, in id order
    /// — the *reachable* column of Table 1 and the candidate space handed
    /// to the exploration strategies.
    pub fn reachable_sites(&self, program: &Program) -> Vec<SiteId> {
        program
            .sites
            .iter()
            .filter(|s| self.func(s.func))
            .map(|s| s.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::builder::ProgramBuilder;
    use anduril_ir::{expr::build as e, ExceptionType};

    #[test]
    fn dead_functions_and_their_sites_are_pruned() {
        let mut pb = ProgramBuilder::new("t");
        let exec = pb.executor("pool");
        let live = pb.declare("live", 0);
        let task = pb.declare("task", 0);
        let spawned = pb.declare("spawned", 0);
        let dead = pb.declare("dead_admin_path", 0);
        let main = pb.declare("main", 0);
        pb.body(live, |b| {
            b.external("live.op", &[ExceptionType::Io]);
        });
        pb.body(task, |b| {
            b.external("task.op", &[ExceptionType::Io]);
        });
        pb.body(spawned, |b| {
            b.external("spawned.op", &[ExceptionType::Io]);
        });
        pb.body(dead, |b| {
            b.external("dead.op", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            b.call(live, vec![]);
            b.submit_forget(exec, task, vec![]);
            b.spawn("w", spawned, vec![]);
        });
        let p = pb.finish().unwrap();
        let r = Reachability::compute(&p, &[main]);
        assert!(r.func(main) && r.func(live) && r.func(task) && r.func(spawned));
        assert!(!r.func(dead));
        assert_eq!(r.count(), 4);
        let sites = r.reachable_sites(&p);
        let dead_site = p.sites.iter().find(|s| s.desc == "dead.op").unwrap().id;
        assert_eq!(sites.len(), p.sites.len() - 1);
        assert!(!sites.contains(&dead_site));
    }

    #[test]
    fn recursion_and_shared_callees_terminate() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.declare("a", 0);
        let b_ = pb.declare("b", 0);
        let main = pb.declare("main", 0);
        pb.body(a, |bb| {
            bb.call(b_, vec![]);
        });
        pb.body(b_, |bb| {
            bb.if_(e::gt(e::rand(0, 2), e::int(0)), |bb| {
                bb.call(a, vec![]);
            });
        });
        pb.body(main, |bb| {
            bb.call(a, vec![]);
            bb.call(b_, vec![]);
        });
        let p = pb.finish().unwrap();
        let r = Reachability::compute(&p, &[main]);
        assert_eq!(r.count(), 3);
    }
}
