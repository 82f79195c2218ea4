//! Static causal analysis for ANDURIL (the Instrumenter's analysis half).
//!
//! Given a program and a list of observable log messages, this crate
//! computes the *static causal graph* of Algorithm 1: which fault sites
//! (external calls and `throw new` statements) are causally connected to
//! each observable, and at what graph distance. The distance feeds the
//! Explorer's spatial priority `L_{i,k}` (§5.2.2); the set of source nodes
//! is the paper's "inferred" fault-site reduction (Table 1).
//!
//! # Examples
//!
//! ```
//! use anduril_causal::{build_graph, Observable};
//! use anduril_ir::builder::ProgramBuilder;
//! use anduril_ir::{ExceptionType, Level};
//!
//! let mut pb = ProgramBuilder::new("t");
//! let f = pb.declare("f", 0);
//! pb.body(f, |b| {
//!     b.try_catch(
//!         |b| {
//!             b.external("disk.write", &[ExceptionType::Io]);
//!         },
//!         ExceptionType::Io,
//!         |b| {
//!             b.log(Level::Warn, "write failed", vec![]);
//!         },
//!     );
//! });
//! let program = pb.finish().unwrap();
//! let template = program.template_named("write failed").unwrap();
//! let (graph, timings) = build_graph(&program, &[Observable { template }], &[f]);
//! assert_eq!(graph.sources(), vec![anduril_ir::SiteId(0)]);
//! assert!(timings.total_ns > 0);
//! ```

#![warn(missing_docs)]

mod callgraph;
pub mod dataflow;
pub mod exceptions;
pub mod graph;
pub mod reach;
pub mod slicing;
#[cfg(test)]
mod test_programs;

pub use callgraph::CallGraph;
pub use dataflow::{Interval, OccurrenceBounds, RootCall};
pub use exceptions::{analyze, analyze_over, ExcAnalysis, ThrowKind, ThrowPoint};
pub use graph::{build, BuildTimings, CausalGraph, NodeKey, Observable};
pub use reach::Reachability;
pub use slicing::{Slicer, UseDefTables, MAX_JUMPS};

use anduril_ir::{FuncId, Program};
use std::time::Instant;

/// What the analysis derives from a program alone (§4.1): the call graph,
/// the exception summaries and the slicer's use-def tables. Only the
/// causal graph depends on a failure's observables, so a target system
/// pays for these once, however many of its failures are prepared.
#[derive(Debug)]
pub struct ProgramFacts {
    /// The invocation edges and their components.
    pub calls: CallGraph,
    /// Per-function exception summaries, over `calls`.
    pub exceptions: ExcAnalysis,
    /// Program-wide use-def lookup tables.
    pub tables: UseDefTables,
    /// Host nanoseconds the call graph and the exception summaries took
    /// when they were built: Table 7's exception column, whichever graph
    /// reads them.
    pub exception_ns: u64,
    /// Host nanoseconds the use-def tables took when they were built.
    pub tables_ns: u64,
}

impl ProgramFacts {
    /// Derives every table from the program, timing each.
    pub fn build(program: &Program) -> ProgramFacts {
        let start = Instant::now();
        let calls = CallGraph::build(program);
        let exceptions = analyze_over(program, &calls);
        let exception_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let tables = UseDefTables::build(program);
        ProgramFacts {
            calls,
            exceptions,
            tables,
            exception_ns,
            tables_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// The program's own facts, derived on first use and kept with it
    /// ([`Program::derived`]): every preparation of the program, and every
    /// graph a search builds over it, reads this one copy.
    pub fn of(program: &Program) -> &ProgramFacts {
        program.derived(ProgramFacts::build)
    }
}

/// Runs the exception analysis and builds the causal graph in one step,
/// returning phase timings (Table 7's breakdown). Derives the program's
/// facts afresh; [`build_graph_over`] reads facts the caller has.
pub fn build_graph(
    program: &Program,
    observables: &[Observable],
    roots: &[FuncId],
) -> (CausalGraph, BuildTimings) {
    build_graph_over(program, &ProgramFacts::build(program), observables, roots)
}

/// [`build_graph`] over the program's facts. The timings charge the facts
/// what they cost when they were built.
pub fn build_graph_over(
    program: &Program,
    facts: &ProgramFacts,
    observables: &[Observable],
    roots: &[FuncId],
) -> (CausalGraph, BuildTimings) {
    let mut timings = BuildTimings {
        exception_ns: facts.exception_ns,
        ..BuildTimings::default()
    };
    let graph = build(program, facts, observables, roots, &mut timings);
    timings.total_ns += facts.exception_ns + facts.tables_ns;
    (graph, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anduril_ir::builder::{ProgramBuilder, TMPL_ABORT, TMPL_UNCAUGHT};
    use anduril_ir::{expr::build as e, ExceptionType, Level, SiteId, Value};

    /// A miniature of the HBase-25905 shape: an async consumer syncs to an
    /// external store inside a try/catch whose handler re-queues entries;
    /// a roller waits on a condition that only the consumer signals; the
    /// timeout symptom is logged far from the root-cause external call.
    fn wal_like_program() -> (anduril_ir::Program, FuncId) {
        let mut pb = ProgramBuilder::new("wal");
        let unacked = pb.global("unackedAppends", Value::List(vec![]));
        let ready = pb.global("readyForRolling", Value::Bool(false));
        let cv = pb.cond("readyForRollingCond");
        let exec = pb.executor("consumeExecutor");
        let sync = pb.declare("sync", 0);
        let consume = pb.declare("consume", 0);
        let roll = pb.declare("waitForSafePoint", 0);
        let main = pb.declare("main", 0);
        pb.body(sync, |b| {
            b.try_catch(
                |b| {
                    // The root-cause fault site.
                    b.external("hdfs.channelRead0", &[ExceptionType::Io]);
                    b.set_global(unacked, e::list(vec![]));
                },
                ExceptionType::Io,
                |b| {
                    b.log_exc(Level::Warn, "stream broken, will retry", vec![]);
                    b.push_back(unacked, e::int(1));
                },
            );
        });
        pb.body(consume, |b| {
            b.if_else(
                e::gt(e::len(e::glob(unacked)), e::int(0)),
                |b| {
                    b.call(sync, vec![]);
                },
                |b| {
                    b.set_global(ready, e::bool_(true));
                    b.signal(cv);
                },
            );
        });
        pb.body(roll, |b| {
            b.while_(e::not(e::glob(ready)), |b| {
                let ok = b.local();
                b.wait_cond(cv, Some(e::int(100)), Some(ok));
                b.if_(e::not(e::var(ok)), |b| {
                    b.log(Level::Warn, "Failed to get sync result", vec![]);
                });
            });
        });
        pb.body(main, |b| {
            let f = b.local();
            b.submit(exec, consume, vec![], f);
            b.call(roll, vec![]);
        });
        let p = pb.finish().unwrap();
        (p, main)
    }

    #[test]
    fn chain_reaches_root_cause_through_conditions_and_handlers() {
        let (p, main) = wal_like_program();
        let template = p.template_named("Failed to get sync result").unwrap();
        let (g, _) = build_graph(&p, &[Observable { template }], &[main]);
        // The root-cause external site must be an inferred source.
        let root_site = p
            .sites
            .iter()
            .find(|s| s.desc == "hdfs.channelRead0")
            .unwrap()
            .id;
        assert!(
            g.sources().contains(&root_site),
            "sources {:?} must include the hdfs site",
            g.sources()
        );
        // And it must be at a finite distance from the symptom observable.
        let d = g.distances(0);
        assert!(d.contains_key(&root_site), "distance map: {d:?}");
        assert!(
            d[&root_site] >= 2,
            "the chain is indirect: {}",
            d[&root_site]
        );
    }

    #[test]
    fn unrelated_fault_sites_are_pruned() {
        let mut pb = ProgramBuilder::new("t");
        let touched = pb.declare("touched", 0);
        let untouched = pb.declare("untouched", 0);
        let main = pb.declare("main", 0);
        pb.body(touched, |b| {
            b.try_catch(
                |b| {
                    b.external("a.op", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "a failed", vec![]);
                },
            );
        });
        pb.body(untouched, |b| {
            // A fault site with no causal connection to the observable.
            b.external("b.op", &[ExceptionType::Io]);
        });
        pb.body(main, |b| {
            b.call(touched, vec![]);
            b.call(untouched, vec![]);
        });
        let p = pb.finish().unwrap();
        let template = p.template_named("a failed").unwrap();
        let (g, _) = build_graph(&p, &[Observable { template }], &[main]);
        let a_site = p.sites.iter().find(|s| s.desc == "a.op").unwrap().id;
        let b_site = p.sites.iter().find(|s| s.desc == "b.op").unwrap().id;
        assert!(g.sources().contains(&a_site));
        assert!(
            !g.sources().contains(&b_site),
            "pruning must exclude the unrelated site"
        );
    }

    #[test]
    fn uncaught_observable_links_thread_roots() {
        let mut pb = ProgramBuilder::new("t");
        let worker = pb.declare("worker", 0);
        let main = pb.declare("main", 0);
        pb.body(worker, |b| {
            b.external("net.connect", &[ExceptionType::Socket]);
        });
        pb.body(main, |b| {
            b.spawn("w", worker, vec![]);
        });
        let p = pb.finish().unwrap();
        let (g, _) = build_graph(
            &p,
            &[Observable {
                template: TMPL_UNCAUGHT,
            }],
            &[main],
        );
        let site = p.sites[0].id;
        assert!(g.sources().contains(&site));
        let d = g.distances(0);
        assert_eq!(d.get(&site), Some(&1), "escape point is one hop away");
    }

    #[test]
    fn abort_observable_links_abort_statements() {
        let mut pb = ProgramBuilder::new("t");
        let main = pb.declare("main", 0);
        pb.body(main, |b| {
            b.try_catch(
                |b| {
                    b.external("zk.lock", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.abort("lock failure");
                },
            );
        });
        let p = pb.finish().unwrap();
        let (g, _) = build_graph(
            &p,
            &[Observable {
                template: TMPL_ABORT,
            }],
            &[main],
        );
        let site = p.sites[0].id;
        let d = g.distances(0);
        assert!(
            d.contains_key(&site),
            "abort chains to its handler's faults"
        );
    }

    #[test]
    fn downgraded_throw_new_continues_past_handler() {
        // A `throw new` inside a catch block wraps an external fault; the
        // chain must continue to the external site rather than stopping at
        // the new-exception node.
        let mut pb = ProgramBuilder::new("t");
        let inner = pb.declare("inner", 0);
        let main = pb.declare("main", 0);
        pb.body(inner, |b| {
            b.try_catch(
                |b| {
                    b.external("io.read", &[ExceptionType::Io]);
                },
                ExceptionType::Io,
                |b| {
                    b.throw_new("wrap as corruption", ExceptionType::Corruption);
                },
            );
        });
        pb.body(main, |b| {
            b.try_catch(
                |b| {
                    b.call(inner, vec![]);
                },
                ExceptionType::Corruption,
                |b| {
                    b.log(Level::Error, "data corrupt", vec![]);
                },
            );
        });
        let p = pb.finish().unwrap();
        let template = p.template_named("data corrupt").unwrap();
        let (g, _) = build_graph(&p, &[Observable { template }], &[main]);
        let io_site = p.sites.iter().find(|s| s.desc == "io.read").unwrap().id;
        let wrap_site = p
            .sites
            .iter()
            .find(|s| s.desc == "wrap as corruption")
            .unwrap()
            .id;
        assert!(
            g.sources().contains(&io_site),
            "downgrade keeps the chain going to the deeper root cause"
        );
        assert!(
            !g.sources().contains(&wrap_site),
            "the wrapping throw-new is internal, not a source"
        );
    }

    #[test]
    fn distances_grow_with_indirection() {
        let mut pb = ProgramBuilder::new("t");
        let deep = pb.declare("deep", 0);
        let shallow = pb.declare("shallow", 0);
        let main = pb.declare("main", 0);
        pb.body(deep, |b| {
            b.external("deep.op", &[ExceptionType::Io]);
        });
        pb.body(shallow, |b| {
            b.try_catch(
                |b| {
                    b.external("shallow.op", &[ExceptionType::Io]);
                    b.call(deep, vec![]);
                },
                ExceptionType::Io,
                |b| {
                    b.log(Level::Warn, "op failed", vec![]);
                },
            );
        });
        pb.body(main, |b| {
            b.call(shallow, vec![]);
        });
        let p = pb.finish().unwrap();
        let template = p.template_named("op failed").unwrap();
        let (g, _) = build_graph(&p, &[Observable { template }], &[main]);
        let d = g.distances(0);
        let shallow_site = p.sites.iter().find(|s| s.desc == "shallow.op").unwrap().id;
        let deep_site = p.sites.iter().find(|s| s.desc == "deep.op").unwrap().id;
        assert!(
            d[&deep_site] > d[&shallow_site],
            "deeper sites are further: {} vs {}",
            d[&deep_site],
            d[&shallow_site]
        );
    }

    #[test]
    fn graph_counts_are_consistent() {
        let (p, main) = wal_like_program();
        let template = p.template_named("Failed to get sync result").unwrap();
        let (g, timings) = build_graph(&p, &[Observable { template }], &[main]);
        assert!(g.node_count() > 5);
        assert!(g.edge_count() >= g.node_count() - 1);
        assert!(timings.exception_ns > 0);
        assert!(timings.total_ns >= timings.exception_ns);
        // Priors only reference interned nodes.
        for n in 0..g.node_count() as u32 {
            for &x in g.priors(n) {
                assert!((x as usize) < g.node_count());
            }
        }
    }

    /// Table 7's columns are disjoint parts of the total: slicing is not
    /// counted again inside chaining.
    #[test]
    fn build_timings_are_disjoint_phases_of_the_total() {
        let (p, main) = wal_like_program();
        let template = p.template_named("Failed to get sync result").unwrap();
        for _ in 0..50 {
            let (_, t) = build_graph(&p, &[Observable { template }], &[main]);
            assert!(t.slicing_ns > 0 && t.chaining_ns > 0, "{t:?}");
            assert!(
                t.exception_ns + t.slicing_ns + t.chaining_ns <= t.total_ns,
                "{t:?}"
            );
        }
    }

    #[test]
    fn multiple_observables_share_one_graph() {
        let (p, main) = wal_like_program();
        let t1 = p.template_named("Failed to get sync result").unwrap();
        let t2 = p.template_named("stream broken, will retry").unwrap();
        let (g, _) = build_graph(
            &p,
            &[Observable { template: t1 }, Observable { template: t2 }],
            &[main],
        );
        assert_eq!(g.sinks.len(), 2);
        let d1 = g.distances(0);
        let d2 = g.distances(1);
        let root_site = p
            .sites
            .iter()
            .find(|s| s.desc == "hdfs.channelRead0")
            .unwrap()
            .id;
        // The stream-broken message is logged in the handler right next to
        // the fault; the timeout symptom is much further away.
        assert!(d2[&root_site] < d1[&root_site]);
    }

    #[test]
    fn site_id_type_is_exported() {
        // Compile-time re-export sanity.
        let _x: Option<SiteId> = None;
    }

    /// A health flag is flipped in `probe`'s exception handler, read back
    /// through a `get_healthy` accessor, and branched on in `main`. The
    /// condition's only direct (intraprocedural) writer is the `Call`
    /// statement itself, so a purely local lookup never connects the
    /// observable to `probe`'s fault site; the interprocedural slicer jumps
    /// through the call return into the accessor and on to the global's
    /// writer inside the handler.
    #[test]
    fn interprocedural_slice_reaches_cross_function_condition_writer() {
        let mut pb = ProgramBuilder::new("t");
        let healthy = pb.global("healthy", Value::Bool(true));
        let probe = pb.declare("probe", 0);
        let getter = pb.declare("get_healthy", 0);
        let main = pb.declare("main", 0);
        pb.body(probe, |b| {
            b.try_catch(
                |b| {
                    b.external("net.ping", &[ExceptionType::Socket]);
                },
                ExceptionType::Socket,
                |b| {
                    b.set_global(healthy, e::bool_(false));
                },
            );
        });
        pb.body(getter, |b| {
            b.ret(Some(e::glob(healthy)));
        });
        pb.body(main, |b| {
            let h = b.local();
            b.call(probe, vec![]);
            b.call_ret(getter, vec![], h);
            b.if_(e::not(e::var(h)), |b| {
                b.log(Level::Warn, "node unhealthy", vec![]);
            });
        });
        let p = pb.finish().unwrap();
        let cond = p
            .all_stmts()
            .find(|(_, s)| matches!(s, anduril_ir::Stmt::If { .. }))
            .map(|(sref, _)| sref)
            .unwrap();
        let cond_func = p.func_of_stmt(cond);

        // The old intraprocedural lookup: the condition reads only the
        // local `h`, whose sole writer is the Call statement in `main`.
        let tables = slicing::UseDefTables::build(&p);
        let h = anduril_ir::VarId(0);
        let direct = tables.local_writers(cond_func, h);
        assert!(
            !direct.is_empty() && direct.iter().all(|&w| p.func_of_stmt(w) == cond_func),
            "every direct writer is local to main — the old lookup stops here"
        );

        // The slicer crosses the boundary.
        let analysis = analyze(&p);
        let mut slicer = Slicer::new(&p, &tables);
        let writers = slicer.condition_writers(&p, &analysis, cond);
        assert!(
            writers.iter().any(|&w| p.func_of_stmt(w) != cond_func),
            "slice reaches writers outside main: {writers:?}"
        );

        // End to end: the fault site in `probe` becomes a graph source for
        // the observable, at a finite distance.
        let template = p.template_named("node unhealthy").unwrap();
        let (g, _) = build_graph(&p, &[Observable { template }], &[main]);
        let site = p.sites.iter().find(|s| s.desc == "net.ping").unwrap().id;
        assert!(
            g.sources().contains(&site),
            "sources {:?} must include the probe site",
            g.sources()
        );
        assert!(g.distances(0).contains_key(&site));
    }

    #[test]
    fn distances_into_matches_distances() {
        let (p, main) = wal_like_program();
        let t1 = p.template_named("Failed to get sync result").unwrap();
        let t2 = p.template_named("stream broken, will retry").unwrap();
        let (g, _) = build_graph(
            &p,
            &[Observable { template: t1 }, Observable { template: t2 }],
            &[main],
        );
        let mut scratch = Vec::new();
        for k in 0..2 {
            assert_eq!(g.distances(k), g.distances_into(k, &mut scratch));
        }
    }
}
