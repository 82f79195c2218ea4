//! Deterministic discrete-event simulator for IR-authored distributed
//! systems, plus ANDURIL's fault-injection runtime.
//!
//! The paper evaluates on five production Java systems running on a real
//! testbed; this crate is the substitution that makes the reproduction
//! self-contained: target systems written in [`anduril_ir`] run under a
//! seeded event-driven scheduler with simulated network latency, threads,
//! condition variables, single-threaded executors, futures with
//! cross-thread exception propagation, and node aborts/crashes.
//!
//! Fault sites are intercepted by the [`fir::Fir`] runtime exactly as the
//! paper's instrumented `traceSite()` / `throwIfEnabled()` pair does
//! (Figure 3), so the Explorer in `anduril-core` can arm a window of
//! candidates per round and observe the trace of dynamic fault-site
//! instances.
//!
//! # Examples
//!
//! ```
//! use anduril_ir::builder::ProgramBuilder;
//! use anduril_ir::{expr as e, ExceptionType, Level};
//! use anduril_sim::{run, InjectionPlan, NodeSpec, SimConfig, Topology};
//!
//! let mut pb = ProgramBuilder::new("hello");
//! let main = pb.declare("main", 0);
//! pb.body(main, |b| {
//!     b.try_catch(
//!         |b| {
//!             b.external("disk.read", &[ExceptionType::Io]);
//!             b.log(Level::Info, "read ok", vec![]);
//!         },
//!         ExceptionType::Io,
//!         |b| {
//!             b.log(Level::Warn, "read failed", vec![]);
//!         },
//!     );
//! });
//! let program = pb.finish().unwrap();
//! let topo = Topology::new(vec![NodeSpec::new("n1", main, vec![])]);
//!
//! // Fault-free run logs the success path.
//! let ok = run(&program, &topo, &SimConfig::default(), InjectionPlan::none()).unwrap();
//! assert!(ok.has_log("read ok"));
//!
//! // Injecting at the site's first occurrence exercises the handler.
//! let plan = InjectionPlan::exact(anduril_ir::SiteId(0), 0, ExceptionType::Io);
//! let faulty = run(&program, &topo, &SimConfig::default(), plan).unwrap();
//! assert!(faulty.has_log("read failed"));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fir;
pub mod result;
pub mod rng;
mod thread;
pub mod world;

pub use config::{Engine, NodeSpec, SimConfig, Topology};
pub use fir::{Candidate, CrashPoint, Fir, InjectedRecord, InjectionPlan, Stage, TraceEntry};
pub use result::{BlockReason, NodeSnapshot, RunResult, ThreadEndState, ThreadSnapshot};
pub use world::{
    run, run_compiled, run_compiled_or_partial, FailedRun, PausedRun, Reached, SimError,
};
