//! Random well-formed IR program synthesis.
//!
//! A blueprint is drawn first — every generation-time random choice
//! (node count, helper mix, exception types, gating percentages, the
//! critical node and helper) is fixed before a single statement is built,
//! so program shape is a pure function of the blueprint and the builder
//! calls below are fully deterministic. The emitted program follows a
//! ring topology:
//!
//! - `node{i}` runs `main` (spawns a listener and a monitor thread, then
//!   drives a worker loop inline and logs a summary reading every global),
//! - the worker loop calls a stack of helper functions (each wrapping an
//!   external fault site in a `try_catch`), submits a flush task to the
//!   node's executor and awaits it with a timeout, occasionally sends a
//!   message to the next node's ingest channel, and signals the node's
//!   tick condition,
//! - the listener drains the ingest channel with a recv timeout (wrapped
//!   in `try_catch` — recv timeouts *throw*), the monitor waits on the
//!   tick condition (wait-cond timeouts do not throw).
//!
//! Exactly one node is *critical*. In single-fault mode one of its
//! helpers, when its external site throws, marks the node degraded
//! (optionally only after a commit-count phase gate) and `main` ends the
//! run with a FATAL log plus `abort`. In multi-fault mode two helpers on
//! the critical node form a cascade: fault A poisons the WAL flag, and
//! fault B's failover check aborts only if the flag is already set — a
//! failure no single injection can produce.

use std::sync::Arc;

use anduril_ir::builder::{BodyBuilder, ProgramBuilder};
use anduril_ir::{
    expr as e, ChanId, CondId, ExceptionPattern, ExceptionType, Level, Program, Value,
};
use anduril_sim::rng::SmallRng;
use anduril_sim::{NodeSpec, SimConfig, Topology};

/// All nine exception types a generated external site may declare.
const EXCEPTIONS: [ExceptionType; 9] = [
    ExceptionType::Io,
    ExceptionType::Socket,
    ExceptionType::Timeout,
    ExceptionType::Interrupted,
    ExceptionType::FileNotFound,
    ExceptionType::Execution,
    ExceptionType::IllegalState,
    ExceptionType::Runtime,
    ExceptionType::Corruption,
];

/// Program size class: how many nodes, helpers per node, and worker-loop
/// iterations a generated scenario gets. `Small` matches the hand-written
/// minis; `Large` is roughly an order of magnitude past them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// 2–3 nodes, 3–5 helpers per node, 6–12 worker iterations.
    Small,
    /// 3–4 nodes, 6–10 helpers per node, 20–40 worker iterations.
    Medium,
    /// 4–6 nodes, 14–22 helpers per node, 60–120 worker iterations.
    Large,
}

impl SizeClass {
    /// Parses a CLI size name.
    pub fn parse(s: &str) -> Option<SizeClass> {
        match s {
            "small" => Some(SizeClass::Small),
            "medium" => Some(SizeClass::Medium),
            "large" => Some(SizeClass::Large),
            _ => None,
        }
    }

    /// `(node range, helper range, iteration range)` for this class.
    fn ranges(
        self,
    ) -> (
        std::ops::Range<u64>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    ) {
        match self {
            SizeClass::Small => (2..4, 3..6, 6..13),
            SizeClass::Medium => (3..5, 6..11, 20..41),
            SizeClass::Large => (4..7, 14..23, 60..121),
        }
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        };
        f.write_str(s)
    }
}

/// One helper function: a `try_catch` around an external fault site.
struct HelperSpec {
    /// Exception type the site declares (and the catch arm matches).
    exc: ExceptionType,
    /// Simulated latency ticks of the external call.
    latency: u32,
    /// Runtime percentage chance of an extra per-call noise log.
    noise_pct: i64,
    /// Whether this helper tail-calls helper `j - 2` (layering).
    layered: bool,
    /// `Some(pct)` if the worker's call to this helper is rand-gated.
    gate_pct: Option<i64>,
}

/// One node of the generated system.
struct NodeBlueprint {
    /// Worker-loop iteration count (passed as the node's main argument).
    iters: i64,
    helpers: Vec<HelperSpec>,
    /// Decoy helper the flush task also calls, if any.
    task_helper: Option<usize>,
    /// Runtime percentage chance the worker forwards to the next node.
    send_pct: i64,
    /// Runtime percentage chance of listener / monitor noise logs.
    listener_noise_pct: i64,
    monitor_noise_pct: i64,
}

/// Every generation-time decision for one scenario, drawn up front.
struct Blueprint {
    nodes: Vec<NodeBlueprint>,
    /// Index of the critical node.
    critical: usize,
    /// Critical helper index on the critical node (fault B in multi mode).
    crit_helper: usize,
    /// `Some(helper)` in multi-fault mode: the WAL-poisoning fault A.
    poison_helper: Option<usize>,
    /// `Some(commit threshold)` if the single-fault trigger is phase-gated.
    phase_threshold: Option<i64>,
}

/// What a phase-gated critical handler logs while the gate is closed.
const WARMUP_NEEDLE: &str = "journal commit retried in warmup";

/// The critical node's flag a single-fault handler sets past the phase gate.
pub(crate) const DEGRADED_GLOBAL: &str = "replicaDegraded";

/// A synthesized scenario plus everything the planting pass needs: site
/// descriptions of the planted faults, the log needles the oracle matches
/// on, and size statistics.
pub struct GenProgram {
    /// The program, shared with the case's scenario.
    pub program: Arc<Program>,
    /// One [`NodeSpec`] per generated node.
    pub topology: Topology,
    /// Simulation config (defaults; seed is set per run).
    pub config: SimConfig,
    /// Name of the critical node, e.g. `"node2"`.
    pub critical_node: String,
    /// Site description of the critical fault (fault B in multi mode).
    pub critical_site_desc: String,
    /// Exception the critical site throws.
    pub critical_exc: ExceptionType,
    /// Site description of the poisoning fault A (multi-fault mode only).
    pub poison_site_desc: Option<String>,
    /// Exception the poisoning site throws (meaningless in single mode).
    pub poison_exc: ExceptionType,
    /// The FATAL log line the oracle requires.
    pub fatal_needle: String,
    /// The critical handler's Error-level log needle.
    pub error_needle: String,
    /// Fault A's handler Error-level log needle (multi-fault mode only).
    pub poison_needle: Option<String>,
    /// `Some` if the single-fault trigger is phase-gated: what the critical
    /// handler logs instead of marking the node degraded while the commit
    /// counter is below the threshold. The counter only grows, so injecting
    /// at occurrence `k` logs this up to some `k` and never from there on.
    pub warmup_needle: Option<String>,
}

impl GenProgram {
    /// Number of generated nodes.
    pub fn node_count(&self) -> usize {
        self.topology.nodes.len()
    }
}

/// Draws an integer uniformly from `lo..hi` (generation-time randomness).
fn draw(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo).max(1)
}

fn draw_range(rng: &mut SmallRng, r: std::ops::Range<u64>) -> u64 {
    draw(rng, r.start, r.end)
}

/// Percentage draw: true with probability `pct`/100.
fn chance(rng: &mut SmallRng, pct: u64) -> bool {
    rng.next_u64() % 100 < pct
}

fn draw_blueprint(rng: &mut SmallRng, size: SizeClass, multi_fault: bool) -> Blueprint {
    let (node_r, helper_r, iter_r) = size.ranges();
    let n_nodes = draw_range(rng, node_r) as usize;
    let mut nodes = Vec::with_capacity(n_nodes);
    for i in 0..n_nodes {
        let n_helpers = draw_range(rng, helper_r.clone()) as usize;
        let helpers = (0..n_helpers)
            .map(|j| HelperSpec {
                exc: EXCEPTIONS[(i * 7 + j * 3 + rng.next_u64() as usize) % EXCEPTIONS.len()],
                latency: draw(rng, 1, 6) as u32,
                noise_pct: if chance(rng, 40) {
                    draw(rng, 5, 30) as i64
                } else {
                    0
                },
                layered: j >= 2 && chance(rng, 50),
                gate_pct: chance(rng, 40).then(|| draw(rng, 40, 90) as i64),
            })
            .collect::<Vec<_>>();
        nodes.push(NodeBlueprint {
            iters: draw_range(rng, iter_r.clone()) as i64,
            task_helper: chance(rng, 50).then(|| draw(rng, 0, n_helpers as u64) as usize),
            send_pct: draw(rng, 25, 60) as i64,
            listener_noise_pct: draw(rng, 5, 25) as i64,
            monitor_noise_pct: draw(rng, 3, 15) as i64,
            helpers,
        });
    }
    let critical = draw(rng, 0, n_nodes as u64) as usize;
    let n_crit_helpers = nodes[critical].helpers.len();
    let crit_helper = draw(rng, 0, n_crit_helpers as u64) as usize;
    // The critical fault must fire every iteration so occurrence counts
    // are stable: ungate it. Multi-fault A likewise.
    nodes[critical].helpers[crit_helper].gate_pct = None;
    let poison_helper = if multi_fault {
        let a =
            (crit_helper + 1 + draw(rng, 0, (n_crit_helpers - 1) as u64) as usize) % n_crit_helpers;
        nodes[critical].helpers[a].gate_pct = None;
        Some(a)
    } else {
        None
    };
    // Phase-gated triggers (~55% of single-fault cases) make the planted
    // occurrence land mid-run, so occurrence choice matters to the search.
    let phase_threshold =
        (!multi_fault && chance(rng, 55)).then(|| (nodes[critical].iters / 2).max(1));
    Blueprint {
        nodes,
        critical,
        crit_helper,
        poison_helper,
        phase_threshold,
    }
}

/// Per-node builder ids the function bodies reference.
struct NodeIds {
    ops: anduril_ir::GlobalId,
    errors: anduril_ir::GlobalId,
    commits: anduril_ir::GlobalId,
    msgs: anduril_ir::GlobalId,
    chan: ChanId,
    cond: CondId,
    pool: anduril_ir::ExecId,
    helpers: Vec<anduril_ir::FuncId>,
    task: anduril_ir::FuncId,
    listener: anduril_ir::FuncId,
    monitor: anduril_ir::FuncId,
    worker: anduril_ir::FuncId,
    main: anduril_ir::FuncId,
}

/// Emits the body of decoy helper `j` on node `i`: a guarded external
/// call whose failure is absorbed locally with a Warn log and an error
/// counter bump.
fn build_decoy_helper(
    b: &mut BodyBuilder<'_>,
    i: usize,
    j: usize,
    spec: &HelperSpec,
    ids: &NodeIds,
) {
    let step = b.param(0);
    let desc = format!("node{i}.op{j}");
    let exc = spec.exc;
    let latency = spec.latency;
    let noise = spec.noise_pct;
    let errors = ids.errors;
    b.try_catch(
        |b| {
            b.external_lat(&desc, &[exc], latency);
            if noise > 0 {
                b.if_(e::lt(e::rand(0, 100), e::int(noise)), |b| {
                    b.log(
                        Level::Info,
                        &format!("node{i}.op{j} processed batch {{}}"),
                        vec![e::var(step)],
                    );
                });
            }
        },
        exc,
        |b| {
            b.log_exc(
                Level::Warn,
                &format!("node{i}.op{j} failed; queuing retry"),
                vec![],
            );
            b.set_global(errors, e::add(e::glob(errors), e::int(1)));
        },
    );
    if spec.layered {
        let target = ids.helpers[j - 2];
        b.call(target, vec![e::var(step)]);
    }
}

/// Emits the single-fault critical helper: on injection the handler logs
/// the distinctive error needle and (past the optional phase gate) marks
/// the node degraded, which `main` later escalates to FATAL + abort.
fn build_critical_helper(
    b: &mut BodyBuilder<'_>,
    i: usize,
    j: usize,
    spec: &HelperSpec,
    degraded: anduril_ir::GlobalId,
    commits: anduril_ir::GlobalId,
    phase_threshold: Option<i64>,
) {
    let desc = format!("node{i}.op{j}");
    let exc = spec.exc;
    let latency = spec.latency;
    b.try_catch(
        |b| {
            b.external_lat(&desc, &[exc], latency);
        },
        exc,
        |b| {
            b.log_exc(
                Level::Error,
                "journal commit failed on {}",
                vec![e::self_node()],
            );
            match phase_threshold {
                Some(t) => {
                    b.if_else(
                        e::ge(e::glob(commits), e::int(t)),
                        |b| {
                            b.set_global(degraded, e::int(1));
                        },
                        |b| {
                            b.log(Level::Warn, WARMUP_NEEDLE, vec![]);
                        },
                    );
                }
                None => {
                    b.set_global(degraded, e::int(1));
                }
            }
        },
    );
}

/// Emits multi-fault fault A: poisons the WAL flag when injected.
fn build_poison_helper(
    b: &mut BodyBuilder<'_>,
    i: usize,
    j: usize,
    spec: &HelperSpec,
    poisoned: anduril_ir::GlobalId,
) {
    let desc = format!("node{i}.op{j}");
    let exc = spec.exc;
    let latency = spec.latency;
    b.try_catch(
        |b| {
            b.external_lat(&desc, &[exc], latency);
        },
        exc,
        |b| {
            b.log_exc(
                Level::Error,
                "journal segment poisoned on {}",
                vec![e::self_node()],
            );
            b.set_global(poisoned, e::int(1));
        },
    );
}

/// Emits multi-fault fault B: a failover check that only dies if fault A
/// already poisoned the WAL — otherwise the failover succeeds with a
/// Warn log. A single injection can never satisfy the oracle.
fn build_failover_helper(
    b: &mut BodyBuilder<'_>,
    i: usize,
    j: usize,
    spec: &HelperSpec,
    poisoned: anduril_ir::GlobalId,
) {
    let desc = format!("node{i}.op{j}");
    let exc = spec.exc;
    let latency = spec.latency;
    b.try_catch(
        |b| {
            b.external_lat(&desc, &[exc], latency);
        },
        exc,
        |b| {
            b.log_exc(
                Level::Error,
                "failover read failed on {}",
                vec![e::self_node()],
            );
            b.if_else(
                e::gt(e::glob(poisoned), e::int(0)),
                |b| {
                    b.log(
                        Level::Error,
                        "FATAL: storage stack failed on {}",
                        vec![e::self_node()],
                    );
                    b.abort("storage stack failed");
                },
                |b| {
                    b.log(Level::Warn, "failover served from replica", vec![]);
                },
            );
        },
    );
}

/// Synthesizes one scenario from the blueprint drawn off `rng`.
///
/// Returns the program (already through `finish`), its topology
/// and config, and the planted-fault metadata the caller needs to build
/// an oracle and derive a failure log.
pub fn synthesize(
    rng: &mut SmallRng,
    name: &str,
    size: SizeClass,
    multi_fault: bool,
) -> Result<GenProgram, anduril_ir::IrError> {
    let bp = draw_blueprint(rng, size, multi_fault);
    let n = bp.nodes.len();
    let mut pb = ProgramBuilder::new(name);

    // Critical-node state flags (single instance; only the critical node
    // writes them, but globals are per-node so other nodes just keep 0).
    let degraded = pb.global(DEGRADED_GLOBAL, Value::Int(0));
    let poisoned = pb.global("walPoisoned", Value::Int(0));

    // Declare all per-node state and functions first so bodies can
    // reference any node's channel (ring sends) and any helper (layering).
    let mut ids: Vec<NodeIds> = Vec::with_capacity(n);
    for (i, node) in bp.nodes.iter().enumerate() {
        let helpers = (0..node.helpers.len())
            .map(|j| pb.declare(&format!("node{i}_op{j}"), 1))
            .collect::<Vec<_>>();
        ids.push(NodeIds {
            ops: pb.global(&format!("node{i}_opsDone"), Value::Int(0)),
            errors: pb.global(&format!("node{i}_errors"), Value::Int(0)),
            commits: pb.global(&format!("node{i}_commits"), Value::Int(0)),
            msgs: pb.meta_global(&format!("node{i}_msgsSeen"), Value::Int(0)),
            chan: pb.chan(&format!("ingest{i}")),
            cond: pb.cond(&format!("tick{i}")),
            pool: pb.executor(&format!("pool{i}")),
            helpers,
            task: pb.declare(&format!("node{i}_flushTask"), 1),
            listener: pb.declare(&format!("node{i}_listener"), 1),
            monitor: pb.declare(&format!("node{i}_monitor"), 1),
            worker: pb.declare(&format!("node{i}_worker"), 1),
            main: pb.declare(&format!("node{i}_main"), 1),
        });
    }

    for (i, node) in bp.nodes.iter().enumerate() {
        let nid = &ids[i];
        let is_critical = i == bp.critical;

        // Helpers.
        for (j, spec) in node.helpers.iter().enumerate() {
            let commits = nid.commits;
            pb.body(nid.helpers[j], |b| {
                if is_critical && j == bp.crit_helper {
                    if multi_fault {
                        build_failover_helper(b, i, j, spec, poisoned);
                    } else {
                        build_critical_helper(b, i, j, spec, degraded, commits, bp.phase_threshold);
                    }
                } else if is_critical && Some(j) == bp.poison_helper {
                    build_poison_helper(b, i, j, spec, poisoned);
                } else {
                    build_decoy_helper(b, i, j, spec, &ids[i]);
                }
            });
        }

        // Flush task: runs on the node's executor, bumps the commit
        // counter, optionally calls a decoy helper and logs noise.
        let commits = nid.commits;
        let task_helper = node.task_helper.map(|k| nid.helpers[k]);
        pb.body(nid.task, |b| {
            let step = b.param(0);
            b.set_global(commits, e::add(e::glob(commits), e::int(1)));
            if let Some(h) = task_helper {
                b.call(h, vec![e::var(step)]);
            }
            b.if_(e::lt(e::rand(0, 100), e::int(10)), |b| {
                b.log(
                    Level::Debug,
                    &format!("node{i} flushed segment {{}}"),
                    vec![e::var(step)],
                );
            });
        });

        // Listener: drains the ingest channel. Recv timeouts THROW, so
        // the whole receive is wrapped in a Timeout catch.
        let (chan, msgs, noise) = (nid.chan, nid.msgs, node.listener_noise_pct);
        pb.body(nid.listener, |b| {
            let iters = b.param(0);
            let k = b.local();
            let v = b.local();
            b.assign(k, e::int(0));
            b.while_(e::lt(e::var(k), e::var(iters)), |b| {
                b.try_catch(
                    |b| {
                        b.recv(chan, v, Some(e::int(40)));
                        b.set_global(msgs, e::add(e::glob(msgs), e::int(1)));
                    },
                    ExceptionType::Timeout,
                    |b| {
                        b.if_(e::lt(e::rand(0, 100), e::int(noise)), |b| {
                            b.log(Level::Debug, &format!("node{i} ingest poll idle"), vec![]);
                        });
                    },
                );
                b.assign(k, e::add(e::var(k), e::int(1)));
            });
        });

        // Monitor: waits on the tick condition. Wait-cond timeouts do
        // not throw; they just report not-ok, which we ignore.
        let (cond, mnoise) = (nid.cond, node.monitor_noise_pct);
        pb.body(nid.monitor, |b| {
            let iters = b.param(0);
            let k = b.local();
            b.assign(k, e::int(0));
            b.while_(e::lt(e::var(k), e::var(iters)), |b| {
                b.wait_cond(cond, Some(e::int(30)), None);
                b.if_(e::lt(e::rand(0, 100), e::int(mnoise)), |b| {
                    b.log(
                        Level::Warn,
                        &format!("node{i} tick monitor saw slow cycle"),
                        vec![],
                    );
                });
                b.assign(k, e::add(e::var(k), e::int(1)));
            });
        });

        // Worker: the main request loop.
        let next_chan = ids[(i + 1) % n].chan;
        let next_node = format!("node{}", (i + 1) % n);
        let (pool, task, cond, ops, send_pct) =
            (nid.pool, nid.task, nid.cond, nid.ops, node.send_pct);
        let helper_plan: Vec<(anduril_ir::FuncId, Option<i64>)> = node
            .helpers
            .iter()
            .enumerate()
            .map(|(j, h)| (nid.helpers[j], h.gate_pct))
            .collect();
        pb.body(nid.worker, |b| {
            let iters = b.param(0);
            let step = b.local();
            let fut = b.local();
            b.assign(step, e::int(0));
            b.while_(e::lt(e::var(step), e::var(iters)), |b| {
                b.sleep(e::rand(2, 9));
                for &(func, gate) in &helper_plan {
                    match gate {
                        Some(pct) => {
                            b.if_(e::lt(e::rand(0, 100), e::int(pct)), |b| {
                                b.call(func, vec![e::var(step)]);
                            });
                        }
                        None => {
                            b.call(func, vec![e::var(step)]);
                        }
                    }
                }
                b.submit(pool, task, vec![e::var(step)], fut);
                // Await can throw Execution (task died) or Timeout.
                b.try_catch(
                    |b| {
                        b.await_(fut, Some(e::int(80)), None);
                    },
                    ExceptionPattern::OneOf(vec![ExceptionType::Timeout, ExceptionType::Execution]),
                    |b| {
                        b.log(Level::Warn, &format!("node{i} flush task lagged"), vec![]);
                    },
                );
                b.if_(e::lt(e::rand(0, 100), e::int(send_pct)), |b| {
                    b.send(
                        e::str_(&next_node),
                        next_chan,
                        e::list(vec![e::self_node(), e::var(step)]),
                    );
                });
                b.signal(cond);
                b.set_global(ops, e::add(e::glob(ops), e::int(1)));
                b.assign(step, e::add(e::var(step), e::int(1)));
            });
        });

        // Main: spawn listener + monitor, drive the worker, summarize.
        let (listener, monitor, worker) = (nid.listener, nid.monitor, nid.worker);
        let (ops, errors, commits, msgs) = (nid.ops, nid.errors, nid.commits, nid.msgs);
        pb.body(nid.main, |b| {
            let iters = b.param(0);
            b.log(
                Level::Info,
                "node {} starting with {} rounds",
                vec![e::self_node(), e::var(iters)],
            );
            b.spawn("listener", listener, vec![e::var(iters)]);
            b.spawn("monitor", monitor, vec![e::var(iters)]);
            b.call(worker, vec![e::var(iters)]);
            b.log(
                Level::Info,
                "node {} done: {} ops, {} errors, {} commits, {} peer msgs",
                vec![
                    e::self_node(),
                    e::glob(ops),
                    e::glob(errors),
                    e::glob(commits),
                    e::glob(msgs),
                ],
            );
            if is_critical && !multi_fault {
                b.if_(e::gt(e::glob(degraded), e::int(0)), |b| {
                    b.log(
                        Level::Error,
                        "FATAL: replication halted on {}",
                        vec![e::self_node()],
                    );
                    b.abort("replication halted");
                });
            }
        });
    }

    let node_specs = bp
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            NodeSpec::new(
                &format!("node{i}"),
                ids[i].main,
                vec![Value::Int(node.iters)],
            )
        })
        .collect::<Vec<_>>();

    let program = pb.finish()?;
    let critical_node = format!("node{}", bp.critical);
    let crit_exc = bp.nodes[bp.critical].helpers[bp.crit_helper].exc;
    let poison_exc = bp
        .poison_helper
        .map(|a| bp.nodes[bp.critical].helpers[a].exc)
        .unwrap_or(ExceptionType::Io);
    let fatal_needle = if multi_fault {
        format!("FATAL: storage stack failed on {critical_node}")
    } else {
        format!("FATAL: replication halted on {critical_node}")
    };
    let error_needle = if multi_fault {
        "failover read failed on".to_string()
    } else {
        "journal commit failed on".to_string()
    };
    Ok(GenProgram {
        // A clone is laid out compactly: the builder's statement blocks
        // hold more spare capacity than statements (1.25 MiB over `e2e`'s
        // 42 programs), and its copy is dropped here, before planting.
        program: Arc::new(program.clone()),
        topology: Topology::new(node_specs),
        config: SimConfig::default(),
        critical_site_desc: format!("node{}.op{}", bp.critical, bp.crit_helper),
        critical_exc: crit_exc,
        poison_site_desc: bp
            .poison_helper
            .map(|a| format!("node{}.op{}", bp.critical, a)),
        poison_exc,
        critical_node,
        fatal_needle,
        error_needle,
        poison_needle: multi_fault.then(|| "journal segment poisoned on".to_string()),
        warmup_needle: bp.phase_threshold.map(|_| WARMUP_NEEDLE.to_string()),
    })
}
