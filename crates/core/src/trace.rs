//! Structured search-trace layer: a zero-dependency typed event stream
//! for the whole reproduction pipeline.
//!
//! ANDURIL's value is its feedback loop — observable priorities `I_k`,
//! fault-site priorities `F_i = min_k (L_{i,k} + I_k)`, temporal distances
//! `T_{i,j,k}` — and this module makes that loop observable. Every layer
//! of the pipeline emits typed [`TraceEvent`]s into a [`Tracer`]:
//!
//! - **context prep** ([`crate::SearchContext::prepare_traced`]): one
//!   [`TraceEvent::ContextPhase`] per phase (normal run, log parse, diff,
//!   graph build with its §4.1 sub-phases, distances, alignment, pruning)
//!   with durations and sizes, then a [`TraceEvent::ContextReady`] summary;
//! - **per round** ([`crate::explorer::explore_traced`] and
//!   [`crate::batch::explore_batched_traced`]): the strategy decision with
//!   its priority provenance (the winning unit's `F_i`, the observable
//!   `k*` and `L + I_k` that attained the min, the temporal-distance pick),
//!   simulator counters, the oracle verdict, and the `I_k` feedback applied;
//! - **lifecycle**: retry-pass starts, candidate retirements and window
//!   growth (queued by the strategy as [`StrategyNote`]s), and the batch
//!   engine's epoch/speculation hit-miss records;
//! - **on success**: a final [`TraceEvent::ProvenanceChain`] linking the
//!   reproducing injection back through the observable and graph distance
//!   that prioritized it.
//!
//! # Determinism
//!
//! The stream is deterministic: for the same case and seed, the sequential
//! and batched explorers emit identical events modulo (a) host-time fields
//! (`ns`-suffixed, excluded by [`TraceEvent::stable_json`]) and (b) the
//! batch engine's extra epoch/slot events ([`TraceEvent::is_batch_only`]).
//! `tests/trace_determinism.rs` asserts this byte for byte.
//!
//! # Overhead
//!
//! The untraced entry points delegate to the traced ones with
//! [`NoopTracer`], whose `enabled()` returns `false`; every emission site
//! is guarded on `enabled()`, so no event is ever constructed and the cost
//! is one trivial virtual call per site per round — unmeasurable next to a
//! simulation run.
//!
//! # Format
//!
//! [`FileTracer`] writes one hand-rolled JSON object per line (the style
//! of `anduril analyze`), parseable by the minimal reader in [`Json`] and
//! rendered by the `anduril trace` subcommand.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use anduril_ir::{ExceptionType, SiteId};

/// Priority provenance of the top-ranked candidate of a planning pass —
/// *why* the strategy put this unit first, in the paper's §5.2 terms.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProvenance {
    /// The winning fault site.
    pub site: SiteId,
    /// The exception type of the winning unit.
    pub exc: ExceptionType,
    /// The armed occurrence (`None` = any-occurrence candidate).
    pub occurrence: Option<u32>,
    /// The site-level priority `F_i` that won.
    pub f_i: f64,
    /// The observable `k*` attaining the min in `F_i`.
    pub k_star: usize,
    /// Spatial distance `L_{i,k*}`.
    pub l: u32,
    /// Observable feedback `I_{k*}` at planning time.
    pub i_k: f64,
    /// Temporal distance `T` of the armed instance.
    pub temporal: f64,
}

/// A lifecycle note queued by a strategy during planning or feedback and
/// drained by the explorer (which owns the tracer) via
/// [`crate::Strategy::drain_notes`].
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyNote {
    /// The prioritized space was exhausted and a fresh retry pass started
    /// (the §6 per-seed retry; `pass` counts completed passes).
    RetryPass {
        /// Completed passes so far.
        pass: usize,
    },
    /// The flexible window doubled after a no-injection round (§5.2.5).
    WindowGrew {
        /// The new window size.
        window: usize,
    },
    /// An armed any-occurrence candidate was retired because nothing in
    /// its window fired.
    Retired {
        /// The retired candidate's site.
        site: SiteId,
        /// The retired candidate's exception type.
        exc: ExceptionType,
    },
    /// Plans were skipped this round because their occurrence index
    /// exceeds the site's static `hi` bound (the dataflow pruning pass).
    BoundPruned {
        /// How many candidate plans the bounds proved infeasible.
        count: usize,
    },
    /// The prioritized space ran dry — queued immediately before the
    /// retry-pass reset, so stall onset is visible in traces independently
    /// of whether the adaptive layer reacts to it.
    WindowExhausted {
        /// The flexible-window size at exhaustion.
        window: usize,
        /// The pass that just ran dry (0-based; `RetryPass` then reports
        /// `pass + 1` completed passes).
        pass: usize,
    },
}

/// One typed event in the search-trace stream.
///
/// See DESIGN.md §10 for the full schema table (kind → fields → emitter).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One timed context-preparation phase (`ev: "phase"`).
    ContextPhase {
        /// Phase name (`normal_run`, `parse_failure_log`, `diff`,
        /// `observables`, `graph`, `graph.exception`, `graph.slicing`,
        /// `graph.chaining`, `distances`, `alignment`, `pruning`).
        phase: &'static str,
        /// Phase-specific size (entries, nodes, sites, …).
        items: u64,
        /// Host nanoseconds spent (volatile).
        ns: u64,
    },
    /// Context-preparation summary (`ev: "context"`).
    ContextReady {
        /// Relevant observables identified by the diff.
        observables: usize,
        /// Static fault candidates after pruning.
        units: usize,
        /// Total static fault sites in the program.
        sites_total: usize,
        /// Sites statically reachable from the workload roots.
        sites_reachable: usize,
        /// Reachable candidate sites the occurrence bounds leave alive
        /// (`hi != 0`).
        sites_bounded: usize,
        /// Causal-graph node count.
        graph_nodes: usize,
        /// Causal-graph edge count.
        graph_edges: usize,
    },
    /// Exploration started (`ev: "explore_start"`).
    ExploreStart {
        /// Strategy name.
        strategy: String,
        /// Round budget.
        max_rounds: usize,
        /// Seed of the normal run (round `r` uses `base_seed + 1 + r`).
        base_seed: u64,
    },
    /// A round was planned and is about to execute (`ev: "round_start"`).
    RoundStart {
        /// Round number (0-based).
        round: usize,
        /// Simulation seed of the round.
        seed: u64,
    },
    /// The strategy's decision for a round (`ev: "decision"`).
    Decision {
        /// Round number.
        round: usize,
        /// Flexible-window size used.
        window: usize,
        /// Candidates armed (incl. a crash point, if any).
        armed: usize,
        /// Priority provenance of the top-ranked candidate, when the
        /// strategy ranks (baselines emit `null`).
        provenance: Option<PlanProvenance>,
        /// Host nanoseconds spent planning (volatile).
        init_ns: u64,
    },
    /// A strategy lifecycle note (`ev: "note"`).
    Note {
        /// Round the note surfaced at.
        round: usize,
        /// The note.
        note: StrategyNote,
    },
    /// The batch engine started a speculate-execute-validate epoch
    /// (`ev: "epoch"`, batch-only).
    EpochStart {
        /// Epoch number (0-based).
        epoch: usize,
        /// First round of the epoch.
        round: usize,
        /// Speculative jobs planned.
        jobs: usize,
    },
    /// Validation verdict for one speculative slot (`ev: "spec"`,
    /// batch-only): `hit` means the precomputed run was reused.
    Speculation {
        /// Round validated.
        round: usize,
        /// Epoch it was speculated in.
        epoch: usize,
        /// Slot within the epoch.
        slot: usize,
        /// Whether the speculative result was reused.
        hit: bool,
    },
    /// A round finished executing (`ev: "round_end"`).
    RoundEnd {
        /// Round number.
        round: usize,
        /// What injected, if anything.
        injected: Option<(SiteId, u32, ExceptionType)>,
        /// Oracle verdict.
        oracle: bool,
        /// Simulated ticks the run covered.
        ticks: u64,
        /// Statements executed.
        steps: u64,
        /// Log messages delivered (the paper's message-count clock).
        log_entries: usize,
        /// `FIR.throwIfEnabled` requests served.
        injection_requests: u64,
        /// Host nanoseconds executing the workload (volatile).
        workload_ns: u64,
        /// Host nanoseconds the search spent getting the round's result:
        /// the `run_round` call (cache lookup, resume, and the workload), or
        /// the speculative job's workload on a speculation hit; plus §6
        /// extra runs (volatile).
        sim_ns: u64,
        /// Host nanoseconds finding the observables present in the round's
        /// log — the per-round diff; `0` for the round that satisfied the
        /// oracle, which needs none (volatile).
        diff_ns: u64,
        /// Host nanoseconds in `Strategy::feedback` (volatile).
        feedback_ns: u64,
    },
    /// Observable feedback applied after an unsuccessful round
    /// (`ev: "feedback"`): each present observable's `I_k` moved by
    /// `adjust` (Algorithm 2).
    Feedback {
        /// Round number.
        round: usize,
        /// Observables present in the round's log (post §6 union).
        present: Vec<usize>,
        /// The per-observable adjustment `s` applied.
        adjust: f64,
        /// The full `I_k` vector *after* this round's adjustment.
        i_k: Vec<f64>,
    },
    /// A synthetic observable was promoted into the live search
    /// (`ev: "promoted"`): the adaptive layer reacted to a stall by
    /// instrumenting a causal-graph interior node near the current
    /// top-ranked fault sites. Carries full provenance — the source graph
    /// node, the retry pass that triggered it, and the spatial-distance
    /// delta the focus site gained.
    ObservablePromoted {
        /// Round the promotion took effect at (it influences planning from
        /// the next round on).
        round: usize,
        /// Index the new observable occupies in the grown observable set.
        k: usize,
        /// The witness log template's text.
        template: String,
        /// The focus fault site the interior node was selected near.
        site: SiteId,
        /// Causal-graph node id of the promoted interior node.
        node: u32,
        /// Human-readable description of the interior node.
        node_desc: String,
        /// The retry pass whose stall triggered the promotion.
        pass: usize,
        /// Spatial distance `L` from the focus site to the new observable.
        l_new: u32,
        /// The focus site's best spatial distance over the pre-existing
        /// observables.
        l_old: u32,
        /// Fault units the promotion's scoped causal build newly connected
        /// (zero for refinement promotions over the prepared graph).
        units_added: usize,
    },
    /// The final provenance chain on success (`ev: "provenance"`): from
    /// the reproducing injection back through the observable and graph
    /// distance that prioritized it.
    ProvenanceChain {
        /// The reproducing round.
        round: usize,
        /// The reproducing seed.
        seed: u64,
        /// Root-cause fault site.
        site: SiteId,
        /// Human-readable site description.
        desc: String,
        /// The occurrence that fired.
        occurrence: u32,
        /// The injected exception type.
        exc: ExceptionType,
        /// The argmin observable's log-template text.
        observable: String,
        /// The argmin observable index `k*`.
        k_star: usize,
        /// Spatial distance `L_{i,k*}`.
        l: u32,
        /// Observable feedback `I_{k*}` at the end.
        i_k: f64,
        /// Site priority `F_i` at the end.
        f_i: f64,
        /// Temporal distance of the best remaining instance, if any.
        temporal: Option<f64>,
    },
    /// Exploration finished (`ev: "explore_end"`).
    ExploreEnd {
        /// Whether the failure was reproduced.
        success: bool,
        /// Rounds executed.
        rounds: usize,
        /// Whether the script replayed successfully.
        replay_verified: bool,
        /// Wall-clock nanoseconds of the whole exploration (volatile).
        wall_ns: u64,
    },
}

/// Formats an `f64` as a JSON number (`null` when not finite, integer form
/// when exact) so the stream stays deterministic and parseable.
fn jf(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a hand-rolled JSON document (the `analyze` style).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn usize_list(xs: &[usize]) -> String {
    let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", body.join(","))
}

fn f64_list(xs: &[f64]) -> String {
    let body: Vec<String> = xs.iter().map(|&x| jf(x)).collect();
    format!("[{}]", body.join(","))
}

fn provenance_json(p: &PlanProvenance) -> String {
    format!(
        "{{\"site\":{},\"exc\":\"{}\",\"occ\":{},\"f\":{},\"k\":{},\"l\":{},\"ik\":{},\"t\":{}}}",
        p.site.0,
        p.exc.name(),
        p.occurrence
            .map(|o| o.to_string())
            .unwrap_or_else(|| "null".into()),
        jf(p.f_i),
        p.k_star,
        p.l,
        jf(p.i_k),
        jf(p.temporal),
    )
}

impl TraceEvent {
    /// `true` for events only the batch engine emits (epoch/slot records);
    /// the sequential stream never contains them.
    pub fn is_batch_only(&self) -> bool {
        matches!(
            self,
            TraceEvent::EpochStart { .. } | TraceEvent::Speculation { .. }
        )
    }

    /// Serializes the event as one JSONL line (no trailing newline),
    /// including the volatile host-time fields.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// The deterministic serialization: identical across sequential and
    /// batched runs of the same search (volatile `*_ns` fields omitted).
    pub fn stable_json(&self) -> String {
        self.render(false)
    }

    fn render(&self, volatile: bool) -> String {
        use std::fmt::Write as _;
        match self {
            TraceEvent::ContextPhase { phase, items, ns } => {
                let mut s = format!("{{\"ev\":\"phase\",\"phase\":\"{phase}\",\"items\":{items}");
                if volatile {
                    let _ = write!(s, ",\"ns\":{ns}");
                }
                s.push('}');
                s
            }
            TraceEvent::ContextReady {
                observables,
                units,
                sites_total,
                sites_reachable,
                sites_bounded,
                graph_nodes,
                graph_edges,
            } => format!(
                "{{\"ev\":\"context\",\"observables\":{observables},\"units\":{units},\
                 \"sites_total\":{sites_total},\"sites_reachable\":{sites_reachable},\
                 \"sites_bounded\":{sites_bounded},\
                 \"graph_nodes\":{graph_nodes},\"graph_edges\":{graph_edges}}}"
            ),
            TraceEvent::ExploreStart {
                strategy,
                max_rounds,
                base_seed,
            } => format!(
                "{{\"ev\":\"explore_start\",\"strategy\":\"{}\",\"max_rounds\":{max_rounds},\
                 \"base_seed\":{base_seed}}}",
                json_escape(strategy)
            ),
            TraceEvent::RoundStart { round, seed } => {
                format!("{{\"ev\":\"round_start\",\"round\":{round},\"seed\":{seed}}}")
            }
            TraceEvent::Decision {
                round,
                window,
                armed,
                provenance,
                init_ns,
            } => {
                let mut s = format!(
                    "{{\"ev\":\"decision\",\"round\":{round},\"window\":{window},\
                     \"armed\":{armed},\"provenance\":{}",
                    provenance
                        .as_ref()
                        .map(provenance_json)
                        .unwrap_or_else(|| "null".into())
                );
                if volatile {
                    let _ = write!(s, ",\"init_ns\":{init_ns}");
                }
                s.push('}');
                s
            }
            TraceEvent::Note { round, note } => match note {
                StrategyNote::RetryPass { pass } => format!(
                    "{{\"ev\":\"note\",\"round\":{round},\"note\":\"retry_pass\",\"pass\":{pass}}}"
                ),
                StrategyNote::WindowGrew { window } => format!(
                    "{{\"ev\":\"note\",\"round\":{round},\"note\":\"window_grew\",\
                     \"window\":{window}}}"
                ),
                StrategyNote::Retired { site, exc } => format!(
                    "{{\"ev\":\"note\",\"round\":{round},\"note\":\"retired\",\"site\":{},\
                     \"exc\":\"{}\"}}",
                    site.0,
                    exc.name()
                ),
                StrategyNote::BoundPruned { count } => format!(
                    "{{\"ev\":\"note\",\"round\":{round},\"note\":\"bound_pruned\",\
                     \"count\":{count}}}"
                ),
                StrategyNote::WindowExhausted { window, pass } => format!(
                    "{{\"ev\":\"note\",\"round\":{round},\"note\":\"window_exhausted\",\
                     \"window\":{window},\"pass\":{pass}}}"
                ),
            },
            TraceEvent::ObservablePromoted {
                round,
                k,
                template,
                site,
                node,
                node_desc,
                pass,
                l_new,
                l_old,
                units_added,
            } => format!(
                "{{\"ev\":\"promoted\",\"round\":{round},\"k\":{k},\"template\":\"{}\",\
                 \"site\":{},\"node\":{node},\"node_desc\":\"{}\",\"pass\":{pass},\
                 \"l_new\":{l_new},\"l_old\":{l_old},\"delta\":{},\
                 \"units_added\":{units_added}}}",
                json_escape(template),
                site.0,
                json_escape(node_desc),
                *l_old as i64 - *l_new as i64
            ),
            TraceEvent::EpochStart { epoch, round, jobs } => {
                format!("{{\"ev\":\"epoch\",\"epoch\":{epoch},\"round\":{round},\"jobs\":{jobs}}}")
            }
            TraceEvent::Speculation {
                round,
                epoch,
                slot,
                hit,
            } => format!(
                "{{\"ev\":\"spec\",\"round\":{round},\"epoch\":{epoch},\"slot\":{slot},\
                 \"hit\":{hit}}}"
            ),
            TraceEvent::RoundEnd {
                round,
                injected,
                oracle,
                ticks,
                steps,
                log_entries,
                injection_requests,
                workload_ns,
                sim_ns,
                diff_ns,
                feedback_ns,
            } => {
                let inj = injected
                    .as_ref()
                    .map(|(site, occ, exc)| {
                        format!(
                            "{{\"site\":{},\"occ\":{occ},\"exc\":\"{}\"}}",
                            site.0,
                            exc.name()
                        )
                    })
                    .unwrap_or_else(|| "null".into());
                let mut s = format!(
                    "{{\"ev\":\"round_end\",\"round\":{round},\"injected\":{inj},\
                     \"oracle\":{oracle},\"ticks\":{ticks},\"steps\":{steps},\
                     \"log_entries\":{log_entries},\"injection_requests\":{injection_requests}"
                );
                if volatile {
                    let _ = write!(
                        s,
                        ",\"workload_ns\":{workload_ns},\"sim_ns\":{sim_ns},\
                         \"diff_ns\":{diff_ns},\"feedback_ns\":{feedback_ns}"
                    );
                }
                s.push('}');
                s
            }
            TraceEvent::Feedback {
                round,
                present,
                adjust,
                i_k,
            } => format!(
                "{{\"ev\":\"feedback\",\"round\":{round},\"present\":{},\"adjust\":{},\
                 \"ik\":{}}}",
                usize_list(present),
                jf(*adjust),
                f64_list(i_k)
            ),
            TraceEvent::ProvenanceChain {
                round,
                seed,
                site,
                desc,
                occurrence,
                exc,
                observable,
                k_star,
                l,
                i_k,
                f_i,
                temporal,
            } => format!(
                "{{\"ev\":\"provenance\",\"round\":{round},\"seed\":{seed},\"site\":{},\
                 \"desc\":\"{}\",\"occ\":{occurrence},\"exc\":\"{}\",\"observable\":\"{}\",\
                 \"k\":{k_star},\"l\":{l},\"ik\":{},\"f\":{},\"t\":{}}}",
                site.0,
                json_escape(desc),
                exc.name(),
                json_escape(observable),
                jf(*i_k),
                jf(*f_i),
                temporal.map(jf).unwrap_or_else(|| "null".into())
            ),
            TraceEvent::ExploreEnd {
                success,
                rounds,
                replay_verified,
                wall_ns,
            } => {
                let mut s = format!(
                    "{{\"ev\":\"explore_end\",\"success\":{success},\"rounds\":{rounds},\
                     \"replay_verified\":{replay_verified}"
                );
                if volatile {
                    let _ = write!(s, ",\"wall_ns\":{wall_ns}");
                }
                s.push('}');
                s
            }
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations take `&self` (interior mutability) so one tracer can be
/// shared by the context, the explorer, and the batch engine without
/// threading `&mut` through every layer.
pub trait Tracer: Send + Sync {
    /// Whether events will be recorded. Emission sites guard on this, so a
    /// disabled tracer never pays for event construction.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, ev: TraceEvent);

    /// Flushes buffered output (no-op for unbuffered tracers).
    fn flush(&self) {}
}

/// The disabled tracer: `enabled()` is `false` and `record` does nothing.
/// The untraced entry points (`explore`, `reproduce`, …) use this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&self, _ev: TraceEvent) {}
}

/// An in-memory tracer collecting events into a vector; the test and
/// bench harnesses read it back with [`VecTracer::events`].
#[derive(Debug, Default)]
pub struct VecTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        VecTracer::default()
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("tracer poisoned").clone()
    }

    /// Takes the recorded events, leaving the tracer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("tracer poisoned"))
    }
}

impl Tracer for VecTracer {
    fn record(&self, ev: TraceEvent) {
        self.events.lock().expect("tracer poisoned").push(ev);
    }
}

/// A buffered JSONL file tracer: one [`TraceEvent::to_json`] line per
/// event, flushed on [`Tracer::flush`] and on drop.
#[derive(Debug)]
pub struct FileTracer {
    out: Mutex<BufWriter<File>>,
}

impl FileTracer {
    /// Creates (truncating) the trace file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<FileTracer> {
        Ok(FileTracer {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl Tracer for FileTracer {
    fn record(&self, ev: TraceEvent) {
        let mut out = self.out.lock().expect("tracer poisoned");
        let _ = writeln!(out, "{}", ev.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("tracer poisoned").flush();
    }
}

impl Drop for FileTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A minimal JSON value, just rich enough to read the trace stream back
/// (`anduril trace` uses it; no external dependency).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (trace numbers all fit `f64` exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; `None` on any syntax error or trailing
    /// garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match b.get(*pos)? {
        b'{' => parse_obj(b, pos),
        b'[' => parse_arr(b, pos),
        b'"' => parse_str(b, pos).map(Json::Str),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Json::Null),
        _ => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if matches!(b.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

fn parse_str(b: &[u8], pos: &mut usize) -> Option<String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return None;
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            _ => return None,
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Option<Json> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_round_trips_through_the_parser() {
        let events = vec![
            TraceEvent::ContextPhase {
                phase: "graph.slicing",
                items: 42,
                ns: 1234,
            },
            TraceEvent::ContextReady {
                observables: 2,
                units: 14,
                sites_total: 40,
                sites_reachable: 30,
                sites_bounded: 28,
                graph_nodes: 120,
                graph_edges: 240,
            },
            TraceEvent::ExploreStart {
                strategy: "full-feedback".into(),
                max_rounds: 2000,
                base_seed: 1000,
            },
            TraceEvent::RoundStart {
                round: 0,
                seed: 1001,
            },
            TraceEvent::Decision {
                round: 0,
                window: 10,
                armed: 10,
                provenance: Some(PlanProvenance {
                    site: SiteId(3),
                    exc: ExceptionType::Io,
                    occurrence: Some(5),
                    f_i: 2.0,
                    k_star: 0,
                    l: 2,
                    i_k: 0.0,
                    temporal: f64::INFINITY,
                }),
                init_ns: 77,
            },
            TraceEvent::Note {
                round: 3,
                note: StrategyNote::Retired {
                    site: SiteId(4),
                    exc: ExceptionType::Io,
                },
            },
            TraceEvent::Note {
                round: 9,
                note: StrategyNote::WindowGrew { window: 20 },
            },
            TraceEvent::Note {
                round: 12,
                note: StrategyNote::RetryPass { pass: 1 },
            },
            TraceEvent::Note {
                round: 13,
                note: StrategyNote::BoundPruned { count: 6 },
            },
            TraceEvent::Note {
                round: 14,
                note: StrategyNote::WindowExhausted {
                    window: 40,
                    pass: 0,
                },
            },
            TraceEvent::ObservablePromoted {
                round: 14,
                k: 3,
                template: "wal rotated".into(),
                site: SiteId(3),
                node: 17,
                node_desc: "condition @ b4:2".into(),
                pass: 1,
                l_new: 1,
                l_old: 4,
                units_added: 2,
            },
            TraceEvent::EpochStart {
                epoch: 0,
                round: 0,
                jobs: 8,
            },
            TraceEvent::Speculation {
                round: 3,
                epoch: 0,
                slot: 3,
                hit: true,
            },
            TraceEvent::RoundEnd {
                round: 0,
                injected: Some((SiteId(3), 5, ExceptionType::Io)),
                oracle: false,
                ticks: 5000,
                steps: 999,
                log_entries: 55,
                injection_requests: 12,
                workload_ns: 1,
                sim_ns: 2,
                diff_ns: 3,
                feedback_ns: 4,
            },
            TraceEvent::Feedback {
                round: 0,
                present: vec![0, 2],
                adjust: 1.0,
                i_k: vec![1.0, 0.0, 1.5],
            },
            TraceEvent::ProvenanceChain {
                round: 17,
                seed: 1018,
                site: SiteId(3),
                desc: "write \"wal\" entry".into(),
                occurrence: 5,
                exc: ExceptionType::Io,
                observable: "sync failed: {}".into(),
                k_star: 0,
                l: 2,
                i_k: 3.0,
                f_i: 5.0,
                temporal: Some(4.5),
            },
            TraceEvent::ExploreEnd {
                success: true,
                rounds: 18,
                replay_verified: true,
                wall_ns: 123,
            },
        ];
        for ev in &events {
            for line in [ev.to_json(), ev.stable_json()] {
                let v = Json::parse(&line).unwrap_or_else(|| panic!("unparseable line: {line}"));
                assert!(v.get("ev").and_then(Json::as_str).is_some(), "{line}");
            }
        }
        // Volatile fields are present with `to_json` and absent from
        // `stable_json`.
        let end = events.last().unwrap().to_json();
        assert!(end.contains("wall_ns"));
        assert!(!events.last().unwrap().stable_json().contains("wall_ns"));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v =
            Json::parse("{\"a\": [1, -2.5, \"x\\ny\", null, true], \"b\": {\"c\": \"\\u0041\"}}")
                .expect("parse");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse("{"), None);
        assert_eq!(Json::parse("12 trailing"), None);
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let ev = TraceEvent::Feedback {
            round: 0,
            present: vec![],
            adjust: f64::INFINITY,
            i_k: vec![f64::NAN],
        };
        let line = ev.to_json();
        assert!(Json::parse(&line).is_some(), "{line}");
        assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
    }
}
