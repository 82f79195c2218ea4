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
//!   graph build with its §4.1 sub-phases, distances, alignment, pruning,
//!   the logged throwables) with durations and sizes, then a
//!   [`TraceEvent::ContextReady`] summary;
//! - **per round** ([`crate::explorer::explore_traced`] and
//!   [`crate::batch::explore_batched_traced`]): the strategy decision with
//!   its priority provenance (the winning unit's `F_i`, the observable
//!   `k*` and `L + I_k` that attained the min, the temporal-distance pick),
//!   simulator counters, the oracle verdict, and the `I_k` feedback applied;
//!   given the ground truth, its rank in each round's plan (Figure 6);
//! - **lifecycle**: window exhaustion, candidate retirements, window
//!   growth and observable promotions (queued by the strategy as
//!   [`StrategyNote`]s), and the batch engine's epoch/speculation hit-miss
//!   records;
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
//! [`FileTracer`] writes one hand-rolled JSON object per line. This file
//! is the only one that knows the wire format, and it spells each key
//! once: a table with one row per `ev` kind and per note kind lists each
//! variant's fields in key order, and a small per-type codec writes a
//! field and reads it back. [`TraceEvent::to_json`],
//! [`TraceEvent::stable_json`] and [`TraceEvent::parse_line`] (through the
//! minimal [`Json`] reader) interpret that table; [`read_stream`] reads a
//! whole file. The reader's compatibility rule, so that old and cut
//! streams stay readable while a schema slip is loud:
//!
//! - an `ev` or `note` kind this build does not know is skipped;
//! - a key it does not know is ignored;
//! - a missing volatile `*_ns` field reads `0` (which is what a
//!   `stable_json` line and a stream older than the field look like);
//! - any other missing or mistyped key is an error naming line and key;
//! - a final line cut before its newline (the search died mid-write) is
//!   dropped and reported; a malformed line anywhere else is an error.
//!
//! [`report`] renders a `&[TraceEvent]` as the four `anduril trace`
//! reports.

mod json;
pub mod report;
mod sink;

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use anduril_ir::{ExceptionType, SiteId};

pub use json::Json;
pub use sink::{FileTracer, NoopTracer, Tracer, VecTracer};

/// Why a fault unit ranks where it does, in the paper's §5.2 terms.
///
/// Built only by [`crate::FeedbackStrategy::explain_unit`]; read by each
/// round's `decision` (the plan's top-ranked unit), by the final
/// [`TraceEvent::ProvenanceChain`] and by `anduril explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProvenance {
    /// The fault site.
    pub site: SiteId,
    /// The exception type of the unit.
    pub exc: ExceptionType,
    /// The occurrence the unit would arm next (`None` = any-occurrence
    /// candidate).
    pub occurrence: Option<u32>,
    /// The site-level priority `F_i`.
    pub f_i: f64,
    /// The observable `k*` attaining the min in `F_i`.
    pub k_star: usize,
    /// Spatial distance `L_{i,k*}`.
    pub l: u32,
    /// Observable feedback `I_{k*}` when asked.
    pub i_k: f64,
    /// Temporal distance `T` of that occurrence.
    pub temporal: f64,
}

/// A lifecycle note queued by a strategy during planning or feedback and
/// drained by the explorer (which owns the tracer) via
/// [`crate::FeedbackStrategy::drain_notes`].
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyNote {
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
    /// The prioritized space ran dry and pass `pass + 1` of the §6
    /// per-seed retry begins: stall onset is visible in traces whether or
    /// not the strategy promotes observables at it.
    WindowExhausted {
        /// The flexible-window size at exhaustion.
        window: usize,
        /// The pass that just ran dry (0-based).
        pass: usize,
    },
    /// A synthetic observable was promoted into the live search: the
    /// `full-adaptive` model reacted to an exhausted window by
    /// instrumenting a witness log statement in the function of a fault
    /// site no unit covered (DESIGN.md §15), and queued this directly
    /// behind the `WindowExhausted` note. Carries its provenance — the
    /// witness, the retry pass that triggered it, and the spatial distance
    /// the focus site gained. Written as an event kind of its own, `ev:
    /// "promoted"`.
    ObservablePromoted {
        /// Index the new observable occupies in the grown observable set.
        k: usize,
        /// The witness log template's text.
        template: String,
        /// The focus fault site the witness was selected near.
        site: SiteId,
        /// Human-readable description of the witness log statement.
        node_desc: String,
        /// The retry pass whose stall triggered the promotion.
        pass: usize,
        /// Spatial distance `L` from the focus site to the new observable.
        l_new: u32,
        /// Fault units the promotion's scoped causal build newly
        /// connected, the focus site's among them.
        units_added: usize,
    },
}

/// One typed event in the search-trace stream.
///
/// See DESIGN.md §10 for the full schema table (kind → fields → emitter).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One timed context-preparation phase (`ev: "phase"`).
    ContextPhase {
        /// Phase name (`sim.compile`, `normal_run`, `parse_logs`, `diff`,
        /// `observables`, `graph`, `graph.exception`, `graph.slicing`,
        /// `graph.chaining`, `distances`, `alignment`, `pruning`,
        /// `evidence`): static where it is emitted, owned when read back
        /// from a file.
        phase: Cow<'static, str>,
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
        /// Candidates armed (incl. a crash point, if any).
        armed: usize,
        /// Priority provenance of the top-ranked candidate, when the
        /// strategy ranks (baselines emit `null`).
        provenance: Option<PlanProvenance>,
        /// Host nanoseconds spent planning (volatile).
        init_ns: u64,
    },
    /// Where the plan just made ranks the ground-truth root-cause site
    /// (`ev: "gt_rank"`, Figure 6): recorded right after the round's
    /// `decision` when the search was given a ground truth.
    GroundTruthRank {
        /// Round number.
        round: usize,
        /// The ground-truth fault site.
        site: SiteId,
        /// Its rank (1 = best) in the plan's site ordering; `None` when the
        /// strategy ranks no sites or did not rank this one.
        rank: Option<usize>,
    },
    /// A strategy lifecycle note (`ev: "note"`, or `ev: "promoted"` for a
    /// [`StrategyNote::ObservablePromoted`]).
    Note {
        /// Round the note surfaced at (a promotion shapes planning from
        /// the next round on).
        round: usize,
        /// The note.
        note: StrategyNote,
    },
    /// The batch engine made a speculative copy of the model, at round 0
    /// or after a miss: an epoch is one copy's lifetime (`ev: "epoch"`,
    /// batch-only).
    EpochStart {
        /// Epoch number (0-based).
        epoch: usize,
        /// First round of the epoch.
        round: usize,
        /// Rounds the copy planned and queued at once (its lookahead).
        jobs: usize,
    },
    /// Validation verdict for one round the copy planned (`ev: "spec"`,
    /// batch-only): `hit` means the precomputed run was reused.
    Speculation {
        /// Round validated.
        round: usize,
        /// Epoch it was speculated in.
        epoch: usize,
        /// Rounds since the epoch's first.
        slot: usize,
        /// Whether the speculative result was reused.
        hit: bool,
    },
    /// An error stopped the round's run (`ev: "round_error"`): the step
    /// limit exceeded, a type error under an injected fault. The round
    /// counts as unsuccessful; its `round_end` describes the run up to the
    /// error.
    RoundError {
        /// Round number.
        round: usize,
        /// The simulator's message.
        error: String,
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
        /// Temporal distance `T` of the unit's best untried instance.
        temporal: Option<f64>,
    },
    /// Exploration finished (`ev: "explore_end"`).
    ExploreEnd {
        /// Whether the failure was reproduced.
        success: bool,
        /// Rounds executed.
        rounds: usize,
        /// Whether the script's replay satisfies the oracle
        /// ([`crate::Reproduction::replay_verified`]).
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
fn json_escape(s: &str) -> String {
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

/// `item` of each element, `sep` between them (the reports' lists).
fn join<T>(xs: &[T], sep: &str, item: impl Fn(&T) -> String) -> String {
    xs.iter().map(item).collect::<Vec<_>>().join(sep)
}

// What a line carries beside its row's fields: its kind under `ev`; for
// a note, `round`, and (unless the row is tagged `ev`) `ev: "note"` with
// the note's own kind under `note`.
const EV: &str = "ev";
const NOTE: &str = "note";
const ROUND: &str = "round";

/// The per-type half of the wire format: how a field's value is written
/// into a line and read back from one (the per-kind half is the table
/// below).
trait Wire: Sized {
    /// The value's JSON form.
    fn put(&self) -> String;

    /// The value `v` holds. One of the wrong type is an error naming
    /// `key`, the member `v` was read from; a nested object names its own
    /// keys.
    fn get(v: &Json, key: &'static str) -> Result<Self, LineError>;
}

/// `Wire` for the types one JSON scalar holds: `|value|` how it is
/// written, `|json|` what reads back (`None` is a mistyped key).
macro_rules! wire_scalar {
    ($($T:ty => |$x:ident| $put:expr, |$v:ident| $get:expr;)*) => {$(
        impl Wire for $T {
            fn put(&self) -> String {
                let $x = self;
                $put
            }

            fn get($v: &Json, key: &'static str) -> Result<Self, LineError> {
                $get.ok_or(LineError::Key(key))
            }
        }
    )*};
}

// An integer must fit its type. A float written `null` (not finite)
// reads back as the one the search produces, infinity (no reachable
// instance).
wire_scalar! {
    usize => |n| n.to_string(), |v| v.as_u64().and_then(|n| n.try_into().ok());
    u32 => |n| n.to_string(), |v| v.as_u64().and_then(|n| n.try_into().ok());
    u64 => |n| n.to_string(), |v| v.as_u64();
    bool => |b| b.to_string(), |v| v.as_bool();
    f64 => |x| jf(*x), |v| v.as_f64().or((*v == Json::Null).then_some(f64::INFINITY));
    String => |s| quoted(s), |v| v.as_str().map(String::from);
    Cow<'static, str> => |s| quoted(s), |v| v.as_str().map(|s| s.to_string().into());
    SiteId => |s| s.0.to_string(), |v| v.as_u64().and_then(|n| n.try_into().ok()).map(SiteId);
    ExceptionType => |e| quoted(e.name()), |v| v.as_str().and_then(ExceptionType::parse);
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// `None` is `null`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self) -> String {
        self.as_ref().map_or_else(|| "null".into(), T::put)
    }

    fn get(v: &Json, key: &'static str) -> Result<Self, LineError> {
        match v {
            Json::Null => Ok(None),
            v => T::get(v, key).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self) -> String {
        format!("[{}]", join(self, ",", T::put))
    }

    fn get(v: &Json, key: &'static str) -> Result<Self, LineError> {
        let items = v.as_arr().ok_or(LineError::Key(key))?;
        items.iter().map(|x| T::get(x, key)).collect()
    }
}

/// The key a table field is written under: its own name, or the one the
/// row gives with `as`.
macro_rules! key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident as $key:literal) => {
        $key
    };
}

/// `Wire` for a nested object, from its fields in key order: a struct
/// (`Name { field, … }`) or a tuple (`(field: Type, …)`).
macro_rules! wire_object {
    ($T:ident { $($f:ident $(as $k:literal)?),* $(,)? }) => {
        wire_object!(@ $T, [$T { $($f),* }], $($f $(as $k)?),*);
    };
    (($($f:ident: $t:ty),* $(,)?)) => {
        wire_object!(@ ($($t),*), [($($f),*)], $($f),*);
    };
    // `$shape` is both the pattern that takes the value apart and the
    // expression that puts it back together.
    (@ $T:ty, [$($shape:tt)*], $($f:ident $(as $k:literal)?),*) => {
        impl Wire for $T {
            fn put(&self) -> String {
                let $($shape)* = self;
                let mut obj = String::new();
                $(member(&mut obj, key!($f $(as $k)?), &$f.put());)*
                obj + "}"
            }

            fn get(v: &Json, key: &'static str) -> Result<Self, LineError> {
                if !matches!(v, Json::Obj(_)) {
                    return Err(LineError::Key(key));
                }
                $(let $f = field(v, key!($f $(as $k)?))?;)*
                Ok($($shape)*)
            }
        }
    };
}

wire_object! {
    PlanProvenance {
        site, exc, occurrence as "occ", f_i as "f", k_star as "k", l, i_k as "ik", temporal as "t"
    }
}

// `RoundEnd::injected`.
wire_object! { (site: SiteId, occ: u32, exc: ExceptionType) }

/// Adds member `key`, holding `value`, to the object being written into
/// `obj`: the first opens it, and the caller closes it with `}`.
fn member(obj: &mut String, key: &str, value: &str) {
    obj.push(if obj.is_empty() { '{' } else { ',' });
    let _ = write!(obj, "\"{key}\":{value}");
}

/// Member `key` of object `o`; missing or mistyped is an error naming it.
fn field<T: Wire>(o: &Json, key: &'static str) -> Result<T, LineError> {
    T::get(o.get(key).ok_or(LineError::Key(key))?, key)
}

/// A volatile host-time member: `0` where the line carries none.
fn host_ns(o: &Json, key: &'static str) -> Result<u64, LineError> {
    o.get(key).map_or(Ok(0), |v| u64::get(v, key))
}

/// The kind a line or a note names under `key`.
fn kind<'a>(o: &'a Json, key: &'static str) -> Result<&'a str, LineError> {
    o.get(key).and_then(Json::as_str).ok_or(LineError::Key(key))
}

/// The `(ev, note)` kinds of a note row's lines: `ev: "note"` with the
/// row's kind under `"note"`, or, for a row tagged `ev`, the row's kind as
/// the line's `ev` and no `"note"`.
macro_rules! note_kinds {
    (note, $kind:literal) => {
        (NOTE, Some($kind))
    };
    (ev, $kind:literal) => {
        ($kind, None)
    };
}

/// The per-kind half of the wire format, expanded into the writer
/// (`TraceEvent::render`) and the reader (`TraceEvent::read`).
///
/// One row per `ev` kind and per note kind lists its variant's fields
/// once, in key order; the pattern that takes a variant apart and the
/// expression that builds it are both spelled from the row, so a field or
/// a variant without a row does not compile. A field is written under its
/// own name unless the row gives a key with `as`. A `volatile` group holds
/// the host-time `*_ns` fields: left out of a `stable_json` line, and read
/// as `0` where a line has none.
macro_rules! wire_format {
    (
        events { $(
            $Ev:ident $kind:literal { $($f:ident $(as $fk:literal)?),* $(,)? }
            $(volatile { $($v:ident),* $(,)? })?
        ),* $(,)? }
        notes { $(
            $Note:ident $tag:ident $note_kind:literal {
                $($g:ident $(as $gk:literal)?),* $(,)?
            }
        ),* $(,)? }
    ) => {
        impl TraceEvent {
            fn render(&self, volatile: bool) -> String {
                let mut line = String::with_capacity(128);
                match self {
                    $(TraceEvent::$Ev { $($f,)* $($($v,)*)? } => {
                        member(&mut line, EV, &quoted($kind));
                        $(member(&mut line, key!($f $(as $fk)?), &$f.put());)*
                        $(if volatile {
                            $(member(&mut line, stringify!($v), &$v.put());)*
                        })?
                    })*
                    TraceEvent::Note { round, note } => match note {
                        $(StrategyNote::$Note { $($g),* } => {
                            let (ev, kind) = note_kinds!($tag, $note_kind);
                            member(&mut line, EV, &quoted(ev));
                            member(&mut line, ROUND, &round.put());
                            if let Some(kind) = kind {
                                member(&mut line, NOTE, &quoted(kind));
                            }
                            $(member(&mut line, key!($g $(as $gk)?), &$g.put());)*
                        })*
                    },
                }
                line + "}"
            }

            /// The event a line of kind `ev` holds; `None` for a kind without a row.
            fn read(ev: &str, o: &Json) -> Result<Option<TraceEvent>, LineError> {
                $(if ev == $kind {
                    $(let $f = field(o, key!($f $(as $fk)?))?;)*
                    $($(let $v = host_ns(o, stringify!($v))?;)*)?
                    return Ok(Some(TraceEvent::$Ev { $($f,)* $($($v,)*)? }));
                })*
                let note_kind = if ev == NOTE { Some(kind(o, NOTE)?) } else { None };
                $(if (ev, note_kind) == note_kinds!($tag, $note_kind) {
                    let round = field(o, ROUND)?;
                    $(let $g = field(o, key!($g $(as $gk)?))?;)*
                    let note = StrategyNote::$Note { $($g),* };
                    return Ok(Some(TraceEvent::Note { round, note }));
                })*
                Ok(None)
            }
        }
    };
}

wire_format! {
    events {
        ContextPhase "phase" { phase, items } volatile { ns },
        ContextReady "context" {
            observables, units, sites_total, sites_reachable, graph_nodes, graph_edges,
        },
        ExploreStart "explore_start" { strategy, max_rounds, base_seed },
        RoundStart "round_start" { round, seed },
        Decision "decision" { round, armed, provenance } volatile { init_ns },
        GroundTruthRank "gt_rank" { round, site, rank },
        EpochStart "epoch" { epoch, round, jobs },
        Speculation "spec" { round, epoch, slot, hit },
        RoundError "round_error" { round, error },
        RoundEnd "round_end" {
            round, injected, oracle, ticks, steps, log_entries, injection_requests
        } volatile { workload_ns, sim_ns, diff_ns, feedback_ns },
        Feedback "feedback" { round, present, adjust, i_k as "ik" },
        ProvenanceChain "provenance" {
            round, seed, site, desc, occurrence as "occ", exc, observable,
            k_star as "k", l, i_k as "ik", f_i as "f", temporal as "t",
        },
        ExploreEnd "explore_end" { success, rounds, replay_verified } volatile { wall_ns },
    }
    notes {
        WindowGrew note "window_grew" { window },
        Retired note "retired" { site, exc },
        WindowExhausted note "window_exhausted" { window, pass },
        ObservablePromoted ev "promoted" {
            k, template, site, node_desc, pass, l_new, units_added,
        },
    }
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

    /// The inverse of [`TraceEvent::to_json`] and
    /// [`TraceEvent::stable_json`]: reads one line back into the event that
    /// wrote it. `Ok(None)` is a well-formed line of a kind this build does
    /// not know (the module docs give the whole compatibility rule).
    pub fn parse_line(line: &str) -> Result<Option<TraceEvent>, LineError> {
        let json = Json::parse(line).ok_or(LineError::Malformed)?;
        TraceEvent::read(kind(&json, EV)?, &json)
    }

    /// The round the event belongs to (`None` for preparation and the
    /// search's two brackets).
    pub fn round(&self) -> Option<usize> {
        match self {
            TraceEvent::ContextPhase { .. }
            | TraceEvent::ContextReady { .. }
            | TraceEvent::ExploreStart { .. }
            | TraceEvent::ExploreEnd { .. } => None,
            TraceEvent::RoundStart { round, .. }
            | TraceEvent::Decision { round, .. }
            | TraceEvent::GroundTruthRank { round, .. }
            | TraceEvent::Note { round, .. }
            | TraceEvent::EpochStart { round, .. }
            | TraceEvent::Speculation { round, .. }
            | TraceEvent::RoundError { round, .. }
            | TraceEvent::RoundEnd { round, .. }
            | TraceEvent::Feedback { round, .. }
            | TraceEvent::ProvenanceChain { round, .. } => Some(*round),
        }
    }
}

/// Why a line is not a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// Not one JSON document.
    Malformed,
    /// A key the line's kind requires is missing or holds the wrong type.
    Key(&'static str),
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Malformed => f.write_str("malformed JSON"),
            LineError::Key(key) => write!(f, "missing or mistyped key `{key}`"),
        }
    }
}

/// A line of a trace file that is not an event, by 1-based line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadError {
    /// The offending line.
    pub line: usize,
    /// What is wrong with it.
    pub error: LineError,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.line, self.error)
    }
}

/// Reads a whole trace file: its events in order (blank lines and kinds
/// this build does not know skipped), and the number of the final line if
/// that line was dropped — malformed, missing its newline and preceded by
/// at least one event, which is how the trace of a search that died
/// mid-write ends.
pub fn read_stream(text: &str) -> Result<(Vec<TraceEvent>, Option<usize>), ReadError> {
    let mut events = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse_line(line) {
            Ok(ev) => events.extend(ev),
            Err(LineError::Malformed)
                if lines.peek().is_none() && !text.ends_with('\n') && !events.is_empty() =>
            {
                return Ok((events, Some(i + 1)));
            }
            Err(error) => return Err(ReadError { line: i + 1, error }),
        }
    }
    Ok((events, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample per event variant and note kind. The `match` has no
    /// wildcard, so a variant added to either enum does not compile until
    /// it is given a slot, and the slot stays unseen until it has a sample.
    fn samples() -> Vec<TraceEvent> {
        let samples = vec![
            TraceEvent::ContextPhase {
                phase: "graph.slicing".into(),
                items: 42,
                ns: 1234,
            },
            TraceEvent::ContextReady {
                observables: 2,
                units: 14,
                sites_total: 40,
                sites_reachable: 30,
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
            TraceEvent::GroundTruthRank {
                round: 0,
                site: SiteId(3),
                rank: Some(4),
            },
            TraceEvent::GroundTruthRank {
                round: 1,
                site: SiteId(3),
                rank: None,
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
                round: 14,
                note: StrategyNote::WindowExhausted {
                    window: 40,
                    pass: 0,
                },
            },
            TraceEvent::Note {
                round: 14,
                note: StrategyNote::ObservablePromoted {
                    k: 3,
                    template: "wal rotated".into(),
                    site: SiteId(3),
                    node_desc: "condition @ b4:2".into(),
                    pass: 1,
                    l_new: 1,
                    units_added: 2,
                },
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
            TraceEvent::RoundError {
                round: 0,
                error: "type error at b3[2]: expected \"int\"".into(),
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
        let mut seen = [false; 17];
        for ev in &samples {
            let slot = match ev {
                TraceEvent::ContextPhase { .. } => 0,
                TraceEvent::ContextReady { .. } => 1,
                TraceEvent::ExploreStart { .. } => 2,
                TraceEvent::RoundStart { .. } => 3,
                TraceEvent::Decision { .. } => 4,
                TraceEvent::GroundTruthRank { .. } => 5,
                TraceEvent::Note { note, .. } => match note {
                    StrategyNote::WindowGrew { .. } => 6,
                    StrategyNote::Retired { .. } => 7,
                    StrategyNote::WindowExhausted { .. } => 8,
                    StrategyNote::ObservablePromoted { .. } => 9,
                },
                TraceEvent::EpochStart { .. } => 10,
                TraceEvent::Speculation { .. } => 11,
                TraceEvent::RoundError { .. } => 12,
                TraceEvent::RoundEnd { .. } => 13,
                TraceEvent::Feedback { .. } => 14,
                TraceEvent::ProvenanceChain { .. } => 15,
                TraceEvent::ExploreEnd { .. } => 16,
            };
            seen[slot] = true;
        }
        assert!(seen.iter().all(|&s| s), "a variant has no sample: {seen:?}");
        samples
    }

    #[test]
    fn every_event_round_trips_through_the_parser() {
        let events = samples();
        for ev in &events {
            let line = ev.to_json();
            let back = TraceEvent::parse_line(&line).expect(&line).expect(&line);
            assert_eq!(back.to_json(), line);
            // A stable line carries no `*_ns`; they read back as zero.
            let line = ev.stable_json();
            let back = TraceEvent::parse_line(&line).expect(&line).expect(&line);
            assert_eq!(back.stable_json(), line);
        }
        // Volatile fields are present with `to_json` and absent from
        // `stable_json`.
        let end = events.last().unwrap().to_json();
        assert!(end.contains("wall_ns"));
        assert!(!events.last().unwrap().stable_json().contains("wall_ns"));
    }

    #[test]
    fn the_reader_skips_what_it_does_not_know_and_names_what_it_misses() {
        let parse = TraceEvent::parse_line;
        // Unknown kinds and unknown keys are not errors.
        assert_eq!(parse(r#"{"ev":"snapshot_stats","hits":5}"#), Ok(None));
        assert_eq!(
            parse(r#"{"ev":"note","round":1,"note":"new_kind"}"#),
            Ok(None)
        );
        assert_eq!(
            parse(r#"{"ev":"round_start","round":1,"seed":7,"extra":[1]}"#),
            Ok(Some(TraceEvent::RoundStart { round: 1, seed: 7 }))
        );
        // Anything else missing or mistyped is, by key.
        assert_eq!(
            parse(r#"{"ev":"round_start","round":1}"#),
            Err(LineError::Key("seed"))
        );
        assert_eq!(
            parse(r#"{"ev":"round_start","round":"1","seed":7}"#),
            Err(LineError::Key("round"))
        );
        assert_eq!(
            parse(r#"{"ev":"round_start","round":1.5,"seed":7}"#),
            Err(LineError::Key("round"))
        );
        assert_eq!(parse(r#"{"round":1,"seed":7}"#), Err(LineError::Key("ev")));
        assert_eq!(parse("42"), Err(LineError::Key("ev")));
        assert_eq!(parse(r#"{"ev":"round_start""#), Err(LineError::Malformed));
        // A volatile field may be absent, not mistyped; an integer must fit.
        assert_eq!(
            parse(r#"{"ev":"phase","phase":"diff","items":2,"ns":"fast"}"#),
            Err(LineError::Key("ns"))
        );
        assert_eq!(
            parse(
                r#"{"ev":"note","round":0,"note":"retired","site":4294967296,"exc":"IOException"}"#
            ),
            Err(LineError::Key("site"))
        );
        assert_eq!(
            parse(r#"{"ev":"note","round":0,"note":"retired","site":4,"exc":"Oops"}"#),
            Err(LineError::Key("exc"))
        );
        // An integer past 2^53 is refused, not read as its `f64` neighbour.
        let start = |seed: u64| {
            format!(r#"{{"ev":"explore_start","strategy":"s","max_rounds":1,"base_seed":{seed}}}"#)
        };
        let read_back = |line: &str| parse(line).map(|ev| ev.map(|ev| ev.to_json()));
        assert_eq!(read_back(&start(1 << 53)), Ok(Some(start(1 << 53))));
        assert_eq!(
            parse(&start((1 << 53) + 1)),
            Err(LineError::Key("base_seed"))
        );
    }

    #[test]
    fn a_cut_final_line_is_dropped_and_any_other_bad_line_is_an_error() {
        let good = "{\"ev\":\"round_start\",\"round\":0,\"seed\":1}\n";
        let cut = "{\"ev\":\"round_start\",\"round\":1,\"se";
        let (events, dropped) = read_stream(&format!("{good}\n{good}{cut}")).expect("reads");
        assert_eq!((events.len(), dropped), (2, Some(4)));
        // The same bytes with their newline are a finished, malformed line.
        assert_eq!(
            read_stream(&format!("{good}{cut}\n"))
                .unwrap_err()
                .to_string(),
            "2: malformed JSON"
        );
        assert_eq!(
            read_stream(&format!("{good}{cut}\n{good}"))
                .unwrap_err()
                .line,
            2
        );
        // So is a cut line with no event before it: there is no rest to keep.
        assert_eq!(
            read_stream(cut).unwrap_err().to_string(),
            "1: malformed JSON"
        );
        // A whole final line that only lacks a key was not cut.
        let short = "{\"ev\":\"round_start\",\"round\":1}";
        assert_eq!(
            read_stream(&format!("{good}{short}"))
                .unwrap_err()
                .to_string(),
            "2: missing or mistyped key `seed`"
        );
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
