//! The four `anduril trace` reports, as functions from a typed event
//! stream to text: [`summary`], [`round`], [`promotions`] and [`json`].
//!
//! Each pass over a stream dispatches on the variant with a `match` that
//! has no wildcard arm and binds fields by name, so a variant added to
//! [`TraceEvent`], or a field renamed in it, stops this module compiling
//! instead of leaving a blank column. Nothing here prints: the caller owns
//! the output stream and what a closed pipe means to it.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use anduril_ir::{ExceptionType, SiteId};

use super::{join, PlanProvenance, StrategyNote, TraceEvent};

/// A minimal fixed-width text table writer.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < cols {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(
                    out,
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(0)
                );
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Adds `row(key)` for the first `head` and the last `tail` of `keys`,
    /// with a `...` row wherever two shown keys are not neighbours; `true`
    /// when keys in the middle were left out.
    fn sampled(
        &mut self,
        keys: &[usize],
        head: usize,
        tail: usize,
        row: impl Fn(usize) -> Vec<String>,
    ) -> bool {
        let elided = keys.len() > head + tail;
        let skipped = if elided {
            head..keys.len() - tail
        } else {
            0..0
        };
        let mut prev = None;
        for (i, &key) in keys.iter().enumerate() {
            if skipped.contains(&i) {
                continue;
            }
            if prev.is_some_and(|p| key != p + 1) {
                let mut gap = vec![String::new(); self.header.len()];
                gap[0] = "...".into();
                self.row(gap);
            }
            prev = Some(key);
            self.row(row(key));
        }
        elided
    }
}

/// `-` for a value the stream does not hold, else the value.
fn dash<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// A priority or distance: `-` when not finite (the stream's `null`),
/// integer form when exact.
fn fmt_f(x: f64) -> String {
    if !x.is_finite() {
        "-".into()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The top-ranked candidate of a decision as `site#N Exc[@occ]`.
fn fmt_candidate(p: &PlanProvenance) -> String {
    let occ = p.occurrence.map(|o| format!("@{o}")).unwrap_or_default();
    format!("site#{} {}{occ}", p.site.0, p.exc)
}

/// What `round_start`, `decision` and `round_end` say about one round.
#[derive(Default)]
struct RoundRow<'a> {
    seed: Option<u64>,
    window: Option<usize>,
    armed: Option<usize>,
    top: Option<&'a PlanProvenance>,
    injected: Option<(SiteId, u32, ExceptionType)>,
    oracle: Option<bool>,
    log_entries: Option<usize>,
    /// An error stopped the round's run.
    errored: bool,
}

/// One pass over a stream: the events the reports quote and the totals
/// they print. Of `explore_start` and `context` the first counts, of
/// `provenance` and `explore_end` the last.
#[derive(Default)]
struct Digest<'a> {
    start: Option<&'a TraceEvent>,
    context: Option<&'a TraceEvent>,
    phases: Vec<&'a TraceEvent>,
    rounds: BTreeMap<usize, RoundRow<'a>>,
    /// `(round, present, adjust, I_k after)` per `feedback` event.
    feedback: Vec<(usize, &'a [usize], f64, &'a [f64])>,
    planning_ns: u64,
    workload_ns: u64,
    sim_ns: u64,
    diff_ns: u64,
    feedback_ns: u64,
    epochs: usize,
    slots: usize,
    hits: usize,
    notes: usize,
    retry_passes: usize,
    windows_exhausted: usize,
    window_growths: usize,
    max_window: Option<usize>,
    retired: usize,
    promotions: Vec<&'a TraceEvent>,
    provenance: Option<&'a TraceEvent>,
    end: Option<&'a TraceEvent>,
}

impl<'a> Digest<'a> {
    fn of(events: &'a [TraceEvent]) -> Self {
        let mut d = Digest::default();
        for ev in events {
            match ev {
                TraceEvent::ContextPhase { .. } => d.phases.push(ev),
                TraceEvent::ContextReady { .. } => d.context = d.context.or(Some(ev)),
                TraceEvent::ExploreStart { .. } => d.start = d.start.or(Some(ev)),
                TraceEvent::RoundStart { round, seed } => {
                    d.rounds.entry(*round).or_default().seed = Some(*seed);
                }
                TraceEvent::Decision {
                    round,
                    window,
                    armed,
                    provenance,
                    init_ns,
                } => {
                    let row = d.rounds.entry(*round).or_default();
                    row.window = Some(*window);
                    row.armed = Some(*armed);
                    row.top = provenance.as_ref();
                    d.planning_ns += init_ns;
                }
                TraceEvent::Note { note, .. } => {
                    d.notes += 1;
                    match note {
                        StrategyNote::RetryPass { .. } => d.retry_passes += 1,
                        StrategyNote::WindowGrew { window } => {
                            d.window_growths += 1;
                            d.max_window = d.max_window.max(Some(*window));
                        }
                        StrategyNote::Retired { .. } => d.retired += 1,
                        StrategyNote::WindowExhausted { .. } => d.windows_exhausted += 1,
                        StrategyNote::ObservablePromoted { .. } => d.promotions.push(ev),
                    }
                }
                TraceEvent::EpochStart { .. } => d.epochs += 1,
                TraceEvent::Speculation { hit, .. } => {
                    d.slots += 1;
                    d.hits += usize::from(*hit);
                }
                TraceEvent::RoundError { round, .. } => {
                    d.rounds.entry(*round).or_default().errored = true;
                }
                TraceEvent::RoundEnd {
                    round,
                    injected,
                    oracle,
                    log_entries,
                    workload_ns,
                    sim_ns,
                    diff_ns,
                    feedback_ns,
                    ..
                } => {
                    let row = d.rounds.entry(*round).or_default();
                    row.injected = *injected;
                    row.oracle = Some(*oracle);
                    row.log_entries = Some(*log_entries);
                    d.workload_ns += workload_ns;
                    d.sim_ns += sim_ns;
                    d.diff_ns += diff_ns;
                    d.feedback_ns += feedback_ns;
                }
                TraceEvent::Feedback {
                    round,
                    present,
                    adjust,
                    i_k,
                } => d.feedback.push((*round, present, *adjust, i_k)),
                TraceEvent::ProvenanceChain { .. } => d.provenance = Some(ev),
                TraceEvent::ExploreEnd { .. } => d.end = Some(ev),
            }
        }
        d
    }
}

/// `anduril trace <file> --summary`: the human-readable search narrative.
/// `path` is only quoted in the first line.
pub fn summary(path: &str, events: &[TraceEvent]) -> String {
    let d = Digest::of(events);
    let mut out = format!("Search trace {path} ({} events)\n", events.len());
    if let Some(TraceEvent::ExploreStart {
        strategy,
        max_rounds,
        base_seed,
    }) = d.start
    {
        out += &format!("strategy: {strategy} (max {max_rounds} rounds, base seed {base_seed})\n");
    }
    if let Some(TraceEvent::ContextReady {
        observables,
        units,
        sites_total,
        sites_reachable,
        graph_nodes,
        graph_edges,
        ..
    }) = d.context
    {
        out += &format!(
            "context: {observables} observables, {units} candidate units; \
             {sites_reachable}/{sites_total} sites reachable; \
             causal graph {graph_nodes}v/{graph_edges}e\n"
        );
    }
    if let Some(TraceEvent::ExploreEnd {
        success,
        rounds,
        replay_verified,
        wall_ns,
    }) = d.end
    {
        let wall = fmt_ns(*wall_ns);
        out += &if *success {
            format!("outcome: reproduced in {rounds} rounds (replay verified: {replay_verified}, wall {wall})\n")
        } else {
            format!("outcome: NOT reproduced within {rounds} rounds (wall {wall})\n")
        };
    } else {
        out += "outcome: trace ends mid-search (no explore_end event)\n";
    }

    let mut context_ns = 0;
    if !d.phases.is_empty() {
        out += "\nContext preparation\n";
        let mut t = TextTable::new(&["Phase", "Items", "Time"]);
        for ev in &d.phases {
            if let TraceEvent::ContextPhase { phase, items, ns } = ev {
                // The `graph.*` spans are parts of `graph`, not more time.
                if !phase.starts_with("graph.") {
                    context_ns += ns;
                }
                t.row(vec![phase.to_string(), items.to_string(), fmt_ns(*ns)]);
            }
        }
        out += &t.render();
    }

    let keys: Vec<usize> = d.rounds.keys().copied().collect();
    if !keys.is_empty() {
        out += "\nSearch narrative (per-round decision, injection, verdict)\n";
        let mut t = TextTable::new(&[
            "Round",
            "Seed",
            "Win",
            "Armed",
            "Top candidate",
            "F_i",
            "k*",
            "L",
            "I_k",
            "Injected",
            "Repro",
            "Log",
        ]);
        let elided = t.sampled(&keys, 12, 12, |r| {
            let row = &d.rounds[&r];
            let injected = row
                .injected
                .map(|(s, occ, exc)| format!("site#{}@{occ} {exc}", s.0));
            vec![
                r.to_string(),
                dash(row.seed),
                dash(row.window),
                dash(row.armed),
                dash(row.top.map(fmt_candidate)),
                dash(row.top.map(|p| fmt_f(p.f_i))),
                dash(row.top.map(|p| p.k_star)),
                dash(row.top.map(|p| p.l)),
                dash(row.top.map(|p| fmt_f(p.i_k))),
                dash(injected),
                dash(row.oracle.map(|b| match (b, row.errored) {
                    (true, _) => "YES",
                    (false, true) => "ERR",
                    (false, false) => "no",
                })),
                dash(row.log_entries),
            ]
        });
        out += &t.render();
        if elided {
            out += &format!("(middle rounds elided; {} rounds total)\n", keys.len());
        }
        let errored = d.rounds.values().filter(|row| row.errored).count();
        if errored > 0 {
            out += &format!(
                "({errored} rounds ended in a simulator error and count as unsuccessful: ERR)\n"
            );
        }
    }

    if !d.feedback.is_empty() {
        out += "\nObservable feedback (I_k evolution, Algorithm 2)\n";
        let mut t = TextTable::new(&["Round", "Adjust", "Present", "I_k"]);
        let keys: Vec<usize> = (0..d.feedback.len()).collect();
        let elided = t.sampled(&keys, 6, 6, |i| {
            let (round, present, adjust, i_k) = d.feedback[i];
            vec![
                round.to_string(),
                fmt_f(adjust),
                format!("[{}]", join(present, ",", usize::to_string)),
                format!("[{}]", join(i_k, ", ", |&x| fmt_f(x))),
            ]
        });
        out += &t.render();
        if elided {
            out += &format!("(middle adjustments elided; {} total)\n", keys.len());
        }
    }

    let n = d.rounds.len().max(1) as u64;
    out += &format!(
        "\nTiming\n  context prep : {}\n  planning     : {} total, {} / round\n  \
         workload     : {} total, {} / round\n",
        fmt_ns(context_ns),
        fmt_ns(d.planning_ns),
        fmt_ns(d.planning_ns / n),
        fmt_ns(d.workload_ns),
        fmt_ns(d.workload_ns / n)
    );
    // Where the rounds went: what `round_end` attributes, as shares of
    // their sum (a stream recorded before these fields existed has none).
    let attributed = d.sim_ns + d.diff_ns + d.feedback_ns;
    if attributed > 0 {
        let share = |ns: u64| {
            format!(
                "{:.1}% ({})",
                100.0 * ns as f64 / attributed as f64,
                fmt_ns(ns)
            )
        };
        out += &format!(
            "  round shares : simulate {}, diff {}, feedback {}\n",
            share(d.sim_ns),
            share(d.diff_ns),
            share(d.feedback_ns)
        );
    }

    if d.epochs > 0 || d.slots > 0 {
        out += &format!(
            "\nSpeculation: {} epochs, {} validated slots, {} hits ({:.0}% of validated slots)\n",
            d.epochs,
            d.slots,
            d.hits,
            100.0 * d.hits as f64 / d.slots.max(1) as f64
        );
    }

    if d.notes > 0 {
        let max_window = d.max_window.map(|w| format!(" (max window {w})"));
        out += &format!(
            "\nLifecycle: {} windows exhausted, {} retry passes, {} window growths{}, \
             {} candidates retired\n",
            d.windows_exhausted,
            d.retry_passes,
            d.window_growths,
            max_window.unwrap_or_default(),
            d.retired,
        );
    }

    if !d.promotions.is_empty() {
        out += &format!(
            "\nAdaptive promotions ({}; `--promotions` for detail)\n",
            d.promotions.len()
        );
    }
    for ev in &d.promotions {
        if let TraceEvent::Note {
            round,
            note:
                StrategyNote::ObservablePromoted {
                    k,
                    template,
                    site,
                    node_desc,
                    pass,
                    l_new,
                    l_old,
                    ..
                },
        } = ev
        {
            out += &format!(
                "  round {round} pass {pass}: k = {k} \"{template}\" from {node_desc} \
                 (L {l_old} -> {l_new} at site#{})\n",
                site.0
            );
        }
    }

    if let Some(TraceEvent::ProvenanceChain {
        round,
        seed,
        desc,
        occurrence,
        exc,
        observable,
        k_star,
        l,
        i_k,
        f_i,
        temporal,
        ..
    }) = d.provenance
    {
        out += &format!(
            "\nProvenance chain\n  round {round} (seed {seed}): injected {exc} at `{desc}` \
             occurrence {occurrence}\n  prioritized by observable k* = {k_star} \"{observable}\"\n  \
             L = {l}, I_k = {}, F_i = {}, T = {}\n",
            fmt_f(*i_k),
            fmt_f(*f_i),
            dash(temporal.map(fmt_f)),
        );
    }
    out
}

/// `--round N` named a round the stream has no event of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSuchRound(pub usize);

impl fmt::Display for NoSuchRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no events for round {} in the trace", self.0)
    }
}

/// `anduril trace <file> --round N`: every event of one round, rendered.
pub fn round(events: &[TraceEvent], n: usize) -> Result<String, NoSuchRound> {
    let mut out = String::new();
    for ev in events.iter().filter(|ev| ev.round() == Some(n)) {
        out += &match ev {
            // These carry no round and never pass the filter.
            TraceEvent::ContextPhase { .. }
            | TraceEvent::ContextReady { .. }
            | TraceEvent::ExploreStart { .. }
            | TraceEvent::ExploreEnd { .. } => String::new(),
            // An epoch spans rounds; each round shows its own slot below.
            TraceEvent::EpochStart { .. } => String::new(),
            TraceEvent::RoundStart { seed, .. } => format!("round {n} starts (seed {seed})\n"),
            TraceEvent::Decision {
                window,
                armed,
                provenance,
                init_ns,
                ..
            } => {
                let top = provenance.as_ref().map(|p| {
                    format!(
                        "; top {} — F_i = {} via k* = {} (L = {}, I_k = {}), T = {}",
                        fmt_candidate(p),
                        fmt_f(p.f_i),
                        p.k_star,
                        p.l,
                        fmt_f(p.i_k),
                        fmt_f(p.temporal)
                    )
                });
                format!(
                    "  decision: window {window}, {armed} armed{} [planned in {}]\n",
                    top.unwrap_or_default(),
                    fmt_ns(*init_ns)
                )
            }
            TraceEvent::Note { note, .. } => match note {
                StrategyNote::RetryPass { pass } => format!("  note: retry pass {pass} begins\n"),
                StrategyNote::WindowExhausted { window, pass } => {
                    format!("  note: window of {window} exhausted in pass {pass}\n")
                }
                StrategyNote::WindowGrew { window } => {
                    format!("  note: window grew to {window}\n")
                }
                StrategyNote::Retired { site, exc } => {
                    format!("  note: retired site#{} {exc}\n", site.0)
                }
                StrategyNote::ObservablePromoted {
                    k,
                    template,
                    site,
                    node,
                    node_desc,
                    pass,
                    l_new,
                    l_old,
                    ..
                } => format!(
                    "  promoted: k = {k} \"{template}\" from node #{node} ({node_desc}) — \
                     L {l_old} -> {l_new} at site#{} [stall in pass {pass}]\n",
                    site.0
                ),
            },
            TraceEvent::Speculation {
                epoch, slot, hit, ..
            } => format!(
                "  speculation: epoch {epoch} slot {slot} — {}\n",
                if *hit {
                    "HIT (precomputed run reused)"
                } else {
                    "miss (re-run inline)"
                }
            ),
            TraceEvent::RoundError { error, .. } => {
                format!("  error: {error} — the round counts as unsuccessful\n")
            }
            TraceEvent::RoundEnd {
                injected,
                oracle,
                ticks,
                steps,
                log_entries,
                injection_requests,
                workload_ns,
                ..
            } => {
                let inj = match injected {
                    Some((site, occ, exc)) => format!("injected site#{} occ {occ} {exc}", site.0),
                    None => "no injection".to_string(),
                };
                format!(
                    "  end: {inj}; failure reproduced = {oracle}; {ticks} ticks, {steps} steps, \
                     {log_entries} log entries, {injection_requests} injection requests \
                     [workload {}]\n",
                    fmt_ns(*workload_ns)
                )
            }
            TraceEvent::Feedback {
                present,
                adjust,
                i_k,
                ..
            } => format!(
                "  feedback: adjust {} on present observables [{}]; I_k now [{}]\n",
                fmt_f(*adjust),
                join(present, ", ", usize::to_string),
                join(i_k, ", ", |&x| fmt_f(x))
            ),
            TraceEvent::ProvenanceChain {
                desc,
                occurrence,
                exc,
                observable,
                k_star,
                l,
                i_k,
                f_i,
                ..
            } => format!(
                "  provenance: {exc} at `{desc}` occurrence {occurrence} — observable \
                 k* = {k_star} \"{observable}\", L = {l}, I_k = {}, F_i = {}\n",
                fmt_f(*i_k),
                fmt_f(*f_i)
            ),
        };
    }
    if out.is_empty() {
        return Err(NoSuchRound(n));
    }
    Ok(out)
}

/// `anduril trace <file> --promotions`: every adaptive observable
/// promotion with its full provenance.
pub fn promotions(events: &[TraceEvent]) -> String {
    let d = Digest::of(events);
    if d.promotions.is_empty() {
        return "no observable promotions in the trace (run with --strategy full-adaptive)\n"
            .into();
    }
    let mut t = TextTable::new(&[
        "Round",
        "Pass",
        "k",
        "Template",
        "Source node",
        "Site",
        "L_new",
        "L_old",
        "Delta",
        "Units",
    ]);
    for ev in &d.promotions {
        if let TraceEvent::Note {
            round,
            note:
                StrategyNote::ObservablePromoted {
                    k,
                    template,
                    site,
                    node,
                    node_desc,
                    pass,
                    l_new,
                    l_old,
                    units_added,
                },
        } = ev
        {
            t.row(vec![
                round.to_string(),
                pass.to_string(),
                k.to_string(),
                format!("\"{template}\""),
                format!("#{node} {node_desc}"),
                format!("site#{}", site.0),
                l_new.to_string(),
                l_old.to_string(),
                (i64::from(*l_old) - i64::from(*l_new)).to_string(),
                format!("+{units_added}"),
            ]);
        }
    }
    format!(
        "Adaptive observable promotions ({})\n{}\
         (promotion at round R reshapes priorities from round R+1 on; \
         Delta = L_old - L_new at the focus site; Units = fault units the \
         promotion's scoped causal build newly connected)\n",
        d.promotions.len(),
        t.render()
    )
}

/// `anduril trace <file> --json`: the aggregate summary as one JSON
/// document, the events it quotes embedded as [`TraceEvent::to_json`]
/// writes them.
pub fn json(events: &[TraceEvent]) -> String {
    let d = Digest::of(events);
    let one = |ev: Option<&TraceEvent>| ev.map_or_else(|| "null".into(), TraceEvent::to_json);
    let many = |evs: &[&TraceEvent]| join(evs, ", ", |ev| ev.to_json());
    format!(
        "{{\n  \"events\": {},\n  \"explore_start\": {},\n  \"context\": {},\n  \
         \"phases\": [{}],\n  \"rounds\": {},\n  \"planning_ns_total\": {},\n  \
         \"workload_ns_total\": {},\n  \
         \"speculation\": {{\"epochs\": {}, \"slots\": {}, \"hits\": {}}},\n  \
         \"notes\": {{\"retry_passes\": {}, \"windows_exhausted\": {}, \
         \"window_growths\": {}, \"retired\": {}}},\n  \
         \"promotions\": [{}],\n  \"provenance\": {},\n  \"explore_end\": {}\n}}\n",
        events.len(),
        one(d.start),
        one(d.context),
        many(&d.phases),
        d.rounds.len(),
        d.planning_ns,
        d.workload_ns,
        d.epochs,
        d.slots,
        d.hits,
        d.retry_passes,
        d.windows_exhausted,
        d.window_growths,
        d.retired,
        many(&d.promotions),
        one(d.provenance),
        one(d.end),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(&["id", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-id".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("id"));
        assert!(lines[2].starts_with("a      "));
    }
}
