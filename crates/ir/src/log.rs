//! Log templates and structured log entries.
//!
//! Log messages are the paper's *observables*: lightweight signals of a
//! distributed node's state-machine transitions. Programs log through
//! templates (format strings with `{}` holes); the simulator records
//! structured [`LogEntry`] values and can render them to Log4j-style text.
//! The Explorer consumes the *production* failure log only as text, through
//! the parser in `anduril-logdiff`, exactly as the paper's tool does.

use std::sync::Arc;

use crate::ids::{StmtRef, TemplateId};

/// Log severity, mirroring the levels of common Java logging frameworks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Diagnostic detail.
    Debug,
    /// Normal operational messages.
    Info,
    /// Handled-but-suspicious conditions.
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// Returns the upper-case name used in rendered log lines.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }

    /// Parses a rendered level name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "DEBUG" => Some(Level::Debug),
            "INFO" => Some(Level::Info),
            "WARN" => Some(Level::Warn),
            "ERROR" => Some(Level::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A log message template: literal text with `{}` argument holes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTemplate {
    /// The template text, e.g. `"Failed to sync {} entries"`.
    pub text: String,
}

impl LogTemplate {
    /// Number of `{}` holes in the template.
    pub fn arity(&self) -> usize {
        self.text.matches("{}").count()
    }

    /// Renders the template with the given already-rendered arguments.
    ///
    /// Extra arguments are ignored; missing ones render as `?`.
    pub fn render(&self, args: &[String]) -> String {
        let mut out = String::with_capacity(self.text.len() + 16);
        let mut rest = self.text.as_str();
        let mut i = 0;
        while let Some(pos) = rest.find("{}") {
            out.push_str(&rest[..pos]);
            out.push_str(args.get(i).map(String::as_str).unwrap_or("?"));
            rest = &rest[pos + 2..];
            i += 1;
        }
        out.push_str(rest);
        out
    }

    /// Returns `true` if `body` could have been rendered from this template.
    ///
    /// Matching is anchored: the literal fragments between holes must appear
    /// in order, starting at the beginning and ending at the end of `body`.
    pub fn matches(&self, body: &str) -> bool {
        let mut rest = body;
        let mut fragments = self.text.split("{}").peekable();
        let mut first = true;
        while let Some(frag) = fragments.next() {
            let last = fragments.peek().is_none();
            if first {
                if let Some(r) = rest.strip_prefix(frag) {
                    rest = r;
                } else {
                    return false;
                }
                first = false;
            } else if last {
                if frag.is_empty() {
                    return true;
                }
                if let Some(pos) = rest.rfind(frag) {
                    return pos + frag.len() == rest.len();
                }
                return false;
            } else {
                if frag.is_empty() {
                    continue;
                }
                match rest.find(frag) {
                    Some(pos) => rest = &rest[pos + frag.len()..],
                    None => return false,
                }
            }
        }
        rest.is_empty()
    }
}

/// A structured log entry captured during simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Logical time at which the entry was emitted.
    pub time: u64,
    /// Name of the emitting node. Interned: the simulator shares one
    /// allocation per node across every entry it emits, so recording an
    /// entry costs two refcount bumps instead of two string clones.
    pub node: Arc<str>,
    /// Name of the emitting thread (interned like [`LogEntry::node`]).
    pub thread: Arc<str>,
    /// Severity.
    pub level: Level,
    /// The template the entry was rendered from.
    pub template: TemplateId,
    /// The statement that emitted it.
    pub stmt: StmtRef,
    /// The rendered message body (template with arguments substituted).
    /// Interned so cloning an entry (result copies) bumps a refcount
    /// instead of reallocating the text.
    pub body: Arc<str>,
    /// Rendered class name of an attached throwable (e.g. `IOException`),
    /// when the logging call attached one.
    pub exc: Option<String>,
    /// Stack-trace lines (function names, innermost first) of the attached
    /// throwable.
    pub stack: Vec<String>,
}

impl LogEntry {
    /// Renders the entry as a Log4j-style text line (plus the attached
    /// throwable and its indented `at` lines, if any).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{:08} [{}:{}] {} - {}",
            self.time, self.node, self.thread, self.level, self.body
        );
        if let Some(exc) = &self.exc {
            line.push('\n');
            line.push_str(exc);
        }
        for frame in &self.stack {
            line.push_str("\n\tat ");
            line.push_str(frame);
        }
        line
    }
}

/// Renders a full log as text, one entry (possibly multi-line) per record.
pub fn render_log(entries: &[LogEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&e.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpl(s: &str) -> LogTemplate {
        LogTemplate {
            text: s.to_string(),
        }
    }

    #[test]
    fn arity_counts_holes() {
        assert_eq!(tmpl("no holes").arity(), 0);
        assert_eq!(tmpl("a {} b {}").arity(), 2);
    }

    #[test]
    fn render_substitutes_in_order() {
        let t = tmpl("sync {} of {} entries");
        assert_eq!(
            t.render(&["3".to_string(), "10".to_string()]),
            "sync 3 of 10 entries"
        );
        assert_eq!(t.render(&["3".to_string()]), "sync 3 of ? entries");
    }

    #[test]
    fn matches_rendered_bodies() {
        let t = tmpl("sync {} of {} entries");
        assert!(t.matches("sync 3 of 10 entries"));
        assert!(t.matches(&t.render(&["a".into(), "b".into()])));
        assert!(!t.matches("sync 3 of 10 entriesX"));
        assert!(!t.matches("Xsync 3 of 10 entries"));
        assert!(!t.matches("something else"));
    }

    #[test]
    fn matches_hole_at_edges() {
        let t = tmpl("{} joined {}");
        assert!(t.matches("n1 joined quorum"));
        assert!(!t.matches("n1 left quorum"));
        let all_hole = tmpl("{}");
        assert!(all_hole.matches("anything at all"));
    }

    #[test]
    fn entry_render_includes_stack() {
        let e = LogEntry {
            time: 42,
            node: "nn1".into(),
            thread: "main".into(),
            level: Level::Warn,
            template: TemplateId(0),
            stmt: StmtRef::new(crate::ids::BlockId(0), 0),
            body: "boom".into(),
            exc: Some("IOException".into()),
            stack: vec!["write".into(), "flush".into()],
        };
        let text = e.render();
        assert!(text.starts_with("00000042 [nn1:main] WARN - boom"));
        assert!(text.contains("\nIOException"));
        assert!(text.contains("\n\tat write"));
        assert!(text.contains("\n\tat flush"));
    }

    #[test]
    fn level_parse_round_trips() {
        for l in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("TRACE"), None);
    }
}
