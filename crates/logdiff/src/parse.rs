//! Text log parsing.
//!
//! The Explorer receives the production failure log as *text* (the deployed
//! system is not instrumented by ANDURIL), so every log the feedback
//! algorithm consumes goes through this parser — mirroring the paper's
//! Scala log parser for Log4j-style formats (§7). Our rendered format is
//!
//! ```text
//! 00000042 [node:thread] LEVEL - message body
//! ExceptionName
//!     at functionName
//! ```
//!
//! where the exception line and `at` lines are optional continuations.

use std::sync::Arc;

use anduril_ir::Level;

/// One parsed log record.
///
/// A log names a handful of nodes and threads thousands of times over, so
/// [`parse_log`] shares one string per distinct name among the records it
/// returns; the body is shared with whoever interns it next
/// ([`InternedLog::new`](crate::InternedLog::new) keys its table on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEntry {
    /// Timestamp, if the line carried one (stripped by sanitization).
    pub time: Option<u64>,
    /// Emitting node name.
    pub node: Arc<str>,
    /// Emitting thread name.
    pub thread: Arc<str>,
    /// Severity.
    pub level: Level,
    /// Message body with the timestamp removed.
    pub body: Arc<str>,
    /// Attached exception class name, if a throwable was logged.
    pub exc: Option<String>,
    /// Attached stack-trace function names, innermost first.
    pub stack: Vec<String>,
}

impl ParsedEntry {
    /// The sanitized comparison key used by the per-thread diff: node,
    /// thread, level and body — everything except the timestamp.
    pub fn sanitized(&self) -> (&str, &str, Level, &str) {
        (&self.node, &self.thread, self.level, &self.body)
    }
}

/// The shared string of `name`: the one in `seen`, or a new one added to
/// it. Logs name few nodes and threads, and the latest is the likeliest.
fn shared(seen: &mut Vec<Arc<str>>, name: &str) -> Arc<str> {
    if let Some(known) = seen.iter().rev().find(|known| &***known == name) {
        return known.clone();
    }
    seen.push(Arc::from(name));
    seen[seen.len() - 1].clone()
}

/// The fields of one entry's header line, borrowed from the line.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a> {
    /// Timestamp.
    pub time: u64,
    /// Emitting node name.
    pub node: &'a str,
    /// Emitting thread name.
    pub thread: &'a str,
    /// Severity.
    pub level: Level,
    /// Message body.
    pub body: &'a str,
}

/// The header grammar, `TIME [node:thread] LEVEL - body`: the fields of
/// `line`, or `None` if it is not an entry's first line. Every reader that
/// tells an entry from its continuation lines asks this.
pub fn header(line: &str) -> Option<Header<'_>> {
    let (ts, rest) = line.split_once(' ')?;
    let time = ts.parse::<u64>().ok()?;
    let rest = rest.strip_prefix('[')?;
    let (addr, rest) = rest.split_once("] ")?;
    let (node, thread) = addr.split_once(':')?;
    let (level, body) = rest.split_once(" - ")?;
    let level = Level::parse(level)?;
    Some(Header {
        time,
        node,
        thread,
        level,
        body,
    })
}

/// Returns `true` when `line` has the shape of a rendered throwable header:
/// an exception class name — leading uppercase letter, then identifier
/// characters (alphanumerics, `.`, `_`, `$`), no spaces — optionally
/// followed by `: message` (e.g. `IOException` or
/// `IOException: caused by SocketException`).
fn is_exception_header(line: &str) -> bool {
    let name = line.split(':').next().unwrap_or(line);
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_uppercase())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '$'))
}

/// Parses a rendered log into records, folding `at` continuation lines and
/// exception names into the preceding record.
///
/// Lines that match no known shape are ignored (production logs are noisy).
/// In particular, a non-indented line only folds into the previous record
/// as its exception when it actually looks like a throwable header (an
/// exception class name, optionally followed by `: message`) — arbitrary
/// garbage between records is dropped rather than misattributed.
pub fn parse_log(text: &str) -> Vec<ParsedEntry> {
    let mut out: Vec<ParsedEntry> = Vec::new();
    // The node and thread names the parse has met so far.
    let (mut nodes, mut threads) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(h) = header(line) {
            out.push(ParsedEntry {
                time: Some(h.time),
                node: shared(&mut nodes, h.node),
                thread: shared(&mut threads, h.thread),
                level: h.level,
                body: Arc::from(h.body),
                exc: None,
                stack: Vec::new(),
            });
            continue;
        }
        // Continuation of the previous record.
        if let Some(last) = out.last_mut() {
            if let Some(frame) = line
                .strip_prefix("\tat ")
                .or_else(|| line.strip_prefix("    at "))
            {
                last.stack.push(frame.trim().to_string());
            } else if last.exc.is_none()
                && !line.starts_with(char::is_whitespace)
                && is_exception_header(line)
            {
                last.exc = Some(line.trim().to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_lines() {
        let text = "\
00000042 [nn1:main] INFO - started
00000050 [nn1:IPC-handler] WARN - retry 3 of 10
";
        let entries = parse_log(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(&*entries[0].node, "nn1");
        assert_eq!(&*entries[0].thread, "main");
        assert_eq!(entries[0].level, Level::Info);
        assert_eq!(&*entries[0].body, "started");
        assert_eq!(entries[0].time, Some(42));
        assert_eq!(&*entries[1].thread, "IPC-handler");
        assert_eq!(&*entries[1].body, "retry 3 of 10");
    }

    #[test]
    fn a_name_is_one_string_however_often_it_occurs() {
        let text = "\
00000001 [a:main] INFO - x
00000002 [b:main] INFO - y
00000003 [a:worker] INFO - x
00000004 [a:main] INFO - z
";
        let entries = parse_log(text);
        assert!(Arc::ptr_eq(&entries[0].node, &entries[3].node));
        assert!(Arc::ptr_eq(&entries[0].node, &entries[2].node));
        assert!(Arc::ptr_eq(&entries[0].thread, &entries[1].thread));
        assert!(!Arc::ptr_eq(&entries[0].node, &entries[1].node));
        // A node and a thread of one name are two strings: the diff's name
        // cache tells entries apart by both addresses.
        let same = parse_log("00000001 [main:main] INFO - x\n");
        assert!(!Arc::ptr_eq(&same[0].node, &same[0].thread));
    }

    #[test]
    fn folds_exception_and_stack_continuations() {
        let text = "\
00000042 [rs1:WAL-roller] ERROR - sync failed
IOException
\tat channelRead0
\tat sync
00000043 [rs1:main] INFO - next
";
        let entries = parse_log(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].exc.as_deref(), Some("IOException"));
        assert_eq!(entries[0].stack, vec!["channelRead0", "sync"]);
        assert!(entries[1].stack.is_empty());
    }

    #[test]
    fn ignores_garbage_lines() {
        let text = "not a log line\n00000001 [a:b] INFO - real\n???\n";
        let entries = parse_log(text);
        // The garbage prefix has no record to attach to and is dropped; the
        // trailing garbage does not look like an exception header, so it is
        // dropped too rather than misattributed as `real`'s throwable.
        assert_eq!(entries.len(), 1);
        assert_eq!(&*entries[0].body, "real");
        assert_eq!(entries[0].exc, None);
    }

    #[test]
    fn exception_header_shape_gates_folding() {
        // A real throwable header (with a `caused by` message) still folds.
        let text = "\
00000001 [a:b] ERROR - sync failed
IOException: caused by SocketException
\tat flush
";
        let entries = parse_log(text);
        assert_eq!(
            entries[0].exc.as_deref(),
            Some("IOException: caused by SocketException")
        );
        assert_eq!(entries[0].stack, vec!["flush"]);

        // Lines without the class-name shape are dropped: lowercase start,
        // spaces in the name portion, non-identifier characters.
        for garbage in ["ioexception", "some random words", "Mid sentence: x", "***"] {
            let text = format!("00000001 [a:b] ERROR - oops\n{garbage}\n");
            let entries = parse_log(&text);
            assert_eq!(entries[0].exc, None, "{garbage:?} must not fold");
        }
    }

    #[test]
    fn body_containing_separator_is_preserved() {
        let text = "00000009 [n:t] WARN - a - b - c\n";
        let entries = parse_log(text);
        assert_eq!(&*entries[0].body, "a - b - c");
    }

    #[test]
    fn sanitized_key_drops_time() {
        let a = parse_log("00000001 [n:t] INFO - x\n");
        let b = parse_log("00099999 [n:t] INFO - x\n");
        assert_eq!(a[0].sanitized(), b[0].sanitized());
        assert_ne!(a[0].time, b[0].time);
    }
}
