//! Where events go: the [`Tracer`] trait and its three sinks.

use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

use super::TraceEvent;

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
/// event, flushed on [`Tracer::flush`] and on drop. The first write error
/// stops the stream and is kept for [`FileTracer::finish`].
#[derive(Debug)]
pub struct FileTracer {
    out: Mutex<(BufWriter<File>, Option<io::Error>)>,
}

impl FileTracer {
    /// Creates (truncating) the trace file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<FileTracer> {
        Ok(FileTracer {
            out: Mutex::new((BufWriter::new(File::create(path)?), None)),
        })
    }

    /// Flushes, then reports whether every event reached the file: the
    /// first error any write or flush met, if one did. A process that
    /// leaves through `std::process::exit` runs no destructor, so it calls
    /// this first.
    pub fn finish(&self) -> io::Result<()> {
        self.write(|out| out.flush());
        match self.out.lock().expect("tracer poisoned").1.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn write(&self, op: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
        let mut guard = self.out.lock().expect("tracer poisoned");
        let (out, error) = &mut *guard;
        if error.is_none() {
            *error = op(out).err();
        }
    }
}

impl Tracer for FileTracer {
    fn record(&self, ev: TraceEvent) {
        self.write(|out| writeln!(out, "{}", ev.to_json()));
    }

    fn flush(&self) {
        self.write(|out| out.flush());
    }
}

impl Drop for FileTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace that did not reach the disk must not be reported as
    /// written. `/dev/full` accepts the open and fails every write.
    #[test]
    fn file_tracer_keeps_the_first_write_error() {
        let Ok(tracer) = FileTracer::create("/dev/full") else {
            return; // no such device on this platform
        };
        tracer.record(TraceEvent::RoundStart { round: 0, seed: 1 });
        assert!(tracer.finish().is_err());
    }
}
