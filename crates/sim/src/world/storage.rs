//! One spare world's storage per thread.
//!
//! A run's tables — the threads' frame, slot and cursor stacks, the node
//! globals, the channel, waiter and executor tables, the event pool, the
//! register frame and the fault runtime's per-site tables — are sized by
//! the program and its topology, and the next run on the same thread
//! needs tables of nearly the same sizes. So a world is not built from
//! nothing and freed: when one is dropped (its run finished, failed, or
//! was abandoned as a [`PausedRun`] branch) it empties its tables, keeping
//! their capacity, and leaves them with its thread; [`World::new`] takes
//! them back and sizes them for its own run. Nothing a run computed
//! outlives it; what stays with the thread is one world's capacity.
//!
//! A copy of a world (a [`PausedRun`] branch) shares nothing with the
//! original. Only one spare is kept: of two worlds dropped on one thread
//! the later one's storage stays.

use std::cell::Cell;

use super::*;
use crate::thread::Stacks;

thread_local! {
    static SPARE: Cell<Option<Storage>> = const { Cell::new(None) };
}

/// A world's tables, empty.
#[derive(Default)]
pub(super) struct Storage {
    pub events: EventQueue,
    /// An empty thread table.
    pub threads: Vec<Thread>,
    /// Stacks the run's threads start on.
    pub stacks: Vec<Stacks>,
    /// Nodes with their names and empty globals.
    pub nodes: Vec<Node>,
    pub chans: Vec<VecDeque<Value>>,
    pub chan_waiters: Vec<VecDeque<ThreadId>>,
    pub cond_waiters: Vec<Vec<ThreadId>>,
    pub execs: Vec<ExecState>,
    pub spawn_counts: Vec<(usize, Arc<str>, u32)>,
    pub futures: Vec<FutureState>,
    pub fir: Fir,
    pub regs: Vec<Value>,
    pub body_buf: String,
}

impl Storage {
    /// The thread's spare, or new storage if it has none (its first run,
    /// or a run started while another world of the thread is alive).
    pub(super) fn take() -> Storage {
        SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Leaves `self` with the thread, in place of any spare it had.
    fn keep(self) {
        let _ = SPARE.try_with(|spare| spare.set(Some(self)));
    }
}

/// Stacks the threads of one run start on. A copy of the world starts
/// with none: the original's stay with the original.
#[derive(Default)]
pub(super) struct IdleStacks(pub Vec<Stacks>);

impl Clone for IdleStacks {
    fn clone(&self) -> Self {
        IdleStacks(Vec::new())
    }
}

impl World<'_> {
    /// An empty stack set with room for `locals` slots, taken from the
    /// idle ones: the arguments of a thread about to start are evaluated
    /// onto it.
    pub(super) fn idle_stacks(&mut self, locals: usize) -> Stacks {
        let mut stacks = self.idle.0.pop().unwrap_or_default();
        stacks.locals.reserve(locals);
        stacks
    }
}

impl Drop for World<'_> {
    /// Empties every table and leaves them with the thread.
    fn drop(&mut self) {
        let mut stacks = std::mem::take(&mut self.idle.0);
        stacks.extend(self.threads.drain(..).map(Thread::into_stacks));
        for node in &mut self.nodes {
            node.globals.clear();
        }
        self.chans.iter_mut().for_each(VecDeque::clear);
        self.chan_waiters.iter_mut().for_each(VecDeque::clear);
        self.cond_waiters.iter_mut().for_each(Vec::clear);
        for exec in &mut self.execs {
            exec.queue.clear();
            exec.args.clear();
            exec.worker = None;
        }
        self.spawn_counts.clear();
        self.futures.clear();
        self.events.clear();
        self.fir.clear();
        self.regs.clear();
        self.body_buf.clear();
        Storage {
            events: std::mem::take(&mut self.events),
            threads: std::mem::take(&mut self.threads),
            stacks,
            nodes: std::mem::take(&mut self.nodes),
            chans: std::mem::take(&mut self.chans),
            chan_waiters: std::mem::take(&mut self.chan_waiters),
            cond_waiters: std::mem::take(&mut self.cond_waiters),
            execs: std::mem::take(&mut self.execs),
            spawn_counts: std::mem::take(&mut self.spawn_counts),
            futures: std::mem::take(&mut self.futures),
            fir: std::mem::take(&mut self.fir),
            regs: std::mem::take(&mut self.regs),
            body_buf: std::mem::take(&mut self.body_buf),
        }
        .keep();
    }
}
