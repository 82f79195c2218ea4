//! Interpreter thread state: frames, block cursors, and statuses.
//!
//! The interpreter is an explicit state machine so that a thread can be
//! suspended at any blocking statement and resumed by the event scheduler.
//! A thread's state is flat: one stack of local slots and one stack of
//! block [`Cursor`]s, shared by all of its call [`Frame`]s, each of which
//! records only where its part of the two stacks begins. Calling a function
//! pushes slots and a cursor; returning truncates. Nothing is allocated per
//! call.
//!
//! Cursors track the position inside nested `if`/`while`/`try` structures
//! and are `Copy`. What a `catch` handler caught and what a `finally` block
//! will resume live on a third, usually empty stack ([`Thread::unwinding`])
//! that only `try` handling touches.
//!
//! Blocking statements are re-executed on wake-up with a [`WakeNote`]
//! describing why the thread was woken.

use std::sync::Arc;

use anduril_ir::program::Function;
use anduril_ir::{BlockId, ExcValue, ExecId, FuncId, StmtRef, Value, VarId};

use crate::result::BlockReason;
use crate::world::{internal, Sim};

/// Dense thread identifier within one run.
pub(crate) type ThreadId = usize;

/// What a `finally` block will do when control leaves it.
#[derive(Debug, Clone)]
pub(crate) enum Pending {
    /// Normal completion.
    None,
    /// An exception is propagating through the block.
    Exc(Arc<ExcValue>),
    /// A `return` is propagating through the block.
    Return(Value),
    /// A `break` is propagating through the block.
    Break,
    /// A `continue` is propagating through the block.
    Continue,
}

/// The payload of a [`CursorTag::Handler`] or [`CursorTag::Finally`]
/// cursor, kept off the cursor so that cursors stay `Copy`.
#[derive(Debug, Clone)]
pub(crate) enum Unwinding {
    /// The exception a handler caught (read by `Rethrow` and
    /// stack-attaching logs).
    Caught(Arc<ExcValue>),
    /// The control transfer a `finally` block resumes when it completes.
    Resume(Pending),
}

/// Why a cursor's block is being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CursorTag {
    /// A function body or a plain branch block (`then` / `else`).
    Plain,
    /// A loop body; the owner is the `while`, whose condition is
    /// re-evaluated when the block ends.
    Loop,
    /// A protected `try` body; the owner is the `try`.
    TryBody,
    /// A catch handler; the owner is the `try`, and the caught exception is
    /// the matching [`Unwinding::Caught`].
    Handler,
    /// A `finally` block, resuming the matching [`Unwinding::Resume`].
    Finally,
}

/// Position within one block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    /// The block being executed.
    pub block: BlockId,
    /// Index of the next statement to execute.
    pub idx: u32,
    /// Index of the owning `while` / `try` statement within the block of
    /// the cursor below this one (the cursor that was on top when the owner
    /// executed). Unused for [`CursorTag::Plain`] and [`CursorTag::Finally`].
    pub owner: u32,
    /// The block's role.
    pub tag: CursorTag,
}

impl Cursor {
    /// A cursor at the start of `block`.
    pub fn new(block: BlockId, tag: CursorTag, owner: u32) -> Self {
        Cursor {
            block,
            idx: 0,
            owner,
            tag,
        }
    }
}

/// One function activation: where its slots and cursors begin on the
/// thread's stacks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// The caller local that receives this frame's return value.
    pub ret_to: Option<VarId>,
    /// First local slot (parameters first) in [`Thread::locals`].
    pub locals_base: usize,
    /// First cursor in [`Thread::cursors`]; the frame's body is exhausted
    /// when none is left at or above it.
    pub cursors_base: usize,
}

/// A thread's lifecycle state.
#[derive(Debug, Clone)]
pub(crate) enum ThreadStatus {
    /// Eligible to run.
    Runnable,
    /// Parked on a blocking statement.
    Blocked(BlockReason),
    /// Completed normally.
    Done,
    /// Terminated by an uncaught exception.
    Died(Arc<ExcValue>),
    /// Terminated because its node aborted or crashed.
    Killed,
}

/// Why a blocked thread was woken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeNote {
    /// No note (first execution of a blocking statement).
    None,
    /// A timeout or sleep deadline expired.
    Expired,
    /// The awaited resource became available (signal, message, future).
    Signaled,
}

/// Whether a thread runs program code or drains an executor queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// An ordinary spawned thread.
    Normal,
    /// The worker thread of a single-threaded executor.
    Worker(ExecId),
}

/// A simulated thread.
#[derive(Debug, Clone)]
pub(crate) struct Thread {
    /// Index of the node the thread runs on.
    pub node: usize,
    /// Thread name (unique per node). Interned so that log emission shares
    /// one allocation per thread instead of cloning the name every entry.
    pub name: Arc<str>,
    /// Call stack, outermost first.
    pub frames: Vec<Frame>,
    /// Local slots of every frame, outermost first.
    pub locals: Vec<Value>,
    /// Block cursors of every frame, innermost last.
    pub cursors: Vec<Cursor>,
    /// One entry per `Handler` / `Finally` cursor on [`Thread::cursors`],
    /// in the same order.
    pub unwinding: Vec<Unwinding>,
    /// Lifecycle state.
    pub status: ThreadStatus,
    /// Normal thread or executor worker.
    pub role: Role,
    /// The future completed when the current executor task finishes.
    pub current_future: Option<u64>,
    /// Monotonic token distinguishing wait epochs; wake events carrying a
    /// stale token are ignored.
    pub wait_token: u64,
    /// Note set by the waker, consumed by the re-executed blocking
    /// statement.
    pub note: WakeNote,
}

/// A thread's frame, slot, cursor and unwinding stacks, empty: what a
/// thread starts on, and what is left of it when its world is emptied
/// (`world::storage`). Only their capacity is kept.
#[derive(Debug, Clone, Default)]
pub(crate) struct Stacks {
    pub frames: Vec<Frame>,
    /// Empty but for the entry arguments of the thread about to start.
    pub locals: Vec<Value>,
    pub cursors: Vec<Cursor>,
    pub unwinding: Vec<Unwinding>,
}

impl Thread {
    /// A runnable thread with no frame yet, on `stacks`.
    pub fn new(node: usize, name: Arc<str>, role: Role, stacks: Stacks) -> Self {
        let Stacks {
            frames,
            locals,
            cursors,
            unwinding,
        } = stacks;
        Thread {
            node,
            name,
            frames,
            locals,
            cursors,
            unwinding,
            status: ThreadStatus::Runnable,
            role,
            current_future: None,
            wait_token: 0,
            note: WakeNote::None,
        }
    }

    /// The thread's stacks, emptied.
    pub fn into_stacks(mut self) -> Stacks {
        self.clear_frames();
        Stacks {
            frames: self.frames,
            locals: self.locals,
            cursors: self.cursors,
            unwinding: self.unwinding,
        }
    }

    /// The current call stack as function ids, innermost first.
    pub fn stack_funcs(&self) -> Vec<FuncId> {
        self.frames.iter().rev().map(|f| f.func).collect()
    }

    /// Returns `true` if the thread can still execute.
    pub fn is_live(&self) -> bool {
        matches!(
            self.status,
            ThreadStatus::Runnable | ThreadStatus::Blocked(_)
        )
    }

    /// The innermost frame's local slots (empty with no frame).
    pub fn frame_locals(&self) -> &[Value] {
        match self.frames.last() {
            Some(f) => &self.locals[f.locals_base..],
            None => &[],
        }
    }

    /// [`Thread::frame_locals`], writable.
    pub fn frame_locals_mut(&mut self) -> &mut [Value] {
        match self.frames.last() {
            Some(f) => &mut self.locals[f.locals_base..],
            None => &mut [],
        }
    }

    /// The innermost cursor of the innermost frame; `None` when the frame's
    /// body is exhausted (or there is no frame).
    pub fn top_cursor_mut(&mut self) -> Option<&mut Cursor> {
        let base = self.frames.last()?.cursors_base;
        self.cursors[base..].last_mut()
    }

    /// Moves past the statement that just completed.
    pub fn advance(&mut self) {
        if let Some(c) = self.top_cursor_mut() {
            c.idx += 1;
        }
    }

    /// Enters `block` on top of the current cursor.
    pub fn push_cursor(&mut self, block: BlockId, tag: CursorTag, owner: u32) {
        self.cursors.push(Cursor::new(block, tag, owner));
    }

    /// Enters a handler or `finally` block together with its payload.
    pub fn push_unwinding(&mut self, block: BlockId, tag: CursorTag, owner: u32, what: Unwinding) {
        debug_assert!(matches!(tag, CursorTag::Handler | CursorTag::Finally));
        self.cursors.push(Cursor::new(block, tag, owner));
        self.unwinding.push(what);
    }

    /// Pops the innermost cursor of the innermost frame together with its
    /// [`Unwinding`] entry, if it has one. `None` when the frame's body is
    /// exhausted (or there is no frame).
    pub fn pop_cursor(&mut self) -> Option<(Cursor, Option<Unwinding>)> {
        let base = self.frames.last()?.cursors_base;
        if self.cursors.len() <= base {
            return None;
        }
        let cursor = self.cursors.pop()?;
        let unwinding = match cursor.tag {
            CursorTag::Handler | CursorTag::Finally => self.unwinding.pop(),
            _ => None,
        };
        Some((cursor, unwinding))
    }

    /// The `while` / `try` statement that owns a cursor just popped: it sits
    /// in the block of the cursor now on top.
    pub fn owner_of(&self, popped: &Cursor) -> Option<StmtRef> {
        let base = self.frames.last()?.cursors_base;
        let below = self.cursors[base..].last()?;
        Some(StmtRef::new(below.block, popped.owner))
    }

    /// Activates `func` (whose definition is `f`) over the arguments its
    /// caller left on top of the slot stack, from `args_at` up.
    pub fn enter(
        &mut self,
        f: &Function,
        func: FuncId,
        args_at: usize,
        ret_to: Option<VarId>,
    ) -> Sim<Frame> {
        let given = self.locals.len() - args_at;
        if given != f.params as usize {
            return Err(internal(format!(
                "function `{}` expects {} args, got {given}",
                f.name, f.params
            )));
        }
        self.locals.resize(args_at + f.locals as usize, Value::Unit);
        let frame = Frame {
            func,
            ret_to,
            locals_base: args_at,
            cursors_base: self.cursors.len(),
        };
        self.frames.push(frame);
        self.push_cursor(f.entry, CursorTag::Plain, 0);
        Ok(frame)
    }

    /// Returns from the innermost frame: discards it and stores `value` in
    /// the slot the caller named. With no caller left the value comes back:
    /// it is the result of the thread (or of its executor task).
    pub fn leave_frame(&mut self, value: Value) -> Option<Value> {
        let Some(left) = self.pop_frame() else {
            return Some(value);
        };
        let Some(caller) = self.frames.last() else {
            return Some(value);
        };
        if let Some(var) = left.ret_to {
            self.locals[caller.locals_base + var.index()].store(value);
        }
        None
    }

    /// `true` if a `return` from the innermost frame has `try` machinery to
    /// unwind through (a body or handler that may own a `finally`, or a
    /// `finally` in progress).
    pub fn frame_in_try(&self) -> bool {
        let base = self.frames.last().map_or(0, |f| f.cursors_base);
        self.cursors[base..]
            .iter()
            .any(|c| !matches!(c.tag, CursorTag::Plain | CursorTag::Loop))
    }

    /// Discards the innermost frame: its slots, and whatever cursors it
    /// still has.
    pub fn pop_frame(&mut self) -> Option<Frame> {
        let frame = self.frames.pop()?;
        let unwinding = self.cursors[frame.cursors_base..]
            .iter()
            .filter(|c| matches!(c.tag, CursorTag::Handler | CursorTag::Finally))
            .count();
        self.unwinding.truncate(self.unwinding.len() - unwinding);
        self.cursors.truncate(frame.cursors_base);
        self.locals.truncate(frame.locals_base);
        Some(frame)
    }

    /// Drops every frame (`Halt`).
    pub fn clear_frames(&mut self) {
        self.frames.clear();
        self.locals.clear();
        self.cursors.clear();
        self.unwinding.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_and_frames_are_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Cursor>();
        assert_copy::<Frame>();
        assert!(std::mem::size_of::<Cursor>() <= 16);
    }

    #[test]
    fn popping_a_frame_drops_its_unwinding_entries() {
        let mut t = Thread {
            node: 0,
            name: Arc::from("t"),
            frames: Vec::new(),
            locals: vec![Value::Int(1)],
            cursors: vec![
                Cursor::new(BlockId(0), CursorTag::Plain, 0),
                Cursor::new(BlockId(1), CursorTag::Handler, 0),
            ],
            unwinding: vec![Unwinding::Caught(Arc::new(ExcValue::new(
                anduril_ir::ExceptionType::Io,
            )))],
            status: ThreadStatus::Runnable,
            role: Role::Normal,
            current_future: None,
            wait_token: 0,
            note: WakeNote::None,
        };
        t.frames.push(Frame {
            func: FuncId(0),
            ret_to: None,
            locals_base: 0,
            cursors_base: 0,
        });
        t.frames.push(Frame {
            func: FuncId(1),
            ret_to: None,
            locals_base: 1,
            cursors_base: 2,
        });
        t.locals.push(Value::Int(2));
        t.cursors.push(Cursor::new(BlockId(2), CursorTag::Plain, 0));
        t.cursors
            .push(Cursor::new(BlockId(3), CursorTag::Finally, 0));
        t.unwinding.push(Unwinding::Resume(Pending::Break));

        assert_eq!(t.frame_locals(), &[Value::Int(2)]);
        t.pop_frame();
        assert_eq!(t.cursors.len(), 2);
        assert_eq!(
            t.unwinding.len(),
            1,
            "the caller's handler keeps its exception"
        );
        assert_eq!(t.frame_locals(), &[Value::Int(1)]);
        assert!(matches!(
            t.pop_cursor(),
            Some((_, Some(Unwinding::Caught(_))))
        ));
        assert!(t.unwinding.is_empty());
    }
}
