//! Calendar-wheel event queue for the simulation's main loop.
//!
//! The scheduler's event traffic is dominated by short delays — quantum
//! re-wakes, message latencies, brief sleeps — so a ring of FIFO buckets
//! indexed by `time % WHEEL` turns almost every push and pop into O(1)
//! slot operations instead of `BinaryHeap` sifts. Delays beyond the wheel
//! horizon overflow into a heap.
//!
//! Buckets are intrusive lists threaded through one shared node pool, so
//! the queue performs no per-slot allocation: a whole run touches the
//! allocator only when the pool itself grows, which settles after the
//! first few slices (the pool's high-water mark is the maximum number of
//! simultaneously queued events, not the event count). A node is 32 bytes:
//! `(time, seq)`, one word of wake token and a packed `(kind, index)`.
//! Message payloads wait in a side slab and are addressed by that index, so
//! the wheel never moves a `Value`.
//!
//! Which slots hold events is also kept as a bitmap, one bit per slot, so
//! finding the next event is a `trailing_zeros` from the cursor's bit, not
//! a walk over empty slots. The bitmap says nothing a walk would not find
//! — a bit is set exactly while its slot's list is non-empty — so the order
//! below cannot depend on it.
//!
//! Ordering is byte-identical to a `BinaryHeap<Reverse<_>>` keyed by
//! `(time, seq)`. Within a slot, FIFO order *is* `seq` order (pushes happen
//! with monotonically increasing `seq`), and a slot never mixes two wheel
//! epochs because only times within `[cursor, cursor + WHEEL)` are admitted
//! and `cursor` never moves backwards. On a time tie between wheel and
//! overflow, the overflow event pops first: it was necessarily scheduled
//! earlier (while the time was still beyond the horizon), so it carries the
//! smaller `seq`.
//!
//! # The lone runner
//!
//! A thread that ends its slice still runnable asks to be woken `d` ticks
//! later. If nothing queued is due at or before that time
//! ([`EventQueue::none_due_by`]), pushing the wake and popping it again
//! would return exactly that wake: it is the only event at or before its
//! time (an event *at* its time would have been pushed earlier, carry the
//! smaller `seq` and pop first — which is why the test is "at or before",
//! not "before"). [`EventQueue::skip_to`] then leaves the queue in the state
//! push-then-pop would have left it in, and the scheduler keeps running the
//! thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use anduril_ir::{ChanId, Value};

use crate::thread::ThreadId;

/// Number of wheel slots. Delays shorter than this are the overwhelmingly
/// common case; longer ones take the overflow heap.
const WHEEL: usize = 256;

/// Words of the slot-occupancy bitmap.
const WORDS: usize = WHEEL / 64;

/// Null link / empty slot marker in the node pool.
const NIL: u32 = u32::MAX;

/// What a popped event asks the scheduler to do.
#[derive(Debug)]
pub(super) enum Event {
    /// Run (or unblock, when `expired`) a thread.
    Wake {
        tid: ThreadId,
        token: u64,
        expired: bool,
    },
    /// Deliver a message to `(node, chan)`.
    Deliver {
        node: usize,
        chan: ChanId,
        payload: Value,
    },
}

/// A popped event with its place in the schedule.
#[derive(Debug)]
pub(super) struct Due {
    pub time: u64,
    /// Only the ordering tests read it: the scheduler needs no more than
    /// the order itself.
    #[cfg(test)]
    pub seq: u64,
    pub event: Event,
}

const KIND_WAKE: u32 = 0;
const KIND_EXPIRE: u32 = 1;
const KIND_DELIVER: u32 = 2;

/// One pooled event: `what` is `index << 2 | kind`, where the index is the
/// thread of a wake or the payload slot of a delivery; `token` is the wake's
/// wait epoch (unused by deliveries); `next` is the intra-slot FIFO link
/// (unused in the overflow heap).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Node {
    time: u64,
    seq: u64,
    token: u64,
    what: u32,
    next: u32,
}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A message in flight.
#[derive(Clone)]
struct Parcel {
    node: usize,
    chan: ChanId,
    payload: Value,
}

#[derive(Clone)]
pub(super) struct EventQueue {
    /// Per-slot FIFO list heads/tails, indexing into `pool`; `NIL` = empty.
    head: [u32; WHEEL],
    tail: [u32; WHEEL],
    /// Bit `slot` is set exactly while `head[slot] != NIL`.
    occupied: [u64; WORDS],
    /// Backing store for queued events; freed nodes go on `free`.
    pool: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    /// Scan start: no queued event is earlier than this time.
    cursor: u64,
    /// Events scheduled past the wheel horizon.
    overflow: BinaryHeap<Reverse<Node>>,
    /// Total queued events across wheel and overflow.
    len: usize,
    /// Payloads of queued deliveries; `None` slots are listed in
    /// `free_parcels`.
    parcels: Vec<Option<Parcel>>,
    free_parcels: Vec<u32>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            head: [NIL; WHEEL],
            tail: [NIL; WHEEL],
            occupied: [0; WORDS],
            pool: Vec::new(),
            free: NIL,
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            parcels: Vec::new(),
            free_parcels: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Makes room for `threads` more queued events on the wheel and as
    /// many beyond its horizon: a thread has one wake queued at most.
    pub(super) fn reserve(&mut self, threads: usize) {
        self.pool.reserve(threads);
        self.overflow.reserve(threads);
    }

    /// Empties the queue, keeping the capacity of its pool, heap and slab.
    pub(super) fn clear(&mut self) {
        self.head = [NIL; WHEEL];
        self.tail = [NIL; WHEEL];
        self.occupied = [0; WORDS];
        self.pool.clear();
        self.free = NIL;
        self.cursor = 0;
        self.overflow.clear();
        self.len = 0;
        self.parcels.clear();
        self.free_parcels.clear();
    }

    /// Queues a wake. `time` must be `>=` the time of the last popped event
    /// (the simulation clock never schedules into the past).
    pub(super) fn push_wake(
        &mut self,
        time: u64,
        seq: u64,
        tid: ThreadId,
        token: u64,
        expired: bool,
    ) {
        debug_assert!(tid < 1 << 30, "thread index exceeds the packed range");
        let kind = if expired { KIND_EXPIRE } else { KIND_WAKE };
        self.push(Node {
            time,
            seq,
            token,
            what: (tid as u32) << 2 | kind,
            next: NIL,
        });
    }

    /// Queues a message delivery; same contract on `time` as
    /// [`EventQueue::push_wake`].
    pub(super) fn push_deliver(
        &mut self,
        time: u64,
        seq: u64,
        node: usize,
        chan: ChanId,
        payload: Value,
    ) {
        let parcel = Some(Parcel {
            node,
            chan,
            payload,
        });
        let slot = match self.free_parcels.pop() {
            Some(slot) => {
                self.parcels[slot as usize] = parcel;
                slot
            }
            None => {
                self.parcels.push(parcel);
                (self.parcels.len() - 1) as u32
            }
        };
        debug_assert!(slot < 1 << 30, "parcel slot exceeds the packed range");
        self.push(Node {
            time,
            seq,
            token: 0,
            what: slot << 2 | KIND_DELIVER,
            next: NIL,
        });
    }

    // Inlined into its two callers, which build the node: passed through
    // memory, it is read in wider pieces than its fields were written in.
    #[inline(always)]
    fn push(&mut self, node: Node) {
        debug_assert!(node.time >= self.cursor, "event scheduled in the past");
        self.len += 1;
        if node.time - self.cursor >= WHEEL as u64 {
            self.overflow.push(Reverse(node));
            return;
        }
        let slot = (node.time % WHEEL as u64) as usize;
        let idx = match self.free {
            NIL => {
                self.pool.push(node);
                (self.pool.len() - 1) as u32
            }
            i => {
                self.free = self.pool[i as usize].next;
                self.pool[i as usize] = node;
                i
            }
        };
        match self.tail[slot] {
            NIL => {
                self.head[slot] = idx;
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
            t => self.pool[t as usize].next = idx,
        }
        self.tail[slot] = idx;
    }

    /// The first occupied wheel slot's time in `[cursor, end)`, where
    /// `end <= cursor + WHEEL`.
    ///
    /// Every wheel event's time lies in `[cursor, cursor + WHEEL)`, so an
    /// occupied slot `d` places after the cursor's, going round the ring,
    /// holds the events of time `cursor + d`: the first set bit from the
    /// cursor's bit on, wrapping once, is the earliest.
    #[inline]
    fn first_wheel_time(&self, end: u64) -> Option<u64> {
        let start = (self.cursor % WHEEL as u64) as usize;
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] >> bit;
        let distance = if ahead != 0 {
            ahead.trailing_zeros() as usize
        } else {
            // The other words in ring order, then the cursor's own again:
            // what is set in it now lies before the cursor's bit.
            (1..=WORDS).find_map(|k| {
                let w = self.occupied[(word + k) % WORDS];
                (w != 0).then(|| k * 64 - bit + w.trailing_zeros() as usize)
            })?
        };
        let time = self.cursor + distance as u64;
        (time < end).then_some(time)
    }

    /// `true` when no queued event is due at or before `time`.
    pub(super) fn none_due_by(&self, time: u64) -> bool {
        if self.len == 0 {
            return true;
        }
        if let Some(Reverse(e)) = self.overflow.peek() {
            if e.time <= time {
                return false;
            }
        }
        let end = time.saturating_add(1).min(self.cursor + WHEEL as u64);
        self.first_wheel_time(end).is_none()
    }

    /// Moves the scan start to `time`, as pushing an event at `time` and
    /// popping it again would. Only valid when [`EventQueue::none_due_by`]
    /// holds for `time`.
    pub(super) fn skip_to(&mut self, time: u64) {
        debug_assert!(time >= self.cursor && self.none_due_by(time));
        self.cursor = time;
    }

    /// Pops the earliest event in `(time, seq)` order.
    // Inlined into its one caller, the event loop: handed back through
    // memory, a `Due` is read in wider pieces than it was written in.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Due> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // The earliest overflow time bounds the wheel scan: a wheel event
        // at the same time was scheduled later and must pop after it.
        let mut end = self.cursor + WHEEL as u64;
        if let Some(Reverse(e)) = self.overflow.peek() {
            end = end.min(e.time);
        }
        let entry = match self.first_wheel_time(end) {
            Some(t) => {
                let slot = (t % WHEEL as u64) as usize;
                let idx = self.head[slot];
                let node = &mut self.pool[idx as usize];
                debug_assert_eq!(node.time, t, "stale wheel epoch");
                let entry = *node;
                self.head[slot] = node.next;
                if self.head[slot] == NIL {
                    self.tail[slot] = NIL;
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                node.next = self.free;
                self.free = idx;
                entry
            }
            None => {
                self.overflow
                    .pop()
                    .expect("len counted an event the scan could not find")
                    .0
            }
        };
        self.cursor = entry.time;
        let index = entry.what >> 2;
        let event = match entry.what & 3 {
            KIND_DELIVER => {
                let parcel = self.parcels[index as usize]
                    .take()
                    .expect("a queued delivery owns its parcel");
                self.free_parcels.push(index);
                Event::Deliver {
                    node: parcel.node,
                    chan: parcel.chan,
                    payload: parcel.payload,
                }
            }
            kind => Event::Wake {
                tid: index as ThreadId,
                token: entry.token,
                expired: kind == KIND_EXPIRE,
            },
        };
        Some(Due {
            time: entry.time,
            #[cfg(test)]
            seq: entry.seq,
            event,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wheel_node_is_half_a_cache_line() {
        assert!(std::mem::size_of::<Node>() <= 32);
    }

    /// What the reference heap orders: `(time, seq)`, with the payload a
    /// delivery must come back with.
    type Key = (u64, u64, Option<i64>);

    fn key(due: &Due) -> Key {
        let payload = match &due.event {
            Event::Deliver {
                payload: Value::Int(i),
                ..
            } => Some(*i),
            Event::Deliver { .. } => panic!("payload changed in flight"),
            Event::Wake { .. } => None,
        };
        (due.time, due.seq, payload)
    }

    /// The wheel must pop in exactly the `(time, seq)` order a
    /// `BinaryHeap<Reverse<_>>` produces — across slot reuse, wheel wrap,
    /// overflow ties and deliveries — while the "thread" that just popped
    /// takes the lone-runner bypass whenever it is legal.
    #[test]
    fn pops_in_heap_order() {
        let mut q = EventQueue::default();
        let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let mut bypassed = 0usize;
        let mut bypassed_past_horizon = 0usize;
        let mut denied_by_tie = 0usize;
        let mut clock = 0u64;
        let mut seq = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..6_000u64 {
            // A deterministic scramble of near and far delays, wakes and
            // deliveries; quiet stretches let the queue drain so the bypass
            // gets its chance.
            let pushes = if (round / 50) % 2 == 0 { rand() % 3 } else { 0 };
            for _ in 0..pushes {
                let r = rand();
                let delay = match r % 12 {
                    0..=5 => r % 16,        // short: stays in the wheel
                    6..=7 => r % 200,       // mid: still wheel
                    8 => 65 + r % 64,       // past the cursor's word
                    9 => 129 + r % 126,     // two words on, up to the rim
                    10 => WHEEL as u64 - 1, // the last slot the wheel takes
                    _ => 250 + (r % 2_000), // far: overflow (from WHEEL on)
                };
                let payload = (r % 3 == 0).then_some(r as i64);
                match payload {
                    Some(p) => q.push_deliver(clock + delay, seq, 0, ChanId(0), Value::Int(p)),
                    None => q.push_wake(clock + delay, seq, 0, 0, false),
                }
                heap.push(Reverse((clock + delay, seq, payload)));
                seq += 1;
            }
            // What the bit scan finds must be what the heap holds, at every
            // step and for every horizon: just ahead, a word on, at the rim
            // of the wheel and past it.
            for ahead in [0, 1, 63, 64, 65, 127, 128, 200, 255, 256, 257, 1_000] {
                let by = clock + ahead;
                let none = heap.peek().is_none_or(|Reverse(k)| k.0 > by);
                assert_eq!(q.none_due_by(by), none, "round {round}, by {by}");
            }
            // Pop one event, then half of the time behave like a thread
            // ending its slice runnable: re-wake after `d` ticks, through
            // the queue or — when nothing is due by then — around it.
            let Some(due) = q.pop() else { continue };
            clock = due.time;
            popped.push(key(&due));
            expected.push(heap.pop().expect("reference has the event too").0);
            if rand() % 2 == 0 {
                continue;
            }
            let d = match rand() % 8 {
                0 => 300 + rand() % 500, // a wake past the wheel horizon
                r => 1 + r,
            };
            let wake = clock + d;
            let legal = heap.peek().is_none_or(|Reverse(k)| k.0 > wake);
            assert_eq!(q.none_due_by(wake), legal, "bypass legality at {wake}");
            if !legal && heap.peek().is_some_and(|Reverse(k)| k.0 == wake) {
                denied_by_tie += 1;
            }
            // The reference always goes through its heap.
            heap.push(Reverse((wake, seq, None)));
            if legal {
                // Push-then-pop would return this very wake.
                expected.push(heap.pop().expect("just pushed").0);
                popped.push((wake, seq, None));
                q.skip_to(wake);
                clock = wake;
                bypassed += 1;
                bypassed_past_horizon += (d >= WHEEL as u64) as usize;
            } else {
                q.push_wake(wake, seq, 0, 0, false);
            }
            seq += 1;
        }
        while let Some(due) = q.pop() {
            popped.push(key(&due));
        }
        while let Some(Reverse(k)) = heap.pop() {
            expected.push(k);
        }
        assert_eq!(popped, expected);
        assert!(q.pop().is_none());
        assert!(bypassed > 100, "the bypass was exercised ({bypassed})");
        assert!(bypassed_past_horizon > 0, "including across the horizon");
        assert!(denied_by_tie > 0, "and denied by an event at the wake time");
    }

    /// The bit scan's corners, each against the order it must keep: times
    /// pop ascending, ties in push order.
    #[test]
    fn the_bit_scan_wraps_once_and_stops_at_the_overflow() {
        fn pops(q: &mut EventQueue) -> Vec<(u64, u64)> {
            std::iter::from_fn(|| q.pop().map(|d| (d.time, d.seq))).collect()
        }
        // Gaps longer than one and than two bitmap words.
        let mut q = EventQueue::default();
        for (seq, time) in [3, 3 + 70, 3 + 70 + 140].into_iter().enumerate() {
            q.push_wake(time, seq as u64, 0, 0, false);
        }
        assert!(q.none_due_by(2) && !q.none_due_by(3));
        assert_eq!(pops(&mut q), [(3, 0), (73, 1), (213, 2)]);

        // The cursor sits mid-word (slot 100 is bit 36 of word 1) and the
        // only event lies in that word's low bits, a lap ahead: the scan
        // goes through the three other words and comes back to them.
        let mut q = EventQueue::default();
        q.push_wake(100, 0, 0, 0, false);
        assert_eq!(pops(&mut q), [(100, 0)]);
        let wrapped = 100 + WHEEL as u64 - 30; // slot 70: bit 6 of word 1
        q.push_wake(wrapped, 1, 0, 0, false);
        assert_eq!(q.occupied, [0, 1 << 6, 0, 0]);
        assert!(q.none_due_by(wrapped - 1) && !q.none_due_by(wrapped));
        assert_eq!(pops(&mut q), [(wrapped, 1)]);
        assert_eq!(q.occupied, [0; WORDS]);

        // Exactly `WHEEL - 1` ahead is the slot just behind the cursor's;
        // one more is the cursor's own slot, a lap on: overflow.
        let mut q = EventQueue::default();
        q.push_wake(40, 0, 0, 0, false);
        assert_eq!(pops(&mut q), [(40, 0)]);
        q.push_wake(40 + WHEEL as u64, 1, 0, 0, false);
        q.push_wake(40 + WHEEL as u64 - 1, 2, 0, 0, false);
        assert_eq!((q.overflow.len(), q.occupied), (1, [1 << 39, 0, 0, 0]));
        assert!(q.none_due_by(40 + WHEEL as u64 - 2));
        assert_eq!(pops(&mut q), [(295, 2), (296, 1)]);

        // An overflow event caps the scan: wheel events at its time and
        // later were pushed after it and pop after it.
        let mut q = EventQueue::default();
        q.push_wake(300, 0, 0, 0, false); // overflow: 300 >= WHEEL
        q.push_wake(200, 1, 0, 0, false);
        assert_eq!(q.pop().map(|d| d.time), Some(200));
        q.push_wake(300, 2, 0, 0, false); // wheel now: 300 - 200 < WHEEL
        q.push_wake(310, 3, 0, 0, false);
        q.push_wake(299, 4, 0, 0, false);
        assert!(q.none_due_by(298) && !q.none_due_by(299));
        assert_eq!(pops(&mut q), [(299, 4), (300, 0), (300, 2), (310, 3)]);
    }

    /// An event due exactly at the runner's wake time was pushed earlier,
    /// carries the smaller `seq`, and must pop first: no bypass.
    #[test]
    fn a_delivery_at_the_wake_time_pops_first() {
        let mut q = EventQueue::default();
        q.push_deliver(9, 0, 1, ChanId(2), Value::Int(7));
        assert!(q.none_due_by(8));
        assert!(!q.none_due_by(9));
        q.push_wake(9, 1, 3, 5, false);
        let first = q.pop().expect("delivery");
        assert!(matches!(
            first,
            Due {
                time: 9,
                seq: 0,
                event: Event::Deliver {
                    node: 1,
                    chan: ChanId(2),
                    payload: Value::Int(7),
                },
            }
        ));
        let second = q.pop().expect("wake");
        assert!(matches!(
            second,
            Due {
                time: 9,
                seq: 1,
                event: Event::Wake {
                    tid: 3,
                    token: 5,
                    expired: false,
                },
            }
        ));
        // The parcel slot is reused, and an overflow event blocks a bypass
        // past its time like a wheel event does.
        q.push_deliver(9 + 2 * WHEEL as u64, 2, 0, ChanId(0), Value::Unit);
        assert_eq!(q.parcels.len(), 1);
        assert!(q.none_due_by(9 + 2 * WHEEL as u64 - 1));
        assert!(!q.none_due_by(9 + 2 * WHEEL as u64));
    }
}
