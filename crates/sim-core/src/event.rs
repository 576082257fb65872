//! Discrete-event queue.
//!
//! A classic calendar queue built on [`std::collections::BinaryHeap`]. Two
//! properties matter for reproducibility:
//!
//! 1. **Stability** — events scheduled for the same instant pop in the order
//!    they were pushed (FIFO tie-break via a monotonically increasing
//!    sequence number), so the simulation never depends on heap internals.
//! 2. **Monotonicity** — popping an event advances the queue's notion of
//!    "now"; scheduling into the past is a logic error and panics in debug
//!    builds (it is clamped to "now" in release builds so a small rounding
//!    slip cannot corrupt a long experiment).
//!
//! Several queues can also share one sequence space, so that their events
//! order as if they had been scheduled on one queue: [`EventQueue::insert`]
//! takes a sequence number from the shared counter,
//! [`EventQueue::pop_batch_before`] stops at an event of another queue,
//! and [`EventQueue::renumber`] replaces numbers a queue handed out on its
//! own with their places in the shared order.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event: its due time, a stable sequence number and the payload.
#[derive(Debug)]
struct Scheduled<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

// Ordering is by (due, seq); the payload never participates, so `E` needs no
// `Ord` bound and ties break FIFO.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A deterministic discrete-event queue over event payloads of type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Current simulated time: the due time of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at the absolute instant `due`.
    ///
    /// Scheduling into the past panics in debug builds; in release builds
    /// the event is clamped to `now` so it fires immediately.
    pub fn schedule_at(&mut self, due: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(due, seq, event);
    }

    /// Schedule `event` at `due` under a sequence number taken from a
    /// counter shared with other queues. It ties with this queue's events
    /// due at the same instant by that number.
    pub fn insert(&mut self, due: SimTime, seq: u64, event: E) {
        debug_assert!(
            due >= self.now,
            "event scheduled in the past: due={due} now={}",
            self.now
        );
        let due = due.max(self.now);
        self.heap.push(Reverse(Scheduled { due, seq, event }));
    }

    /// The sequence number the next [`EventQueue::schedule_at`] assigns.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Continue numbering at `seq`.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Due time of the next event, if any.
    pub fn peek_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(s)| s.due)
    }

    /// Remove every pending event that `pred` selects and return them as
    /// `(due, seq, event)`, in no particular order.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> Vec<(SimTime, u64, E)> {
        let (taken, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .partition(|Reverse(s)| pred(&s.event));
        self.heap = kept.into();
        taken
            .into_iter()
            .map(|Reverse(s)| (s.due, s.seq, s.event))
            .collect()
    }

    /// Rewrite every pending event's sequence number through `f`.
    pub fn renumber(&mut self, mut f: impl FnMut(u64) -> u64) {
        let mut pending = std::mem::take(&mut self.heap).into_vec();
        for Reverse(s) in &mut pending {
            s.seq = f(s.seq);
        }
        self.heap = pending.into();
    }

    /// Pop the next event, advancing the clock to its due time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.due >= self.now, "event queue time went backwards");
        self.now = s.due;
        Some((s.due, s.event))
    }

    /// Pop the next event *and every further event due at the same
    /// instant*, appending them to `out` in FIFO order; advances the clock
    /// and returns the batch's shared due time.
    ///
    /// Dispatching a drained batch in order is indistinguishable from
    /// popping one event at a time: events scheduled while the batch is
    /// being processed carry higher sequence numbers than everything
    /// already drained, so they would have popped after the remaining
    /// batch members in the one-at-a-time scheme too — they simply form
    /// the next batch.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let Reverse(first) = self.heap.pop()?;
        debug_assert!(first.due >= self.now, "event queue time went backwards");
        let due = first.due;
        self.now = due;
        out.push(first.event);
        while let Some(Reverse(s)) = self.heap.peek() {
            if s.due != due {
                break;
            }
            let Reverse(s) = self.heap.pop().expect("peeked just above");
            out.push(s.event);
        }
        Some(due)
    }

    /// [`EventQueue::pop_batch`] over only the events that order before
    /// `bound`, a `(due, seq)` pair, appending `(seq, event)` pairs. Returns
    /// `None`, and leaves the clock alone, when the next event does not
    /// order before `bound`.
    pub fn pop_batch_before(
        &mut self,
        bound: (SimTime, u64),
        out: &mut Vec<(u64, E)>,
    ) -> Option<SimTime> {
        let due = self.peek_due()?;
        debug_assert!(due >= self.now, "event queue time went backwards");
        let start = out.len();
        while let Some(Reverse(s)) = self.heap.peek() {
            if s.due != due || (s.due, s.seq) >= bound {
                break;
            }
            let Reverse(s) = self.heap.pop().expect("peeked just above");
            out.push((s.seq, s.event));
        }
        if out.len() == start {
            return None;
        }
        self.now = due;
        Some(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), ());
        q.pop();
        q.schedule_at(SimTime(50), ());
    }

    #[test]
    fn pop_batch_drains_exactly_the_same_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(10), "b");
        q.schedule_at(SimTime(20), "c");
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(10)));
        assert_eq!(batch, vec!["a", "b"]);
        assert_eq!(q.now(), SimTime(10));
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(20)));
        assert_eq!(batch, vec!["c"]);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_matches_pop_one_at_a_time() {
        // The same interleaved schedule (including events scheduled at the
        // current instant mid-processing) must dispatch identically under
        // both draining schemes.
        fn schedule(q: &mut EventQueue<u32>) {
            q.schedule_at(SimTime(5), 0);
            q.schedule_at(SimTime(5), 1);
            q.schedule_at(SimTime(9), 4);
            q.schedule_at(SimTime(5), 2);
        }
        let mut singles = Vec::new();
        let mut q = EventQueue::new();
        schedule(&mut q);
        while let Some((t, e)) = q.pop() {
            // A handler scheduling more work at `now` — lands after the
            // rest of the instant, before later times.
            if e == 1 {
                q.schedule_at(t, 3);
            }
            singles.push((t, e));
        }

        let mut batched = Vec::new();
        let mut q = EventQueue::new();
        schedule(&mut q);
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            for e in batch.drain(..) {
                if e == 1 {
                    q.schedule_at(t, 3);
                }
                batched.push((t, e));
            }
        }
        assert_eq!(singles, batched);
        assert_eq!(
            batched,
            vec![
                (SimTime(5), 0),
                (SimTime(5), 1),
                (SimTime(5), 2),
                (SimTime(5), 3),
                (SimTime(9), 4),
            ]
        );
    }

    #[test]
    fn pop_batch_before_stops_at_the_bound() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "a"); // seq 0
        q.schedule_at(SimTime(20), "b"); // seq 1
        q.schedule_at(SimTime(20), "c"); // seq 2
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_batch_before((SimTime(20), 2), &mut batch),
            Some(SimTime(10))
        );
        assert_eq!(batch, vec![(0, "a")]);
        batch.clear();
        // Due at the bound's instant: only the numbers below it pass.
        assert_eq!(
            q.pop_batch_before((SimTime(20), 2), &mut batch),
            Some(SimTime(20))
        );
        assert_eq!(batch, vec![(1, "b")]);
        batch.clear();
        assert_eq!(q.pop_batch_before((SimTime(20), 2), &mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.now(), SimTime(20));
        assert_eq!(q.peek_due(), Some(SimTime(20)));
    }

    #[test]
    fn queues_sharing_a_sequence_space_order_as_one() {
        // Two queues numbering on their own ("provisional" 100..), then
        // renumbered into the shared order; an event moved between them
        // keeps its shared number and its place.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        a.insert(SimTime(5), 0, "a0");
        b.insert(SimTime(5), 1, "b1");
        a.set_next_seq(100);
        b.set_next_seq(100);
        a.schedule_at(SimTime(5), "a-late"); // provisional 100, shared 3
        b.schedule_at(SimTime(5), "b-late"); // provisional 100, shared 2
        assert_eq!(a.next_seq(), 101);
        a.renumber(|s| if s < 100 { s } else { 3 });
        b.renumber(|s| if s < 100 { s } else { 2 });
        for (due, seq, e) in a.remove_where(|e| e.starts_with('a')) {
            b.insert(due, seq, e);
        }
        assert!(a.is_empty());
        let order: Vec<_> = std::iter::from_fn(|| b.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a0", "b1", "b-late", "a-late"]);
    }

    #[test]
    fn empty_queue_reports_empty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
