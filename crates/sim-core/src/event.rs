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
        debug_assert!(
            due >= self.now,
            "event scheduled in the past: due={due} now={}",
            self.now
        );
        let due = due.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { due, seq, event }));
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
    fn empty_queue_reports_empty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
