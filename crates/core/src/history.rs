//! Bounded statistics history.
//!
//! The MM "keeps track of this information across time, generating a
//! history of how the VMs use tmem" (paper §III-D). Nothing reads the
//! window: `Policy::compute` sees one snapshot, and the paper's policies
//! need only that (the cumulative counters carry the relevant past). The
//! window stays only so that `MemoryManager::{new, from_kind}` keep their
//! `history_limit` parameter. What the MM uses here is the sequence
//! classification ([`StatsHistory::observe`]) and its gap count.

use std::collections::VecDeque;
use tmem::stats::MemStats;

/// Classification of an incoming snapshot's sequence number against the
/// history's high-water mark. See [`StatsHistory::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqObservation {
    /// A new snapshot, possibly after a gap — safe to process.
    Fresh,
    /// Same sequence as the last processed snapshot (duplicated in the
    /// relay) — discard idempotently.
    Duplicate,
    /// Older than the last processed snapshot (reordered in the relay) —
    /// discard; newer data already informed the policy.
    Stale,
}

/// A FIFO-bounded window of statistics snapshots.
#[derive(Debug, Default)]
pub struct StatsHistory {
    window: VecDeque<MemStats>,
    limit: usize,
    last_seq: Option<u64>,
    gaps: u64,
}

impl StatsHistory {
    /// History retaining at most `limit` snapshots (0 disables retention).
    pub fn new(limit: usize) -> Self {
        StatsHistory {
            window: VecDeque::with_capacity(limit.min(4096)),
            limit,
            last_seq: None,
            gaps: 0,
        }
    }

    /// Classify snapshot sequence `seq` against the last one processed,
    /// advancing the high-water mark and the gap statistics when it is
    /// fresh. The relay path may drop, delay or duplicate samples; the MM
    /// calls this before ingesting so duplicates and stale reorders are
    /// discarded idempotently and loss is visible as gap counts.
    pub fn observe(&mut self, seq: u64) -> SeqObservation {
        match self.last_seq {
            Some(last) if seq == last => SeqObservation::Duplicate,
            Some(last) if seq < last => SeqObservation::Stale,
            Some(last) => {
                if seq > last + 1 {
                    self.gaps += 1;
                }
                self.last_seq = Some(seq);
                SeqObservation::Fresh
            }
            None => {
                self.last_seq = Some(seq);
                SeqObservation::Fresh
            }
        }
    }

    /// Highest snapshot sequence processed so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Number of sequence gaps detected (each may span several samples).
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Append a snapshot, evicting the oldest beyond the limit.
    pub fn push(&mut self, stats: MemStats) {
        if self.limit == 0 {
            return;
        }
        if self.window.len() == self.limit {
            self.window.pop_front();
        }
        self.window.push_back(stats);
    }

    /// Snapshots currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &MemStats> {
        self.window.iter()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Most recent snapshot.
    pub fn latest(&self) -> Option<&MemStats> {
        self.window.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use tmem::stats::NodeInfo;

    fn snap(t: u64) -> MemStats {
        MemStats {
            at: SimTime::from_secs(t),
            node: NodeInfo {
                total_tmem: 100,
                free_tmem: 100,
                vm_count: 0,
            },
            vms: Vec::new(),
        }
    }

    #[test]
    fn bounded_fifo() {
        let mut h = StatsHistory::new(3);
        for t in 0..5 {
            h.push(snap(t));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.iter().next().unwrap().at, SimTime::from_secs(2));
        assert_eq!(h.latest().unwrap().at, SimTime::from_secs(4));
    }

    #[test]
    fn zero_limit_disables_retention() {
        let mut h = StatsHistory::new(0);
        h.push(snap(0));
        assert!(h.is_empty());
        assert!(h.latest().is_none());
    }

    #[test]
    fn observe_classifies_and_counts_gaps() {
        let mut h = StatsHistory::new(4);
        assert_eq!(h.observe(1), SeqObservation::Fresh);
        assert_eq!(h.observe(2), SeqObservation::Fresh);
        assert_eq!(h.observe(2), SeqObservation::Duplicate);
        assert_eq!(h.observe(1), SeqObservation::Stale);
        assert_eq!(h.gaps(), 0);
        // Samples 3 and 4 lost: one gap.
        assert_eq!(h.observe(5), SeqObservation::Fresh);
        assert_eq!(h.gaps(), 1);
        assert_eq!(h.last_seq(), Some(5));
    }
}
