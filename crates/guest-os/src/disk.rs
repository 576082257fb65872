//! The shared virtual disk.
//!
//! The paper's testbed puts every VM's virtual disk (and swap) on one
//! spinning drive behind two virtualization layers, so VMs that swap to disk
//! contend with each other. The model is a single-server FIFO queue:
//!
//! * **reads** (swap-in) are synchronous: the requester waits until the disk
//!   has drained earlier work and served its request;
//! * **writes** (swap-out) are submitted through a write-back model of the
//!   kernel's swap clustering: they occupy disk time at an amortized
//!   positioning cost (one seek per cluster) and only *throttle* the guest
//!   when the backlog exceeds a threshold, mirroring kswapd's asynchronous
//!   write-back with congestion control;
//! * **hypervisor write-back** (slow-reclaim victims, migration spill)
//!   occupies disk time at the same per-page cost, but no guest waits on
//!   it, so it records no throttle.

use sim_core::cost::CostModel;
use sim_core::time::{SimDuration, SimTime};

/// Pages per clustered swap write, sharing one positioning cost (Linux's
/// swap cluster).
const CLUSTER_PAGES: u64 = 32;

/// Write-back backlog past which a guest writer is throttled until the
/// queue drains back under it.
const MAX_BACKLOG: SimDuration = SimDuration::from_millis(50);

/// A single shared disk with a FIFO queue; `SharedDisk::default()` is a
/// fresh, idle disk.
#[derive(Debug, Clone, Default)]
pub struct SharedDisk {
    /// Instant at which the disk finishes all currently queued work.
    next_free: SimTime,
    reads: u64,
    writes: u64,
    read_wait_total: SimDuration,
    throttle_total: SimDuration,
}

impl SharedDisk {
    /// Synchronous read of `pages` pages issued at `now`. Returns the
    /// requester's total wait (queueing + service). `sequential` requests
    /// (stream continuations detected by the guest's fault path) pay the
    /// reduced positioning cost.
    pub fn read(
        &mut self,
        now: SimTime,
        pages: u64,
        sequential: bool,
        cost: &CostModel,
    ) -> SimDuration {
        debug_assert!(pages > 0);
        self.reads += 1;
        let service = if sequential {
            cost.disk_seq_request(pages)
        } else {
            cost.disk_request(pages)
        };
        let start = self.next_free.max(now);
        let completion = start + service;
        self.next_free = completion;
        let wait = completion - now;
        self.read_wait_total += wait;
        wait
    }

    /// Disk time of one clustered page write: one positioning cost shared
    /// by the whole cluster, plus the page's transfer.
    fn write_service(&self, cost: &CostModel) -> SimDuration {
        SimDuration::from_nanos(
            cost.disk_access.as_nanos() / CLUSTER_PAGES + cost.disk_page_transfer.as_nanos(),
        )
    }

    /// Asynchronous clustered write of one page issued at `now`. The disk
    /// absorbs amortized service time; the guest is charged a wait only when
    /// the backlog exceeds the write-back threshold (congestion throttling).
    pub fn write_page(&mut self, now: SimTime, cost: &CostModel) -> SimDuration {
        self.writes += 1;
        let start = self.next_free.max(now);
        self.next_free = start + self.write_service(cost);
        let backlog = self.next_free.saturating_since(now);
        if backlog > MAX_BACKLOG {
            let throttle = backlog.saturating_sub(MAX_BACKLOG);
            self.throttle_total += throttle;
            throttle
        } else {
            SimDuration::ZERO
        }
    }

    /// Hypervisor write-back of `pages` pages issued at `now`: the disk is
    /// busy exactly as long as after `pages` calls to
    /// [`SharedDisk::write_page`], but no guest is stalled, so nothing is
    /// added to [`SharedDisk::throttle_total`]. A later guest write or read
    /// still queues behind it.
    pub fn write_back(&mut self, now: SimTime, pages: u64, cost: &CostModel) {
        if pages == 0 {
            return;
        }
        self.writes += pages;
        let busy = SimDuration::from_nanos(self.write_service(cost).as_nanos() * pages);
        self.next_free = self.next_free.max(now) + busy;
    }

    /// Number of read requests served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of page writes absorbed, guest and hypervisor alike.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Sum of all read waits (queueing + service), for reports.
    pub fn read_wait_total(&self) -> SimDuration {
        self.read_wait_total
    }

    /// Sum of the write-throttle stalls charged to guests, for reports.
    pub fn throttle_total(&self) -> SimDuration {
        self.throttle_total
    }

    /// Instant the disk goes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_queue_fifo() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        let w1 = d.read(SimTime::ZERO, 1, false, &cost);
        assert_eq!(w1, cost.disk_request(1));
        // Second read at t=0 waits behind the first.
        let w2 = d.read(SimTime::ZERO, 1, false, &cost);
        assert_eq!(w2.as_nanos(), 2 * cost.disk_request(1).as_nanos());
        assert_eq!(d.reads(), 2);
    }

    #[test]
    fn idle_disk_serves_immediately() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        d.read(SimTime::ZERO, 1, false, &cost);
        // Request long after the queue drained: no queueing delay.
        let later = SimTime::from_secs(10);
        let w = d.read(later, 1, false, &cost);
        assert_eq!(w, cost.disk_request(1));
    }

    #[test]
    fn sequential_reads_pay_reduced_positioning() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        let w = d.read(SimTime::ZERO, 8, true, &cost);
        assert_eq!(w, cost.disk_seq_request(8));
        assert!(w < cost.disk_request(8));
    }

    #[test]
    fn writes_are_cheap_until_backlog() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        // A handful of writes on an idle disk: no throttling.
        for _ in 0..10 {
            assert_eq!(d.write_page(SimTime::ZERO, &cost), SimDuration::ZERO);
        }
        assert_eq!(d.writes(), 10);
        // Flood: eventually the backlog exceeds 50 ms and stalls appear.
        let mut stalled = SimDuration::ZERO;
        for _ in 0..1000 {
            stalled += d.write_page(SimTime::ZERO, &cost);
        }
        assert!(stalled > SimDuration::ZERO, "sustained flood must throttle");
        assert_eq!(d.throttle_total(), stalled);
    }

    #[test]
    fn writes_delay_subsequent_reads() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        for _ in 0..100 {
            d.write_page(SimTime::ZERO, &cost);
        }
        let w = d.read(SimTime::ZERO, 1, false, &cost);
        assert!(
            w > cost.disk_request(1),
            "read must queue behind write-back traffic"
        );
    }

    #[test]
    fn write_back_occupies_the_disk_like_page_writes_without_a_stall() {
        let cost = CostModel::hdd();
        // From an idle disk, from a busy one, and into a backlog far past
        // the throttle threshold.
        for (backlog, pages) in [(0, 5), (40, 1), (40, 300), (2_000, 64)] {
            let mut by_page = SharedDisk::default();
            let mut batched = SharedDisk::default();
            for _ in 0..backlog {
                by_page.write_page(SimTime::ZERO, &cost);
                batched.write_page(SimTime::ZERO, &cost);
            }
            let stalls_before = batched.throttle_total();
            let now = SimTime::from_millis(3);
            for _ in 0..pages {
                by_page.write_page(now, &cost);
            }
            batched.write_back(now, pages, &cost);
            assert_eq!(
                batched.next_free(),
                by_page.next_free(),
                "{backlog}+{pages}"
            );
            assert_eq!(batched.writes(), by_page.writes());
            assert_eq!(batched.throttle_total(), stalls_before, "no guest waited");
            // A guest write after it throttles exactly as after the page
            // writes.
            let later = now + SimDuration::from_millis(1);
            assert_eq!(
                batched.write_page(later, &cost),
                by_page.write_page(later, &cost)
            );
            assert_eq!(batched.next_free(), by_page.next_free());
        }
        let mut d = SharedDisk::default();
        d.write_back(SimTime::from_secs(1), 0, &cost);
        assert_eq!(d.next_free(), SimTime::ZERO, "an empty batch is a no-op");
        assert_eq!(d.writes(), 0);
    }

    #[test]
    fn amortized_write_cost_is_less_than_a_full_access() {
        let cost = CostModel::hdd();
        let mut d = SharedDisk::default();
        d.write_page(SimTime::ZERO, &cost);
        let busy = d.next_free().saturating_since(SimTime::ZERO);
        assert!(busy < cost.disk_request(1));
    }
}
