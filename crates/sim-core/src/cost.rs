//! The latency cost model.
//!
//! The paper measures wall-clock running time on a nested-virtualization
//! testbed (VirtualBox → Xen → Ubuntu guests, spinning disk). We cannot run
//! that stack, so simulated running time is the sum of per-operation costs
//! drawn from this model. Absolute values are order-of-magnitude estimates
//! for the paper's hardware (2.1 GHz Core i7, 5400/7200 rpm HDD behind two
//! virtualization layers); what the reproduction relies on is the *ratio*
//! between a tmem hypercall (~µs) and a disk access (~ms), which is the
//! mechanism behind every result in the paper.
//!
//! All fields are public and the presets are plain constructors; a sweep
//! manifest's `cost=hdd|ssd|nvm` override picks a preset per cell (see
//! `scenarios/ablations/disk.toml`).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Latency parameters for every simulated memory-system operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of the guest touching one *resident* page (amortized compute on
    /// the page plus TLB/cache effects).
    pub ram_page_touch: SimDuration,
    /// Fixed overhead of taking a page fault into the guest kernel
    /// (trap, PFRA bookkeeping), excluding any backing-store access.
    pub page_fault_overhead: SimDuration,
    /// One tmem hypercall that copies a page (put or successful get):
    /// world switch plus a 4 KiB copy.
    pub tmem_hypercall: SimDuration,
    /// A tmem hypercall that does *not* copy (failed put, miss get, flush).
    pub tmem_hypercall_nocopy: SimDuration,
    /// Positioning cost of one *random* disk access (seek + rotational
    /// latency + virtualization overhead). Charged per request.
    pub disk_access: SimDuration,
    /// Positioning cost of a *sequential* disk access — the request starts
    /// where the previous stream request ended, so the head barely moves.
    /// Kernel swap read-ahead makes swap-in of linearly-scanned regions
    /// sequential, which is why spinning disks survive streaming workloads.
    pub disk_seq_access: SimDuration,
    /// Per-page transfer time once positioned (4 KiB at the sustained
    /// bandwidth of the virtual disk).
    pub disk_page_transfer: SimDuration,
    /// Zero-fill cost of a never-before-touched anonymous page (minor
    /// fault: allocation + clearing).
    pub zero_fill: SimDuration,
    /// One access to the far-memory tier (store or load of a 4 KiB page
    /// over the host-local far-memory fabric: CXL/NVM-class, not the
    /// cluster network). Sits between a tmem hypercall (~6 µs) and an SSD
    /// access (~120 µs) — far memory is worth spilling to, but not free.
    pub far_access: SimDuration,
}

impl CostModel {
    /// The paper's testbed: spinning disk behind VirtualBox + Xen.
    ///
    /// * tmem hit ≈ 6 µs vs disk access ≈ 5 ms — the three-orders-of-
    ///   magnitude gap that makes tmem worth managing.
    pub fn hdd() -> Self {
        CostModel {
            ram_page_touch: SimDuration::from_nanos(250),
            page_fault_overhead: SimDuration::from_micros(1),
            tmem_hypercall: SimDuration::from_micros(6),
            tmem_hypercall_nocopy: SimDuration::from_micros(2),
            disk_access: SimDuration::from_micros(5_000),
            disk_seq_access: SimDuration::from_micros(500),
            disk_page_transfer: SimDuration::from_micros(40),
            zero_fill: SimDuration::from_nanos(600),
            far_access: SimDuration::from_micros(25),
        }
    }

    /// A SATA-SSD-backed virtual disk: the tmem/disk gap narrows to ~20×.
    /// Used by the disk-sensitivity ablation.
    pub fn ssd() -> Self {
        CostModel {
            disk_access: SimDuration::from_micros(120),
            disk_seq_access: SimDuration::from_micros(60),
            disk_page_transfer: SimDuration::from_micros(8),
            ..Self::hdd()
        }
    }

    /// An NVM-backed swap device in the spirit of Ex-Tmem (Venkatesan et
    /// al.): the gap nearly closes, so policy quality matters much less.
    pub fn nvm() -> Self {
        CostModel {
            disk_access: SimDuration::from_micros(15),
            disk_seq_access: SimDuration::from_micros(10),
            disk_page_transfer: SimDuration::from_micros(1),
            ..Self::hdd()
        }
    }

    /// Full cost of one random disk request moving `pages` pages.
    pub fn disk_request(&self, pages: u64) -> SimDuration {
        SimDuration(self.disk_access.as_nanos() + pages * self.disk_page_transfer.as_nanos())
    }

    /// Full cost of one sequential disk request moving `pages` pages.
    pub fn disk_seq_request(&self, pages: u64) -> SimDuration {
        SimDuration(self.disk_seq_access.as_nanos() + pages * self.disk_page_transfer.as_nanos())
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::hdd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_preserves_the_tmem_vs_disk_gap() {
        let c = CostModel::hdd();
        let gap = c.disk_request(1).as_nanos() as f64 / c.tmem_hypercall.as_nanos() as f64;
        assert!(
            gap > 100.0,
            "tmem must be orders of magnitude faster, gap={gap}"
        );
    }

    #[test]
    fn presets_order_by_backing_store_speed() {
        let hdd = CostModel::hdd().disk_request(1);
        let ssd = CostModel::ssd().disk_request(1);
        let nvm = CostModel::nvm().disk_request(1);
        assert!(hdd > ssd && ssd > nvm);
    }

    #[test]
    fn disk_request_scales_with_pages() {
        let c = CostModel::hdd();
        let one = c.disk_request(1);
        let eight = c.disk_request(8);
        assert_eq!(
            eight.as_nanos() - one.as_nanos(),
            7 * c.disk_page_transfer.as_nanos()
        );
    }

    #[test]
    fn sequential_access_is_cheaper_than_random() {
        for c in [CostModel::hdd(), CostModel::ssd(), CostModel::nvm()] {
            assert!(c.disk_seq_request(8) < c.disk_request(8));
        }
    }

    #[test]
    fn default_is_the_paper_testbed() {
        assert_eq!(CostModel::default(), CostModel::hdd());
    }

    #[test]
    fn far_access_sits_between_hypercall_and_ssd() {
        let c = CostModel::hdd();
        assert!(c.far_access > c.tmem_hypercall);
        assert!(c.far_access < CostModel::ssd().disk_access);
    }
}
