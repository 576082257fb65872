//! Arrays routed through the simulated paging layer.
//!
//! A [`PagedSpan`] is guest address space and nothing else: reading or
//! writing element `i` touches the guest virtual page(s) holding it,
//! driving faults, frontswap puts/gets and disk I/O exactly as the real
//! application's access would. The span stores no element values. The
//! workloads are data-oblivious — their control flow follows the shape of
//! their input (rating and graph structure, block sizes), never the values
//! they compute — so the page-reference stream is all the simulation
//! needs, and no simulated page is backed by a host copy of its contents.
//!
//! The `stride` parameter decouples *logical* element size from *memory*
//! footprint: CloudSuite's workloads run on Spark, whose JVM object overhead
//! inflates a logical 8-byte value to tens or hundreds of bytes of heap.
//! Setting `stride` to the paper-observed bytes-per-element reproduces the
//! application's memory footprint without inventing fake elements.

use crate::addr::VirtPage;
use crate::kernel::GuestKernel;
use crate::machine::Machine;
use tmem::page::PAGE_SIZE;

/// `len` elements of `stride` bytes laid out over simulated guest pages,
/// with no host storage for the elements themselves.
#[derive(Debug)]
pub struct PagedSpan {
    base: VirtPage,
    len: usize,
    stride: usize,
    freed: bool,
}

impl PagedSpan {
    /// Allocate guest address space for `len` elements of `stride` bytes
    /// each (`stride >= 1`; elements may straddle page boundaries). The
    /// pages stay untouched until accessed.
    pub fn new(kernel: &mut GuestKernel, len: usize, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least one byte");
        let base = kernel.alloc(Self::footprint_pages(len, stride));
        PagedSpan {
            base,
            len,
            stride,
            freed: false,
        }
    }

    /// Pages of guest address space needed for `len` elements of `stride`
    /// bytes.
    pub fn footprint_pages(len: usize, stride: usize) -> u64 {
        ((len as u64) * (stride as u64)).div_ceil(PAGE_SIZE as u64)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the span holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Guest pages this span occupies.
    pub fn pages(&self) -> u64 {
        Self::footprint_pages(self.len, self.stride)
    }

    /// Simulate a read of element `i`: touch its page(s).
    #[inline]
    pub fn read(&self, i: usize, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.touch(i, false, kernel, m);
    }

    /// Simulate a write of element `i`: touch its page(s) for writing.
    #[inline]
    pub fn write(&self, i: usize, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.touch(i, true, kernel, m);
    }

    /// Release the underlying guest pages. Must be called exactly once
    /// before drop (process exit frees memory through the kernel, which
    /// needs the machine context — Rust's `Drop` cannot carry it).
    pub fn free(mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        kernel.free_range(self.base, self.pages(), m);
        self.freed = true;
    }

    #[inline]
    fn touch(&self, i: usize, write: bool, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        assert!(i < self.len, "paged index out of bounds");
        let start = i * self.stride;
        let end = start + self.stride - 1;
        let first = start / PAGE_SIZE;
        let last = end / PAGE_SIZE;
        for p in first..=last {
            kernel.touch(self.base.offset(p as u64), write, m);
        }
    }
}

impl Drop for PagedSpan {
    fn drop(&mut self) {
        // Leaking guest pages would silently distort memory pressure, so a
        // span dropped without `free` is a bug — but only in tests:
        // panicking in drop during unwind would abort, so just debug-log.
        if !self.freed && !std::thread::panicking() {
            debug_assert!(self.freed, "paged memory dropped without free()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StepBudget;
    use crate::disk::SharedDisk;
    use crate::kernel::GuestConfig;
    use sim_core::cost::CostModel;
    use sim_core::time::{SimDuration, SimTime};
    use tmem::backend::PoolKind;
    use tmem::key::VmId;
    use tmem::page::Fingerprint;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    struct Rig {
        hyp: Hypervisor<Fingerprint>,
        disk: SharedDisk,
        cost: CostModel,
        kernel: GuestKernel,
    }

    fn rig(frames: u64) -> Rig {
        let mut hyp = Hypervisor::new(1000, 1000);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages: frames + 2,
            os_reserved_pages: 2,
            readahead_pages: 4,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        Rig {
            hyp,
            disk: SharedDisk::default(),
            cost: CostModel::hdd(),
            kernel,
        }
    }

    macro_rules! machine {
        ($rig:expr, $budget:expr) => {
            Machine {
                hyp: &mut $rig.hyp,
                disk: &mut $rig.disk,
                cost: &$rig.cost,
                now: SimTime::ZERO,
                budget: $budget,
            }
        };
    }

    #[test]
    fn footprint_rounds_up() {
        assert_eq!(PagedSpan::footprint_pages(1, 8), 1);
        assert_eq!(PagedSpan::footprint_pages(512, 8), 1);
        assert_eq!(PagedSpan::footprint_pages(513, 8), 2);
        assert_eq!(PagedSpan::footprint_pages(100, 4096), 100);
    }

    #[test]
    fn stride_inflates_footprint() {
        let mut r = rig(64);
        // 100 logical u32s at 256 bytes/element → 7 pages, not 1.
        let s = PagedSpan::new(&mut r.kernel, 100, 256);
        assert_eq!(s.pages(), 7);
        let mut b = StepBudget::new(SimDuration::from_secs(3600));
        let mut m = machine!(r, &mut b);
        s.free(&mut r.kernel, &mut m);
    }

    #[test]
    fn straddling_elements_touch_both_pages() {
        let mut r = rig(64);
        // 3000-byte elements: element 1 spans pages 0 and 1.
        let s = PagedSpan::new(&mut r.kernel, 4, 3000);
        let mut b = StepBudget::new(SimDuration::from_secs(3600));
        {
            let mut m = machine!(r, &mut b);
            s.write(1, &mut r.kernel, &mut m);
        }
        assert_eq!(r.kernel.stats().minor_faults, 2, "two pages faulted");
        let mut m = machine!(r, &mut b);
        s.free(&mut r.kernel, &mut m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut r = rig(8);
        let s = PagedSpan::new(&mut r.kernel, 4, 8);
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = machine!(r, &mut b);
        s.read(4, &mut r.kernel, &mut m);
    }
}
