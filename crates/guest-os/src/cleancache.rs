//! Cleancache: tmem's second mode of operation (paper §II-B).
//!
//! "Linux cleancache is a victim cache for clean pages that are evicted by
//! the Linux kernel's Pageframe Replacement Algorithm." The paper's
//! evaluation uses frontswap only (its workloads are anonymous-memory
//! bound), but the mode is part of the tmem interface, so we implement it:
//! a small model of a file-backed page cache whose clean evictions are
//! offered to an **ephemeral** tmem pool and whose misses try tmem before
//! paying a disk read.
//!
//! Unlike frontswap, a cleancache get is non-destructive and the hypervisor
//! may drop ephemeral pages at any time — a miss is never an error.

use crate::machine::Machine;
use std::collections::VecDeque;
use tmem::fastmap::FxHashSet;
use tmem::key::{ObjectId, PageIndex, PoolId};
use tmem::page::Fingerprint;

/// Statistics for the file-cache / cleancache datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleancacheStats {
    /// Reads served from the in-guest page cache.
    pub cache_hits: u64,
    /// Reads served from cleancache (tmem ephemeral get hit).
    pub cleancache_hits: u64,
    /// Reads that paid a disk access.
    pub disk_reads: u64,
    /// Clean pages offered to cleancache on eviction.
    pub puts: u64,
    /// Offers the hypervisor declined (`E_TMEM`).
    pub failed_puts: u64,
}

/// A file-backed page cache with a cleancache victim tier.
///
/// `capacity_pages` models the slice of guest RAM the page cache may hold;
/// evictions are FIFO (the model does not need full LRU fidelity — what
/// matters is that clean victims flow to the ephemeral pool).
#[derive(Debug)]
pub struct FileCache {
    pool: PoolId,
    capacity_pages: usize,
    /// (file object, page index) of cached pages, eviction order.
    fifo: VecDeque<(u64, u32)>,
    /// Residency set mirroring the backend's flat keying — one Fx probe per
    /// read, same hash the hypervisor side uses.
    cached: FxHashSet<(u64, u32)>,
    stats: CleancacheStats,
}

impl FileCache {
    /// A file cache holding at most `capacity_pages`, spilling to the
    /// ephemeral pool `pool`.
    pub fn new(pool: PoolId, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "file cache needs at least one page");
        FileCache {
            pool,
            capacity_pages,
            fifo: VecDeque::new(),
            cached: FxHashSet::default(),
            stats: CleancacheStats::default(),
        }
    }

    /// Read page `index` of file `file`: page cache → cleancache → disk.
    pub fn read(&mut self, file: u64, index: u32, m: &mut Machine<'_>) {
        if self.cached.contains(&(file, index)) {
            self.stats.cache_hits += 1;
            m.budget.charge_compute(m.cost.ram_page_touch);
            return;
        }
        // Page cache miss: try cleancache (non-destructive get).
        m.budget.charge_compute(m.cost.page_fault_overhead);
        let got = m.hyp.get(self.pool, ObjectId(file), index as PageIndex);
        match got {
            Some(fp) => {
                assert_eq!(
                    fp,
                    Self::content_of(file, index),
                    "cleancache returned wrong file data"
                );
                m.budget.charge_compute(m.cost.tmem_hypercall);
                self.stats.cleancache_hits += 1;
            }
            None => {
                m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
                let wait = m.disk.read(m.approx_now(), 1, false, m.cost);
                m.budget.charge_io(wait);
                self.stats.disk_reads += 1;
            }
        }
        self.insert(file, index, m);
    }

    /// Drop a file's pages from both tiers (e.g. file deletion →
    /// `cleancache_invalidate_inode`, a flush-object on the pool).
    pub fn invalidate_file(&mut self, file: u64, m: &mut Machine<'_>) {
        self.cached.retain(|&(f, _)| f != file);
        self.fifo.retain(|&(f, _)| f != file);
        m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
        m.hyp.flush_object(self.pool, ObjectId(file));
    }

    /// Datapath statistics.
    pub fn stats(&self) -> &CleancacheStats {
        &self.stats
    }

    /// The ephemeral pool this cache spills into.
    pub fn pool(&self) -> PoolId {
        self.pool
    }

    /// Point the cache at a replacement ephemeral pool (live migration:
    /// ephemeral contents are dropped at the source and the destination
    /// registers an empty pool). The in-guest page cache travels with the
    /// VM's RAM, so `cached`/`fifo` stay; future cleancache gets simply
    /// miss until the new pool warms up — a miss is never an error.
    pub fn rebind(&mut self, pool: PoolId) {
        self.pool = pool;
    }

    /// Deterministic content fingerprint of a (file, page).
    fn content_of(file: u64, index: u32) -> Fingerprint {
        Fingerprint::of(file.rotate_left(20) ^ u64::from(index), 0)
    }

    fn insert(&mut self, file: u64, index: u32, m: &mut Machine<'_>) {
        while self.cached.len() >= self.capacity_pages {
            let (vf, vi) = self
                .fifo
                .pop_front()
                .expect("cache full implies fifo nonempty");
            if !self.cached.remove(&(vf, vi)) {
                continue; // stale entry from invalidate_file
            }
            // Clean victim: offer to cleancache (ephemeral put).
            self.stats.puts += 1;
            match m.hyp.put(
                self.pool,
                ObjectId(vf),
                vi as PageIndex,
                Self::content_of(vf, vi),
            ) {
                Ok(_) => m.budget.charge_compute(m.cost.tmem_hypercall),
                Err(_) => {
                    m.budget.charge_compute(m.cost.tmem_hypercall_nocopy);
                    self.stats.failed_puts += 1;
                }
            }
        }
        self.cached.insert((file, index));
        self.fifo.push_back((file, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::StepBudget;
    use crate::disk::SharedDisk;
    use sim_core::cost::CostModel;
    use sim_core::time::{SimDuration, SimTime};
    use tmem::backend::PoolKind;
    use tmem::key::VmId;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    struct Rig {
        hyp: Hypervisor<Fingerprint>,
        disk: SharedDisk,
        cost: CostModel,
    }

    fn rig(tmem_pages: u64) -> (Rig, FileCache) {
        let mut hyp = Hypervisor::new(tmem_pages, tmem_pages);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 1 << 20, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
        (
            Rig {
                hyp,
                disk: SharedDisk::default(),
                cost: CostModel::hdd(),
            },
            FileCache::new(pool, 4),
        )
    }

    fn machine<'a>(r: &'a mut Rig, b: &'a mut StepBudget) -> Machine<'a> {
        Machine {
            hyp: &mut r.hyp,
            disk: &mut r.disk,
            cost: &r.cost,
            now: SimTime::ZERO,
            budget: b,
        }
    }

    fn big() -> StepBudget {
        StepBudget::new(SimDuration::from_secs(3600))
    }

    #[test]
    fn first_read_hits_disk_second_hits_cache() {
        let (mut r, mut fc) = rig(16);
        let mut b = big();
        fc.read(1, 0, &mut machine(&mut r, &mut b));
        assert_eq!(fc.stats().disk_reads, 1);
        fc.read(1, 0, &mut machine(&mut r, &mut b));
        assert_eq!(fc.stats().cache_hits, 1);
        assert_eq!(fc.stats().disk_reads, 1);
    }

    #[test]
    fn evicted_clean_pages_come_back_from_cleancache() {
        let (mut r, mut fc) = rig(16);
        let mut b = big();
        // Fill the 4-page cache and overflow it: pages 0..4 get evicted to
        // cleancache as pages 4..8 arrive.
        for i in 0..8 {
            fc.read(1, i, &mut machine(&mut r, &mut b));
        }
        assert!(fc.stats().puts >= 4);
        let disk_before = fc.stats().disk_reads;
        fc.read(1, 0, &mut machine(&mut r, &mut b));
        assert_eq!(fc.stats().cleancache_hits, 1, "victim served from tmem");
        assert_eq!(fc.stats().disk_reads, disk_before, "no disk access");
    }

    #[test]
    fn cleancache_miss_is_not_an_error() {
        // Zero-capacity tmem: every put fails, every miss goes to disk.
        let (mut r, mut fc) = rig(0);
        let mut b = big();
        for i in 0..8 {
            fc.read(1, i, &mut machine(&mut r, &mut b));
        }
        assert_eq!(fc.stats().cleancache_hits, 0);
        assert_eq!(fc.stats().failed_puts, fc.stats().puts);
        assert_eq!(fc.stats().disk_reads, 8);
    }

    #[test]
    fn invalidate_file_purges_both_tiers() {
        let (mut r, mut fc) = rig(16);
        let mut b = big();
        for i in 0..8 {
            fc.read(1, i, &mut machine(&mut r, &mut b));
        }
        fc.invalidate_file(1, &mut machine(&mut r, &mut b));
        assert_eq!(r.hyp.tmem_used_by(VmId(1)), 0);
        // Re-read pays disk again.
        let disk_before = fc.stats().disk_reads;
        fc.read(1, 0, &mut machine(&mut r, &mut b));
        assert_eq!(fc.stats().disk_reads, disk_before + 1);
    }
}
