//! A file-serving workload — exercising tmem's **cleancache** mode.
//!
//! The paper's evaluation uses frontswap only (its CloudSuite workloads are
//! anonymous-memory bound), but tmem's other half, cleancache (§II-B), is
//! part of the interface and this workload drives it end-to-end: a static
//! file server whose corpus exceeds its page-cache budget serves reads
//! with Zipf-popular files; clean evictions flow into the VM's ephemeral
//! tmem pool and misses try tmem before paying a disk read.
//!
//! Files have a fixed size, so a footprint scales the corpus's breadth,
//! not the file size.
//!
//! The metric of interest is the cleancache hit fraction — how much of the
//! miss traffic the pooled memory absorbed — which the hypervisor's target
//! gating (Algorithm 1 applies to ephemeral puts too) controls exactly as
//! it does frontswap traffic.

use crate::datasets::Zipf;
use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::cleancache::FileCache;
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use serde::{Deserialize, Serialize};
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;
use tmem::backend::PoolKind;
use tmem::key::PoolId;

/// Pages per file.
const PAGES_PER_FILE: u32 = 32;

/// Zipf skew of file popularity.
const SKEW: f64 = 1.1;

/// Compute per served request (request parsing, copy to socket).
const COMPUTE_PER_REQUEST: SimDuration = SimDuration::from_micros(5);

/// Configuration for [`FileServer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FileServerConfig {
    /// Number of files in the corpus.
    pub n_files: u64,
    /// In-guest page-cache budget, pages.
    pub cache_pages: usize,
    /// Total page reads to serve.
    pub requests: u64,
    /// RNG seed.
    pub seed: u64,
}

impl FileServerConfig {
    /// A corpus sized to a total footprint of `bytes`, served by a guest
    /// page cache holding a quarter of it, answering `requests` page reads
    /// (one logical user session each).
    pub fn with_footprint(bytes: u64, requests: u64, seed: u64) -> Self {
        let pages = (bytes / tmem::page::PAGE_SIZE as u64).max(u64::from(PAGES_PER_FILE));
        FileServerConfig {
            n_files: (pages / u64::from(PAGES_PER_FILE)).max(1),
            cache_pages: (pages / 4).max(64) as usize,
            requests,
            seed,
        }
    }

    /// Total corpus size in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.n_files * u64::from(PAGES_PER_FILE) * tmem::page::PAGE_SIZE as u64
    }
}

/// The file-serving workload.
pub struct FileServer {
    config: FileServerConfig,
    cache: Option<FileCache>,
    rng: SplitMix64,
    /// File popularity, drawn from `rng` once per request.
    files: Zipf,
    served: u64,
    milestones: Vec<Milestone>,
}

impl FileServer {
    /// A fresh server (the cleancache pool is registered lazily on the
    /// first step, when the hypervisor is in reach).
    pub fn new(config: FileServerConfig) -> Self {
        assert!(config.n_files > 0);
        FileServer {
            rng: SplitMix64::new(config.seed).derive("fileserver"),
            files: Zipf::new(
                u32::try_from(config.n_files).expect("a file server holds at most 2^32 - 1 files"),
                SKEW,
            ),
            config,
            cache: None,
            served: 0,
            milestones: Vec::new(),
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cleancache statistics (after the first step).
    pub fn cache_stats(&self) -> Option<&guest_os::cleancache::CleancacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

impl Workload for FileServer {
    fn name(&self) -> &str {
        "fileserver"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        if self.cache.is_none() {
            // Register the ephemeral (cleancache) pool for this VM.
            let vm = kernel.config().vm;
            let pool = m
                .hyp
                .new_pool(vm, PoolKind::Ephemeral)
                .expect("cleancache pool creation");
            self.cache = Some(FileCache::new(pool, self.config.cache_pages));
            self.milestones.push(Milestone("cache-up".into()));
        }
        let cache = self.cache.as_mut().expect("created above");
        while self.served < self.config.requests {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            let file = u64::from(self.files.sample(&mut self.rng));
            let page = self.rng.next_below(u64::from(PAGES_PER_FILE)) as u32;
            cache.read(file, page, m);
            m.budget.charge_compute(COMPUTE_PER_REQUEST);
            self.served += 1;
        }
        self.milestones.push(Milestone("served-all".into()));
        StepOutcome::Done
    }

    fn drain_milestones(&mut self) -> Vec<Milestone> {
        std::mem::take(&mut self.milestones)
    }

    fn abort(&mut self, _kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        // Drop the page cache and the ephemeral pool contents.
        if let Some(cache) = &mut self.cache {
            for f in 0..self.config.n_files {
                cache.invalidate_file(f, m);
            }
        }
        self.served = self.config.requests;
    }

    fn rebind_pool(&mut self, old: PoolId, new: PoolId) {
        if let Some(cache) = &mut self.cache {
            if cache.pool() == old {
                cache.rebind(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::budget::StepBudget;
    use guest_os::disk::SharedDisk;
    use guest_os::kernel::GuestConfig;
    use sim_core::cost::CostModel;
    use sim_core::time::SimTime;
    use tmem::key::VmId;
    use tmem::page::Fingerprint;
    use xen_sim::hypervisor::Hypervisor;
    use xen_sim::vm::VmConfig;

    fn run(tmem_pages: u64, target: u64, requests: u64) -> FileServer {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, target);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 4096 * 4096, 1));
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages: 64,
            os_reserved_pages: 2,
            readahead_pages: 8,
            frontswap_enabled: false, // pure cleancache guest
        });
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let mut w = FileServer::new(FileServerConfig {
            n_files: 16,
            cache_pages: 64,
            requests,
            seed: 3,
        });
        for _ in 0..1_000_000 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            if w.step(&mut kernel, &mut m) == StepOutcome::Done {
                return w;
            }
        }
        panic!("fileserver did not finish");
    }

    #[test]
    fn cleancache_absorbs_capacity_misses() {
        // Corpus 16 files x 32 pages, guest cache 64: plenty of capacity
        // misses.
        // With a large ephemeral pool most of them hit cleancache.
        let w = run(1024, 1024, 20_000);
        let s = w.cache_stats().unwrap();
        assert_eq!(w.served(), 20_000);
        assert!(s.cleancache_hits > 0);
        assert!(
            s.cleancache_hits > s.disk_reads,
            "pooled memory should absorb most misses: {s:?}"
        );
    }

    #[test]
    fn zero_target_disables_the_benefit() {
        // Algorithm 1 gates ephemeral puts too: with target 0 every offer
        // fails and all misses pay the disk.
        let w = run(1024, 0, 5_000);
        let s = w.cache_stats().unwrap();
        assert_eq!(s.cleancache_hits, 0);
        assert_eq!(s.failed_puts, s.puts);
        assert!(s.disk_reads > 0);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let a = run(256, 256, 10_000);
        let b = run(256, 256, 10_000);
        assert_eq!(a.cache_stats().unwrap(), b.cache_stats().unwrap());
    }
}
