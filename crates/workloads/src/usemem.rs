//! The `usemem` micro-benchmark, verbatim from the paper (§IV):
//!
//! "Usemem is a synthetic micro-benchmark that allocates an incremental
//! amount of memory as it executes, starting from 128MB and increasing it
//! by 128MB increments. Once it allocates a region of memory, it traverses
//! it linearly performing write/read operations. Once it completes a run
//! through a region, it then allocates a larger block, until it reaches
//! 1GB. Once there, Usemem stops increasing the allocation but continues to
//! write/read on the 1GB of memory allocated until stopped."
//!
//! Milestones:
//! * `alloc:<MiB>` — emitted when the benchmark *attempts* to allocate a
//!   block of that size (the Usemem scenario's cross-VM triggers key on
//!   these),
//! * `block:<MiB>` — emitted when the write+read traversal of that block
//!   completes (Fig. 7's per-allocation running times are the spans between
//!   consecutive milestones).

use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use guest_os::paged::PagedSpan;
use serde::{Deserialize, Serialize};
use sim_core::time::SimDuration;
use tmem::page::PAGE_SIZE;

/// Compute per page traversed (the per-word read/write loop: ~512 words
/// of work per 4 KiB page): [`UsememConfig::compute_per_page`] of every
/// usemem the scenarios build.
pub const COMPUTE_PER_PAGE: SimDuration = SimDuration::from_micros(2);

/// Sizing of the usemem progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsememConfig {
    /// First block size in bytes (paper: 128 MB).
    pub start_bytes: u64,
    /// Increment per block in bytes (paper: 128 MB).
    pub step_bytes: u64,
    /// Final block size in bytes (paper: 1 GB).
    pub max_bytes: u64,
    /// Compute per page traversed (the per-word read/write loop: ~512
    /// words of work per 4 KiB page).
    pub compute_per_page: SimDuration,
    /// Full traversals to perform at the maximum block size before
    /// finishing. The paper's usemem runs "until stopped" (`u64::MAX`);
    /// fleet scenarios bound it so a cell terminates on its own.
    pub max_steady_passes: u64,
}

impl UsememConfig {
    /// The paper's parameters scaled by `scale` (1.0 = paper size).
    pub fn paper(scale: f64) -> Self {
        let mb = |m: u64| ((m as f64 * scale) as u64 * (1 << 20) as u64).max(PAGE_SIZE as u64);
        UsememConfig {
            start_bytes: mb(128),
            step_bytes: mb(128),
            max_bytes: mb(1024),
            compute_per_page: COMPUTE_PER_PAGE,
            max_steady_passes: u64::MAX,
        }
    }
}

#[derive(Debug)]
enum Phase {
    /// About to allocate a block of the given size.
    StartBlock(u64),
    /// Linear write pass over the current block.
    Write {
        pos: usize,
    },
    /// Linear read pass over the current block.
    Read {
        pos: usize,
    },
    /// At max size: keep traversing until stopped.
    Steady {
        pos: usize,
        writing: bool,
    },
    Finished,
}

/// The usemem workload.
#[derive(Debug)]
pub struct Usemem {
    config: UsememConfig,
    phase: Phase,
    block_bytes: u64,
    /// The current block (page references only; usemem's words carry no
    /// information the simulation needs).
    block: Option<PagedSpan>,
    milestones: Vec<Milestone>,
    steady_passes: u64,
}

impl Usemem {
    /// A fresh usemem instance.
    pub fn new(config: UsememConfig) -> Self {
        assert!(config.start_bytes >= PAGE_SIZE as u64);
        assert!(config.step_bytes >= PAGE_SIZE as u64);
        assert!(config.max_bytes >= config.start_bytes);
        Usemem {
            phase: Phase::StartBlock(config.start_bytes),
            config,
            block_bytes: 0,
            block: None,
            milestones: Vec::new(),
            steady_passes: 0,
        }
    }

    /// Full traversals completed at the maximum block size.
    pub fn steady_passes(&self) -> u64 {
        self.steady_passes
    }

    fn pages_of(&self, bytes: u64) -> usize {
        (bytes / PAGE_SIZE as u64) as usize
    }

    fn free_block(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        if let Some(b) = self.block.take() {
            b.free(kernel, m);
        }
    }
}

impl Workload for Usemem {
    fn name(&self) -> &str {
        "usemem"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        loop {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            match self.phase {
                Phase::StartBlock(bytes) => {
                    self.milestones
                        .push(Milestone(format!("alloc:{}", bytes >> 20)));
                    self.free_block(kernel, m);
                    let pages = self.pages_of(bytes);
                    // One word per page: usemem touches whole pages.
                    self.block = Some(PagedSpan::new(kernel, pages, PAGE_SIZE));
                    self.block_bytes = bytes;
                    self.phase = Phase::Write { pos: 0 };
                }
                Phase::Write { ref mut pos } => {
                    let block = self.block.as_ref().expect("write phase has a block");
                    while *pos < block.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        block.write(*pos, kernel, m);
                        m.budget.charge_compute(self.config.compute_per_page);
                        *pos += 1;
                    }
                    self.phase = Phase::Read { pos: 0 };
                }
                Phase::Read { ref mut pos } => {
                    let block = self.block.as_ref().expect("read phase has a block");
                    while *pos < block.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        block.read(*pos, kernel, m);
                        m.budget.charge_compute(self.config.compute_per_page);
                        *pos += 1;
                    }
                    self.milestones
                        .push(Milestone(format!("block:{}", self.block_bytes >> 20)));
                    if self.block_bytes >= self.config.max_bytes {
                        self.phase = Phase::Steady {
                            pos: 0,
                            writing: true,
                        };
                    } else {
                        let next =
                            (self.block_bytes + self.config.step_bytes).min(self.config.max_bytes);
                        self.phase = Phase::StartBlock(next);
                    }
                }
                Phase::Steady {
                    ref mut pos,
                    ref mut writing,
                } => {
                    let block = self.block.as_ref().expect("steady phase has a block");
                    while *pos < block.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        if *writing {
                            block.write(*pos, kernel, m);
                        } else {
                            block.read(*pos, kernel, m);
                        }
                        m.budget.charge_compute(self.config.compute_per_page);
                        *pos += 1;
                    }
                    *pos = 0;
                    *writing = !*writing;
                    self.steady_passes += 1;
                    if self.steady_passes >= self.config.max_steady_passes {
                        self.milestones.push(Milestone("steady-done".into()));
                        self.free_block(kernel, m);
                        self.phase = Phase::Finished;
                    }
                }
                Phase::Finished => return StepOutcome::Done,
            }
        }
    }

    fn drain_milestones(&mut self) -> Vec<Milestone> {
        std::mem::take(&mut self.milestones)
    }

    fn abort(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.free_block(kernel, m);
        self.phase = Phase::Finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest_os::budget::StepBudget;
    use guest_os::disk::SharedDisk;
    use guest_os::kernel::GuestConfig;
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

    fn rig(ram_pages: u64, tmem_pages: u64) -> Rig {
        let mut hyp = Hypervisor::new(tmem_pages, tmem_pages);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", ram_pages * 4096, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages,
            os_reserved_pages: 2,
            readahead_pages: 8,
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

    fn run_until_steady(rig: &mut Rig, w: &mut Usemem, max_steps: u32) -> Vec<String> {
        let mut labels = Vec::new();
        for _ in 0..max_steps {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut rig.hyp,
                disk: &mut rig.disk,
                cost: &rig.cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            let out = w.step(&mut rig.kernel, &mut m);
            labels.extend(w.drain_milestones().into_iter().map(|ms| ms.0));
            if w.steady_passes() >= 2 || out == StepOutcome::Done {
                break;
            }
        }
        labels
    }

    /// Tiny config: blocks of 4/8/12 pages.
    fn tiny() -> UsememConfig {
        UsememConfig {
            start_bytes: 4 * 4096,
            step_bytes: 4 * 4096,
            max_bytes: 12 * 4096,
            compute_per_page: SimDuration::from_micros(2),
            max_steady_passes: u64::MAX,
        }
    }

    #[test]
    fn bounded_steady_state_finishes_and_frees() {
        let mut rig = rig(64, 64);
        let mut w = Usemem::new(UsememConfig {
            max_steady_passes: 3,
            ..tiny()
        });
        let mut done = false;
        for _ in 0..10_000 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut rig.hyp,
                disk: &mut rig.disk,
                cost: &rig.cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            if w.step(&mut rig.kernel, &mut m) == StepOutcome::Done {
                done = true;
                break;
            }
        }
        assert!(done, "bounded usemem must terminate on its own");
        assert_eq!(w.steady_passes(), 3);
        assert_eq!(
            rig.kernel.resident_pages(),
            0,
            "finishing frees the final block"
        );
    }

    #[test]
    fn progression_emits_paper_milestones_in_order() {
        let mut rig = rig(64, 64);
        let mut w = Usemem::new(tiny());
        let labels = run_until_steady(&mut rig, &mut w, 10_000);
        // alloc:0 because tiny blocks are <1 MiB; the order is what matters.
        let allocs: Vec<_> = labels.iter().filter(|l| l.starts_with("alloc")).collect();
        let blocks: Vec<_> = labels.iter().filter(|l| l.starts_with("block")).collect();
        assert_eq!(allocs.len(), 3, "three allocation attempts: {labels:?}");
        assert_eq!(blocks.len(), 3, "three completed traversals");
        assert!(w.steady_passes() >= 2, "keeps traversing at max size");
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = Machine {
            hyp: &mut rig.hyp,
            disk: &mut rig.disk,
            cost: &rig.cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        w.abort(&mut rig.kernel, &mut m);
        assert_eq!(rig.kernel.resident_pages(), 0, "abort frees everything");
    }

    #[test]
    fn blocks_replace_rather_than_accumulate() {
        let mut rig = rig(64, 64);
        let mut w = Usemem::new(tiny());
        run_until_steady(&mut rig, &mut w, 10_000);
        // At steady state only the max block (12 pages) is live.
        assert!(
            rig.kernel.resident_pages() <= 12,
            "resident={} but max block is 12 pages",
            rig.kernel.resident_pages()
        );
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = Machine {
            hyp: &mut rig.hyp,
            disk: &mut rig.disk,
            cost: &rig.cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        w.abort(&mut rig.kernel, &mut m);
    }

    #[test]
    fn memory_pressure_reaches_tmem() {
        // RAM smaller than the max block: the traversal must swap.
        let mut rig = rig(8, 64);
        let mut w = Usemem::new(tiny());
        run_until_steady(&mut rig, &mut w, 50_000);
        assert!(rig.kernel.stats().evictions_to_tmem > 0);
        assert!(rig.kernel.stats().tmem_faults > 0);
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = Machine {
            hyp: &mut rig.hyp,
            disk: &mut rig.disk,
            cost: &rig.cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        w.abort(&mut rig.kernel, &mut m);
    }

    #[test]
    fn paper_config_scales() {
        let c = UsememConfig::paper(1.0);
        assert_eq!(c.start_bytes, 128 << 20);
        assert_eq!(c.max_bytes, 1 << 30);
        let s = UsememConfig::paper(0.25);
        assert_eq!(s.start_bytes, 32 << 20);
        assert_eq!(s.max_bytes, 256 << 20);
    }
}
