//! In-memory-analytics: the CloudSuite workload stand-in.
//!
//! CloudSuite's in-memory-analytics runs Spark MLlib's ALS collaborative
//! filtering over the MovieLens rating set. The reproduction replays the
//! memory behaviour of a stochastic-gradient matrix-factorization
//! recommender (same problem, same data shape, same accesses on a single
//! core) over a synthetic MovieLens-shaped rating set:
//!
//! * **load** — the rating set is written sequentially into guest memory
//!   (the footprint ramp the paper's figures show at run start),
//! * **training epochs** — each epoch scans the ratings partition by
//!   partition and, per rating, reads and writes back the user and item
//!   factor rows — the random-access component that punishes disk swapping,
//! * **evaluation** — a final sequential pass reading every rating's two
//!   factor rows (where the real job computes training RMSE).
//!
//! The recommender is data-oblivious: it runs a fixed number of epochs with
//! no convergence test, so the pages it touches depend on the rating
//! structure alone, never on the factor values. The workload therefore
//! computes no factor rows, updates or RMSE; it issues exactly the page
//! references and compute charges that arithmetic would.
//!
//! Element *strides* model Spark's JVM object overhead: a logical 12-byte
//! rating occupies 64 bytes of heap, a factor row 128, which is how a
//! ~24 MB MovieLens export becomes a guest footprint exceeding a 1 GB VM.

use crate::appmodel::{InputReader, Pause};
use crate::datasets::{Rating, RatingStream};
use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use guest_os::paged::PagedSpan;
use serde::{Deserialize, Serialize};
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;

/// Latent factor rank (fixed: CloudSuite's ALS default neighbourhood).
pub const RANK: usize = 8;

/// Ratings per Spark-style partition (~2 MiB of heap at the rating
/// stride): training visits partitions in a per-epoch shuffled order, as a
/// task scheduler would, so cache misses under a capacity shortage are
/// proportional to the shortage instead of all-or-nothing.
pub const PARTITION_RATINGS: usize = 32 * 1024;

/// Guest bytes per rating (JVM overhead model).
const RATING_STRIDE: usize = 64;

/// Guest bytes per factor row.
const FACTOR_STRIDE: usize = 128;

/// Training epochs.
const EPOCHS: u32 = 3;

/// Compute charged per rating processed during training and evaluation
/// (JVM execution cost; dominates when memory is comfortable).
const COMPUTE_PER_RATING: SimDuration = SimDuration::from_nanos(4_000);

/// GC / scheduler pause armed after each epoch, in nanoseconds per live
/// rating object: a window with no memory pressure, during which
/// demand-driven policies may reclaim.
const GC_PAUSE_NS_PER_RATING: u64 = 300;

fn shuffled_partitions(rng: &mut SplitMix64, n_parts: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n_parts as u32).collect();
    // Fisher-Yates.
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Advance `rng` past one factor row's random initialization (one draw
/// per latent factor). The values themselves are never used, but the
/// partition shuffles draw from the same stream next.
fn skip_factor_row(rng: &mut SplitMix64) {
    for _ in 0..RANK {
        rng.next();
    }
}

/// Configuration for [`InMemoryAnalytics`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InMemoryAnalyticsConfig {
    /// Number of users.
    pub n_users: u32,
    /// Number of items.
    pub n_items: u32,
    /// Number of ratings.
    pub n_ratings: usize,
    /// Dataset + initialization seed.
    pub seed: u64,
    /// Write-once staging heap (RDD lineage, shuffle spill, dead objects):
    /// written during load, never read again, freed at exit. Under greedy
    /// tmem these pages squat in the pool for the whole run — the waste
    /// mechanism the managed policies exploit.
    pub cold_bytes: u64,
}

impl InMemoryAnalyticsConfig {
    /// Size the workload to a target guest footprint in bytes. Ratings take
    /// ~65% of the footprint, factor rows the rest; user/item counts follow
    /// the MovieLens-1M proportions (~60% users).
    pub fn with_footprint(bytes: u64, seed: u64) -> Self {
        // 18% of the heap is write-once staging; the live (hot) heap splits
        // ~65/35 between ratings and factor rows.
        let cold_bytes = ((bytes as f64 * 0.18) as u64 / 4096).max(1) * 4096;
        let hot = bytes - cold_bytes;
        let n_ratings = ((hot as f64 * 0.65) / RATING_STRIDE as f64).max(64.0) as usize;
        let factor_rows = ((hot as f64 * 0.35) / FACTOR_STRIDE as f64).max(8.0) as u64;
        let n_users = ((factor_rows * 6) / 10).max(2) as u32;
        let n_items = (factor_rows - u64::from(n_users / 10) * 6).max(2) as u32;
        InMemoryAnalyticsConfig {
            n_users,
            n_items: n_items
                .min(factor_rows as u32 - n_users.min(factor_rows as u32 - 1))
                .max(2),
            n_ratings,
            cold_bytes,
            seed,
        }
    }

    /// Total guest footprint in bytes (live heap + cold staging).
    pub fn footprint_bytes(&self) -> u64 {
        self.n_ratings as u64 * RATING_STRIDE as u64
            + (u64::from(self.n_users) + u64::from(self.n_items)) * FACTOR_STRIDE as u64
            + self.cold_bytes
    }
}

#[derive(Debug)]
enum Phase {
    Load {
        pos: usize,
    },
    /// Write the cold staging region (never read again).
    LoadCold {
        pos: usize,
    },
    InitUsers {
        pos: usize,
    },
    InitItems {
        pos: usize,
    },
    Train {
        epoch: u32,
        /// Shuffled partition visit order for this epoch.
        order: Vec<u32>,
        /// Index into `order`.
        part_pos: usize,
        /// Offset within the current partition.
        in_part: usize,
    },
    Evaluate {
        pos: usize,
    },
    Finished,
}

/// The in-memory-analytics workload.
pub struct InMemoryAnalytics {
    config: InMemoryAnalyticsConfig,
    input: InputReader,
    pause: Pause,
    /// The rating structure (who rated what), read back through
    /// `ratings`: it decides which factor rows each update touches.
    host_ratings: RatingStream,
    /// The ratings of the partition being read, decoded from
    /// `host_ratings` when training or evaluation enters it.
    partition: Vec<Rating>,
    ratings: Option<PagedSpan>,
    cold: Option<PagedSpan>,
    user_f: Option<PagedSpan>,
    item_f: Option<PagedSpan>,
    rng: SplitMix64,
    phase: Phase,
    milestones: Vec<Milestone>,
}

impl InMemoryAnalytics {
    /// Build the workload (dataset synthesis happens host-side here; the
    /// guest-visible load is the `Load` phase).
    pub fn new(config: InMemoryAnalyticsConfig) -> Self {
        let host_ratings = RatingStream::new(
            config.seed,
            config.n_users,
            config.n_items,
            config.n_ratings,
            PARTITION_RATINGS,
        );
        InMemoryAnalytics {
            rng: SplitMix64::new(config.seed).derive("factors"),
            // The on-disk dataset: one 16-byte text record per rating.
            input: InputReader::new(config.n_ratings as u64, 16),
            pause: Pause::default(),
            config,
            host_ratings,
            partition: Vec::new(),
            ratings: None,
            cold: None,
            user_f: None,
            item_f: None,
            phase: Phase::Load { pos: 0 },
            milestones: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &InMemoryAnalyticsConfig {
        &self.config
    }

    fn free_all(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        for s in [
            self.ratings.take(),
            self.cold.take(),
            self.user_f.take(),
            self.item_f.take(),
        ]
        .into_iter()
        .flatten()
        {
            s.free(kernel, m);
        }
    }
}

impl Workload for InMemoryAnalytics {
    fn name(&self) -> &str {
        "in-memory-analytics"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        loop {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            if self.pause.active() && !self.pause.consume(m) {
                return StepOutcome::Runnable;
            }
            match self.phase {
                Phase::Load { ref mut pos } => {
                    if self.ratings.is_none() {
                        self.ratings =
                            Some(PagedSpan::new(kernel, self.config.n_ratings, RATING_STRIDE));
                        self.user_f = Some(PagedSpan::new(
                            kernel,
                            self.config.n_users as usize,
                            FACTOR_STRIDE,
                        ));
                        self.item_f = Some(PagedSpan::new(
                            kernel,
                            self.config.n_items as usize,
                            FACTOR_STRIDE,
                        ));
                    }
                    let ratings = self.ratings.as_ref().expect("allocated above");
                    while *pos < self.config.n_ratings {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        self.input.consume(m);
                        ratings.write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::LoadCold { pos: 0 };
                }
                Phase::LoadCold { ref mut pos } => {
                    if self.cold.is_none() {
                        let pages = (self.config.cold_bytes / 4096).max(1) as usize;
                        self.cold = Some(PagedSpan::new(kernel, pages, 4096));
                    }
                    let cold = self.cold.as_ref().expect("allocated above");
                    while *pos < cold.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        cold.write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.milestones.push(Milestone("loaded".into()));
                    self.phase = Phase::InitUsers { pos: 0 };
                }
                Phase::InitUsers { ref mut pos } => {
                    while *pos < self.config.n_users as usize {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        skip_factor_row(&mut self.rng);
                        self.user_f
                            .as_ref()
                            .expect("factors allocated in load")
                            .write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::InitItems { pos: 0 };
                }
                Phase::InitItems { ref mut pos } => {
                    while *pos < self.config.n_items as usize {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        skip_factor_row(&mut self.rng);
                        self.item_f
                            .as_ref()
                            .expect("factors allocated in load")
                            .write(*pos, kernel, m);
                        *pos += 1;
                    }
                    let n_parts = self.config.n_ratings.div_ceil(PARTITION_RATINGS);
                    self.phase = Phase::Train {
                        epoch: 0,
                        order: shuffled_partitions(&mut self.rng, n_parts),
                        part_pos: 0,
                        in_part: 0,
                    };
                }
                Phase::Train {
                    ref mut epoch,
                    ref mut order,
                    ref mut part_pos,
                    ref mut in_part,
                } => {
                    let ratings = self.ratings.as_ref().expect("live during training");
                    let user_f = self.user_f.as_ref().expect("live during training");
                    let item_f = self.item_f.as_ref().expect("live during training");
                    while *part_pos < order.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let part = order[*part_pos] as usize;
                        let pos = part * PARTITION_RATINGS + *in_part;
                        if pos >= self.config.n_ratings {
                            // Short tail partition.
                            *part_pos += 1;
                            *in_part = 0;
                            continue;
                        }
                        if *in_part == 0 {
                            self.host_ratings.read_partition(part, &mut self.partition);
                        }
                        // One SGD update: read both factor rows, write
                        // both back.
                        ratings.read(pos, kernel, m);
                        let r = self.partition[*in_part];
                        user_f.read(r.user as usize, kernel, m);
                        item_f.read(r.item as usize, kernel, m);
                        user_f.write(r.user as usize, kernel, m);
                        item_f.write(r.item as usize, kernel, m);
                        m.budget.charge_compute(COMPUTE_PER_RATING);
                        *in_part += 1;
                        if *in_part == PARTITION_RATINGS {
                            *part_pos += 1;
                            *in_part = 0;
                        }
                    }
                    *epoch += 1;
                    self.milestones.push(Milestone(format!("epoch:{epoch}")));
                    self.pause.arm(SimDuration::from_nanos(
                        GC_PAUSE_NS_PER_RATING * self.config.n_ratings as u64,
                    ));
                    if *epoch == EPOCHS {
                        self.phase = Phase::Evaluate { pos: 0 };
                    } else {
                        let n_parts = self.config.n_ratings.div_ceil(PARTITION_RATINGS);
                        *order = shuffled_partitions(&mut self.rng, n_parts);
                        *part_pos = 0;
                        *in_part = 0;
                    }
                }
                Phase::Evaluate { ref mut pos } => {
                    let ratings = self.ratings.as_ref().expect("live during evaluation");
                    let user_f = self.user_f.as_ref().expect("live during evaluation");
                    let item_f = self.item_f.as_ref().expect("live during evaluation");
                    while *pos < self.config.n_ratings {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        let in_part = *pos % PARTITION_RATINGS;
                        if in_part == 0 {
                            let part = *pos / PARTITION_RATINGS;
                            self.host_ratings.read_partition(part, &mut self.partition);
                        }
                        // One prediction for the training error.
                        ratings.read(*pos, kernel, m);
                        let r = self.partition[in_part];
                        user_f.read(r.user as usize, kernel, m);
                        item_f.read(r.item as usize, kernel, m);
                        m.budget.charge_compute(COMPUTE_PER_RATING);
                        *pos += 1;
                    }
                    self.free_all(kernel, m);
                    self.phase = Phase::Finished;
                    return StepOutcome::Done;
                }
                Phase::Finished => return StepOutcome::Done,
            }
        }
    }

    fn drain_milestones(&mut self) -> Vec<Milestone> {
        std::mem::take(&mut self.milestones)
    }

    fn abort(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        self.free_all(kernel, m);
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

    fn small_config() -> InMemoryAnalyticsConfig {
        InMemoryAnalyticsConfig {
            n_users: 50,
            n_items: 30,
            n_ratings: 4000,
            cold_bytes: 16 * 4096,
            seed: 42,
        }
    }

    fn run_to_completion(
        config: InMemoryAnalyticsConfig,
        ram_pages: u64,
        tmem_pages: u64,
    ) -> (InMemoryAnalytics, GuestKernel) {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, tmem_pages);
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
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let mut w = InMemoryAnalytics::new(config);
        for _ in 0..2_000_000 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            if w.step(&mut kernel, &mut m) == StepOutcome::Done {
                return (w, kernel);
            }
        }
        panic!("workload did not complete");
    }

    #[test]
    fn footprint_sizing_is_close_to_target() {
        let cfg = InMemoryAnalyticsConfig::with_footprint(64 << 20, 1);
        let got = cfg.footprint_bytes() as f64;
        let want = (64u64 << 20) as f64;
        assert!(
            (got / want - 1.0).abs() < 0.15,
            "footprint {got} vs target {want}"
        );
    }

    #[test]
    fn milestones_mark_phases() {
        let (mut w, kernel) = run_to_completion(small_config(), 512, 512);
        let labels: Vec<_> = w.drain_milestones().into_iter().map(|m| m.0).collect();
        assert!(labels.contains(&"loaded".to_string()));
        assert!(labels.contains(&"epoch:3".to_string()));
        assert_eq!(kernel.resident_pages(), 0, "memory released");
    }
}
