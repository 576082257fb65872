//! Graph-analytics: the CloudSuite workload stand-in.
//!
//! CloudSuite's graph-analytics runs GraphX PageRank over the
//! `soc-twitter-follows` social network. The reproduction replays
//! PageRank's memory behaviour over a synthetic power-law graph stored in
//! CSR form on [`guest_os::PagedSpan`]s:
//!
//! * **load** — CSR offsets and edge targets written sequentially: the
//!   rapid footprint ramp the paper notes ("graph-analytics starts by
//!   making use of a large amount of tmem"),
//! * **iterations** — per vertex, a sequential scan of its out-edges with a
//!   scattered accumulation into the destination ranks (random access),
//! * **apply** — a sequential damping pass over both rank generations.
//!
//! PageRank runs a fixed number of iterations with no convergence test, so
//! the pages it touches depend on the graph structure alone, never on the
//! rank values. The workload therefore computes no ranks; it issues exactly
//! the page references and compute charges the real iterations would.
//!
//! Strides model GraphX's object overhead (edge triplets, vertex RDDs);
//! see [`GraphAnalyticsConfig::with_footprint`].

use crate::appmodel::{InputReader, Pause};
use crate::datasets::{powerlaw_edges, to_csr};
use crate::traits::{Milestone, StepOutcome, Workload};
use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use guest_os::paged::PagedSpan;
use serde::{Deserialize, Serialize};
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;

/// Edge budget per partition (~2 MiB of edge heap at the edge stride).
pub const PARTITION_EDGE_BYTES: u64 = 2 << 20;

/// Guest bytes per CSR edge target (GraphX edge overhead).
const EDGE_STRIDE: usize = 48;

/// Guest bytes per CSR offset entry.
const OFFSET_STRIDE: usize = 16;

/// Guest bytes per rank entry (two generations are kept).
const RANK_STRIDE: usize = 64;

/// PageRank iterations.
const ITERATIONS: u32 = 10;

/// Compute charged per edge scattered (GraphX per-triplet cost).
const COMPUTE_PER_EDGE: SimDuration = SimDuration::from_nanos(3_000);

/// Superstep barrier pause (GC + scheduling) armed per iteration, in
/// nanoseconds per edge: barrier time scales with the partition.
const PAUSE_NS_PER_EDGE: u64 = 150;

/// Configuration for [`GraphAnalytics`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphAnalyticsConfig {
    /// Vertex count.
    pub n_nodes: u32,
    /// Edge count.
    pub n_edges: usize,
    /// Graph synthesis seed.
    pub seed: u64,
    /// Write-once staging heap (triplet materialization, lineage): written
    /// at load, never read, freed at exit.
    pub cold_bytes: u64,
}

impl GraphAnalyticsConfig {
    /// Size the workload to a target guest footprint in bytes. Edges take
    /// ~70%; vertex state (offsets + two rank generations) the rest. The
    /// edge-to-node ratio loosely follows soc-twitter-follows (~1.8).
    pub fn with_footprint(bytes: u64, seed: u64) -> Self {
        // 18% write-once staging; live heap splits 70/30 edges/vertices.
        let cold_bytes = ((bytes as f64 * 0.18) as u64 / 4096).max(1) * 4096;
        let hot = bytes - cold_bytes;
        let n_edges = ((hot as f64 * 0.70) / EDGE_STRIDE as f64).max(16.0) as usize;
        let per_node = 2 * RANK_STRIDE + OFFSET_STRIDE;
        let n_nodes = (((hot as f64 * 0.30) / per_node as f64).max(2.0)) as u32;
        GraphAnalyticsConfig {
            n_nodes,
            n_edges,
            cold_bytes,
            seed,
        }
    }

    /// Total guest footprint in bytes (live heap + cold staging).
    pub fn footprint_bytes(&self) -> u64 {
        self.n_edges as u64 * EDGE_STRIDE as u64
            + u64::from(self.n_nodes + 1) * OFFSET_STRIDE as u64
            + 2 * u64::from(self.n_nodes) * RANK_STRIDE as u64
            + self.cold_bytes
    }
}

#[derive(Debug)]
enum Phase {
    LoadOffsets {
        pos: usize,
    },
    LoadTargets {
        pos: usize,
    },
    /// Write the cold staging region (never read again).
    LoadCold {
        pos: usize,
    },
    InitRanks {
        pos: usize,
    },
    /// Scatter pass of one iteration: partitions visited in shuffled order
    /// (GraphX task scheduling), vertices sequential within a partition.
    Scatter {
        iter: u32,
        order: Vec<u32>,
        part_pos: usize,
        /// Current vertex, absolute index.
        v: usize,
        /// Current edge cursor, absolute index into the target array.
        e: usize,
    },
    /// Damping/apply pass of one iteration.
    Apply {
        iter: u32,
        pos: usize,
    },
    Finished,
}

/// The graph-analytics workload.
pub struct GraphAnalytics {
    config: GraphAnalyticsConfig,
    input: InputReader,
    pause: Pause,
    rng: SplitMix64,
    /// Partition vertex ranges `[start, end)`, ~2 MiB of edges each.
    partitions: Vec<(u32, u32)>,
    /// The CSR graph structure, read back through `offsets` and
    /// `targets`: it decides which rank entries each scatter touches.
    host_offsets: Vec<u32>,
    host_targets: Vec<u32>,
    offsets: Option<PagedSpan>,
    targets: Option<PagedSpan>,
    cold: Option<PagedSpan>,
    ranks: Option<PagedSpan>,
    new_ranks: Option<PagedSpan>,
    phase: Phase,
    milestones: Vec<Milestone>,
}

fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

impl GraphAnalytics {
    /// Build the workload (graph synthesis and CSR assembly happen
    /// host-side here; the guest-visible load is the `Load*` phases).
    pub fn new(config: GraphAnalyticsConfig) -> Self {
        let edges = powerlaw_edges(config.seed, config.n_nodes, config.n_edges);
        let (host_offsets, host_targets) = to_csr(config.n_nodes, &edges);
        // Carve vertex ranges whose edge spans are ~one partition each.
        let edges_per_part = (PARTITION_EDGE_BYTES / EDGE_STRIDE as u64).max(1) as u32;
        let mut partitions = Vec::new();
        let mut start = 0u32;
        while (start as usize) < host_offsets.len() - 1 {
            let limit = host_offsets[start as usize].saturating_add(edges_per_part);
            let mut end = start + 1;
            while (end as usize) < host_offsets.len() - 1 && host_offsets[end as usize] < limit {
                end += 1;
            }
            partitions.push((start, end));
            start = end;
        }
        if partitions.is_empty() {
            partitions.push((0, 0));
        }
        GraphAnalytics {
            rng: SplitMix64::new(config.seed).derive("partitions"),
            partitions,
            // The on-disk edge list: two u32 endpoints per edge.
            input: InputReader::new(config.n_edges as u64, 8),
            pause: Pause::default(),
            config,
            host_offsets,
            host_targets,
            offsets: None,
            targets: None,
            cold: None,
            ranks: None,
            new_ranks: None,
            phase: Phase::LoadOffsets { pos: 0 },
            milestones: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GraphAnalyticsConfig {
        &self.config
    }

    fn free_all(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) {
        for s in [
            self.offsets.take(),
            self.targets.take(),
            self.cold.take(),
            self.ranks.take(),
            self.new_ranks.take(),
        ]
        .into_iter()
        .flatten()
        {
            s.free(kernel, m);
        }
    }
}

impl Workload for GraphAnalytics {
    fn name(&self) -> &str {
        "graph-analytics"
    }

    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome {
        let n = self.config.n_nodes as usize;
        loop {
            if m.budget.exhausted() {
                return StepOutcome::Runnable;
            }
            if self.pause.active() && !self.pause.consume(m) {
                return StepOutcome::Runnable;
            }
            match self.phase {
                Phase::LoadOffsets { ref mut pos } => {
                    if self.offsets.is_none() {
                        self.offsets = Some(PagedSpan::new(kernel, n + 1, OFFSET_STRIDE));
                        self.targets =
                            Some(PagedSpan::new(kernel, self.host_targets.len(), EDGE_STRIDE));
                        self.ranks = Some(PagedSpan::new(kernel, n, RANK_STRIDE));
                        self.new_ranks = Some(PagedSpan::new(kernel, n, RANK_STRIDE));
                    }
                    let offsets = self.offsets.as_ref().expect("allocated above");
                    while *pos < n + 1 {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        offsets.write(*pos, kernel, m);
                        *pos += 1;
                    }
                    self.phase = Phase::LoadTargets { pos: 0 };
                }
                Phase::LoadTargets { ref mut pos } => {
                    let targets = self.targets.as_ref().expect("allocated in LoadOffsets");
                    while *pos < self.host_targets.len() {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        self.input.consume(m);
                        targets.write(*pos, kernel, m);
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
                    self.phase = Phase::InitRanks { pos: 0 };
                }
                Phase::InitRanks { ref mut pos } => {
                    let ranks = self.ranks.as_ref().expect("allocated in LoadOffsets");
                    let new_ranks = self.new_ranks.as_ref().expect("allocated in LoadOffsets");
                    while *pos < n {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        // rank = 1/n; accumulator = 0.
                        ranks.write(*pos, kernel, m);
                        new_ranks.write(*pos, kernel, m);
                        *pos += 1;
                    }
                    let order = shuffled(&mut self.rng, self.partitions.len());
                    let (v0, _) = self.partitions[order[0] as usize];
                    self.phase = Phase::Scatter {
                        iter: 0,
                        order,
                        part_pos: 0,
                        v: v0 as usize,
                        e: usize::MAX,
                    };
                }
                Phase::Scatter {
                    iter,
                    ref order,
                    ref mut part_pos,
                    ref mut v,
                    ref mut e,
                } => {
                    let offsets = self.offsets.as_ref().expect("live during iteration");
                    let targets = self.targets.as_ref().expect("live during iteration");
                    let ranks = self.ranks.as_ref().expect("live during iteration");
                    let new_ranks = self.new_ranks.as_ref().expect("live during iteration");
                    'outer: while *part_pos < order.len() {
                        let (_, pend) = self.partitions[order[*part_pos] as usize];
                        while *v < pend as usize {
                            offsets.read(*v, kernel, m);
                            let lo = self.host_offsets[*v] as usize;
                            offsets.read(*v + 1, kernel, m);
                            let hi = self.host_offsets[*v + 1] as usize;
                            // contribution = rank / out-degree
                            ranks.read(*v, kernel, m);
                            if *e < lo || *e == usize::MAX {
                                *e = lo;
                            }
                            while *e < hi {
                                if m.budget.exhausted() {
                                    break 'outer;
                                }
                                // new_ranks[dst] += contribution
                                targets.read(*e, kernel, m);
                                let dst = self.host_targets[*e] as usize;
                                new_ranks.read(dst, kernel, m);
                                new_ranks.write(dst, kernel, m);
                                m.budget.charge_compute(COMPUTE_PER_EDGE);
                                *e += 1;
                            }
                            *v += 1;
                            if m.budget.exhausted() {
                                break 'outer;
                            }
                        }
                        *part_pos += 1;
                        if *part_pos < order.len() {
                            let (vs, _) = self.partitions[order[*part_pos] as usize];
                            *v = vs as usize;
                            *e = usize::MAX;
                        }
                    }
                    if *part_pos >= order.len() {
                        self.phase = Phase::Apply { iter, pos: 0 };
                    } else {
                        return StepOutcome::Runnable;
                    }
                }
                Phase::Apply { iter, ref mut pos } => {
                    let ranks = self.ranks.as_ref().expect("live during iteration");
                    let new_ranks = self.new_ranks.as_ref().expect("live during iteration");
                    while *pos < n {
                        if m.budget.exhausted() {
                            return StepOutcome::Runnable;
                        }
                        // rank = (1 - d)/n + d * accumulator; accumulator = 0.
                        new_ranks.read(*pos, kernel, m);
                        ranks.write(*pos, kernel, m);
                        new_ranks.write(*pos, kernel, m);
                        *pos += 1;
                    }
                    let next = iter + 1;
                    self.milestones.push(Milestone(format!("iter:{next}")));
                    self.pause.arm(SimDuration::from_nanos(
                        PAUSE_NS_PER_EDGE * self.config.n_edges as u64,
                    ));
                    if next == ITERATIONS {
                        self.free_all(kernel, m);
                        self.phase = Phase::Finished;
                        return StepOutcome::Done;
                    }
                    let order = shuffled(&mut self.rng, self.partitions.len());
                    let (v0, _) = self.partitions[order[0] as usize];
                    self.phase = Phase::Scatter {
                        iter: next,
                        order,
                        part_pos: 0,
                        v: v0 as usize,
                        e: usize::MAX,
                    };
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

    fn small_config() -> GraphAnalyticsConfig {
        GraphAnalyticsConfig {
            n_nodes: 300,
            n_edges: 3000,
            cold_bytes: 8 * 4096,
            seed: 9,
        }
    }

    fn run_to_completion(
        config: GraphAnalyticsConfig,
        ram_pages: u64,
        tmem_pages: u64,
    ) -> (GraphAnalytics, GuestKernel) {
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
        let mut w = GraphAnalytics::new(config);
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
        let cfg = GraphAnalyticsConfig::with_footprint(32 << 20, 2);
        let got = cfg.footprint_bytes() as f64;
        let want = (32u64 << 20) as f64;
        assert!(
            (got / want - 1.0).abs() < 0.15,
            "footprint {got} vs target {want}"
        );
    }

    #[test]
    fn iteration_milestones_appear() {
        let (mut w, kernel) = run_to_completion(small_config(), 512, 512);
        let labels: Vec<_> = w.drain_milestones().into_iter().map(|m| m.0).collect();
        assert!(labels.contains(&"loaded".to_string()));
        assert!(labels.contains(&"iter:10".to_string()));
        assert_eq!(kernel.resident_pages(), 0, "memory released");
    }

    #[test]
    fn abort_midway_releases_memory() {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(512, 512);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", 512 * 4096, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages: 64,
            os_reserved_pages: 2,
            readahead_pages: 8,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let mut w = GraphAnalytics::new(small_config());
        // A few steps in, then kill it.
        for _ in 0..10 {
            let mut b = StepBudget::new(SimDuration::from_millis(1));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut b,
            };
            w.step(&mut kernel, &mut m);
        }
        let mut b = StepBudget::new(SimDuration::from_secs(1));
        let mut m = Machine {
            hyp: &mut hyp,
            disk: &mut disk,
            cost: &cost,
            now: SimTime::ZERO,
            budget: &mut b,
        };
        w.abort(&mut kernel, &mut m);
        assert_eq!(kernel.resident_pages(), 0);
        assert_eq!(hyp.tmem_used_by(VmId(1)), 0);
    }
}
