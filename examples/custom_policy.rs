//! Writing your own tmem management policy.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```
//!
//! The paper's conclusion calls SmarTmem "a framework and baseline for
//! future development of more sophisticated tmem memory policies". This
//! example is that extension point in action: a **demand-proportional**
//! policy — each VM's target is proportional to its failed puts over a
//! sliding window (instead of smart-alloc's fixed ±P% steps) — plugged
//! into the same Memory Manager, hypervisor and guest stack as the paper's
//! policies, and compared against them on a two-phase workload.

use smartmem::guest::budget::StepBudget;
use smartmem::guest::disk::SharedDisk;
use smartmem::guest::kernel::{GuestConfig, GuestKernel};
use smartmem::guest::machine::Machine;
use smartmem::guest::tkm::{Dom0Tkm, GuestTkm};
use smartmem::policies::policy::Policy;
use smartmem::policies::{MemoryManager, SmartAlloc};
use smartmem::sim::cost::CostModel;
use smartmem::sim::faults::NetlinkFate;
use smartmem::sim::time::{SimDuration, SimTime};
use smartmem::tmem::backend::PoolKind;
use smartmem::tmem::key::VmId;
use smartmem::tmem::stats::{MemStats, MmTarget};
use smartmem::xen::hypervisor::Hypervisor;
use smartmem::xen::vm::VmConfig;
use std::collections::HashMap;

/// Targets proportional to each VM's recent failed puts, with a small
/// floor so idle VMs can re-enter smoothly.
struct DemandShare {
    window: HashMap<VmId, f64>,
    decay: f64,
}

impl DemandShare {
    fn new() -> Self {
        DemandShare {
            window: HashMap::new(),
            decay: 0.7,
        }
    }
}

impl Policy for DemandShare {
    fn name(&self) -> String {
        "demand-share".into()
    }

    fn initial_target(&self, _total_tmem: u64) -> u64 {
        0
    }

    fn compute(&mut self, stats: &MemStats) -> Vec<MmTarget> {
        // Exponentially-decayed failed-put score per VM.
        for vm in &stats.vms {
            let e = self.window.entry(vm.vm_id).or_insert(0.0);
            *e = *e * self.decay + vm.failed_puts() as f64;
        }
        let floor = (stats.node.total_tmem / 50).max(1) as f64; // 2% floor
        let scores: Vec<f64> = stats
            .vms
            .iter()
            .map(|vm| self.window[&vm.vm_id].max(0.0) + 1.0)
            .collect();
        let sum: f64 = scores.iter().sum();
        stats
            .vms
            .iter()
            .zip(scores)
            .map(|(vm, score)| MmTarget {
                vm_id: vm.vm_id,
                mm_target: ((stats.node.total_tmem as f64 - 3.0 * floor) * score / sum + floor)
                    as u64,
            })
            .collect()
    }
}

fn main() {
    println!("custom policy demo: demand-share vs smart-alloc(2%)\n");
    for (name, mm) in [
        (
            "demand-share",
            MemoryManager::new(Box::new(DemandShare::new()) as Box<dyn Policy>, 32),
        ),
        (
            "smart-alloc(2%)",
            MemoryManager::new(Box::new(SmartAlloc::new(2.0)), 32),
        ),
    ] {
        let total = run_with(mm);
        println!("{name:<16} -> simulated completion {total}\n");
    }
}

/// A miniature hand-rolled experiment: two guests with phase-shifted
/// demand hammer a small pool; the MM runs every simulated second.
fn run_with(mut mm: MemoryManager) -> SimDuration {
    const TMEM_PAGES: u64 = 600;
    let initial = mm.initial_target(TMEM_PAGES);
    let mut hyp = Hypervisor::new(TMEM_PAGES, initial);
    let cost = CostModel::hdd();
    let mut disk = SharedDisk::default();
    let mut relay = Dom0Tkm::new();

    let mut kernels: Vec<GuestKernel> = Vec::new();
    for id in 1..=2u32 {
        let vm = VmId(id);
        hyp.register_vm(VmConfig::new(vm, format!("VM{id}"), 400 * 4096, 1));
        let tkm = GuestTkm::init(&mut hyp, vm, PoolKind::Persistent).unwrap();
        let mut k = GuestKernel::new(GuestConfig {
            vm,
            ram_pages: 300,
            os_reserved_pages: 20,
            readahead_pages: 8,
            frontswap_enabled: true,
        });
        k.attach_frontswap(tkm.pool());
        kernels.push(k);
    }
    let bases: Vec<_> = kernels.iter_mut().map(|k| k.alloc(800)).collect();

    let mut now = SimTime::ZERO;
    let mut total_work = SimDuration::ZERO;
    for second in 0..60u64 {
        // Phase-shifted demand: VM1 heavy in the first half, VM2 in the
        // second; the adaptive policies should follow the hand-over.
        for (i, kernel) in kernels.iter_mut().enumerate() {
            let heavy = (second < 30) == (i == 0);
            let touches: u64 = if heavy { 700 } else { 60 };
            let mut budget = StepBudget::new(SimDuration::from_secs(3600));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now,
                budget: &mut budget,
            };
            for t in 0..touches {
                let page = bases[i].offset((second * 131 + t * 17) % 800);
                kernel.touch(page, t % 3 == 0, &mut m);
            }
            total_work += budget.compute + budget.io_wait;
        }
        now += SimDuration::from_secs(1);
        let snap = hyp.sample(now);
        relay.deliver_stats(snap, NetlinkFate::Deliver);
        let snap = relay.take_stats().expect("just delivered");
        if let Some((seq, targets)) = mm.on_stats(&snap) {
            relay.forward_targets(&mut hyp, seq, &targets);
        }
        // The MM processed a snapshot: its heartbeat keeps the targets
        // fresh even when it suppressed an unchanged vector.
        hyp.keepalive();
    }
    println!(
        "  targets at end: VM1={:?} VM2={:?}; tmem used: VM1={} VM2={}",
        hyp.target_of(VmId(1)),
        hyp.target_of(VmId(2)),
        hyp.tmem_used_by(VmId(1)),
        hyp.tmem_used_by(VmId(2)),
    );
    total_work
}
