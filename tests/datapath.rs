//! Integration test of the paper's Fig. 1 datapath: guest page fault →
//! frontswap hypercall → hypervisor tmem pool, and back — across the
//! `guest-os`, `xen-sim` and `tmem` crates exactly as a scenario wires them.

use smartmem::guest::budget::StepBudget;
use smartmem::guest::disk::SharedDisk;
use smartmem::guest::kernel::{GuestConfig, GuestKernel};
use smartmem::guest::machine::Machine;
use smartmem::guest::tkm::{Dom0Tkm, GuestTkm};
use smartmem::sim::cost::CostModel;
use smartmem::sim::time::{SimDuration, SimTime};
use smartmem::tmem::backend::PoolKind;
use smartmem::tmem::key::VmId;
use smartmem::tmem::stats::MmTarget;
use smartmem::xen::hypervisor::Hypervisor;
use smartmem::xen::vm::VmConfig;

struct Node {
    hyp: Hypervisor<smartmem::tmem::page::Fingerprint>,
    disk: SharedDisk,
    cost: CostModel,
}

fn node(tmem_pages: u64, initial_target: u64) -> Node {
    Node {
        hyp: Hypervisor::new(tmem_pages, initial_target),
        disk: SharedDisk::default(),
        cost: CostModel::hdd(),
    }
}

fn boot_guest(node: &mut Node, vm: VmId, ram_pages: u64) -> (GuestKernel, GuestTkm) {
    node.hyp
        .register_vm(VmConfig::new(vm, format!("{vm}"), ram_pages * 4096, 1));
    let tkm = GuestTkm::init(&mut node.hyp, vm, PoolKind::Persistent).unwrap();
    let mut kernel = GuestKernel::new(GuestConfig {
        vm,
        ram_pages,
        os_reserved_pages: 2,
        readahead_pages: 8,
        frontswap_enabled: true,
    });
    kernel.attach_frontswap(tkm.pool());
    (kernel, tkm)
}

macro_rules! machine {
    ($node:expr, $budget:expr) => {
        Machine {
            hyp: &mut $node.hyp,
            disk: &mut $node.disk,
            cost: &$node.cost,
            now: SimTime::ZERO,
            budget: $budget,
        }
    };
}

#[test]
fn fig1_put_and_get_roundtrip_through_all_layers() {
    let mut n = node(64, 64);
    let (mut kernel, _tkm) = boot_guest(&mut n, VmId(1), 10);
    let mut b = StepBudget::new(SimDuration::from_secs(3600));

    // Touch more pages than fit in RAM: the PFRA evicts via frontswap puts.
    let base = kernel.alloc(16);
    for i in 0..16 {
        kernel.touch(base.offset(i), true, &mut machine!(n, &mut b));
    }
    assert_eq!(kernel.stats().evictions_to_tmem, 8);
    assert_eq!(n.hyp.tmem_used_by(VmId(1)), 8);
    assert_eq!(n.hyp.node_info().free_tmem, 64 - 8);

    // Fault an evicted page back: the get hypercall frees the tmem frame
    // and the data verifies (fingerprint assertion inside touch).
    kernel.touch(base, false, &mut machine!(n, &mut b));
    assert_eq!(kernel.stats().tmem_faults, 1);
}

#[test]
fn two_vms_compete_for_the_pool_greedily() {
    // A tiny node: 8 tmem pages, two guests with unlimited targets.
    let mut n = node(8, 8);
    let (mut k1, _t1) = boot_guest(&mut n, VmId(1), 6);
    let (mut k2, _t2) = boot_guest(&mut n, VmId(2), 6);
    let mut b = StepBudget::new(SimDuration::from_secs(3600));

    // VM1 floods first and takes the whole pool.
    let b1 = k1.alloc(12);
    for i in 0..12 {
        k1.touch(b1.offset(i), true, &mut machine!(n, &mut b));
    }
    assert_eq!(n.hyp.tmem_used_by(VmId(1)), 8, "VM1 owns the pool");

    // VM2 arrives later: every put fails, all evictions go to disk.
    let b2 = k2.alloc(12);
    for i in 0..12 {
        k2.touch(b2.offset(i), true, &mut machine!(n, &mut b));
    }
    assert_eq!(n.hyp.tmem_used_by(VmId(2)), 0, "VM2 starved (greedy)");
    assert!(k2.stats().evictions_to_disk > 0);
}

#[test]
fn targets_installed_through_the_tkm_rebalance_the_pool() {
    let mut n = node(8, 8);
    let (mut k1, _t1) = boot_guest(&mut n, VmId(1), 6);
    let (mut k2, t2) = boot_guest(&mut n, VmId(2), 6);
    let mut relay = Dom0Tkm::new();
    let mut b = StepBudget::new(SimDuration::from_secs(3600));

    // VM1 hogs the pool.
    let b1 = k1.alloc(12);
    for i in 0..12 {
        k1.touch(b1.offset(i), true, &mut machine!(n, &mut b));
    }
    // The MM decides on fair shares and the dom0 TKM installs them.
    relay.forward_targets(
        &mut n.hyp,
        1,
        &[
            MmTarget {
                vm_id: VmId(1),
                mm_target: 4,
            },
            MmTarget {
                vm_id: VmId(2),
                mm_target: 4,
            },
        ],
    );
    // Slow reclaim trickles VM1's oldest pages to its swap device.
    let t1_pool = smartmem::tmem::key::PoolId(0);
    let mut reclaimed = Vec::new();
    n.hyp.reclaim_over_target_into(t1_pool, 2, &mut reclaimed);
    assert_eq!(reclaimed.len(), 2);
    k1.tmem_reclaimed(&reclaimed);
    assert_eq!(n.hyp.tmem_used_by(VmId(1)), 6);

    // VM2 can now acquire the freed frames (its target allows 4).
    let b2 = k2.alloc(12);
    for i in 0..12 {
        k2.touch(b2.offset(i), true, &mut machine!(n, &mut b));
    }
    assert!(n.hyp.tmem_used_by(VmId(2)) > 0, "VM2 gets a share now");
    assert_eq!(
        n.hyp.backend().pool_info(t2.pool()).map(|(vm, _)| vm),
        Some(VmId(2))
    );

    // VM1's reclaimed pages read back from disk with correct contents
    // (no fingerprint panic) — the full relocation path works.
    for i in 0..12 {
        k1.touch(b1.offset(i), false, &mut machine!(n, &mut b));
    }
    assert!(k1.stats().disk_faults > 0);
}

#[test]
fn flush_on_process_exit_returns_capacity_to_the_node() {
    let mut n = node(16, 16);
    let (mut k, _t) = boot_guest(&mut n, VmId(1), 6);
    let mut b = StepBudget::new(SimDuration::from_secs(3600));
    let base = k.alloc(12);
    for i in 0..12 {
        k.touch(base.offset(i), true, &mut machine!(n, &mut b));
    }
    let used_before = n.hyp.tmem_used_by(VmId(1));
    assert!(used_before > 0);
    k.free_range(base, 12, &mut machine!(n, &mut b));
    assert_eq!(n.hyp.tmem_used_by(VmId(1)), 0);
    assert_eq!(n.hyp.node_info().free_tmem, 16);
}
