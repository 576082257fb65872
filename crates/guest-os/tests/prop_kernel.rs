//! Property tests on the guest kernel's paging state machine.
//!
//! Arbitrary touch/free sequences over a small address space, under
//! arbitrary RAM/tmem sizing, must preserve:
//!
//! * content integrity (the fingerprint check inside `touch` panics on any
//!   lost or stale page — surviving the sequence IS the assertion),
//! * frame accounting (resident pages ≤ usable frames),
//! * hypervisor agreement (kernel's view of tmem pages == hypervisor's).

use guest_os::budget::StepBudget;
use guest_os::disk::SharedDisk;
use guest_os::kernel::{GuestConfig, GuestKernel};
use guest_os::machine::Machine;
use proptest::prelude::*;
use sim_core::cost::CostModel;
use sim_core::time::{SimDuration, SimTime};
use tmem::backend::PoolKind;
use tmem::key::VmId;
use tmem::page::Fingerprint;
use xen_sim::hypervisor::Hypervisor;
use xen_sim::vm::VmConfig;

#[derive(Debug, Clone)]
enum Op {
    Touch { page: u8, write: bool },
    FreeAndRealloc,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            8 => (0..48u8, any::<bool>()).prop_map(|(page, write)| Op::Touch { page, write }),
            1 => Just(Op::FreeAndRealloc),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn paging_state_machine_holds_invariants(
        ops in ops(),
        ram_pages in 4u64..24,
        tmem_pages in 0u64..32,
        target in 0u64..32,
    ) {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, target);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", ram_pages * 4096, 1));
        let pool = hyp.new_pool(VmId(1), PoolKind::Persistent).unwrap();
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages,
            os_reserved_pages: 2,
            readahead_pages: 4,
            frontswap_enabled: true,
        });
        kernel.attach_frontswap(pool);
        let mut disk = SharedDisk::default();
        let cost = CostModel::hdd();
        let usable = ram_pages - 2;

        let mut base = kernel.alloc(48);
        for op in ops {
            let mut budget = StepBudget::new(SimDuration::from_secs(3600));
            let mut m = Machine {
                hyp: &mut hyp,
                disk: &mut disk,
                cost: &cost,
                now: SimTime::ZERO,
                budget: &mut budget,
            };
            match op {
                Op::Touch { page, write } => {
                    // Content integrity asserted inside touch().
                    kernel.touch(base.offset(u64::from(page)), write, &mut m);
                }
                Op::FreeAndRealloc => {
                    kernel.free_range(base, 48, &mut m);
                    base = kernel.alloc(48);
                }
            }
            prop_assert!(kernel.resident_pages() <= usable);
            prop_assert!(hyp.tmem_used_by(VmId(1)) <= tmem_pages);
            prop_assert!(hyp.node_info().free_tmem <= tmem_pages);
        }

        // Teardown releases everything everywhere.
        let mut budget = StepBudget::new(SimDuration::from_secs(3600));
        let mut m = Machine {
            hyp: &mut hyp,
            disk: &mut disk,
            cost: &cost,
            now: SimTime::ZERO,
            budget: &mut budget,
        };
        kernel.teardown(&mut m);
        prop_assert_eq!(kernel.resident_pages(), 0);
        prop_assert_eq!(hyp.tmem_used_by(VmId(1)), 0);
        prop_assert_eq!(hyp.node_info().free_tmem, tmem_pages);
    }
}
