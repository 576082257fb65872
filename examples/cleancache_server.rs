//! Cleancache in action: tmem's second mode, which the paper describes
//! (§II-B) but does not evaluate.
//!
//! ```text
//! cargo run --release --example cleancache_server
//! ```
//!
//! A file server with a corpus four times its page-cache budget serves
//! Zipf-popular reads. Clean page-cache victims are offered to an
//! *ephemeral* tmem pool; misses try cleancache before paying a disk
//! read. The run compares three per-VM target settings — Algorithm 1
//! gates ephemeral puts exactly like frontswap puts — and prints where
//! the read traffic was served from.

use smartmem::guest::budget::StepBudget;
use smartmem::guest::disk::SharedDisk;
use smartmem::guest::kernel::{GuestConfig, GuestKernel};
use smartmem::guest::machine::Machine;
use smartmem::sim::cost::CostModel;
use smartmem::sim::time::{SimDuration, SimTime};
use smartmem::tmem::key::VmId;
use smartmem::tmem::page::Fingerprint;
use smartmem::workloads::fileserver::{FileServer, FileServerConfig};
use smartmem::workloads::traits::{StepOutcome, Workload};
use smartmem::xen::hypervisor::Hypervisor;
use smartmem::xen::vm::VmConfig;

fn main() {
    println!("cleancache file server — corpus 32 MiB, page cache 8 MiB\n");
    println!(
        "{:>14} {:>10} {:>14} {:>10} {:>12}",
        "tmem target", "cache hit", "cleancache hit", "disk read", "sim time"
    );
    for target_pages in [0u64, 2048, 8192] {
        let (server, elapsed) = serve(target_pages);
        let s = server.cache_stats().unwrap().to_owned();
        let total = (s.cache_hits + s.cleancache_hits + s.disk_reads) as f64;
        println!(
            "{:>11} pg {:>9.1}% {:>13.1}% {:>9.1}% {:>11.2}s",
            target_pages,
            100.0 * s.cache_hits as f64 / total,
            100.0 * s.cleancache_hits as f64 / total,
            100.0 * s.disk_reads as f64 / total,
            elapsed.as_secs_f64(),
        );
    }
    println!("\nWith a zero target every ephemeral offer fails (all misses pay");
    println!("the disk); a generous target turns pooled idle memory into a");
    println!("second-level page cache — tmem's original cleancache pitch.");
}

fn serve(target_pages: u64) -> (FileServer, SimDuration) {
    let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(16384, target_pages);
    hyp.register_vm(VmConfig::new(VmId(1), "VM1", 4096 * 4096, 1));
    let mut kernel = GuestKernel::new(GuestConfig {
        vm: VmId(1),
        ram_pages: 2112,
        os_reserved_pages: 64,
        readahead_pages: 8,
        frontswap_enabled: false, // cleancache-only guest
    });
    let mut disk = SharedDisk::default();
    let cost = CostModel::hdd();
    let mut server = FileServer::new(FileServerConfig::with_footprint(32 << 20, 200_000, 7));
    let mut elapsed = SimDuration::ZERO;
    loop {
        let mut budget = StepBudget::new(SimDuration::from_millis(1));
        let mut m = Machine {
            hyp: &mut hyp,
            disk: &mut disk,
            cost: &cost,
            now: SimTime::ZERO + elapsed,
            budget: &mut budget,
        };
        let out = server.step(&mut kernel, &mut m);
        elapsed += budget.elapsed(1.0);
        if out == StepOutcome::Done {
            return (server, elapsed);
        }
    }
}
