//! Page-reference streams, pinned by digest.
//!
//! Workloads touch guest memory through data-less spans and the guest page
//! table is bit-packed; neither may change anything the simulation does.
//! Each cell below covers a workload class or a datapath that the byte
//! goldens elsewhere do not pin event by event: graph analytics, usemem's
//! ramp and steady passes, disk swap with slot read-ahead (no-tmem), slow
//! reclaim to swap (the paging mix), a balanced two-host cluster with
//! in-memory analytics, cleancache, a far tier and migration, a two-host
//! analytics cluster under greedy whose puts, gets, flushes and
//! migrations all reach its far tier, a two-host serving cluster whose
//! migrated events tie with the destination's, and a two-host usemem
//! cluster whose start and stop triggers cross hosts. A
//! digest folds each host's full trace JSONL and the Debug form of the result (every
//! per-VM run, kernel counter and series point), so a page touched
//! differently anywhere moves it.
//!
//! The pinned values were recorded with an implementation that kept every
//! element in a host `Vec` and 24-byte page-table entries, except the
//! cluster's (see its cell). Three cells write slow-reclaim victims or a
//! migration spill back to swap, and were re-recorded when that
//! write-back stopped adding to `RunResult::disk_throttle` (no guest
//! waits on it): with `disk_throttle` left out of the fold, all seven
//! digests of that time are the same before and after that change. The
//! far-tier cell was recorded with the far tier's own `BTreeMap` page
//! store, before that store became a second tmem backend. Print the
//! current values with `PRINT_STREAM_DIGESTS=1 cargo test -p
//! smartmem-scenarios --test page_streams -- --nocapture`.

use guest_os::KernelStats;
use scenarios::config::RunConfig;
use scenarios::runner::{run_cluster, run_scenario, ClusterConfig, RunResult};
use scenarios::spec::{build_scenario, Arrival, FleetParams, ScenarioKind, WorkloadMix};
use scenarios::{dsl, PolicyKind};
use sim_core::netmodel::NetModel;
use sim_core::trace::{Payload, PutResult, TraceConfig, TraceHeader};
use smartmem_core::FleetConfig;
use xen_sim::host::FarConfig;

/// FNV-1a, 64-bit.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold one host's trace and outcome into `h`.
fn fold(h: &mut u64, r: &RunResult, seed: u64) {
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed,
    };
    let trace = r.trace.as_ref().expect("trace requested");
    assert_eq!(trace.dropped_oldest, 0, "the ring must hold the whole cell");
    fnv(h, trace.to_jsonl(&header, None).as_bytes());
    let outcome = RunResult {
        trace: None,
        ..r.clone()
    };
    fnv(h, format!("{outcome:?}").as_bytes());
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        scale: 0.01,
        seed,
        record_series: true,
        trace: Some(TraceConfig::default()),
        ..RunConfig::default()
    }
}

/// Run a one-host cell; returns its digest and its summed kernel counters,
/// so each test can check the cell exercises the path it pins.
fn scenario_digest(kind: ScenarioKind, policy: PolicyKind) -> (u64, KernelStats) {
    let c = cfg(42);
    let r = run_scenario(kind, policy, &c);
    let mut h = 0xcbf2_9ce4_8422_2325;
    fold(&mut h, &r, c.seed);
    (h, kernel_totals(&r))
}

fn kernel_totals(r: &RunResult) -> KernelStats {
    let mut t = KernelStats::default();
    for k in r.vm_results.iter().map(|vm| &vm.kernel_stats) {
        t.tmem_faults += k.tmem_faults;
        t.disk_faults += k.disk_faults;
        t.readahead_pages += k.readahead_pages;
        t.evictions_to_tmem += k.evictions_to_tmem;
        t.reclaimed_pages += k.reclaimed_pages;
    }
    t
}

fn check(cell: &str, got: u64, want: u64) {
    if std::env::var_os("PRINT_STREAM_DIGESTS").is_some() {
        println!("{cell}: {got:#018x}");
    }
    assert_eq!(
        got, want,
        "{cell}: the simulated page-reference stream changed ({got:#018x})"
    );
}

#[test]
fn graph_analytics_stream_is_unchanged() {
    let (got, k) = scenario_digest(ScenarioKind::Scenario3, PolicyKind::SmartAlloc { p: 4.0 });
    assert!(k.tmem_faults > 0);
    check("scenario3/smart-alloc:4", got, 0xeba5_1e08_206a_0cdf);
}

#[test]
fn usemem_stream_is_unchanged() {
    let (got, k) = scenario_digest(ScenarioKind::UsememScenario, PolicyKind::ReconfStatic);
    assert!(k.evictions_to_tmem > 0 && k.disk_faults > 0);
    check("usemem/reconf-static", got, 0x833f_6198_96cd_724c);
}

#[test]
fn disk_swap_stream_is_unchanged() {
    let (got, k) = scenario_digest(ScenarioKind::Scenario2, PolicyKind::NoTmem);
    assert!(k.disk_faults > 0 && k.readahead_pages > 0);
    check("scenario2/no-tmem", got, 0xc299_c50a_14f9_7163);
}

#[test]
fn reclaim_to_swap_stream_is_unchanged() {
    let kind = ScenarioKind::Scenario5(FleetParams {
        vms: 4,
        footprint_mb: 8,
        mix: WorkloadMix::Paging,
        arrival: Arrival::Simultaneous,
    });
    let (got, k) = scenario_digest(kind, PolicyKind::SmartAlloc { p: 2.0 });
    assert!(k.reclaimed_pages > 0 && k.disk_faults > 0);
    check("fleet:4:8:paging/smart-alloc:2", got, 0xc4fe_5ffe_9da3_8203);
}

#[test]
fn balanced_cluster_stream_is_unchanged() {
    let c = cfg(7);
    let kind = ScenarioKind::Scenario5(FleetParams {
        vms: 6,
        footprint_mb: 8,
        mix: WorkloadMix::Balanced,
        arrival: Arrival::Staggered { gap_ms: 250 },
    });
    let mut spec = build_scenario(kind, &c);
    spec.name = dsl::cluster_scenario_name(&spec.name, 2);
    let cluster = ClusterConfig {
        hosts: 2,
        far: Some(FarConfig {
            capacity_pages: (spec.tmem_pages() / 8).max(1),
        }),
        migration: Some(FleetConfig {
            divergence_threshold: 0.05,
            cooldown_intervals: 1,
            min_history: 2,
        }),
        ..ClusterConfig::default()
    };
    let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &c, &cluster);
    assert!(cr.fleet.migrations > 0);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in &cr.host_results {
        fold(&mut h, r, c.seed);
    }
    fnv(&mut h, format!("{:?}", cr.fleet).as_bytes());
    // Recorded once a migration stopped forking the VM's step chain.
    check("fleet:2x6:8/smart-alloc:2", h, 0xd9bc_e441_46d6_4380);
}

/// Six in-memory analytics VMs on two hosts under greedy, with a 16-page
/// far tier and eager migration: puts spill to the far tier and come back
/// as far gets, flushes purge far copies, and migrations carry far pages
/// out, land them in the destination's far tier and spill the rest to
/// swap.
#[test]
fn far_tier_stream_is_unchanged() {
    let c = cfg(7);
    let kind = ScenarioKind::Scenario5(FleetParams {
        vms: 6,
        footprint_mb: 8,
        mix: WorkloadMix::Analytics,
        ..FleetParams::default()
    });
    let mut spec = build_scenario(kind, &c);
    spec.name = dsl::cluster_scenario_name(&spec.name, 2);
    let cluster = ClusterConfig {
        hosts: 2,
        far: Some(FarConfig { capacity_pages: 16 }),
        migration: Some(FleetConfig {
            divergence_threshold: 0.05,
            cooldown_intervals: 1,
            min_history: 2,
        }),
        ..ClusterConfig::default()
    };
    let cr = run_cluster(spec, PolicyKind::Greedy, &c, &cluster);
    // [stored_far puts, far gets, far flushes, migrate_out with far pages,
    //  migrate_in with far pages, migrate_in with spilled pages]
    let mut seen = [0u64; 6];
    let events = cr
        .host_results
        .iter()
        .flat_map(|r| &r.trace.as_ref().expect("trace requested").events);
    for e in events {
        match e.payload {
            Payload::Put {
                result: PutResult::StoredFar,
                ..
            } => seen[0] += 1,
            Payload::FarGet { .. } => seen[1] += 1,
            Payload::FarFlush { .. } => seen[2] += 1,
            Payload::MigrateOut { far, .. } if far > 0 => seen[3] += 1,
            Payload::MigrateIn { far, spilled, .. } => {
                seen[4] += u64::from(far > 0);
                seen[5] += u64::from(spilled > 0);
            }
            _ => {}
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "far paths not all driven: {seen:?}"
    );
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in &cr.host_results {
        fold(&mut h, r, c.seed);
    }
    fnv(&mut h, format!("{:?}", cr.fleet).as_bytes());
    check(
        "fleet:2x6:8:analytics far 16/greedy",
        h,
        0xe2cb_3c30_01b1_1d13,
    );
}

/// Eight file servers on two hosts, all arriving at once, with a fleet
/// scheduler that migrates as soon as the hosts diverge. A migrated VM's
/// queued event keeps its sequence number on the destination, and here it
/// ties exactly with the destination's own events, so renumbering it
/// moves the digest.
#[test]
fn migration_tie_stream_is_unchanged() {
    let c = RunConfig {
        scale: 0.03,
        ..cfg(1)
    };
    let kind = ScenarioKind::Scenario5(FleetParams {
        vms: 8,
        footprint_mb: 8,
        mix: WorkloadMix::Serving,
        arrival: Arrival::Simultaneous,
    });
    let mut spec = build_scenario(kind, &c);
    spec.name = dsl::cluster_scenario_name(&spec.name, 2);
    let cluster = ClusterConfig {
        hosts: 2,
        net: NetModel::datacenter(),
        far: None,
        migration: Some(FleetConfig {
            divergence_threshold: 0.01,
            cooldown_intervals: 1,
            min_history: 1,
        }),
    };
    let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &c, &cluster);
    assert!(cr.fleet.migrations > 0);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in &cr.host_results {
        fold(&mut h, r, c.seed);
    }
    fnv(&mut h, format!("{:?}", cr.fleet).as_bytes());
    check(
        "fleet:2x8:8:serving:0/smart-alloc:2",
        h,
        0x3795_6451_abf8_b170,
    );
}

/// `scenarios/usemem.toml` on two hosts, at the scale of
/// `run <file> smart-alloc:2 --seed 42 --scale 0.125`. Round-robin
/// placement puts VM1 and VM3 on host 0 and VM2 on host 1, so VM3's
/// `start_on` waits on a milestone of the other host and its `stop_on`
/// stops both hosts' VMs.
#[test]
fn cross_host_trigger_stream_is_unchanged() {
    let c = RunConfig {
        scale: 0.125,
        ..cfg(42)
    };
    let src = format!(
        "{}\n[cluster]\nhosts = 2\n",
        include_str!("../../../scenarios/usemem.toml")
    );
    let doc = dsl::parse_scenario_src(&src, &c).expect("usemem.toml plus a [cluster] table");
    let cluster = doc.cluster.expect("the [cluster] table");
    let cr = run_cluster(doc.spec, PolicyKind::SmartAlloc { p: 2.0 }, &c, &cluster);
    let names = |h: usize| -> Vec<&str> {
        cr.host_results[h]
            .vm_results
            .iter()
            .map(|vm| vm.name.as_str())
            .collect()
    };
    assert_eq!(names(0), ["VM1", "VM3"]);
    assert_eq!(names(1), ["VM2"]);
    let vm3 = &cr.host_results[0].vm_results[1];
    assert!(vm3.milestones.iter().any(|(l, _)| l.starts_with("alloc")));
    for r in &cr.host_results {
        assert!(!r.truncated);
        assert_eq!(r.events, 48_123);
        assert_eq!(r.end_time.to_string(), "13.472s");
        assert!(r.vm_results.iter().all(|vm| vm.stopped_early));
    }
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in &cr.host_results {
        fold(&mut h, r, c.seed);
    }
    fnv(&mut h, format!("{:?}", cr.fleet).as_bytes());
    check(
        "usemem.toml on 2 hosts/smart-alloc:2",
        h,
        0xc672_e8a6_8a3c_da21,
    );
}
