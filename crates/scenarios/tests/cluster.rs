//! The cluster test battery: multi-host runs are pinned from every side.
//!
//! Four contracts, each with its own failure story:
//!
//! 1. **Single-host equivalence.** A one-host cluster — even with a
//!    non-default interconnect and the fleet scheduler armed — is
//!    byte-identical to the plain single-host path, at every `--jobs`
//!    count, with faults off and on. The cluster layer must be pure
//!    topology: one host means zero behavioural surface.
//! 2. **Conservation.** A migration moves every page or none: summed over
//!    the fleet, `MigrateOut.pages + far == MigrateIn.pages + far +
//!    spilled`, and the trace replay verifier re-derives each host's
//!    occupancy, ledger and admission counters from the event stream
//!    alone. A property test drives random topologies, seeds and chaos
//!    profiles through the same invariant.
//! 3. **Far tier.** Spilling into far memory is deterministic, visible in
//!    the trace, and — when disabled — completely absent (no far events,
//!    no far occupancy, byte-identical reruns).
//! 4. **The fleet report.** The human-readable table and the CSV are
//!    golden-pinned; regenerate deliberately with
//!    `REGEN_TRACE_GOLDEN=1 cargo test -p smartmem-scenarios --test cluster`.

use proptest::prelude::*;
use scenarios::chaos::shipped_profiles;
use scenarios::config::RunConfig;
use scenarios::runner::{run_cluster, run_spec, ClusterConfig, ClusterResult, RunResult};
use scenarios::spec::{
    build_scenario, Arrival, FleetParams, ScenarioKind, ScenarioSpec, WorkloadMix,
};
use scenarios::{dsl, report, trace_check, PolicyKind};
use sim_core::faults::FaultProfile;
use sim_core::netmodel::NetModel;
use sim_core::time::SimDuration;
use sim_core::trace::{Payload, TraceConfig, TraceHeader};
use smartmem_core::FleetConfig;
use std::path::Path;
use xen_sim::host::FarConfig;

// ---------------------------------------------------------------------------
// Cell builders
// ---------------------------------------------------------------------------

/// A fleet cell of `vms` small guests with staggered arrivals: every
/// workload-mix member present, cheap enough for the default suite.
fn fleet_kind(vms: u32, footprint_mb: u32) -> ScenarioKind {
    ScenarioKind::Scenario5(FleetParams {
        vms,
        footprint_mb,
        mix: WorkloadMix::Balanced,
        arrival: Arrival::Staggered { gap_ms: 250 },
    })
}

fn traced_cfg(seed: u64, faults: FaultProfile) -> RunConfig {
    RunConfig {
        seed,
        faults,
        record_series: true,
        trace: Some(TraceConfig::default()),
        ..RunConfig::default()
    }
}

/// Build the spec for a cluster cell, with the host count folded into the
/// scenario name exactly as the `fleet:<hosts>x<vms>` CLI spelling does.
fn cluster_spec(kind: ScenarioKind, hosts: usize, cfg: &RunConfig) -> ScenarioSpec {
    let mut spec = build_scenario(kind, cfg);
    spec.name = dsl::cluster_scenario_name(&spec.name, hosts);
    spec
}

/// A fleet scheduler eager enough to fire inside a short test run.
fn eager_migration() -> FleetConfig {
    FleetConfig {
        divergence_threshold: 0.05,
        cooldown_intervals: 1,
        min_history: 2,
    }
}

fn profile(name: &str) -> FaultProfile {
    shipped_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{name} ships with the chaos suite"))
        .profile
}

fn jsonl(r: &RunResult, seed: u64) -> String {
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed,
    };
    r.trace
        .as_ref()
        .expect("trace requested")
        .to_jsonl(&header, None)
}

/// Assert the replay verifier signs off on every host of a cluster run.
fn assert_replays(cr: &ClusterResult, cell: &str) {
    let rep = trace_check::verify_cluster(&cr.host_results)
        .unwrap_or_else(|e| panic!("{cell}: replay unavailable: {e}"));
    assert!(
        rep.ok(),
        "{cell}: replay diverged from live accounting:\n  {}",
        rep.mismatches.join("\n  ")
    );
    assert!(
        rep.events > 0 && rep.checks > 0,
        "{cell}: degenerate replay ({} events, {} checks)",
        rep.events,
        rep.checks
    );
}

/// Fleet-wide migration flows, re-derived purely from trace events.
#[derive(Debug, Default, PartialEq, Eq)]
struct Flows {
    outs: u64,
    ins: u64,
    dones: u64,
    exported: u64,
    landed: u64,
    spilled: u64,
    downtime: u64,
}

fn migration_flows(cr: &ClusterResult) -> Flows {
    let mut f = Flows::default();
    for host in &cr.host_results {
        for e in &host.trace.as_ref().expect("trace requested").events {
            match e.payload {
                Payload::MigrateOut { pages, far, .. } => {
                    f.outs += 1;
                    f.exported += pages + far;
                }
                Payload::MigrateIn {
                    pages,
                    far,
                    spilled,
                } => {
                    f.ins += 1;
                    f.landed += pages + far;
                    f.spilled += spilled;
                }
                Payload::MigrateDone { downtime } => {
                    f.dones += 1;
                    f.downtime += downtime;
                }
                _ => {}
            }
        }
    }
    f
}

/// Conservation + fleet-metric cross-checks shared by the deterministic
/// acceptance cell and the property test.
fn assert_conservation(cr: &ClusterResult, cell: &str) {
    let f = migration_flows(cr);
    assert_eq!(
        f.outs, f.ins,
        "{cell}: every departure must land (out {} vs in {})",
        f.outs, f.ins
    );
    assert_eq!(
        f.dones, f.outs,
        "{cell}: every migration must complete within the run"
    );
    assert_eq!(
        f.exported,
        f.landed + f.spilled,
        "{cell}: pages lost or duplicated in flight (exported {} vs landed {} + spilled {})",
        f.exported,
        f.landed,
        f.spilled
    );
    assert_eq!(
        f.outs, cr.fleet.migrations,
        "{cell}: fleet metric disagrees with the trace"
    );
    assert_eq!(
        SimDuration::from_nanos(f.downtime),
        cr.fleet.migration_downtime,
        "{cell}: downtime metric disagrees with the trace"
    );
    // The run loop is shared: every host reports the same fleet-wide
    // dispatch count, and nobody hit the safety cutoff.
    for r in &cr.host_results {
        assert_eq!(r.events, cr.host_results[0].events, "{cell}: event counts");
        assert!(!r.truncated, "{cell}: run truncated");
    }
}

// ---------------------------------------------------------------------------
// 1. Single-host equivalence
// ---------------------------------------------------------------------------

/// A one-host cluster with a *non-default* interconnect and the fleet
/// scheduler armed must be byte-identical to the plain single-host path:
/// same Debug form (every per-VM stat, series point and ledger field),
/// same trace JSONL. Checked at jobs 1 and 8, faults off and on — the
/// `jobs` knob and the cluster layer must both be invisible here.
#[test]
fn one_host_cluster_is_byte_identical_to_the_single_host_path() {
    for (chaos, faults) in [
        ("off", FaultProfile::none()),
        ("sample-loss", profile("sample-loss")),
    ] {
        for jobs in [1usize, 8] {
            let cfg = RunConfig {
                jobs,
                ..traced_cfg(20260807, faults.clone())
            };
            let kind = fleet_kind(8, 8);
            let baseline = run_spec(
                build_scenario(kind, &cfg),
                PolicyKind::SmartAlloc { p: 2.0 },
                &cfg,
            );
            let one = ClusterConfig {
                hosts: 1,
                net: NetModel::commodity(),
                far: None,
                migration: Some(eager_migration()),
            };
            let cr = run_cluster(
                build_scenario(kind, &cfg),
                PolicyKind::SmartAlloc { p: 2.0 },
                &cfg,
                &one,
            );
            let cell = format!("jobs {jobs} / chaos {chaos}");
            assert_eq!(cr.fleet.hosts, 1);
            assert_eq!(cr.fleet.migrations, 0, "{cell}: nowhere to migrate to");
            assert_eq!(cr.fleet.cross_host_transfers, 0, "{cell}");
            let host = &cr.host_results[0];
            assert!(
                jsonl(host, cfg.seed) == jsonl(&baseline, cfg.seed),
                "{cell}: trace JSONL differs between run_spec and a 1-host cluster"
            );
            assert_eq!(
                format!("{host:?}"),
                format!("{baseline:?}"),
                "{cell}: 1-host cluster result differs from the single-host path"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Migration: the 2x32 acceptance cell and the conservation proptest
// ---------------------------------------------------------------------------

/// The PR's acceptance cell: a 2-host, 32-VM cluster with the fleet
/// scheduler armed completes with at least one MM-initiated migration,
/// conserves every page across each move, and replay-verifies on both
/// hosts from the trace alone.
#[test]
fn two_host_32_vm_cluster_migrates_and_conserves_every_page() {
    let cfg = traced_cfg(20260807, FaultProfile::none());
    let spec = cluster_spec(fleet_kind(32, 8), 2, &cfg);
    assert_eq!(spec.name, "scenario5-2x32x8mb-balanced");
    let cluster = ClusterConfig {
        hosts: 2,
        net: NetModel::datacenter(),
        far: None,
        migration: Some(eager_migration()),
    };
    let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &cfg, &cluster);
    assert!(
        cr.fleet.migrations >= 1,
        "the fleet scheduler never fired on a 2x32 cluster (metrics: {:?})",
        cr.fleet
    );
    assert!(
        cr.fleet.migration_downtime > SimDuration::ZERO,
        "a migration pauses its VM for a nonzero interval"
    );
    assert!(cr.fleet.cross_host_transfers >= cr.fleet.migrations);
    assert_conservation(&cr, "2x32");
    assert_replays(&cr, "2x32");
    // All 32 VMs finished somewhere, exactly once.
    let resident: usize = cr.host_results.iter().map(|r| r.vm_results.len()).sum();
    assert_eq!(resident, 32, "every VM ends resident on exactly one host");
}

// Random topologies, seeds, chaos profiles and scheduler eagerness: the
// conservation invariant and the replay verifier must hold in every cell,
// migrations or none. Small cells keep the property suite affordable.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn migration_conservation_holds_under_random_schedules_and_chaos(
        seed in 1u64..1_000_000,
        hosts in 2usize..=3,
        vms in 4u32..=8,
        chaos_idx in 0usize..4,
        eager in any::<bool>(),
    ) {
        let chaos_names = ["off", "sample-loss", "mm-crash", "bitrot"];
        let faults = match chaos_names[chaos_idx] {
            "off" => FaultProfile::none(),
            name => profile(name),
        };
        let divergence = if eager { 0.05 } else { 0.25 };
        let cfg = traced_cfg(seed, faults);
        let spec = cluster_spec(fleet_kind(vms, 4), hosts, &cfg);
        let cluster = ClusterConfig {
            hosts,
            net: NetModel::datacenter(),
            far: None,
            migration: Some(FleetConfig {
                divergence_threshold: divergence,
                ..eager_migration()
            }),
        };
        let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &cfg, &cluster);
        let cell = format!(
            "{hosts} hosts / {vms} vms / seed {seed} / chaos {} / div {divergence}",
            chaos_names[chaos_idx]
        );
        assert_conservation(&cr, &cell);
        assert_replays(&cr, &cell);
    }
}

// ---------------------------------------------------------------------------
// 3. The far tier
// ---------------------------------------------------------------------------

/// With a deliberately tiny far shard, puts spill into far memory, far
/// traffic shows up in the trace, the replay verifier re-derives the far
/// occupancy, and two identical runs produce byte-identical results — the
/// far tier's cost model draws from the deterministic substream plan, not
/// from wall-clock anything.
#[test]
fn far_tier_spills_deterministically_and_replays() {
    let cfg = traced_cfg(20260807, FaultProfile::none());
    let run = || {
        let mut spec = cluster_spec(fleet_kind(8, 8), 2, &cfg);
        // Pin local tmem to a handful of pages per host shard so frontswap
        // occupancy overflows it quickly: persistent puts that find the
        // shard full spill into the (roomy) far tier instead of failing
        // outright. Cleancache puts never spill — ephemeral pages are
        // droppable by contract. The greedy policy is the one whose target
        // check never binds (every VM's target is the whole node), so puts
        // genuinely reach the backend's capacity wall; smart-alloc rescales
        // targets to fit and would mask the far tier entirely.
        spec.tmem_bytes = 2 * 16 * 4096;
        let far = FarConfig {
            capacity_pages: 4096,
        };
        let cluster = ClusterConfig {
            hosts: 2,
            net: NetModel::datacenter(),
            far: Some(far),
            migration: Some(eager_migration()),
        };
        run_cluster(spec, PolicyKind::Greedy, &cfg, &cluster)
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.host_results.iter().zip(&b.host_results) {
        assert_eq!(
            format!("{ra:?}"),
            format!("{rb:?}"),
            "far-tier cluster runs are not deterministic"
        );
    }
    assert_eq!(a.fleet, b.fleet);
    let far_events = a
        .host_results
        .iter()
        .flat_map(|r| &r.trace.as_ref().unwrap().events)
        .filter(|e| matches!(e.payload, Payload::FarGet { .. } | Payload::FarFlush { .. }))
        .count();
    assert!(far_events > 0, "tiny far shard saw no far traffic");
    assert_conservation(&a, "far 2x8");
    assert_replays(&a, "far 2x8");
}

/// `far: None` means *no* far tier, not a zero-sized one: no far events in
/// any host's trace, zero far occupancy everywhere, and reruns are
/// byte-identical (the disabled tier draws nothing from the RNG plan).
#[test]
fn disabled_far_tier_is_completely_absent() {
    let cfg = traced_cfg(20260807, FaultProfile::none());
    let run = || {
        let spec = cluster_spec(fleet_kind(8, 8), 2, &cfg);
        let cluster = ClusterConfig {
            hosts: 2,
            net: NetModel::datacenter(),
            far: None,
            migration: Some(eager_migration()),
        };
        run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &cfg, &cluster)
    };
    let a = run();
    let b = run();
    for (h, (ra, rb)) in a.host_results.iter().zip(&b.host_results).enumerate() {
        assert_eq!(
            format!("{ra:?}"),
            format!("{rb:?}"),
            "host {h}: far-less cluster runs are not deterministic"
        );
        assert!(
            ra.final_far_used.iter().all(|&p| p == 0),
            "host {h}: far occupancy without a far tier"
        );
        let far_traffic = ra.trace.as_ref().unwrap().events.iter().any(|e| {
            matches!(e.payload, Payload::FarGet { .. } | Payload::FarFlush { .. })
                || matches!(
                    e.payload,
                    Payload::Put {
                        result: sim_core::trace::PutResult::StoredFar,
                        ..
                    }
                )
        });
        assert!(!far_traffic, "host {h}: far events without a far tier");
    }
}

/// The CI cluster-smoke cells, in-tree: a 2-host cluster with migration
/// armed survives the `mm-crash` and `bitrot` chaos profiles and still
/// replay-verifies on every host — control-plane crashes and data-plane
/// corruption compose with migration, including mid-flight purges.
#[test]
fn two_host_chaos_cells_replay_under_mm_crash_and_bitrot() {
    std::thread::scope(|s| {
        let handles: Vec<_> = ["mm-crash", "bitrot"]
            .into_iter()
            .map(|name| {
                s.spawn(move || {
                    let cfg = traced_cfg(20260807, profile(name));
                    let spec = cluster_spec(fleet_kind(8, 8), 2, &cfg);
                    let cluster = ClusterConfig {
                        hosts: 2,
                        net: NetModel::datacenter(),
                        far: None,
                        migration: Some(eager_migration()),
                    };
                    let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &cfg, &cluster);
                    let cell = format!("2x8 / chaos {name}");
                    assert_conservation(&cr, &cell);
                    assert_replays(&cr, &cell);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("chaos cell panicked");
        }
    });
}

// ---------------------------------------------------------------------------
// 4. The fleet report, golden-pinned
// ---------------------------------------------------------------------------

/// Compare `actual` to the committed golden, or rewrite it when
/// `REGEN_TRACE_GOLDEN=1` (then fail, so a regen run is never green).
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        // Write (don't panic) so a single regen run refreshes every golden
        // this test checks; the caller fails the test afterwards.
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from the committed golden. If the change is \
         deliberate, regenerate with REGEN_TRACE_GOLDEN=1"
    );
}

/// The rendered fleet table of one fully deterministic 2x8 cell (far tier
/// on, eager migration) is pinned byte-exactly, stranded-memory and
/// cross-host-traffic lines included.
#[test]
fn fleet_report_and_csv_match_goldens() {
    let cfg = traced_cfg(20260807, FaultProfile::none());
    let spec = cluster_spec(fleet_kind(8, 8), 2, &cfg);
    let far = FarConfig {
        capacity_pages: (spec.tmem_pages() / 2 / 8).max(1),
    };
    let cluster = ClusterConfig {
        hosts: 2,
        net: NetModel::datacenter(),
        far: Some(far),
        migration: Some(eager_migration()),
    };
    let cr = run_cluster(spec, PolicyKind::SmartAlloc { p: 2.0 }, &cfg, &cluster);
    check_golden("fleet_report_2x8.txt", &report::render_fleet(&cr));
    assert!(
        std::env::var_os("REGEN_TRACE_GOLDEN").is_none(),
        "regenerated goldens — rerun without REGEN_TRACE_GOLDEN"
    );
}
