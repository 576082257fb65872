//! Fleet-family regression tests: Scenario5 obeys the same determinism
//! contract as the Table II scenarios — `--jobs` is an engine knob, never
//! a result knob, with faults off *and* on — and one run replays
//! identically to the next.

use scenarios::chaos::shipped_profiles;
use scenarios::config::RunConfig;
use scenarios::runner::{run_scenario, RunResult};
use scenarios::spec::{Arrival, FleetParams, ScenarioKind, WorkloadMix};
use scenarios::PolicyKind;
use sim_core::faults::FaultProfile;

/// A small-but-real fleet cell: 8 VMs, every mix member present, staggered
/// arrivals — everything the generator does, at test-suite cost.
fn fleet_kind() -> ScenarioKind {
    ScenarioKind::Scenario5(FleetParams {
        vms: 8,
        footprint_mb: 8,
        mix: WorkloadMix::Balanced,
        arrival: Arrival::Staggered { gap_ms: 250 },
    })
}

fn cfg(jobs: usize, faults: FaultProfile) -> RunConfig {
    RunConfig {
        seed: 20260807,
        jobs,
        faults,
        ..RunConfig::default()
    }
}

/// The full result structure through its Debug form — every per-VM stat,
/// run record, ledger field and the event count — is the "report bytes"
/// this suite compares.
fn report(r: &RunResult) -> String {
    format!("{r:?}")
}

#[test]
fn fleet_run_is_byte_identical_across_job_counts_faults_off() {
    let a = run_scenario(
        fleet_kind(),
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg(1, FaultProfile::none()),
    );
    let b = run_scenario(
        fleet_kind(),
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg(8, FaultProfile::none()),
    );
    assert!(!a.truncated, "test cell must run to completion");
    assert!(
        a.vm_results.iter().all(|vm| !vm.runs.is_empty()),
        "every fleet VM ran its program"
    );
    assert_eq!(
        report(&a),
        report(&b),
        "fleet report differs between --jobs 1 and --jobs 8 (faults off)"
    );
}

#[test]
fn fleet_run_is_byte_identical_across_job_counts_faults_on() {
    let profile = shipped_profiles()
        .into_iter()
        .find(|p| p.name == "sample-loss")
        .expect("sample-loss ships with the chaos suite")
        .profile;
    let a = run_scenario(
        fleet_kind(),
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg(1, profile.clone()),
    );
    let b = run_scenario(
        fleet_kind(),
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg(8, profile.clone()),
    );
    assert!(a.faults.injected() > 0, "the fault profile actually fired");
    assert_eq!(
        report(&a),
        report(&b),
        "fleet report differs between --jobs 1 and --jobs 8 (faults on)"
    );
    // Replay determinism: the same cell again must reproduce the same
    // ledger and report, fault schedule included.
    let c = run_scenario(
        fleet_kind(),
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg(1, profile),
    );
    assert_eq!(report(&a), report(&c), "faulted fleet run failed to replay");
}

/// A paging fleet's slow reclaim writes millions of pages back to swap
/// for the hypervisor, and no guest waits on that write-back. The disk's
/// throttle total counts only stalls that guests paid, so it can be no
/// larger than the time the VMs spent running. (Counting every reclaimed
/// page as a write that might stall, this cell once reported 1,946 s of
/// throttle for VMs that ran about 352 s between them.)
#[test]
fn disk_throttle_is_bounded_by_the_vms_run_time() {
    let (kind, hosts) =
        scenarios::dsl::parse_kind_cluster("fleet:8:64:paging").expect("fleet cell");
    assert_eq!(hosts, 1);
    let cfg = RunConfig {
        seed: 42,
        ..RunConfig::default()
    };
    let r = run_scenario(kind, PolicyKind::SmartAlloc { p: 2.0 }, &cfg);
    assert!(!r.truncated);
    let ran_ns: u64 = r
        .vm_results
        .iter()
        .flat_map(|vm| vm.completions())
        .map(|d| d.as_nanos())
        .sum();
    assert!(ran_ns > 0, "the VMs ran");
    assert!(
        r.disk_throttle.as_nanos() <= ran_ns,
        "throttle {:?} exceeds the VMs' summed run time {} ns",
        r.disk_throttle,
        ran_ns
    );
}
