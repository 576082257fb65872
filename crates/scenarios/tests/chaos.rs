//! Chaos suite: graceful degradation under the shipped fault profiles.
//!
//! The acceptance bar is *bounded slowdown, zero corruption*: with up to
//! 50% sample loss, 25% hypercall failure, an MM crash-and-restart, page
//! corruption or a backend brownout, every faulty cell must stay within
//! [`scenarios::DEGRADATION_BOUND`] of its fault-free twin's running time
//! on every VM, the tmem accounting invariants — checked at every VIRQ
//! interval — must never be violated, and every injected corruption must
//! be detected. The suite runs a slice of the shipped chaos grid
//! (`scenarios/chaos-grid.toml`) in-process through the sweep engine and
//! reads the journaled records, so it checks exactly what `sweep` judges.
//! It also sanity-checks the fault ledgers, so a profile that silently
//! stops injecting (or a degradation path that silently stops engaging)
//! fails loudly.

use scenarios::batch::{self, CellRecord, Verdict};
use scenarios::chaos::shipped_profiles;
use scenarios::dsl::{load_manifest, resolve_chaos, Manifest};
use scenarios::PolicyKind;
use std::path::PathBuf;
use std::sync::OnceLock;

fn shipped_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn chaos_grid() -> Manifest {
    load_manifest(&shipped_dir().join("chaos-grid.toml")).unwrap()
}

/// The shipped grid cut to one scenario and two representative policies
/// (the paper's baseline and its headline policy) at scale 0.01: every
/// profile and every degradation path, while keeping the suite fast. It
/// runs once per test process; the tests share its records and verdict.
fn small_grid() -> &'static (Vec<CellRecord>, Verdict) {
    static GRID: OnceLock<(Vec<CellRecord>, Verdict)> = OnceLock::new();
    GRID.get_or_init(|| {
        let full = chaos_grid();
        let small = Manifest {
            name: "chaos-small".into(),
            scenarios: full.scenarios[..1].to_vec(),
            policies: vec![PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 2.0 }],
            scale: 0.01,
            ..full
        };
        let identity = format!("{small:?}");
        let plan = batch::resolve_plan(small, &identity, &shipped_dir(), 4).unwrap();
        let dir = std::env::temp_dir().join(format!("smartmem-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = batch::run_sweep(&plan, &dir, None).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.complete(), "the small grid runs to completion");
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        let verdict = batch::verdict(&plan, &out.records);
        (out.records, verdict)
    })
}

#[test]
fn shipped_profiles_degrade_within_bound_and_never_corrupt() {
    let (records, verdict) = small_grid();
    assert_eq!(records.len(), 12, "1 scenario x 2 policies x 6 chaos");
    assert!(verdict.passed(), "verdict FAIL: {:?}", verdict.failures);
    for rec in records {
        assert!(
            rec.ledger.invariant_checks > 0,
            "{}/{}/{}: invariant checker never ran",
            rec.scenario,
            rec.policy,
            rec.chaos
        );
    }
}

#[test]
fn fault_ledgers_show_each_profile_injecting_and_degrading() {
    let (records, verdict) = small_grid();
    for (rec, worst) in records.iter().zip(&verdict.worst) {
        let l = &rec.ledger;
        let cell = format!("{}/{}", rec.scenario, rec.policy);
        match rec.chaos.as_str() {
            "baseline" => {
                assert_eq!(l.injected(), 0, "baseline must be fault-free");
                assert_eq!(l.seq_gaps, 0);
                assert_eq!(l.stale_intervals, 0, "fault-free targets never stale");
                assert_eq!(*worst, None, "a fault-free cell is its own twin");
            }
            "sample-loss" => {
                assert!(l.samples_dropped > 0, "VIRQ drops must fire");
                assert!(l.netlink_dropped > 0, "netlink drops must fire");
                assert!(l.seq_gaps > 0, "MM must detect the gaps");
                assert!(
                    l.stale_intervals > 0,
                    "sustained loss must trip the TTL fallback ({cell})"
                );
                assert!(
                    l.snapshots_discarded > 0,
                    "duplicates/reorders must be discarded idempotently"
                );
            }
            "flaky-hypercalls" => {
                // Greedy sends one target vector a run (every target is
                // the whole node), which a 25% failure rate can miss.
                if rec.policy != "greedy" {
                    assert!(l.hypercalls_failed > 0, "hypercall failures must fire");
                    assert!(
                        l.hypercall_retries > 0,
                        "relay must retry failed pushes ({cell})"
                    );
                }
            }
            "mm-crash" => {
                assert_eq!(l.mm_crashes, 1, "exactly one crash is scheduled");
                assert_eq!(l.mm_restarts, 1, "watchdog must restart the MM");
            }
            "bitrot" => {
                assert!(l.bitflips_injected > 0, "bit flips must fire");
                assert!(l.torn_writes_injected > 0, "torn writes must fire");
                // The acceptance invariant: every injected corruption ends
                // the run detected — by a guest get, a flush, reclaim, or
                // the scrubber's final pass — never latent, never returned
                // as wrong bytes (the guests' fingerprint checks would
                // panic the run).
                assert_eq!(
                    l.corruptions_detected,
                    l.bitflips_injected + l.torn_writes_injected,
                    "every injected corruption must be detected ({cell})"
                );
                assert!(l.corruptions_recovered <= l.corruptions_detected);
                assert!(l.scrub_passes > 0, "periodic scrubber must run");
                assert!(l.scrub_pages_checked > 0, "scrubber must verify pages");
                // Frontswap scenarios have no ephemeral pools; the loss
                // knob must therefore draw nothing.
                assert_eq!(l.ephemeral_losses_injected, 0);
            }
            "backend-brownout" => {
                assert!(l.put_io_failures_injected > 0, "injected EIO must fire");
                assert!(
                    l.brownout_rejections > 0,
                    "brownout windows must reject puts"
                );
                assert!(l.brownout_ticks > 0, "brownout intervals must be counted");
                assert_eq!(l.corruptions_detected, 0, "brownout never corrupts");
                assert!(
                    l.scrub_passes >= 1,
                    "the data-fault layer always runs a final scrub"
                );
            }
            other => panic!("unknown profile in the grid: {other}"),
        }
        if rec.chaos != "baseline" {
            assert!(worst.is_some(), "{cell}/{}: no fault-free twin", rec.chaos);
        }
    }
}

/// Greedy's targets are the whole node, so no control-plane fault can
/// change an admission: paired with its fault-free twin, each of its
/// control-plane cells is the same run, to the nanosecond.
#[test]
fn greedy_cells_are_immune_to_control_plane_faults() {
    let (records, verdict) = small_grid();
    let greedy: Vec<_> = records
        .iter()
        .zip(&verdict.worst)
        .filter(|(r, _)| r.policy == "greedy")
        .collect();
    let (twin, _) = greedy
        .iter()
        .find(|(r, _)| r.chaos == "baseline")
        .expect("the grid has a fault-free greedy cell");
    for profile in ["sample-loss", "flaky-hypercalls", "mm-crash"] {
        let (rec, worst) = greedy
            .iter()
            .find(|(r, _)| r.chaos == profile)
            .unwrap_or_else(|| panic!("the grid has a greedy {profile} cell"));
        assert_eq!(rec.vm_ns, twin.vm_ns, "{profile}: per-VM times moved");
        assert_eq!(rec.end_ns, twin.end_ns, "{profile}: end time moved");
        assert_eq!(**worst, Some(1.0), "{profile}");
    }
}

/// The shipped grid sweeps every managed policy of the paper set (no-tmem
/// has no control plane to inject faults into) under fault-free plus
/// every shipped profile, in order.
#[test]
fn chaos_policies_cover_the_managed_paper_set() {
    let grid = chaos_grid();
    let names: Vec<String> = grid.policies.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        names,
        ["greedy", "static-alloc", "reconf-static", "smart-alloc(2%)"]
    );
    let profiles: Vec<Option<String>> = grid
        .chaos
        .iter()
        .map(|c| resolve_chaos(c, &shipped_dir()).unwrap().map(|p| p.name))
        .collect();
    let shipped = shipped_profiles().into_iter().map(|p| Some(p.name));
    assert_eq!(
        profiles,
        std::iter::once(None).chain(shipped).collect::<Vec<_>>()
    );
}
