//! Replay verification of the flight recorder, end to end.
//!
//! The trace schema is a load-bearing contract: `trace_check::verify`
//! re-derives per-VM tmem occupancy, the admission counters and the fault
//! ledger purely from the event stream and must land exactly on the live
//! accounting for every covered cell, and a trace with one event removed
//! must fail it with a mismatch that names what the event carried. Two
//! golden files pin the serialized JSONL form byte-exactly — one synthetic
//! trace exercising every payload variant, and one real (filtered) run.
//! Regenerate them after a deliberate schema change with:
//!
//! ```text
//! REGEN_TRACE_GOLDEN=1 cargo test -p smartmem-scenarios --test trace_replay
//! ```

use scenarios::chaos::shipped_profiles;
use scenarios::config::RunConfig;
use scenarios::dsl::{load_manifest, resolve_chaos};
use scenarios::par::{default_jobs, run_indexed};
use scenarios::runner::run_scenario;
use scenarios::trace_check::{self, TraceFold};
use scenarios::{PolicyKind, ScenarioKind};
use sim_core::faults::{FaultProfile, NetlinkFate, SampleFate};
use sim_core::time::SimTime;
use sim_core::trace::{
    FaultKind, Payload, PushOutcome, PutResult, Recorder, Subsystem, TraceConfig, TraceData,
    TraceHeader, TraceMetrics, Tracer, TRACE_SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

fn traced_cfg(faults: FaultProfile) -> RunConfig {
    RunConfig {
        scale: 0.01,
        seed: 42,
        record_series: true, // the verifier checks the series point-wise
        trace: Some(TraceConfig::default()),
        faults,
        ..RunConfig::default()
    }
}

/// The shipped chaos profile called `name`.
fn profile(name: &str) -> FaultProfile {
    shipped_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{name} ships with the chaos suite"))
        .profile
}

/// Run each traced cell and assert its replay lands exactly on the live
/// accounting, and that the fold's totals equal the recorder's registry:
/// perfbench's per-layer tmem counts and `trace`'s summary describe the
/// same events. Cells run on one worker per core.
fn verify_cells(cells: Vec<(ScenarioKind, PolicyKind, String, FaultProfile)>) {
    run_indexed(
        cells,
        default_jobs(),
        |_, (scenario, policy, chaos, faults)| {
            let r = run_scenario(scenario, policy, &traced_cfg(faults));
            let cell = format!("{} / {} / chaos {chaos}", r.scenario, r.policy);
            let rep = trace_check::verify(&r)
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
            // `verify` refused a trace the ring dropped from, so the fold
            // saw every event the registry counted.
            let trace = r.trace.as_ref().expect("verify found a trace");
            let fold = TraceFold::of(&trace.events);
            let mut totals = TraceMetrics::default();
            for v in fold.vms.values() {
                let d = v.datapath();
                for result in PutResult::ALL {
                    totals.puts += d.put(result);
                    if !result.is_success() {
                        totals.puts_rejected += d.put(result);
                    }
                }
                totals.gets += d.gets;
                totals.get_hits += d.hits;
                totals.evictions += d.evictions;
                totals.flush_pages += d.flushed_pages;
                totals.reclaimed_pages += v.reclaimed;
            }
            let l = &fold.ledger;
            totals.virq_samples =
                l.samples_delivered + l.samples_dropped + l.samples_delayed + l.samples_duplicated;
            totals.relay_shed = fold.sheds;
            assert_eq!(totals, trace.metrics, "{cell}: fold totals vs registry");
        },
    );
}

/// Fast default slice of the grid: both scenarios, a smart and a static
/// policy, chaos off, sample loss and the two data-plane profiles. The
/// exhaustive grid lives in the `#[ignore]`d test below (CI runs it with
/// `--ignored`).
#[test]
fn replay_reproduces_live_accounting_representative_cells() {
    let cell = |scenario, policy, chaos: &str| {
        let faults = match chaos {
            "off" => FaultProfile::none(),
            name => profile(name),
        };
        (scenario, policy, chaos.to_string(), faults)
    };
    verify_cells(vec![
        cell(
            ScenarioKind::Scenario1,
            PolicyKind::SmartAlloc { p: 2.0 },
            "off",
        ),
        cell(ScenarioKind::Scenario1, PolicyKind::Greedy, "sample-loss"),
        cell(
            ScenarioKind::Scenario2,
            PolicyKind::StaticAlloc,
            "sample-loss",
        ),
        cell(ScenarioKind::Scenario1, PolicyKind::Greedy, "bitrot"),
        cell(
            ScenarioKind::Scenario2,
            PolicyKind::SmartAlloc { p: 2.0 },
            "backend-brownout",
        ),
    ]);
}

/// Scenarios 1–2 × the chaos grid's four managed policies × its chaos
/// axis (fault-free plus every shipped profile), read from
/// `scenarios/chaos-grid.toml`: replaying the event stream must reproduce
/// the final per-VM occupancy, the admission counters and the fault
/// ledger exactly, in every one of the 48 cells. Part of the slow suite
/// (`cargo test -- --ignored`).
#[test]
#[ignore = "exhaustive 48-cell grid; CI runs it via --ignored"]
fn replay_reproduces_live_accounting_across_the_grid() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/chaos-grid.toml");
    let grid = load_manifest(&path).unwrap();
    let dir = path.parent().expect("the manifest has a directory");
    let chaos: Vec<(String, FaultProfile)> = grid
        .chaos
        .iter()
        .map(|entry| match resolve_chaos(entry, dir).unwrap() {
            Some(p) => (p.name, p.profile),
            None => (entry.clone(), FaultProfile::none()),
        })
        .collect();
    assert_eq!(chaos.len(), 1 + shipped_profiles().len(), "{chaos:?}");
    let mut cells = Vec::new();
    for scenario in [ScenarioKind::Scenario1, ScenarioKind::Scenario2] {
        for &policy in &grid.policies {
            for (name, faults) in &chaos {
                cells.push((scenario, policy, name.clone(), faults.clone()));
            }
        }
    }
    assert_eq!(cells.len(), 48);
    verify_cells(cells);
}

/// Run one traced cell, remove the first event `pick` matches, and return
/// the replay's mismatches.
fn tampered(
    scenario: ScenarioKind,
    policy: PolicyKind,
    faults: FaultProfile,
    pick: impl Fn(&Payload) -> bool,
) -> Vec<String> {
    let mut r = run_scenario(scenario, policy, &traced_cfg(faults));
    let events = &mut r.trace.as_mut().expect("trace was configured").events;
    let at = events
        .iter()
        .position(|e| pick(&e.payload))
        .expect("the cell emits the event to remove");
    events.remove(at);
    trace_check::verify(&r)
        .expect("the tampered trace is still replayable")
        .mismatches
}

fn assert_names(mismatches: &[String], what: &str) {
    assert!(
        mismatches.iter().any(|m| m.starts_with(what)),
        "no `{what}…` mismatch among:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn replay_names_a_removed_put() {
    let m = tampered(
        ScenarioKind::Scenario1,
        PolicyKind::Greedy,
        FaultProfile::none(),
        |p| matches!(p, Payload::Put { result, .. } if result.consumed_frame()),
    );
    assert_names(&m, "final occupancy[");
}

#[test]
fn replay_names_a_removed_sample_drop() {
    let m = tampered(
        ScenarioKind::Scenario2,
        PolicyKind::SmartAlloc { p: 2.0 },
        profile("sample-loss"),
        |p| {
            *p == Payload::Fault {
                kind: FaultKind::SampleDrop,
            }
        },
    );
    assert_names(&m, "fault sample_drop vs observed");
}

#[test]
fn replay_names_a_removed_detection() {
    let m = tampered(
        ScenarioKind::Scenario1,
        PolicyKind::Greedy,
        profile("bitrot"),
        |p| {
            *p == Payload::Fault {
                kind: FaultKind::CorruptDetected,
            }
        },
    );
    assert_names(&m, "ledger.corruptions_detected");
}

/// Replay pairs every `reject_io` put with an injected put failure, from
/// the events alone, beside the guest kernel's own failed-put count.
#[test]
fn replay_names_a_removed_reject_io_put() {
    let m = tampered(
        ScenarioKind::Scenario1,
        PolicyKind::Greedy,
        profile("backend-brownout"),
        |p| {
            matches!(
                p,
                Payload::Put {
                    result: PutResult::RejectIo,
                    ..
                }
            )
        },
    );
    assert_names(&m, "reject_io puts");
}

/// JSONL round-trip: parse(to_jsonl(trace)) returns the same events and
/// header fields, and re-serializing the parsed events is byte-stable.
#[test]
fn jsonl_round_trips_exactly() {
    let cfg = RunConfig {
        time_scale: Some(0.1), // fewer intervals — this test is about bytes
        ..traced_cfg(profile("sample-loss"))
    };
    let r = run_scenario(
        ScenarioKind::Scenario1,
        PolicyKind::SmartAlloc { p: 2.0 },
        &cfg,
    );
    let data = r.trace.as_ref().expect("trace was configured");
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
    };
    let text = data.to_jsonl(&header, None);
    let parsed = TraceData::parse_jsonl(&text).expect("own output must parse");
    assert_eq!(parsed.version, TRACE_SCHEMA_VERSION);
    assert_eq!(parsed.scenario, r.scenario);
    assert_eq!(parsed.policy, r.policy);
    assert_eq!(parsed.seed, cfg.seed);
    assert_eq!(parsed.dropped_oldest, 0);
    assert_eq!(parsed.filter, None);
    assert_eq!(parsed.events, data.events, "events must round-trip exactly");

    let re = TraceData {
        events: parsed.events,
        dropped_oldest: parsed.dropped_oldest,
        metrics: Default::default(), // metrics are not serialized
    };
    assert_eq!(
        re.to_jsonl(&header, None),
        text,
        "serialization must be byte-stable"
    );
}

/// A filtered write keeps only the requested subsystems and stamps the
/// filter into the header, which marks the trace as non-replayable.
#[test]
fn write_filter_restricts_subsystems_and_is_recorded() {
    let cfg = RunConfig {
        time_scale: Some(0.1),
        ..traced_cfg(FaultProfile::none())
    };
    let r = run_scenario(ScenarioKind::Scenario1, PolicyKind::StaticAlloc, &cfg);
    let data = r.trace.as_ref().unwrap();
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
    };
    let text = data.to_jsonl(&header, Some(&[Subsystem::Hypervisor, Subsystem::Mm]));
    let parsed = TraceData::parse_jsonl(&text).unwrap();
    assert_eq!(parsed.filter.as_deref(), Some("hyp,mm"));
    assert!(
        !parsed.events.is_empty(),
        "mm/hyp events must survive the filter"
    );
    assert!(parsed
        .events
        .iter()
        .all(|e| matches!(e.subsystem(), Subsystem::Mm | Subsystem::Hypervisor)));
    assert!(parsed.events.len() < data.events.len());
}

// ---------------------------------------------------------------------------
// Golden pinning
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` to the committed golden, or rewrite the golden when
/// `REGEN_TRACE_GOLDEN=1` (then fail, so a regen run is never green).
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("REGEN_TRACE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        panic!(
            "regenerated {} — rerun without REGEN_TRACE_GOLDEN",
            path.display()
        );
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from the committed golden. If the schema change is \
         deliberate, bump TRACE_SCHEMA_VERSION and regenerate with \
         REGEN_TRACE_GOLDEN=1"
    );
}

/// A synthetic trace with one event of every payload variant (and every
/// enum label), serialized and compared byte-exactly. This is the schema
/// contract: any change to the wire form shows up here first, and a
/// variant or label added to a table without a golden line fails here.
#[test]
fn trace_schema_golden_covers_every_event_kind() {
    assert_eq!(
        TRACE_SCHEMA_VERSION, 1,
        "bump the golden file name with the schema"
    );
    let tracer = Tracer::new(Recorder::new(1024));
    let evs: Vec<(Option<u32>, Payload)> = vec![
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::Stored,
                used: 10,
                target: 100,
            },
        ),
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::Replaced,
                used: 10,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::StoredEvict,
                used: 99,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::RejectTarget,
                used: 100,
                target: 100,
            },
        ),
        (
            Some(2),
            Payload::Put {
                pool: 1,
                result: PutResult::RejectCapacity,
                used: 50,
                target: 100,
            },
        ),
        (Some(1), Payload::Evict { pool: 1 }),
        (
            Some(1),
            Payload::Get {
                pool: 0,
                hit: true,
                freed: true,
            },
        ),
        (
            Some(1),
            Payload::Get {
                pool: 1,
                hit: false,
                freed: false,
            },
        ),
        (Some(1), Payload::Flush { pool: 0, pages: 1 }),
        (Some(1), Payload::PoolDestroy { pool: 0, pages: 7 }),
        (Some(3), Payload::Reclaim { pool: 2, pages: 4 }),
        (
            None,
            Payload::TargetsApplied {
                seq: 5,
                entries: 3,
                applied: true,
            },
        ),
        (
            None,
            Payload::TargetsApplied {
                seq: 4,
                entries: 3,
                applied: false,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 6,
                fate: SampleFate::Deliver,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 7,
                fate: SampleFate::Drop,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 8,
                fate: SampleFate::Delay,
            },
        ),
        (
            None,
            Payload::VirqSample {
                seq: 9,
                fate: SampleFate::Duplicate,
            },
        ),
        (
            None,
            Payload::IntervalClose {
                seq: 6,
                stale: false,
                ok: true,
            },
        ),
        (
            None,
            Payload::IntervalClose {
                seq: 7,
                stale: true,
                ok: false,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 6,
                fate: NetlinkFate::Deliver,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 7,
                fate: NetlinkFate::Drop,
            },
        ),
        (
            None,
            Payload::NetlinkStats {
                seq: 8,
                fate: NetlinkFate::Reorder,
            },
        ),
        (None, Payload::RelayEnqueue { seq: 6, depth: 2 }),
        (None, Payload::RelayShed { seq: 5 }),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 1,
                outcome: PushOutcome::Landed,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 2,
                outcome: PushOutcome::Parked,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 3,
                outcome: PushOutcome::Superseded,
            },
        ),
        (
            None,
            Payload::RelayPush {
                seq: 5,
                attempt: 4,
                outcome: PushOutcome::Abandoned,
            },
        ),
        (
            None,
            Payload::MmDecision {
                seq_in: 6,
                push_seq: 5,
                sent: true,
                warming: false,
                targets: vec![(1, 100), (2, 200), (3, 0)],
                rescale: Some((300, 250)),
            },
        ),
        (
            None,
            Payload::MmDecision {
                seq_in: 7,
                push_seq: 0,
                sent: false,
                warming: true,
                targets: vec![],
                rescale: None,
            },
        ),
        (None, Payload::MmDiscard { seq_in: 6 }),
        (None, Payload::MmCrash { cycle: 9 }),
        (None, Payload::MmRestart),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDrop,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDelay,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::SampleDuplicate,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::NetlinkDrop,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::NetlinkReorder,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::HypercallFail,
            },
        ),
        (
            None,
            Payload::Fault {
                kind: FaultKind::MmCrash,
            },
        ),
        (
            Some(1),
            Payload::PoolCreate {
                pool: 0,
                ephemeral: false,
            },
        ),
        (
            Some(1),
            Payload::PoolCreate {
                pool: 3,
                ephemeral: true,
            },
        ),
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::StoredFar,
                used: 100,
                target: 100,
            },
        ),
        (Some(1), Payload::FarGet { pool: 0 }),
        (Some(1), Payload::FarFlush { pool: 0, pages: 3 }),
        (
            Some(2),
            Payload::MigrateOut {
                pages: 40,
                far: 5,
                purged: 1,
                ram: 2048,
            },
        ),
        (
            Some(2),
            Payload::MigrateIn {
                pages: 38,
                far: 5,
                spilled: 2,
            },
        ),
        (
            Some(2),
            Payload::MigrateDone {
                downtime: 5_702_400,
            },
        ),
        (
            Some(1),
            Payload::Put {
                pool: 0,
                result: PutResult::RejectIo,
                used: 10,
                target: 100,
            },
        ),
        (Some(2), Payload::DataPurge { pool: 1, pages: 3 }),
        (
            None,
            Payload::Scrub {
                checked: 64,
                corrupt: 2,
                quarantined: 1,
            },
        ),
    ];
    // The data-plane fault kinds, in declaration order after the
    // control-plane ones above.
    let evs = evs.into_iter().chain(
        [
            FaultKind::PageBitflip,
            FaultKind::TornWrite,
            FaultKind::EphemeralLoss,
            FaultKind::PutIoFail,
            FaultKind::BrownoutReject,
            FaultKind::BrownoutTick,
            FaultKind::CorruptDetected,
            FaultKind::CorruptRecovered,
        ]
        .map(|kind| (Some(1), Payload::Fault { kind })),
    );
    for (i, (vm, payload)) in evs.enumerate() {
        tracer.set_now(SimTime(i as u64 * 1_000));
        tracer.emit(|| (vm, payload));
    }
    let data = tracer.finish().unwrap();
    let header = TraceHeader {
        scenario: "synthetic".into(),
        policy: "schema-pin".into(),
        seed: 0,
    };
    let text = data.to_jsonl(&header, None);
    assert!(text.starts_with("{\"schema\":\"smartmem-trace\",\"version\":1,"));
    let parsed = TraceData::parse_jsonl(&text).expect("golden trace must parse");
    assert_eq!(
        parsed.events, data.events,
        "the golden round-trips losslessly"
    );
    check_golden("trace_schema_v1.jsonl", &text);

    // Every label of every label table, and every event kind, appears.
    let evs = &parsed.events;
    fn covers<T: PartialEq + std::fmt::Debug>(table: &str, all: &[T], seen: Vec<T>) {
        for v in all {
            assert!(seen.contains(v), "the schema golden has no {table} {v:?}");
        }
    }
    covers(
        "event kind",
        &Payload::LABELS,
        evs.iter().map(|e| e.payload.label()).collect(),
    );
    covers(
        "subsystem",
        &Subsystem::ALL,
        evs.iter().map(|e| e.subsystem()).collect(),
    );
    let payloads = || evs.iter().map(|e| &e.payload);
    covers(
        "put result",
        &PutResult::ALL,
        payloads()
            .filter_map(|p| match p {
                Payload::Put { result, .. } => Some(*result),
                _ => None,
            })
            .collect(),
    );
    covers(
        "push outcome",
        &PushOutcome::ALL,
        payloads()
            .filter_map(|p| match p {
                Payload::RelayPush { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect(),
    );
    covers(
        "fault kind",
        &FaultKind::ALL,
        payloads()
            .filter_map(|p| match p {
                Payload::Fault { kind } => Some(*kind),
                _ => None,
            })
            .collect(),
    );
    covers(
        "sample fate",
        &SampleFate::ALL,
        payloads()
            .filter_map(|p| match p {
                Payload::VirqSample { fate, .. } => Some(*fate),
                _ => None,
            })
            .collect(),
    );
    covers(
        "netlink fate",
        &NetlinkFate::ALL,
        payloads()
            .filter_map(|p| match p {
                Payload::NetlinkStats { fate, .. } => Some(*fate),
                _ => None,
            })
            .collect(),
    );
}

/// One real (small, filtered) run pinned byte-exactly: Scenario 1 under
/// static-alloc with a 10× sampling interval, written with a `hyp,mm`
/// subsystem filter. Pins event ordering and timestamping, not just the
/// per-line shape.
#[test]
fn small_run_jsonl_matches_golden_byte_exactly() {
    let cfg = RunConfig {
        time_scale: Some(0.1),
        ..traced_cfg(FaultProfile::none())
    };
    let r = run_scenario(ScenarioKind::Scenario1, PolicyKind::StaticAlloc, &cfg);
    let data = r.trace.as_ref().unwrap();
    let header = TraceHeader {
        scenario: r.scenario.clone(),
        policy: r.policy.clone(),
        seed: cfg.seed,
    };
    let text = data.to_jsonl(&header, Some(&[Subsystem::Hypervisor, Subsystem::Mm]));
    check_golden("trace_run_s1_static_ts0.1.jsonl", &text);
}
