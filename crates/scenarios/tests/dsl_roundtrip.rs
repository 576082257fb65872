//! The declarative DSL: shipped files, strict rejection, sweep expansion.
//!
//! The shipped `scenarios/*.toml` and `scenarios/chaos/*.toml` files are
//! the only definitions of the Table II scenarios and the chaos profiles
//! (`build_scenario` and `shipped_profiles` embed them), so these tests
//! cover what only the files on disk can show: the fleet file routes
//! through the fleet constructor, the manifest parses as written, and
//! every shipped ablation manifest and the chaos grid resolve. The
//! rejection table pins the parser's strictness: malformed input fails
//! with a line- and field-anchored error, never a panic and never a
//! silently-defaulted value. A property test pins manifest expansion as
//! the exact permutation matrix.

use proptest::prelude::*;
use scenarios::batch;
use scenarios::config::RunConfig;
use scenarios::dsl::{
    expand_cells, load_manifest, load_scenario, parse_chaos_src, parse_manifest_src,
    parse_scenario_src, CellId,
};
use scenarios::spec::{build_scenario, Arrival, FleetParams, ScenarioKind, WorkloadMix};
use scenarios::PolicyKind;
use std::path::PathBuf;

/// The repo's shipped scenario directory.
fn shipped_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn cfg(scale: f64) -> RunConfig {
    RunConfig {
        scale,
        ..RunConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Shipped files on disk.
// ---------------------------------------------------------------------------

#[test]
fn shipped_fleet_scenario_equals_constructor_spec() {
    let cfg = cfg(0.125);
    let doc = load_scenario(&shipped_dir().join("fleet-small.toml"), &cfg).unwrap();
    let kind = ScenarioKind::Scenario5(FleetParams {
        vms: 8,
        footprint_mb: 64,
        mix: WorkloadMix::Balanced,
        arrival: Arrival::Staggered { gap_ms: 250 },
    });
    // [fleet] files route through the fleet constructor.
    assert_eq!(doc.spec, build_scenario(kind, &cfg));
}

#[test]
fn shipped_manifest_parses_to_the_expected_axes() {
    let m = load_manifest(&shipped_dir().join("sweep-smoke.toml")).unwrap();
    assert_eq!(m.name, "smoke");
    assert_eq!(m.scenarios, ["scenario1.toml", "usemem"]);
    assert_eq!(
        m.policies,
        [PolicyKind::Greedy, PolicyKind::SmartAlloc { p: 2.0 }]
    );
    assert_eq!(m.chaos, ["none", "chaos/sample-loss.toml"]);
    assert_eq!((m.reps, m.seed, m.scale), (1, 42, 0.125));
}

#[test]
fn shipped_ablation_manifests_parse_and_resolve() {
    let dir = shipped_dir().join("ablations");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "one manifest per ablation: {names:?}");
    names.push(shipped_dir().join("chaos-grid.toml"));
    for path in names {
        let plan = batch::load_plan(&path, 1).unwrap_or_else(|e| panic!("{e}"));
        assert!(!plan.cells().is_empty(), "{}", path.display());
    }
}

// ---------------------------------------------------------------------------
// Rejection table: malformed input fails with anchored errors, no panics.
// ---------------------------------------------------------------------------

const VALID_SCENARIO: &str = r#"
version = 1

[scenario]
name = "t"
tmem = "64MiB"

[[vm]]
ram = "32MiB"
program = ["run inmem 8MiB"]
"#;

#[test]
fn scenario_rejection_table() {
    // (mutation of a valid file, substring the error must carry)
    let cases: &[(&str, &str, &str)] = &[
        ("version = 1", "version = 3", "unsupported format version 3"),
        ("version = 1", "", "version"),
        (
            "name = \"t\"",
            "name = \"t\"\nbogus = 1",
            "unknown field 'bogus'",
        ),
        ("tmem = \"64MiB\"", "tmem = \"64QiB\"", "cannot parse size"),
        (
            "ram = \"32MiB\"",
            "ram = \"32MiB\"\ncount = 0",
            "count: must be at least 1",
        ),
        (
            "program = [\"run inmem 8MiB\"]",
            "program = [\"run warp 8MiB\"]",
            "cannot parse program step",
        ),
        (
            "program = [\"run inmem 8MiB\"]",
            "program = []",
            "program is empty",
        ),
        (
            "program = [\"run inmem 8MiB\"]",
            "program = [\"run inmem 8MiB\"]\nstart_on = [\"vm9 block 1\"]",
            "references vm9",
        ),
        (
            "program = [\"run inmem 8MiB\"]",
            "program = [\"run inmem 8MiB\"]\nstart_on = [\"vm1 block 2\"]",
            "runs no usemem",
        ),
        (
            "[[vm]]",
            "[[vm]]\n[mystery]\nx = 1\n\n[[vm]]",
            "unknown table [mystery]",
        ),
        ("ram = \"32MiB\"", "ram = 32", "expected a string"),
    ];
    for (from, to, want) in cases {
        let src = VALID_SCENARIO.replacen(from, to, 1);
        assert_ne!(&src, VALID_SCENARIO, "mutation '{to}' did not apply");
        let err = parse_scenario_src(&src, &cfg(1.0))
            .expect_err(&format!("mutation '{to}' should be rejected"));
        assert!(
            err.contains(want),
            "error for '{to}' should mention '{want}', got: {err}"
        );
        assert!(
            err.contains("line "),
            "error for '{to}' should be line-anchored, got: {err}"
        );
    }
}

#[test]
fn fleet_and_chaos_rejection_table() {
    let fleet = "version = 1\n\n[fleet]\nvms = 8\n";
    for (src, want) in [
        (
            fleet.replace("vms = 8", "vms = 0"),
            "a fleet needs at least 1 VM",
        ),
        (
            fleet.replace("vms = 8", "vms = 4\nmix = \"chaotic\""),
            "unknown workload mix 'chaotic'",
        ),
        (
            fleet.replace("vms = 8", "vms = 4\n\n[scenario]\nname = \"x\""),
            "not both",
        ),
        (
            "version = 1\n\n[chaos]\nname = \"x\"\nvirq_drop = 1.5\n".to_string(),
            "outside [0, 1]",
        ),
        (
            "version = 1\n\n[chaos]\nname = \"x\"\nwarp_factor = 0.5\n".to_string(),
            "unknown field 'warp_factor'",
        ),
        // Data-plane probabilities go through the same [0, 1] gate…
        (
            "version = 1\n\n[chaos]\nname = \"x\"\npage_bitflip = 1.5\n".to_string(),
            "outside [0, 1]",
        ),
        (
            "version = 1\n\n[chaos]\nname = \"x\"\nput_io_fail = -0.1\n".to_string(),
            "outside [0, 1]",
        ),
        // …and the per-edge budgets are validated as a whole file.
        (
            "version = 1\n\n[chaos]\nname = \"x\"\npage_bitflip = 0.6\ntorn_write = 0.6\n"
                .to_string(),
            "sum to",
        ),
        (
            "version = 1\n\n[chaos]\nname = \"x\"\nbrownout_for = 2\n".to_string(),
            "brownout_for",
        ),
    ] {
        let err = if src.contains("[chaos]") {
            parse_chaos_src(&src).expect_err(&format!("should reject: {src}"))
        } else {
            parse_scenario_src(&src, &cfg(1.0))
                .map(|_| ())
                .expect_err(&format!("should reject: {src}"))
        };
        assert!(
            err.contains(want),
            "error should mention '{want}', got: {err}"
        );
        assert!(
            err.contains("line "),
            "error should be line-anchored: {err}"
        );
    }
}

#[test]
fn manifest_rejection_table() {
    let valid =
        "version = 1\n\n[sweep]\nname = \"s\"\nscenarios = [\"usemem\"]\npolicies = [\"greedy\"]\n";
    // Appending after the policies line puts an overrides entry on line 7.
    let overrides = |axis: &str| format!("policies = [\"greedy\"]\noverrides = {axis}");
    for (from, to, want, line) in [
        (
            "policies = [\"greedy\"]",
            "policies = [\"greedy\", \"greedy\"]".to_string(),
            "duplicate policy 'greedy'",
            6,
        ),
        (
            "policies = [\"greedy\"]",
            "policies = []".to_string(),
            "policy axis is empty",
            6,
        ),
        (
            "scenarios = [\"usemem\"]",
            "scenarios = [\"usemem\", \"scenario9\"]".to_string(),
            "unknown scenario 'scenario9'",
            5,
        ),
        (
            "name = \"s\"",
            "name = \"s\"\nreps = 0".to_string(),
            "must be at least 1",
            5,
        ),
        (
            "name = \"s\"",
            "name = \"s\"\nscale = -2.0".to_string(),
            "positive finite",
            5,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"quantum=2ms\"]"),
            "unknown override key 'quantum'",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"ssd\"]"),
            "not key=value",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"cost=tape\"]"),
            "unknown cost preset 'tape'",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"time_scale=0\"]"),
            "time_scale must be a positive finite number",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"time_scale=-0.5\"]"),
            "time_scale must be a positive finite number",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"reclaim_frac_per_interval=1.5\"]"),
            "reclaim_frac_per_interval must lie in [0, 1]",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"reclaim_frac_per_interval=-0.1\"]"),
            "reclaim_frac_per_interval must lie in [0, 1]",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[\"cost=ssd\", \"time_scale=0.5\", \"cost=ssd\"]"),
            "duplicate override 'cost=ssd'",
            7,
        ),
        (
            "policies = [\"greedy\"]",
            overrides("[]"),
            "overrides axis is empty",
            7,
        ),
    ] {
        let src = valid.replacen(from, &to, 1);
        assert_ne!(src, valid, "mutation '{to}' did not apply");
        let err = parse_manifest_src(&src).expect_err(&format!("should reject: {to}"));
        assert!(
            err.contains(want),
            "error for '{to}' should mention '{want}': {err}"
        );
        assert!(
            err.starts_with(&format!("line {line}:")),
            "error for '{to}' should be anchored at line {line}: {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Manifest expansion is the exact permutation matrix.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The expansion is exactly the sorted permutation matrix: every cell
    /// in range, strictly increasing in `CellId` order (so no duplicates
    /// and a stable deterministic ordering), with cardinality equal to
    /// the product of the axis lengths. Those three facts force the set
    /// to be the full product — no reimplementation of the nested loops
    /// needed as an oracle.
    #[test]
    fn expansion_is_the_permutation_matrix(
        s in 1usize..7,
        p in 1usize..7,
        c in 1usize..5,
        o in 1usize..5,
        r in 1u32..5,
    ) {
        let cells = expand_cells(s, p, c, o, r);
        prop_assert_eq!(cells.len(), s * p * c * o * r as usize);
        prop_assert!(cells.iter().all(|cell| {
            cell.scenario < s && cell.policy < p && cell.chaos < c && cell.over < o && cell.rep < r
        }));
        prop_assert!(
            cells.windows(2).all(|w| w[0] < w[1]),
            "expansion must be strictly increasing (sorted, duplicate-free)"
        );
    }

    /// Shrinking any axis yields the exact subsequence of the bigger
    /// expansion restricted to that axis prefix — cell ordering (and so
    /// journal cell numbering) is stable under axis subsets.
    #[test]
    fn axis_subsets_are_order_stable_subsequences(
        s in 1usize..6,
        p in 1usize..6,
        c in 1usize..4,
        o in 1usize..4,
        r in 2u32..5,
        keep_s in 1usize..6,
        keep_o in 1usize..4,
        keep_r in 1u32..5,
    ) {
        let keep_s = keep_s.min(s);
        let keep_o = keep_o.min(o);
        let keep_r = keep_r.min(r);
        let full = expand_cells(s, p, c, o, r);
        let filtered: Vec<CellId> = full
            .iter()
            .copied()
            .filter(|cell| cell.scenario < keep_s && cell.over < keep_o && cell.rep < keep_r)
            .collect();
        prop_assert_eq!(filtered, expand_cells(keep_s, p, c, keep_o, keep_r));
    }
}
