//! Resume-equivalence suite: the batch driver's acceptance bar.
//!
//! A sweep killed after any number of cells and resumed — at any
//! `--jobs` count — must produce the **byte-identical** report and CSV
//! and the same per-cell result digests as one uninterrupted run. These
//! tests drive a 12-cell matrix (3 scenarios × 2 policies × 2 chaos,
//! mixing built-in names, a scenario `.toml` file and a fleet cell)
//! through `stop_after` kill points at several k, then resume, and
//! compare bytes. The journal-corruption tests tear records mid-write,
//! flip payload bytes and append garbage, and check every damaged record
//! is detected (length/digest), warned about, and simply re-run — while
//! a journal from a *different* sweep, or in the old `SMJ1` format, is
//! refused outright. The records carry each cell's whole fault ledger, so
//! the byte comparisons at jobs 1 and 8 pin the ledgers too. An overrides
//! cell is pinned against a direct run under its configuration, and a
//! multi-host entry — a `fleet:<hosts>x<vms>` name or a scenario file
//! whose `[cluster]` table declares hosts — is refused.

use scenarios::batch::{self, SweepOutcome, JOURNAL_FILE};
use scenarios::config::RunConfig;
use scenarios::runner::run_spec;
use scenarios::{dsl, PolicyKind};
use std::fs;
use std::path::{Path, PathBuf};

const MANIFEST: &str = r#"
version = 1

[sweep]
name = "resume-equivalence"
scenarios = ["usemem", "tiny.toml", "fleet:2:8:balanced:0"]
policies = ["greedy", "smart-alloc:2"]
chaos = ["none", "mm-crash"]
reps = 1
seed = 7
scale = 0.01
"#;

const TINY_SCENARIO: &str = r#"
version = 1

[scenario]
name = "tiny"
tmem = "64MiB"

[[vm]]
count = 2
ram = "32MiB"
program = ["run usemem 8MiB 8MiB 32MiB 2"]
"#;

/// A scratch area holding the manifest, its scenario file, and per-case
/// sweep directories. Unique per test so parallel test threads never
/// collide; removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(test: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("smartmem-sweep-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("sweep.toml"), MANIFEST).unwrap();
        fs::write(root.join("tiny.toml"), TINY_SCENARIO).unwrap();
        Scratch { root }
    }

    fn manifest(&self) -> PathBuf {
        self.root.join("sweep.toml")
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Everything the equivalence checks compare: rendered report, rendered
/// CSV, and the per-cell digests in matrix order.
fn fingerprint(plan: &batch::SweepPlan, out: &SweepOutcome) -> (String, String, Vec<u64>) {
    assert!(out.complete(), "fingerprints are taken of complete sweeps");
    (
        batch::render_report(plan, out),
        batch::render_csv(plan, out),
        out.records.iter().map(|r| r.digest).collect(),
    )
}

fn baseline(scratch: &Scratch) -> (String, String, Vec<u64>) {
    let plan = batch::load_plan(&scratch.manifest(), 1).unwrap();
    let out = batch::run_sweep(&plan, &scratch.dir("baseline"), None).unwrap();
    assert_eq!(out.total, 12, "the test matrix is designed as 12 cells");
    assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    fingerprint(&plan, &out)
}

#[test]
fn killed_and_resumed_sweeps_are_byte_identical_at_any_jobs_count() {
    let scratch = Scratch::new("equivalence");
    let expected = baseline(&scratch);

    // k spans the edges (first cell, almost-done) and the middle; each k
    // runs the interrupted pass and the resume at both jobs 1 and jobs 8.
    for (k, jobs) in [(1, 1), (1, 8), (5, 8), (7, 1), (11, 8), (11, 1)] {
        let plan = batch::load_plan(&scratch.manifest(), jobs).unwrap();
        let dir = scratch.dir(&format!("kill-{k}-jobs-{jobs}"));

        let first = batch::run_sweep(&plan, &dir, Some(k)).unwrap();
        assert!(!first.complete(), "k={k} must leave the sweep unfinished");
        assert_eq!((first.ran, first.resumed), (k, 0));

        let second = batch::run_sweep(&plan, &dir, None).unwrap();
        assert!(second.complete());
        assert_eq!((second.ran, second.resumed), (12 - k, k));
        assert!(second.warnings.is_empty(), "{:?}", second.warnings);

        let got = fingerprint(&plan, &second);
        assert_eq!(
            got, expected,
            "resumed sweep (k={k}, jobs={jobs}) must be byte-identical to uninterrupted"
        );
    }
}

#[test]
fn double_interrupt_then_resume_is_still_identical() {
    let scratch = Scratch::new("double-kill");
    let expected = baseline(&scratch);
    let plan = batch::load_plan(&scratch.manifest(), 2).unwrap();
    let dir = scratch.dir("twice");
    assert_eq!(batch::run_sweep(&plan, &dir, Some(3)).unwrap().ran, 3);
    assert_eq!(batch::run_sweep(&plan, &dir, Some(4)).unwrap().resumed, 3);
    let out = batch::run_sweep(&plan, &dir, None).unwrap();
    assert!(out.complete());
    assert_eq!(out.resumed, 7);
    assert_eq!(fingerprint(&plan, &out), expected);
}

/// Satellite: every way a journal can rot — torn tail record (a kill
/// mid-write), a flipped payload byte, trailing garbage — is detected by
/// the length/digest framing, surfaced as a warning naming the line, and
/// treated as "cell not done"; the resumed sweep still converges to the
/// uninterrupted bytes.
#[test]
fn corrupted_journal_records_are_warned_and_rerun() {
    let scratch = Scratch::new("corruption");
    let expected = baseline(&scratch);
    let plan = batch::load_plan(&scratch.manifest(), 1).unwrap();

    // (name, corruption applied to a 3-cell journal, warning substring)
    type Corruption = Box<dyn Fn(&Path)>;
    let cases: Vec<(&str, Corruption, &str)> = vec![
        (
            "torn-tail",
            Box::new(|j: &Path| {
                // Chop mid-record: a process killed inside write(2).
                let bytes = fs::read(j).unwrap();
                fs::write(j, &bytes[..bytes.len() - 21]).unwrap();
            }),
            "treating its cell as not done",
        ),
        (
            "flipped-byte",
            Box::new(|j: &Path| {
                let text = fs::read_to_string(j).unwrap();
                // Damage the *last* record's payload tail (ledger digits);
                // framing must catch it even though the line parses.
                let flipped = {
                    let mut lines: Vec<String> = text.lines().map(String::from).collect();
                    let last = lines.last_mut().unwrap();
                    let swapped: String = last
                        .chars()
                        .rev()
                        .enumerate()
                        .map(|(i, c)| if i == 1 { '9' } else { c })
                        .collect();
                    *last = swapped.chars().rev().collect();
                    lines.join("\n") + "\n"
                };
                assert_ne!(flipped, text, "corruption must change the journal");
                fs::write(j, flipped).unwrap();
            }),
            "digest mismatch",
        ),
        (
            "trailing-garbage",
            Box::new(|j: &Path| {
                let mut bytes = fs::read(j).unwrap();
                bytes.extend_from_slice(b"SMJ2 oops not-a-record\n");
                fs::write(j, bytes).unwrap();
            }),
            "treating its cell as not done",
        ),
    ];

    for (name, corrupt, want) in cases {
        let dir = scratch.dir(name);
        let first = batch::run_sweep(&plan, &dir, Some(3)).unwrap();
        assert_eq!(first.ran, 3);
        corrupt(&dir.join(JOURNAL_FILE));

        let out = batch::run_sweep(&plan, &dir, None).unwrap();
        assert!(out.complete(), "{name}: sweep must still finish");
        assert!(
            out.warnings.iter().any(|w| w.contains(want)),
            "{name}: expected a warning containing '{want}', got {:?}",
            out.warnings
        );
        assert!(
            out.warnings.iter().all(|w| w.contains("journal line ")),
            "{name}: warnings must name the journal line: {:?}",
            out.warnings
        );
        assert_eq!(
            fingerprint(&plan, &out),
            expected,
            "{name}: corruption recovery must not change the final bytes"
        );
    }
}

#[test]
fn truncation_inside_the_header_restarts_the_journal() {
    let scratch = Scratch::new("torn-header");
    let plan = batch::load_plan(&scratch.manifest(), 1).unwrap();
    let dir = scratch.dir("sweep");
    batch::run_sweep(&plan, &dir, Some(2)).unwrap();
    // Keep only half of the *first* line: even the header record can tear.
    let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    let first_line_len = text.lines().next().unwrap().len();
    fs::write(dir.join(JOURNAL_FILE), &text[..first_line_len / 2]).unwrap();

    let out = batch::run_sweep(&plan, &dir, Some(1)).unwrap();
    assert_eq!(
        out.resumed, 0,
        "a torn header invalidates the whole journal (cells cannot be trusted \
         without the sweep identity)"
    );
    assert!(!out.warnings.is_empty());
}

#[test]
fn journal_from_a_different_sweep_is_refused() {
    let scratch = Scratch::new("foreign");
    let plan = batch::load_plan(&scratch.manifest(), 1).unwrap();
    let dir = scratch.dir("sweep");
    batch::run_sweep(&plan, &dir, Some(1)).unwrap();

    // Same axes, different seed: a different experiment. Mixing its cells
    // into this journal would silently corrupt results, so it must error
    // rather than warn.
    fs::write(
        scratch.root.join("other.toml"),
        MANIFEST.replace("seed = 7", "seed = 8"),
    )
    .unwrap();
    let other = batch::load_plan(&scratch.root.join("other.toml"), 1).unwrap();
    let err = batch::run_sweep(&other, &dir, None).unwrap_err();
    assert!(
        err.contains("different sweep"),
        "foreign journal must be refused, got: {err}"
    );

    // Editing a referenced scenario file changes the identity too.
    fs::write(
        scratch.root.join("tiny.toml"),
        TINY_SCENARIO.replace("64MiB", "32MiB"),
    )
    .unwrap();
    let edited = batch::load_plan(&scratch.manifest(), 1).unwrap();
    let err = batch::run_sweep(&edited, &dir, None).unwrap_err();
    assert!(err.contains("different sweep"), "{err}");
}

/// A journal of the old `SMJ1` format, whose cells were seeded from their
/// whole label, is refused with the format named rather than resumed with
/// mixed seeds, and the file is left as it was.
#[test]
fn an_smj1_journal_is_refused() {
    let scratch = Scratch::new("smj1");
    let plan = batch::load_plan(&scratch.manifest(), 1).unwrap();
    let frame = |payload: &str| {
        format!(
            "SMJ1 {} {:016x} {payload}\n",
            payload.len(),
            batch::fnv1a(payload.as_bytes())
        )
    };
    // The header an `SMJ1` sweep of this plan wrote, and one of its cells.
    let journal = frame(&format!(
        "header\t{}\t{:016x}\t12\t{}\t{:016x}",
        plan.manifest.name,
        plan.digest,
        plan.manifest.seed,
        plan.manifest.scale.to_bits()
    )) + &frame(
        "cell\t0\tusemem\tgreedy\tbaseline\t0\t0123456789abcdef\t1\t2\t3\t4\t5\t6\t0\t0\t7,8,9",
    );
    let dir = scratch.dir("sweep");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(JOURNAL_FILE), &journal).unwrap();

    let err = batch::run_sweep(&plan, &dir, None).unwrap_err();
    assert!(
        err.contains("SMJ1") && err.contains("fresh --resume directory"),
        "{err}"
    );
    assert_eq!(fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap(), journal);
    assert!(!dir.join(batch::REPORT_FILE).exists());
}

/// A scenario whose build depends on the time scale: VM2's start delay
/// and sleep are scaled by it.
const STAGGERED_SCENARIO: &str = r#"
version = 1

[scenario]
name = "staggered"
tmem = "64MiB"

[[vm]]
ram = "32MiB"
program = ["run usemem 8MiB 8MiB 32MiB 2"]

[[vm]]
ram = "32MiB"
start = "2s"
program = ["sleep 1s", "run usemem 8MiB 8MiB 32MiB 2"]
"#;

/// An overrides cell is `run_spec` under the base configuration with that
/// one field set — scenario build included — and the figure grid's seed
/// for its rep.
#[test]
fn an_override_cell_equals_a_direct_run_under_its_config() {
    let scratch = Scratch::new("override");
    fs::write(scratch.root.join("staggered.toml"), STAGGERED_SCENARIO).unwrap();
    fs::write(
        scratch.root.join("over.toml"),
        "version = 1\n[sweep]\nname = \"over\"\nscenarios = [\"staggered.toml\"]\n\
         policies = [\"greedy\"]\noverrides = [\"cost=ssd\", \"time_scale=0.5\"]\n\
         seed = 7\nscale = 0.01\n",
    )
    .unwrap();
    let plan = batch::load_plan(&scratch.root.join("over.toml"), 1).unwrap();
    let out = batch::run_sweep(&plan, &scratch.dir("sweep"), None).unwrap();
    assert_eq!(out.total, 2);
    let rec = &out.records[1];
    assert_eq!(rec.over, "time_scale=0.5");

    let cfg = RunConfig {
        scale: 0.01,
        time_scale: Some(0.5),
        seed: 7,
        ..RunConfig::default()
    }
    .for_rep(0);
    let run = |build: &RunConfig| {
        let spec = dsl::parse_scenario_src(STAGGERED_SCENARIO, build)
            .unwrap()
            .spec;
        batch::result_digest(&run_spec(spec, PolicyKind::Greedy, &cfg))
    };
    assert_eq!(rec.digest, run(&cfg));
    let base_build = RunConfig {
        time_scale: None,
        ..cfg.clone()
    };
    assert_ne!(
        rec.digest,
        run(&base_build),
        "the override must reach the scenario build, not only the run"
    );
}

/// A journal record holds one host's result, so a sweep cell runs on one
/// host. A scenario file whose `[cluster]` table declares two hosts and a
/// `fleet:2x8:8` name are refused with one message that names the entry
/// and points at `run`.
#[test]
fn a_cluster_scenario_file_is_refused() {
    let scratch = Scratch::new("cluster");
    fs::write(
        scratch.root.join("pair.toml"),
        "version = 1\n[fleet]\nvms = 8\nfootprint_mb = 8\n\n[cluster]\nhosts = 2\nmigration = true\n",
    )
    .unwrap();
    let refusal = |entry: &str| {
        let path = scratch.root.join("clustered.toml");
        fs::write(
            &path,
            format!(
                "version = 1\n[sweep]\nname = \"clustered\"\nscenarios = [\"{entry}\"]\n\
                 policies = [\"smart-alloc:2\"]\nscale = 0.125\n"
            ),
        )
        .unwrap();
        let err = batch::load_plan(&path, 1).unwrap_err();
        assert!(err.contains(&format!("'{entry}'")), "{err}");
        err.replace(entry, "<entry>")
    };
    let file = refusal("pair.toml");
    assert!(file.contains("with `smartmem-cli run`"), "{file}");
    assert_eq!(
        refusal("fleet:2x8:8"),
        file,
        "one refusal for every multi-host cell"
    );
}
