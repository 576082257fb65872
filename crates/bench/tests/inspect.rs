//! `smartmem-cli inspect` end to end: a trace written by `trace --out`
//! reads back, summarizes, and passes its injected-vs-observed fault
//! cross-check; a trace with one detection removed fails it, and one
//! whose header declares ring drops is summarized as a tail. `trace`
//! prints the summary `inspect` prints for the file it wrote. A greedy
//! multi-host cell stores pages in its far tier and still replays and
//! inspects clean. `trace` itself refuses `--filter` without `--out` on
//! one host and on a cluster alike, and `run` and `trace` refuse
//! `--scale` on a fleet cell. `run` on a shipped scenario file prints what
//! `run` on its name prints. `--chaos off` is the run without the flag.
//! A closed stdout ends any command quietly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smartmem-cli"))
        .args(args)
        .output()
        .expect("smartmem-cli runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// A trace file in the temp directory, removed on drop.
struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Record `scenario` under `policy` and `chaos` at scale 0.01, seed 42:
/// the written file and `trace`'s stdout.
fn trace(name: &str, scenario: &str, policy: &str, chaos: &str) -> (TempTrace, String) {
    let t = TempTrace(std::env::temp_dir().join(format!(
        "smartmem-inspect-{}-{name}.jsonl",
        std::process::id()
    )));
    let out = t.0.to_str().expect("temp path is UTF-8");
    let o = cli(&[
        "trace", scenario, policy, "--scale", "0.01", "--seed", "42", "--chaos", chaos, "--out",
        out,
    ]);
    let text = stdout(&o);
    assert!(o.status.success(), "trace failed:\n{text}");
    assert!(text.contains("replay: PASS"), "{text}");
    (t, text)
}

/// `inspect` on `path`: exit status and stdout.
fn inspect(path: &Path) -> (bool, String) {
    let o = cli(&["inspect", path.to_str().expect("temp path is UTF-8")]);
    (o.status.success(), stdout(&o))
}

/// The number after `key` on the first line of `text` that holds it.
fn count_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in:\n{text}"))
        + key.len();
    text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no count after {key} in:\n{text}"))
}

/// `trace` and `inspect` print one summary: every line `trace` prints
/// between its events line and its replay verdict appears, in order, in
/// what `inspect` prints for the written file. Its retries are the
/// ledger's: push attempts after the first, less the `superseded` markers,
/// which repeat an old push's attempt count without making a new attempt.
#[test]
fn trace_prints_the_summary_inspect_prints() {
    let (t, traced) = trace("flaky", "scenario1", "smart-alloc:2", "flaky-hypercalls");
    let summary: Vec<&str> = traced
        .lines()
        .skip_while(|l| !l.starts_with("events: "))
        .skip(1)
        .take_while(|l| !l.starts_with("replay: "))
        .collect();
    assert!(
        summary
            .iter()
            .any(|l| l.starts_with("-- per-VM tmem admission")),
        "{traced}"
    );
    let (ok, inspected) = inspect(&t.0);
    assert!(ok, "inspect failed:\n{inspected}");
    let mut rest = inspected.lines();
    for line in &summary {
        assert!(
            rest.any(|l| l == *line),
            "trace's line {line:?} is not in inspect's output, in order:\n{inspected}"
        );
    }

    let file = std::fs::read_to_string(&t.0).unwrap();
    let retries = file
        .lines()
        .filter(|l| l.contains("\"ev\":\"push\""))
        .filter(|l| !l.contains("\"outcome\":\"superseded\""))
        .filter(|l| count_after(l, "\"attempt\":") >= 2)
        .count() as u64;
    assert!(retries > 0, "flaky-hypercalls must retry");
    assert_eq!(count_after(&traced, " hypercall_retries="), retries);
}

#[test]
fn inspect_passes_a_bitrot_trace() {
    let (t, _) = trace("bitrot", "scenario1", "greedy", "bitrot");
    let (ok, text) = inspect(&t.0);
    assert!(ok, "inspect failed:\n{text}");
    assert!(!text.contains("MISMATCH"), "{text}");
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("corruption:"))
        .unwrap_or_else(|| panic!("no data-plane corruption line:\n{text}"));
    // "corruption: injected N (bitflip B + torn T), detected N  OK"
    assert!(
        count_after(line, "injected ") > 0,
        "bitrot must inject: {line}"
    );
    assert_eq!(
        count_after(line, "injected "),
        count_after(line, "detected "),
        "{line}"
    );
    assert!(line.ends_with("OK"), "{line}");
}

#[test]
fn inspect_passes_a_sample_loss_trace() {
    let (t, _) = trace("sample-loss", "scenario2", "smart-alloc:2", "sample-loss");
    let (ok, text) = inspect(&t.0);
    assert!(ok, "inspect failed:\n{text}");
    assert!(!text.contains("MISMATCH"), "{text}");
    let drops = text
        .lines()
        .find(|l| l.trim_start().starts_with("sample_drop"))
        .unwrap_or_else(|| panic!("no sample_drop row:\n{text}"));
    let cols: Vec<&str> = drops.split_whitespace().collect();
    assert_eq!(cols.len(), 4, "kind, injected, observed, verdict: {drops}");
    assert_ne!(cols[1], "0", "sample-loss must drop samples: {drops}");
    assert_eq!(cols[1], cols[2], "{drops}");
    // The relay sheds its oldest message when samples bunch up.
    let file = std::fs::read_to_string(&t.0).unwrap();
    let sheds = file.matches("\"ev\":\"shed\"").count() as u64;
    assert!(sheds > 0, "sample-loss must make the relay shed");
    assert_eq!(count_after(&text, "relay: shed="), sheds, "{text}");
}

#[test]
fn inspect_flags_a_removed_corruption_detection() {
    let (t, _) = trace("bitrot-tampered", "scenario1", "greedy", "bitrot");
    let text = std::fs::read_to_string(&t.0).unwrap();
    let cut = text
        .lines()
        .position(|l| l.contains("\"kind\":\"corrupt_detected\""))
        .expect("bitrot trace has detections");
    let tampered: String = text
        .lines()
        .enumerate()
        .filter(|&(i, _)| i != cut)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    std::fs::write(&t.0, tampered).unwrap();
    let (ok, text) = inspect(&t.0);
    assert!(!ok, "inspect must fail on a missing detection:\n{text}");
    assert!(text.contains("MISMATCH"), "{text}");
}

/// A trace whose ring dropped its oldest events is a tail of the run:
/// `inspect` says its counts cover only the retained events and skips the
/// fault cross-check instead of judging half a stream.
#[test]
fn inspect_summarizes_a_ring_dropped_trace_as_a_tail() {
    let (t, _) = trace("dropped", "scenario1", "greedy", "bitrot");
    let text = std::fs::read_to_string(&t.0).unwrap();
    let events = text.lines().count() - 1;
    let raised = text.replacen("\"dropped\":0}", "\"dropped\":1000}", 1);
    assert_ne!(raised, text, "the header declares no drops:\n{text}");
    std::fs::write(&t.0, raised).unwrap();
    let (ok, out) = inspect(&t.0);
    assert!(ok, "a skipped cross-check fails nothing:\n{out}");
    let partial = format!(
        "the ring dropped the oldest 1000 events, so the counts below cover only the \
         last {events} events"
    );
    assert!(out.contains(&partial), "{out}");
    assert!(
        out.contains("skipped: the ring dropped the run's oldest events"),
        "{out}"
    );
    assert!(!out.contains("verdict"), "no check may run:\n{out}");
}

/// Greedy overfills a host's tmem shard, so on a multi-host cell, whose
/// far tier is a quarter of each shard, some puts land in the far tier
/// and come back through it; both host streams replay and inspect clean.
#[test]
fn a_greedy_cluster_cell_fills_its_far_tier_and_replays() {
    let t = TempTrace(
        std::env::temp_dir().join(format!("smartmem-inspect-{}-far.jsonl", std::process::id())),
    );
    let host1 = TempTrace(PathBuf::from(format!("{}.host1", t.0.display())));
    let o = cli(&[
        "trace",
        "fleet:2x8:16",
        "greedy",
        "--seed",
        "42",
        "--out",
        t.0.to_str().expect("temp path is UTF-8"),
    ]);
    assert!(o.status.success(), "trace failed:\n{}", stdout(&o));
    assert!(stdout(&o).contains("replay: PASS"), "{}", stdout(&o));
    let mut far = (0, 0);
    for path in [&t.0, &host1.0] {
        let text = std::fs::read_to_string(path).unwrap();
        far.0 += text.matches("\"res\":\"stored_far\"").count();
        far.1 += text.matches("\"ev\":\"far_get\"").count();
        let (ok, summary) = inspect(path);
        assert!(ok, "inspect failed on {}:\n{summary}", path.display());
    }
    assert!(far.0 > 0 && far.1 > 0, "far-tier puts and gets: {far:?}");
}

/// `run <file>` and `run <name>` are one experiment: the shipped Table II
/// files and the fleet file print exactly what their names print.
#[test]
fn run_on_a_scenario_file_prints_what_its_name_prints() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    for (file, name, scale) in [
        ("scenario1.toml", "scenario1", Some("0.01")),
        ("scenario2.toml", "scenario2", Some("0.01")),
        ("usemem.toml", "usemem", Some("0.01")),
        ("scenario3.toml", "scenario3", Some("0.01")),
        ("fleet-small.toml", "fleet:8:64", None),
    ] {
        let run = |scenario: &str| {
            let mut args = vec!["run", scenario, "smart-alloc:2", "--seed", "42"];
            args.extend(scale.iter().flat_map(|s| ["--scale", *s]));
            let o = cli(&args);
            assert!(o.status.success(), "run {scenario} failed");
            stdout(&o)
        };
        let by_file = run(&format!("{dir}/{file}"));
        assert!(!by_file.is_empty());
        assert_eq!(by_file, run(name), "{file} vs {name}");
    }
}

#[test]
fn trace_refuses_filter_without_out_on_a_cluster_cell_too() {
    let refused = |scenario: &str| {
        let o = cli(&[
            "trace",
            scenario,
            "smart-alloc:2",
            "--seed",
            "42",
            "--filter",
            "subsys=tmem",
        ]);
        assert!(!o.status.success(), "{scenario} must exit non-zero");
        String::from_utf8_lossy(&o.stderr).into_owned()
    };
    let single = refused("fleet:4:8");
    assert!(single.contains("add --out FILE"), "{single}");
    assert_eq!(refused("fleet:2x4:8"), single, "one guard, one message");
}

#[test]
fn run_and_trace_refuse_scale_on_a_fleet_cell() {
    for args in [
        ["run", "fleet:8:16", "greedy", "--scale", "0.5"],
        ["trace", "fleet:2x4:8", "smart-alloc:2", "--scale", "0.5"],
    ] {
        let o = cli(&args);
        assert!(!o.status.success(), "{args:?} must exit non-zero");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("--scale"), "{args:?}: {err}");
        assert!(err.contains("fleet:<vms>:<mb>"), "{args:?}: {err}");
    }
}

/// A reader that closes stdout before the first write (`| head -0`) ends
/// the run quietly: exit status 0 and nothing on stderr, not a panic.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let o = Command::new(env!("CARGO_BIN_EXE_smartmem-cli"))
        .args(["table2", "--scale", "0.01"])
        .stdout(writer)
        .output()
        .expect("smartmem-cli runs");
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "{:?}: {err}", o.status);
    assert!(err.is_empty(), "{err}");
}

/// `--chaos` takes a manifest's chaos-axis spellings: `off` is the
/// fault-free run, and an unknown name exits 1 listing the shipped
/// profiles.
#[test]
fn chaos_off_is_the_run_without_the_flag() {
    let base = ["run", "fleet:2x8:8", "smart-alloc:2", "--seed", "42"];
    let plain = cli(&base);
    assert!(plain.status.success());
    let off = cli(&[&base[..], &["--chaos", "off"]].concat());
    assert!(
        off.status.success(),
        "{}",
        String::from_utf8_lossy(&off.stderr)
    );
    assert_eq!(stdout(&off), stdout(&plain));
    let unknown = cli(&[&base[..], &["--chaos", "meteor-strike"]].concat());
    assert_eq!(unknown.status.code(), Some(1));
    let err = String::from_utf8_lossy(&unknown.stderr);
    for shipped in [
        "sample-loss",
        "flaky-hypercalls",
        "mm-crash",
        "bitrot",
        "backend-brownout",
    ] {
        assert!(err.contains(shipped), "{shipped} not listed: {err}");
    }
}
