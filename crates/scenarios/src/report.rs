//! Rendering: aligned ASCII tables and CSV files for every figure, plus
//! the fleet (cluster) report.

use crate::figures::{FigureData, SeriesFigure};
use crate::runner::ClusterResult;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Render a running-time figure as an aligned matrix: rows = (VM, run)
/// bars, columns = policies, cells = `mean±std` seconds.
pub fn render_bars(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", fig.id, fig.title);
    // Collect the union of bar labels, preserving first-seen order.
    let mut labels: Vec<&str> = Vec::new();
    for g in &fig.groups {
        for b in &g.bars {
            if !labels.contains(&b.label.as_str()) {
                labels.push(&b.label);
            }
        }
    }
    let label_w = labels
        .iter()
        .map(|l| l.len())
        .chain(["bar".len()])
        .max()
        .unwrap_or(4);
    let col_w = fig
        .groups
        .iter()
        .map(|g| g.policy.len().max(13))
        .max()
        .unwrap_or(13);
    let _ = write!(out, "{:label_w$}", "bar");
    for g in &fig.groups {
        let _ = write!(out, "  {:>col_w$}", g.policy);
    }
    out.push('\n');
    for label in &labels {
        let _ = write!(out, "{label:label_w$}");
        for g in &fig.groups {
            match g.bars.iter().find(|b| b.label == *label) {
                Some(b) => {
                    let cell = format!("{:.2}±{:.2}", b.mean_s, b.std_s);
                    let _ = write!(out, "  {cell:>col_w$}");
                }
                None => {
                    let _ = write!(out, "  {:>col_w$}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Render an occupancy figure: one panel per policy, one row per sample
/// (downsampled to at most `max_rows`), columns = per-VM used pages (and
/// targets when they differ from the node default).
pub fn render_series(fig: &SeriesFigure, max_rows: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} — {} ==", fig.id, fig.title);
    for (policy, bundle) in &fig.panels {
        let _ = writeln!(out, "--- {policy} ---");
        let n = bundle.used.first().map(|s| s.len()).unwrap_or(0);
        if n == 0 {
            let _ = writeln!(out, "(no samples)");
            continue;
        }
        let stride = (n / max_rows.max(1)).max(1);
        let _ = write!(out, "{:>9}", "t[s]");
        for name in &fig.vm_names {
            let _ = write!(out, "  {:>9}", format!("{name}[pg]"));
        }
        for name in &fig.vm_names {
            let _ = write!(out, "  {:>9}", format!("tgt-{name}"));
        }
        out.push('\n');
        for row in (0..n).step_by(stride) {
            let t = bundle.used[0].points()[row].0.as_secs_f64();
            let _ = write!(out, "{t:>9.2}");
            for s in &bundle.used {
                let _ = write!(out, "  {:>9.0}", s.points()[row].1);
            }
            for s in &bundle.target {
                let _ = write!(out, "  {:>9.0}", s.points()[row].1);
            }
            out.push('\n');
        }
    }
    out
}

/// Write a running-time figure as CSV: `bar,policy,mean_s,std_s,n`.
pub fn write_bars_csv(fig: &FigureData, dir: &Path) -> io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", fig.id));
    let mut body = String::from("bar,policy,mean_s,std_s,n\n");
    for g in &fig.groups {
        for b in &g.bars {
            let _ = writeln!(
                body,
                "{},{},{:.6},{:.6},{}",
                b.label, g.policy, b.mean_s, b.std_s, b.n
            );
        }
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// Write an occupancy figure as CSV: `policy,t_s,vm,used_pages,target_pages`.
pub fn write_series_csv(fig: &SeriesFigure, dir: &Path) -> io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", fig.id));
    let mut body = String::from("policy,t_s,vm,used_pages,target_pages\n");
    for (policy, bundle) in &fig.panels {
        for (vi, name) in fig.vm_names.iter().enumerate() {
            let used = &bundle.used[vi];
            let target = &bundle.target[vi];
            for (k, &(t, u)) in used.points().iter().enumerate() {
                let tgt = target.points().get(k).map(|&(_, v)| v).unwrap_or(0.0);
                let _ = writeln!(
                    body,
                    "{policy},{:.3},{name},{u:.0},{tgt:.0}",
                    t.as_secs_f64()
                );
            }
        }
    }
    fs::write(&path, body)?;
    Ok(path)
}

/// Render a cluster run as an aligned fleet report: one row per host
/// (resident VMs, end-of-run tmem/far occupancy, the migration ledger)
/// followed by the fleet-wide summary line with the stranded-memory and
/// cross-host-traffic figures. Golden-pinned by the cluster test battery.
pub fn render_fleet(c: &ClusterResult) -> String {
    let mut out = String::new();
    let head = &c.host_results[0];
    let _ = writeln!(
        out,
        "== fleet report — {} / {} ({} hosts) ==",
        head.scenario, head.policy, c.fleet.hosts
    );
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>11} {:>10} {:>9} {:>8} {:>11} {:>9} {:>9}",
        "host",
        "vms",
        "tmem_pages",
        "far_pages",
        "migr_out",
        "migr_in",
        "moved_pages",
        "purged",
        "spilled"
    );
    for (h, r) in c.host_results.iter().enumerate() {
        let tmem: u64 = r.final_tmem_used.iter().sum();
        let far: u64 = r.final_far_used.iter().sum();
        let l = &r.faults;
        let _ = writeln!(
            out,
            "{h:>4} {:>4} {tmem:>11} {far:>10} {:>9} {:>8} {:>11} {:>9} {:>9}",
            r.vm_results.len(),
            l.migrations_out,
            l.migrations_in,
            l.migrate_pages,
            l.migrate_purged,
            l.migrate_spilled,
        );
    }
    let f = &c.fleet;
    let _ = writeln!(
        out,
        "fleet: migrations={} downtime={} stranded_page_intervals={}",
        f.migrations, f.migration_downtime, f.stranded_page_intervals
    );
    let _ = writeln!(
        out,
        "cross-host traffic: transfers={} pages={} queue_wait={}",
        f.cross_host_transfers, f.cross_host_pages, f.net_queue_wait
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{BarGroup, BarStat};
    use crate::runner::SeriesBundle;
    use sim_core::metrics::TimeSeries;
    use sim_core::time::SimTime;

    fn fig() -> FigureData {
        FigureData {
            id: "figX".into(),
            title: "test".into(),
            groups: vec![
                BarGroup {
                    policy: "greedy".into(),
                    bars: vec![BarStat {
                        label: "VM1/run1".into(),
                        mean_s: 10.5,
                        std_s: 0.5,
                        n: 5,
                    }],
                },
                BarGroup {
                    policy: "smart-alloc(2%)".into(),
                    bars: vec![BarStat {
                        label: "VM1/run1".into(),
                        mean_s: 8.0,
                        std_s: 0.25,
                        n: 5,
                    }],
                },
            ],
        }
    }

    #[test]
    fn bars_table_contains_all_cells() {
        let s = render_bars(&fig());
        assert!(s.contains("greedy"));
        assert!(s.contains("smart-alloc(2%)"));
        assert!(s.contains("VM1/run1"));
        assert!(s.contains("10.50±0.50"));
        assert!(s.contains("8.00±0.25"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("smartmem-report-test");
        let path = write_bars_csv(&fig(), &dir).unwrap();
        let body = fs::read_to_string(path).unwrap();
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines[0], "bar,policy,mean_s,std_s,n");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("VM1/run1,greedy,10.5"));
    }

    #[test]
    fn series_render_downsamples() {
        let mut used = TimeSeries::new();
        let mut target = TimeSeries::new();
        for t in 0..100 {
            used.push(SimTime::from_secs(t), t as f64);
            target.push(SimTime::from_secs(t), 50.0);
        }
        let f = SeriesFigure {
            id: "figY".into(),
            title: "series".into(),
            panels: vec![(
                "greedy".into(),
                SeriesBundle {
                    used: vec![used],
                    target: vec![target],
                },
            )],
            vm_names: vec!["VM1".into()],
            interval_s: 1.0,
        };
        let s = render_series(&f, 10);
        let rows = s
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert!(rows <= 12, "downsampled, got {rows} rows:\n{s}");
        assert!(s.contains("tgt-VM1"));
    }
}
