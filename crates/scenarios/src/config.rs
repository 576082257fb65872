//! Run configuration.

use serde::{Deserialize, Serialize};
use sim_core::cost::CostModel;
use sim_core::faults::FaultProfile;
use sim_core::rng::SplitMix64;
use sim_core::time::SimDuration;
use sim_core::trace::TraceConfig;

/// Knobs for one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Memory scale relative to the paper's sizes (1.0 = 1 GB VMs etc.).
    /// Benches default to 0.125 to bound wall-clock time; tests go smaller.
    pub scale: f64,
    /// Time scale for the sampling interval, sleeps and staggered starts.
    /// `None` (default) tracks `scale`, which keeps policy dynamics
    /// scale-invariant (see crate docs).
    pub time_scale: Option<f64>,
    /// Root seed; repetitions and VMs derive children from it.
    pub seed: u64,
    /// Latency model (default: the paper's HDD testbed).
    pub cost: CostModel,
    /// Compute quantum per VM execution step.
    pub quantum: SimDuration,
    /// Fraction of the node's tmem the hypervisor may slow-reclaim from
    /// each over-target VM per sampling interval (paper §III-B: "the
    /// hypervisor can reclaim tmem pages from a VM very slowly").
    pub reclaim_frac_per_interval: f64,
    /// Record per-interval occupancy/target time-series (Figs. 4/6/8/10).
    pub record_series: bool,
    /// Hard safety cutoff on simulated time; a run hitting it is a bug.
    pub max_sim_time: SimDuration,
    /// Worker threads for experiment grids (scenario × policy × rep).
    /// Engine-only knob: it can change wall-clock time, never a result —
    /// grids are collected in deterministic order (see [`crate::par`]).
    /// Library default is 1 (serial); the CLI defaults it to the available
    /// cores. A multi-host run's hosts advance on workers of their own
    /// (one per host, capped at the cores available, see
    /// [`crate::runner::run_cluster`]), which do not read `jobs`.
    pub jobs: usize,
    /// Control-plane fault injection profile. Default: fully disabled —
    /// a disabled profile leaves every run byte-identical to a build
    /// without the fault layer (pinned by the determinism suite).
    pub faults: FaultProfile,
    /// Flight-recorder configuration. `None` (default) disables tracing
    /// entirely: no recorder is allocated and every emit site is a single
    /// branch, so untraced runs stay byte-identical to a build without the
    /// recorder (pinned by the determinism suite).
    pub trace: Option<TraceConfig>,
}

impl RunConfig {
    /// Effective time scale.
    pub fn time_scale(&self) -> f64 {
        self.time_scale.unwrap_or(self.scale)
    }

    /// Effective sampling interval (the paper's 1 s, time-scaled).
    pub fn sampling_interval(&self) -> SimDuration {
        SimDuration::from_nanos(
            ((1e9 * self.time_scale()).round() as u64).max(1_000_000), // floor 1 ms
        )
    }

    /// Scale a byte size by the memory scale, rounding to whole pages.
    pub fn scale_bytes(&self, bytes: u64) -> u64 {
        let scaled = (bytes as f64 * self.scale) as u64;
        (scaled / 4096).max(4) * 4096
    }

    /// Scale a duration by the time scale.
    pub fn scale_time(&self, d: SimDuration) -> SimDuration {
        d.scale(self.time_scale())
    }

    /// This configuration for repetition `rep` of a grid cell: the seed
    /// becomes `SplitMix64::new(seed).derive("rep{rep}")`, shared by every
    /// figure and sweep cell of the rep. Cells that differ only in fault
    /// profile or override are fully paired. Cells that differ in policy
    /// are not paired on workload data: the runner seeds each workload run
    /// from a label that names the policy, so their rating sets, graphs
    /// and request streams differ (usemem draws nothing).
    pub fn for_rep(&self, rep: u64) -> RunConfig {
        RunConfig {
            seed: SplitMix64::new(self.seed)
                .derive(&format!("rep{rep}"))
                .next(),
            ..self.clone()
        }
    }

    /// Validate the configuration, returning an actionable message on the
    /// first violation. The CLI calls this on every user-supplied config
    /// before running anything.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!(
                "scale must be a positive finite number, got {}",
                self.scale
            ));
        }
        if let Some(ts) = self.time_scale {
            if !(ts.is_finite() && ts > 0.0) {
                return Err(format!(
                    "time_scale must be a positive finite number, got {ts}"
                ));
            }
        }
        if self.jobs == 0 {
            return Err("jobs must be >= 1 (0 worker threads can run nothing)".into());
        }
        if self.quantum <= SimDuration::ZERO {
            return Err("quantum must be a positive duration".into());
        }
        if !(0.0..=1.0).contains(&self.reclaim_frac_per_interval)
            || self.reclaim_frac_per_interval.is_nan()
        {
            return Err(format!(
                "reclaim_frac_per_interval must lie in [0, 1], got {}",
                self.reclaim_frac_per_interval
            ));
        }
        if self.max_sim_time <= SimDuration::ZERO {
            return Err("max_sim_time must be a positive duration".into());
        }
        self.faults
            .validate()
            .map_err(|e| format!("invalid fault profile: {e}"))?;
        if let Some(trace) = &self.trace {
            if trace.capacity == 0 {
                return Err("trace.capacity must be >= 1 event (0 can record nothing)".into());
            }
        }
        Ok(())
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.125,
            time_scale: None,
            seed: 42,
            cost: CostModel::hdd(),
            quantum: SimDuration::from_millis(1),
            reclaim_frac_per_interval: 0.02,
            record_series: false,
            max_sim_time: SimDuration::from_secs(20_000),
            jobs: 1,
            faults: FaultProfile::none(),
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scale_tracks_memory_scale_by_default() {
        let cfg = RunConfig {
            scale: 0.25,
            ..RunConfig::default()
        };
        assert_eq!(cfg.time_scale(), 0.25);
        assert_eq!(cfg.sampling_interval(), SimDuration::from_millis(250));
        let explicit = RunConfig {
            scale: 0.25,
            time_scale: Some(1.0),
            ..RunConfig::default()
        };
        assert_eq!(explicit.sampling_interval(), SimDuration::from_secs(1));
    }

    #[test]
    fn scale_bytes_rounds_to_pages_with_floor() {
        let cfg = RunConfig {
            scale: 0.1,
            ..RunConfig::default()
        };
        assert_eq!(cfg.scale_bytes(1 << 30) % 4096, 0);
        assert_eq!(cfg.scale_bytes(0), 4 * 4096, "floor of 4 pages");
    }

    #[test]
    fn sampling_interval_has_a_floor() {
        let cfg = RunConfig {
            scale: 1e-9,
            ..RunConfig::default()
        };
        assert_eq!(cfg.sampling_interval(), SimDuration::from_millis(1));
    }

    #[test]
    fn validate_accepts_default_and_rejects_bad_knobs() {
        assert!(RunConfig::default().validate().is_ok());
        let bad = |f: fn(&mut RunConfig)| {
            let mut c = RunConfig::default();
            f(&mut c);
            c.validate().unwrap_err()
        };
        assert!(bad(|c| c.scale = 0.0).contains("scale"));
        assert!(bad(|c| c.scale = f64::NAN).contains("scale"));
        assert!(bad(|c| c.time_scale = Some(-1.0)).contains("time_scale"));
        assert!(bad(|c| c.jobs = 0).contains("jobs"));
        assert!(bad(|c| c.quantum = SimDuration::ZERO).contains("quantum"));
        assert!(bad(|c| c.reclaim_frac_per_interval = 2.0).contains("reclaim"));
        assert!(bad(|c| c.max_sim_time = SimDuration::ZERO).contains("max_sim_time"));
        assert!(bad(|c| c.faults.virq_drop = 7.0).contains("fault"));
        assert!(bad(|c| c.trace = Some(TraceConfig { capacity: 0 })).contains("trace"));
    }
}
