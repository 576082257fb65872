//! CPU contention model.
//!
//! The paper's testbed exposes two physical cores to Xen while three
//! single-vCPU guests (plus dom0) run. When more vCPUs are runnable than
//! cores exist, Xen's credit scheduler time-slices them, so each guest's
//! compute stretches by roughly `runnable / cores`. That first-order
//! approximation is what this model applies to the compute component of a
//! quantum (I/O wait time is never dilated — a vCPU blocked on the disk
//! holds no core).

/// Physical cores available to guest vCPUs: the paper's VirtualBox
/// environment has two.
const CORES: u32 = 2;

/// Dilation factor for compute time when `runnable_vcpus` vCPUs are
/// runnable: 1.0 while undersubscribed, `runnable / cores` beyond.
pub fn dilation(runnable_vcpus: u32) -> f64 {
    if runnable_vcpus <= CORES {
        1.0
    } else {
        f64::from(runnable_vcpus) / f64::from(CORES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersubscribed_runs_at_full_speed() {
        assert_eq!(dilation(0), 1.0);
        assert_eq!(dilation(1), 1.0);
        assert_eq!(dilation(2), 1.0);
    }

    #[test]
    fn oversubscription_dilates_proportionally() {
        assert_eq!(dilation(3), 1.5);
        assert_eq!(dilation(4), 2.0);
    }

    #[test]
    fn default_matches_paper_testbed() {
        // Two cores: a third runnable vCPU is the first to stretch compute.
        assert_eq!(dilation(2), 1.0);
        assert!(dilation(3) > 1.0);
    }
}
