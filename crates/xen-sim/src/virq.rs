//! The sampling VIRQ's sample channel.
//!
//! Paper §III-B: "The hypervisor gathers and monitors all the memory
//! utilization behavior and sends it to the TKM in the privileged domain via
//! a virtual interrupt request (VIRQ). This VIRQ is sent to the TKM every
//! second." The runner schedules that interrupt every
//! `RunConfig::sampling_interval` and calls [`crate::Hypervisor::sample`]
//! when it fires; [`SampleChannel`] carries each snapshot from there to the
//! privileged domain.

use sim_core::faults::SampleFate;
use tmem::stats::StatsMsg;

/// The VIRQ → dom0 sample channel, with fault-fate application.
///
/// The hypervisor's per-interval snapshot crosses this channel on its way
/// to the privileged domain. Under fault injection a sample can be dropped,
/// held back one interval (delivered late, behind the next sample — i.e.
/// reordered), or duplicated. The channel owns the one-slot delay buffer;
/// the *decision* comes from the hypervisor's `FaultInjector`, so this
/// stays deterministic and decision-free.
#[derive(Debug, Default)]
pub struct SampleChannel {
    delayed: Option<StatsMsg>,
}

impl SampleChannel {
    /// An empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push this interval's sample with its fate, appending the messages
    /// that come out of the channel *this* interval (at most three) to
    /// `out` in arrival order; the caller reuses `out` across intervals. A
    /// previously delayed sample is always flushed first (it reorders
    /// behind the newer one only when the newer one is itself delayed).
    pub fn push_into(&mut self, msg: StatsMsg, fate: SampleFate, out: &mut Vec<StatsMsg>) {
        if let Some(old) = self.delayed.take() {
            out.push(old);
        }
        match fate {
            SampleFate::Deliver => out.push(msg),
            SampleFate::Drop => {}
            SampleFate::Delay => self.delayed = Some(msg),
            SampleFate::Duplicate => {
                out.push(msg.clone());
                out.push(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;
    use tmem::stats::{MemStats, NodeInfo};

    /// The sequence numbers `ch` emits for one pushed sample.
    fn push(ch: &mut SampleChannel, seq: u64, fate: SampleFate) -> Vec<u64> {
        let mut out = Vec::new();
        ch.push_into(msg(seq), fate, &mut out);
        out.iter().map(|m| m.seq).collect()
    }

    fn msg(seq: u64) -> StatsMsg {
        StatsMsg {
            seq,
            stats: MemStats {
                at: SimTime::from_secs(seq),
                node: NodeInfo {
                    total_tmem: 1,
                    free_tmem: 1,
                    vm_count: 0,
                },
                vms: Vec::new(),
            },
        }
    }

    #[test]
    fn channel_passes_through_on_deliver() {
        let mut ch = SampleChannel::new();
        assert_eq!(push(&mut ch, 1, SampleFate::Deliver), [1]);
    }

    #[test]
    fn channel_drops_and_duplicates() {
        let mut ch = SampleChannel::new();
        assert!(push(&mut ch, 1, SampleFate::Drop).is_empty());
        assert_eq!(push(&mut ch, 2, SampleFate::Duplicate), [2, 2]);
    }

    #[test]
    fn delayed_sample_arrives_behind_the_next_one() {
        let mut ch = SampleChannel::new();
        assert!(push(&mut ch, 1, SampleFate::Delay).is_empty());
        // Sample 1 flushes ahead of 2 (late but in order)...
        assert_eq!(push(&mut ch, 2, SampleFate::Deliver), [1, 2]);
        // ...but two consecutive delays genuinely reorder: 3 is flushed when
        // 4 arrives delayed, then 4 flushes behind 5.
        assert!(push(&mut ch, 3, SampleFate::Delay).is_empty());
        assert_eq!(push(&mut ch, 4, SampleFate::Delay), [3]);
        assert_eq!(push(&mut ch, 5, SampleFate::Deliver), [4, 5]);
    }
}
