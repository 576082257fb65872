//! The workload abstraction.

use guest_os::kernel::GuestKernel;
use guest_os::machine::Machine;
use tmem::key::PoolId;

/// What a workload step reports back to the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains; schedule another step.
    Runnable,
    /// The workload finished and released its memory.
    Done,
}

/// A named progress event, drained by the runner after each step. Used for
/// per-phase timing (Fig. 7's per-allocation running times) and as cross-VM
/// start/stop triggers in the Usemem scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Milestone(pub String);

/// A resumable, budgeted workload.
///
/// Contract: `step` must issue references through the supplied kernel and
/// machine until `m.budget.exhausted()` (checking between references) or
/// completion, and must free all its guest memory before returning
/// [`StepOutcome::Done`]. After `Done`, further `step` calls are a logic
/// error. `abort` force-releases memory for workloads stopped externally.
/// A workload is `Send` because it moves with its VM onto the worker thread
/// that runs the VM's host.
pub trait Workload: Send {
    /// Report name.
    fn name(&self) -> &str;

    /// Run until the budget is exhausted or the workload completes.
    fn step(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>) -> StepOutcome;

    /// Drain milestones reached since the last call.
    fn drain_milestones(&mut self) -> Vec<Milestone>;

    /// Stop the workload prematurely, releasing all guest memory (process
    /// kill). Idempotent.
    fn abort(&mut self, kernel: &mut GuestKernel, m: &mut Machine<'_>);

    /// The VM migrated and a pool this workload created was re-registered
    /// on the destination host under a new id (ephemeral pools do not
    /// survive migration — the replacement starts empty). Workloads that
    /// hold no pool of their own ignore this.
    fn rebind_pool(&mut self, _old: PoolId, _new: PoolId) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milestone_is_a_transparent_label() {
        let m = Milestone("alloc:640".into());
        assert_eq!(m.0, "alloc:640");
        assert_eq!(m, Milestone("alloc:640".into()));
    }
}
