//! The experiment runner: one or more full simulated hosts driving one
//! scenario under one policy.
//!
//! Every host owns a hypervisor, a disk, a dom0 TKM relay and a Memory
//! Manager, plus the guest kernel and workload program of every VM
//! resident on it, and advances through its own deterministic
//! discrete-event queue:
//!
//! * `Step(vm)` — the VM executes one compute quantum of its workload
//!   (ended early by any blocking disk access); the next step is scheduled
//!   after the consumed time, with the compute part dilated by CPU
//!   contention *on the VM's host*,
//! * `Wake(vm)` / `Start(vm)` — program sleeps and (possibly
//!   milestone-triggered) program starts,
//! * `MigrateDone(vm)` — a migration's modelled network transfer finished;
//!   the VM resumes on its destination host.
//!
//! The paper's per-second sampling interrupt (VIRQ) is not a queue event:
//! it closes a *window*. Between two VIRQs no host reads another host's
//! state, so the hosts advance through a window in parallel, one thread
//! per host (capped at the cores available). The calling thread keeps the
//! first hosts; each other thread owns a fixed run of hosts, receives them
//! over a channel when a window opens and sends them back when it is done.
//! At the window's barrier the calling thread runs the VIRQ for every host
//! in host order — each host's snapshot travels hypervisor → dom0 TKM →
//! MM and changed targets travel back down — and then the fleet scheduler,
//! which compares per-host pressure and may start one VM migration.
//!
//! The worker count never changes an output: every run dispatches its
//! events in the order one global queue over all hosts would (DESIGN §6).
//! All queues draw sequence numbers from one shared space, which breaks
//! ties at an instant first-scheduled-first; the barrier merges the
//! window's per-host dispatch logs to number the events the window
//! scheduled as that global queue would have, and a migrating VM's queued
//! event keeps its number on the destination. A spec whose cross-VM
//! triggers link VMs runs every host through one queue on one worker.
//!
//! The single-host path ([`run_spec`]) *is* a one-host cluster — it calls
//! the same constructor with `hosts = 1`, no far tier and no fleet
//! scheduler, so the byte-golden single-host tests pin the equivalence by
//! construction.

use crate::config::RunConfig;
use crate::par;
use crate::spec::{build_scenario, ProgramStep, ScenarioKind, StartRule, VmSpec};
use guest_os::budget::StepBudget;
use guest_os::disk::SharedDisk;
use guest_os::kernel::{GuestConfig, GuestKernel, KernelStats};
use guest_os::machine::Machine;
use guest_os::tkm::{Dom0Tkm, GuestTkm};
use sim_core::event::EventQueue;
use sim_core::faults::FaultLedger;
use sim_core::metrics::TimeSeries;
use sim_core::netmodel::{Link, NetModel};
use sim_core::rng::SplitMix64;
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::{Payload, TraceData, Tracer};
use smartmem_core::fleet::{
    stranded_pages, FleetConfig, FleetManager, HostLoad, MigrationPlan, VmPlacement,
};
use smartmem_core::{MemoryManager, PolicyKind};
use std::sync::mpsc;
use tmem::backend::PoolKind;
use tmem::fastmap::FxHashSet;
use tmem::key::VmId;
use tmem::page::Fingerprint;
use workloads::traits::{StepOutcome, Workload};
use xen_sim::host::FarConfig;
use xen_sim::hypervisor::Hypervisor;
use xen_sim::sched;
use xen_sim::virq::SampleChannel;

/// Fraction of guest RAM reserved by the OS (kernel, daemons, page cache
/// floor) and unavailable to the workload.
const OS_RESERVE_FRAC: f64 = 0.20;

/// Swap-in read-ahead window, pages.
const READAHEAD_PAGES: u32 = 32;

/// Lifecycle of a VM's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VmState {
    NotStarted,
    Running,
    Sleeping,
    /// Paused while its pages cross the cluster link; resumes at
    /// `MigrateDone`. Stale queued `Step`/`Wake` events are ignored by the
    /// dispatch guards while in this state.
    Migrating,
    Finished,
    Stopped,
}

/// A queued event; each names the VM it belongs to and sits in the queue
/// of the shard the VM resides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Start(usize),
    Step(usize),
    Wake(usize),
    MigrateDone(usize),
}

impl Event {
    fn vm(self) -> usize {
        match self {
            Event::Start(i) | Event::Step(i) | Event::Wake(i) | Event::MigrateDone(i) => i,
        }
    }
}

/// One workload execution within a VM's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Program start instant.
    pub start: SimTime,
    /// Completion instant (`None` if stopped externally / truncated).
    pub end: Option<SimTime>,
    /// Kernel counters at run start (for per-run deltas).
    pub stats_at_start: KernelStats,
    /// Kernel counters at run end.
    pub stats_at_end: Option<KernelStats>,
}

impl RunRecord {
    /// Per-run delta of a kernel counter, via an accessor.
    pub fn stat_delta(&self, f: impl Fn(&KernelStats) -> u64) -> Option<u64> {
        self.stats_at_end
            .as_ref()
            .map(|e| f(e) - f(&self.stats_at_start))
    }
}

impl RunRecord {
    /// Running time, if the run completed.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }
}

/// Per-VM outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct VmResult {
    /// VM name ("VM1"...).
    pub name: String,
    /// Hypervisor identity.
    pub vm_id: VmId,
    /// Workload runs, in program order.
    pub runs: Vec<RunRecord>,
    /// Milestones with their timestamps (usemem per-allocation timing).
    pub milestones: Vec<(String, SimTime)>,
    /// Guest-kernel event counters at scenario end.
    pub kernel_stats: KernelStats,
    /// The VM was stopped by the scenario's global stop trigger.
    pub stopped_early: bool,
}

impl VmResult {
    /// Durations of completed runs, in program order (the bars of Figs. 3,
    /// 5, 9).
    pub fn completions(&self) -> Vec<SimDuration> {
        self.runs.iter().filter_map(|r| r.duration()).collect()
    }

    /// Time from `alloc:<label>` to the matching `block:<label>` milestone —
    /// usemem's per-allocation running time (Fig. 7).
    pub fn span_between(&self, from: &str, to: &str) -> Option<SimDuration> {
        let start = self.milestones.iter().find(|(l, _)| l == from)?.1;
        let end = self.milestones.iter().find(|(l, _)| l == to)?.1;
        Some(end - start)
    }
}

/// Occupancy/target time-series for the occupancy figures.
#[derive(Debug, Clone, Default)]
pub struct SeriesBundle {
    /// Per-VM tmem pages in use, sampled every interval.
    pub used: Vec<TimeSeries>,
    /// Per-VM target allocation, sampled every interval.
    pub target: Vec<TimeSeries>,
}

/// Complete outcome of one scenario × policy run on one host.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scenario name.
    pub scenario: String,
    /// Policy display name.
    pub policy: String,
    /// The policy that ran.
    pub policy_kind: PolicyKind,
    /// Per-VM outcomes for VMs resident on this host at scenario end, in
    /// global VM order. A migrated VM's lifetime counters travel with it.
    pub vm_results: Vec<VmResult>,
    /// Occupancy series (when `RunConfig::record_series`; single-host runs
    /// only).
    pub series: Option<SeriesBundle>,
    /// MM cycles executed (one per VIRQ while a managed policy ran).
    pub mm_cycles: u64,
    /// Target transmissions actually sent (suppression working ⇒ ≤ cycles).
    pub mm_transmissions: u64,
    /// Disk read requests served.
    pub disk_reads: u64,
    /// Disk page writes absorbed.
    pub disk_writes: u64,
    /// Total read wait across all requesters (queueing + service).
    pub disk_read_wait: sim_core::time::SimDuration,
    /// Total write-throttle stall time.
    pub disk_throttle: sim_core::time::SimDuration,
    /// Instant the last VM finished/stopped.
    pub end_time: SimTime,
    /// Events dispatched by the run (determinism fingerprint): every
    /// host's events plus one per VIRQ. In a cluster run every host
    /// reports the same fleet-wide count.
    pub events: u64,
    /// The run hit the safety cutoff (always a bug — asserted by tests).
    pub truncated: bool,
    /// Fault injection + degradation accounting for this host. All-zero
    /// `injected()` when `RunConfig::faults` is disabled.
    pub faults: FaultLedger,
    /// Per-VM tmem pages in use at scenario end (resident-VM order). The
    /// replay verifier re-derives this purely from trace events.
    pub final_tmem_used: Vec<u64>,
    /// Per-VM far-tier pages at scenario end (resident-VM order). Always
    /// zero without a far tier.
    pub final_far_used: Vec<u64>,
    /// Flight-recorder extraction (`Some` iff `RunConfig::trace` was set).
    pub trace: Option<TraceData>,
}

/// Cluster topology for [`run_cluster`]: how many hosts, the interconnect,
/// and the optional far tier / fleet scheduler. The default is a plain
/// single host — exactly what [`run_spec`] uses.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct ClusterConfig {
    /// Number of independent hosts; node tmem capacity is sharded across
    /// them (earlier hosts take the remainder pages).
    pub hosts: usize,
    /// The shared migration/spill interconnect.
    pub net: NetModel,
    /// Per-host far-memory tier (`None` disables it; zero RNG is drawn and
    /// single-host goldens are untouched).
    pub far: Option<FarConfig>,
    /// Fleet scheduler tunables; `None` means no MM-driven migration.
    pub migration: Option<FleetConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            hosts: 1,
            net: NetModel::default(),
            far: None,
            migration: None,
        }
    }
}

/// Fleet-wide accounting of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FleetMetrics {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// MM-initiated migrations started.
    pub migrations: u64,
    /// Summed VM pause time across completed migrations.
    pub migration_downtime: SimDuration,
    /// Transfers enqueued on the cluster link.
    pub cross_host_transfers: u64,
    /// Pages moved across the cluster link (RAM + tmem + far).
    pub cross_host_pages: u64,
    /// Time transfers spent queued behind earlier transfers.
    pub net_queue_wait: SimDuration,
    /// Σ over intervals of free pages on put-healthy hosts while some other
    /// host was rejecting puts — capacity the fleet owned but could not
    /// bring to bear (the sharding cost the fleet scheduler exists to cut).
    pub stranded_page_intervals: u64,
}

impl FleetMetrics {
    fn single_host() -> Self {
        FleetMetrics {
            hosts: 1,
            migrations: 0,
            migration_downtime: SimDuration::ZERO,
            cross_host_transfers: 0,
            cross_host_pages: 0,
            net_queue_wait: SimDuration::ZERO,
            stranded_page_intervals: 0,
        }
    }
}

/// Outcome of one cluster run: one [`RunResult`] per host plus the
/// fleet-wide metrics.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-host results, host order. VMs appear in the result of the host
    /// they ended on.
    pub host_results: Vec<RunResult>,
    /// Fleet-wide accounting.
    pub fleet: FleetMetrics,
}

struct VmRuntime {
    spec: VmSpec,
    kernel: GuestKernel,
    workload: Option<Box<dyn Workload>>,
    state: VmState,
    /// Host the VM currently resides on (updated when a migration starts —
    /// its pages land on the destination immediately; only time passes
    /// while `Migrating`).
    host: usize,
    /// Instant the current sleep's `Wake` was scheduled for; lets a
    /// migration that swallows the wake re-issue it on arrival.
    wake_at: Option<SimTime>,
    /// Due instant of the VM's queued `Step`, `None` once it has been
    /// dispatched. A VM runs one step chain: see [`Shard::schedule_step`].
    step_at: Option<SimTime>,
    /// While `Migrating`: the state to restore at `MigrateDone` (`Running`
    /// or `Sleeping`) and the instant the VM paused.
    resume_after_migration: Option<(VmState, SimTime)>,
    prog_idx: usize,
    run_counter: u32,
    runs: Vec<RunRecord>,
    milestones: Vec<(String, SimTime)>,
    stopped_early: bool,
}

/// One host's private control plane: hypervisor (which owns the host's
/// fault injector), disk, dom0 relay, MM and flight recorder.
struct HostCtl {
    hyp: Hypervisor<Fingerprint>,
    disk: SharedDisk,
    dom0: Dom0Tkm,
    mm: Option<MemoryManager>,
    sample_chan: SampleChannel,
    /// Reusable buffer for one interval's VIRQ → dom0 snapshot batch.
    virq_buf: Vec<tmem::stats::StatsMsg>,
    /// `Some(t)` while this host's MM process is crashed; the watchdog
    /// restarts it at the first VIRQ at or after `t`.
    mm_down_until: Option<SimTime>,
    /// vCPUs of VMs currently in [`VmState::Running`] on this host,
    /// maintained incrementally by [`Shard::set_state`] — `step_vm` needs
    /// it on every dispatched step, which at fleet scale (64+ VMs) makes an
    /// O(VMs) rescan the hottest line of the whole loop.
    running_vcpus: u32,
    /// This host's flight recorder; clones of it live inside the host's
    /// hypervisor (and its fault injector), relay and MM.
    tracer: Tracer,
}

/// Fleet-level state of a multi-host run (absent for `hosts == 1`).
struct FleetCtl {
    /// The cross-host scheduler (`None` when migration is disabled).
    mgr: Option<FleetManager>,
    /// The shared migration/spill link.
    link: Link,
    /// Per-host Σ failed_puts at the previous fleet step, for deltas.
    /// Saturating: a migration moves a VM's cumulative counter between
    /// hosts, which can make a host's sum go backwards.
    prev_failed: Vec<u64>,
    /// The one migration in flight: its VM's index.
    in_flight: Option<usize>,
    migrations: u64,
    downtime: SimDuration,
    stranded: u64,
}

/// What every host worker reads and none writes.
struct Ctx {
    cfg: RunConfig,
    seed_root: SplitMix64,
    scenario_name: String,
    policy_name: String,
    policy_kind: PolicyKind,
}

/// One event a shard dispatched in the current window, as the barrier
/// needs it to number the events the window scheduled.
struct Dispatched {
    due: SimTime,
    seq: u64,
    /// The queue's next sequence number before the handler ran: the
    /// handler's own events took the numbers from here up to the next
    /// dispatch's `first_child`.
    first_child: u64,
}

/// Hosts that one worker advances through a window in their own event
/// order, with everything they own. A multi-host run has one shard per
/// host, unless cross-VM triggers link its VMs: then one shard holds every
/// host and its one queue is the global event order.
struct Shard {
    /// Global index of `hosts[0]`.
    first_host: usize,
    hosts: Vec<HostCtl>,
    /// Resident VMs by global index (`None`: on another shard).
    vms: Vec<Option<VmRuntime>>,
    queue: EventQueue<Event>,
    /// Where the open window ends: the next VIRQ's `(due, seq)`, or just
    /// past the cutoff.
    bound: (SimTime, u64),
    /// Resident VMs not yet Finished/Stopped, in-flight arrivals included;
    /// maintained by [`Shard::set_state`], [`Shard::depart`] and
    /// [`Shard::arrive`].
    unfinished: usize,
    /// Instant `unfinished` reached zero in the open window.
    done_at: Option<SimTime>,
    /// Events dispatched so far (the determinism fingerprint). Counted
    /// here rather than read off the queue: batch draining pops whole
    /// same-instant groups, but an early completion stops dispatch
    /// mid-batch exactly where one-at-a-time popping would have stopped.
    dispatched: u64,
    /// The open window's dispatches, kept only when several shards share
    /// the sequence space.
    log: Option<Vec<Dispatched>>,
    /// A migration that landed in the open window: its VM and downtime.
    /// The fleet books it at the barrier.
    arrived: Option<(usize, SimDuration)>,
    observed: FxHashSet<(usize, String)>,
    pending_starts: Vec<(usize, Vec<(usize, String)>)>,
    stop_all_on: Option<(usize, String)>,
    /// Reusable buffer for one same-instant batch of `(seq, event)`.
    batch: Vec<(u64, Event)>,
}

/// The serial half of a run, executed at each window's barrier: the VIRQ,
/// the fleet step and the migration hand-off, plus the shared sequence
/// counter and the run's end.
struct Coordinator {
    nhosts: usize,
    sampling: SimDuration,
    cutoff: SimTime,
    /// The next VIRQ: its instant and sequence number.
    virq: (SimTime, u64),
    /// The next free number of the shared sequence space.
    next_seq: u64,
    /// The first number the open window's shards numbered their own
    /// events from.
    base: u64,
    /// VIRQs, plus the event that crossed the cutoff, counted as
    /// dispatched.
    dispatched: u64,
    truncated: bool,
    series: Option<SeriesBundle>,
    fleet: Option<FleetCtl>,
    /// Reusable per-interval buffer for the slow-reclaim trickle, so an
    /// over-target VM doesn't cost a fresh `Vec` every interval.
    reclaim_buf: Vec<(tmem::key::ObjectId, u32)>,
}

/// Run one scenario under one policy. Deterministic in `cfg.seed`.
pub fn run_scenario(kind: ScenarioKind, policy: PolicyKind, cfg: &RunConfig) -> RunResult {
    run_spec(build_scenario(kind, cfg), policy, cfg)
}

/// Run a (possibly customized) scenario spec under one policy on a single
/// host. The public entry point for experiments beyond Table II — e.g.
/// capacity sweeps that adjust `ScenarioSpec::tmem_bytes` before running.
///
/// This *is* the one-host cluster path: the single-host byte-goldens pin
/// the cluster refactor in place.
pub fn run_spec(spec: crate::spec::ScenarioSpec, policy: PolicyKind, cfg: &RunConfig) -> RunResult {
    let mut r = run_cluster(spec, policy, cfg, &ClusterConfig::default());
    r.host_results.pop().expect("one host")
}

/// Run a scenario spec across a cluster of hosts. Node tmem capacity is
/// sharded host-by-host, VMs are placed round-robin, and (when configured)
/// the fleet scheduler migrates VMs between hosts on sustained pressure
/// divergence. Deterministic in `cfg.seed`.
///
/// The hosts run on one worker thread each, up to the cores available;
/// `cfg.jobs` is not read. A one-host run starts no thread.
pub fn run_cluster(
    spec: crate::spec::ScenarioSpec,
    policy: PolicyKind,
    cfg: &RunConfig,
    cluster: &ClusterConfig,
) -> ClusterResult {
    run_cluster_on(spec, policy, cfg, cluster, par::default_jobs())
}

/// [`run_cluster`] on at most `workers` threads.
fn run_cluster_on(
    spec: crate::spec::ScenarioSpec,
    policy: PolicyKind,
    cfg: &RunConfig,
    cluster: &ClusterConfig,
    workers: usize,
) -> ClusterResult {
    assert!(cluster.hosts >= 1, "a cluster needs at least one host");
    let nhosts = cluster.hosts;
    let total_pages = spec.tmem_pages();
    let frontswap = policy.tmem_enabled();

    let mut hosts = Vec::with_capacity(nhosts);
    for h in 0..nhosts {
        // Shard the node capacity; earlier hosts absorb the remainder.
        let host_pages =
            total_pages / nhosts as u64 + u64::from((h as u64) < total_pages % nhosts as u64);
        let tracer = Tracer::from_config(cfg.trace.as_ref());
        let mut mm = MemoryManager::from_kind(policy, 128);
        if let Some(m) = mm.as_mut() {
            m.set_tracer(tracer.clone());
        }
        let initial_target = mm
            .as_ref()
            .map(|m| m.initial_target(host_pages))
            .unwrap_or(0);
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(host_pages, initial_target);
        hyp.set_tracer(tracer.clone());
        // Host 0 keeps the historical seeding so single-host runs stay
        // byte-identical; additional hosts draw independent substreams.
        let fault_seed = if h == 0 {
            cfg.seed
        } else {
            SplitMix64::new(cfg.seed).derive(&format!("host{h}")).next()
        };
        // The host's one fault injector: control-plane fates for the VIRQ,
        // relay and MM edges, data-plane fates for the tmem datapath. A
        // disabled profile draws no RNG.
        hyp.set_faults(&cfg.faults, fault_seed);
        if let Some(far) = cluster.far {
            hyp.set_far_tier(far);
        }
        let mut dom0 = Dom0Tkm::new();
        dom0.set_tracer(tracer.clone());
        hosts.push(HostCtl {
            hyp,
            disk: SharedDisk::default(),
            dom0,
            mm,
            sample_chan: SampleChannel::new(),
            virq_buf: Vec::new(),
            mm_down_until: None,
            running_vcpus: 0,
            tracer,
        });
    }

    let mut vms = Vec::with_capacity(spec.vms.len());
    for (i, vm_spec) in spec.vms.iter().enumerate() {
        let h = i % nhosts;
        hosts[h].hyp.register_vm(vm_spec.config.clone());
        let ram_pages = vm_spec.config.ram_pages();
        let os_reserved = ((ram_pages as f64 * OS_RESERVE_FRAC) as u64).max(2);
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: vm_spec.config.id,
            ram_pages,
            os_reserved_pages: os_reserved,
            readahead_pages: READAHEAD_PAGES,
            frontswap_enabled: frontswap,
        });
        if frontswap {
            let tkm = GuestTkm::init(&mut hosts[h].hyp, vm_spec.config.id, PoolKind::Persistent)
                .expect("pool creation cannot fail on a fresh hypervisor");
            kernel.attach_frontswap(tkm.pool());
        }
        vms.push(VmRuntime {
            spec: vm_spec.clone(),
            kernel,
            workload: None,
            state: VmState::NotStarted,
            host: h,
            wake_at: None,
            step_at: None,
            resume_after_migration: None,
            prog_idx: 0,
            run_counter: 0,
            runs: Vec::new(),
            milestones: Vec::new(),
            stopped_early: false,
        });
    }

    // Cross-VM triggers tie VMs to one another's progress, wherever they
    // run; a run with any keeps every host in one shard.
    let linked = spec.stop_all_on.is_some()
        || spec
            .vms
            .iter()
            .any(|vm| matches!(&vm.start, StartRule::OnMilestonesAll(reqs) if !reqs.is_empty()));
    let hosts_per_shard = if linked { nhosts } else { 1 };
    let nshards = nhosts / hosts_per_shard;
    let mut host_iter = hosts.into_iter();
    let mut shards: Vec<Shard> = (0..nshards)
        .map(|k| Shard {
            first_host: k * hosts_per_shard,
            hosts: host_iter.by_ref().take(hosts_per_shard).collect(),
            vms: (0..vms.len()).map(|_| None).collect(),
            queue: EventQueue::new(),
            bound: (SimTime::ZERO, 0),
            unfinished: 0,
            done_at: None,
            dispatched: 0,
            log: (nshards > 1).then(Vec::new),
            arrived: None,
            observed: FxHashSet::default(),
            pending_starts: Vec::new(),
            stop_all_on: spec.stop_all_on.clone(),
            batch: Vec::new(),
        })
        .collect();
    let mut coord = Coordinator {
        nhosts,
        sampling: cfg.sampling_interval(),
        cutoff: SimTime::ZERO + cfg.max_sim_time,
        virq: (SimTime::ZERO, 0),
        next_seq: 0,
        base: 0,
        dispatched: 0,
        truncated: false,
        // Series are a single-host instrument: in a cluster, occupancy
        // spans hosts and the golden-pinned per-interval replay check
        // would need per-host series. Fleet runs use traces instead.
        series: (nhosts == 1 && cfg.record_series).then(|| SeriesBundle {
            used: vec![TimeSeries::new(); vms.len()],
            target: vec![TimeSeries::new(); vms.len()],
        }),
        fleet: (nhosts > 1).then(|| FleetCtl {
            mgr: cluster.migration.map(FleetManager::new),
            link: Link::new(cluster.net.clone()),
            prev_failed: vec![0; nhosts],
            in_flight: None,
            migrations: 0,
            downtime: SimDuration::ZERO,
            stranded: 0,
        }),
        reclaim_buf: Vec::new(),
    };
    for (i, rt) in vms.into_iter().enumerate() {
        let shard = &mut shards[rt.host / hosts_per_shard];
        let start = match &rt.spec.start {
            StartRule::At(d) => Some(SimTime::ZERO + *d),
            // No requirements means nothing to wait for; an empty rule
            // must not depend on some other VM emitting a milestone first.
            StartRule::OnMilestonesAll(reqs) if reqs.is_empty() => Some(SimTime::ZERO),
            StartRule::OnMilestonesAll(reqs) => {
                shard.pending_starts.push((i, reqs.clone()));
                None
            }
        };
        if let Some(at) = start {
            shard.queue.insert(at, coord.next_seq, Event::Start(i));
            coord.next_seq += 1;
        }
        shard.arrive(i, rt);
    }
    coord.open_window(&mut shards);
    let ctx = Ctx {
        cfg: cfg.clone(),
        seed_root: SplitMix64::new(cfg.seed),
        scenario_name: spec.name.clone(),
        policy_name: policy.to_string(),
        policy_kind: policy,
    };
    drive(shards, coord, &ctx, workers)
}

/// Run the windows on up to `workers` threads and each barrier on the
/// calling thread. The shards are dealt in fixed contiguous chunks: the
/// calling thread keeps the first, and one scoped worker per other chunk
/// lives for the whole run, so each shard stays on one thread. In every
/// window a worker receives its chunk by value over its request channel,
/// runs it and sends it back over its reply channel. One chunk at most is
/// in flight each way, so each channel has one slot, allocated once, and
/// no send blocks.
///
/// A worker that panics drops its reply sender, so the barrier's `recv`
/// fails at once. Leaving the scope, by return or by panic, drops the
/// request senders, and that ends the other workers.
fn drive(
    mut shards: Vec<Shard>,
    mut coord: Coordinator,
    ctx: &Ctx,
    workers: usize,
) -> ClusterResult {
    let chunk = shards.len().div_ceil(workers.clamp(1, shards.len()));
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (chunk..shards.len())
            .step_by(chunk)
            .map(|_| {
                let (request, requests) = mpsc::sync_channel::<Vec<Shard>>(1);
                let (reply, replies) = mpsc::sync_channel(1);
                scope.spawn(move || {
                    for mut mine in requests {
                        for s in &mut mine {
                            s.run_window(ctx);
                        }
                        if reply.send(mine).is_err() {
                            // The calling thread panicked; it reports that.
                            return;
                        }
                    }
                });
                (request, replies)
            })
            .collect();
        loop {
            for (k, (request, _)) in lanes.iter().enumerate().rev() {
                let theirs = shards.split_off((k + 1) * chunk);
                request
                    .send(theirs)
                    .expect("a host worker lives until the run ends");
            }
            for s in &mut shards {
                s.run_window(ctx);
            }
            for (_, replies) in &lanes {
                shards.extend(replies.recv().expect("a host worker panicked"));
            }
            if let Some(end) = coord.barrier(&mut shards, ctx) {
                return coord.finish(&mut shards, ctx, end);
            }
        }
    })
}

/// Host `h`, on whichever shard holds it.
fn host_of(shards: &[Shard], h: usize) -> &HostCtl {
    let s = &shards[shard_of(shards, h)];
    &s.hosts[h - s.first_host]
}

/// Index of the shard that holds host `h`.
fn shard_of(shards: &[Shard], h: usize) -> usize {
    shards
        .iter()
        .position(|s| h < s.first_host + s.hosts.len())
        .expect("every host is on a shard")
}

/// Stamp every host's recorder with `t`.
fn set_clocks(shards: &[Shard], t: SimTime) {
    for host in shards.iter().flat_map(|s| &s.hosts) {
        host.tracer.set_now(t);
    }
}

/// Give the events each shard scheduled in the window the numbers one
/// global queue would have given them, and renumber the shards' queues to
/// match. Each shard numbered its own events from `base` up. The global
/// dispatch order of the window is the merge of the shards' logs by
/// `(due, seq)`, and each dispatch's events take the next numbers in that
/// order — a dispatch's own number is known by then, because the event
/// that scheduled it came earlier in its shard's log. Returns the next
/// free number.
fn number_window(shards: &mut [Shard], base: u64) -> u64 {
    let mut numbers: Vec<Vec<u64>> = shards
        .iter()
        .map(|s| vec![u64::MAX; (s.queue.next_seq() - base) as usize])
        .collect();
    let global = |numbers: &[u64], seq: u64| {
        if seq < base {
            seq
        } else {
            let n = numbers[(seq - base) as usize];
            debug_assert_ne!(n, u64::MAX, "numbered before its scheduler");
            n
        }
    };
    let mut heads = vec![0; shards.len()];
    let mut next = base;
    loop {
        let mut first: Option<((SimTime, u64), usize)> = None;
        for (k, s) in shards.iter().enumerate() {
            let log = s.log.as_ref().expect("several shards keep logs");
            if let Some(d) = log.get(heads[k]) {
                let key = (d.due, global(&numbers[k], d.seq));
                if first.is_none_or(|(best, _)| key < best) {
                    first = Some((key, k));
                }
            }
        }
        let Some((_, k)) = first else { break };
        let log = shards[k].log.as_ref().expect("several shards keep logs");
        let end = log
            .get(heads[k] + 1)
            .map_or(shards[k].queue.next_seq(), |d| d.first_child);
        for child in log[heads[k]].first_child..end {
            numbers[k][(child - base) as usize] = next;
            next += 1;
        }
        heads[k] += 1;
    }
    for (s, numbers) in shards.iter_mut().zip(&numbers) {
        s.queue.renumber(|seq| global(numbers, seq));
        s.log.as_mut().expect("several shards keep logs").clear();
    }
    next
}

impl Shard {
    fn vm(&mut self, i: usize) -> &mut VmRuntime {
        self.vms[i]
            .as_mut()
            .expect("the VM is resident on this shard")
    }

    fn host_mut(&mut self, h: usize) -> &mut HostCtl {
        &mut self.hosts[h - self.first_host]
    }

    /// Move VM `i` to `new`, keeping the incremental per-host
    /// `running_vcpus` and per-shard `unfinished` counters exact. Every
    /// state transition in the runner goes through here.
    fn set_state(&mut self, i: usize, new: VmState) {
        let rt = self.vm(i);
        let (old, vcpus, h) = (rt.state, rt.spec.config.vcpus, rt.host);
        if old == new {
            return;
        }
        rt.state = new;
        let host = self.host_mut(h);
        if old == VmState::Running {
            host.running_vcpus -= vcpus;
        }
        if new == VmState::Running {
            host.running_vcpus += vcpus;
        }
        let done = |s: VmState| matches!(s, VmState::Finished | VmState::Stopped);
        match (done(old), done(new)) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
    }

    /// VM `i` leaves this shard for another host at `now`, paused as
    /// `Migrating` until its `MigrateDone`.
    fn depart(&mut self, i: usize, now: SimTime) -> VmRuntime {
        let prev = self.vm(i).state;
        self.set_state(i, VmState::Migrating);
        self.unfinished -= 1;
        let mut rt = self.vms[i]
            .take()
            .expect("the VM is resident on this shard");
        rt.resume_after_migration = Some((prev, now));
        rt
    }

    /// VM `i` becomes resident on this shard; it is not done.
    fn arrive(&mut self, i: usize, rt: VmRuntime) {
        self.unfinished += 1;
        self.vms[i] = Some(rt);
    }

    /// Dispatch this shard's events up to the window's bound, in `(due,
    /// seq)` order, stopping early once every resident VM is done.
    fn run_window(&mut self, ctx: &Ctx) {
        let mut batch = std::mem::take(&mut self.batch);
        // Same-instant events are drained from the heap as one batch and
        // dispatched in a row — one heap pop amortized over the group.
        // Events a handler schedules at `now` carry higher sequence numbers
        // than the whole drained batch, so they form the next batch and
        // dispatch order is exactly that of one-at-a-time popping.
        'window: while self.unfinished > 0 {
            let Some(now) = self.queue.pop_batch_before(self.bound, &mut batch) else {
                break;
            };
            for host in &self.hosts {
                host.tracer.set_now(now);
            }
            for (seq, event) in batch.drain(..) {
                if let Some(log) = &mut self.log {
                    log.push(Dispatched {
                        due: now,
                        seq,
                        first_child: self.queue.next_seq(),
                    });
                }
                self.dispatched += 1;
                self.dispatch(ctx, event, now);
                if self.unfinished == 0 {
                    // A lone shard's run is over; the rest of the batch
                    // would not have been dispatched. Among several
                    // shards (no triggers, so no stop_all), a finished VM
                    // leaves no queued event behind.
                    self.done_at = Some(now);
                    break 'window;
                }
            }
        }
        batch.clear();
        self.batch = batch;
    }

    fn dispatch(&mut self, ctx: &Ctx, event: Event, now: SimTime) {
        match event {
            Event::Start(i) => {
                if self.vm(i).state == VmState::NotStarted {
                    self.start_next(ctx, i, now);
                }
            }
            Event::Wake(i) => {
                if self.vm(i).state == VmState::Sleeping {
                    self.start_next(ctx, i, now);
                }
            }
            Event::Step(i) => {
                let rt = self.vm(i);
                rt.step_at = None;
                if rt.state == VmState::Running {
                    self.step_vm(ctx, i, now);
                }
            }
            Event::MigrateDone(i) => {
                // A stop_all may have killed the VM mid-flight; the
                // guard keeps the arrival from resurrecting it.
                if self.vm(i).state == VmState::Migrating {
                    self.migrate_done(i, now);
                }
            }
        }
    }

    /// Begin the next program step of VM `i` at `now` (initial start, after
    /// a sleep, or after a completed run).
    fn start_next(&mut self, ctx: &Ctx, i: usize, now: SimTime) {
        let rt = self.vm(i);
        if rt.prog_idx >= rt.spec.program.len() {
            self.set_state(i, VmState::Finished);
            return;
        }
        let step = rt.spec.program[rt.prog_idx].clone();
        rt.prog_idx += 1;
        match step {
            ProgramStep::Run(ws) => {
                let label = format!(
                    "{}/{}/vm{i}/run{}",
                    ctx.scenario_name, ctx.policy_name, rt.run_counter
                );
                let seed = ctx.seed_root.derive(&label).next();
                let workload = ws.build(seed);
                rt.run_counter += 1;
                rt.runs.push(RunRecord {
                    workload: workload.name().to_string(),
                    start: now,
                    end: None,
                    stats_at_start: *rt.kernel.stats(),
                    stats_at_end: None,
                });
                rt.workload = Some(workload);
                self.set_state(i, VmState::Running);
                self.schedule_step(i, now);
            }
            ProgramStep::Sleep(d) => {
                rt.wake_at = Some(now + d);
                self.set_state(i, VmState::Sleeping);
                self.queue.schedule_at(now + d, Event::Wake(i));
            }
        }
    }

    /// Execute one quantum of VM `i`'s workload on its current host.
    fn step_vm(&mut self, ctx: &Ctx, i: usize, now: SimTime) {
        let Shard {
            hosts,
            vms,
            first_host,
            ..
        } = self;
        let rt = vms[i].as_mut().expect("the VM is resident on this shard");
        let host = &mut hosts[rt.host - *first_host];
        let dilation = sched::dilation(host.running_vcpus);
        let mut budget = StepBudget::new(ctx.cfg.quantum);
        let mut machine = Machine {
            hyp: &mut host.hyp,
            disk: &mut host.disk,
            cost: &ctx.cfg.cost,
            now,
            budget: &mut budget,
        };
        let workload = rt.workload.as_mut().expect("running VM has a workload");
        let outcome = workload.step(&mut rt.kernel, &mut machine);
        let t_end = now + budget.elapsed(dilation);

        // Milestones: record, then evaluate cross-VM triggers.
        let labels: Vec<String> = workload
            .drain_milestones()
            .into_iter()
            .map(|m| m.0)
            .collect();
        let new_labels = !labels.is_empty();
        let mut stop_everything = false;
        for label in labels {
            rt.milestones.push((label.clone(), t_end));
            if let Some((svm, slabel)) = &self.stop_all_on {
                if *svm == i && *slabel == label {
                    stop_everything = true;
                }
            }
            self.observed.insert((i, label));
        }
        // Milestone-triggered starts can only become ready when a new label
        // was recorded (empty-requirement rules start from the seeded
        // queue), so a step without milestones skips the pending scan.
        if new_labels && !self.pending_starts.is_empty() {
            self.fire_ready_starts(t_end);
        }
        if stop_everything {
            self.stop_all(ctx, t_end);
            return;
        }

        match outcome {
            StepOutcome::Done => {
                let rt = self.vm(i);
                let stats = *rt.kernel.stats();
                let rec = rt
                    .runs
                    .last_mut()
                    .expect("a run record exists while running");
                rec.end = Some(t_end);
                rec.stats_at_end = Some(stats);
                rt.workload = None;
                self.start_next(ctx, i, t_end);
            }
            StepOutcome::Runnable => self.schedule_step(i, t_end),
        }
    }

    /// Queue VM `i`'s next quantum at `at`. Each VM runs exactly one step
    /// chain, so no other `Step` of it may be queued: a second chain would
    /// run the VM twice as fast as its vCPU allows.
    fn schedule_step(&mut self, i: usize, at: SimTime) {
        let queued = self.vm(i).step_at.replace(at);
        assert!(
            queued.is_none(),
            "vm{i} already has a step queued at {queued:?}; another at {at} forks its chain"
        );
        self.queue.schedule_at(at, Event::Step(i));
    }

    /// Start any milestone-triggered VM whose requirements are now met.
    fn fire_ready_starts(&mut self, at: SimTime) {
        let observed = &self.observed;
        let mut ready = Vec::new();
        self.pending_starts.retain(|(vm, reqs)| {
            if reqs.iter().all(|r| observed.contains(r)) {
                ready.push(*vm);
                false
            } else {
                true
            }
        });
        for vm in ready {
            self.queue.schedule_at(at, Event::Start(vm));
        }
    }

    /// The scenario-wide stop trigger (and the cutoff): kill the program
    /// of every VM on this shard.
    fn stop_all(&mut self, ctx: &Ctx, at: SimTime) {
        for i in 0..self.vms.len() {
            let Some(rt) = self.vms[i].as_mut() else {
                continue;
            };
            if matches!(rt.state, VmState::Finished | VmState::Stopped) {
                continue;
            }
            // Process kill: release guest memory (flush costs are charged
            // to a throwaway budget — the scenario is over).
            let mut budget = StepBudget::new(SimDuration::from_secs(3600));
            let host = &mut self.hosts[rt.host - self.first_host];
            if let Some(mut w) = rt.workload.take() {
                let mut machine = Machine {
                    hyp: &mut host.hyp,
                    disk: &mut host.disk,
                    cost: &ctx.cfg.cost,
                    now: at,
                    budget: &mut budget,
                };
                w.abort(&mut rt.kernel, &mut machine);
            }
            let stats = *rt.kernel.stats();
            if let Some(r) = rt.runs.last_mut() {
                if r.end.is_none() {
                    r.end = Some(at);
                    r.stats_at_end = Some(stats);
                }
            }
            rt.stopped_early = true;
            self.set_state(i, VmState::Stopped);
        }
    }

    /// The migration's network transfer finished: resume the VM on its
    /// destination host. The fleet books the downtime at the barrier.
    fn migrate_done(&mut self, i: usize, now: SimTime) {
        let rt = self.vm(i);
        let (resume, paused_at) = rt
            .resume_after_migration
            .take()
            .expect("set when the migration began");
        let downtime = now - paused_at;
        let (h, vm) = (rt.host, rt.spec.config.id);
        self.host_mut(h).tracer.emit(|| {
            (
                Some(vm.0),
                Payload::MigrateDone {
                    downtime: downtime.as_nanos(),
                },
            )
        });
        debug_assert!(self.arrived.is_none(), "one migration in flight at a time");
        self.arrived = Some((i, downtime));
        match resume {
            VmState::Running => {
                self.set_state(i, VmState::Running);
                // A step blocked on disk I/O can outlast the transfer: it
                // is still queued and continues the chain when due. A step
                // that came due in flight was ignored; re-issue it.
                if self.vm(i).step_at.is_none() {
                    self.schedule_step(i, now);
                }
            }
            VmState::Sleeping => {
                self.set_state(i, VmState::Sleeping);
                // The sleep's original Wake may have fired (and been
                // ignored) while the VM was in flight; re-issue it. A wake
                // still in the future fires normally off the queue.
                if self.vm(i).wake_at.is_some_and(|w| w <= now) {
                    self.queue.schedule_at(now, Event::Wake(i));
                }
            }
            other => unreachable!("un-migratable state {other:?} was recorded"),
        }
    }

    /// Host `h`'s half of the VIRQ, through its `IntervalClose` emission.
    ///
    /// Every edge crossing consults the host's fault injector. With the
    /// default (disabled) profile no RNG is drawn and exactly one snapshot
    /// flows through per interval, so the fault-free path is byte-identical
    /// to a build without the fault layer.
    fn virq_host(&mut self, h: usize, now: SimTime, ctx: &Ctx, coord: &mut Coordinator) {
        let Shard {
            hosts,
            vms,
            first_host,
            ..
        } = self;
        let host = &mut hosts[h - *first_host];
        // Advance the data-fault interval clock (brownout windows and scrub
        // cadence are phrased in sampling intervals). Draws no RNG.
        host.hyp.faults_mut().tick_interval();
        let msg = host.hyp.sample(now);
        let seq = msg.seq;
        let fate = host.hyp.faults_mut().sample_fate();
        host.tracer
            .emit(|| (None, Payload::VirqSample { seq, fate }));
        // The channel's output batch is handed to the relay in one call —
        // the relay still draws a fault fate per logical message, so the
        // fault stream is that of message-at-a-time delivery.
        host.sample_chan.push_into(msg, fate, &mut host.virq_buf);
        host.dom0
            .deliver_stats_batch(&mut host.virq_buf, host.hyp.faults_mut());
        let mut stale = false;
        if host.mm.is_some() {
            drive_mm(host, coord.sampling, now);
            // Slow reclaim: trickle over-target VMs' oldest pages to their
            // swap devices (hypervisor-driven async write-back). This is
            // hypervisor work — it continues while the MM is crashed, with
            // targets held at the TTL fallback.
            let max = ((host.hyp.node_info().total_tmem as f64 * ctx.cfg.reclaim_frac_per_interval)
                as u64)
                .max(1);
            let buf = &mut coord.reclaim_buf;
            for rt in vms.iter_mut().flatten().filter(|rt| rt.host == h) {
                let Some(pool) = rt.kernel.frontswap_pool() else {
                    continue;
                };
                buf.clear();
                host.hyp.reclaim_over_target_into(pool, max, buf);
                if !buf.is_empty() {
                    rt.kernel.tmem_reclaimed(buf);
                    host.disk.write_back(now, buf.len() as u64, &ctx.cfg.cost);
                }
            }
            stale = host.hyp.targets_stale();
            if stale {
                host.hyp.faults_mut().ledger_mut().stale_intervals += 1;
            }
        }
        // Periodic pool scrub: verify every stored checksum, quarantine
        // corrupt objects, and assert the accounting invariants from inside
        // the sweep. Runs before this interval's own invariant check so the
        // IntervalClose event reflects the post-scrub pool.
        if host.hyp.faults().scrub_due() {
            host.hyp.scrub();
        }
        // Accounting invariants must hold every interval, faults or not.
        let ok = tmem::backend::accounting_consistent(host.hyp.backend());
        let ledger = host.hyp.faults_mut().ledger_mut();
        ledger.invariant_checks += 1;
        if !ok {
            ledger.invariant_violations += 1;
        }
        host.tracer
            .emit(|| (None, Payload::IntervalClose { seq, stale, ok }));
    }
}

/// One host's MM-side half of the VIRQ: relay retry clock, watchdog
/// restart, crash schedule, snapshot ingestion and target pushes.
fn drive_mm(host: &mut HostCtl, sampling: SimDuration, now: SimTime) {
    // The dom0 relay is kernel-side: its retry clock ticks every
    // interval even while the user-space MM is down.
    host.dom0.tick_retries(&mut host.hyp);
    if let Some(t) = host.mm_down_until {
        if now < t {
            // MM still down; snapshots queue (and shed) in the relay.
            return;
        }
        host.mm_down_until = None;
        host.hyp.faults_mut().ledger_mut().mm_restarts += 1;
        host.tracer.emit(|| (None, Payload::MmRestart));
    }
    let mm = host.mm.as_mut().expect("caller checked mm.is_some()");
    // Crash schedule keys on completed MM cycles, so a fixed
    // `mm_crash_at_cycle` hits the same policy state at any time scale.
    if host.hyp.faults_mut().mm_should_crash(mm.cycles()) {
        mm.crash();
        let downtime = sampling.as_nanos() * host.hyp.faults().profile().mm_restart_after;
        host.mm_down_until = Some(now + SimDuration::from_nanos(downtime));
        return;
    }
    while let Some(snap) = host.dom0.take_stats() {
        if let Some((seq, targets)) = mm.on_stats(&snap) {
            host.dom0.forward_targets(&mut host.hyp, seq, &targets);
        }
        // The MM processed a snapshot: its liveness heartbeat refreshes
        // the hypervisor's target TTL even when the target vector was
        // suppressed as unchanged. A crashed MM (or a wholly lost
        // sample) sends no heartbeat, so staleness accrues.
        host.hyp.keepalive();
    }
}

impl Coordinator {
    /// Schedule the next VIRQ one sampling interval on, and open the
    /// window that ends at it (or at the cutoff, if that comes first).
    fn open_window(&mut self, shards: &mut [Shard]) {
        self.virq = (self.virq.0 + self.sampling, self.next_seq);
        self.next_seq += 1;
        self.base = self.next_seq;
        let bound = if self.virq.0 <= self.cutoff {
            self.virq
        } else {
            (self.cutoff, u64::MAX)
        };
        for s in shards.iter_mut() {
            s.bound = bound;
            s.queue.set_next_seq(self.next_seq);
        }
    }

    /// Close the window every shard just ran. Returns the run's end once
    /// every VM is done or the cutoff is crossed; otherwise runs the VIRQ
    /// and opens the next window.
    fn barrier(&mut self, shards: &mut [Shard], ctx: &Ctx) -> Option<SimTime> {
        self.next_seq = match shards {
            [one] => one.queue.next_seq(),
            _ => number_window(shards, self.base),
        };
        for s in shards.iter_mut() {
            if let Some((i, downtime)) = s.arrived.take() {
                let fleet = self.fleet.as_mut().expect("MigrateDone only in fleet runs");
                let vm_i = fleet.in_flight.take().expect("a migration was in flight");
                debug_assert_eq!(vm_i, i, "one migration in flight at a time");
                fleet.downtime += downtime;
            }
        }
        let done = shards.iter().all(|s| s.unfinished == 0);
        let last_done = shards.iter_mut().filter_map(|s| s.done_at.take()).max();
        debug_assert!(
            shards.len() == 1
                || shards
                    .iter()
                    .all(|s| s.unfinished > 0 || s.queue.is_empty()),
            "a finished shard holds queued events"
        );
        if let (true, Some(end)) = (done, last_done) {
            return Some(end);
        }
        let (t, _) = self.virq;
        if t > self.cutoff {
            // The first event past the cutoff — the VIRQ or some host's
            // next — counts as dispatched and stops every VM.
            let now = shards
                .iter()
                .filter_map(|s| s.queue.peek_due())
                .fold(t, SimTime::min);
            self.dispatched += 1;
            self.truncated = true;
            set_clocks(shards, now);
            for s in shards.iter_mut() {
                s.stop_all(ctx, now);
            }
            return Some(now);
        }
        self.dispatched += 1;
        set_clocks(shards, t);
        self.virq_all(shards, ctx, t);
        if done {
            // Only a spec without VMs gets here: the first VIRQ ends it.
            return Some(t);
        }
        self.open_window(shards);
        None
    }

    /// The per-interval sampling VIRQ: every host in host order runs
    /// hypervisor → dom0 TKM → MM → targets back down, then the fleet
    /// scheduler compares hosts. Series recording (single-host) sits
    /// between the host's interval close and the fleet step.
    fn virq_all(&mut self, shards: &mut [Shard], ctx: &Ctx, now: SimTime) {
        for s in shards.iter_mut() {
            for h in s.first_host..s.first_host + s.hosts.len() {
                s.virq_host(h, now, ctx, self);
            }
        }
        if let Some(series) = &mut self.series {
            let shard = &shards[0];
            let host = &shard.hosts[0];
            for (i, rt) in shard.vms.iter().enumerate() {
                let id = rt.as_ref().expect("one host holds every VM").spec.config.id;
                series.used[i].push(now, host.hyp.tmem_used_by(id) as f64);
                series.target[i].push(now, host.hyp.target_of(id).unwrap_or(0) as f64);
            }
        }
        self.fleet_step(shards, ctx, now);
    }

    /// The fleet half of the VIRQ: pressure vectors, stranded-capacity
    /// accounting and (at most) one migration decision. No-op on
    /// single-host runs.
    fn fleet_step(&mut self, shards: &mut [Shard], ctx: &Ctx, now: SimTime) {
        let Some(fleet) = self.fleet.as_mut() else {
            return;
        };
        let resident = || shards.iter().flat_map(|s| s.vms.iter().flatten());
        let mut failed = vec![0u64; self.nhosts];
        for rt in resident() {
            failed[rt.host] += rt.kernel.stats().failed_puts;
        }
        let host = |h: usize| host_of(shards, h);
        let mut loads = Vec::with_capacity(self.nhosts);
        for (h, failed) in failed.iter().enumerate() {
            let hyp = &host(h).hyp;
            let info = hyp.node_info();
            let delta = failed.saturating_sub(fleet.prev_failed[h]);
            fleet.prev_failed[h] = *failed;
            loads.push(HostLoad {
                used: (info.total_tmem - info.free_tmem) + hyp.far_used(),
                capacity: info.total_tmem,
                failed_puts_delta: delta,
            });
        }
        fleet.stranded += stranded_pages(&loads);
        if fleet.in_flight.is_some() {
            // One migration in flight fleet-wide; the scheduler's
            // interval clock pauses with it.
            return;
        }
        let Some(mgr) = fleet.mgr.as_mut() else {
            return;
        };
        let placements: Vec<VmPlacement> = (0..shards[0].vms.len())
            .filter_map(|i| shards.iter().find_map(|s| s.vms[i].as_ref()))
            .filter(|rt| {
                matches!(rt.state, VmState::Running | VmState::Sleeping)
                    && rt.kernel.frontswap_pool().is_some()
            })
            .map(|rt| {
                let id = rt.spec.config.id;
                let hyp = &host(rt.host).hyp;
                VmPlacement {
                    vm: id,
                    host: rt.host,
                    used: hyp.tmem_used_by(id) + hyp.far_used_by(id),
                }
            })
            .collect();
        if let Some(plan) = mgr.decide(&loads, &placements) {
            self.execute_migration(shards, ctx, plan, now);
        }
    }

    /// Execute one migration plan: pause the VM, rip its pool out of the
    /// source host, re-admit it on the destination, move its queued event
    /// to the destination's queue, and schedule the resume for when the
    /// modelled network transfer completes. The page hand-off is
    /// synchronous (state is never split across hosts); only *time* passes
    /// while the VM is `Migrating`.
    fn execute_migration(
        &mut self,
        shards: &mut [Shard],
        ctx: &Ctx,
        plan: MigrationPlan,
        now: SimTime,
    ) {
        let (vm, src, dst) = (plan.vm, plan.from, plan.to);
        let (from, to) = (shard_of(shards, src), shard_of(shards, dst));
        let i = shards[from]
            .vms
            .iter()
            .position(|rt| rt.as_ref().is_some_and(|rt| rt.spec.config.id == vm))
            .expect("plan names a VM on its source host");
        let mut rt = shards[from].depart(i, now);
        debug_assert_eq!(rt.host, src, "plan is stale");
        let pool = rt
            .kernel
            .frontswap_pool()
            .expect("migratable VMs run frontswap");
        let source = shards[from].host_mut(src);
        // Ephemeral (cleancache) pools do not survive migration: tmem may
        // drop ephemeral pages at any time, and shipping a cache across the
        // interconnect would cost transfer time to move bytes the guest can
        // re-read from its own disk. Destroy them at the source (the
        // `PoolDestroy` event keeps replay exact) and register fresh, empty
        // pools on the destination for the owning workload to rebind to.
        let ephemeral: Vec<tmem::key::PoolId> = source
            .hyp
            .pools_owned_by(vm)
            .into_iter()
            .filter(|&(p, kind)| kind == PoolKind::Ephemeral && p != pool)
            .map(|(p, _)| p)
            .collect();
        for &p in &ephemeral {
            source.hyp.destroy_pool(p);
        }
        let export = source
            .hyp
            .migrate_export(pool)
            .expect("pool exists on the source");
        let local_n = export.local.len() as u64;
        let far_n = export.far.len() as u64;
        let purged = export.purged;
        let ram = rt.spec.config.ram_pages();
        source.tracer.emit(|| {
            (
                Some(vm.0),
                Payload::MigrateOut {
                    pages: local_n,
                    far: far_n,
                    purged,
                    ram,
                },
            )
        });
        let led = source.hyp.faults_mut().ledger_mut();
        led.migrations_out += 1;
        led.migrate_pages += local_n + far_n;
        led.migrate_purged += purged;
        assert!(
            source.hyp.unregister_vm(vm),
            "VM was registered on the source"
        );

        let dest = shards[to].host_mut(dst);
        dest.hyp.register_vm(rt.spec.config.clone());
        let tkm = GuestTkm::init(&mut dest.hyp, vm, PoolKind::Persistent)
            .expect("fresh pool on the destination");
        let new_pool = tkm.pool();
        rt.kernel.attach_frontswap(new_pool);
        for old in ephemeral {
            let fresh = dest
                .hyp
                .new_pool(vm, PoolKind::Ephemeral)
                .expect("fresh cleancache pool on the destination");
            if let Some(w) = rt.workload.as_mut() {
                w.rebind_pool(old, fresh);
            }
        }
        let mut pages = export.local;
        pages.extend(export.far);
        let outcome = dest.hyp.import_pages(new_pool, pages);
        let spilled_n = outcome.spilled.len() as u64;
        if spilled_n > 0 {
            // Overflow that fits neither the destination's tmem nor its far
            // tier goes back to the VM's swap device — the same
            // swap-consistent path slow reclaim uses, so the guest page
            // table stays coherent.
            rt.kernel.tmem_reclaimed(&outcome.spilled);
            dest.disk.write_back(now, spilled_n, &ctx.cfg.cost);
        }
        dest.tracer.emit(|| {
            (
                Some(vm.0),
                Payload::MigrateIn {
                    pages: outcome.stored,
                    far: outcome.stored_far,
                    spilled: spilled_n,
                },
            )
        });
        let led = dest.hyp.faults_mut().ledger_mut();
        led.migrations_in += 1;
        led.migrate_spilled += spilled_n;

        rt.host = dst;
        if from != to {
            // The VM's queued Step or Wake keeps its number, so it ties
            // with the destination's events as it would in one queue.
            for (due, seq, event) in shards[from].queue.remove_where(|e| e.vm() == i) {
                shards[to].queue.insert(due, seq, event);
            }
        }
        shards[to].arrive(i, rt);
        let fleet = self.fleet.as_mut().expect("migration only in fleet runs");
        let (_start, done_at) = fleet.link.enqueue(now, ram + local_n + far_n);
        fleet.in_flight = Some(i);
        fleet.migrations += 1;
        shards[to]
            .queue
            .insert(done_at, self.next_seq, Event::MigrateDone(i));
        self.next_seq += 1;
    }

    /// Seal the ledgers and split the VMs into per-host results.
    fn finish(mut self, shards: &mut [Shard], ctx: &Ctx, end_time: SimTime) -> ClusterResult {
        set_clocks(shards, end_time);
        let events = self.dispatched + shards.iter().map(|s| s.dispatched).sum::<u64>();
        let fleet = match &self.fleet {
            Some(f) => FleetMetrics {
                hosts: self.nhosts,
                migrations: f.migrations,
                migration_downtime: f.downtime,
                cross_host_transfers: f.link.transfers,
                cross_host_pages: f.link.pages_moved,
                net_queue_wait: f.link.queue_wait,
                stranded_page_intervals: f.stranded,
            },
            None => FleetMetrics::single_host(),
        };
        let mut host_results = Vec::with_capacity(self.nhosts);
        for s in shards.iter_mut() {
            // Global VM order within each host.
            let mut vms: Vec<VmRuntime> = s.vms.iter_mut().filter_map(Option::take).collect();
            for (k, mut host) in std::mem::take(&mut s.hosts).into_iter().enumerate() {
                let h = s.first_host + k;
                // One final integrity sweep when the data-fault layer is
                // armed: corruption injected after the last periodic scrub
                // is still detected (and quarantined) before the ledger is
                // sealed, so every injected corruption ends the run as
                // detected — recovered or quarantined, never latent.
                if host.hyp.faults().data_plane() {
                    host.hyp.scrub();
                }
                // Fold MM-side degradation bookkeeping into the ledger.
                if let Some(mm) = &host.mm {
                    let ledger = host.hyp.faults_mut().ledger_mut();
                    ledger.seq_gaps = mm.seq_gaps();
                    ledger.snapshots_discarded = mm.snapshots_discarded();
                }
                let (mine, rest): (Vec<VmRuntime>, Vec<VmRuntime>) =
                    vms.into_iter().partition(|rt| rt.host == h);
                vms = rest;
                let final_tmem_used = mine
                    .iter()
                    .map(|rt| host.hyp.tmem_used_by(rt.spec.config.id))
                    .collect();
                let final_far_used = mine
                    .iter()
                    .map(|rt| host.hyp.far_used_by(rt.spec.config.id))
                    .collect();
                let vm_results = mine
                    .into_iter()
                    .map(|rt| VmResult {
                        name: rt.spec.config.name.clone(),
                        vm_id: rt.spec.config.id,
                        runs: rt.runs,
                        milestones: rt.milestones,
                        kernel_stats: *rt.kernel.stats(),
                        stopped_early: rt.stopped_early,
                    })
                    .collect();
                host_results.push(RunResult {
                    scenario: ctx.scenario_name.clone(),
                    policy: ctx.policy_name.clone(),
                    policy_kind: ctx.policy_kind,
                    vm_results,
                    series: if h == 0 { self.series.take() } else { None },
                    mm_cycles: host.mm.as_ref().map(|m| m.cycles()).unwrap_or(0),
                    mm_transmissions: host.mm.as_ref().map(|m| m.transmissions()).unwrap_or(0),
                    disk_reads: host.disk.reads(),
                    disk_writes: host.disk.writes(),
                    disk_read_wait: host.disk.read_wait_total(),
                    disk_throttle: host.disk.throttle_total(),
                    end_time,
                    events,
                    truncated: self.truncated,
                    faults: host.hyp.faults().ledger().clone(),
                    final_tmem_used,
                    final_far_used,
                    trace: host.tracer.finish(),
                });
            }
        }
        ClusterResult {
            host_results,
            fleet,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> RunConfig {
        RunConfig {
            scale: 0.01,
            seed,
            record_series: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn scenario1_completes_under_greedy() {
        let r = run_scenario(ScenarioKind::Scenario1, PolicyKind::Greedy, &tiny_cfg(1));
        assert!(!r.truncated);
        assert_eq!(r.vm_results.len(), 3);
        for vm in &r.vm_results {
            assert_eq!(vm.completions().len(), 2, "two analytics runs per VM");
            assert!(
                vm.kernel_stats.evictions_to_tmem > 0,
                "pressure reached tmem"
            );
        }
    }

    #[test]
    fn no_tmem_never_touches_tmem() {
        let r = run_scenario(ScenarioKind::Scenario2, PolicyKind::NoTmem, &tiny_cfg(2));
        assert!(!r.truncated);
        for vm in &r.vm_results {
            assert_eq!(vm.kernel_stats.evictions_to_tmem, 0);
            assert!(vm.kernel_stats.evictions_to_disk > 0);
        }
        assert_eq!(r.mm_cycles, 0, "no MM process for no-tmem");
    }

    #[test]
    fn deterministic_replay() {
        let a = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::SmartAlloc { p: 2.0 },
            &tiny_cfg(7),
        );
        let b = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::SmartAlloc { p: 2.0 },
            &tiny_cfg(7),
        );
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
        let da: Vec<_> = a.vm_results.iter().map(|v| v.completions()).collect();
        let db: Vec<_> = b.vm_results.iter().map(|v| v.completions()).collect();
        assert_eq!(da, db);
    }

    #[test]
    fn usemem_scenario_triggers_fire() {
        let r = run_scenario(
            ScenarioKind::UsememScenario,
            PolicyKind::Greedy,
            &tiny_cfg(3),
        );
        assert!(!r.truncated);
        // VM3 must have started (trigger) and everything stops on its 6th
        // allocation attempt.
        assert!(r.vm_results[2]
            .milestones
            .iter()
            .any(|(l, _)| l.starts_with("alloc")));
        for vm in &r.vm_results {
            assert!(
                vm.stopped_early,
                "{} must be stopped by the trigger",
                vm.name
            );
        }
        // VM3 started strictly after VM1/VM2.
        let vm3_first = r.vm_results[2].milestones.first().unwrap().1;
        let vm1_first = r.vm_results[0].milestones.first().unwrap().1;
        assert!(vm3_first > vm1_first);
    }

    #[test]
    fn series_are_recorded_per_interval() {
        let r = run_scenario(
            ScenarioKind::Scenario2,
            PolicyKind::StaticAlloc,
            &tiny_cfg(4),
        );
        let series = r.series.expect("requested");
        assert_eq!(series.used.len(), 3);
        assert!(series.used[0].len() > 2, "multiple samples");
        // Static policy: targets equal across VMs once set.
        let t_end = series.target[0].points().last().unwrap().1;
        assert!(series
            .target
            .iter()
            .all(|s| s.points().last().unwrap().1 == t_end));
    }

    #[test]
    fn mm_suppression_keeps_transmissions_below_cycles() {
        let r = run_scenario(
            ScenarioKind::Scenario1,
            PolicyKind::StaticAlloc,
            &tiny_cfg(5),
        );
        assert!(r.mm_cycles > 2);
        assert!(
            r.mm_transmissions < r.mm_cycles,
            "static-alloc must suppress unchanged targets ({} vs {})",
            r.mm_transmissions,
            r.mm_cycles
        );
    }

    /// The worker count is invisible: each cell gives the same `Debug`
    /// form of every host's result and of the fleet metrics, and the same
    /// trace JSONL per host, at 1, 2 and 3 workers. The cells are the
    /// 2x8 fleet-report golden's, the 2x8 mm-crash and bitrot chaos
    /// cells, the far-tier spill cell, a 3-host cell and the usemem cell
    /// whose triggers cross hosts.
    #[test]
    fn worker_count_changes_no_output() {
        use crate::chaos::shipped_profiles;
        use crate::spec::{Arrival, FleetParams, ScenarioSpec, WorkloadMix};
        use sim_core::faults::FaultProfile;
        use sim_core::trace::{TraceConfig, TraceHeader};
        use smartmem_core::FleetConfig;

        let traced = |faults: &str| RunConfig {
            seed: 20260807,
            faults: shipped_profiles()
                .into_iter()
                .find(|p| p.name == faults)
                .map_or_else(FaultProfile::none, |p| p.profile),
            record_series: true,
            trace: Some(TraceConfig::default()),
            ..RunConfig::default()
        };
        let fleet = |vms: u32, hosts: usize, cfg: &RunConfig| -> ScenarioSpec {
            let kind = ScenarioKind::Scenario5(FleetParams {
                vms,
                footprint_mb: 8,
                mix: WorkloadMix::Balanced,
                arrival: Arrival::Staggered { gap_ms: 250 },
            });
            let mut spec = build_scenario(kind, cfg);
            spec.name = crate::dsl::cluster_scenario_name(&spec.name, hosts);
            spec
        };
        let cluster = |hosts: usize, far_pages: Option<u64>| ClusterConfig {
            hosts,
            net: NetModel::datacenter(),
            far: far_pages.map(|capacity_pages| FarConfig { capacity_pages }),
            migration: Some(FleetConfig {
                divergence_threshold: 0.05,
                cooldown_intervals: 1,
                min_history: 2,
            }),
        };
        let smart = PolicyKind::SmartAlloc { p: 2.0 };
        let mut cells = Vec::new();
        let cfg = traced("off");
        let spec = fleet(8, 2, &cfg);
        let far = (spec.tmem_pages() / 2 / 8).max(1);
        cells.push(("fleet_report_2x8", spec, smart, cfg, cluster(2, Some(far))));
        for chaos in ["mm-crash", "bitrot"] {
            let cfg = traced(chaos);
            cells.push((chaos, fleet(8, 2, &cfg), smart, cfg, cluster(2, None)));
        }
        let cfg = traced("off");
        let mut spec = fleet(8, 2, &cfg);
        spec.tmem_bytes = 2 * 16 * 4096;
        cells.push((
            "far spill",
            spec,
            PolicyKind::Greedy,
            cfg,
            cluster(2, Some(4096)),
        ));
        let cfg = RunConfig {
            seed: 7,
            ..traced("off")
        };
        let spec = fleet(9, 3, &cfg);
        let far = (spec.tmem_pages() / 3 / 4).max(1);
        cells.push(("3 hosts", spec, smart, cfg, cluster(3, Some(far))));
        let cfg = RunConfig {
            scale: 0.125,
            seed: 42,
            ..traced("off")
        };
        let src = format!(
            "{}\n[cluster]\nhosts = 2\n",
            include_str!("../../../scenarios/usemem.toml")
        );
        let doc = crate::dsl::parse_scenario_src(&src, &cfg).expect("usemem.toml on 2 hosts");
        let triggers = doc.cluster.expect("[cluster]");
        cells.push(("cross-host triggers", doc.spec, smart, cfg, triggers));

        for (cell, spec, policy, cfg, cluster) in cells {
            let runs: Vec<(ClusterResult, Vec<String>)> = [1, 2, 3]
                .into_iter()
                .map(|workers| {
                    let mut cr = run_cluster_on(spec.clone(), policy, &cfg, &cluster, workers);
                    let header = TraceHeader {
                        scenario: spec.name.clone(),
                        policy: policy.to_string(),
                        seed: cfg.seed,
                    };
                    let jsonl = cr
                        .host_results
                        .iter_mut()
                        .map(|r| r.trace.take().expect("traced").to_jsonl(&header, None))
                        .collect();
                    (cr, jsonl)
                })
                .collect();
            let (one, one_jsonl) = &runs[0];
            assert!(!one.host_results[0].truncated, "{cell}");
            if cell != "cross-host triggers" {
                assert!(one.fleet.migrations > 0, "{cell}: no migration to hand off");
            }
            for (workers, (cr, jsonl)) in runs.iter().enumerate().skip(1) {
                let workers = workers + 1;
                assert_eq!(
                    format!("{:?}", cr.host_results),
                    format!("{:?}", one.host_results),
                    "{cell}: results differ at {workers} workers"
                );
                assert_eq!(
                    cr.fleet, one.fleet,
                    "{cell}: fleet metrics at {workers} workers"
                );
                assert!(
                    jsonl == one_jsonl,
                    "{cell}: a host's trace JSONL differs at {workers} workers"
                );
            }
        }
    }

    /// A host that panics ends the run on whichever thread it runs: the
    /// barrier does not wait for a dead worker, and no worker outlives the
    /// run. The bad VM runs a usemem with a zero step, which `Usemem::new`
    /// refuses when the VM starts; VM 0 is on host 0 (the calling thread)
    /// and VM 1 on host 1 (a worker at 2 workers).
    #[test]
    fn a_panicking_host_ends_the_run() {
        use crate::spec::{Arrival, FleetParams, WorkloadMix, WorkloadSpec};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;

        let cfg = tiny_cfg(9);
        let kind = ScenarioKind::Scenario5(FleetParams {
            vms: 2,
            footprint_mb: 8,
            mix: WorkloadMix::Paging,
            arrival: Arrival::Simultaneous,
        });
        let cluster = ClusterConfig {
            hosts: 2,
            ..ClusterConfig::default()
        };
        for bad in [0, 1] {
            let mut spec = build_scenario(kind, &cfg);
            let ProgramStep::Run(WorkloadSpec::Usemem(u)) = &mut spec.vms[bad].program[0] else {
                panic!("a paging fleet runs usemem");
            };
            u.step_bytes = 0;
            for workers in [1, 2] {
                let (spec, cfg, cluster) = (spec.clone(), cfg.clone(), cluster.clone());
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        run_cluster_on(spec, PolicyKind::Greedy, &cfg, &cluster, workers)
                    }));
                    tx.send(run.is_err())
                        .expect("the test waits for the verdict");
                });
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(60)),
                    Ok(true),
                    "VM {bad} at {workers} workers must end the run with a panic"
                );
            }
        }
    }

    #[test]
    fn two_host_cluster_shards_capacity_and_vms() {
        let spec = build_scenario(ScenarioKind::Scenario1, &tiny_cfg(6));
        let cluster = ClusterConfig {
            hosts: 2,
            ..ClusterConfig::default()
        };
        let r = run_cluster(spec, PolicyKind::Greedy, &tiny_cfg(6), &cluster);
        assert_eq!(r.host_results.len(), 2);
        assert_eq!(r.fleet.hosts, 2);
        assert_eq!(r.fleet.migrations, 0, "no scheduler configured");
        // Scenario 1 has 3 VMs: round-robin puts 2 on host 0, 1 on host 1.
        assert_eq!(r.host_results[0].vm_results.len(), 2);
        assert_eq!(r.host_results[1].vm_results.len(), 1);
        for hr in &r.host_results {
            assert!(!hr.truncated);
            for vm in &hr.vm_results {
                assert_eq!(vm.completions().len(), 2);
            }
        }
    }
}
