//! Host cost per call. Each driver times one layer's public function in
//! steady state (warm-up excluded), in a stack sized like the workload,
//! and reports the median nanoseconds per call over its timed batches.
//! Every batch runs inside a span.

use crate::spans::{SpanId, Spans};
use crate::workload::{class_of, first_run, Plan, Workload, POLICY};
use guest_os::{GuestConfig, GuestKernel, GuestTkm, Machine, SharedDisk, StepBudget};
use scenarios::spec::{build_scenario, ScenarioKind, WorkloadSpec};
use sim_core::cost::CostModel;
use sim_core::event::EventQueue;
use sim_core::rng::SplitMix64;
use sim_core::time::{SimDuration, SimTime};
use smartmem_core::MemoryManager;
use std::time::{Duration, Instant};
use tmem::backend::{PoolKind, TmemBackend};
use tmem::key::{ObjectId, PoolId, VmId};
use tmem::page::Fingerprint;
use tmem::stats::MmTarget;
use workloads::fileserver::FileServerConfig;
use workloads::graph::GraphAnalyticsConfig;
use workloads::inmem::InMemoryAnalyticsConfig;
use workloads::traits::StepOutcome;
use workloads::usemem::UsememConfig;
use xen_sim::hypervisor::Hypervisor;
use xen_sim::vm::VmConfig;

/// The workload classes `workloads.step_ns` is reported for.
pub const CLASSES: [&str; 4] = ["inmem", "graph", "fileserver", "usemem"];

/// Footprint of the stand-in VM for a class the workload does not run.
const STAND_IN_MB: u64 = 64;
const TINY_STAND_IN_MB: u64 = 4;

/// Host time each driver may spend in timed batches.
const DRIVER_BUDGET: Duration = Duration::from_millis(300);
const TINY_DRIVER_BUDGET: Duration = Duration::from_millis(20);

/// How big the drivers' stacks are: like one host of the workload.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// VMs sharing one host's tmem.
    pub vms_per_host: u32,
    /// One host's tmem shard, pages.
    pub shard_pages: u64,
    /// Pending events in the run loop's queue (every VM plus the VIRQ).
    pub queue_depth: usize,
    /// `(class, workload, guest RAM bytes)` for each class in [`CLASSES`]:
    /// the workload's own VM where it runs the class, a small stand-in
    /// otherwise.
    pub classes: Vec<(&'static str, WorkloadSpec, u64)>,
    /// Share of the workload's VMs running each class.
    pub weights: Vec<(&'static str, f64)>,
    /// Guest RAM of the workload's first VM, pages.
    pub vm_ram_pages: u64,
    /// Timed host time per driver.
    pub budget: Duration,
}

fn stand_in(class: &str, mb: u64) -> (WorkloadSpec, u64) {
    let fp = mb << 20;
    let ws = match class {
        "inmem" => WorkloadSpec::InMem(InMemoryAnalyticsConfig::with_footprint(fp, 0)),
        "graph" => WorkloadSpec::Graph(GraphAnalyticsConfig::with_footprint(fp, 0)),
        "fileserver" => {
            WorkloadSpec::FileServer(FileServerConfig::with_footprint(fp, 2 * fp / 4096, 0))
        }
        _ => WorkloadSpec::Usemem(UsememConfig {
            start_bytes: fp / 8,
            step_bytes: fp / 8,
            max_bytes: fp,
            compute_per_page: SimDuration::from_micros(2),
            max_steady_passes: 2,
        }),
    };
    (ws, fp * 4 / 5)
}

impl Sizing {
    /// Size the drivers like one host of `plan`'s workload.
    pub fn of(plan: &Plan) -> Result<Sizing, String> {
        let cfg = plan.config();
        let (specs, hosts) = match plan.workload {
            Workload::Paper => (
                ScenarioKind::ALL.map(|k| build_scenario(k, &cfg)).to_vec(),
                1,
            ),
            _ => {
                let (spec, cluster) = plan.fleet_spec(&cfg)?;
                (vec![spec], cluster.hosts as u64)
            }
        };
        let first = &specs[0];
        let vms = first.vms.len() as u64;
        let mut found: Vec<(&'static str, WorkloadSpec, u64)> = Vec::new();
        let mut weights: Vec<(&'static str, f64)> = Vec::new();
        let mut total = 0.0;
        for spec in &specs {
            for vm in &spec.vms {
                let Some(ws) = first_run(vm) else {
                    continue;
                };
                let class = class_of(ws);
                if !found.iter().any(|(c, _, _)| *c == class) {
                    found.push((class, ws.clone(), vm.config.ram_bytes));
                    weights.push((class, 0.0));
                }
                let w = weights
                    .iter_mut()
                    .find(|(c, _)| *c == class)
                    .expect("pushed");
                w.1 += 1.0;
                total += 1.0;
            }
        }
        for w in &mut weights {
            w.1 /= total;
        }
        let mb = if plan.tiny {
            TINY_STAND_IN_MB
        } else {
            STAND_IN_MB
        };
        let classes = CLASSES
            .iter()
            .map(|&c| match found.iter().find(|(k, _, _)| *k == c) {
                Some(f) => f.clone(),
                None => {
                    let (ws, ram) = stand_in(c, mb);
                    (c, ws, ram)
                }
            })
            .collect();
        Ok(Sizing {
            vms_per_host: u32::try_from(vms / hosts).expect("VM count fits u32"),
            shard_pages: first.tmem_pages() / hosts,
            queue_depth: first.vms.len() + 1,
            classes,
            weights,
            vm_ram_pages: first.vms[0].config.ram_pages(),
            budget: if plan.tiny {
                TINY_DRIVER_BUDGET
            } else {
                DRIVER_BUDGET
            },
        })
    }
}

/// Run `batch` `warm` times untimed, then until `budget` of host time has
/// gone into timed batches (at least five); each batch returns `(calls,
/// time inside the calls)`. Returns the median ns per call over the timed
/// batches.
fn sample(
    spans: &Spans,
    parent: Option<SpanId>,
    name: &str,
    warm: usize,
    budget: Duration,
    mut batch: impl FnMut() -> (u64, Duration),
) -> f64 {
    let span = format!("driver:{name}");
    for _ in 0..warm {
        spans.time(&span, parent, |_| batch());
    }
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < 5 || started.elapsed() < budget {
        let (calls, t) = spans.time(&span, parent, |_| batch());
        if calls > 0 {
            per_call.push(t.as_nanos() as f64 / calls as f64);
        }
    }
    median(&mut per_call)
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A one-VM stack: hypervisor, registered VM, TKM pool (when frontswap is
/// on) and guest kernel.
struct SoloVm {
    hyp: Hypervisor<Fingerprint>,
    kernel: GuestKernel,
    disk: SharedDisk,
    cost: CostModel,
    now: SimTime,
}

impl SoloVm {
    fn new(ram_pages: u64, tmem_pages: u64, frontswap: bool) -> Self {
        let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(tmem_pages, tmem_pages);
        hyp.register_vm(VmConfig::new(VmId(1), "VM1", ram_pages * 4096, 1));
        let mut kernel = GuestKernel::new(GuestConfig {
            vm: VmId(1),
            ram_pages,
            os_reserved_pages: (ram_pages / 5).max(2),
            readahead_pages: 32,
            frontswap_enabled: frontswap,
        });
        if frontswap {
            let tkm = GuestTkm::init(&mut hyp, VmId(1), PoolKind::Persistent)
                .expect("a fresh hypervisor has room for one pool");
            kernel.attach_frontswap(tkm.pool());
        }
        SoloVm {
            hyp,
            kernel,
            disk: SharedDisk::default(),
            cost: CostModel::hdd(),
            now: SimTime::ZERO,
        }
    }

    /// Run `f` against a machine with a fresh budget; advance the clock by
    /// what it charged. Returns `f`'s value and the host time it took.
    fn with_machine<T>(
        &mut self,
        quantum: SimDuration,
        f: impl FnOnce(&mut GuestKernel, &mut Machine<'_>) -> T,
    ) -> (T, Duration) {
        let mut budget = StepBudget::new(quantum);
        let t = Instant::now();
        let v = {
            let mut m = Machine {
                hyp: &mut self.hyp,
                disk: &mut self.disk,
                cost: &self.cost,
                now: self.now,
                budget: &mut budget,
            };
            f(&mut self.kernel, &mut m)
        };
        let el = t.elapsed();
        self.now += budget.elapsed(1.0);
        (v, el)
    }
}

/// `workloads.step_ns.<class>`: `Workload::step` with a fresh budget per
/// call, on a solo-VM stack that owns the workload's tmem shard.
pub fn step_ns(sz: &Sizing, class: &str, seed: u64, spans: &Spans, parent: Option<SpanId>) -> f64 {
    let (_, spec, ram) = sz
        .classes
        .iter()
        .find(|(c, _, _)| *c == class)
        .expect("every class is sized");
    let quantum = scenarios::config::RunConfig::default().quantum;
    let mut vm = SoloVm::new(ram / 4096, sz.shard_pages, true);
    let mut runs = 0;
    let mut w = spec.build(seed);
    sample(
        spans,
        parent,
        &format!("step.{class}"),
        2,
        sz.budget,
        || {
            let mut t = Duration::ZERO;
            for _ in 0..STEPS_PER_BATCH {
                let (out, dt) = vm.with_machine(quantum, |k, m| w.step(k, m));
                t += dt;
                w.drain_milestones();
                if out == StepOutcome::Done {
                    runs += 1;
                    w = spec.build(seed + runs);
                }
            }
            (STEPS_PER_BATCH, t)
        },
    )
}

/// Workload steps per timed batch of the step driver.
const STEPS_PER_BATCH: u64 = 32;

/// `guest-os.touch_ns.{resident,tmem,disk}`: `GuestKernel::touch` per
/// resident touch, per tmem fault and per disk fault (read-ahead and the
/// evictions each fault forces included).
pub fn touch_ns(sz: &Sizing, spans: &Spans, parent: Option<SpanId>) -> [f64; 3] {
    let ram = sz.vm_ram_pages;
    let big = SimDuration::from_secs(1 << 30);
    let frames = ram - (ram / 5).max(2);

    let mut vm = SoloVm::new(ram, 4 * ram, true);
    let base = vm.kernel.alloc(frames / 2);
    vm.with_machine(big, |k, m| {
        (0..frames / 2).for_each(|i| k.touch(base.offset(i), true, m))
    });
    let batch = (frames / 2).min(4096);
    let mut at = 0;
    let resident = sample(spans, parent, "touch.resident", 2, sz.budget, || {
        let (_, t) = vm.with_machine(big, |k, m| {
            for _ in 0..batch {
                k.touch(base.offset(at), false, m);
                at = (at + 1) % (frames / 2);
            }
        });
        (batch, t)
    });

    let faults = |frontswap: bool, name: &str| {
        let mut vm = SoloVm::new(ram, 4 * ram, frontswap);
        let n = 2 * frames;
        let base = vm.kernel.alloc(n);
        vm.with_machine(big, |k, m| {
            (0..n).for_each(|i| k.touch(base.offset(i), true, m))
        });
        let batch = n.min(4096);
        let mut at = 0;
        sample(spans, parent, name, 2, sz.budget, || {
            let before = *vm.kernel.stats();
            let (_, t) = vm.with_machine(big, |k, m| {
                for _ in 0..batch {
                    k.touch(base.offset(at), false, m);
                    at = (at + 1) % n;
                }
            });
            let after = vm.kernel.stats();
            let calls = if frontswap {
                after.tmem_faults - before.tmem_faults
            } else {
                after.disk_faults - before.disk_faults
            };
            (calls, t)
        })
    };
    let tmem = faults(true, "touch.tmem");
    let disk = faults(false, "touch.disk");
    [resident, tmem, disk]
}

/// A hypervisor of the workload's host: every VM registered with a
/// persistent pool, targets applied (an even split of the shard), and
/// every pool half full.
fn loaded_host(sz: &Sizing) -> (Hypervisor<Fingerprint>, Vec<PoolId>, u64) {
    let n = u64::from(sz.vms_per_host.max(1));
    let target = (sz.shard_pages / n).max(8);
    let mut hyp: Hypervisor<Fingerprint> = Hypervisor::new(sz.shard_pages, target);
    let mut pools = Vec::new();
    let mut targets = Vec::new();
    for v in 1..=n {
        let id = VmId(u32::try_from(v).expect("VM id fits u32"));
        hyp.register_vm(VmConfig::new(id, format!("VM{v}"), 1 << 30, 1));
        pools.push(hyp.new_pool(id, PoolKind::Persistent).expect("fresh pool"));
        targets.push(MmTarget {
            vm_id: id,
            mm_target: target,
        });
    }
    hyp.set_targets(&targets);
    for &p in &pools {
        for i in 0..target / 2 {
            let _ = hyp.put(p, ObjectId(1), i as u32, Fingerprint(i));
        }
    }
    (hyp, pools, target)
}

/// `xen-sim.put_ns` and `xen-sim.get_ns`: `Hypervisor::put`/`get` on a
/// loaded host with targets applied; every put is admitted and every get
/// hits (and frees its frame).
pub fn hypervisor_ns(sz: &Sizing, spans: &Spans, parent: Option<SpanId>) -> [f64; 2] {
    let (mut hyp, pools, target) = loaded_host(sz);
    let pool = pools[0];
    let batch = (target / 4).clamp(1, 4096) as u32;
    let mut obj = 2u64;
    let mut put_ns = Vec::new();
    let get = sample(spans, parent, "hypervisor.put_get", 2, sz.budget, || {
        obj += 1;
        let t = Instant::now();
        for i in 0..batch {
            let ok = hyp.put(pool, ObjectId(obj), i, Fingerprint(obj ^ u64::from(i)));
            std::hint::black_box(ok.is_ok());
        }
        put_ns.push(t.elapsed().as_nanos() as f64 / f64::from(batch));
        let t = Instant::now();
        for i in 0..batch {
            std::hint::black_box(hyp.get(pool, ObjectId(obj), i));
        }
        (u64::from(batch), t.elapsed())
    });
    // The two warm-up batches' puts are not timed samples.
    let mut puts = put_ns.split_off(2.min(put_ns.len()));
    [median(&mut puts), get]
}

/// `tmem.put_get_ns` (persistent churn on a half-full shard) and
/// `tmem.ephemeral_ns` (put into a full ephemeral pool, which evicts, then
/// get): `TmemBackend<Fingerprint>` at the workload's shard size, ns per
/// put+get pair.
pub fn backend_ns(sz: &Sizing, spans: &Spans, parent: Option<SpanId>) -> [f64; 2] {
    let cap = sz.shard_pages.max(64);
    let batch = (cap / 4).clamp(1, 4096) as u32;

    let mut b: TmemBackend<Fingerprint> = TmemBackend::new(cap);
    let pool = b
        .new_pool(VmId(1), PoolKind::Persistent)
        .expect("fresh pool");
    for i in 0..cap / 2 {
        b.put(pool, ObjectId(i >> 16), (i & 0xffff) as u32, Fingerprint(i))
            .expect("half the shard is free");
    }
    let mut obj = 1u64 << 40;
    let persistent = sample(spans, parent, "backend.persistent", 2, sz.budget, || {
        obj += 1;
        let t = Instant::now();
        for i in 0..batch {
            b.put(pool, ObjectId(obj), i, Fingerprint(u64::from(i)))
                .expect("churn stays below capacity");
        }
        for i in 0..batch {
            std::hint::black_box(b.get(pool, ObjectId(obj), i).expect("just put"));
        }
        (u64::from(batch), t.elapsed())
    });
    drop(b);

    let mut b: TmemBackend<Fingerprint> = TmemBackend::new(cap);
    let pool = b
        .new_pool(VmId(1), PoolKind::Ephemeral)
        .expect("fresh pool");
    for i in 0..cap {
        b.put(pool, ObjectId(i >> 16), (i & 0xffff) as u32, Fingerprint(i))
            .expect("ephemeral puts always succeed");
    }
    let mut obj = 1u64 << 40;
    let ephemeral = sample(spans, parent, "backend.ephemeral", 2, sz.budget, || {
        obj += 1;
        let t = Instant::now();
        for i in 0..batch {
            b.put(pool, ObjectId(obj), i, Fingerprint(u64::from(i)))
                .expect("ephemeral puts evict to make room");
        }
        for i in 0..batch {
            std::hint::black_box(b.get(pool, ObjectId(obj), i).ok());
        }
        (u64::from(batch), t.elapsed())
    });
    [persistent, ephemeral]
}

/// `core.on_stats_ns`: `MemoryManager::on_stats` on `Hypervisor::sample`
/// snapshots of a host with the workload's VM count, whose VMs put and get
/// between samples so every snapshot carries fresh counters.
pub fn on_stats_ns(sz: &Sizing, seed: u64, spans: &Spans, parent: Option<SpanId>) -> f64 {
    let (mut hyp, pools, _) = loaded_host(sz);
    let mut mm = MemoryManager::from_kind(POLICY, 128).expect("smart-alloc runs an MM");
    let mut rng = SplitMix64::new(seed).derive("on_stats");
    let mut now = SimTime::ZERO;
    let mut round = 0u64;
    sample(spans, parent, "mm.on_stats", 5, sz.budget, || {
        round += 1;
        for &p in &pools {
            let n = rng.next_below(64) as u32;
            for i in 0..n {
                let _ = hyp.put(p, ObjectId(2 + round), i, Fingerprint(round));
            }
            for i in 0..n / 2 {
                let _ = hyp.get(p, ObjectId(1 + round), i);
            }
        }
        now += SimDuration::from_secs(1);
        let msg = hyp.sample(now);
        let t = Instant::now();
        let out = mm.on_stats(&msg);
        let el = t.elapsed();
        if let Some((seq, targets)) = out {
            hyp.apply_targets(seq, &targets);
        }
        (1, el)
    })
}

/// `sim-core.queue_ns`: one `EventQueue::pop_batch` plus the
/// `schedule_at` that re-arms each popped event, at the workload's queue
/// depth; ns per event.
pub fn queue_ns(sz: &Sizing, seed: u64, spans: &Spans, parent: Option<SpanId>) -> f64 {
    let mut rng = SplitMix64::new(seed).derive("queue");
    let mut q: EventQueue<usize> = EventQueue::new();
    for e in 0..sz.queue_depth {
        q.schedule_at(SimTime(rng.next_below(1_000_000)), e);
    }
    let mut buf = Vec::new();
    sample(spans, parent, "queue", 2, sz.budget, || {
        let mut calls = 0;
        let t = Instant::now();
        while calls < 4096 {
            let now = q.pop_batch(&mut buf).expect("the queue never drains");
            for e in buf.drain(..) {
                q.schedule_at(
                    now + SimDuration::from_nanos(1 + rng.next_below(1_000_000)),
                    e,
                );
                calls += 1;
            }
        }
        (calls, t.elapsed())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn every_driver_runs_at_tiny_size() {
        for w in Workload::ALL {
            let plan = Plan {
                workload: w,
                seed: 1,
                tiny: true,
            };
            let sz = Sizing::of(&plan).expect("tiny plans size");
            let spans = Spans::default();
            for c in CLASSES {
                assert!(step_ns(&sz, c, 1, &spans, None) > 0.0, "{w:?} step {c}");
            }
            assert!(touch_ns(&sz, &spans, None).iter().all(|&x| x > 0.0));
            assert!(hypervisor_ns(&sz, &spans, None).iter().all(|&x| x > 0.0));
            assert!(backend_ns(&sz, &spans, None).iter().all(|&x| x > 0.0));
            assert!(on_stats_ns(&sz, 1, &spans, None) > 0.0);
            assert!(queue_ns(&sz, 1, &spans, None) > 0.0);
            assert!(spans.totals().keys().any(|k| k == "driver:queue"));
        }
    }
}
