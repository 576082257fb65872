//! Tmem datapath micro-benchmarks: the flat-map fast path against the seed
//! nested-`BTreeMap` implementation (`tmem::reference::ReferenceBackend`),
//! which is kept in-tree precisely to be this baseline.
//!
//! The `smartmem-cli bench-parallel` harness runs the same put/get shape
//! and records the measured ratio under the `micro` key of
//! `BENCH_scaling.json`; this target is the interactive/criterion view of
//! the same comparison.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use tmem::backend::{PoolKind, TmemBackend};
use tmem::key::{ObjectId, VmId};
use tmem::page::Fingerprint;
use tmem::reference::ReferenceBackend;

const OBJECTS: u64 = 8;
const PAGES_PER_OBJECT: u32 = 512;

fn bench_put_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath-put-get");
    g.bench_function("fast/put_get_4k", |b| {
        b.iter_batched(
            || {
                let mut backend: TmemBackend<Fingerprint> = TmemBackend::new(8192);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                (backend, pool)
            },
            |(mut backend, pool)| {
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        backend
                            .put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        black_box(backend.get(pool, ObjectId(o), i).unwrap());
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("reference/put_get_4k", |b| {
        b.iter_batched(
            || {
                let mut backend: ReferenceBackend<Fingerprint> = ReferenceBackend::new(8192);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                (backend, pool)
            },
            |(mut backend, pool)| {
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        backend
                            .put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        black_box(backend.get(pool, ObjectId(o), i).unwrap());
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ephemeral_churn(c: &mut Criterion) {
    // Over-capacity ephemeral stream: every put past the budget evicts the
    // oldest page, exercising the FIFO candidate queue.
    let mut g = c.benchmark_group("datapath-ephemeral-churn");
    g.bench_function("fast/churn_4k_over_1k", |b| {
        b.iter_batched(
            || {
                let mut backend: TmemBackend<Fingerprint> = TmemBackend::new(1024);
                let pool = backend.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
                (backend, pool)
            },
            |(mut backend, pool)| {
                for i in 0..4096u32 {
                    backend
                        .put(
                            pool,
                            ObjectId(u64::from(i) % 4),
                            i,
                            Fingerprint(u64::from(i)),
                        )
                        .unwrap();
                }
                black_box(backend.evictions());
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("reference/churn_4k_over_1k", |b| {
        b.iter_batched(
            || {
                let mut backend: ReferenceBackend<Fingerprint> = ReferenceBackend::new(1024);
                let pool = backend.new_pool(VmId(1), PoolKind::Ephemeral).unwrap();
                (backend, pool)
            },
            |(mut backend, pool)| {
                for i in 0..4096u32 {
                    backend
                        .put(
                            pool,
                            ObjectId(u64::from(i) % 4),
                            i,
                            Fingerprint(u64::from(i)),
                        )
                        .unwrap();
                }
                black_box(backend.evictions());
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_flush_object(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath-flush-object");
    g.bench_function("fast/flush_object_1k", |b| {
        b.iter_batched(
            || {
                let mut backend: TmemBackend<Fingerprint> = TmemBackend::new(4096);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                for i in 0..1024u32 {
                    backend
                        .put(pool, ObjectId(7), i, Fingerprint(u64::from(i)))
                        .unwrap();
                }
                (backend, pool)
            },
            |(mut backend, pool)| black_box(backend.flush_object(pool, ObjectId(7)).unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("reference/flush_object_1k", |b| {
        b.iter_batched(
            || {
                let mut backend: ReferenceBackend<Fingerprint> = ReferenceBackend::new(4096);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                for i in 0..1024u32 {
                    backend
                        .put(pool, ObjectId(7), i, Fingerprint(u64::from(i)))
                        .unwrap();
                }
                (backend, pool)
            },
            |(mut backend, pool)| black_box(backend.flush_object(pool, ObjectId(7)).unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_destroy_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("datapath-destroy-pool");
    g.bench_function("fast/destroy_pool_4k", |b| {
        b.iter_batched(
            || {
                let mut backend: TmemBackend<Fingerprint> = TmemBackend::new(8192);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        backend
                            .put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
                (backend, pool)
            },
            |(mut backend, pool)| black_box(backend.destroy_pool(pool).unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("reference/destroy_pool_4k", |b| {
        b.iter_batched(
            || {
                let mut backend: ReferenceBackend<Fingerprint> = ReferenceBackend::new(8192);
                let pool = backend.new_pool(VmId(1), PoolKind::Persistent).unwrap();
                for o in 0..OBJECTS {
                    for i in 0..PAGES_PER_OBJECT {
                        backend
                            .put(pool, ObjectId(o), i, Fingerprint(o ^ u64::from(i)))
                            .unwrap();
                    }
                }
                (backend, pool)
            },
            |(mut backend, pool)| black_box(backend.destroy_pool(pool).unwrap()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_put_get,
    bench_ephemeral_churn,
    bench_flush_object,
    bench_destroy_pool
);
criterion_main!(benches);
