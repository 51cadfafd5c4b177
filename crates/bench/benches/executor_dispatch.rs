//! Microbenchmarks of parallel-region *dispatch* cost: the persistent
//! worker pool (workers parked on a condvar between regions), the
//! work-size inline short-circuit that skips the pool entirely for tiny
//! regions, and the serial loop as the floor.
//!
//! The region body is intentionally near-empty — these benches time the
//! scheduling machinery, not the work.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury_tensor::exec::Executor;
use std::hint::black_box;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_dispatch");
    group.sample_size(50);

    // One warm pool per width, created outside the timed region — the
    // whole point is that regions reuse it.
    for width in [2usize, 4] {
        let pool = Executor::threaded(width);
        group.bench_function(format!("pooled_w{width}"), |b| {
            b.iter(|| pool.map_indexed(width, |i| black_box(i) * 2 + 1))
        });
    }

    // The inline short-circuit: same region shape, but declared tiny, so
    // the pool is never woken — this is what a service-style small
    // single-request forward pays.
    let pool = Executor::threaded(4);
    group.bench_function("inline_short_circuit_w4", |b| {
        b.iter(|| pool.map_indexed_sized(4, 1, |i| black_box(i) * 2 + 1))
    });
    // Serial reference for the same loop, as the floor.
    let serial = Executor::serial();
    group.bench_function("serial_loop", |b| {
        b.iter(|| serial.map_indexed(4, |i| black_box(i) * 2 + 1))
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
