//! Micro-bench: virtual-time executors (the substrate cost of simulating
//! one item's schedule).

use ams::sim::{Job, Pool, SerialExecutor};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn jobs() -> Vec<Job> {
    (0..30)
        .map(|i| Job {
            id: i,
            time_ms: 60 + (i as u32 * 13) % 390,
            mem_mb: 500 + (i as u32 * 251) % 7500,
        })
        .collect()
}

fn bench_executors(c: &mut Criterion) {
    let js = jobs();
    c.bench_function("serial_executor_30_jobs", |b| {
        b.iter(|| {
            let mut ex = SerialExecutor::new(10_000);
            for j in &js {
                ex.run(black_box(*j));
            }
            black_box(ex.elapsed_ms())
        })
    });

    c.bench_function("pool_30_jobs_16gb", |b| {
        b.iter(|| {
            let mut pool = Pool::new(16_384);
            let mut pending: Vec<Job> = js.clone();
            loop {
                pending.retain(|&j| {
                    let fits = pool.fits(j.mem_mb);
                    if fits {
                        pool.admit(black_box(j));
                    }
                    !fits
                });
                if pool.wait_next().is_none() {
                    break;
                }
            }
            black_box(pool.now_ms())
        })
    });
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
