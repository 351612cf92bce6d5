//! Micro-bench: one Q-network forward pass (the per-decision cost of
//! Table III) at the paper shape — the training forward on sparse vs
//! dense input, linear vs dueling head, and the serve-time inference
//! kernel (`QInfer`) that replaces it on the predict path.

use ams::nn::{FwdCache, InferScratch, Input, QInfer, QNet, QNetConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_forward(c: &mut Criterion) {
    let linear = QNet::new(QNetConfig::paper(1104, 31), 7);
    let dueling = QNet::new(QNetConfig::paper_dueling(1104, 31), 7);
    // a typical mid-episode labeling state: ~40 active labels
    let sparse: Vec<u32> = (0..40u32).map(|i| i * 27 % 1104).collect();
    let mut dense = vec![0.0f32; 1104];
    for &i in &sparse {
        dense[i as usize] = 1.0;
    }
    let mut cache = FwdCache::default();

    c.bench_function("forward_sparse_linear", |b| {
        b.iter(|| {
            let q = linear.forward(Input::Sparse(black_box(&sparse)), &mut cache);
            black_box(q[0])
        })
    });
    c.bench_function("forward_sparse_dueling", |b| {
        b.iter(|| {
            let q = dueling.forward(Input::Sparse(black_box(&sparse)), &mut cache);
            black_box(q[0])
        })
    });
    let mut scratch = InferScratch::default();
    let mut q = vec![0.0f32; 31];
    for (name, net) in [
        ("infer_sparse_linear", &linear),
        ("infer_sparse_dueling", &dueling),
    ] {
        let view = QInfer::new(net);
        c.bench_function(name, |b| {
            b.iter(|| {
                view.q_into(net, black_box(&sparse), &mut scratch, &mut q);
                black_box(q[0])
            })
        });
    }
    c.bench_function("forward_dense_linear", |b| {
        b.iter(|| {
            let q = linear.forward(Input::Dense(black_box(&dense)), &mut cache);
            black_box(q[0])
        })
    });
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
