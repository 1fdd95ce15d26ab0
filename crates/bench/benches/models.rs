//! Criterion macro-benchmarks: one training step per model — the measured
//! counterpart of Table IV's complexity claims (RNP 2×, A2R/DAR/CAR 3×,
//! DMR co-trained teacher, ...).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dar_bench::Profile;
use dar_core::models;
use dar_core::prelude::*;
use dar_data::BatchIter;

fn bench_train_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    let profile = Profile::quick();
    let data = dar_bench::dataset(Aspect::Aroma, &profile, 3);
    let cfg = RationaleConfig {
        emb_dim: 32,
        hidden: 32,
        ..Default::default()
    };
    let mut rng = dar_core::rng(4);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    let batch = BatchIter::sequential(&data.train, 32)
        .next()
        .expect("empty train");

    for name in [
        "RNP",
        "DAR",
        "A2R",
        "DMR",
        "Inter_RAT",
        "CAR",
        "3PLAYER",
        "VIB",
    ] {
        let mut model = models::by_name(name, &cfg, &emb, &data, 1, &mut rng).expect("paper model");
        let mut step_rng = dar_core::rng(5);
        group.bench_with_input(BenchmarkId::from_parameter(name), &(), |bench, ()| {
            bench.iter(|| model.train_step(&batch, &mut step_rng))
        });
    }
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(10);
    let profile = Profile::quick();
    let data = dar_bench::dataset(Aspect::Aroma, &profile, 3);
    let cfg = RationaleConfig {
        emb_dim: 32,
        hidden: 32,
        ..Default::default()
    };
    let mut rng = dar_core::rng(6);
    let emb = SharedEmbedding::random(data.vocab.len(), cfg.emb_dim, &mut rng);
    let batch = BatchIter::sequential(&data.test, 32)
        .next()
        .expect("empty test");
    let model = models::by_name("DAR", &cfg, &emb, &data, 1, &mut rng).expect("paper model");
    group.bench_function("DAR_infer_b32", |bench| {
        bench.iter(|| dar_tensor::no_grad(|| model.infer(&batch)))
    });
    group.finish();
}

criterion_group!(benches, bench_train_steps, bench_inference);
criterion_main!(benches);
