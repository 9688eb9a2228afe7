//! Cold-start pipeline benchmarks: derived-structure builds and the
//! fingerprinted model cache.
//!
//! Three groups:
//!
//! * `model_build_derived` — serial vs sharded-parallel construction of
//!   each derived structure (inverted index, overlap graph, coverage
//!   bitmap). The shard counts force the parallel code path regardless of
//!   how many CPUs the host exposes, so the numbers compare the *same*
//!   inputs through both implementations; real speedup requires real
//!   cores (see results/BENCH_model_build.json for the recorded host).
//! * `model_build_precompute` — the full eager warm-up
//!   ([`CoverageModel::precompute`]) versus the meets computation it
//!   follows, which is what a cold `mroam`/`mroam-served` start pays.
//! * `model_cache` — storage encode and fingerprint-checked heap decode
//!   of a model file (derived sections included), versus rebuilding from
//!   the stores: the cache-hit vs cache-miss gap of `--model-cache`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mroam_bench::nyc_city;
use mroam_influence::storage::{self, ModelFingerprint};
use mroam_influence::{CoverageBitmap, CoverageModel, InvertedIndex, OverlapGraph};

fn bench_derived(c: &mut Criterion) {
    let city = nyc_city();
    let model = city.coverage(100.0);
    let cov: Vec<Vec<u32>> = model.coverage_lists().to_vec();
    let n_t = model.n_trajectories();
    let inv = InvertedIndex::build(&cov, n_t);

    let mut group = c.benchmark_group("model_build_derived");
    group.bench_function("inverted_serial", |b| {
        b.iter(|| InvertedIndex::build_serial(&cov, n_t))
    });
    group.bench_function("overlap_serial", |b| {
        b.iter(|| OverlapGraph::build_serial(&cov, &inv))
    });
    group.bench_function("bitmap_serial", |b| {
        b.iter(|| CoverageBitmap::build_serial(&cov, n_t))
    });
    for shards in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("inverted_parallel", shards),
            &shards,
            |b, &s| b.iter(|| InvertedIndex::build_parallel_with(&cov, n_t, s)),
        );
        group.bench_with_input(
            BenchmarkId::new("overlap_parallel", shards),
            &shards,
            |b, &s| b.iter(|| OverlapGraph::build_parallel_with(&cov, &inv, s)),
        );
        group.bench_with_input(
            BenchmarkId::new("bitmap_parallel", shards),
            &shards,
            |b, &s| b.iter(|| CoverageBitmap::build_parallel_with(&cov, n_t, s)),
        );
    }
    group.finish();
}

fn bench_precompute(c: &mut Criterion) {
    let city = nyc_city();
    let mut group = c.benchmark_group("model_build_precompute");
    group.sample_size(20);
    group.bench_function("meets_only", |b| b.iter(|| city.coverage(100.0)));
    group.bench_function("meets_plus_precompute", |b| {
        b.iter(|| {
            let model = city.coverage(100.0);
            model.precompute();
            model
        })
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let city = nyc_city();
    let model = city.coverage(100.0);
    model.precompute();
    let fingerprint = ModelFingerprint::new(&city.billboards, &city.trajectories, 100.0);
    let bytes = storage::encode(&model, &fingerprint);

    let mut group = c.benchmark_group("model_cache");
    group.bench_function("encode", |b| {
        b.iter(|| storage::encode(&model, &fingerprint))
    });
    group.bench_function("decode_checked", |b| {
        b.iter(|| storage::read_model(&bytes, &fingerprint).expect("fresh cache"))
    });
    group.bench_function("rebuild_from_stores", |b| {
        b.iter(|| {
            let m = CoverageModel::build(&city.billboards, &city.trajectories, 100.0);
            m.precompute();
            m
        })
    });
    group.finish();
}

criterion_group!(benches, bench_derived, bench_precompute, bench_cache);
criterion_main!(benches);
