//! Criterion bench comparing the neighbor-index backends on the ε-range
//! and k-NN queries that dominate outlier detection and δ_η precompute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disc_data::ClusterSpec;
use disc_distance::TupleDistance;
use disc_index::{BruteForceIndex, Index, NeighborIndex};

fn bench_index(c: &mut Criterion) {
    let ds = ClusterSpec::new(5000, 3, 4, 9).generate();
    let rows = ds.rows();
    let dist = TupleDistance::numeric(3);
    let eps = 2.0;
    let queries: Vec<usize> = (0..50).map(|i| i * 97 % rows.len()).collect();

    let mut group = c.benchmark_group("neighbor_index_range");
    group.bench_function(BenchmarkId::new("brute", rows.len()), |b| {
        let idx = BruteForceIndex::new(rows, dist.clone());
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.count_within(&rows[q], eps))
                .sum::<usize>()
        })
    });
    group.bench_function(BenchmarkId::new("grid", rows.len()), |b| {
        let idx = Index::grid(rows, dist.clone(), eps).expect("generated data is finite");
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.count_within(&rows[q], eps))
                .sum::<usize>()
        })
    });
    group.bench_function(BenchmarkId::new("vptree", rows.len()), |b| {
        let idx = Index::vp_tree(rows, dist.clone());
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.count_within(&rows[q], eps))
                .sum::<usize>()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("neighbor_index_knn");
    let k = 16usize;
    group.bench_function("brute", |b| {
        let idx = BruteForceIndex::new(rows, dist.clone());
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.knn(&rows[q], k).len())
                .sum::<usize>()
        })
    });
    group.bench_function("grid", |b| {
        let idx = Index::grid(rows, dist.clone(), eps).expect("generated data is finite");
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.knn(&rows[q], k).len())
                .sum::<usize>()
        })
    });
    group.bench_function("vptree", |b| {
        let idx = Index::vp_tree(rows, dist.clone());
        b.iter(|| {
            queries
                .iter()
                .map(|&q| idx.knn(&rows[q], k).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
