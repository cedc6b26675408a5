//! Ablation — exact factorisation vs the near-square extension (§IV-A):
//! the cost of computing a bin shape for awkward |NS| values (primes and
//! numbers with lopsided factors).  The end-to-end query cost of a
//! balanced vs a lopsided layout is `experiments fig6c`'s sweep.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pds_core::shape::BinShape;

fn bench_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_shape");
    for &ns in &[82usize, 1_999, 10_007] {
        group.bench_with_input(BenchmarkId::new("shape_for_counts", ns), &ns, |b, &ns| {
            b.iter(|| black_box(BinShape::for_counts(ns / 2, ns).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shape);
criterion_main!(benches);
