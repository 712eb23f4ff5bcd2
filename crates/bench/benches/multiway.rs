//! C7 (§3.2.3 / [Die92a]): customized hash functions for multiway branch
//! encoding — search time, table sizes, and dispatch evaluation cost
//! compared with the naive dense-table alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msc_bench::workloads::{aggregate_keys, dispatch_keys};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("multiway");
    group.sample_size(30);

    for (n, bits) in [(5usize, 10u32), (16, 24), (64, 48)] {
        let keys = aggregate_keys(n, bits);
        let ph = msc_hash::find_hash(&keys).unwrap();
        println!(
            "[C7] {} cases over {bits}-bit aggregates: table {} (naive 2^{bits}), {} hash ops, expr {}",
            keys.len(),
            ph.table.len(),
            ph.expr.op_count(),
            ph.expr
        );

        // How long the generator searches.
        group.bench_with_input(BenchmarkId::new("find_hash", n), &n, |b, _| {
            b.iter(|| black_box(msc_hash::find_hash(black_box(&keys)).unwrap().table.len()))
        });

        // Dispatch cost: hashed lookup vs binary search over sorted keys
        // (the software fallback a compiler without [Die92a] would emit).
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        group.bench_with_input(BenchmarkId::new("dispatch_hashed", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in &keys {
                    acc += ph.lookup(black_box(k)).unwrap() as u64;
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("dispatch_binary_search", n), &n, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in &keys {
                    acc += sorted.binary_search(&black_box(k)).unwrap() as u64;
                }
                black_box(acc)
            })
        });
    }
    group.finish();

    // The search on the key sets the converter really produces (2^k + 1
    // cases of BIT(state) unions): what a cold compile pays per dispatch.
    let mut group = c.benchmark_group("multiway_dispatch");
    group.sample_size(30);
    for k in 1..=6 {
        let keys = dispatch_keys(k);
        let mut search = msc_hash::HashSearch::default();
        let ph = search.find(&keys, Default::default()).unwrap();
        println!(
            "[C7] {} dispatch cases: table {}, {} candidates tested, expr {}",
            keys.len(),
            ph.table.len(),
            search.candidates_tested,
            ph.expr
        );
        group.bench_with_input(BenchmarkId::new("find_hash", keys.len()), &k, |b, _| {
            b.iter(|| black_box(msc_hash::find_hash(black_box(&keys)).unwrap().table.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
