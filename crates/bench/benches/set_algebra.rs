//! Set-algebra microbenchmarks: `StateSet` (one tight window of bit words)
//! against an in-bench sorted-`Vec<u32>` baseline (the seed
//! representation) on union / difference / subset / membership, at widths
//! from "one word in place" (16 members over ids 0–63) to "64 boxed words"
//! (1024 over 0–4 095).
//!
//! Runs under the offline criterion shim (`cargo bench -p msc-bench
//! --bench set_algebra`). Passing `--test` switches to a smoke
//! configuration (small sizes, 2 samples) so CI can exercise the bench
//! without paying for full measurement; `ci.sh bench-smoke` relies on it.

use criterion::{BenchmarkId, Criterion};
use msc_bench::baseline::{vec_difference, vec_is_subset, vec_union};
use msc_bench::workloads::overlapping_members;
use msc_core::StateSet;
use msc_ir::StateId;
use std::hint::black_box;

fn to_set(v: &[u32]) -> StateSet {
    StateSet::from_iter(v.iter().map(|&x| StateId(x)))
}

fn bench_set_algebra(c: &mut Criterion, sizes: &[usize], samples: usize) {
    let mut group = c.benchmark_group("set_algebra");
    group.sample_size(samples);

    for &n in sizes {
        let (va, vb) = overlapping_members(n);
        let (sa, sb) = (to_set(&va), to_set(&vb));
        // A guaranteed subset for the subset benchmarks (worst case: the
        // scan cannot bail out early).
        let vsub: Vec<u32> = va.iter().copied().step_by(2).collect();
        let ssub = to_set(&vsub);
        let probes: Vec<u32> = (0..16).map(|i| (i * 7) % (4 * n as u32)).collect();

        group.bench_with_input(BenchmarkId::new("union/state_set", n), &n, |bch, _| {
            bch.iter(|| black_box(&sa).union(black_box(&sb)).len())
        });
        group.bench_with_input(BenchmarkId::new("union/sorted_vec", n), &n, |bch, _| {
            bch.iter(|| vec_union(black_box(&va), black_box(&vb)).len())
        });

        group.bench_with_input(BenchmarkId::new("difference/state_set", n), &n, |bch, _| {
            bch.iter(|| black_box(&sa).difference(black_box(&sb)).len())
        });
        group.bench_with_input(
            BenchmarkId::new("difference/sorted_vec", n),
            &n,
            |bch, _| bch.iter(|| vec_difference(black_box(&va), black_box(&vb)).len()),
        );

        group.bench_with_input(BenchmarkId::new("is_subset/state_set", n), &n, |bch, _| {
            bch.iter(|| black_box(&ssub).is_subset(black_box(&sa)))
        });
        group.bench_with_input(BenchmarkId::new("is_subset/sorted_vec", n), &n, |bch, _| {
            bch.iter(|| vec_is_subset(black_box(&vsub), black_box(&va)))
        });

        group.bench_with_input(BenchmarkId::new("contains/state_set", n), &n, |bch, _| {
            bch.iter(|| probes.iter().filter(|&&p| sa.contains(StateId(p))).count())
        });
        group.bench_with_input(BenchmarkId::new("contains/sorted_vec", n), &n, |bch, _| {
            bch.iter(|| {
                probes
                    .iter()
                    .filter(|&&p| va.binary_search(&p).is_ok())
                    .count()
            })
        });
    }
    group.finish();
}

fn main() {
    // `--test` = smoke mode for CI: prove the bench runs, skip the cost.
    let smoke = std::env::args().any(|a| a == "--test");
    let sizes: &[usize] = if smoke {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let samples = if smoke { 2 } else { 10 };
    let mut c = Criterion::default();
    bench_set_algebra(&mut c, sizes, samples);
}
