//! The five workloads. Names are final: later issues cite them.

pub mod compile_cold;
pub mod convert_explosion;
pub mod regex_scan;
pub mod serve_mixed;
pub mod sim_run;

use msc_mimd::{MimdConfig, MimdReference};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    compile_cold::NAME,
    convert_explosion::NAME,
    sim_run::NAME,
    regex_scan::NAME,
    serve_mixed::NAME,
];

/// Per-PE values of `main`'s return slot under the MIMD reference
/// simulator — the oracle for everything that executes a program. It
/// shares the front end with the compiler under test and nothing after
/// it: no conversion, no code generation, no SIMD machine.
pub fn reference_results(src: &str, n_pe: usize) -> Vec<i64> {
    let p = msc_lang::compile(src).expect("benchmark sources compile");
    let cfg = MimdConfig::spmd(n_pe);
    let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
    m.run(&p.graph, &cfg).expect("reference runs to completion");
    let ret = p.layout.main_ret.expect("benchmark sources return a value");
    (0..n_pe).map(|pe| m.poly_at(pe, ret)).collect()
}

/// The two conversion modes every corpus source is built in.
pub const MODES: [metastate::ConvertMode; 2] = [
    metastate::ConvertMode::Base,
    metastate::ConvertMode::Compressed,
];

#[cfg(test)]
mod tests {
    use crate::harness::Workload;

    fn digest<W: Workload>(seed: u64) -> u64 {
        W::setup(seed).input_digest()
    }

    /// A later edit to a generator (here or in a layer's `Debug` output)
    /// must not silently change what the benchmark measures.
    #[test]
    fn seed_1_digests_are_pinned_and_seed_2_differs() {
        use super::{compile_cold::CompileCold, regex_scan::RegexScan, sim_run::SimRun};
        assert_eq!(digest::<CompileCold>(1), 0x4d68_79c5_41c3_277f);
        assert_eq!(digest::<SimRun>(1), 0x4d68_79c5_41c3_277f, "one corpus");
        assert_eq!(digest::<RegexScan>(1), 0x0d70_2a29_f35d_a796);
        assert_ne!(digest::<CompileCold>(2), digest::<CompileCold>(1));
        assert_ne!(digest::<RegexScan>(2), digest::<RegexScan>(1));
    }

    /// The explosion inputs are the paper's worst case, not a sample:
    /// the seed has nothing to vary.
    #[test]
    fn explosion_digest_is_pinned_for_every_seed() {
        use super::convert_explosion::ConvertExplosion;
        assert_eq!(digest::<ConvertExplosion>(1), 0x5eb4_9f88_2247_6c61);
        assert_eq!(digest::<ConvertExplosion>(2), 0x5eb4_9f88_2247_6c61);
    }
}
