//! Measurement helpers behind the claims: run one program through meta-state
//! conversion or the §1.1 interpreter and collect the quantities the
//! paper's claims are about.

use metastate::{ConvertMode, Pipeline};
use msc_ir::CostModel;
use msc_mimd::{InterpMachine, InterpProgram};

/// What one execution mode did.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Total cycles.
    pub cycles: u64,
    /// Words of program memory **per PE** (zero for meta-state code).
    pub per_pe_program_words: usize,
    /// Per-PE results of `main` (for cross-checking).
    pub values: Vec<i64>,
}

/// Run through meta-state conversion + SIMD execution.
pub fn measure_msc(src: &str, n_pe: usize, mode: ConvertMode) -> Measurement {
    let built = Pipeline::new(src).mode(mode).build().expect("pipeline");
    let out = built.run(n_pe).expect("SIMD run");
    let ret = built.ret_addr();
    Measurement {
        cycles: out.metrics.cycles,
        per_pe_program_words: built.simd.per_pe_program_words(),
        values: ret
            .map(|r| (0..n_pe).map(|pe| out.machine.poly_at(pe, r)).collect())
            .unwrap_or_default(),
    }
}

/// Run through the §1.1 interpreter baseline.
pub fn measure_interp(src: &str, n_pe: usize) -> Measurement {
    let p = msc_lang::compile(src).expect("compiles");
    let image = InterpProgram::flatten(&p.graph, p.layout.poly_words, p.layout.mono_words);
    let mut m = InterpMachine::new(&image, n_pe, n_pe);
    let metrics = m
        .run(&image, &CostModel::default(), 100_000_000)
        .expect("interpreter");
    Measurement {
        cycles: metrics.cycles,
        per_pe_program_words: image.per_pe_program_words(),
        values: p
            .layout
            .main_ret
            .map(|r| (0..n_pe).map(|pe| m.poly_at(pe, r)).collect())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::branchy_source;
    use msc_mimd::{MimdConfig, MimdReference};

    /// Per-PE results of `main` on the true-MIMD reference.
    fn reference_values(src: &str, n_pe: usize) -> Vec<i64> {
        let p = msc_lang::compile(src).expect("compiles");
        let cfg = MimdConfig::spmd(n_pe);
        let mut m = MimdReference::new(p.layout.poly_words, p.layout.mono_words, &cfg);
        m.run(&p.graph, &cfg).expect("reference");
        let ret = p.layout.main_ret.expect("main returns a value");
        (0..n_pe).map(|pe| m.poly_at(pe, ret)).collect()
    }

    #[test]
    fn all_measurers_agree_on_values() {
        let src = branchy_source(3);
        let want = reference_values(&src, 6);
        let a = measure_msc(&src, 6, ConvertMode::Base);
        let b = measure_msc(&src, 6, ConvertMode::Compressed);
        let c = measure_interp(&src, 6);
        assert_eq!(a.values, want);
        assert_eq!(b.values, want);
        assert_eq!(c.values, want);
    }

    #[test]
    fn msc_has_zero_per_pe_program_memory() {
        let src = branchy_source(2);
        assert_eq!(
            measure_msc(&src, 4, ConvertMode::Base).per_pe_program_words,
            0
        );
        assert!(measure_interp(&src, 4).per_pe_program_words > 0);
    }
}
