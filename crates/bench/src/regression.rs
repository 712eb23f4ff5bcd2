//! Bench-regression gate over the committed `BENCH_setops.json` baseline.
//!
//! `claims -- setops --check` re-measures the set-operation speedups and
//! calls [`check_speedups`]; any union / is_subset speedup more than the
//! tolerance below the committed number fails the claims binary with a
//! nonzero exit, which `ci.sh bench-smoke` turns into a red build.
//!
//! The parser is a dependency-free string scan (this repo has no serde):
//! it only needs the `size`, `union_speedup`, and `is_subset_speedup`
//! numbers out of the flat per-workload objects `setops()` writes, and it
//! tolerates reformatting as long as those keys survive.

/// The committed speedups for one workload size.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBaseline {
    pub size: usize,
    pub union_speedup: f64,
    pub is_subset_speedup: f64,
}

/// Scan `obj` for `"key": <number>` and parse the number. Returns `None`
/// when the key is absent or the value is not numeric.
pub fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull the per-size speedup baselines out of `BENCH_setops.json` text.
/// Objects that lack any of the three keys (e.g. the `subsume` section)
/// are skipped, so the result is exactly the `workloads` array.
pub fn parse_setops_baseline(json: &str) -> Vec<WorkloadBaseline> {
    json.split('{')
        .filter_map(|chunk| {
            Some(WorkloadBaseline {
                size: extract_number(chunk, "size")? as usize,
                union_speedup: extract_number(chunk, "union_speedup")?,
                is_subset_speedup: extract_number(chunk, "is_subset_speedup")?,
            })
        })
        .collect()
}

/// Compare re-measured speedups `(size, union, is_subset)` against the
/// committed baseline. A measurement may fall up to `max_regression`
/// (e.g. `0.30` = 30%) below the committed speedup before it counts as a
/// regression; running faster than the baseline is always fine. Returns
/// one human-readable line per failure — empty means the gate passes.
pub fn check_speedups(
    baseline: &[WorkloadBaseline],
    measured: &[(usize, f64, f64)],
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(&(_, m_union, m_subset)) = measured.iter().find(|(s, _, _)| *s == b.size) else {
            failures.push(format!(
                "size {}: baseline present but not re-measured",
                b.size
            ));
            continue;
        };
        for (op, committed, got) in [
            ("union", b.union_speedup, m_union),
            ("is_subset", b.is_subset_speedup, m_subset),
        ] {
            let floor = committed * (1.0 - max_regression);
            if got < floor {
                failures.push(format!(
                    "size {}: {op} speedup {got:.2}x fell below the {floor:.2}x floor \
                     (committed {committed:.2}x, tolerance {:.0}%)",
                    b.size,
                    max_regression * 100.0
                ));
            }
        }
    }
    failures
}

/// The committed serve-daemon baseline out of `BENCH_serve.json`:
/// the measured numbers plus the absolute targets `loadgen` wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBaseline {
    /// Throughput the committed run achieved (machine-dependent; gated
    /// with a relative tolerance).
    pub throughput_rps: f64,
    /// p99 latency of the committed run, informational.
    pub p99_ms: f64,
    /// Coalesce-burst width of the committed run.
    pub burst_requests: u64,
    /// Compilations the committed burst cost (the invariant: 1).
    pub burst_compilations: u64,
    /// Absolute p99 ceiling from the `targets` section.
    pub p99_ms_max: f64,
    /// Absolute throughput floor from the `targets` section.
    pub throughput_rps_min: f64,
}

/// One re-measured serve run, shaped for [`check_serve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMeasurement {
    pub throughput_rps: f64,
    pub p99_ms: f64,
    pub errors: u64,
    pub burst_compilations: u64,
}

/// Pull the serve baseline out of `BENCH_serve.json` text. The burst and
/// target numbers are scoped to their sub-objects so the top-level
/// `requests` count cannot shadow the burst width.
pub fn parse_serve_baseline(json: &str) -> Option<ServeBaseline> {
    let after = |key: &str| -> Option<&str> {
        let pat = format!("\"{key}\"");
        json.find(&pat).map(|at| &json[at + pat.len()..])
    };
    let burst = after("coalesce_burst")?;
    let targets = after("targets")?;
    Some(ServeBaseline {
        throughput_rps: extract_number(json, "throughput_rps")?,
        p99_ms: extract_number(json, "p99")?,
        burst_requests: extract_number(burst, "requests")? as u64,
        burst_compilations: extract_number(burst, "compilations")? as u64,
        p99_ms_max: extract_number(targets, "p99_ms_max")?,
        throughput_rps_min: extract_number(targets, "throughput_rps_min")?,
    })
}

/// Gate a re-measured serve run against the committed baseline.
///
/// Three checks, one line per failure:
/// * **invariants** — zero request errors, and the coalesce burst costs
///   exactly the committed number of compilations (1);
/// * **absolute target** — p99 stays under the committed `p99_ms_max`
///   ceiling (generous: 50ms vs a sub-millisecond committed value);
/// * **relative throughput** — may fall at most `max_regression` (e.g.
///   `0.50` = 50%) below the committed throughput. CI runners are slower
///   and noisier than the baseline machine, so the tolerance is wide; the
///   gate exists to catch order-of-magnitude collapses (lost coalescing,
///   a dead cache, an accidental per-request compile), not 10% drift.
pub fn check_serve(
    baseline: &ServeBaseline,
    measured: &ServeMeasurement,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if measured.errors > 0 {
        failures.push(format!(
            "{} request error(s) under load (baseline had none)",
            measured.errors
        ));
    }
    if measured.burst_compilations != baseline.burst_compilations {
        failures.push(format!(
            "coalesce burst of {} identical requests cost {} compilation(s) \
             (committed {})",
            baseline.burst_requests, measured.burst_compilations, baseline.burst_compilations
        ));
    }
    if measured.p99_ms > baseline.p99_ms_max {
        failures.push(format!(
            "p99 {:.3}ms above the {:.0}ms ceiling (committed run: {:.3}ms)",
            measured.p99_ms, baseline.p99_ms_max, baseline.p99_ms
        ));
    }
    let floor = baseline.throughput_rps * (1.0 - max_regression);
    if measured.throughput_rps < floor {
        failures.push(format!(
            "throughput {:.0} req/s fell below the {:.0} req/s floor \
             (committed {:.0} req/s, tolerance {:.0}%)",
            measured.throughput_rps,
            floor,
            baseline.throughput_rps,
            max_regression * 100.0
        ));
    }
    failures
}

/// The committed regex-front-end baseline out of `BENCH_regex.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegexBaseline {
    /// Committed meta-automaton-vs-naive speedup (relative gate).
    pub dfa_vs_naive_speedup: f64,
    /// Committed single-thread throughput, informational.
    pub t1_mbps: f64,
    /// Absolute single-thread throughput floor from `targets`.
    pub t1_mbps_min: f64,
    /// Absolute floor on the 2-thread/1-thread throughput ratio from
    /// `targets`; enforced only on a run that had at least 2 cores.
    pub t2_vs_t1_min: f64,
    /// Absolute floor on the 8-thread/1-thread throughput ratio from
    /// `targets` (stitching must not collapse sharded throughput).
    pub t8_vs_t1_min: f64,
}

/// One re-measured regex run, shaped for [`check_regex`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegexMeasurement {
    pub naive_mbps: f64,
    pub t1_mbps: f64,
    pub t2_mbps: f64,
    pub t8_mbps: f64,
    pub matches: u64,
    /// Did every sharded scan reproduce the sequential spans exactly?
    pub spans_agree: bool,
    /// `available_parallelism()` of the run: with one core the thread
    /// ratios say nothing about scaling.
    pub cores: usize,
}

impl RegexMeasurement {
    /// Meta-automaton speedup over the naive reference (1-thread).
    pub fn dfa_vs_naive(&self) -> f64 {
        self.t1_mbps / self.naive_mbps
    }
}

/// Pull the regex baseline out of `BENCH_regex.json` text.
pub fn parse_regex_baseline(json: &str) -> Option<RegexBaseline> {
    let targets = {
        let pat = "\"targets\"";
        json.find(pat).map(|at| &json[at + pat.len()..])?
    };
    Some(RegexBaseline {
        dfa_vs_naive_speedup: extract_number(json, "dfa_vs_naive_speedup")?,
        t1_mbps: extract_number(json, "t1_mbps")?,
        t1_mbps_min: extract_number(targets, "t1_mbps_min")?,
        t2_vs_t1_min: extract_number(targets, "t2_vs_t1_min")?,
        t8_vs_t1_min: extract_number(targets, "t8_vs_t1_min")?,
    })
}

/// Gate a re-measured regex run against the committed baseline.
///
/// * **invariant** — sharded spans must equal sequential spans exactly;
/// * **relative speedup** — dfa-vs-naive may fall at most `max_regression`
///   below the committed value (the headline claim: compiled matching
///   beats AST-walking by orders of magnitude, so even 50% slack only
///   catches collapses);
/// * **absolute floors** — 1-thread throughput above `t1_mbps_min`; the
///   t8/t1 ratio above `t8_vs_t1_min` (sharding overhead bounded even on
///   a single-core runner); and, when the run had at least 2 cores, the
///   t2/t1 ratio above `t2_vs_t1_min` (the second thread must pay).
pub fn check_regex(
    baseline: &RegexBaseline,
    measured: &RegexMeasurement,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !measured.spans_agree {
        failures.push("sharded scan produced different spans than the sequential scan".into());
    }
    let speedup = measured.dfa_vs_naive();
    let floor = baseline.dfa_vs_naive_speedup * (1.0 - max_regression);
    if speedup < floor {
        failures.push(format!(
            "dfa-vs-naive speedup {speedup:.1}x fell below the {floor:.1}x floor \
             (committed {:.1}x, tolerance {:.0}%)",
            baseline.dfa_vs_naive_speedup,
            max_regression * 100.0
        ));
    }
    if measured.t1_mbps < baseline.t1_mbps_min {
        failures.push(format!(
            "1-thread throughput {:.0} MB/s below the {:.0} MB/s floor (committed {:.0})",
            measured.t1_mbps, baseline.t1_mbps_min, baseline.t1_mbps
        ));
    }
    let ratio = measured.t2_mbps / measured.t1_mbps;
    if measured.cores >= 2 && ratio < baseline.t2_vs_t1_min {
        failures.push(format!(
            "t2/t1 throughput ratio {ratio:.2} below the {:.2} floor on {} cores \
             (the second scan thread stopped paying)",
            baseline.t2_vs_t1_min, measured.cores
        ));
    }
    let ratio = measured.t8_mbps / measured.t1_mbps;
    if ratio < baseline.t8_vs_t1_min {
        failures.push(format!(
            "t8/t1 throughput ratio {ratio:.2} below the {:.2} floor \
             (sharded stitching overhead blew up)",
            baseline.t8_vs_t1_min
        ));
    }
    failures
}

/// The committed out-of-core explosion baseline out of
/// `BENCH_explosion.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplosionBaseline {
    /// Meta states of the committed conversion (deterministic — gated
    /// exactly).
    pub meta_states: u64,
    /// Committed in-RAM conversion throughput (relative gate).
    pub in_ram_states_per_sec: f64,
    /// Committed throughput under the spill budget (relative gate).
    pub spilled_states_per_sec: f64,
}

/// One re-measured explosion run, shaped for [`check_explosion`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExplosionMeasurement {
    pub meta_states: u64,
    pub in_ram_states_per_sec: f64,
    pub spilled_states_per_sec: f64,
    /// Bytes the spilled pass actually wrote to its segment stores.
    pub spill_bytes: u64,
    /// Did the spilled conversion produce a bit-identical automaton?
    pub spill_identical: bool,
}

/// Pull the explosion baseline out of `BENCH_explosion.json` text.
pub fn parse_explosion_baseline(json: &str) -> Option<ExplosionBaseline> {
    Some(ExplosionBaseline {
        meta_states: extract_number(json, "meta_states")? as u64,
        in_ram_states_per_sec: extract_number(json, "in_ram_states_per_sec")?,
        spilled_states_per_sec: extract_number(json, "spilled_states_per_sec")?,
    })
}

/// Gate a re-measured explosion run against the committed baseline.
///
/// * **invariants** — the spilled conversion is bit-identical to the
///   in-RAM one, actually spilled (nonzero bytes written), and reaches
///   exactly the committed meta-state count (conversion is
///   deterministic);
/// * **relative throughput** — both the in-RAM and the spilled
///   states/sec may fall at most `max_regression` below the committed
///   values.
pub fn check_explosion(
    baseline: &ExplosionBaseline,
    measured: &ExplosionMeasurement,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if !measured.spill_identical {
        failures.push("spilled conversion diverged from the in-RAM automaton".into());
    }
    if measured.spill_bytes == 0 {
        failures
            .push("spill budget produced no spilled bytes (out-of-core path not exercised)".into());
    }
    if measured.meta_states != baseline.meta_states {
        failures.push(format!(
            "conversion produced {} meta states (committed {})",
            measured.meta_states, baseline.meta_states
        ));
    }
    for (what, committed, got) in [
        (
            "in-RAM",
            baseline.in_ram_states_per_sec,
            measured.in_ram_states_per_sec,
        ),
        (
            "spilled",
            baseline.spilled_states_per_sec,
            measured.spilled_states_per_sec,
        ),
    ] {
        let floor = committed * (1.0 - max_regression);
        if got < floor {
            failures.push(format!(
                "{what} conversion {got:.0} states/s fell below the {floor:.0} states/s floor \
                 (committed {committed:.0}, tolerance {:.0}%)",
                max_regression * 100.0
            ));
        }
    }
    failures
}

/// The committed cluster baseline out of `BENCH_cluster.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBaseline {
    /// Workload size of the committed run.
    pub jobs: u64,
    /// Peer hits of the committed run (the invariant: == jobs).
    pub peer_hits: u64,
    /// Node B compilations of the committed run (the invariant: 0).
    pub node_b_compilations: u64,
    /// Mean peer-hit latency of the committed run, informational.
    pub peer_hit_mean_ms: f64,
    /// Absolute mean peer-hit latency ceiling from `targets`.
    pub peer_hit_ms_max: f64,
    /// From `targets`: how much slower than the single-node cold
    /// compile the dead-fleet cold compile may be (one peer-path
    /// deadline plus scheduling slack).
    pub dead_peer_overhead_ms_max: f64,
}

/// One re-measured cluster pass, shaped for [`check_cluster`]
/// (mirrors `crate::cluster::ClusterSummary`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMeasurement {
    pub jobs: u64,
    pub peer_hits: u64,
    pub node_b_compilations: u64,
    pub peer_hit_mean_ms: f64,
    pub single_node_cold_ms: f64,
    pub dead_peer_cold_ms: f64,
    pub verify_fails: u64,
    pub errors: u64,
}

/// Pull the cluster baseline out of `BENCH_cluster.json` text. The
/// targets are scoped to their sub-object.
pub fn parse_cluster_baseline(json: &str) -> Option<ClusterBaseline> {
    let targets = {
        let pat = "\"targets\"";
        json.find(pat).map(|at| &json[at + pat.len()..])?
    };
    Some(ClusterBaseline {
        jobs: extract_number(json, "jobs")? as u64,
        peer_hits: extract_number(json, "peer_hits")? as u64,
        node_b_compilations: extract_number(json, "node_b_compilations")? as u64,
        peer_hit_mean_ms: extract_number(json, "peer_hit_mean_ms")?,
        peer_hit_ms_max: extract_number(targets, "peer_hit_ms_max")?,
        dead_peer_overhead_ms_max: extract_number(targets, "dead_peer_overhead_ms_max")?,
    })
}

/// Gate a re-measured cluster pass against the committed baseline.
///
/// * **invariants** — zero errors; node B serves *every* job from its
///   peer (peer hits == jobs, zero local compilations); the corrupt-
///   peer leg actually tripped checksum verification at least once;
/// * **absolute latency ceiling** — mean peer-hit latency under the
///   committed `peer_hit_ms_max` (a peer hit must stay far cheaper
///   than a compile);
/// * **degradation bound** — a dead fleet may cost at most
///   `dead_peer_overhead_ms_max` over the single-node cold compile:
///   losing every peer must never be slower than having none beyond
///   one peer-path deadline.
pub fn check_cluster(baseline: &ClusterBaseline, measured: &ClusterMeasurement) -> Vec<String> {
    let mut failures = Vec::new();
    if measured.errors > 0 {
        failures.push(format!(
            "{} response error(s) across the cluster legs (baseline had none)",
            measured.errors
        ));
    }
    if measured.peer_hits != measured.jobs || measured.jobs != baseline.jobs {
        failures.push(format!(
            "node B took {} peer hit(s) for {} job(s) (committed: {} of {})",
            measured.peer_hits, measured.jobs, baseline.peer_hits, baseline.jobs
        ));
    }
    if measured.node_b_compilations != baseline.node_b_compilations {
        failures.push(format!(
            "node B compiled {} job(s) locally despite a warm donor (committed {})",
            measured.node_b_compilations, baseline.node_b_compilations
        ));
    }
    if measured.verify_fails == 0 {
        failures.push(
            "corrupt-peer leg recorded no cache.peer_verify_fail \
             (checksum verification not exercised)"
                .into(),
        );
    }
    if measured.peer_hit_mean_ms > baseline.peer_hit_ms_max {
        failures.push(format!(
            "mean peer-hit latency {:.2}ms above the {:.0}ms ceiling (committed run: {:.2}ms)",
            measured.peer_hit_mean_ms, baseline.peer_hit_ms_max, baseline.peer_hit_mean_ms
        ));
    }
    let dead_ceiling = measured.single_node_cold_ms + baseline.dead_peer_overhead_ms_max;
    if measured.dead_peer_cold_ms > dead_ceiling {
        failures.push(format!(
            "dead-fleet cold compile {:.1}ms above the {:.1}ms bound \
             (single-node {:.1}ms + {:.0}ms deadline budget)",
            measured.dead_peer_cold_ms,
            dead_ceiling,
            measured.single_node_cold_ms,
            baseline.dead_peer_overhead_ms_max
        ));
    }
    failures
}

/// Scan `obj` for `"key": "<string>"` and return the string (no escape
/// handling — profile names are plain identifiers).
pub fn extract_string(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// One committed profile row out of `BENCH_sweep.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProfileBaseline {
    /// Profile name.
    pub name: String,
    /// Committed simulated cycles (deterministic — gated exactly).
    pub cycles: u64,
    /// Committed speedup vs the interpreter baseline.
    pub speedup: f64,
}

/// The committed sweep baseline: the hard-coded-path cycle count plus
/// every per-profile row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBaseline {
    /// Cycles down the untouched default path (no profile threading) —
    /// the bit-identity anchor for `paper-default`.
    pub hard_coded_cycles: u64,
    /// Per-profile rows.
    pub profiles: Vec<SweepProfileBaseline>,
}

/// Pull the sweep baseline out of `BENCH_sweep.json` text. Chunks lacking
/// a `name` (the header object) are skipped; `"hard_coded_cycles"` does
/// not collide with the `"cycles":` scan because the pattern requires the
/// opening quote.
pub fn parse_sweep_baseline(json: &str) -> Option<SweepBaseline> {
    let hard_coded_cycles = extract_number(json, "hard_coded_cycles")? as u64;
    let profiles: Vec<SweepProfileBaseline> = json
        .split('{')
        .filter_map(|chunk| {
            Some(SweepProfileBaseline {
                name: extract_string(chunk, "name")?,
                cycles: extract_number(chunk, "cycles")? as u64,
                speedup: extract_number(chunk, "speedup")?,
            })
        })
        .collect();
    if profiles.is_empty() {
        return None;
    }
    Some(SweepBaseline {
        hard_coded_cycles,
        profiles,
    })
}

/// Gate a re-measured sweep against the committed baseline.
///
/// Unlike the timing gates, everything here is deterministic (the
/// simulator counts cycles), so there is no tolerance on cycles:
///
/// * **exactness** — every committed profile re-measures to exactly the
///   committed cycle count (drift means the cost model or converter
///   changed and the baseline must be regenerated deliberately);
/// * **bit-identity** — `paper-default` equals the freshly measured
///   hard-coded-path cycles AND the committed anchor, so the profile
///   subsystem provably does not perturb every other committed
///   BENCH_*.json;
/// * **ordering** — on the dispatch-heavy workload, `cheap-dispatch` is
///   never slower than `paper-default` and `slow-globalor` never faster
///   (a doctored profile file breaks these);
/// * speedups are checked within a small epsilon (they are ratios of the
///   exact integers above).
pub fn check_sweep(
    baseline: &SweepBaseline,
    measured: &[crate::sweep::SweepRow],
    hard_coded: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.profiles {
        let Some(m) = measured.iter().find(|m| m.name == b.name) else {
            failures.push(format!("profile {}: committed but not re-measured", b.name));
            continue;
        };
        if m.cycles != b.cycles {
            failures.push(format!(
                "profile {}: measured {} cycles, committed {} \
                 (deterministic — any drift is a conversion or cost-model change)",
                b.name, m.cycles, b.cycles
            ));
        }
        if (m.speedup - b.speedup).abs() > 0.01 {
            failures.push(format!(
                "profile {}: measured {:.3}x speedup, committed {:.3}x",
                b.name, m.speedup, b.speedup
            ));
        }
    }
    if baseline.hard_coded_cycles != hard_coded {
        failures.push(format!(
            "hard-coded path measured {hard_coded} cycles, committed {} \
             (the default cost model itself moved)",
            baseline.hard_coded_cycles
        ));
    }
    let find = |name: &str| measured.iter().find(|m| m.name == name);
    match find("paper-default") {
        None => failures.push("paper-default missing from the sweep".into()),
        Some(d) => {
            if d.cycles != hard_coded {
                failures.push(format!(
                    "paper-default measured {} cycles but the hard-coded path measured \
                     {hard_coded} (profile ≡ default bit-identity broken)",
                    d.cycles
                ));
            }
            match find("cheap-dispatch") {
                None => failures.push("cheap-dispatch missing from the sweep".into()),
                Some(c) if c.cycles > d.cycles => failures.push(format!(
                    "cheap-dispatch ({} cycles) slower than paper-default ({}) on the \
                     dispatch-heavy workload",
                    c.cycles, d.cycles
                )),
                Some(_) => {}
            }
            match find("slow-globalor") {
                None => failures.push("slow-globalor missing from the sweep".into()),
                Some(s) if s.cycles < d.cycles => failures.push(format!(
                    "slow-globalor ({} cycles) faster than paper-default ({}) — router \
                     latency not charged",
                    s.cycles, d.cycles
                )),
                Some(_) => {}
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_setops.json");
    const COMMITTED_SERVE: &str = include_str!("../../../BENCH_serve.json");
    const COMMITTED_SWEEP: &str = include_str!("../../../BENCH_sweep.json");

    #[test]
    fn parses_the_committed_sweep_baseline() {
        let b = parse_sweep_baseline(COMMITTED_SWEEP).expect("baseline parses");
        assert!(b.hard_coded_cycles > 0);
        let names: Vec<&str> = b.profiles.iter().map(|p| p.name.as_str()).collect();
        for want in [
            "paper-default",
            "wide-simd",
            "slow-globalor",
            "cheap-dispatch",
        ] {
            assert!(names.contains(&want), "{names:?} missing {want}");
        }
        let default = b
            .profiles
            .iter()
            .find(|p| p.name == "paper-default")
            .unwrap();
        assert_eq!(default.cycles, b.hard_coded_cycles, "bit-identity anchor");
    }

    #[test]
    fn honest_sweep_remeasurement_passes() {
        let b = parse_sweep_baseline(COMMITTED_SWEEP).unwrap();
        let src = crate::sweep::dispatch_heavy_source();
        let measured = crate::sweep::measure_sweep(&src, &msc_simd::MachineProfile::bundled());
        let hard = crate::sweep::hard_coded_cycles(&src, 16);
        let failures = check_sweep(&b, &measured, hard);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn doctored_sweep_baseline_fails_check() {
        // The negative test for the CI gate: inflate the committed cycle
        // counts and the honest re-measurement must fail — exactly, not
        // within a tolerance.
        let mut b = parse_sweep_baseline(COMMITTED_SWEEP).unwrap();
        for p in &mut b.profiles {
            p.cycles += 1000;
        }
        b.hard_coded_cycles += 1000;
        let src = crate::sweep::dispatch_heavy_source();
        let measured = crate::sweep::measure_sweep(&src, &msc_simd::MachineProfile::bundled());
        let hard = crate::sweep::hard_coded_cycles(&src, 16);
        let failures = check_sweep(&b, &measured, hard);
        assert!(
            failures.len() > b.profiles.len(),
            "every profile plus the anchor must fail: {failures:?}"
        );
    }

    #[test]
    fn extract_string_scopes_to_the_chunk() {
        assert_eq!(
            extract_string(r#"{"name": "wide-simd", "cycles": 1}"#, "name").as_deref(),
            Some("wide-simd")
        );
        assert_eq!(extract_string(r#"{"cycles": 1}"#, "name"), None);
    }

    #[test]
    fn parses_the_committed_baseline() {
        let b = parse_setops_baseline(COMMITTED);
        assert_eq!(b.len(), 3, "{b:?}");
        assert_eq!(
            b.iter().map(|w| w.size).collect::<Vec<_>>(),
            vec![64, 256, 1024]
        );
        for w in &b {
            assert!(w.union_speedup > 1.0, "{w:?}");
            assert!(w.is_subset_speedup > 1.0, "{w:?}");
        }
    }

    #[test]
    fn matching_measurements_pass() {
        let b = parse_setops_baseline(COMMITTED);
        let measured: Vec<(usize, f64, f64)> = b
            .iter()
            .map(|w| (w.size, w.union_speedup, w.is_subset_speedup))
            .collect();
        assert!(check_speedups(&b, &measured, 0.30).is_empty());
    }

    #[test]
    fn inflated_baseline_fails_check() {
        // The negative test for the CI gate: if someone doubles the
        // committed speedups, re-measuring the honest values must fail.
        let mut b = parse_setops_baseline(COMMITTED);
        let honest: Vec<(usize, f64, f64)> = b
            .iter()
            .map(|w| (w.size, w.union_speedup, w.is_subset_speedup))
            .collect();
        for w in &mut b {
            w.union_speedup *= 2.0;
            w.is_subset_speedup *= 2.0;
        }
        let failures = check_speedups(&b, &honest, 0.30);
        assert_eq!(failures.len(), 6, "{failures:?}");
        assert!(failures[0].contains("union"), "{failures:?}");
    }

    #[test]
    fn missing_size_is_a_failure() {
        let b = parse_setops_baseline(COMMITTED);
        let failures = check_speedups(&b, &[], 0.30);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }

    fn committed_serve() -> ServeBaseline {
        parse_serve_baseline(COMMITTED_SERVE).expect("parse BENCH_serve.json")
    }

    fn honest_serve_run(b: &ServeBaseline) -> ServeMeasurement {
        ServeMeasurement {
            throughput_rps: b.throughput_rps,
            p99_ms: b.p99_ms,
            errors: 0,
            burst_compilations: b.burst_compilations,
        }
    }

    #[test]
    fn parses_the_committed_serve_baseline() {
        let b = committed_serve();
        assert!(b.throughput_rps > 1_000.0, "{b:?}");
        assert!(b.p99_ms > 0.0 && b.p99_ms < b.p99_ms_max, "{b:?}");
        assert_eq!(b.burst_requests, 16);
        assert_eq!(b.burst_compilations, 1);
        assert_eq!(b.p99_ms_max, 50.0);
        assert_eq!(b.throughput_rps_min, 5000.0);
    }

    #[test]
    fn matching_serve_run_passes() {
        let b = committed_serve();
        assert!(check_serve(&b, &honest_serve_run(&b), 0.50).is_empty());
    }

    #[test]
    fn doctored_serve_baseline_fails_check() {
        // The negative test for the CI gate: inflate the committed
        // throughput; re-measuring the honest value must now fail.
        let mut b = committed_serve();
        let honest = honest_serve_run(&b);
        b.throughput_rps *= 4.0;
        let failures = check_serve(&b, &honest, 0.50);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("throughput"), "{failures:?}");
    }

    #[test]
    fn serve_invariant_breaks_fail_check() {
        let b = committed_serve();
        let mut bad = honest_serve_run(&b);
        bad.errors = 3;
        bad.burst_compilations = 16; // coalescing lost entirely
        bad.p99_ms = b.p99_ms_max * 2.0;
        let failures = check_serve(&b, &bad, 0.50);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("error")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("burst")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("p99")), "{failures:?}");
    }

    const COMMITTED_REGEX: &str = include_str!("../../../BENCH_regex.json");

    fn committed_regex() -> RegexBaseline {
        parse_regex_baseline(COMMITTED_REGEX).expect("parse BENCH_regex.json")
    }

    fn honest_regex_run(b: &RegexBaseline) -> RegexMeasurement {
        RegexMeasurement {
            naive_mbps: b.t1_mbps / b.dfa_vs_naive_speedup,
            t1_mbps: b.t1_mbps,
            t2_mbps: b.t1_mbps * b.t2_vs_t1_min * 1.1,
            t8_mbps: b.t1_mbps,
            matches: 1,
            spans_agree: true,
            cores: 2,
        }
    }

    #[test]
    fn parses_the_committed_regex_baseline() {
        let b = committed_regex();
        assert!(b.dfa_vs_naive_speedup > 10.0, "{b:?}");
        assert!(b.t1_mbps > b.t1_mbps_min, "{b:?}");
        assert!(b.t1_mbps_min >= 0.5 * b.t1_mbps, "floor ratcheted: {b:?}");
        assert!(b.t2_vs_t1_min > 1.0 && b.t2_vs_t1_min <= 1.5, "{b:?}");
        assert_eq!(b.t8_vs_t1_min, 0.5);
    }

    #[test]
    fn matching_regex_run_passes() {
        let b = committed_regex();
        assert!(check_regex(&b, &honest_regex_run(&b), 0.50).is_empty());
    }

    #[test]
    fn doctored_regex_baseline_fails_check() {
        // The negative test for the CI gate: inflate the committed
        // speedup; re-measuring the honest value must now fail.
        let mut b = committed_regex();
        let honest = honest_regex_run(&b);
        b.dfa_vs_naive_speedup *= 4.0;
        let failures = check_regex(&b, &honest, 0.50);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("speedup"), "{failures:?}");
        // Likewise a doctored thread-scaling floor — on a run with the
        // cores to show scaling; a 1-core run cannot fail it.
        let mut b = committed_regex();
        b.t2_vs_t1_min *= 1.5;
        let failures = check_regex(&b, &honest, 0.50);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("t2/t1"), "{failures:?}");
        let one_core = RegexMeasurement { cores: 1, ..honest };
        assert!(check_regex(&b, &one_core, 0.50).is_empty());
    }

    #[test]
    fn regex_invariant_breaks_fail_check() {
        let b = committed_regex();
        let mut bad = honest_regex_run(&b);
        bad.spans_agree = false;
        bad.t1_mbps = b.t1_mbps_min / 2.0;
        bad.t8_mbps = bad.t1_mbps * 0.1;
        let failures = check_regex(&b, &bad, 0.50);
        assert!(failures.len() >= 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("spans")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("floor")), "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("t8/t1")), "{failures:?}");
    }

    const COMMITTED_EXPLOSION: &str = include_str!("../../../BENCH_explosion.json");

    fn committed_explosion() -> ExplosionBaseline {
        parse_explosion_baseline(COMMITTED_EXPLOSION).expect("parse BENCH_explosion.json")
    }

    fn honest_explosion_run(b: &ExplosionBaseline) -> ExplosionMeasurement {
        ExplosionMeasurement {
            meta_states: b.meta_states,
            in_ram_states_per_sec: b.in_ram_states_per_sec,
            spilled_states_per_sec: b.spilled_states_per_sec,
            spill_bytes: 1 << 16,
            spill_identical: true,
        }
    }

    #[test]
    fn parses_the_committed_explosion_baseline() {
        let b = committed_explosion();
        assert!(b.meta_states > 1000, "{b:?}");
        assert!(b.in_ram_states_per_sec > 0.0, "{b:?}");
        assert!(b.spilled_states_per_sec > 0.0, "{b:?}");
    }

    #[test]
    fn matching_explosion_run_passes() {
        let b = committed_explosion();
        assert!(check_explosion(&b, &honest_explosion_run(&b), 0.50).is_empty());
    }

    #[test]
    fn doctored_explosion_baseline_fails_check() {
        // The negative test for the CI gate: inflate the committed
        // throughput numbers; re-measuring the honest values must fail.
        let mut b = committed_explosion();
        let honest = honest_explosion_run(&b);
        b.in_ram_states_per_sec *= 4.0;
        b.spilled_states_per_sec *= 4.0;
        let failures = check_explosion(&b, &honest, 0.50);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("floor")), "{failures:?}");
    }

    #[test]
    fn explosion_invariant_breaks_fail_check() {
        let b = committed_explosion();
        let mut bad = honest_explosion_run(&b);
        bad.spill_identical = false;
        bad.spill_bytes = 0;
        bad.meta_states += 1;
        let failures = check_explosion(&b, &bad, 0.50);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(
            failures.iter().any(|f| f.contains("diverged")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("spilled bytes")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("meta states")),
            "{failures:?}"
        );
    }

    const COMMITTED_CLUSTER: &str = include_str!("../../../BENCH_cluster.json");

    fn committed_cluster() -> ClusterBaseline {
        parse_cluster_baseline(COMMITTED_CLUSTER).expect("parse BENCH_cluster.json")
    }

    fn honest_cluster_run(b: &ClusterBaseline) -> ClusterMeasurement {
        ClusterMeasurement {
            jobs: b.jobs,
            peer_hits: b.peer_hits,
            node_b_compilations: b.node_b_compilations,
            peer_hit_mean_ms: b.peer_hit_mean_ms,
            single_node_cold_ms: 10.0,
            dead_peer_cold_ms: 12.0,
            verify_fails: 1,
            errors: 0,
        }
    }

    #[test]
    fn parses_the_committed_cluster_baseline() {
        let b = committed_cluster();
        assert!(b.jobs >= 2, "{b:?}");
        assert_eq!(b.peer_hits, b.jobs, "{b:?}");
        assert_eq!(b.node_b_compilations, 0, "{b:?}");
        assert!(
            b.peer_hit_mean_ms > 0.0 && b.peer_hit_mean_ms < b.peer_hit_ms_max,
            "{b:?}"
        );
        assert!(b.dead_peer_overhead_ms_max > 0.0, "{b:?}");
    }

    #[test]
    fn matching_cluster_run_passes() {
        let b = committed_cluster();
        assert!(check_cluster(&b, &honest_cluster_run(&b)).is_empty());
    }

    #[test]
    fn doctored_cluster_baseline_fails_check() {
        // The negative test for the CI gate: tighten the committed
        // latency ceiling below what the honest run measures; the gate
        // must now fail.
        let mut b = committed_cluster();
        let honest = honest_cluster_run(&b);
        b.peer_hit_ms_max = honest.peer_hit_mean_ms / 2.0;
        let failures = check_cluster(&b, &honest);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("peer-hit latency"), "{failures:?}");
    }

    #[test]
    fn cluster_invariant_breaks_fail_check() {
        let b = committed_cluster();
        let mut bad = honest_cluster_run(&b);
        bad.errors = 2;
        bad.peer_hits = 0;
        bad.node_b_compilations = bad.jobs; // fleet path entirely dead
        bad.verify_fails = 0;
        bad.dead_peer_cold_ms = bad.single_node_cold_ms + b.dead_peer_overhead_ms_max + 1.0;
        let failures = check_cluster(&b, &bad);
        assert_eq!(failures.len(), 5, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("error")), "{failures:?}");
        assert!(
            failures.iter().any(|f| f.contains("peer hit")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("compiled")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("verify")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("dead-fleet")),
            "{failures:?}"
        );
    }

    #[test]
    fn extract_number_handles_scientific_and_negatives() {
        assert_eq!(extract_number("{\"x\": -1.5e2}", "x"), Some(-150.0));
        assert_eq!(extract_number("{\"x\": 37.21,", "x"), Some(37.21));
        assert_eq!(extract_number("{\"y\": 1}", "x"), None);
        assert_eq!(extract_number("{\"x\": \"nope\"}", "x"), None);
    }
}
