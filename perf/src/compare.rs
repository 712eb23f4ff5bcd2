//! `perf compare A.json B.json`: one row per workload × end-to-end
//! metric, with both values, the ratio and its base, and a verdict
//! against the metric's bound.

use crate::harness::END_TO_END;
use msc_obs::json::{self, Json};
use std::process::ExitCode;

/// Counts that repeat exactly, compared bit for bit: `(name,
/// lower_is_better)`. They live in the traced half of a result file.
const EXACT: [(&str, bool); 4] = [
    ("sim_cycles", true),
    ("code_instrs", true),
    ("meta_states", true),
    ("msc_vs_interp_speedup", false),
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("benchmark").and_then(Json::as_str) != Some("msc-perf") {
        return Err(format!("{path} is not a `perf run` result file"));
    }
    if v.get("env")
        .and_then(|e| e.get("quick"))
        .and_then(Json::as_bool)
        != Some(false)
    {
        return Err(format!(
            "{path} is a --quick result: a smoke run, not a measurement"
        ));
    }
    Ok(v)
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// `(value, spread)` of one metric of one mode of one workload row.
fn metric(row: &Json, mode: &str, name: &str) -> Option<(f64, f64)> {
    let m = row.get(mode)?.get("metrics")?.get(name)?;
    Some((m.get("value")?.as_f64()?, m.get("spread")?.as_f64()?))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        b / a - 1.0
    } else {
        1.0 - b / a
    }
}

pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:18} {:22} {:>14} {:>14} {:>18} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let mut any_worse = false;
    let names = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("A has no workloads")?;
    for row_a in names {
        let name = row_a
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let row_b = workload(&b, name).ok_or(format!("B lacks workload {name}"))?;
        let field = |row: &Json, key: &str| {
            row.get("untraced")
                .and_then(|d| d.get(key))
                .map(Json::render)
        };
        if field(row_a, "input_digest") != field(row_b, "input_digest") {
            return Err(format!(
                "{name}: input digests differ (different seed or generators): not comparable"
            ));
        }
        let mut print = |metric: &str, va: f64, vb: f64, bound: f64, verdict: &str| {
            println!(
                "{name:18} {metric:22} {va:14.4} {vb:14.4} {:>18} {:>5.0}%  {verdict}",
                format!("{:.4} of {va:.4}", vb / va),
                bound * 100.0
            );
            any_worse |= verdict == "worse";
        };
        for (metric_name, _, lower, bound) in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (
                metric(row_a, "untraced", metric_name),
                metric(row_b, "untraced", metric_name),
            ) else {
                return Err(format!("{name}: {metric_name} missing"));
            };
            let verdict = if worsening(va, vb, lower) > bound {
                "worse"
            } else if sa.max(sb) > bound {
                // Runs of one side disagree by more than the bound: the
                // pair cannot show "unchanged".
                "unresolved"
            } else {
                "ok"
            };
            print(metric_name, va, vb, bound, verdict);
        }
        for (metric_name, lower) in EXACT {
            let (Some((va, _)), Some((vb, _))) = (
                metric(row_a, "traced", metric_name),
                metric(row_b, "traced", metric_name),
            ) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue; // not a metric of this workload
            }
            let verdict = match worsening(va, vb, lower) {
                w if w > 0.0 => "worse",
                w if w < 0.0 => "better",
                _ => "ok",
            };
            print(metric_name, va, vb, 0.0, verdict);
        }
        let failed = |row: &Json| {
            ["untraced", "traced"]
                .iter()
                .filter_map(|m| row.get(m)?.get("failed")?.as_u64())
                .sum::<u64>()
        };
        if failed(row_a) + failed(row_b) > 0 {
            println!(
                "{name:18} failed ops: A {} B {}  worse",
                failed(row_a),
                failed(row_b)
            );
            any_worse = true;
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 85.0, false) - 0.15).abs() < 1e-12);
        assert!((worsening(100.0, 115.0, true) - 0.15).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, false) < 0.0);
    }
}
