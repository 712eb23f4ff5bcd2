//! Endpoint semantics: JSON in, pipeline call, JSON out.
//!
//! The wire schema is a thin skin over [`msc_engine::Job`]: a request
//! object carries `source` plus optional knobs (`mode`, `optimize`,
//! `minimize`, `csi`, `time_split`, `max_meta_states`), and responses
//! report provenance so a client can see whether its compile was fresh,
//! cached, or coalesced onto a concurrent identical request. All JSON
//! goes through the dependency-free [`msc_obs::json`] module.

use crate::http::HttpError;
use msc_core::{ConvertMode, TimeSplitOptions};
use msc_engine::{job_key, CacheKey, Compiled, Engine, Job, Provenance, TierStatus};
use msc_obs::json::Json;
use msc_obs::MetricsSnapshot;
use msc_regex::RegexEngine;
use msc_simd::{MachineConfig, SimdMachine};

/// Hard cap on simulated PEs per `/run` request.
pub const MAX_PES: usize = 4096;
/// Hard cap on `/match` pattern length in bytes (413 beyond it).
pub const MAX_PATTERN_BYTES: usize = 4096;
/// Hard cap on `/match` shard count per request (413 beyond it).
pub const MAX_SHARDS: usize = 256;
/// Hard cap on `/match` scan threads (larger requests are clamped).
pub const MAX_MATCH_THREADS: usize = 16;
/// Hard cap on the per-request simulator cycle budget.
pub const MAX_CYCLES: u64 = 100_000_000;
/// Default simulated PEs when the request does not say.
pub const DEFAULT_PES: usize = 8;
/// Default cycle budget — small enough that a runaway program cannot
/// pin a worker for long.
pub const DEFAULT_MAX_CYCLES: u64 = 10_000_000;

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError::BadRequest(msg.into())
}

fn opt_bool(v: &Json, key: &str, default: bool) -> Result<bool, HttpError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(format!("`{key}` must be a boolean"))),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, HttpError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

/// Decode one job object. Unknown keys are ignored (forward
/// compatibility); known keys with the wrong type are 400s.
/// `max_meta_states` is the server-side ceiling on the explosion guard
/// ([`crate::ServeOptions::max_meta_states`]): a request-supplied value
/// is clamped to it, and a job that omits the knob is capped by it too.
pub fn job_from_json(
    v: &Json,
    default_name: &str,
    max_meta_states: usize,
) -> Result<Job, HttpError> {
    if v.as_obj().is_none() {
        return Err(bad("request body must be a JSON object"));
    }
    let source = v
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`source` (string) is required"))?;
    let name = match v.get("name") {
        None | Some(Json::Null) => default_name,
        Some(n) => n.as_str().ok_or_else(|| bad("`name` must be a string"))?,
    };
    let mut job = Job::new(name, source);
    match v.get("mode").and_then(Json::as_str) {
        None => {}
        Some("base") => job.convert.mode = ConvertMode::Base,
        Some("compressed") => {
            job.convert = msc_core::ConvertOptions::compressed();
        }
        Some(other) => {
            return Err(bad(format!(
                "`mode` must be \"base\" or \"compressed\", got {other:?}"
            )))
        }
    }
    job.optimize = opt_bool(v, "optimize", false)?;
    job.minimize = opt_bool(v, "minimize", false)?;
    job.gen.csi = opt_bool(v, "csi", true)?;
    if opt_bool(v, "time_split", false)? {
        job.convert.time_split = Some(TimeSplitOptions::default());
    }
    let ceiling = max_meta_states.max(1);
    if let Some(n) = opt_u64(v, "max_meta_states")? {
        job.convert.max_meta_states = (n as usize).clamp(1, ceiling);
    } else {
        job.convert.max_meta_states = job.convert.max_meta_states.min(ceiling);
    }
    Ok(job)
}

fn provenance_str(p: Provenance) -> &'static str {
    match p {
        Provenance::Fresh => "fresh",
        Provenance::Memory => "memory",
        Provenance::Disk => "disk",
        Provenance::Coalesced => "coalesced",
    }
}

/// The `/compile` response object for one compiled job.
pub fn compile_response(job: &Job, compiled: &Compiled) -> Json {
    let a = &compiled.artifact;
    let t = &a.timings;
    Json::obj(vec![
        ("name", Json::from(job.name.as_str())),
        ("key", Json::from(compiled.key.hex())),
        (
            "provenance",
            Json::from(provenance_str(compiled.provenance)),
        ),
        ("meta_states", Json::from(a.meta_states)),
        ("blocks", Json::from(a.simd.blocks.len())),
        (
            "stats",
            Json::obj(vec![
                ("restarts", Json::from(a.stats.restarts as u64)),
                ("splits", Json::from(a.stats.splits as u64)),
                ("subsumed", Json::from(a.stats.subsumed as u64)),
            ]),
        ),
        (
            "timings_us",
            Json::obj(vec![
                ("compile", Json::from(t.compile.as_micros() as u64)),
                ("convert", Json::from(t.convert.as_micros() as u64)),
                ("codegen", Json::from(t.codegen.as_micros() as u64)),
            ]),
        ),
    ])
}

fn engine_error(e: msc_engine::EngineError) -> HttpError {
    HttpError::Unprocessable(e.to_string())
}

/// `POST /compile`.
pub fn compile(engine: &Engine, body: &Json, max_meta_states: usize) -> Result<Json, HttpError> {
    let job = job_from_json(body, "request", max_meta_states)?;
    compile_job(engine, &job, job_key(&job))
}

/// `POST /compile` once the body is a [`Job`] and `key` its [`job_key`]:
/// the one place a request is hashed is where it was decoded.
pub fn compile_job(engine: &Engine, job: &Job, key: CacheKey) -> Result<Json, HttpError> {
    let compiled = engine.compile_keyed(job, key).map_err(engine_error)?;
    Ok(compile_response(job, &compiled))
}

/// `POST /run`: compile (through the cache) then execute on the SIMD
/// simulator, returning per-PE results and cycle metrics.
pub fn run(engine: &Engine, body: &Json, max_meta_states: usize) -> Result<Json, HttpError> {
    let job = job_from_json(body, "request", max_meta_states)?;
    let pes = match opt_u64(body, "pes")? {
        None => DEFAULT_PES,
        Some(0) => return Err(bad("`pes` must be at least 1")),
        Some(n) if n as usize > MAX_PES => {
            return Err(bad(format!("`pes` is capped at {MAX_PES}")))
        }
        Some(n) => n as usize,
    };
    let active = match opt_u64(body, "active")? {
        None => pes,
        Some(0) => return Err(bad("`active` must be at least 1")),
        Some(n) if n as usize > pes => return Err(bad("`active` cannot exceed `pes`")),
        Some(n) => n as usize,
    };
    let max_cycles = opt_u64(body, "max_cycles")?
        .unwrap_or(DEFAULT_MAX_CYCLES)
        .clamp(1, MAX_CYCLES);

    let compiled = engine.compile(&job).map_err(engine_error)?;
    let artifact = &compiled.artifact;
    let mut config = MachineConfig::with_pool(pes, active);
    config.max_cycles = max_cycles;
    let mut machine = SimdMachine::new(&artifact.simd, &config);
    let metrics = machine
        .run(&artifact.simd, &config)
        .map_err(|e| HttpError::Unprocessable(format!("execution failed: {e}")))?;

    let results = match artifact.ret_addr {
        Some(addr) => Json::Arr(
            (0..pes)
                .map(|pe| Json::from(machine.poly_at(pe, addr)))
                .collect(),
        ),
        None => Json::Null,
    };
    Ok(Json::obj(vec![
        ("name", Json::from(job.name.as_str())),
        (
            "provenance",
            Json::from(provenance_str(compiled.provenance)),
        ),
        ("meta_states", Json::from(artifact.meta_states)),
        ("pes", Json::from(pes)),
        ("results", results),
        (
            "metrics",
            Json::obj(vec![
                ("cycles", Json::from(metrics.cycles)),
                ("issues", Json::from(metrics.issues)),
                ("dispatches", Json::from(metrics.dispatches)),
                ("utilization", Json::from(metrics.utilization())),
            ]),
        ),
    ]))
}

/// `POST /batch`: `{"jobs": [...]}` compiled as one engine batch. Per-job
/// failures land in the matching response slot; the batch itself is 200.
pub fn batch(engine: &Engine, body: &Json, max_meta_states: usize) -> Result<Json, HttpError> {
    let jobs_json = body
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("`jobs` (array) is required"))?;
    if jobs_json.is_empty() {
        return Err(bad("`jobs` must not be empty"));
    }
    let jobs = jobs_json
        .iter()
        .enumerate()
        .map(|(i, v)| job_from_json(v, &format!("job-{i}"), max_meta_states))
        .collect::<Result<Vec<_>, _>>()?;
    let results = engine.compile_many(&jobs);
    let mut ok = 0usize;
    let slots: Vec<Json> = results
        .iter()
        .zip(&jobs)
        .map(|(r, job)| match r {
            Ok(c) => {
                ok += 1;
                compile_response(job, c)
            }
            Err(e) => Json::obj(vec![
                ("name", Json::from(job.name.as_str())),
                ("error", Json::from(e.to_string())),
            ]),
        })
        .collect();
    Ok(Json::obj(vec![
        ("jobs", Json::from(slots.len())),
        ("succeeded", Json::from(ok)),
        ("results", Json::Arr(slots)),
    ]))
}

/// `GET /metrics`: the daemon's aggregated observability registry, plus
/// point-in-time gauges (open connections, queue depth) the registry's
/// monotonic counters cannot express.
pub fn metrics_response(snap: &MetricsSnapshot, gauges: &[(&str, u64)]) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::from(*v)))
        .collect();
    let hists = snap
        .hists
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("count", Json::from(h.count)),
                    ("mean", Json::from(h.mean())),
                    ("min", Json::from(if h.count == 0 { 0 } else { h.min })),
                    ("max", Json::from(h.max)),
                    (
                        "buckets",
                        Json::Obj(h.bucket_counts().map(|(r, n)| (r, Json::from(n))).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let spans = snap
        .spans
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("count", Json::from(s.count)),
                    ("total_nanos", Json::from(s.total_nanos)),
                    ("max_nanos", Json::from(s.max_nanos)),
                ]),
            )
        })
        .collect();
    let gauges = gauges
        .iter()
        .map(|(name, v)| (name.to_string(), Json::from(*v)))
        .collect();
    Json::Obj(vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("histograms".to_string(), Json::Obj(hists)),
        ("spans".to_string(), Json::Obj(spans)),
        ("gauges".to_string(), Json::Obj(gauges)),
    ])
}

/// `POST /match`: compile the pattern through the regex cache (with
/// singleflight coalescing) and scan the shards as one concatenated
/// input. Spans are reported per shard, relative to the shard holding the
/// match's *start*; a span's `end` exceeds that shard's length exactly
/// when the match crosses shard boundaries. Results are bit-identical for
/// every `threads` value.
pub fn find_matches(regex: &RegexEngine, body: &Json) -> Result<Json, HttpError> {
    if body.as_obj().is_none() {
        return Err(bad("request body must be a JSON object"));
    }
    let pattern = body
        .get("pattern")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("`pattern` (string) is required"))?;
    if pattern.len() > MAX_PATTERN_BYTES {
        return Err(HttpError::PayloadTooLarge {
            limit: MAX_PATTERN_BYTES,
        });
    }
    let shard_values = body
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("`shards` (array of strings) is required"))?;
    if shard_values.len() > MAX_SHARDS {
        return Err(HttpError::PayloadTooLarge { limit: MAX_SHARDS });
    }
    let shards: Vec<&[u8]> = shard_values
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::as_bytes)
                .ok_or_else(|| bad("`shards` entries must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let threads = match opt_u64(body, "threads")? {
        None | Some(0) => 1,
        Some(n) => (n as usize).min(MAX_MATCH_THREADS),
    };
    let (re, provenance) = regex
        .get(pattern)
        .map_err(|e| HttpError::Unprocessable(e.to_string()))?;
    let matches = re.find_sharded(&shards, threads);
    msc_obs::count("regex.requests", 1);
    msc_obs::count("regex.matches", matches.len() as u64);

    // Bucket each match into the shard containing its start, converting
    // to shard-relative offsets. `starts` carries a total-length sentinel
    // so partition_point addresses the final shard.
    let mut starts = Vec::with_capacity(shards.len() + 1);
    let mut off = 0usize;
    for s in &shards {
        starts.push(off);
        off += s.len();
    }
    starts.push(off);
    let mut per_shard: Vec<Vec<Json>> = shards.iter().map(|_| Vec::new()).collect();
    for m in &matches {
        let idx = starts.partition_point(|&s| s <= m.start).saturating_sub(1);
        let idx = idx.min(per_shard.len().saturating_sub(1));
        per_shard[idx].push(Json::obj(vec![
            ("start", Json::from(m.start - starts[idx])),
            ("end", Json::from(m.end - starts[idx])),
        ]));
    }
    let shard_objs: Vec<Json> = per_shard
        .into_iter()
        .enumerate()
        .map(|(i, ms)| Json::obj(vec![("index", Json::from(i)), ("matches", Json::Arr(ms))]))
        .collect();
    Ok(Json::obj(vec![
        ("pattern", Json::from(pattern)),
        ("provenance", Json::from(provenance_str(provenance))),
        ("meta_states", Json::from(re.meta_states())),
        ("total_matches", Json::from(matches.len())),
        ("shards", Json::Arr(shard_objs)),
    ]))
}

fn tier_json(tier: &TierStatus) -> Json {
    match tier {
        TierStatus::Memory {
            entries,
            capacity,
            evictions,
        } => Json::obj(vec![
            ("tier", Json::from("memory")),
            ("entries", Json::from(*entries)),
            ("capacity", Json::from(*capacity)),
            ("evictions", Json::from(*evictions)),
        ]),
        TierStatus::Disk { dir } => Json::obj(vec![
            ("tier", Json::from("disk")),
            ("dir", Json::from(dir.as_str())),
        ]),
    }
}

/// `GET /healthz`: liveness, queue depth, and per-tier cache status.
pub fn health_response(queued: usize, draining: bool, tiers: &[TierStatus]) -> Json {
    Json::obj(vec![
        (
            "status",
            Json::from(if draining { "draining" } else { "ok" }),
        ),
        ("queued", Json::from(queued)),
        ("cache", Json::Arr(tiers.iter().map(tier_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_engine::EngineOptions;
    use msc_obs::json;

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    fn body(s: &str) -> Json {
        json::parse(s).unwrap()
    }

    #[test]
    fn job_mapping_covers_the_knobs() {
        let v = body(
            r#"{"source":"main() { return(1); }","name":"n","mode":"compressed",
                "optimize":true,"minimize":true,"csi":false,"time_split":true}"#,
        );
        let job = job_from_json(&v, "d", 1 << 20).unwrap();
        assert_eq!(job.name, "n");
        assert_eq!(job.convert.mode, ConvertMode::Compressed);
        assert!(job.convert.subsumption);
        assert!(job.optimize && job.minimize);
        assert!(!job.gen.csi);
        assert!(job.convert.time_split.is_some());
    }

    #[test]
    fn job_mapping_clamps_guard_to_server_ceiling() {
        // A request-supplied guard above the server ceiling is clamped.
        let v = body(r#"{"source":"x","max_meta_states":999999}"#);
        let job = job_from_json(&v, "d", 100).unwrap();
        assert_eq!(job.convert.max_meta_states, 100);
        // Below the ceiling it is honored (floored at 1).
        let v = body(r#"{"source":"x","max_meta_states":7}"#);
        assert_eq!(
            job_from_json(&v, "d", 100).unwrap().convert.max_meta_states,
            7
        );
        let v = body(r#"{"source":"x","max_meta_states":0}"#);
        assert_eq!(
            job_from_json(&v, "d", 100).unwrap().convert.max_meta_states,
            1
        );
        // Jobs that omit the knob are capped by the ceiling too.
        let v = body(r#"{"source":"x"}"#);
        let default_guard = msc_engine::Job::new("d", "x").convert.max_meta_states;
        let job = job_from_json(&v, "d", 100).unwrap();
        assert_eq!(job.convert.max_meta_states, default_guard.min(100));
    }

    #[test]
    fn job_mapping_rejects_bad_shapes() {
        for raw in [
            r#"{}"#,
            r#"{"source":7}"#,
            r#"{"source":"x","mode":"turbo"}"#,
            r#"{"source":"x","optimize":"yes"}"#,
            r#"[1,2]"#,
        ] {
            assert!(
                matches!(
                    job_from_json(&body(raw), "d", 1 << 20),
                    Err(HttpError::BadRequest(_))
                ),
                "{raw}"
            );
        }
    }

    #[test]
    fn run_returns_per_pe_results() {
        let engine = Engine::new(EngineOptions::default());
        let v = body(&format!(r#"{{"source":{:?},"pes":4}}"#, PROG));
        let out = run(&engine, &v, 1 << 20).unwrap();
        let results = out.get("results").and_then(Json::as_arr).unwrap();
        let got: Vec<i64> = results.iter().map(|v| v.as_i64().unwrap()).collect();
        assert_eq!(got, vec![1, 3, 5, 7]);
        assert!(
            out.get("metrics")
                .unwrap()
                .get("cycles")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(out.get("provenance").unwrap().as_str(), Some("fresh"));
    }

    #[test]
    fn run_validates_pe_bounds() {
        let engine = Engine::new(EngineOptions::default());
        for raw in [
            format!(r#"{{"source":{PROG:?},"pes":0}}"#),
            format!(r#"{{"source":{PROG:?},"pes":1000000}}"#),
            format!(r#"{{"source":{PROG:?},"pes":2,"active":3}}"#),
        ] {
            assert!(
                matches!(
                    run(&engine, &body(&raw), 1 << 20),
                    Err(HttpError::BadRequest(_))
                ),
                "{raw}"
            );
        }
    }

    #[test]
    fn compile_error_is_unprocessable() {
        let engine = Engine::new(EngineOptions::default());
        let v = body(r#"{"source":"main() { y = 1; }"}"#);
        assert!(matches!(
            compile(&engine, &v, 1 << 20),
            Err(HttpError::Unprocessable(_))
        ));
    }

    #[test]
    fn batch_isolates_failures() {
        let engine = Engine::new(EngineOptions::default());
        let v = body(&format!(
            r#"{{"jobs":[{{"source":{PROG:?}}},{{"source":"broken("}}]}}"#
        ));
        let out = batch(&engine, &v, 1 << 20).unwrap();
        assert_eq!(out.get("jobs").unwrap().as_u64(), Some(2));
        assert_eq!(out.get("succeeded").unwrap().as_u64(), Some(1));
        let slots = out.get("results").and_then(Json::as_arr).unwrap();
        assert!(slots[0].get("provenance").is_some());
        assert!(slots[1].get("error").is_some());
    }

    #[test]
    fn second_compile_reports_cache_provenance() {
        let engine = Engine::new(EngineOptions::default());
        let v = body(&format!(r#"{{"source":{PROG:?}}}"#));
        assert_eq!(
            compile(&engine, &v, 1 << 20)
                .unwrap()
                .get("provenance")
                .unwrap()
                .as_str(),
            Some("fresh")
        );
        assert_eq!(
            compile(&engine, &v, 1 << 20)
                .unwrap()
                .get("provenance")
                .unwrap()
                .as_str(),
            Some("memory")
        );
    }

    #[test]
    fn match_returns_per_shard_relative_spans() {
        let regex = RegexEngine::default();
        let v = body(r#"{"pattern":"ab","shards":["xab","ab"],"threads":2}"#);
        let out = find_matches(&regex, &v).unwrap();
        assert_eq!(out.get("total_matches").unwrap().as_u64(), Some(2));
        assert_eq!(out.get("provenance").unwrap().as_str(), Some("fresh"));
        let shards = out.get("shards").and_then(Json::as_arr).unwrap();
        let m0 = shards[0].get("matches").and_then(Json::as_arr).unwrap();
        assert_eq!(
            (
                m0[0].get("start").unwrap().as_u64(),
                m0[0].get("end").unwrap().as_u64()
            ),
            (Some(1), Some(3))
        );
        let m1 = shards[1].get("matches").and_then(Json::as_arr).unwrap();
        assert_eq!(
            (
                m1[0].get("start").unwrap().as_u64(),
                m1[0].get("end").unwrap().as_u64()
            ),
            (Some(0), Some(2))
        );
    }

    #[test]
    fn match_reports_boundary_spanning_in_the_start_shard() {
        let regex = RegexEngine::default();
        let v = body(r#"{"pattern":"a+","shards":["xaa","aay"]}"#);
        let out = find_matches(&regex, &v).unwrap();
        assert_eq!(out.get("total_matches").unwrap().as_u64(), Some(1));
        let shards = out.get("shards").and_then(Json::as_arr).unwrap();
        let m0 = shards[0].get("matches").and_then(Json::as_arr).unwrap();
        // Relative to shard 0; end runs past its length (boundary span).
        assert_eq!(
            (
                m0[0].get("start").unwrap().as_u64(),
                m0[0].get("end").unwrap().as_u64()
            ),
            (Some(1), Some(5))
        );
        assert!(shards[1]
            .get("matches")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn match_second_request_hits_the_pattern_cache() {
        let regex = RegexEngine::default();
        let v = body(r#"{"pattern":"a+","shards":["aa"]}"#);
        assert_eq!(
            find_matches(&regex, &v)
                .unwrap()
                .get("provenance")
                .unwrap()
                .as_str(),
            Some("fresh")
        );
        assert_eq!(
            find_matches(&regex, &v)
                .unwrap()
                .get("provenance")
                .unwrap()
                .as_str(),
            Some("memory")
        );
    }

    #[test]
    fn match_rejects_bad_shapes() {
        let regex = RegexEngine::default();
        for raw in [
            r#"[]"#,
            r#"{}"#,
            r#"{"pattern":7,"shards":[]}"#,
            r#"{"pattern":"a"}"#,
            r#"{"pattern":"a","shards":"x"}"#,
            r#"{"pattern":"a","shards":[7]}"#,
            r#"{"pattern":"a","shards":["x"],"threads":"two"}"#,
        ] {
            let v = body(raw);
            assert!(
                matches!(find_matches(&regex, &v), Err(HttpError::BadRequest(_))),
                "shape {raw} must be a 400"
            );
        }
    }

    #[test]
    fn match_caps_are_413_and_syntax_errors_422() {
        let regex = RegexEngine::default();
        let long = "a".repeat(MAX_PATTERN_BYTES + 1);
        let v = body(&format!(r#"{{"pattern":"{long}","shards":["x"]}}"#));
        assert!(matches!(
            find_matches(&regex, &v),
            Err(HttpError::PayloadTooLarge {
                limit: MAX_PATTERN_BYTES
            })
        ));
        let many = vec!["\"x\""; MAX_SHARDS + 1].join(",");
        let v = body(&format!(r#"{{"pattern":"a","shards":[{many}]}}"#));
        assert!(matches!(
            find_matches(&regex, &v),
            Err(HttpError::PayloadTooLarge { limit: MAX_SHARDS })
        ));
        let v = body(r#"{"pattern":"a(","shards":["x"]}"#);
        assert!(matches!(
            find_matches(&regex, &v),
            Err(HttpError::Unprocessable(_))
        ));
    }
}
