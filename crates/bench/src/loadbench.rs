//! Shared load-harness pieces for the msc-serve daemon.
//!
//! One source of truth for the workload mix, the endpoint smoke checks,
//! and the `BENCH_serve.json` measurement, used by both the `loadgen`
//! binary (any daemon, any client count) and the `serve` row of
//! [`crate::gate::BENCHES`] (`claims -- serve [--check]`).

use msc_obs::json::Json;
use msc_serve::client::Client;
use msc_serve::{ServeOptions, Server, ServerHandle};
use std::time::{Duration, Instant};

/// The warm-cache source pool: ~90% of load-phase requests rotate
/// through these four programs.
pub const HIT_POOL: [&str; 4] = [
    "main() { poly int x; x = pe_id() * 2 + 1; return(x); }",
    "main() { poly int x, acc = 0; x = pe_id() % 4; while (x > 0) { acc += x; x -= 1; } return(acc); }",
    "main() { poly int v; v = 3; if (pe_id() % 2) { v = v + 1; } else { v = v + 2; } return(v); }",
    "main() { mono int total = 0; poly int x; x = pe_id(); total += x; return(x + total); }",
];

/// A never-seen-before source (cache miss) parameterized by `salt`.
pub fn miss_source(salt: u64) -> String {
    format!(
        "main() {{ poly int x, acc = {salt}; x = pe_id() % 3; \
         while (x > 0) {{ acc += x; x -= 1; }} return(acc); }}"
    )
}

/// JSON request body for `POST /compile`.
pub fn compile_body(source: &str) -> String {
    Json::obj(vec![("source", Json::from(source))]).render()
}

/// Nearest-rank percentile over an already-sorted latency vector (ns).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Poll `/healthz` until it answers 200 or the budget runs out.
pub fn wait_healthy(addr: &str, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if let Ok(mut c) = Client::connect_with_timeout(addr, Duration::from_secs(2)) {
            if c.get("/healthz").map(|r| r.status == 200).unwrap_or(false) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// Read one counter out of the daemon's `/metrics` endpoint.
pub fn counter(addr: &str, name: &str) -> u64 {
    let mut c = Client::connect(addr).expect("connect for /metrics");
    let v = c
        .get("/metrics")
        .expect("/metrics")
        .json()
        .expect("metrics JSON");
    v.get("counters")
        .and_then(|cs| cs.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Touch every endpoint once; print one ok/FAIL line per check.
pub fn smoke(addr: &str) -> bool {
    let mut ok = true;
    let mut check = |label: &str, pass: bool| {
        println!("  {} {label}", if pass { "ok " } else { "FAIL" });
        ok &= pass;
    };
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            println!("  FAIL connect: {e}");
            return false;
        }
    };
    check(
        "GET /healthz",
        c.get("/healthz").map(|r| r.status == 200).unwrap_or(false),
    );
    let body = compile_body(HIT_POOL[0]);
    let compile_key = c
        .request("POST", "/compile", Some(&body))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json())
        .and_then(|v| v.get("key").and_then(Json::as_str).map(str::to_string));
    check("POST /compile returns the cache key", compile_key.is_some());
    // The same body again is resident: the one request of the smoke the
    // reactor answers itself (`serve.resident_answers`).
    check(
        "POST /compile again is answered from memory",
        c.request("POST", "/compile", Some(&body))
            .ok()
            .and_then(|r| r.json())
            .and_then(|v| {
                v.get("provenance")
                    .and_then(Json::as_str)
                    .map(|p| p == "memory")
            })
            .unwrap_or(false),
    );
    // /artifact: the key just compiled must come back as a verifiable
    // envelope; a valid-but-absent key is a 404; a malformed key is 400.
    let artifact_hit = compile_key.as_deref().is_some_and(|hex| {
        let Some(key) = msc_cache::CacheKey::from_hex(hex) else {
            return false;
        };
        c.get(&format!("/artifact/{hex}"))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| msc_cache::wire::open(key, &r.body))
            .is_some_and(|a| a.starts_with("mscache v1\n"))
    });
    check(
        "GET /artifact/{key} serves a verified artifact",
        artifact_hit,
    );
    check(
        "GET /artifact absent key answered with 404",
        c.get(&format!("/artifact/{}", "0".repeat(32)))
            .map(|r| r.status == 404)
            .unwrap_or(false),
    );
    check(
        "GET /artifact malformed key answered with 400",
        c.get("/artifact/not-a-key")
            .map(|r| r.status == 400)
            .unwrap_or(false),
    );
    let run_body = Json::obj(vec![
        ("source", Json::from(HIT_POOL[0])),
        ("pes", Json::from(4u64)),
    ])
    .render();
    let run_ok = c
        .request("POST", "/run", Some(&run_body))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json())
        .and_then(|v| v.get("results").and_then(|a| a.as_arr().map(|s| s.len())))
        == Some(4);
    check("POST /run returns 4 PE results", run_ok);
    let batch_body = format!(
        "{{\"jobs\":[{},{}]}}",
        compile_body(HIT_POOL[1]),
        compile_body(HIT_POOL[2])
    );
    check(
        "POST /batch",
        c.request("POST", "/batch", Some(&batch_body))
            .map(|r| r.status == 200)
            .unwrap_or(false),
    );
    // /match: a cold pattern (compile miss), the same pattern again (the
    // pattern cache must answer), and a malformed pattern (clean 422).
    let match_body = Json::obj(vec![
        ("pattern", Json::from("ab+")),
        (
            "shards",
            Json::from(vec![Json::from("xab"), Json::from("bya")]),
        ),
    ])
    .render();
    let post_match = |c: &mut Client| {
        c.request("POST", "/match", Some(&match_body))
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| r.json())
    };
    let first = post_match(&mut c);
    check(
        "POST /match finds the boundary-spanning match",
        first
            .as_ref()
            .and_then(|v| v.get("total_matches").and_then(Json::as_u64))
            == Some(1),
    );
    let again = post_match(&mut c);
    check(
        "POST /match again hits the pattern cache",
        again
            .as_ref()
            .and_then(|v| v.get("provenance"))
            .and_then(Json::as_str)
            .is_some_and(|p| p != "fresh"),
    );
    check(
        "malformed pattern answered with 422",
        c.request(
            "POST",
            "/match",
            Some(
                &Json::obj(vec![
                    ("pattern", Json::from("a(")),
                    ("shards", Json::from(vec![Json::from("x")])),
                ])
                .render(),
            ),
        )
        .map(|r| r.status == 422)
        .unwrap_or(false),
    );
    check(
        "GET /metrics shows serve.requests",
        counter(addr, "serve.requests") >= 1,
    );
    check(
        "GET /metrics shows regex.requests",
        counter(addr, "regex.requests") >= 2,
    );
    check(
        "bad request answered with 4xx",
        c.request("POST", "/compile", Some("not json"))
            .map(|r| (400..500).contains(&r.status))
            .unwrap_or(false),
    );
    ok
}

/// The coalesce burst: `n` concurrent identical cold compiles must cost
/// exactly one compilation (one `cache.miss`), the rest splitting into
/// `engine.coalesced` + `cache.hit`. Returns `(compilations, coalesced)`.
pub fn coalesce_burst(addr: &str, n: usize) -> (u64, u64) {
    let miss_before = counter(addr, "cache.miss");
    let source = miss_source(999_999_983);
    let body = compile_body(&source);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let body = &body;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("burst connect");
                    let r = c
                        .request("POST", "/compile", Some(body))
                        .expect("burst request");
                    assert_eq!(r.status, 200, "burst request failed: {}", r.body);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("burst client");
        }
    });
    let compilations = counter(addr, "cache.miss") - miss_before;
    let coalesced = counter(addr, "engine.coalesced");
    (compilations, coalesced)
}

/// Aggregate result of one [`load_phase`].
pub struct LoadReport {
    pub requests: u64,
    pub errors: u64,
    pub elapsed: Duration,
    /// Sorted per-request latencies in nanoseconds.
    pub latencies: Vec<u64>,
}

/// Drive `clients` keep-alive connections at the daemon for `duration`,
/// ~90% warm-pool compiles and ~10% unique sources.
pub fn load_phase(addr: &str, clients: usize, duration: Duration) -> LoadReport {
    let t0 = Instant::now();
    let per_client: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("client connect");
                    let (mut n, mut errors) = (0u64, 0u64);
                    let mut lat = Vec::with_capacity(4096);
                    let deadline = Instant::now() + duration;
                    while Instant::now() < deadline {
                        // ~10% of requests are never-seen sources (cache
                        // misses); the rest rotate through the hit pool.
                        let body = if n % 10 == 9 {
                            compile_body(&miss_source(i as u64 * 1_000_000 + n))
                        } else {
                            compile_body(HIT_POOL[(n % 4) as usize])
                        };
                        let t = Instant::now();
                        match c.request("POST", "/compile", Some(&body)) {
                            Ok(r) if r.status == 200 => lat.push(t.elapsed().as_nanos() as u64),
                            Ok(_) | Err(_) => {
                                errors += 1;
                                // The connection may be gone after an error.
                                c = Client::connect(addr).expect("client reconnect");
                            }
                        }
                        n += 1;
                    }
                    (n, errors, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut latencies = Vec::new();
    let (mut requests, mut errors) = (0, 0);
    for (n, e, l) in per_client {
        requests += n;
        errors += e;
        latencies.extend(l);
    }
    latencies.sort_unstable();
    LoadReport {
        requests,
        errors,
        elapsed,
        latencies,
    }
}

/// Client count the committed serve baseline is measured at.
pub const BASELINE_CLIENTS: usize = 80;

/// The daemon to drive: the one at `addr`, or an in-process one on an
/// ephemeral port (the handle comes back so the caller can drain it).
///
/// Under the epoll reactor the worker pool only runs compute, so the
/// default sizing applies; the portable driver (non-Linux targets)
/// parks one worker per keep-alive connection and needs `workers >=
/// clients` plus burst headroom to avoid queueing stalls.
pub fn attach(
    addr: Option<&str>,
    clients: usize,
) -> Result<(String, Option<ServerHandle>), String> {
    let (addr, handle) = match addr {
        Some(addr) => (addr.to_string(), None),
        None => {
            let workers = if msc_serve::reactor_available() {
                0 // ServeOptions default: one worker per available core
            } else {
                clients + 17
            };
            let handle = Server::start(ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                queue_depth: 256,
                workers,
                ..ServeOptions::default()
            })
            .map_err(|e| format!("start in-process daemon: {e}"))?;
            (handle.local_addr().to_string(), Some(handle))
        }
    };
    if wait_healthy(&addr, Duration::from_secs(10)) {
        return Ok((addr, handle));
    }
    if let Some(h) = handle {
        h.shutdown();
    }
    Err(format!("daemon at {addr} never became healthy"))
}

/// One `BENCH_serve.json` measurement against the daemon at `addr`
/// (`None`: an in-process one, drained afterwards): warm the hit pool,
/// run one load phase and one 16-wide coalesce burst. Returns the file
/// body.
pub fn measure_serve(
    addr: Option<&str>,
    clients: usize,
    duration: Duration,
) -> Result<Json, String> {
    let (addr, handle) = attach(addr, clients)?;
    let body = drive(&addr, clients, duration);
    if let Some(h) = handle {
        h.shutdown();
    }
    body
}

fn drive(addr: &str, clients: usize, duration: Duration) -> Result<Json, String> {
    println!(
        "{clients} clients x {}ms against {addr}",
        duration.as_millis()
    );
    // Warm the cache so the measured phase is the advertised ~90% hit mix.
    let mut c = Client::connect(addr).map_err(|e| format!("warmup connect: {e}"))?;
    for src in HIT_POOL {
        let r = c
            .request("POST", "/compile", Some(&compile_body(src)))
            .map_err(|e| format!("warmup compile: {e}"))?;
        if r.status != 200 {
            return Err(format!("warmup failed: {}", r.body));
        }
    }
    drop(c);
    let report = load_phase(addr, clients, duration);
    let throughput = report.requests as f64 / report.elapsed.as_secs_f64();
    let ms = |p: f64| percentile(&report.latencies, p) as f64 / 1e6;
    let (p50, p90, p99, max) = (ms(50.0), ms(90.0), ms(99.0), ms(100.0));
    println!(
        "requests: {} ({} errors) in {:.2}s -> {throughput:.0} req/s",
        report.requests,
        report.errors,
        report.elapsed.as_secs_f64(),
    );
    println!("latency: p50 {p50:.3}ms  p90 {p90:.3}ms  p99 {p99:.3}ms  max {max:.3}ms");
    const BURST: usize = 16;
    let (compilations, coalesced) = coalesce_burst(addr, BURST);
    println!(
        "coalesce burst: {BURST} identical cold requests -> {compilations} compilation(s), \
         engine.coalesced total {coalesced}"
    );
    Ok(Json::obj([
        (
            "workload",
            Json::from("POST /compile, ~90% warm-cache pool of 4 sources, ~10% unique sources"),
        ),
        ("clients", Json::from(clients)),
        ("duration_ms", Json::from(duration.as_millis() as u64)),
        ("requests", Json::from(report.requests)),
        ("errors", Json::from(report.errors)),
        ("shed", Json::from(counter(addr, "serve.shed"))),
        ("throughput_rps", Json::from(throughput)),
        (
            "latency_ms",
            Json::obj([
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
                ("max", Json::from(max)),
            ]),
        ),
        (
            "coalesce_burst",
            Json::obj([
                ("requests", Json::from(BURST)),
                ("compilations", Json::from(compilations)),
            ]),
        ),
        (
            "targets",
            Json::obj([
                ("throughput_rps_min", Json::from(5_000u64)),
                ("p99_ms_max", Json::from(50u64)),
                ("burst_compilations", Json::from(1u64)),
            ]),
        ),
    ]))
}
