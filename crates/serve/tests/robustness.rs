//! Hostile-input pinning for the daemon: malformed request lines,
//! oversized bodies, truncated and slow-loris reads, wrong content
//! types. Every case must come back as a clean 4xx/408/503 — never a
//! panic, never a leaked worker — and the daemon must keep serving
//! afterwards.
//!
//! Each test starts its own daemon on an ephemeral port; the process-
//! global obs install lock serializes them, so they never share state.

use msc_serve::client::Client;
use msc_serve::{ServeOptions, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

fn start(configure: impl FnOnce(&mut ServeOptions)) -> ServerHandle {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_millis(400),
        ..ServeOptions::default()
    };
    configure(&mut opts);
    Server::start(opts).expect("bind ephemeral port")
}

/// Write raw bytes, half-close, read whatever comes back.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(bytes).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

fn assert_alive(addr: &str) {
    let mut c = Client::connect(addr).unwrap();
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200, "daemon must survive: {}", health.body);
}

#[test]
fn malformed_request_lines_are_400_and_daemon_survives() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    for raw in [
        &b"GARBAGE\r\n\r\n"[..],
        b"GET\r\n\r\n",
        b"GET /healthz HTTP/1.1 junk\r\n\r\n",
        b"get /healthz HTTP/1.1\r\n\r\n",
        b"GET healthz HTTP/1.1\r\n\r\n",
        b"\xff\xfe\xfd\r\n\r\n",
        b"POST /compile HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    ] {
        let resp = raw_exchange(&addr, raw);
        assert!(
            resp.starts_with("HTTP/1.1 400 "),
            "input {raw:?} got: {resp}"
        );
        assert_alive(&addr);
    }
    handle.shutdown();
}

#[test]
fn unknown_paths_and_methods_are_404_405() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.get("/nope").unwrap().status, 404);
    // The daemon serves no artifacts: a well-formed key and a malformed
    // one are the same unknown path.
    assert_eq!(
        c.get(&format!("/artifact/{}", "0".repeat(32)))
            .unwrap()
            .status,
        404
    );
    assert_eq!(c.get("/artifact/not-a-key").unwrap().status, 404);
    // Same keep-alive connection keeps working after a routing error.
    assert_eq!(c.request("DELETE", "/healthz", None).unwrap().status, 405);
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn oversized_declared_body_is_413() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let resp = raw_exchange(
        &addr,
        b"POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn truncated_body_is_400() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let resp = raw_exchange(
        &addr,
        b"POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 50\r\n\r\n{\"so",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn post_without_length_is_411_and_wrong_content_type_is_415() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let resp = raw_exchange(&addr, b"POST /compile HTTP/1.1\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 411 "), "{resp}");

    let resp = raw_exchange(
        &addr,
        b"POST /compile HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi",
    );
    assert!(resp.starts_with("HTTP/1.1 415 "), "{resp}");
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn header_bomb_is_431() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..200 {
        raw.push_str(&format!("X-Pad-{i}: filler\r\n"));
    }
    raw.push_str("\r\n");
    let resp = raw_exchange(&addr, raw.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 431 "), "{resp}");
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn slow_loris_is_408_and_frees_the_worker() {
    let handle = start(|o| {
        o.workers = 1;
        o.read_timeout = Duration::from_millis(200);
    });
    let addr = handle.local_addr().to_string();
    // Trickle half a request line, then stall past the read timeout.
    let mut s = TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"POST /comp").unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
    // The single worker must be free again for real traffic.
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let handle = start(|o| {
        o.workers = 1;
        o.queue_depth = 1;
        o.read_timeout = Duration::from_millis(800);
    });
    let addr = handle.local_addr().to_string();
    // c1 occupies the only worker (idle, no bytes sent yet); c2 fills
    // the queue; c3 must be shed by the acceptor.
    let c1 = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let _c2 = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let mut c3 = TcpStream::connect(&addr).unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = String::new();
    let _ = c3.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 503 "), "{out}");
    assert!(out.contains("Retry-After: 1\r\n"), "{out}");

    // The occupied worker still serves its connection normally.
    let mut c1w = c1;
    c1w.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    c1w.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    let _ = c1w.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 200 "), "{out}");

    let shed = handle.registry().snapshot().counter("serve.shed");
    assert!(shed >= 1, "shed counter must record the 503, got {shed}");
    handle.shutdown();
}

#[test]
fn compile_and_run_roundtrip_with_metrics() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let body = msc_obs::json::Json::obj(vec![
        ("source", msc_obs::json::Json::from(PROG)),
        ("pes", msc_obs::json::Json::from(4u64)),
    ]);
    let resp = c.post_json("/run", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = resp.json().unwrap();
    let results: Vec<i64> = v
        .get("results")
        .and_then(|r| r.as_arr())
        .unwrap()
        .iter()
        .map(|x| x.as_i64().unwrap())
        .collect();
    assert_eq!(results, vec![1, 3, 5, 7]);

    // A second identical compile is a cache hit, visible in /metrics.
    let resp = c.post_json("/compile", &body).unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json().unwrap();
    assert!(
        matches!(
            v.get("provenance").and_then(|p| p.as_str()),
            Some("memory") | Some("coalesced")
        ),
        "{}",
        resp.body
    );
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(
        counters.get("cache.miss").and_then(|x| x.as_u64()),
        Some(1),
        "{}",
        metrics.render()
    );
    assert!(
        counters
            .get("serve.requests")
            .and_then(|x| x.as_u64())
            .unwrap()
            >= 2,
        "{}",
        metrics.render()
    );
    handle.shutdown();
}

#[test]
fn match_hostile_inputs_are_clean_4xx_and_daemon_survives() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let json = |s: &str| msc_obs::json::parse(s).unwrap();

    // Oversized pattern: 413, not a panic.
    let long = "a".repeat(msc_serve::api::MAX_PATTERN_BYTES + 1);
    let resp = c
        .post_json(
            "/match",
            &json(&format!(r#"{{"pattern":"{long}","shards":["x"]}}"#)),
        )
        .unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);

    // Oversized shard count: 413.
    let many = vec!["\"x\""; msc_serve::api::MAX_SHARDS + 1].join(",");
    let resp = c
        .post_json(
            "/match",
            &json(&format!(r#"{{"pattern":"a","shards":[{many}]}}"#)),
        )
        .unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);

    // Malformed pattern: 422 with the parse error, not a panic.
    let resp = c
        .post_json("/match", &json(r#"{"pattern":"a(","shards":["x"]}"#))
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);

    // Pathological-but-parseable pattern that blows the meta-state cap:
    // 422, not a hang or a panic.
    let bomb = format!(".*a{}", ".".repeat(16));
    let resp = c
        .post_json(
            "/match",
            &json(&format!(r#"{{"pattern":"{bomb}","shards":["x"]}}"#)),
        )
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);

    // Bad shapes: 400.
    for raw in [
        r#"{"shards":["x"]}"#,
        r#"{"pattern":"a","shards":[1]}"#,
        r#"{"pattern":"a"}"#,
    ] {
        let resp = c.post_json("/match", &json(raw)).unwrap();
        assert_eq!(resp.status, 400, "shape {raw}: {}", resp.body);
    }

    // GET on /match is a 405, and the daemon still works end to end.
    assert_eq!(c.get("/match").unwrap().status, 405);
    let resp = c
        .post_json(
            "/match",
            &json(r#"{"pattern":"ab","shards":["xa","by"],"threads":8}"#),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = resp.json().unwrap();
    assert_eq!(v.get("total_matches").and_then(|x| x.as_u64()), Some(1));
    assert_eq!(
        handle.regex().compiled(),
        1,
        "only the good pattern compiled"
    );
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let counters = metrics.get("counters").unwrap();
    assert_eq!(
        counters.get("regex.requests").and_then(|x| x.as_u64()),
        Some(1),
        "{}",
        metrics.render()
    );
    assert_alive(&addr);
    handle.shutdown();
}

/// The five ways MIMDC nests without bound — parentheses, unary minus, a
/// left-deep `+` chain, blocks, an `else if` chain — each repeated to fill
/// about `bytes`.
fn over_deep_sources(bytes: usize) -> Vec<(&'static str, String)> {
    [
        ("parens", "x = ", "(", "1", ")", ";"),
        ("negations", "x = ", "- ", "1", "", ";"),
        ("sum", "x = 1", " + 1", "", "", ";"),
        ("blocks", "", "{", "", "}", ""),
        ("else-if", "", "if (x) x = 1; else ", "x = 2;", "", ""),
    ]
    .into_iter()
    .map(|(name, pre, open, mid, close, post)| {
        let n = bytes / (open.len() + close.len());
        let (open, close) = (open.repeat(n), close.repeat(n));
        let src = format!("main() {{ poly int x; {pre}{open}{mid}{close}{post} }}");
        (name, src)
    })
    .collect()
}

#[test]
fn over_deep_nesting_is_422_and_daemon_survives() {
    use msc_obs::json::Json;
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let limit = "nesting deeper than 256 levels";
    let job = |src: &str| Json::obj(vec![("source", Json::from(src))]);

    // Just under the 1 MiB body cap once wrapped in JSON.
    for (name, src) in over_deep_sources((1 << 20) - 64) {
        for path in ["/compile", "/run"] {
            let resp = c.post_json(path, &job(&src)).unwrap();
            assert_eq!(resp.status, 422, "{name} {path}: {}", resp.body);
            assert!(resp.body.contains(limit), "{name} {path}: {}", resp.body);
        }
    }

    // In a batch the over-deep job fails in its own slot.
    for (name, src) in over_deep_sources(1 << 19) {
        let body = Json::obj(vec![("jobs", Json::from(vec![job(&src), job(PROG)]))]);
        let resp = c.post_json("/batch", &body).unwrap();
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        let v = resp.json().unwrap();
        assert_eq!(v.get("succeeded").and_then(Json::as_u64), Some(1), "{name}");
        let slots = v.get("results").and_then(Json::as_arr).unwrap();
        let error = slots[0].get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains(limit), "{name}: {}", resp.body);
        assert!(
            slots[1].get("provenance").is_some(),
            "{name}: {}",
            resp.body
        );
    }
    assert_alive(&addr);
    handle.shutdown();
}

#[test]
fn healthz_reports_cache_tiers() {
    let dir = std::env::temp_dir().join(format!("msc-healthz-tiers-{}", std::process::id()));
    let handle = start(|o| o.cache_dir = Some(dir.clone()));
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let v = health.json().unwrap();
    let tiers = v.get("cache").and_then(|t| t.as_arr()).unwrap();
    let names: Vec<&str> = tiers
        .iter()
        .map(|t| t.get("tier").and_then(|n| n.as_str()).unwrap())
        .collect();
    assert_eq!(names, ["memory", "disk"], "{}", health.body);
    assert_eq!(
        tiers[1].get("dir").and_then(|d| d.as_str()),
        Some(dir.display().to_string().as_str()),
        "{}",
        health.body
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_exposes_conn_state_counters_and_open_connection_gauge() {
    let handle = start(|_| {});
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    let metrics = c.get("/metrics").unwrap().json().unwrap();

    let gauges = metrics.get("gauges").expect("metrics must carry gauges");
    let open = gauges
        .get("serve.open_connections")
        .and_then(|x| x.as_u64())
        .expect("open-connection gauge present");
    assert!(open >= 1, "this very connection is open, got {open}");

    // Both drivers step the same connection machine, so both count its
    // transitions; only the reactor has epoll wakeups to count.
    let counters = metrics.get("counters").unwrap();
    let mut names = vec![
        "serve.conn_state.reading_head",
        "serve.conn_state.executing",
        "serve.conn_state.writing",
    ];
    if msc_serve::reactor_available() {
        names.push("serve.epoll_wakeups");
    }
    for name in names {
        assert!(
            counters.get(name).and_then(|x| x.as_u64()).unwrap_or(0) >= 1,
            "{name} missing from {}",
            metrics.render()
        );
    }
    handle.shutdown();
}
