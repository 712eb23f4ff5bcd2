//! Client-side pieces for the msc-serve daemon: the endpoint smoke checks
//! behind `loadgen --smoke`. How fast the daemon answers is `perf`'s
//! `serve_mixed`; what a burst of identical cold requests costs is
//! `tests/serve_end_to_end.rs`, and a restart that reloads its
//! artifacts from the disk cache is `crates/cli/tests/restart.rs`.

use msc_obs::json::Json;
use msc_serve::client::Client;
use msc_serve::{ServeOptions, Server, ServerHandle};
use std::time::{Duration, Instant};

/// The sources the smoke checks compile.
const HIT_POOL: [&str; 3] = [
    "main() { poly int x; x = pe_id() * 2 + 1; return(x); }",
    "main() { poly int x, acc = 0; x = pe_id() % 4; while (x > 0) { acc += x; x -= 1; } return(acc); }",
    "main() { poly int v; v = 3; if (pe_id() % 2) { v = v + 1; } else { v = v + 2; } return(v); }",
];

/// JSON request body for `POST /compile`.
fn compile_body(source: &str) -> String {
    Json::obj(vec![("source", Json::from(source))]).render()
}

/// Poll `/healthz` until it answers 200 or the budget runs out.
fn wait_healthy(addr: &str, budget: Duration) -> bool {
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
fn counter(addr: &str, name: &str) -> u64 {
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
    let has_key = c
        .request("POST", "/compile", Some(&body))
        .ok()
        .filter(|r| r.status == 200)
        .and_then(|r| r.json())
        .is_some_and(|v| v.get("key").and_then(Json::as_str).is_some());
    check("POST /compile returns the cache key", has_key);
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
    // A source nested past the front end's bound is refused with a 422
    // by a worker, on its own stack, and the checks below show the daemon
    // still answering.
    let deep = format!(
        "main() {{ poly int x; x = {}1{}; }}",
        "(".repeat(800),
        ")".repeat(800)
    );
    check(
        "POST /compile nested 800 deep answered with 422",
        c.request("POST", "/compile", Some(&compile_body(&deep)))
            .map(|r| r.status == 422)
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

/// The daemon to drive: the one at `addr`, or an in-process one on an
/// ephemeral port with the default sizing (the handle comes back so the
/// caller can drain it).
pub fn attach(addr: Option<&str>) -> Result<(String, Option<ServerHandle>), String> {
    let (addr, handle) = match addr {
        Some(addr) => (addr.to_string(), None),
        None => {
            let handle = Server::start(ServeOptions {
                addr: "127.0.0.1:0".to_string(),
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
