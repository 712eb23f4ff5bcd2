//! End-to-end pin for the msc-serve daemon: boot it on an ephemeral
//! port, drive every endpoint over real TCP, and check that `/run`
//! produces exactly what the in-process [`metastate::Pipeline`] produces
//! for the same source and PE count — the service layer must be a
//! transport, not a second implementation.
//!
//! Runs as its own test binary (own process), so installing the daemon's
//! process-global obs registry here cannot collide with other tests.

use msc_serve::client::Client;
use msc_serve::{ServeOptions, Server};
use std::time::Duration;

const PROG: &str = r#"
    main() {
        poly int x, acc = 0;
        x = pe_id() % 4;
        while (x > 0) { acc += x; x -= 1; }
        return(acc + 1);
    }
"#;

fn run_body(pes: usize) -> String {
    msc_obs::json::Json::obj(vec![
        ("source", msc_obs::json::Json::from(PROG)),
        ("pes", msc_obs::json::Json::from(pes)),
    ])
    .render()
}

#[test]
fn daemon_run_matches_in_process_pipeline() {
    let handle = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Ground truth: the same program through the library pipeline.
    let built = metastate::Pipeline::new(PROG).build().unwrap();
    let pes = 6usize;
    let reference = built.run(pes).unwrap();
    let ret = built.ret_addr().expect("program returns a value");
    let expected: Vec<i64> = (0..pes)
        .map(|pe| reference.machine.poly_at(pe, ret))
        .collect();

    let mut c = Client::connect(&addr).unwrap();

    // /healthz
    let health = c.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        health
            .json()
            .unwrap()
            .get("status")
            .and_then(|s| s.as_str()),
        Some("ok")
    );

    // /run agrees with the pipeline, down to the cycle count.
    let resp = c.request("POST", "/run", Some(&run_body(pes))).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = resp.json().unwrap();
    let results: Vec<i64> = v
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results array")
        .iter()
        .map(|x| x.as_i64().unwrap())
        .collect();
    assert_eq!(results, expected, "daemon and pipeline must agree");
    assert_eq!(
        v.get("metrics")
            .and_then(|m| m.get("cycles"))
            .and_then(|c| c.as_u64()),
        Some(reference.metrics.cycles),
        "same program, same machine, same cycle count"
    );

    // /compile of the same source is now a cache hit.
    let body = msc_obs::json::Json::obj(vec![("source", msc_obs::json::Json::from(PROG))]).render();
    let resp = c.request("POST", "/compile", Some(&body)).unwrap();
    assert_eq!(resp.status, 200);
    let prov = resp.json().unwrap();
    assert!(
        matches!(
            prov.get("provenance").and_then(|p| p.as_str()),
            Some("memory") | Some("coalesced")
        ),
        "{}",
        resp.body
    );

    // /batch compiles a mix, isolating the broken job.
    let batch = format!("{{\"jobs\":[{{\"source\":{PROG:?}}},{{\"source\":\"broken(\"}}]}}");
    let resp = c.request("POST", "/batch", Some(&batch)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let v = resp.json().unwrap();
    assert_eq!(v.get("succeeded").and_then(|s| s.as_u64()), Some(1));

    // /metrics reflects what we just did.
    let metrics = c.get("/metrics").unwrap().json().unwrap();
    let counters = metrics.get("counters").expect("counters object");
    assert!(
        counters
            .get("serve.requests")
            .and_then(|x| x.as_u64())
            .unwrap()
            >= 4
    );
    assert_eq!(counters.get("cache.miss").and_then(|x| x.as_u64()), Some(2));

    handle.shutdown();
}

#[test]
fn concurrent_identical_cold_requests_compile_exactly_once() {
    // Default sizing (one worker per core, a 64-deep queue): on a box with
    // fewer cores than the burst is wide, most of it waits in the queue,
    // and none of it may be shed.
    let handle = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();

    const BURST: usize = 16;
    let body = msc_obs::json::Json::obj(vec![("source", msc_obs::json::Json::from(PROG))]).render();
    let provenances: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                let (addr, body) = (&addr, &body);
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let r = c.request("POST", "/compile", Some(body)).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                    r.json()
                        .unwrap()
                        .get("provenance")
                        .and_then(|p| p.as_str())
                        .unwrap()
                        .to_string()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Singleflight + cache: exactly one fresh compile, everything else
    // either coalesced onto it or hit the cache it filled.
    let fresh = provenances.iter().filter(|p| *p == "fresh").count();
    assert_eq!(fresh, 1, "exactly one compilation: {provenances:?}");
    assert_eq!(handle.engine().jobs_compiled(), 1);
    let snap = handle.registry().snapshot();
    assert_eq!(snap.counter("cache.miss"), 1);
    assert_eq!(
        snap.counter("cache.hit") + snap.counter("engine.coalesced"),
        (BURST - 1) as u64,
        "{provenances:?}"
    );
    assert_eq!(
        snap.counter("serve.coalesced"),
        snap.counter("engine.coalesced"),
        "the serve layer mirrors the engine's coalescing count"
    );
    assert_eq!(snap.counter("serve.shed"), 0, "the queue took the burst");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_requests() {
    let handle = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = handle.local_addr().to_string();

    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request("POST", "/run", Some(&run_body(8))).unwrap()
        })
    };
    // Let the request reach a worker, then drain the daemon under it.
    std::thread::sleep(Duration::from_millis(50));
    handle.shutdown();

    let resp = worker.join().expect("in-flight client");
    assert_eq!(
        resp.status, 200,
        "in-flight request must complete through the drain: {}",
        resp.body
    );
    // After the drain the port is closed.
    assert!(
        Client::connect(&addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_err(),
        "daemon must stop accepting after shutdown"
    );
}
