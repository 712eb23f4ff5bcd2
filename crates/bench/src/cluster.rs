//! Cluster measurement: subprocess `mscc serve` daemons sharing
//! artifacts over `GET /artifact/{key}`.
//!
//! The obs install lock is process-global (one daemon per process), so
//! every node here is a real `mscc serve` subprocess logging to
//! `cluster-logs/<name>.log`. Four short-lived legs:
//!
//! 1. **node A** (no peers) compiles the workload cold — that run is
//!    the single-node baseline;
//! 2. **node B** (`--peers` = A) must answer the same workload entirely
//!    from A — zero local compilations, every response `"peer"`;
//! 3. **node C** peers at a dead address — a dead fleet must degrade to
//!    a local compile without unbounded stalling;
//! 4. **node E** peers at a rogue listener serving garbage — checksum
//!    verification must reject the body and fall back to compiling.

use crate::gate::lookup;
use crate::loadbench::{compile_body, counter, miss_source, wait_healthy};
use msc_obs::json::Json;
use msc_serve::client::Client;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where daemon stdout/stderr goes; `ci.sh cluster-smoke` dumps these
/// on failure.
pub const LOG_DIR: &str = "cluster-logs";

/// Distinct cold sources per node, far from the loadgen salt ranges.
pub const CLUSTER_JOBS: usize = 8;

fn cluster_sources() -> Vec<String> {
    (0..CLUSTER_JOBS)
        .map(|i| miss_source(7_000_000_000 + i as u64))
        .collect()
}

/// One subprocess daemon. Killed (not drained) on drop — bench nodes
/// have nothing to flush.
pub struct Daemon {
    child: Child,
    pub addr: String,
    cache_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// The `mscc` binary next to the running bench binary. The cluster
/// stage builds `msc-cli` first (`ci.sh cluster-smoke` does).
fn mscc_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or_else(|| "bench binary has no parent directory".to_string())?;
    let cand = dir.join("mscc");
    if cand.exists() {
        Ok(cand)
    } else {
        Err(format!(
            "mscc not found at {} — build it first (cargo build --release -p msc-cli)",
            cand.display()
        ))
    }
}

/// Spawn `mscc serve` on an ephemeral port with a fresh cache dir,
/// logging to `cluster-logs/<name>.log`, and parse the bound address
/// out of the log's "msc-serve listening on" line.
pub fn spawn_daemon(name: &str, peers: Option<&str>) -> Result<Daemon, String> {
    std::fs::create_dir_all(LOG_DIR).map_err(|e| format!("create {LOG_DIR}: {e}"))?;
    let log_path = format!("{LOG_DIR}/{name}.log");
    let log = std::fs::File::create(&log_path).map_err(|e| format!("create {log_path}: {e}"))?;
    let elog = log.try_clone().map_err(|e| format!("clone log: {e}"))?;
    let cache_dir = std::env::temp_dir().join(format!("msc-cluster-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cmd = Command::new(mscc_path()?);
    cmd.arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--cache", &cache_dir.to_string_lossy()])
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(elog));
    if let Some(p) = peers {
        cmd.args(["--peers", p]);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {name}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(15);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&log_path)
            .ok()
            .and_then(|text| parse_listen_line(&text))
        {
            break addr;
        }
        if let Ok(Some(status)) = child.try_wait() {
            let _ = std::fs::remove_dir_all(&cache_dir);
            return Err(format!("{name} exited before binding: {status}"));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&cache_dir);
            return Err(format!(
                "{name} never announced its address (see {log_path})"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let daemon = Daemon {
        child,
        addr,
        cache_dir,
    };
    if !wait_healthy(&daemon.addr, Duration::from_secs(15)) {
        return Err(format!("{name} at {} never became healthy", daemon.addr));
    }
    Ok(daemon)
}

fn parse_listen_line(text: &str) -> Option<String> {
    const TAG: &str = "msc-serve listening on ";
    let at = text.find(TAG)? + TAG.len();
    let addr = text[at..].lines().next()?.trim();
    if addr.is_empty() {
        None
    } else {
        Some(addr.to_string())
    }
}

/// An in-process rogue "sibling" answering every artifact fetch with
/// plausible HTTP but a garbage body, to exercise checksum rejection.
fn spawn_rogue_peer() -> std::io::Result<String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(32) {
            let Ok(mut s) = stream else { break };
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            let body = b"{\"key\":\"junk\",\"sum\":\"junk\",\"artifact\":\"junk\"}";
            let _ = s.write_all(
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            let _ = s.write_all(body);
        }
    });
    Ok(addr)
}

/// Per-request provenance + latency for one node's pass over the
/// workload.
fn compile_all(addr: &str, sources: &[String]) -> Result<Vec<(String, f64)>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    sources
        .iter()
        .map(|src| {
            let body = compile_body(src);
            let t = Instant::now();
            let r = c
                .request("POST", "/compile", Some(&body))
                .map_err(|e| format!("compile on {addr}: {e}"))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if r.status != 200 {
                return Err(format!(
                    "compile on {addr} answered {}: {}",
                    r.status, r.body
                ));
            }
            let provenance = r
                .json()
                .and_then(|v| v.get("provenance").and_then(Json::as_str).map(String::from))
                .ok_or_else(|| format!("compile response without provenance: {}", r.body))?;
            Ok((provenance, ms))
        })
        .collect()
}

/// The peer tier's `total_deadline_ms`, as the node reports it on
/// `/healthz`.
fn peer_deadline_ms(addr: &str) -> Result<f64, String> {
    let health = Client::connect(addr)
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("/healthz on {addr}: {e}"))?
        .json()
        .ok_or_else(|| format!("/healthz on {addr}: not JSON"))?;
    lookup(&health, "cache[tier=peers].total_deadline_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("/healthz on {addr} lists no peer tier"))
}

fn mean_ms(runs: &[(String, f64)]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|(_, ms)| ms).sum::<f64>() / runs.len() as f64
}

/// Run the full four-leg cluster measurement and return the
/// `BENCH_cluster.json` body. Every daemon is a subprocess; logs land in
/// [`LOG_DIR`].
pub fn measure_cluster() -> Result<Json, String> {
    let sources = cluster_sources();
    let mut errors = 0u64;

    // Leg 1: node A compiles everything cold (and stays up as the donor).
    let node_a = spawn_daemon("node-a", None)?;
    println!("node A up on {} (donor)", node_a.addr);
    let cold = compile_all(&node_a.addr, &sources)?;
    errors += cold.iter().filter(|(p, _)| p != "fresh").count() as u64;
    let single_node_cold_ms = mean_ms(&cold);

    // Leg 2: node B must serve the same workload entirely from A.
    let node_b = spawn_daemon("node-b", Some(&node_a.addr))?;
    println!("node B up on {} (peers: node A)", node_b.addr);
    let warm = compile_all(&node_b.addr, &sources)?;
    errors += warm.iter().filter(|(p, _)| p != "peer").count() as u64;
    let peer_hits = counter(&node_b.addr, "cache.peer_hit");
    let node_b_compilations = counter(&node_b.addr, "cache.miss");
    let peer_hit_mean_ms = mean_ms(&warm);
    let peer_hit_max_ms = warm.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
    drop(node_b);
    drop(node_a);

    // Leg 3: a dead fleet must degrade to a bounded local compile.
    let node_c = spawn_daemon("node-c", Some("127.0.0.1:1"))?;
    println!("node C up on {} (peer: dead address)", node_c.addr);
    let dead = compile_all(&node_c.addr, &sources[..1])?;
    errors += dead.iter().filter(|(p, _)| p != "fresh").count() as u64;
    let dead_peer_cold_ms = mean_ms(&dead);
    let dead_peer_overhead_ms = dead_peer_cold_ms - single_node_cold_ms;
    let peer_deadline_ms = peer_deadline_ms(&node_c.addr)?;
    drop(node_c);

    // Leg 4: a corrupt peer must fail verification, not poison the node.
    let rogue = spawn_rogue_peer().map_err(|e| format!("rogue peer: {e}"))?;
    let node_e = spawn_daemon("node-e", Some(&rogue))?;
    println!("node E up on {} (peer: rogue listener)", node_e.addr);
    let poisoned = compile_all(&node_e.addr, &sources[..1])?;
    errors += poisoned.iter().filter(|(p, _)| p != "fresh").count() as u64;
    let verify_fails = counter(&node_e.addr, "cache.peer_verify_fail");
    drop(node_e);

    let jobs = sources.len();
    println!("\nnode B: {peer_hits}/{jobs} jobs served by its peer, {node_b_compilations} local compilation(s)");
    println!(
        "peer hit {peer_hit_mean_ms:.2}ms mean / {peer_hit_max_ms:.2}ms max vs \
         {single_node_cold_ms:.2}ms single-node cold compile"
    );
    println!(
        "dead fleet: cold compile {dead_peer_cold_ms:.2}ms, {dead_peer_overhead_ms:.2}ms over \
         single-node against a {peer_deadline_ms:.0}ms peer-path deadline; corrupt peer: \
         {verify_fails} verify failure(s); {errors} error(s)"
    );
    println!("\nshape check: every node-B job is a peer hit, zero local compiles, and the");
    println!("dead-fleet compile stays within one peer deadline of single-node");
    Ok(Json::obj([
        // Workload size (distinct cold sources).
        ("jobs", Json::from(jobs)),
        // Node B's `cache.peer_hit` / `cache.miss` after its pass.
        ("peer_hits", Json::from(peer_hits)),
        ("node_b_compilations", Json::from(node_b_compilations)),
        // Wall time of node B's peer-served compiles.
        ("peer_hit_mean_ms", Json::from(peer_hit_mean_ms)),
        ("peer_hit_max_ms", Json::from(peer_hit_max_ms)),
        // Mean wall time of node A's cold compiles (the no-fleet baseline),
        // the cold compile with only a dead peer configured, and what
        // losing every peer cost over having none.
        ("single_node_cold_ms", Json::from(single_node_cold_ms)),
        ("dead_peer_cold_ms", Json::from(dead_peer_cold_ms)),
        ("dead_peer_overhead_ms", Json::from(dead_peer_overhead_ms)),
        // The peer tier's `total_deadline` as node C's `/healthz` reports
        // it, and the design invariant of the dead-fleet leg: what a fleet
        // of dead peers adds to a cold compile stays inside it.
        ("peer_deadline_ms", Json::from(peer_deadline_ms)),
        (
            "dead_peer_within_deadline",
            Json::from(dead_peer_overhead_ms <= peer_deadline_ms),
        ),
        // Node E's `cache.peer_verify_fail`.
        ("verify_fails", Json::from(verify_fails)),
        // Responses with the wrong status or provenance across all legs.
        ("errors", Json::from(errors)),
        (
            "targets",
            // The mean's ceiling ratchets with the run: three times its
            // slowest peer hit.
            Json::obj([("peer_hit_ms_max", Json::from(3.0 * peer_hit_max_ms))]),
        ),
    ]))
}
