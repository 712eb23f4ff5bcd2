//! Two `mscc serve` daemons sharing compiled artifacts: node A compiles
//! eight cold sources, and node B, started with `--peers A`, must answer
//! the same eight from A over `GET /artifact/{key}` and compile nothing.
//!
//! The daemons are real child processes, because the obs install lock is
//! process-global: one daemon per process. No wall-clock value is
//! asserted; the startup deadline only keeps a daemon that never binds
//! from hanging the suite.

use msc_obs::json::Json;
use msc_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Distinct cold sources.
const JOBS: u64 = 8;

fn source(salt: u64) -> String {
    format!(
        "main() {{ poly int x, acc = {salt}; x = pe_id() % 3; \
         while (x > 0) {{ acc += x; x -= 1; }} return(acc); }}"
    )
}

/// One `mscc serve` child with a cache directory of its own and a thread
/// reading its stdout. Dropping it kills the child, joins the reader and
/// removes the directory, on a panic as well.
struct Daemon {
    child: Child,
    cache_dir: PathBuf,
    reader: Option<JoinHandle<()>>,
    addr: String,
}

impl Daemon {
    fn spawn(name: &str, peers: Option<&str>) -> Daemon {
        let cache_dir =
            std::env::temp_dir().join(format!("msc-fleet-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mscc"));
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
        ])
        .arg(&cache_dir)
        .stdout(Stdio::piped());
        if let Some(peers) = peers {
            cmd.args(["--peers", peers]);
        }
        let mut child = cmd.spawn().expect("spawn mscc serve");
        let stdout = child.stdout.take().expect("piped stdout");
        // The daemon announces its port on stdout. The reader keeps
        // draining the pipe afterwards, so the child never blocks on it,
        // and ends when the killed child closes it.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("msc-serve listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child,
            cache_dir,
            reader: Some(reader),
            addr: String::new(),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("node {name} never announced its address: {e}"));
        daemon
    }

    /// `POST /compile` of `src`: the answer's provenance and key.
    fn compile(&self, c: &mut Client, src: &str) -> (String, String) {
        let r = c
            .post_json("/compile", &Json::obj([("source", Json::from(src))]))
            .expect("POST /compile");
        assert_eq!(r.status, 200, "{}: {}", self.addr, r.body);
        let v = r.json().expect("a JSON answer");
        let field = |k: &str| v.get(k).and_then(Json::as_str).map(String::from);
        let (Some(provenance), Some(key)) = (field("provenance"), field("key")) else {
            panic!("{}: no provenance or key in {}", self.addr, r.body);
        };
        (provenance, key)
    }

    fn counter(&self, name: &str) -> u64 {
        let metrics = Client::connect(&self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .expect("GET /metrics")
            .json()
            .expect("metrics JSON");
        let counters = metrics.get("counters").expect("a counters section");
        counters.get(name).and_then(Json::as_u64).unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

#[test]
fn a_peer_serves_every_artifact_its_sibling_compiled() {
    let a = Daemon::spawn("a", None);
    let b = Daemon::spawn("b", Some(&a.addr));
    let sources: Vec<String> = (0..JOBS).map(|i| source(7_000_000_000 + i)).collect();

    let mut to_a = Client::connect(&a.addr).expect("connect to node A");
    let keys: Vec<String> = sources
        .iter()
        .map(|src| {
            let (provenance, key) = a.compile(&mut to_a, src);
            assert_eq!(provenance, "fresh", "node A starts cold");
            key
        })
        .collect();

    let mut to_b = Client::connect(&b.addr).expect("connect to node B");
    for (src, key) in sources.iter().zip(&keys) {
        assert_eq!(
            b.compile(&mut to_b, src),
            ("peer".to_string(), key.clone()),
            "node B answers from node A, under A's key"
        );
    }
    assert_eq!(b.counter("cache.peer_hit"), JOBS);
    assert_eq!(b.counter("cache.miss"), 0, "node B compiled nothing");
}
