//! A restarted `mscc serve` answers from its disk cache: a first daemon
//! compiles eight cold sources into a cache directory and is killed, and
//! a second daemon on the same directory must answer the same eight from
//! disk, under the same keys, and compile nothing.
//!
//! The daemons are real child processes, because the obs install lock is
//! process-global: one daemon per process. No wall-clock value is
//! asserted; the startup deadline only keeps a daemon that never binds
//! from hanging the suite.

use msc_obs::json::Json;
use msc_serve::client::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
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

/// A cache directory the daemons share, removed on drop (on a panic as
/// well).
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One `mscc serve` child on a cache directory and a thread reading its
/// stdout. Dropping it kills the child and joins the reader, on a panic
/// as well.
struct Daemon {
    child: Child,
    reader: Option<JoinHandle<()>>,
    addr: String,
}

impl Daemon {
    fn spawn(name: &str, cache_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mscc"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache",
            ])
            .arg(cache_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn mscc serve");
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
            reader: Some(reader),
            addr: String::new(),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("daemon {name} never announced its address: {e}"));
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
    }
}

#[test]
fn a_restarted_daemon_answers_from_its_disk_cache() {
    let dir = CacheDir(std::env::temp_dir().join(format!("msc-restart-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let sources: Vec<String> = (0..JOBS).map(|i| source(7_000_000_000 + i)).collect();

    let first = Daemon::spawn("first", &dir.0);
    let mut to_first = Client::connect(&first.addr).expect("connect to the first daemon");
    let keys: Vec<String> = sources
        .iter()
        .map(|src| {
            let (provenance, key) = first.compile(&mut to_first, src);
            assert_eq!(provenance, "fresh", "the first daemon starts cold");
            key
        })
        .collect();
    drop(to_first);
    drop(first);

    let second = Daemon::spawn("second", &dir.0);
    let mut to_second = Client::connect(&second.addr).expect("connect to the second daemon");
    for (src, key) in sources.iter().zip(&keys) {
        assert_eq!(
            second.compile(&mut to_second, src),
            ("disk".to_string(), key.clone()),
            "the second daemon reloads the first one's artifact, under its key"
        );
    }
    assert_eq!(second.counter("cache.disk_hit"), JOBS);
    assert_eq!(
        second.counter("cache.miss"),
        0,
        "the second daemon compiled nothing"
    );
}
