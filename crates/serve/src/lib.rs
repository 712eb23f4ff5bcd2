//! # msc-serve — the compile-and-run service daemon
//!
//! Turns the [`msc_engine`] pipeline into a long-lived network service:
//! a dependency-free HTTP/1.1 daemon (std `TcpListener`, hand-rolled
//! parser with hard limits) exposing
//!
//! | endpoint         | semantics                                          |
//! |------------------|----------------------------------------------------|
//! | `POST /compile`  | compile one MIMDC source through the engine cache  |
//! | `POST /run`      | compile + execute on the SIMD simulator            |
//! | `POST /batch`    | compile a set of jobs as one engine batch          |
//! | `POST /match`    | regex over sharded input via the meta-automaton    |
//! | `GET /metrics`   | the aggregated [`msc_obs::Registry`] as JSON       |
//! | `GET /healthz`   | liveness + queue depth                             |
//!
//! The daemon is shaped for sustained load rather than peak benchmarks:
//!
//! - **One protocol, two I/O drivers.** Every connection is a
//!   [`conn::Conn`] state machine over the incremental
//!   [`http::PushParser`]; framing, limits, keep-alive policy, deadlines
//!   and the `serve.conn_state.*` counters are written down there only.
//!   On Linux an epoll readiness reactor steps all of them from one
//!   thread, so an idle keep-alive peer costs a table entry instead of a
//!   parked thread. A `POST /compile` whose artifact is resident in
//!   memory is answered on that thread, from the bytes it just read;
//!   everything that may wait or compute goes to the worker pool, and
//!   requests and responses cross over a queue plus a wakeup socketpair.
//!   Elsewhere
//!   the portable driver steps the same machine with blocking reads: an
//!   acceptor queues connections and each worker serves one at a time.
//!   The target picks the driver ([`reactor_available`]); no option does.
//! - **Bounded admission.** At most `workers + queue_depth` connections
//!   are admitted; beyond that the daemon answers `503` + `Retry-After`
//!   immediately (load shedding) instead of letting latency grow
//!   without bound.
//! - **Request coalescing.** Identical concurrent compiles collapse onto
//!   one in-flight compilation via the engine's singleflight layer; the
//!   response reports `"provenance": "coalesced"` and the
//!   `serve.coalesced` / `engine.coalesced` counters record it.
//! - **Hard input limits.** Request-line/header/body bounds and read
//!   deadlines turn hostile or broken clients into clean 4xx/408
//!   responses ([`http::Limits`]); a worker never panics on input, and
//!   under the reactor a slow-loris peer never pins a worker thread.
//! - **Graceful drain.** [`ServerHandle::shutdown`] stops admitting,
//!   lets in-flight requests finish, then joins every thread.
//!   [`run_until_signal`] wires that to SIGINT/SIGTERM for the CLI.

pub mod api;
pub mod client;
pub mod conn;
pub mod http;
pub mod queue;
#[cfg(target_os = "linux")]
mod reactor;

use conn::{Conn, Input, State};
use http::{HttpError, Limits, Request};
use msc_engine::{job_key, CacheKey, Engine, EngineOptions, Job};
use msc_obs::json::Json;
use msc_obs::Registry;
use queue::BoundedQueue;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one response may take to drain into the socket.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// `Retry-After` seconds hinted on shed requests.
const RETRY_AFTER: u64 = 1;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7643` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads serving connections (0 = available parallelism).
    pub workers: usize,
    /// Admission queue depth; beyond it connections are shed with 503.
    pub queue_depth: usize,
    /// Conversion threads *per request* (1 keeps workers independent).
    pub engine_threads: usize,
    /// On-disk compile cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Per-request compile deadline (the engine's cooperative timeout).
    pub job_timeout: Option<Duration>,
    /// HTTP input bounds.
    pub limits: Limits,
    /// How long a connection may go without sending a byte before it is
    /// answered 408 — the slow-loris bound, and the upper bound on how
    /// long shutdown waits for a peer that is mid-request.
    pub read_timeout: Duration,
    /// Ceiling on the per-job meta-state explosion guard: every job is
    /// clamped to it, whether or not the request supplies
    /// `max_meta_states`. Also caps `/match` pattern complexity (there
    /// the effective cap is the smaller of this and
    /// [`msc_regex::MAX_META_STATES`]).
    pub max_meta_states: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7643".to_string(),
            workers: 0,
            queue_depth: 64,
            engine_threads: 1,
            cache_dir: None,
            job_timeout: Some(Duration::from_secs(30)),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            max_meta_states: 1 << 20,
        }
    }
}

/// True when this build's daemons run under the epoll reactor (Linux);
/// false where the portable blocking driver serves. Benches use this to
/// size worker pools: the portable driver parks a worker per connection.
pub fn reactor_available() -> bool {
    cfg!(target_os = "linux")
}

/// The daemon factory. [`Server::start`] binds, spawns the I/O driver
/// and the worker pool, and returns the controlling [`ServerHandle`].
pub struct Server;

/// One unit of worker-pool work.
enum Task {
    /// Portable driver: a whole admitted connection, served to its end.
    Connection(TcpStream),
    /// Reactor: one decoded request; the reactor keeps the socket.
    #[cfg(target_os = "linux")]
    Request {
        /// Connection identity (guards against fd reuse).
        conn_id: u64,
        /// The reactor-side socket the response belongs to.
        fd: i32,
        request: Request,
        /// What the reactor already made of the body while looking for
        /// a resident answer; the worker does not decode or hash again.
        decoded: Option<Box<CompileRequest>>,
        /// When the reactor queued it (`serve.queue_wait_nanos`).
        queued: Instant,
        /// Where the finished response goes.
        reply: Arc<reactor::ReactorShared>,
    },
}

/// A decoded `POST /compile`: the job and the key it is filed under.
type CompileRequest = (Job, CacheKey);

struct Shared {
    engine: Engine,
    regex: msc_regex::RegexEngine,
    registry: Arc<Registry>,
    queue: BoundedQueue<Task>,
    stop: AtomicBool,
    /// Connections currently admitted (gauge on `/metrics`).
    open_conns: AtomicUsize,
    /// Admission bound: `workers + queue_depth` under both drivers.
    admit_capacity: usize,
    opts: ServeOptions,
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the threads running detached;
/// call `shutdown` for a graceful drain. The handle also owns the
/// process-global [`msc_obs`] subscriber installation, so it is
/// deliberately not `Send` — control the daemon from the thread that
/// started it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The I/O driver: the reactor thread, or the portable acceptor.
    driver: std::thread::JoinHandle<()>,
    /// Gets the driver to look at the stop flag.
    wake_driver: Box<dyn Fn()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    _obs: msc_obs::InstallGuard,
}

impl Server {
    /// Bind and start serving. Installs the daemon's [`Registry`] as the
    /// process-global [`msc_obs`] subscriber for the handle's lifetime
    /// (the install lock is exclusive: starting a second server in the
    /// same process blocks until the first shuts down).
    ///
    /// Runs the epoll reactor on Linux and the portable blocking driver
    /// elsewhere (see [`reactor_available`]). Anything that keeps the
    /// daemon from answering — the bind, the reactor's epoll set-up, a
    /// thread that will not spawn — is this call's error.
    pub fn start(opts: ServeOptions) -> std::io::Result<ServerHandle> {
        Self::start_under(opts, reactor_available())
    }

    /// [`start`](Self::start) with the driver named: `reactor = false`
    /// is what every non-Linux target runs, and the seam through which
    /// the unit tests run it on Linux.
    fn start_under(opts: ServeOptions, reactor: bool) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let obs_guard = msc_obs::install(registry.clone());
        let workers = if opts.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            opts.workers
        };
        // The portable driver queues whole connections behind the
        // workers serving `workers` others; the reactor queues at most
        // one decoded request per admitted connection, so its queue
        // never rejects below the admission cap.
        let admit_capacity = workers + opts.queue_depth;
        let queue_capacity = if reactor {
            admit_capacity
        } else {
            opts.queue_depth
        };
        let shared = Arc::new(Shared {
            engine: Engine::new(EngineOptions {
                threads: opts.engine_threads.max(1),
                cache_dir: opts.cache_dir.clone(),
                job_timeout: opts.job_timeout,
            }),
            regex: msc_regex::RegexEngine::with_limits(
                msc_regex::engine::DEFAULT_PATTERN_CAPACITY,
                opts.max_meta_states.clamp(1, msc_regex::MAX_META_STATES),
            ),
            registry,
            queue: BoundedQueue::new(queue_capacity),
            stop: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            admit_capacity,
            opts,
        });

        let named = |name: &str| std::thread::Builder::new().name(name.to_string());
        let (driver, wake_driver): (_, Box<dyn Fn()>) = match reactor {
            #[cfg(target_os = "linux")]
            true => {
                // Built here, not on its thread: a failed epoll set-up
                // is this call's error.
                let reactor = reactor::Reactor::new(Arc::clone(&shared), listener)?;
                let rendezvous = reactor.rendezvous();
                let thread = named("msc-serve-reactor").spawn(|| reactor.run())?;
                (thread, Box::new(move || rendezvous.wake()))
            }
            #[cfg(not(target_os = "linux"))]
            true => unreachable!("reactor_available() is false off Linux"),
            false => {
                let shared = Arc::clone(&shared);
                let thread =
                    named("msc-serve-accept").spawn(move || accept_loop(&shared, listener))?;
                // The acceptor sits in accept(): a throwaway connection
                // gets it out.
                (thread, Box::new(move || drop(TcpStream::connect(addr))))
            }
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                named(&format!("msc-serve-worker-{i}")).spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(ServerHandle {
            addr,
            shared,
            driver,
            wake_driver,
            workers: worker_handles,
            _obs: obs_guard,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry (what `GET /metrics` renders).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The underlying engine (cache statistics, coalescing counters).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// The regex pattern cache behind `POST /match`.
    pub fn regex(&self) -> &msc_regex::RegexEngine {
        &self.shared.regex
    }

    /// Graceful drain: stop admitting, finish everything already
    /// admitted, join all threads. A peer mid-request is granted up to
    /// [`ServeOptions::read_timeout`] to finish sending, so shutdown is
    /// bounded by that. The reactor drops idle peers immediately; the
    /// portable driver learns a peer is idle only when its read times
    /// out, so there idle peers cost the same bound.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        (self.wake_driver)();
        let _ = self.driver.join();
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// The portable driver's acceptor: admit into the queue, or shed.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        let _ = stream.set_nodelay(true);
        msc_obs::count("serve.accepted", 1);
        if let Err((task, _reason)) = shared.queue.try_push(Task::Connection(stream)) {
            // Shed: answer on the acceptor thread (cheap — one write)
            // so the queue and workers never see the connection. A
            // `Closed` refusal during shutdown sheds the same way.
            let Task::Connection(mut stream) = task else {
                continue;
            };
            let _ = stream.write_all(&shed());
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(task) = shared.queue.pop() {
        match task {
            Task::Connection(stream) => serve_connection(shared, stream),
            #[cfg(target_os = "linux")]
            Task::Request {
                conn_id,
                fd,
                request,
                decoded,
                queued,
                reply,
            } => {
                msc_obs::value("serve.queue_wait_nanos", queued.elapsed().as_nanos() as u64);
                reply.complete(conn_id, fd, respond(shared, &request, decoded));
            }
        }
    }
}

/// Answer one decoded request: the only caller of [`route`], under
/// either driver. Returns the response bytes and whether the connection
/// stays open after them.
fn respond(
    shared: &Shared,
    request: &Request,
    decoded: Option<Box<CompileRequest>>,
) -> (Vec<u8>, bool) {
    let t0 = Instant::now();
    let outcome = route(shared, request, decoded);
    finish(shared, request, t0, outcome)
}

/// Turn a request's outcome into its response and its counters — the
/// tail every answer shares, whichever thread produced the outcome.
fn finish(
    shared: &Shared,
    request: &Request,
    t0: Instant,
    outcome: Result<Json, HttpError>,
) -> (Vec<u8>, bool) {
    msc_obs::value("serve.request_nanos", t0.elapsed().as_nanos() as u64);
    // Don't hold a drained daemon open on keep-alive.
    let keep_alive = !request.wants_close() && !shared.stop.load(Ordering::SeqCst);
    let counter = match outcome {
        Ok(_) => "serve.requests",
        Err(_) => "serve.http_error",
    };
    msc_obs::count(counter, 1);
    (render(outcome.as_ref(), keep_alive), keep_alive)
}

/// Render a response — a 200 with its JSON body, or an error with its
/// status, `{error, detail}` body and (when shedding) `Retry-After`.
fn render(outcome: Result<&Json, &HttpError>, keep_alive: bool) -> Vec<u8> {
    let mut extra = Vec::new();
    let (status, reason, body) = match outcome {
        Ok(body) => (200, "OK", body.render()),
        Err(err) => {
            let (status, reason) = err.status();
            if let HttpError::Overloaded = err {
                extra.push(("Retry-After", RETRY_AFTER.to_string()));
            }
            let body = Json::obj(vec![
                ("error", Json::from(reason)),
                ("detail", Json::from(err.detail().as_str())),
            ]);
            (status, reason, body.render())
        }
    };
    let mut out = Vec::new();
    http::write_response(
        &mut out,
        status,
        reason,
        keep_alive,
        &extra,
        "application/json",
        body.as_bytes(),
    )
    .expect("writing to a Vec cannot fail");
    out
}

/// Answer a protocol error (malformed input, a limit, a timeout). The
/// byte stream is undefined after one, so the response says `close`.
fn refuse(err: &HttpError) -> Vec<u8> {
    msc_obs::count("serve.http_error", 1);
    render(Err(err), false)
}

/// Answer a connection the daemon will not admit: 503 + `Retry-After`.
fn shed() -> Vec<u8> {
    msc_obs::count("serve.shed", 1);
    render(Err(&HttpError::Overloaded), false)
}

/// The portable driver's read: block until the peer sends something or
/// `conn.deadline` passes, and feed the machine. A timed-out read is
/// the 408 the reactor's timer sends; `None` means the socket is dead.
fn read_step(
    conn: &mut Conn,
    stream: &mut TcpStream,
    buf: &mut [u8],
) -> Option<Result<Input, HttpError>> {
    let deadline = conn.deadline.expect("a reading connection has a deadline");
    // A zero timeout cannot be set: a deadline already past still gets
    // one short look at what has arrived.
    let left = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    stream.set_read_timeout(Some(left)).ok()?;
    let n = loop {
        match stream.read(buf) {
            Ok(n) => break n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Some(Err(HttpError::Timeout));
            }
            Err(_) => return None,
        }
    };
    Some(conn.on_input(&buf[..n], n == 0, Instant::now()))
}

/// The portable driver's per-connection loop: step the [`Conn`] machine
/// with blocking reads and writes until it closes.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    shared.open_conns.fetch_add(1, Ordering::SeqCst);
    // The id addresses worker completions; there are none here.
    let mut conn = Conn::new(0, Instant::now(), &shared.opts);
    let mut buf = [0u8; 16 * 1024];
    let mut step = Ok(Input::Pending);
    loop {
        let (bytes, keep_alive) = match step {
            Ok(Input::Pending) => match read_step(&mut conn, &mut stream, &mut buf) {
                Some(next) => {
                    step = next;
                    continue;
                }
                None => break,
            },
            Ok(Input::Closed) => break,
            Ok(Input::Request(request)) => respond(shared, &request, None),
            Err(err) => (refuse(&err), false),
        };
        conn.start_response(bytes, keep_alive, Instant::now());
        let len = conn.pending_write().len();
        if stream.write_all(conn.pending_write()).is_err() {
            break;
        }
        conn.advance_write(len, Instant::now());
        if conn.state() != State::KeepAlive {
            break;
        }
        step = conn.poll_next(Instant::now());
    }
    conn.force_close();
    shared.open_conns.fetch_sub(1, Ordering::SeqCst);
}

fn json_body(req: &Request) -> Result<Json, HttpError> {
    match req.header("content-type") {
        Some(ct)
            if ct
                .split(';')
                .next()
                .is_some_and(|t| t.trim().eq_ignore_ascii_case("application/json")) => {}
        _ => return Err(HttpError::UnsupportedMediaType),
    }
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| HttpError::BadRequest("body is not UTF-8".to_string()))?;
    msc_obs::json::parse(text)
        .map_err(|e| HttpError::BadRequest(format!("body is not valid JSON: {e}")))
}

/// Decode a `POST /compile` body and key the job, once per request.
fn decode_compile(shared: &Shared, req: &Request) -> Result<CompileRequest, HttpError> {
    let body = json_body(req)?;
    let job = api::job_from_json(&body, "request", shared.opts.max_meta_states)?;
    let key = job_key(&job);
    Ok((job, key))
}

fn count_coalesced(body: &Json) {
    let one = |v: &Json| {
        if v.get("provenance").and_then(Json::as_str) == Some("coalesced") {
            msc_obs::count("serve.coalesced", 1);
        }
    };
    match body.get("results").and_then(Json::as_arr) {
        Some(slots) => slots.iter().for_each(one),
        None => one(body),
    }
}

fn route(
    shared: &Shared,
    req: &Request,
    decoded: Option<Box<CompileRequest>>,
) -> Result<Json, HttpError> {
    let known_get = matches!(req.path.as_str(), "/healthz" | "/metrics");
    let known_post = matches!(req.path.as_str(), "/compile" | "/run" | "/batch" | "/match");
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok(api::health_response(
            shared.queue.len(),
            shared.stop.load(Ordering::SeqCst),
            &shared.engine.tier_status(),
        )),
        ("GET", "/metrics") => {
            let gauges = [
                (
                    "serve.open_connections",
                    shared.open_conns.load(Ordering::SeqCst) as u64,
                ),
                ("serve.queued", shared.queue.len() as u64),
                ("serve.admit_capacity", shared.admit_capacity as u64),
            ];
            Ok(api::metrics_response(&shared.registry.snapshot(), &gauges))
        }
        ("POST", "/compile") => {
            let (job, key) = match decoded {
                Some(decoded) => *decoded,
                None => decode_compile(shared, req)?,
            };
            let resp = api::compile_job(&shared.engine, &job, key)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/run") => {
            let body = json_body(req)?;
            let resp = api::run(&shared.engine, &body, shared.opts.max_meta_states)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/batch") => {
            let body = json_body(req)?;
            let resp = api::batch(&shared.engine, &body, shared.opts.max_meta_states)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        ("POST", "/match") => {
            let body = json_body(req)?;
            let resp = api::find_matches(&shared.regex, &body)?;
            count_coalesced(&resp);
            Ok(resp)
        }
        _ if known_get || known_post => Err(HttpError::MethodNotAllowed),
        _ => Err(HttpError::NotFound),
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Route SIGINT and SIGTERM to the stop flag. `signal(2)` comes from
    /// libc, which std already links — no new dependency.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

/// Serve until SIGINT/SIGTERM, then drain and return. This is what
/// `mscc serve` runs.
#[cfg(unix)]
pub fn run_until_signal(handle: ServerHandle) {
    sig::install();
    while !sig::STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
}

/// Non-unix fallback: serve until the process is killed.
#[cfg(not(unix))]
pub fn run_until_signal(_handle: ServerHandle) {
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    //! The portable driver, run on Linux through [`Server::start_under`].
    //! `tests/robustness.rs` pins the protocol against the platform's
    //! driver; these pin that the blocking loop steps the same machine
    //! to the same answers.

    use super::*;
    use crate::client::Client;

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    fn start_portable(workers: usize, queue_depth: usize, read_timeout: Duration) -> ServerHandle {
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            read_timeout,
            ..ServeOptions::default()
        };
        Server::start_under(opts, false).expect("bind ephemeral port")
    }

    fn connect(addr: &str) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    /// Everything the daemon sends until it closes the connection.
    fn read_to_close(mut stream: TcpStream) -> String {
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    }

    #[test]
    fn portable_driver_serves_pipelines_and_closes_on_parse_errors() {
        let handle = start_portable(2, 8, Duration::from_millis(800));
        let addr = handle.local_addr().to_string();

        // Routing and keep-alive.
        let mut c = Client::connect(&addr).unwrap();
        let body = Json::obj(vec![
            ("source", Json::from(PROG)),
            ("pes", Json::from(4u64)),
        ]);
        let resp = c.post_json("/run", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(c.get("/nope").unwrap().status, 404);
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        drop(c);

        // Two requests in one write are answered in order; the second
        // asks for the close.
        let mut s = connect(&addr);
        s.write_all(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let out = read_to_close(s);
        let first = out.find("HTTP/1.1 200 OK").expect(&out);
        let second = out.find("HTTP/1.1 404 Not Found").expect(&out);
        assert!(first < second, "{out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 2, "{out}");

        // A parse error is answered and the connection dropped, however
        // much the peer pipelined behind it.
        let mut s = connect(&addr);
        s.write_all(b"GARBAGE\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let out = read_to_close(s);
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        assert!(out.contains("Connection: close\r\n"), "{out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");

        // Both drivers count the machine's transitions.
        let counters = handle.registry().snapshot();
        for name in [
            "serve.conn_state.reading_head",
            "serve.conn_state.executing",
            "serve.conn_state.writing",
            "serve.conn_state.keep_alive",
            "serve.conn_state.closed",
        ] {
            assert!(counters.counter(name) >= 1, "{name}");
        }
        assert_eq!(counters.counter("serve.epoll_wakeups"), 0);
        handle.shutdown();
    }

    #[test]
    fn portable_driver_answers_a_slow_loris_408_after_the_last_progress() {
        let read_timeout = Duration::from_millis(600);
        let handle = start_portable(1, 4, read_timeout);
        let addr = handle.local_addr().to_string();
        let mut s = connect(&addr);
        // Two pieces 400 ms apart: more than the timeout in total, less
        // than it each, so only a deadline that progress resets lets the
        // second piece in.
        s.write_all(b"POST /comp").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        s.write_all(b"ile HTTP/1.1\r\nContent-").unwrap();
        let last_progress = Instant::now();
        let out = read_to_close(s);
        assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
        // An un-reset deadline would have fired 200 ms after the second
        // piece; the re-armed one fires a full timeout after it.
        assert!(
            last_progress.elapsed() >= read_timeout * 3 / 4,
            "408 came {:?} after the last progress",
            last_progress.elapsed()
        );
        // The single worker is free again.
        assert_eq!(
            Client::connect(&addr)
                .unwrap()
                .get("/healthz")
                .unwrap()
                .status,
            200
        );
        handle.shutdown();
    }

    #[test]
    fn portable_driver_sheds_past_workers_plus_queue_and_drains() {
        let handle = start_portable(1, 1, Duration::from_millis(800));
        let addr = handle.local_addr().to_string();
        // c1 occupies the only worker, c2 the only queue slot; wait for
        // each to get there so c3 finds the queue full.
        let mut c1 = connect(&addr);
        while handle.shared.open_conns.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        let _c2 = connect(&addr);
        while handle.shared.queue.is_empty() {
            std::thread::yield_now();
        }
        let out = read_to_close(connect(&addr));
        assert!(out.starts_with("HTTP/1.1 503 "), "{out}");
        assert!(out.contains("Retry-After: 1\r\n"), "{out}");
        assert!(handle.registry().snapshot().counter("serve.shed") >= 1);

        // Drain: a request still arriving when the daemon is told to
        // stop is answered — once, with the close — before shutdown
        // returns.
        c1.write_all(b"GET /healthz HTTP/1.1\r\n\r").unwrap();
        let shared = Arc::clone(&handle.shared);
        let sender = std::thread::spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            c1.write_all(b"\n").unwrap();
            read_to_close(c1)
        });
        handle.shutdown();
        let out = sender.join().unwrap();
        assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
        assert!(out.contains("Connection: close\r\n"), "{out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
        assert!(TcpStream::connect(&addr).is_err(), "port still open");
    }
}
