//! The epoll readiness reactor: one thread drives every connection.
//!
//! The reactor owns the listener and all sockets. It multiplexes them
//! through `epoll(7)` — declared directly against libc, which std
//! already links, keeping the stack dependency-free — and advances each
//! connection's [`Conn`] state machine as readiness allows.
//!
//! What may run here is bounded by what the thread can afford: it is
//! the only one reading sockets, so it never waits and never computes.
//! A `POST /compile` whose body fit one read ([`READ_CHUNK`]) is decoded
//! and looked up in the memory tier — O(body) work of the HTTP parse's
//! own order — and, resident, answered on the spot by the same
//! functions a worker would call. Everything else (a memory miss, a
//! body that does not decode, every other endpoint, larger bodies) is
//! pushed to the worker pool as a [`Task::Request`], and the finished
//! response comes back through the completion queue plus a wakeup byte
//! on a `UnixStream` pair (any worker can write to its end without
//! locking the reactor). Nothing reachable from this thread opens a
//! file, connects a socket, joins a flight, compiles, simulates or
//! scans.
//!
//! This is an I/O driver and nothing else: framing, limits, the
//! keep-alive/close policy and the deadlines themselves belong to
//! [`Conn`], which the portable driver in `lib.rs` steps with blocking
//! reads instead. What the reactor adds is how the deadlines are
//! waited on — `epoll_wait` sleeps only until the nearest one, so a
//! slow-loris peer costs one idle entry in the connection table
//! instead of a parked worker thread.
//!
//! Admission: at most `workers + queue_depth` connections may be open,
//! and everything beyond that is shed at accept with `503` +
//! `Retry-After`. Graceful drain closes the listener (the port refuses
//! immediately), drops idle connections, and lets in-flight requests
//! finish writing.

use crate::conn::{Conn, Input, State};
use crate::http::{HttpError, Request};
use crate::{api, decode_compile, finish, refuse, shed, Shared, Task};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod sys {
    use std::os::raw::c_int;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    /// Mirrors `struct epoll_event`. The kernel ABI packs it on x86_64
    /// only; other architectures (the aarch64 check build included) use
    /// natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    impl EpollEvent {
        /// Field reads as by-value copies: references into a packed
        /// struct are UB, so these are the only accessors used.
        pub fn mask(&self) -> u32 {
            self.events
        }

        pub fn user_data(&self) -> u64 {
            self.data
        }
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Thin RAII wrapper over an epoll instance.
struct Epoll {
    fd: c_int,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: c_int, events: u32) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: fd as u32 as u64,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: c_int, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events)
    }

    /// Change interest, re-adding if the fd was deregistered.
    fn set(&self, fd: c_int, events: u32) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events)
            .or_else(|_| self.ctl(sys::EPOLL_CTL_ADD, fd, events))
    }

    fn del(&self, fd: c_int) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0)
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: c_int) -> std::io::Result<usize> {
        let rc = unsafe {
            sys::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

/// A worker's finished response, addressed by connection identity (the
/// id guards against the fd being recycled for a newer connection).
struct Completion {
    conn_id: u64,
    fd: i32,
    bytes: Vec<u8>,
    keep_alive: bool,
    /// When the worker handed it over (`serve.completion_wait_nanos`).
    done: Instant,
}

/// The half of the reactor other threads reach: the completion queue
/// workers fill and the socketpair end that rings the reactor. Every
/// [`Task::Request`] carries a handle to it.
pub(crate) struct ReactorShared {
    completions: Mutex<VecDeque<Completion>>,
    wake_tx: UnixStream,
}

impl ReactorShared {
    /// Ring the reactor. A full pipe means a wakeup is already pending,
    /// so the error is ignorable by design.
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Hand a finished response (`crate::respond`'s) back to the
    /// reactor thread.
    pub fn complete(&self, conn_id: u64, fd: i32, (bytes, keep_alive): (Vec<u8>, bool)) {
        self.completions
            .lock()
            .expect("completion queue poisoned: a thread panicked mid-push")
            .push_back(Completion {
                conn_id,
                fd,
                bytes,
                keep_alive,
                done: Instant::now(),
            });
        self.wake();
    }
}

/// One read's worth of bytes, and therefore the largest body the
/// reactor will decode itself: beyond it the work is no longer of the
/// order of the read and the parse it already does per request.
const READ_CHUNK: usize = 16 * 1024;

/// What epoll is asked for while a connection waits for a request.
const READABLE: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;

/// [`Connection::interest`] after `EPOLL_CTL_DEL`: equal to no mask, so
/// the next change of interest registers the socket again.
const DEREGISTERED: u32 = u32::MAX;

/// One connection as the reactor tracks it: the socket plus its
/// I/O-free state machine.
struct Connection {
    stream: TcpStream,
    conn: Conn,
    /// The event mask epoll holds for the socket, so that interest is
    /// changed only when it must be.
    interest: u32,
}

/// What the machine makes of its input: [`Conn::on_input`]'s verdict.
type Step = Result<Input, HttpError>;

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    rendezvous: Arc<ReactorShared>,
    epoll: Epoll,
    /// `None` once drain has closed the port.
    listener: Option<TcpListener>,
    listener_fd: i32,
    wake_rx: UnixStream,
    wake_fd: i32,
    conns: HashMap<i32, Connection>,
    next_id: u64,
    draining: bool,
}

impl Reactor {
    /// Everything that can fail before the first `epoll_wait`: runs on
    /// the thread that called `Server::start`, so the error is that
    /// call's, not a line on a daemon's stderr.
    pub(crate) fn new(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let listener_fd = listener.as_raw_fd();
        let wake_fd = wake_rx.as_raw_fd();
        epoll.add(listener_fd, sys::EPOLLIN)?;
        epoll.add(wake_fd, sys::EPOLLIN)?;
        Ok(Reactor {
            shared,
            rendezvous: Arc::new(ReactorShared {
                completions: Mutex::new(VecDeque::new()),
                wake_tx,
            }),
            epoll,
            listener: Some(listener),
            listener_fd,
            wake_rx,
            wake_fd,
            conns: HashMap::new(),
            next_id: 0,
            draining: false,
        })
    }

    /// What `ServerHandle::shutdown` rings after setting the stop flag.
    pub(crate) fn rendezvous(&self) -> Arc<ReactorShared> {
        Arc::clone(&self.rendezvous)
    }

    /// The reactor thread's body.
    pub(crate) fn run(mut self) {
        if let Err(e) = self.event_loop() {
            // A reactor whose epoll_wait fails leaves the daemon
            // unreachable; surface it loudly rather than spinning.
            eprintln!("msc-serve: reactor failed: {e}");
        }
    }

    fn event_loop(&mut self) -> std::io::Result<()> {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.shared.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
            let timeout = self.next_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            msc_obs::count("serve.epoll_wakeups", 1);
            let ready = &events[..n];
            // Oldest work first: a finished response has been waiting
            // since before anything this batch is about to read.
            if ready.iter().any(|ev| ev.user_data() as i32 == self.wake_fd) {
                self.drain_wake();
                self.handle_completions();
            }
            for ev in ready {
                let fd = ev.user_data() as i32;
                if fd == self.listener_fd {
                    self.accept_ready();
                } else if fd != self.wake_fd {
                    self.conn_event(fd, ev.mask());
                }
            }
            self.expire_deadlines();
        }
    }

    /// Sleep until the nearest connection deadline (`-1` = forever:
    /// shutdown and completions both arrive as wakeup bytes).
    fn next_timeout_ms(&self) -> c_int {
        let nearest = self.conns.values().filter_map(|c| c.conn.deadline).min();
        match nearest {
            None => -1,
            Some(d) => {
                let ms = d
                    .saturating_duration_since(Instant::now())
                    .as_millis()
                    .saturating_add(1); // round up so expiry checks pass
                ms.min(60_000) as c_int
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    msc_obs::count("serve.accepted", 1);
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop it
                    }
                    if self.draining || self.conns.len() >= self.shared.admit_capacity {
                        // Best-effort: a fresh socket's send buffer is
                        // empty, so this short write does not block.
                        let _ = (&stream).write(&shed());
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    if self.epoll.add(fd, READABLE).is_err() {
                        continue;
                    }
                    self.next_id += 1;
                    let conn = Conn::new(self.next_id, Instant::now(), &self.shared.opts);
                    self.conns.insert(
                        fd,
                        Connection {
                            stream,
                            conn,
                            interest: READABLE,
                        },
                    );
                    self.shared.open_conns.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Swallow the wakeup bytes. One read: a short one means the pair
    /// is empty, and a full one leaves the rest to the next (level-
    /// triggered) event.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        let _ = (&self.wake_rx).read(&mut buf);
    }

    /// Ask epoll for `mask` on `c`'s socket — a system call only when
    /// that is not what it already holds.
    fn set_interest(epoll: &Epoll, c: &mut Connection, mask: u32) {
        if c.interest != mask {
            c.interest = mask;
            msc_obs::count("serve.epoll_ctl", 1);
            let _ = epoll.set(c.stream.as_raw_fd(), mask);
        }
    }

    fn conn_event(&mut self, fd: i32, mask: u32) {
        let Some(c) = self.conns.get_mut(&fd) else {
            return;
        };
        let state = c.conn.state();
        if state.wants_read() {
            if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.conn_readable(fd);
            }
        } else if state == State::Writing {
            if mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.conn_writable(fd);
            }
        } else if state == State::Executing {
            if mask & (sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                // The peer vanished mid-execute. Deregister so the
                // level-triggered HUP stops waking us; the completion
                // write will fail and close the connection.
                c.interest = DEREGISTERED;
                let _ = self.epoll.del(fd);
            } else {
                // Pipelined bytes or a half-close while the request is
                // in flight: nothing is read until it is answered (a
                // flooding peer fills its own socket buffer, not ours),
                // so stop hearing about it. Only a peer that does this
                // costs the two `epoll_ctl`s.
                Self::set_interest(&self.epoll, c, 0);
            }
        }
    }

    /// Pull whatever the socket has and advance the state machine.
    fn conn_readable(&mut self, fd: i32) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(c) = self.conns.get_mut(&fd) else {
                return;
            };
            let (chunk, eof): (&[u8], bool) = match c.stream.read(&mut buf) {
                Ok(0) => (&[], true),
                Ok(n) => (&buf[..n], false),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(fd);
                    return;
                }
            };
            let step = c.conn.on_input(chunk, eof, Instant::now());
            if matches!(step, Ok(Input::Pending)) {
                continue;
            }
            self.advance(fd, step);
            return;
        }
    }

    /// Act on what the machine made of its input, and on whatever that
    /// leads to, until the connection has to wait — for the socket, for
    /// a worker, or for its peer. A request answered here and flushed
    /// may uncover the next one already buffered (pipelining), which may
    /// be answered here too: that is this loop, never a deeper stack.
    fn advance(&mut self, fd: i32, mut step: Step) {
        loop {
            let (bytes, keep_alive) = match step {
                Ok(Input::Pending) => return,
                Ok(Input::Closed) => return self.close_conn(fd),
                Ok(Input::Request(request)) => match self.dispatch(fd, request) {
                    Some(answer) => answer,
                    None => return,
                },
                Err(err) => (refuse(&err), false),
            };
            match self.attach(fd, bytes, keep_alive) {
                Some(next) => step = next,
                None => return,
            }
        }
    }

    /// Answer a decoded request from memory, or hand it to the worker
    /// pool (`None`: the socket goes quiescent until the completion
    /// comes back). Which one is decided by what can be seen in the
    /// request: a `/compile` body of at most one read is decoded and
    /// keyed here, and a resident artifact is answered by the functions
    /// [`crate::respond`] would have called.
    fn dispatch(&mut self, fd: i32, request: Request) -> Option<(Vec<u8>, bool)> {
        #[cfg(test)]
        tests::note_dispatch_frame();
        let conn_id = self.conns.get(&fd)?.conn.id;
        let shared = &self.shared;
        let mut decoded = None;
        if request.method == "POST"
            && request.path == "/compile"
            && request.body.len() <= READ_CHUNK
        {
            let t0 = Instant::now();
            // A body that does not decode is the worker's to refuse:
            // the 4xx is made in one place.
            if let Ok((job, key)) = decode_compile(shared, &request) {
                if let Some(compiled) = shared.engine.probe_resident(key) {
                    msc_obs::count("serve.resident_answers", 1);
                    let body = api::compile_response(&job, &compiled);
                    return Some(finish(shared, &request, t0, Ok(body)));
                }
                decoded = Some(Box::new((job, key)));
            }
        }
        msc_obs::count("serve.dispatched", 1);
        let task = Task::Request {
            conn_id,
            fd,
            request,
            decoded,
            queued: Instant::now(),
            reply: Arc::clone(&self.rendezvous),
        };
        // Unreachable by construction — open connections are capped at
        // the queue's capacity — but shed rather than hang.
        match shared.queue.try_push(task) {
            Ok(()) => None,
            Err(_) => Some((shed(), false)),
        }
    }

    /// Attach a response and push it out: [`flush`](Self::flush)'s
    /// verdict on it.
    fn attach(&mut self, fd: i32, bytes: Vec<u8>, keep_alive: bool) -> Option<Step> {
        let c = self.conns.get_mut(&fd)?;
        c.conn.start_response(bytes, keep_alive, Instant::now());
        self.flush(fd)
    }

    /// Answer `fd` from outside its own read path (a completion, a
    /// timeout); whatever the connection does next happens here too.
    fn start_response(&mut self, fd: i32, bytes: Vec<u8>, keep_alive: bool) {
        if let Some(next) = self.attach(fd, bytes, keep_alive) {
            self.advance(fd, next);
        }
    }

    /// The socket takes bytes again: push, and carry on from there.
    fn conn_writable(&mut self, fd: i32) {
        if let Some(next) = self.flush(fd) {
            self.advance(fd, next);
        }
    }

    /// Push response bytes as the socket accepts them. `Some` once the
    /// response has flushed on a connection that stays open: what the
    /// machine makes of the bytes the peer pipelined behind the request.
    fn flush(&mut self, fd: i32) -> Option<Step> {
        loop {
            let c = self.conns.get_mut(&fd)?;
            if c.conn.state() != State::Writing {
                return None;
            }
            let pending = c.conn.pending_write();
            if pending.is_empty() {
                // A zero-length response body cannot happen (every
                // response has a head), but don't loop on it.
                self.close_conn(fd);
                return None;
            }
            match c.stream.write(pending) {
                Ok(0) => {
                    self.close_conn(fd);
                    return None;
                }
                Ok(n) => {
                    if !c.conn.advance_write(n, Instant::now()) {
                        continue;
                    }
                    if c.conn.state() != State::KeepAlive || (self.draining && c.conn.is_idle()) {
                        self.close_conn(fd);
                        return None;
                    }
                    Self::set_interest(&self.epoll, c, READABLE);
                    return Some(c.conn.poll_next(Instant::now()));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    Self::set_interest(&self.epoll, c, sys::EPOLLOUT);
                    return None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(fd);
                    return None;
                }
            }
        }
    }

    /// Apply worker completions: attach the response and start writing.
    fn handle_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .rendezvous
                .completions
                .lock()
                .expect("completion queue poisoned: a thread panicked mid-push"),
        );
        for done in completions {
            msc_obs::value(
                "serve.completion_wait_nanos",
                done.done.elapsed().as_nanos() as u64,
            );
            let stale = match self.conns.get(&done.fd) {
                Some(c) => c.conn.id != done.conn_id || c.conn.state() != State::Executing,
                None => true,
            };
            if stale {
                continue; // connection died while the worker ran
            }
            self.start_response(done.fd, done.bytes, done.keep_alive);
        }
    }

    /// Time out connections whose deadline passed: 408 while reading
    /// (slow-loris and idle keep-alive alike), drop while writing.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(i32, State)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.conn.deadline.is_some_and(|d| d <= now))
            .map(|(fd, c)| (*fd, c.conn.state()))
            .collect();
        for (fd, state) in expired {
            if state.wants_read() {
                self.start_response(fd, refuse(&HttpError::Timeout), false);
            } else {
                self.close_conn(fd);
            }
        }
    }

    /// Stop admitting: close the port, drop idle connections, let
    /// in-flight work finish. The main loop exits once the table
    /// empties.
    fn begin_drain(&mut self) {
        self.draining = true;
        if self.listener.take().is_some() {
            let _ = self.epoll.del(self.listener_fd);
        }
        let idle: Vec<i32> = self
            .conns
            .iter()
            .filter(|(_, c)| c.conn.is_idle())
            .map(|(fd, _)| *fd)
            .collect();
        for fd in idle {
            self.close_conn(fd);
        }
    }

    fn close_conn(&mut self, fd: i32) {
        if let Some(mut c) = self.conns.remove(&fd) {
            let _ = self.epoll.del(fd);
            c.conn.force_close();
            self.shared.open_conns.fetch_sub(1, Ordering::SeqCst);
            // Dropping the stream closes the socket.
        }
    }
}

#[cfg(test)]
mod tests {
    //! The reactor's own promises: which thread answers, what that costs
    //! in system calls, and that neither is visible in the answers.
    //! `tests/wire_golden.rs` pins the bytes; these pin the mechanism.

    use crate::client::Client;
    use crate::{ServeOptions, Server, ServerHandle};
    use msc_obs::json::Json;
    use msc_obs::MetricsSnapshot;
    use std::collections::BTreeSet;
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";
    const NEVER_SEEN: &str = "main() { poly int y; y = pe_id() * 3 + 2; return(y); }";
    /// Runs until the cycle budget stops it: `max_cycles` sets how long
    /// it holds a worker, and the answer is the 422 that says so.
    const LOOPS: &str =
        "main() { poly int i; i = 0; while (i < 1000000000) { i = i + 1; } return(i); }";

    /// A cycle budget that holds a worker for tenths of a second in a
    /// release build and a second or two in a debug one.
    const HOLD_CYCLES: u64 = 5_000_000;

    /// Where [`super::Reactor::dispatch`] has run, as stack addresses.
    static DISPATCH_FRAMES: Mutex<BTreeSet<usize>> = Mutex::new(BTreeSet::new());

    #[inline(never)]
    pub(super) fn note_dispatch_frame() {
        let marker = 0u8;
        let at = std::hint::black_box(&marker) as *const u8 as usize;
        DISPATCH_FRAMES.lock().unwrap().insert(at);
    }

    fn start(workers: usize, configure: impl FnOnce(&mut ServeOptions)) -> ServerHandle {
        let mut opts = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth: 8,
            ..ServeOptions::default()
        };
        configure(&mut opts);
        Server::start(opts).expect("bind ephemeral port")
    }

    fn post(path: &str, extra: &str, body: &str) -> Vec<u8> {
        format!(
            "POST {path} HTTP/1.1\r\nContent-Type: application/json\r\n{extra}\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn compile_body(source: &str) -> String {
        Json::obj(vec![("source", Json::from(source))]).render()
    }

    fn long_run(max_cycles: u64) -> Vec<u8> {
        let body = Json::obj(vec![
            ("source", Json::from(LOOPS)),
            ("max_cycles", Json::from(max_cycles)),
        ]);
        post("/run", "", &body.render())
    }

    fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.set_nodelay(true).unwrap();
        let reader = BufReader::new(s.try_clone().unwrap());
        (s, reader)
    }

    /// One response: its head and its body. `None` at end of stream.
    fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(String, String)> {
        let mut head = String::new();
        let mut length = 0usize;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                length = v.trim().parse().ok()?;
            }
            head.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).ok()?;
        Some((head, String::from_utf8(body).ok()?))
    }

    fn field(body: &str, name: &str) -> String {
        let v = msc_obs::json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
        v.get(name)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no `{name}` in {body}"))
            .to_string()
    }

    /// True when the daemon has sent something this socket has not read.
    fn has_answer(s: &TcpStream) -> bool {
        s.set_nonblocking(true).unwrap();
        let got = s.peek(&mut [0u8; 1]);
        s.set_nonblocking(false).unwrap();
        match got {
            Ok(n) => n > 0,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => panic!("{e}"),
        }
    }

    fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
        after.counter(name) - before.counter(name)
    }

    fn warm(addr: &str, source: &str) {
        let mut c = Client::connect(addr).unwrap();
        let r = c
            .request("POST", "/compile", Some(&compile_body(source)))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }

    #[test]
    fn a_pipelined_burst_is_answered_in_order_on_a_flat_stack() {
        const BURST: usize = 200;
        let handle = start(2, |_| {});
        let addr = handle.local_addr().to_string();
        warm(&addr, PROG);
        DISPATCH_FRAMES.lock().unwrap().clear();
        let before = handle.registry().snapshot();

        let mut burst = Vec::new();
        for i in 0..BURST {
            let source = if i == BURST / 2 { NEVER_SEEN } else { PROG };
            burst.extend(post("/compile", "", &compile_body(source)));
        }
        let (mut s, mut reader) = connect(&addr);
        // The daemon reads a request only once the one before it is
        // answered: write from a second thread so the burst cannot
        // stall against the answers nobody is reading yet.
        let writer = std::thread::spawn(move || s.write_all(&burst).map(|_| s));
        let warm_key = field(&read_response(&mut reader).expect("first answer").1, "key");
        for i in 1..BURST {
            let (_, body) = read_response(&mut reader).unwrap_or_else(|| panic!("answer {i}"));
            if i == BURST / 2 {
                assert_eq!(field(&body, "provenance"), "fresh", "answer {i}");
                assert_ne!(field(&body, "key"), warm_key, "answer {i}");
            } else {
                assert_eq!(field(&body, "provenance"), "memory", "answer {i}");
                assert_eq!(field(&body, "key"), warm_key, "answer {i}");
            }
        }
        drop(writer.join().unwrap().expect("the burst was written"));

        let after = handle.registry().snapshot();
        assert_eq!(
            delta(&before, &after, "serve.resident_answers"),
            BURST as u64 - 1
        );
        assert_eq!(delta(&before, &after, "serve.dispatched"), 1);
        // `dispatch` is entered from the read path, from a completion
        // and from a writable event — three stack depths, however many
        // requests one read uncovers. Recursion through it would show
        // one depth per buffered request.
        let frames = DISPATCH_FRAMES.lock().unwrap().len();
        assert!(
            (1..=3).contains(&frames),
            "dispatch ran at {frames} stack depths"
        );
        handle.shutdown();
    }

    #[test]
    fn a_busy_worker_holds_back_misses_but_not_resident_hits() {
        let handle = start(1, |_| {});
        let addr = handle.local_addr().to_string();
        warm(&addr, PROG);

        let (mut busy, mut busy_reader) = connect(&addr);
        busy.write_all(&long_run(HOLD_CYCLES)).unwrap();

        // The only worker is taken; a warm compile does not need one.
        let (mut other, mut other_reader) = connect(&addr);
        other
            .write_all(&post("/compile", "", &compile_body(PROG)))
            .unwrap();
        let (_, body) = read_response(&mut other_reader).expect("warm answer");
        assert_eq!(field(&body, "provenance"), "memory");
        assert!(!has_answer(&busy), "the long run outlasts a warm compile");

        // A cold one does: it waits its turn behind the run.
        other
            .write_all(&post("/compile", "", &compile_body(NEVER_SEEN)))
            .unwrap();
        loop {
            // Checked in this order, an answer to the cold compile
            // without one to the run is the cold compile jumping it.
            let cold_answered = has_answer(&other);
            let run_answered = has_answer(&busy);
            assert!(
                run_answered || !cold_answered,
                "a cold compile was answered while the only worker was busy"
            );
            if run_answered {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let (head, _) = read_response(&mut busy_reader).expect("the run's answer");
        assert!(head.starts_with("HTTP/1.1 422 "), "{head}");
        let (_, body) = read_response(&mut other_reader).expect("cold answer");
        assert_eq!(field(&body, "provenance"), "fresh");

        let counters = handle.registry().snapshot();
        assert_eq!(counters.counter("serve.resident_answers"), 1);
        assert_eq!(counters.counter("serve.dispatched"), 3);
        handle.shutdown();
    }

    #[test]
    fn bytes_and_half_closes_during_execution_wait_without_spinning() {
        let handle = start(1, |_| {});
        let addr = handle.local_addr().to_string();
        let registry = Arc::clone(handle.registry());
        let executing = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while registry.snapshot().counter("serve.conn_state.executing") < n {
                assert!(Instant::now() < deadline, "request {n} never executed");
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // Pipelined bytes behind a request in flight: left in the
        // socket until it is answered (`Conn::on_input` asserts it is
        // never fed while `Executing`), then served.
        let (mut s, mut reader) = connect(&addr);
        s.write_all(&long_run(HOLD_CYCLES)).unwrap();
        executing(1);
        let before = registry.snapshot();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let (head, _) = read_response(&mut reader).expect("the run's answer");
        assert!(head.starts_with("HTTP/1.1 422 "), "{head}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        let (head, _) = read_response(&mut reader).expect("the pipelined answer");
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        let after = registry.snapshot();
        // The bytes' arrival, the completion, the read that follows it.
        // A level-triggered spin would be thousands.
        let wakeups = delta(&before, &after, "serve.epoll_wakeups");
        assert!(
            wakeups <= 8,
            "{wakeups} wakeups around one pipelined request"
        );
        assert_eq!(delta(&before, &after, "serve.epoll_ctl"), 2);
        drop((s, reader));

        // A half-close: answered, then closed.
        let (mut s, mut reader) = connect(&addr);
        s.write_all(&long_run(HOLD_CYCLES)).unwrap();
        executing(3);
        let before = registry.snapshot();
        s.shutdown(Shutdown::Write).unwrap();
        let (head, _) = read_response(&mut reader).expect("the run's answer");
        assert!(head.starts_with("HTTP/1.1 422 "), "{head}");
        assert!(read_response(&mut reader).is_none(), "then it closes");
        let after = registry.snapshot();
        let wakeups = delta(&before, &after, "serve.epoll_wakeups");
        assert!(wakeups <= 8, "{wakeups} wakeups around one half-close");
        handle.shutdown();
    }

    #[test]
    fn a_keep_alive_conversation_of_hits_costs_no_dispatch_and_no_epoll_ctl() {
        const REQUESTS: u64 = 1000;
        let handle = start(2, |_| {});
        let addr = handle.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        let body = compile_body(PROG);
        assert_eq!(
            c.request("POST", "/compile", Some(&body)).unwrap().status,
            200
        );
        let before = handle.registry().snapshot();
        for _ in 0..REQUESTS {
            let r = c.request("POST", "/compile", Some(&body)).unwrap();
            assert_eq!(field(&r.body, "provenance"), "memory");
        }
        let after = handle.registry().snapshot();
        assert_eq!(delta(&before, &after, "serve.dispatched"), 0);
        assert_eq!(delta(&before, &after, "serve.resident_answers"), REQUESTS);
        assert_eq!(delta(&before, &after, "cache.hit"), REQUESTS);
        assert_eq!(delta(&before, &after, "serve.requests"), REQUESTS);
        assert!(after.counter("serve.epoll_ctl") <= 2);
        let wakeups = delta(&before, &after, "serve.epoll_wakeups");
        assert!(wakeups <= REQUESTS + 8, "{wakeups} wakeups");
        assert!(after
            .hist("serve.queue_wait_nanos")
            .is_some_and(|h| h.count == 1));
        assert!(after
            .hist("serve.completion_wait_nanos")
            .is_some_and(|h| h.count == 1));
        handle.shutdown();
    }

    #[test]
    fn the_disk_tier_is_never_read_on_the_reactor() {
        let dir =
            std::env::temp_dir().join(format!("msc-serve-reactor-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_disk = |o: &mut ServeOptions| o.cache_dir = Some(dir.clone());
        let first = start(1, with_disk);
        warm(&first.local_addr().to_string(), PROG);
        first.shutdown();

        // Same directory, cold memory: the artifact is a file.
        let handle = start(1, with_disk);
        let mut c = Client::connect(&handle.local_addr().to_string()).unwrap();
        let body = compile_body(PROG);
        let r = c.request("POST", "/compile", Some(&body)).unwrap();
        assert_eq!(field(&r.body, "provenance"), "disk");
        let counters = handle.registry().snapshot();
        assert_eq!(counters.counter("serve.dispatched"), 1);
        assert_eq!(counters.counter("serve.resident_answers"), 0);
        // Promoted, it is the reactor's to answer.
        let r = c.request("POST", "/compile", Some(&body)).unwrap();
        assert_eq!(field(&r.body, "provenance"), "memory");
        assert_eq!(
            handle
                .registry()
                .snapshot()
                .counter("serve.resident_answers"),
            1
        );
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_body_over_one_read_is_dispatched_and_still_hits_memory() {
        let handle = start(1, |_| {});
        let addr = handle.local_addr().to_string();
        warm(&addr, PROG);
        let before = handle.registry().snapshot();
        // Same source, same key; an ignored member pads the body.
        let body = Json::obj(vec![
            ("source", Json::from(PROG)),
            ("padding", Json::from("x".repeat(super::READ_CHUNK))),
        ])
        .render();
        let mut c = Client::connect(&addr).unwrap();
        let r = c.request("POST", "/compile", Some(&body)).unwrap();
        assert_eq!(field(&r.body, "provenance"), "memory");
        let after = handle.registry().snapshot();
        assert_eq!(delta(&before, &after, "serve.dispatched"), 1);
        assert_eq!(delta(&before, &after, "serve.resident_answers"), 0);
        handle.shutdown();
    }

    #[test]
    fn a_resident_answer_during_drain_says_close() {
        let handle = start(1, |_| {});
        let addr = handle.local_addr().to_string();
        warm(&addr, PROG);
        let registry = Arc::clone(handle.registry());
        let before = registry.snapshot();

        // All but the last byte arrives before the drain begins, the
        // last byte after: the request is the reactor's to answer while
        // the daemon is stopping.
        let request = post("/compile", "", &compile_body(PROG));
        let (last, rest) = request.split_last().unwrap();
        let (mut s, mut reader) = connect(&addr);
        s.write_all(rest).unwrap();
        // Until the reactor has read them the connection looks idle,
        // and the drain drops idle connections.
        while registry.snapshot().counter("serve.conn_state.reading_body") < 1 {
            std::thread::yield_now();
        }
        let shared = Arc::clone(&handle.shared);
        let last = *last;
        let sender = std::thread::spawn(move || {
            while !shared.stop.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            s.write_all(&[last]).unwrap();
            let answer = read_response(&mut reader).expect("answered through the drain");
            (answer, read_response(&mut reader).is_none())
        });
        handle.shutdown();
        let ((head, body), closed) = sender.join().unwrap();
        assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert_eq!(field(&body, "provenance"), "memory");
        assert!(closed);
        let after = registry.snapshot();
        assert_eq!(delta(&before, &after, "serve.resident_answers"), 1);
        assert_eq!(delta(&before, &after, "serve.dispatched"), 0);
    }
}
