//! The epoll readiness reactor: one thread drives every connection.
//!
//! The reactor owns the listener and all sockets. It multiplexes them
//! through `epoll(7)` — declared directly against libc, which std
//! already links, keeping the stack dependency-free — and advances each
//! connection's [`Conn`] state machine as readiness allows. Compute
//! never runs here: a decoded request is pushed to the worker pool as a
//! [`Task::Request`], and the finished response comes back through the
//! completion queue plus a wakeup byte on a `UnixStream` pair (any
//! worker can write to its end without locking the reactor).
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
use crate::{refuse, shed, Shared, Task};
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
            });
        self.wake();
    }
}

/// One connection as the reactor tracks it: the socket plus its
/// I/O-free state machine.
struct Connection {
    stream: TcpStream,
    conn: Conn,
}

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
            for ev in &events[..n] {
                let fd = ev.user_data() as i32;
                if fd == self.listener_fd {
                    self.accept_ready();
                } else if fd == self.wake_fd {
                    self.drain_wake();
                } else {
                    self.conn_event(fd, ev.mask());
                }
            }
            self.handle_completions();
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
                        let _ = (&stream).write(&shed(&self.shared));
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    if self.epoll.add(fd, sys::EPOLLIN | sys::EPOLLRDHUP).is_err() {
                        continue;
                    }
                    self.next_id += 1;
                    let conn = Conn::new(self.next_id, Instant::now(), &self.shared.opts);
                    self.conns.insert(fd, Connection { stream, conn });
                    self.shared.open_conns.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_event(&mut self, fd: i32, mask: u32) {
        let Some(c) = self.conns.get(&fd) else { return };
        let state = c.conn.state();
        if state.wants_read() {
            if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.conn_readable(fd);
            }
        } else if state == State::Writing {
            if mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.conn_writable(fd);
            }
        } else if state == State::Executing && mask & (sys::EPOLLHUP | sys::EPOLLERR) != 0 {
            // The peer vanished mid-execute. Deregister so the
            // level-triggered HUP stops waking us; the completion
            // write will fail and close the connection.
            let _ = self.epoll.del(fd);
        }
    }

    /// Pull whatever the socket has and advance the state machine.
    fn conn_readable(&mut self, fd: i32) {
        let mut buf = [0u8; 16 * 1024];
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
            if !self.on_step(fd, step) {
                return;
            }
        }
    }

    /// Act on what the machine made of its input: `true` = nothing
    /// yet, keep reading.
    fn on_step(&mut self, fd: i32, step: Result<Input, HttpError>) -> bool {
        match step {
            Ok(Input::Pending) => return true,
            Ok(Input::Request(request)) => self.dispatch(fd, request),
            Ok(Input::Closed) => self.close_conn(fd),
            Err(err) => self.error_response(fd, &err),
        }
        false
    }

    /// Hand a decoded request to the worker pool; the socket goes
    /// quiescent until the completion comes back.
    fn dispatch(&mut self, fd: i32, request: Request) {
        let Some(c) = self.conns.get(&fd) else { return };
        let conn_id = c.conn.id;
        // Stop watching for input while executing (only HUP/ERR, which
        // epoll always reports, remain interesting).
        let _ = self.epoll.set(fd, 0);
        if self
            .shared
            .queue
            .try_push(Task::Request {
                conn_id,
                fd,
                request,
                reply: Arc::clone(&self.rendezvous),
            })
            .is_err()
        {
            // Unreachable by construction — open connections are capped
            // at the queue's capacity — but shed rather than hang.
            let bytes = shed(&self.shared);
            self.start_response(fd, bytes, false);
        }
    }

    /// Render an [`HttpError`] and start writing it; the connection
    /// closes once it drains.
    fn error_response(&mut self, fd: i32, err: &HttpError) {
        self.start_response(fd, refuse(err), false);
    }

    fn start_response(&mut self, fd: i32, bytes: Vec<u8>, keep_alive: bool) {
        let Some(c) = self.conns.get_mut(&fd) else {
            return;
        };
        c.conn.start_response(bytes, keep_alive, Instant::now());
        self.conn_writable(fd);
    }

    /// Push response bytes as the socket accepts them.
    fn conn_writable(&mut self, fd: i32) {
        loop {
            let Some(c) = self.conns.get_mut(&fd) else {
                return;
            };
            if c.conn.state() != State::Writing {
                return;
            }
            let pending = c.conn.pending_write();
            if pending.is_empty() {
                // A zero-length response body cannot happen (every
                // response has a head), but don't loop on it.
                self.close_conn(fd);
                return;
            }
            match c.stream.write(pending) {
                Ok(0) => {
                    self.close_conn(fd);
                    return;
                }
                Ok(n) => {
                    if c.conn.advance_write(n, Instant::now()) {
                        match c.conn.state() {
                            State::KeepAlive => {
                                if self.draining && c.conn.is_idle() {
                                    self.close_conn(fd);
                                    return;
                                }
                                let _ = self.epoll.set(fd, sys::EPOLLIN | sys::EPOLLRDHUP);
                                self.poll_buffered(fd);
                            }
                            _ => self.close_conn(fd),
                        }
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let _ = self.epoll.set(fd, sys::EPOLLOUT);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(fd);
                    return;
                }
            }
        }
    }

    /// After a response flushed on a keep-alive connection: consume a
    /// pipelined request that may already be buffered.
    fn poll_buffered(&mut self, fd: i32) {
        let Some(c) = self.conns.get_mut(&fd) else {
            return;
        };
        let step = c.conn.poll_next(Instant::now());
        self.on_step(fd, step);
    }

    /// Apply worker completions: attach the response and start writing.
    fn handle_completions(&mut self) {
        loop {
            let completion = self
                .rendezvous
                .completions
                .lock()
                .expect("completion queue poisoned: a thread panicked mid-push")
                .pop_front();
            let Some(done) = completion else { return };
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
                self.error_response(fd, &HttpError::Timeout);
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
