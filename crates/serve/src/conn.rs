//! The per-connection state machine: the wire protocol, written once.
//!
//! Each connection is an explicit typestate-style automaton — the same
//! idiom the synchronous-program compilation literature uses for
//! reactive control loops. States name exactly what the connection is
//! waiting on, and every transition goes through `Conn::transition`,
//! which enforces the legality table ([`State::legal`]) and counts
//! `serve.conn_state.*` so the live distribution is visible on
//! `/metrics`. Framing and limits (through [`PushParser`]), the
//! keep-alive/close policy and the read/write deadlines live here, so
//! the two I/O drivers — the epoll reactor and the portable blocking
//! loop in `lib.rs` — differ only in how they wait for bytes and for
//! [`Conn::deadline`].
//!
//! ```text
//! ReadingHead ──► ReadingBody ──► Executing ──► Writing ──► KeepAlive
//!      ▲               │              │            │            │
//!      └───────────────┴──── error ──►└── Writing ─┘            │
//!      └────────────────────────────────────────────────────────┘
//!                    (any state) ──► Closed
//! ```
//!
//! The struct is deliberately I/O-free: the driver owns the socket,
//! feeds bytes in, and takes response bytes out. That keeps every
//! transition unit-testable without a socket.

use crate::http::{HttpError, Limits, Poll, PushParser, Request};
use crate::ServeOptions;
use std::time::{Duration, Instant};

/// What a connection is currently waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Accumulating request line + headers.
    ReadingHead,
    /// Head accepted; accumulating the declared body.
    ReadingBody,
    /// A decoded request is being answered; socket is quiescent.
    Executing,
    /// Draining response bytes as the socket accepts them.
    Writing,
    /// Response flushed; waiting for the next request (or close).
    KeepAlive,
    /// Terminal. The driver drops the socket on entry.
    Closed,
}

impl State {
    /// All states, for exhaustive table tests.
    pub const ALL: [State; 6] = [
        State::ReadingHead,
        State::ReadingBody,
        State::Executing,
        State::Writing,
        State::KeepAlive,
        State::Closed,
    ];

    /// The legality table: which transitions the automaton may take.
    /// Anything not listed here is a driver bug, not a peer behavior.
    pub fn legal(self, to: State) -> bool {
        use State::*;
        match (self, to) {
            // Any live state may be force-closed (peer drop, timeout,
            // write failure, drain).
            (from, Closed) => from != Closed,
            (ReadingHead, ReadingBody) => true,
            // A complete request dispatches to the worker pool...
            (ReadingHead | ReadingBody, Executing) => true,
            // ...or a parse error / read timeout short-circuits straight
            // to the response (an idle keep-alive peer gets 408 too).
            (ReadingHead | ReadingBody | KeepAlive, Writing) => true,
            (Executing, Writing) => true,
            (Writing, KeepAlive) => true,
            (KeepAlive, ReadingHead) => true,
            _ => false,
        }
    }

    /// True for the states where the driver waits on the socket for input.
    pub fn wants_read(self) -> bool {
        matches!(
            self,
            State::ReadingHead | State::ReadingBody | State::KeepAlive
        )
    }

    /// Metrics counter bumped on entry into this state.
    pub fn counter(self) -> &'static str {
        match self {
            State::ReadingHead => "serve.conn_state.reading_head",
            State::ReadingBody => "serve.conn_state.reading_body",
            State::Executing => "serve.conn_state.executing",
            State::Writing => "serve.conn_state.writing",
            State::KeepAlive => "serve.conn_state.keep_alive",
            State::Closed => "serve.conn_state.closed",
        }
    }
}

/// What feeding bytes into a connection produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Input {
    /// Nothing actionable yet; keep waiting for readiness.
    Pending,
    /// A complete request — answer it (the reactor does so itself when
    /// the answer is resident in memory, and hands every other request
    /// to the worker pool). The connection is now `Executing`.
    Request(Request),
    /// The peer closed cleanly between requests.
    Closed,
}

/// One connection's protocol state, decoupled from its socket.
pub struct Conn {
    /// Monotonic id, so a stale worker completion for a recycled fd
    /// can never be written to the wrong peer.
    pub id: u64,
    state: State,
    parser: PushParser,
    /// The daemon's [`ServeOptions::limits`] and read timeout.
    limits: Limits,
    read_timeout: Duration,
    /// Response bytes being drained, and how many are already written.
    out: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// When the current state times out (`None` while `Executing`:
    /// compute is bounded by the engine's own job timeout).
    pub deadline: Option<Instant>,
}

impl Conn {
    /// A freshly-accepted connection, waiting for a request head.
    pub fn new(id: u64, now: Instant, opts: &ServeOptions) -> Conn {
        msc_obs::count(State::ReadingHead.counter(), 1);
        Conn {
            id,
            state: State::ReadingHead,
            parser: PushParser::new(),
            limits: opts.limits.clone(),
            read_timeout: opts.read_timeout,
            out: Vec::new(),
            written: 0,
            close_after_write: false,
            deadline: Some(now + opts.read_timeout),
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// True when nothing is buffered and no request is in flight —
    /// safe to drop during graceful drain.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::ReadingHead | State::KeepAlive) && self.parser.buffered() == 0
    }

    fn transition(&mut self, to: State) {
        debug_assert!(
            self.state.legal(to),
            "illegal connection transition {:?} -> {:?}",
            self.state,
            to
        );
        msc_obs::count(to.counter(), 1);
        self.state = to;
    }

    /// Force the terminal state (timeout, write error, peer drop,
    /// drain). Idempotent.
    pub fn force_close(&mut self) {
        if self.state != State::Closed {
            self.transition(State::Closed);
        }
    }

    /// Feed bytes received from the socket (`eof` = read returned 0)
    /// and advance the automaton. An `Err` is a protocol violation:
    /// render it with [`Conn::start_response`] and close after writing.
    pub fn on_input(&mut self, bytes: &[u8], eof: bool, now: Instant) -> Result<Input, HttpError> {
        debug_assert!(matches!(
            self.state,
            State::ReadingHead | State::ReadingBody | State::KeepAlive
        ));
        if self.state == State::KeepAlive {
            if bytes.is_empty() && !eof && self.parser.buffered() == 0 {
                return Ok(Input::Pending);
            }
            self.transition(State::ReadingHead);
        }
        if !bytes.is_empty() {
            self.parser.feed(bytes);
            // Progress resets the read deadline: the bound is on
            // silence, not on how long a request takes to arrive.
            self.deadline = Some(now + self.read_timeout);
        }
        if eof {
            self.parser.eof();
        }
        match self.parser.poll(&self.limits)? {
            Poll::Ready(request) => {
                self.transition(State::Executing);
                self.deadline = None;
                Ok(Input::Request(request))
            }
            Poll::Pending if !eof => {
                if self.parser.in_body() && self.state == State::ReadingHead {
                    self.transition(State::ReadingBody);
                }
                Ok(Input::Pending)
            }
            // (After EOF the parser never asks for more; if it did,
            // closing keeps a driver from spinning on a dead socket.)
            Poll::Pending | Poll::Closed => {
                self.transition(State::Closed);
                Ok(Input::Closed)
            }
        }
    }

    /// After a response flushed on a keep-alive connection: consume any
    /// pipelined bytes already buffered.
    pub fn poll_next(&mut self, now: Instant) -> Result<Input, HttpError> {
        debug_assert_eq!(self.state, State::KeepAlive);
        self.on_input(&[], false, now)
    }

    /// Attach a fully-rendered response and enter `Writing`.
    pub fn start_response(&mut self, bytes: Vec<u8>, keep_alive: bool, now: Instant) {
        self.transition(State::Writing);
        self.out = bytes;
        self.written = 0;
        self.close_after_write = !keep_alive;
        self.deadline = Some(now + crate::WRITE_TIMEOUT);
    }

    /// Bytes still owed to the socket.
    pub fn pending_write(&self) -> &[u8] {
        &self.out[self.written..]
    }

    /// Record `n` bytes written. Returns `true` when the response has
    /// fully flushed — the connection is then `KeepAlive` (read
    /// deadline re-armed) or `Closed`.
    pub fn advance_write(&mut self, n: usize, now: Instant) -> bool {
        self.written += n;
        debug_assert!(self.written <= self.out.len());
        if self.written < self.out.len() {
            return false;
        }
        self.out = Vec::new();
        self.written = 0;
        if self.close_after_write {
            self.transition(State::Closed);
        } else {
            self.transition(State::KeepAlive);
            self.deadline = Some(now + self.read_timeout);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn conn() -> Conn {
        Conn::new(1, Instant::now(), &ServeOptions::default())
    }

    #[test]
    fn legality_table_is_exactly_the_documented_automaton() {
        use State::*;
        let expected = [
            (ReadingHead, ReadingBody),
            (ReadingHead, Executing),
            (ReadingHead, Writing),
            (ReadingBody, Executing),
            (ReadingBody, Writing),
            (Executing, Writing),
            (Writing, KeepAlive),
            (KeepAlive, ReadingHead),
            (KeepAlive, Writing),
        ];
        for from in State::ALL {
            for to in State::ALL {
                let legal = from.legal(to);
                let in_table = expected.contains(&(from, to)) || (to == Closed && from != Closed);
                assert_eq!(legal, in_table, "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn full_request_lifecycle_walks_the_states() {
        let now = Instant::now();
        let mut c = conn();
        assert_eq!(c.state(), State::ReadingHead);
        assert!(c.is_idle());

        // Head arrives in two pieces, then the body.
        let got = c
            .on_input(b"POST /run HTTP/1.1\r\nContent-", false, now)
            .unwrap();
        assert_eq!(got, Input::Pending);
        assert_eq!(c.state(), State::ReadingHead);
        assert!(!c.is_idle());

        let got = c.on_input(b"Length: 4\r\n\r\nab", false, now).unwrap();
        assert_eq!(got, Input::Pending);
        assert_eq!(c.state(), State::ReadingBody);

        let got = c.on_input(b"cd", false, now).unwrap();
        let req = match got {
            Input::Request(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(req.body, b"abcd");
        assert_eq!(c.state(), State::Executing);
        assert_eq!(c.deadline, None);

        // Worker completes; response drains in two writes.
        c.start_response(b"HTTP/1.1 200 OK\r\n\r\n".to_vec(), true, now);
        assert_eq!(c.state(), State::Writing);
        assert!(!c.advance_write(5, now));
        let rest = c.pending_write().len();
        assert!(c.advance_write(rest, now));
        assert_eq!(c.state(), State::KeepAlive);
        assert!(c.is_idle());

        // Nothing pipelined: polling parks it back in ReadingHead only
        // when input arrives.
        assert_eq!(c.poll_next(now).unwrap(), Input::Pending);
        assert_eq!(c.state(), State::KeepAlive);

        // Peer hangs up cleanly.
        let got = c.on_input(&[], true, now).unwrap();
        assert_eq!(got, Input::Closed);
        assert_eq!(c.state(), State::Closed);
    }

    #[test]
    fn parse_error_goes_to_writing_then_closed() {
        let now = Instant::now();
        let mut c = conn();
        let err = c.on_input(b"GARBAGE\r\n\r\n", false, now).unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
        c.start_response(b"HTTP/1.1 400 Bad Request\r\n\r\n".to_vec(), false, now);
        assert_eq!(c.state(), State::Writing);
        assert!(c.advance_write(28, now));
        assert_eq!(c.state(), State::Closed);
    }

    #[test]
    fn pipelined_request_is_picked_up_after_the_response() {
        let now = Instant::now();
        let mut c = conn();
        let got = c
            .on_input(
                b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n",
                false,
                now,
            )
            .unwrap();
        assert!(matches!(got, Input::Request(r) if r.path == "/healthz"));
        c.start_response(b"x".to_vec(), true, now);
        assert!(c.advance_write(1, now));
        let got = c.poll_next(now).unwrap();
        assert!(matches!(got, Input::Request(r) if r.path == "/metrics"));
        assert_eq!(c.state(), State::Executing);
    }

    #[test]
    fn force_close_is_legal_from_everywhere_and_idempotent() {
        let mut c = conn();
        c.force_close();
        assert_eq!(c.state(), State::Closed);
        c.force_close();
        assert_eq!(c.state(), State::Closed);
    }

    #[test]
    fn progress_resets_the_read_deadline() {
        let mut c = conn();
        let t0 = c.deadline.unwrap();
        let later = Instant::now() + Duration::from_secs(60);
        c.on_input(b"GET", false, later).unwrap();
        assert!(c.deadline.unwrap() > t0);
    }
}
