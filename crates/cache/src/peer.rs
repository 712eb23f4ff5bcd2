//! The peer-fetch tier: pull artifacts from sibling daemons before
//! compiling locally.
//!
//! Robustness is the point, not an afterthought. Every network step is
//! bounded — per-peer connect and read deadlines, a bounded retry with
//! doubling backoff, and a *total* peer-path deadline after which the
//! caller just compiles locally, so a dead fleet is never slower than
//! no fleet beyond one timeout. Each peer sits behind a circuit
//! breaker: consecutive failures open it (the peer is skipped
//! entirely), a cooldown later one half-open probe is admitted, and its
//! outcome closes or re-opens the breaker. Every fetched body is
//! re-hash verified ([`crate::wire`]) before it is trusted; corrupt or
//! truncated bodies degrade to a miss and are counted
//! (`cache.peer_verify_fail`).

use crate::{wire, CacheKey, Cacheable, TierStatus};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for the peer tier. The defaults suit LAN siblings; tests
/// shrink them to keep failure paths fast.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write budget per attempt.
    pub read_timeout: Duration,
    /// Extra attempts per peer after the first (so `retries + 1` tries).
    pub retries: u32,
    /// Initial sleep between attempts; doubles per retry.
    pub backoff: Duration,
    /// Budget for the whole peer path (all peers, all retries). Once
    /// exhausted the caller compiles locally.
    pub total_deadline: Duration,
    /// Consecutive failures that open a peer's breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe.
    pub open_cooldown: Duration,
    /// Largest response body accepted from a peer.
    pub max_body: usize,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            retries: 1,
            backoff: Duration::from_millis(50),
            total_deadline: Duration::from_secs(3),
            failure_threshold: 3,
            open_cooldown: Duration::from_secs(5),
            max_body: 16 << 20,
        }
    }
}

/// Circuit-breaker position for one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Sick: requests are skipped until the cooldown elapses.
    Open,
    /// One probe is in flight; its outcome decides Closed vs Open.
    HalfOpen,
}

impl BreakerState {
    /// Lowercase rendering for `/healthz` and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the breaker opened, or when the half-open probe was
    /// admitted.
    since: Option<Instant>,
}

/// Per-peer circuit breaker. Time is passed in by the caller so the
/// state machine is testable with synthetic clocks.
pub(crate) struct Breaker {
    inner: Mutex<BreakerInner>,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                since: None,
            }),
        }
    }

    /// May a request be sent to this peer right now? Transitions
    /// Open → HalfOpen (admitting the caller as the probe) once the
    /// cooldown has elapsed.
    fn allow(&self, now: Instant, cfg: &PeerConfig) -> bool {
        let mut b = self.inner.lock();
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let opened = b.since.expect("open breaker records when it opened");
                if now.saturating_duration_since(opened) >= cfg.open_cooldown {
                    b.state = BreakerState::HalfOpen;
                    b.since = Some(now);
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // One probe at a time — but if the admitted probe
                // stalled past the whole peer-path budget (its thread
                // died mid-request, say), admit a replacement rather
                // than wedging half-open forever.
                let admitted = b.since.expect("half-open breaker records its probe");
                if now.saturating_duration_since(admitted) >= cfg.total_deadline {
                    b.since = Some(now);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        let mut b = self.inner.lock();
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
        b.since = None;
    }

    fn on_failure(&self, now: Instant, cfg: &PeerConfig) {
        let mut b = self.inner.lock();
        b.consecutive_failures += 1;
        if b.state == BreakerState::HalfOpen || b.consecutive_failures >= cfg.failure_threshold {
            b.state = BreakerState::Open;
            b.since = Some(now);
        }
    }

    fn snapshot(&self) -> (BreakerState, u32) {
        let b = self.inner.lock();
        (b.state, b.consecutive_failures)
    }
}

/// One peer's `/healthz` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// `host:port` as configured.
    pub addr: String,
    /// Current breaker position.
    pub breaker: BreakerState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
}

struct Peer {
    addr: String,
    breaker: Breaker,
}

/// The peer tier: an ordered list of sibling daemons tried in turn.
/// Peers are read-through only: a node shares what it compiled by
/// serving `GET /artifact/{key}`, not by pushing.
pub struct PeerTier<A> {
    peers: Vec<Peer>,
    cfg: PeerConfig,
    _artifact: PhantomData<fn() -> A>,
}

impl<A: Cacheable> PeerTier<A> {
    /// A tier consulting `addrs` (each `host:port`) in order.
    pub fn new(addrs: Vec<String>, cfg: PeerConfig) -> Self {
        PeerTier {
            peers: addrs
                .into_iter()
                .map(|addr| Peer {
                    addr,
                    breaker: Breaker::new(),
                })
                .collect(),
            cfg,
            _artifact: PhantomData,
        }
    }

    /// Per-peer breaker snapshots, in configured order.
    pub fn statuses(&self) -> Vec<PeerStatus> {
        self.peers
            .iter()
            .map(|p| {
                let (breaker, consecutive_failures) = p.breaker.snapshot();
                PeerStatus {
                    addr: p.addr.clone(),
                    breaker,
                    consecutive_failures,
                }
            })
            .collect()
    }

    /// Ask each admitted peer in turn for `key` inside one total
    /// deadline; `None` when no peer produced a verified artifact.
    pub fn fetch(&self, key: CacheKey, cx: &A::Context) -> Option<Arc<A>> {
        let deadline = Instant::now() + self.cfg.total_deadline;
        for peer in &self.peers {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if !peer.breaker.allow(now, &self.cfg) {
                continue;
            }
            let mut backoff = self.cfg.backoff;
            for attempt in 0..=self.cfg.retries {
                if attempt > 0 {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep(backoff.min(deadline - now));
                    backoff = backoff.saturating_mul(2);
                }
                if Instant::now() >= deadline {
                    break;
                }
                match http_get_artifact(&peer.addr, key, &self.cfg, deadline) {
                    Ok(Some(body)) => {
                        msc_obs::count("cache.peer_bytes", body.len() as u64);
                        match wire::open(key, &body).and_then(|text| A::decode(&text, cx)) {
                            Some(artifact) => {
                                peer.breaker.on_success();
                                return Some(Arc::new(artifact));
                            }
                            None => {
                                // The peer answered confidently with a
                                // body that does not verify — retrying
                                // will not un-corrupt it. Count it,
                                // penalize the peer, move on.
                                msc_obs::count("cache.peer_verify_fail", 1);
                                peer.breaker.on_failure(Instant::now(), &self.cfg);
                                break;
                            }
                        }
                    }
                    Ok(None) => {
                        // Clean 404: the peer is healthy, it just does
                        // not have this artifact.
                        msc_obs::count("cache.peer_miss", 1);
                        peer.breaker.on_success();
                        break;
                    }
                    Err(_) => {
                        msc_obs::count("cache.peer_error", 1);
                        peer.breaker.on_failure(Instant::now(), &self.cfg);
                    }
                }
            }
        }
        None
    }

    /// Introspection snapshot for `/healthz`.
    pub fn status(&self) -> TierStatus {
        TierStatus::Peers {
            peers: self.statuses(),
            total_deadline: self.cfg.total_deadline,
        }
    }
}

/// One bounded HTTP exchange. `Ok(Some(body))` is a 200, `Ok(None)` a
/// clean 404, `Err` anything else (refused, timeout, bad status,
/// oversized or truncated body). Std-only HTTP/1.1: the request pins
/// `Connection: close` so the body ends at Content-Length or EOF.
fn http_get_artifact(
    addr: &str,
    key: CacheKey,
    cfg: &PeerConfig,
    deadline: Instant,
) -> Result<Option<String>, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err("peer deadline exhausted".into());
    }
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    let stream = TcpStream::connect_timeout(&sock, cfg.connect_timeout.min(remaining))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let io_budget = cfg
        .read_timeout
        .min(deadline.saturating_duration_since(Instant::now()))
        .max(Duration::from_millis(1));
    stream
        .set_read_timeout(Some(io_budget))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(io_budget))
        .map_err(|e| e.to_string())?;
    let mut stream = stream;
    let request = format!(
        "GET /artifact/{} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n",
        key.hex()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send {addr}: {e}"))?;

    // Read headers (and whatever body bytes arrive with them).
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(format!("{addr}: response headers too large"));
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr}: peer deadline exhausted mid-read"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(format!("{addr}: connection closed before headers")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read {addr}: {e}")),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| format!("{addr}: non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{addr}: bad status line {status_line:?}"))?;
    if status == 404 {
        return Ok(None);
    }
    if status != 200 {
        return Err(format!("{addr}: status {status}"));
    }
    let content_length: Option<usize> = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok());
    if let Some(len) = content_length {
        if len > cfg.max_body {
            return Err(format!("{addr}: body of {len} bytes exceeds cap"));
        }
    }
    let body_start = header_end + 4;
    loop {
        let have = buf.len().saturating_sub(body_start);
        match content_length {
            Some(len) if have >= len => {
                buf.truncate(body_start + len);
                break;
            }
            _ => {}
        }
        if have > cfg.max_body {
            return Err(format!("{addr}: body exceeds cap"));
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr}: peer deadline exhausted mid-body"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if let Some(len) = content_length {
                    if have < len {
                        return Err(format!("{addr}: truncated body ({have}/{len} bytes)"));
                    }
                }
                break; // Connection: close with no length — EOF delimits.
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read {addr}: {e}")),
        }
    }
    String::from_utf8(buf.split_off(body_start))
        .map(Some)
        .map_err(|_| format!("{addr}: non-UTF-8 body"))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn tiny_cfg() -> PeerConfig {
        PeerConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(300),
            retries: 1,
            backoff: Duration::from_millis(1),
            total_deadline: Duration::from_millis(800),
            failure_threshold: 2,
            open_cooldown: Duration::from_secs(3600),
            max_body: 1 << 20,
        }
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_through_half_open() {
        let cfg = tiny_cfg();
        let b = Breaker::new();
        let t0 = Instant::now();
        assert!(b.allow(t0, &cfg));
        b.on_failure(t0, &cfg);
        assert_eq!(b.snapshot(), (BreakerState::Closed, 1));
        assert!(b.allow(t0, &cfg), "one failure below threshold still flows");
        b.on_failure(t0, &cfg);
        assert_eq!(b.snapshot().0, BreakerState::Open);
        assert!(
            !b.allow(t0 + Duration::from_secs(1), &cfg),
            "open rejects inside cooldown"
        );
        // Cooldown elapsed: exactly one half-open probe is admitted.
        let probe_time = t0 + cfg.open_cooldown;
        assert!(b.allow(probe_time, &cfg));
        assert_eq!(b.snapshot().0, BreakerState::HalfOpen);
        assert!(
            !b.allow(probe_time, &cfg),
            "second caller is rejected while the probe flies"
        );
        // Probe succeeds → closed, counters reset.
        b.on_success();
        assert_eq!(b.snapshot(), (BreakerState::Closed, 0));
        // Open again, probe again, and this time the probe fails → back
        // to open with a fresh cooldown.
        b.on_failure(probe_time, &cfg);
        b.on_failure(probe_time, &cfg);
        let probe2 = probe_time + cfg.open_cooldown;
        assert!(b.allow(probe2, &cfg));
        b.on_failure(probe2, &cfg);
        assert_eq!(b.snapshot().0, BreakerState::Open);
        assert!(!b.allow(probe2 + Duration::from_secs(1), &cfg));
    }

    #[test]
    fn half_open_admits_a_replacement_probe_after_a_stall() {
        let cfg = tiny_cfg();
        let b = Breaker::new();
        let t0 = Instant::now();
        b.on_failure(t0, &cfg);
        b.on_failure(t0, &cfg);
        let probe_time = t0 + cfg.open_cooldown;
        assert!(b.allow(probe_time, &cfg));
        // The probe never reports back; once the whole peer-path budget
        // has passed, a replacement is admitted.
        assert!(!b.allow(probe_time + cfg.total_deadline / 2, &cfg));
        assert!(b.allow(probe_time + cfg.total_deadline, &cfg));
    }

    /// A one-shot fake peer: accepts connections and answers each with
    /// the canned response until dropped.
    fn fake_peer(response: Vec<u8>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut served = 0;
            // The listener is leaked when the test ends; bound accepts
            // keep the thread from outliving the process noisily.
            listener
                .set_nonblocking(false)
                .expect("blocking accept loop");
            while let Ok((mut stream, _)) = listener.accept() {
                let mut buf = [0u8; 2048];
                let mut seen = Vec::new();
                while let Ok(n) = stream.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    seen.extend_from_slice(&buf[..n]);
                    if find_header_end(&seen).is_some() {
                        break;
                    }
                }
                let _ = stream.write_all(&response);
                served += 1;
                if served >= 8 {
                    break;
                }
            }
            served
        });
        (addr, handle)
    }

    fn ok_response(body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn fetches_and_verifies_an_artifact_from_a_peer() {
        let key = crate::content_key("peer-hit", &[b"k"]);
        let text = "the artifact".to_string().encode(key);
        let body = wire::envelope(key, &text).render();
        let (addr, _h) = fake_peer(ok_response(&body));
        let tier: PeerTier<String> = PeerTier::new(vec![addr], tiny_cfg());
        let got = tier.fetch(key, &()).expect("verified peer hit");
        assert_eq!(*got, "the artifact");
        assert_eq!(tier.statuses()[0].breaker, BreakerState::Closed);
    }

    #[test]
    fn clean_404_is_a_miss_and_keeps_the_breaker_closed() {
        let key = crate::content_key("peer-404", &[b"k"]);
        let resp =
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_vec();
        let (addr, _h) = fake_peer(resp);
        let tier: PeerTier<String> = PeerTier::new(vec![addr], tiny_cfg());
        assert!(tier.fetch(key, &()).is_none());
        let s = &tier.statuses()[0];
        assert_eq!(
            (s.breaker, s.consecutive_failures),
            (BreakerState::Closed, 0)
        );
    }

    #[test]
    fn corrupt_body_fails_verification_and_degrades_to_miss() {
        let key = crate::content_key("peer-corrupt", &[b"k"]);
        // 200 with convincing-looking but unverifiable JSON.
        let (addr, _h) = fake_peer(ok_response(
            "{\"key\":\"beef\",\"sum\":\"f00d\",\"artifact\":\"x\"}",
        ));
        let tier: PeerTier<String> = PeerTier::new(vec![addr], tiny_cfg());
        assert!(tier.fetch(key, &()).is_none());
        assert_eq!(tier.statuses()[0].consecutive_failures, 1);
    }

    #[test]
    fn wrong_key_artifact_is_rejected_even_with_a_valid_sum() {
        // A peer that serves a *different* (internally consistent)
        // artifact than the one asked for must not poison the cache.
        let asked = crate::content_key("peer-swap", &[b"asked"]);
        let served = crate::content_key("peer-swap", &[b"served"]);
        let text = "wrong artifact".to_string().encode(served);
        let body = wire::envelope(served, &text).render();
        let (addr, _h) = fake_peer(ok_response(&body));
        let tier: PeerTier<String> = PeerTier::new(vec![addr], tiny_cfg());
        assert!(tier.fetch(asked, &()).is_none());
    }

    #[test]
    fn dead_peer_opens_the_breaker_and_is_skipped() {
        // Grab a port that refuses connections: bind, read the port,
        // drop the listener.
        let refused = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = tiny_cfg(); // failure_threshold 2, retries 1 → one fetch opens it
        let tier: PeerTier<String> = PeerTier::new(vec![refused], cfg);
        let key = crate::content_key("peer-dead", &[b"k"]);
        let start = Instant::now();
        assert!(tier.fetch(key, &()).is_none());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "refused connections must fail fast"
        );
        assert_eq!(tier.statuses()[0].breaker, BreakerState::Open);
        // Second fetch: the open breaker short-circuits — no attempts,
        // effectively instant.
        let start = Instant::now();
        assert!(tier.fetch(key, &()).is_none());
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn second_peer_serves_when_the_first_is_down() {
        let key = crate::content_key("peer-failover", &[b"k"]);
        let text = "from peer two".to_string().encode(key);
        let body = wire::envelope(key, &text).render();
        let refused = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (good, _h) = fake_peer(ok_response(&body));
        let tier: PeerTier<String> = PeerTier::new(vec![refused, good], tiny_cfg());
        let got = tier.fetch(key, &()).expect("failover hit");
        assert_eq!(*got, "from peer two");
    }

    #[test]
    fn truncated_content_length_body_is_an_error_not_a_hang() {
        let key = crate::content_key("peer-truncated", &[b"k"]);
        // Claims 500 bytes, sends 5, then closes.
        let resp =
            b"HTTP/1.1 200 OK\r\nContent-Length: 500\r\nConnection: close\r\n\r\nhello".to_vec();
        let (addr, _h) = fake_peer(resp);
        let cfg = tiny_cfg();
        let tier: PeerTier<String> = PeerTier::new(vec![addr], cfg.clone());
        let start = Instant::now();
        assert!(tier.fetch(key, &()).is_none());
        assert!(
            start.elapsed() < cfg.total_deadline + Duration::from_millis(500),
            "a lying peer costs at most the peer-path deadline"
        );
    }
}
