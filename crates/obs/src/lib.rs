//! # msc-obs — zero-cost structured tracing and metrics
//!
//! Every hot layer of the pipeline (the core converter, the parallel
//! engine, the compile cache, the SIMD machine) emits typed events through
//! this crate instead of keeping one-off stats structs. The design goal is
//! **true zero cost when nobody is listening**: every emit helper first
//! loads a single static [`AtomicBool`] (relaxed) and returns immediately
//! when no subscriber is installed, so instrumented code paths run within
//! measurement noise of uninstrumented ones (BENCH_explosion's
//! `obs_disabled_overhead_pct` row gates the bound).
//!
//! ## Model
//!
//! * an [`Event`] is one observation: a named [`Event::Count`] increment,
//!   a named [`Event::Value`] sample (histogram material, with an optional
//!   integer `index` such as a block id), or a finished [`Event::Span`]
//!   with its monotonic wall-clock duration;
//! * a [`Subscriber`] receives events. [`Registry`] aggregates them into
//!   named u64 counters, log₂-bucketed histograms, and span timing sums;
//!   [`JsonlSink`] streams them as one JSON object per line; [`Fanout`]
//!   tees to several subscribers;
//! * [`install`] sets the process-global subscriber and returns an RAII
//!   [`InstallGuard`]. Installation is exclusive: a second `install` blocks
//!   until the first guard drops, which conveniently serializes tests that
//!   observe global state.
//!
//! ## Emitting
//!
//! ```
//! let registry = std::sync::Arc::new(msc_obs::Registry::new());
//! {
//!     let _guard = msc_obs::install(registry.clone());
//!     msc_obs::count("demo.widgets", 3);
//!     msc_obs::value("demo.queue_depth", 17);
//!     {
//!         let _span = msc_obs::span("demo.phase");
//!         // ... timed work ...
//!     }
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.widgets"), 3);
//! assert_eq!(snap.hist("demo.queue_depth").unwrap().count, 1);
//! assert_eq!(snap.span("demo.phase").unwrap().count, 1);
//! ```
//!
//! With no subscriber installed the three emit calls above compile down to
//! a relaxed load and a branch.
//!
//! ## Naming convention
//!
//! Dotted lowercase paths, `layer.thing`: `convert.fanout`, `cache.hit`,
//! `convert.stale_expansion`, `simd.dispatch_live`. Adding a counter to an
//! instrumented crate is one line at the emission site plus (optionally) a
//! row in DESIGN.md §10's schema table — the registry and sinks pick up
//! new names automatically.

pub mod json;
pub mod jsonl;

pub use jsonl::JsonlSink;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// One observation flowing from an instrumented layer to the subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named monotonic counter increment.
    Count {
        /// Dotted metric name (`cache.hit`).
        name: &'static str,
        /// Increment (usually 1).
        delta: u64,
    },
    /// A named point sample — histogram material. `index` distinguishes
    /// sub-series within one name (e.g. a meta-block id for per-block
    /// live-PE histograms); aggregating subscribers may ignore it, but the
    /// JSONL sink preserves it for offline slicing.
    Value {
        /// Dotted metric name (`simd.dispatch_live`).
        name: &'static str,
        /// Sub-series index (0 when unused).
        index: u64,
        /// The sampled value.
        value: u64,
    },
    /// A finished span: a named region with its monotonic duration.
    Span {
        /// Dotted span name (`convert.run`).
        name: &'static str,
        /// Wall-clock nanoseconds from [`span`] to guard drop.
        nanos: u64,
    },
}

impl Event {
    /// The metric name, whatever the variant.
    pub fn name(&self) -> &'static str {
        match self {
            Event::Count { name, .. } | Event::Value { name, .. } | Event::Span { name, .. } => {
                name
            }
        }
    }
}

/// Receives events while installed. Implementations must be cheap enough
/// to sit on hot paths *when observability is on*; the off path never
/// reaches them.
pub trait Subscriber: Send + Sync {
    /// Handle one event.
    fn event(&self, event: &Event);
}

/// The zero-cost gate: emit helpers return immediately while this is
/// false. Only [`install`] / [`InstallGuard::drop`] write it.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed subscriber. Read-locked per event (only when enabled);
/// write-locked only by install/uninstall.
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Serializes installations: the guard of the current installation holds
/// this lock, so a concurrent `install` blocks until it drops.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// True when a subscriber is installed. Inlined relaxed load — this is the
/// whole cost of instrumentation when observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `subscriber` as the process-global event sink until the
/// returned guard drops. Blocks if another installation is active.
pub fn install(subscriber: Arc<dyn Subscriber>) -> InstallGuard {
    let lock = INSTALL_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    *SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner()) = Some(subscriber);
    ENABLED.store(true, Ordering::SeqCst);
    InstallGuard { _lock: lock }
}

/// RAII handle for an installation; dropping it uninstalls the subscriber
/// and re-arms the zero-cost fast path.
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *SUBSCRIBER.write().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

/// Deliver an event to the installed subscriber. Out-of-line: the inline
/// emit helpers only pay for the call once [`enabled`] says so.
#[cold]
fn dispatch(event: &Event) {
    let guard = SUBSCRIBER.read().unwrap_or_else(|p| p.into_inner());
    if let Some(sub) = guard.as_ref() {
        sub.event(event);
    }
}

/// Increment the named counter by `delta` (no-op unless a subscriber is
/// installed).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if enabled() {
        dispatch(&Event::Count { name, delta });
    }
}

/// Record a point sample for the named series (no-op unless a subscriber
/// is installed).
#[inline]
pub fn value(name: &'static str, value: u64) {
    if enabled() {
        dispatch(&Event::Value {
            name,
            index: 0,
            value,
        });
    }
}

/// [`value`] with an explicit sub-series index (e.g. a block id).
#[inline]
pub fn sample(name: &'static str, index: u64, value: u64) {
    if enabled() {
        dispatch(&Event::Value { name, index, value });
    }
}

/// Start a timed span; the returned guard emits [`Event::Span`] with the
/// elapsed monotonic time when dropped. When observability is off, no
/// clock is read and drop is a no-op.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Guard returned by [`span`]; emits the duration on drop.
#[must_use = "a span measures the region until the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            dispatch(&Event::Span {
                name: self.name,
                nanos: start.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// Number of log₂ buckets in a [`Hist`]: bucket *i* counts values whose
/// bit length is *i* (bucket 0 is the value 0).
pub const HIST_BUCKETS: usize = 65;

/// Aggregated samples of one [`Event::Value`] series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Log₂ buckets: `buckets[i]` counts samples with bit length `i`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty log₂ buckets, ascending, as `(range, samples)` with
    /// the range written `"4-7"` (or `"1"` when it is one value).
    pub fn bucket_counts(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let nonempty = self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        nonempty.map(|(i, &n)| {
            let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
            let hi = lo + lo.saturating_sub(1);
            let range = if lo == hi {
                lo.to_string()
            } else {
                format!("{lo}-{hi}")
            };
            (range, n)
        })
    }
}

/// Aggregated timings of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans.
    pub count: u64,
    /// Total nanoseconds across them.
    pub total_nanos: u64,
    /// Longest single span.
    pub max_nanos: u64,
}

/// A thread-safe aggregating subscriber: counters, histograms, and span
/// stats keyed by metric name. Clone-free reads come out as a
/// [`MetricsSnapshot`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Hist>,
    spans: BTreeMap<&'static str, SpanStat>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event directly (also reachable via [`Subscriber`]).
    pub fn record(&self, event: &Event) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match *event {
            Event::Count { name, delta } => *inner.counters.entry(name).or_insert(0) += delta,
            Event::Value { name, value, .. } => inner.hists.entry(name).or_default().record(value),
            Event::Span { name, nanos } => {
                let s = inner.spans.entry(name).or_default();
                s.count += 1;
                s.total_nanos += nanos;
                s.max_nanos = s.max_nanos.max(nanos);
            }
        }
    }

    /// Copy the current aggregates out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        }
    }
}

impl Subscriber for Registry {
    fn event(&self, event: &Event) {
        self.record(event);
    }
}

/// Point-in-time copy of a [`Registry`]'s aggregates — the per-job metrics
/// bundle the engine's batch API returns, and the source of the `mscc
/// --metrics` summary table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
    /// Span stats by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// Counter total (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram for a value series, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Stats for a span name, if any spans completed.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.spans.is_empty()
    }

    /// Human-readable end-of-run summary (the `--metrics` table).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\n-- metrics --\n");
        if self.is_empty() {
            out.push_str("(no events recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<28} {v}");
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms (count / mean / min / max | log2 buckets):\n");
            for (name, h) in &self.hists {
                let _ = write!(
                    out,
                    "  {name:<28} {} / {:.2} / {} / {} |",
                    h.count,
                    h.mean(),
                    if h.count == 0 { 0 } else { h.min },
                    h.max
                );
                for (range, n) in h.bucket_counts() {
                    let _ = write!(out, " {range}:{n}");
                }
                out.push('\n');
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (count / total / max):\n");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "  {name:<28} {} / {:.3}ms / {:.3}ms",
                    s.count,
                    s.total_nanos as f64 / 1e6,
                    s.max_nanos as f64 / 1e6
                );
            }
        }
        out
    }
}

/// Tee events to several subscribers in order.
pub struct Fanout {
    subs: Vec<Arc<dyn Subscriber>>,
}

impl Fanout {
    /// A fanout over `subs`.
    pub fn new(subs: Vec<Arc<dyn Subscriber>>) -> Self {
        Fanout { subs }
    }
}

impl Subscriber for Fanout {
    fn event(&self, event: &Event) {
        for s in &self.subs {
            s.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing_and_reads_no_clock() {
        // No subscriber installed (and install serialization guarantees no
        // other test has one while we hold the install lock ourselves).
        let registry = Arc::new(Registry::new());
        {
            let _guard = install(registry.clone());
        } // immediately uninstalled
        assert!(!enabled());
        count("t.counter", 5);
        value("t.value", 9);
        let s = span("t.span");
        assert!(s.start.is_none(), "disabled span must not read the clock");
        drop(s);
        assert!(registry.snapshot().is_empty());
    }

    #[test]
    fn installed_registry_aggregates() {
        let registry = Arc::new(Registry::new());
        {
            let _guard = install(registry.clone());
            assert!(enabled());
            count("t.hits", 1);
            count("t.hits", 2);
            value("t.depth", 4);
            value("t.depth", 9);
            sample("t.depth", 7, 1);
            let _span = span("t.region");
        }
        {
            // Under the install lock no other test's subscriber can be
            // live, so the flag reads what the drop left.
            let _lock = INSTALL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            assert!(!enabled(), "guard drop re-arms the fast path");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("t.hits"), 3);
        let h = snap.hist("t.depth").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 14, 1, 9));
        assert_eq!(h.buckets[3], 1, "4 has bit length 3");
        assert_eq!(h.buckets[4], 1, "9 has bit length 4");
        assert_eq!(h.buckets[1], 1, "1 has bit length 1");
        let sp = snap.span("t.region").unwrap();
        assert_eq!(sp.count, 1);
        assert!(sp.total_nanos >= sp.max_nanos);
        let table = snap.render_table();
        assert!(table.contains("t.hits"), "{table}");
        assert!(
            table.contains("3 / 4.67 / 1 / 9 | 1:1 4-7:1 8-15:1\n"),
            "{table}"
        );
        assert!(table.contains("t.region"), "{table}");
    }

    #[test]
    fn fanout_tees() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        {
            let _guard = install(Arc::new(Fanout::new(vec![a.clone(), b.clone()])));
            count("t.fan", 1);
        }
        assert_eq!(a.snapshot().counter("t.fan"), 1);
        assert_eq!(b.snapshot().counter("t.fan"), 1);
    }

    #[test]
    fn registry_from_many_threads() {
        let registry = Arc::new(Registry::new());
        {
            let _guard = install(registry.clone());
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..1000 {
                            count("t.parallel", 1);
                        }
                    });
                }
            });
        }
        assert_eq!(registry.snapshot().counter("t.parallel"), 8000);
    }

    #[test]
    fn hist_mean_and_zero_bucket() {
        let mut h = Hist::default();
        h.record(0);
        h.record(8);
        assert_eq!(h.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets[4], 1, "8 has bit length 4");
        assert!((h.mean() - 4.0).abs() < 1e-12);
        h.record(1 << 63);
        let ranges: Vec<(String, u64)> = h.bucket_counts().collect();
        let top = format!("{}-{}", 1u64 << 63, u64::MAX);
        assert_eq!(ranges, [("0".into(), 1), ("8-15".into(), 1), (top, 1)]);
    }
}
