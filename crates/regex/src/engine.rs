//! Pattern compilation service: content-addressed cache + singleflight.
//!
//! The same discipline as `msc_engine::Engine`, reusing its building
//! blocks directly: patterns are keyed by
//! [`msc_engine::content_key`]`("regex", pattern)`, compiled at most once
//! per key ([`msc_engine::Singleflight`] coalesces concurrent identical
//! requests), and held in a [`msc_engine::MemoryTier`], the compile
//! cache's in-memory LRU. [`msc_engine::Provenance`] reports how
//! each request was served (`Disk` is never returned — a compiled
//! pattern has no interchange format, so there is no disk layer).

use crate::{Regex, RegexError};
use msc_engine::{content_key, CacheKey, Flight, MemoryTier, Provenance, Singleflight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default LRU capacity in compiled patterns.
pub const DEFAULT_PATTERN_CAPACITY: usize = 64;

/// The compiled-pattern cache.
pub struct RegexEngine {
    max_meta_states: usize,
    patterns: MemoryTier<Regex>,
    flights: Singleflight<CacheKey, Arc<Regex>>,
    compiled: AtomicU64,
    hits: AtomicU64,
    coalesced: AtomicU64,
}

impl Default for RegexEngine {
    fn default() -> Self {
        Self::new(DEFAULT_PATTERN_CAPACITY)
    }
}

impl RegexEngine {
    /// Engine with room for `capacity` compiled patterns (0 disables
    /// caching — every request compiles, though concurrent identical
    /// requests still coalesce) and the default
    /// [`crate::MAX_META_STATES`] complexity cap.
    pub fn new(capacity: usize) -> Self {
        Self::with_limits(capacity, crate::MAX_META_STATES)
    }

    /// Engine with an explicit meta-state complexity cap: patterns whose
    /// subset construction exceeds `max_meta_states` states are rejected
    /// as too complex (0 acts as 1).
    pub fn with_limits(capacity: usize, max_meta_states: usize) -> Self {
        RegexEngine {
            max_meta_states,
            patterns: MemoryTier::new(capacity),
            flights: Singleflight::new(),
            compiled: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Patterns compiled from scratch.
    pub fn compiled(&self) -> u64 {
        self.compiled.load(Ordering::Relaxed)
    }

    /// Requests served from the pattern cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that coalesced onto a concurrent identical compile.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Fetch or compile the pattern. Concurrent identical misses compile
    /// once; followers share the leader's outcome.
    pub fn get(&self, pattern: &str) -> Result<(Arc<Regex>, Provenance), RegexError> {
        let key = content_key("regex", &[pattern.as_bytes()]);
        let leader = match self.flights.begin(key, || self.patterns.touch(key)) {
            Flight::Hit(regex) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                msc_obs::count("regex.cache_hits", 1);
                return Ok((regex, Provenance::Memory));
            }
            Flight::Join(follower) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                msc_obs::count("regex.coalesced", 1);
                return match follower.wait() {
                    Ok(regex) => Ok((regex, Provenance::Coalesced)),
                    Err(message) => Err(RegexError::Shared(message)),
                };
            }
            Flight::Lead(leader) => leader,
        };
        let result = Regex::with_limit(pattern, self.max_meta_states).map(Arc::new);
        match &result {
            Ok(regex) => {
                // Insert before the leader guard retires the flight entry
                // (the Singleflight contract: joiners either coalesce or
                // hit the cache, never recompile).
                self.patterns.put(key, regex);
                self.compiled.fetch_add(1, Ordering::Relaxed);
                msc_obs::count("regex.compiled", 1);
                leader.publish(Ok(Arc::clone(regex)));
            }
            Err(e) => leader.publish(Err(e.to_string())),
        }
        drop(leader);
        result.map(|regex| (regex, Provenance::Fresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_memory() {
        let eng = RegexEngine::default();
        let (a, p1) = eng.get("ab+c").unwrap();
        assert_eq!(p1, Provenance::Fresh);
        let (b, p2) = eng.get("ab+c").unwrap();
        assert_eq!(p2, Provenance::Memory);
        assert!(Arc::ptr_eq(&a, &b), "cache returns the same compilation");
        assert_eq!((eng.compiled(), eng.hits()), (1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let eng = RegexEngine::default();
        assert!(eng.get("a(").is_err());
        assert!(eng.get("a(").is_err());
        assert_eq!(eng.compiled(), 0);
        assert!(eng.flights.is_empty(), "failed flight retired");
    }

    #[test]
    fn lru_evicts_oldest() {
        let eng = RegexEngine::new(2);
        eng.get("a").unwrap();
        eng.get("b").unwrap();
        eng.get("a").unwrap(); // refresh `a`
        eng.get("c").unwrap(); // evicts `b`
        assert_eq!(eng.get("a").unwrap().1, Provenance::Memory);
        assert_eq!(eng.get("b").unwrap().1, Provenance::Fresh);
    }

    #[test]
    fn zero_capacity_compiles_every_request() {
        let eng = RegexEngine::new(0);
        assert_eq!(eng.get("ab+").unwrap().1, Provenance::Fresh);
        assert_eq!(eng.get("ab+").unwrap().1, Provenance::Fresh);
        assert_eq!((eng.compiled(), eng.hits()), (2, 0));
    }

    #[test]
    fn engine_meta_state_cap_is_configurable() {
        let strict = RegexEngine::with_limits(4, 2);
        let e = strict.get("abcde").unwrap_err();
        assert!(matches!(e, RegexError::TooComplex { limit: 2 }));
        assert_eq!(strict.compiled(), 0, "rejected patterns are not cached");
        let lax = RegexEngine::with_limits(4, 64);
        assert!(lax.get("abcde").is_ok());
    }

    #[test]
    fn concurrent_identical_patterns_compile_once() {
        let eng = RegexEngine::default();
        let results: Vec<Provenance> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| eng.get("(ab|cd)+x?").unwrap().1))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(eng.compiled(), 1, "one compile for the burst: {results:?}");
        let fresh = results.iter().filter(|p| **p == Provenance::Fresh).count();
        assert_eq!(fresh, 1);
        for p in results {
            assert!(
                matches!(
                    p,
                    Provenance::Fresh | Provenance::Coalesced | Provenance::Memory
                ),
                "{p:?}"
            );
        }
    }
}
