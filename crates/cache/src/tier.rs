//! Local storage tiers: the in-process LRU and the on-disk layer.

use crate::{CacheKey, Cacheable, TierStatus};
use msc_ir::util::FxHashMap;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Entry<A> {
    artifact: Arc<A>,
    last_used: u64,
}

struct Inner<A> {
    map: FxHashMap<CacheKey, Entry<A>>,
    tick: u64,
}

/// Bounded in-memory LRU tier. Capacity 0 disables the tier (every
/// fetch misses, every store is dropped).
pub struct MemoryTier<A> {
    capacity: usize,
    inner: Mutex<Inner<A>>,
    evictions: AtomicU64,
}

impl<A> MemoryTier<A> {
    /// A tier holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> Self {
        MemoryTier {
            capacity,
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                tick: 0,
            }),
            evictions: AtomicU64::new(0),
        }
    }

    /// Artifacts currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Read `key` and mark it most recently used.
    pub fn touch(&self, key: CacheKey) -> Option<Arc<A>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.artifact))
    }

    /// File `artifact` under `key` as most recently used, evicting the
    /// least recently used entries past the capacity. Returns how many
    /// were evicted; counting them is the caller's, which knows what the
    /// tier caches.
    pub fn put(&self, key: CacheKey, artifact: &Arc<A>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                artifact: Arc::clone(artifact),
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // O(n) victim scan; capacities are small (a cache of whole
            // compiled programs, not of cache lines).
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            inner.map.remove(&victim);
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Introspection snapshot for `/healthz`.
    pub fn status(&self) -> TierStatus {
        TierStatus::Memory {
            entries: self.len(),
            capacity: self.capacity,
            evictions: self.evictions(),
        }
    }
}

/// On-disk tier: one text file per key under a shared directory. Writes
/// go through a unique temp file + rename — rename is atomic on POSIX,
/// so a concurrent reader (another process sharing the cache dir) sees
/// either the old artifact or the complete new one, never a torn write,
/// and concurrent writers cannot interleave. All I/O failures degrade
/// to misses: a full disk or read-only dir must never fail the compile
/// that produced the artifact.
pub struct DiskTier<A> {
    dir: PathBuf,
    _artifact: PhantomData<fn() -> A>,
}

impl<A: Cacheable> DiskTier<A> {
    /// A tier persisting under `dir` (created on first store).
    pub fn new(dir: PathBuf) -> Self {
        DiskTier {
            dir,
            _artifact: PhantomData,
        }
    }

    /// The file a key persists to.
    fn path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.mscache", key.hex()))
    }

    /// Read and decode `key`'s file; `None` is a miss (absent, unreadable
    /// or undecodable).
    pub fn fetch(&self, key: CacheKey, cx: &A::Context) -> Option<Arc<A>> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        A::decode(&text, cx).map(Arc::new)
    }

    /// Persist an artifact (promotion or fresh insert). Best effort.
    pub fn store(&self, key: CacheKey, artifact: &A) {
        let _ = std::fs::create_dir_all(&self.dir);
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, artifact.encode(key)).is_ok() {
            if std::fs::rename(&tmp, self.path(key)).is_ok() {
                msc_obs::count("cache.disk_write", 1);
            } else {
                let _ = std::fs::remove_file(&tmp);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Introspection snapshot for `/healthz`.
    pub fn status(&self) -> TierStatus {
        TierStatus::Disk {
            dir: self.dir.display().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_tier_is_lru_and_counts_evictions() {
        let tier: MemoryTier<String> = MemoryTier::new(2);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| crate::content_key("lru", &[&[i as u8]]))
            .collect();
        tier.put(keys[0], &Arc::new("a".into()));
        tier.put(keys[1], &Arc::new("b".into()));
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(tier.touch(keys[0]).is_some());
        assert_eq!(tier.put(keys[2], &Arc::new("c".into())), 1);
        assert_eq!(tier.len(), 2);
        assert!(tier.touch(keys[0]).is_some());
        assert!(tier.touch(keys[1]).is_none());
        assert!(tier.touch(keys[2]).is_some());
        assert_eq!(tier.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let tier: MemoryTier<String> = MemoryTier::new(0);
        let key = crate::content_key("zero", &[b"k"]);
        tier.put(key, &Arc::new("a".into()));
        assert!(tier.touch(key).is_none());
        assert_eq!(tier.len(), 0);
    }

    #[test]
    fn disk_tier_round_trips_and_rejects_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("msc-cache-disk-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier: DiskTier<String> = DiskTier::new(dir.clone());
        let key = crate::content_key("disk", &[b"k"]);
        assert!(tier.fetch(key, &()).is_none());
        tier.store(key, &"payload".to_string());
        assert_eq!(
            tier.fetch(key, &()).as_deref(),
            Some(&"payload".to_string())
        );
        // A file that lost its magic line is a miss.
        std::fs::write(tier.path(key), "garbage").unwrap();
        assert!(tier.fetch(key, &()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
