//! Tiered content-addressed compile cache.
//!
//! A cache key is a 128-bit SipHash-2-4 fingerprint of everything that
//! determines a compiled output. The artifacts behind those keys live in
//! two *tiers*:
//!
//! - [`MemoryTier`] — bounded in-process LRU.
//! - [`DiskTier`] — one text file per key, written via an atomic
//!   temp-file + rename so concurrent readers and writers (other
//!   processes sharing the directory) never observe a torn artifact.
//!
//! [`TieredCache`] composes them into the lookup path memory → disk,
//! with disk hits promoted into memory. That lookup
//! ([`TieredCache::probe`], or [`TieredCache::probe_memory`] for a thread
//! that must not wait) is the only way to read the cache, and every hit
//! it returns is counted.
//! The crate is generic over the artifact type `A`, which names its own
//! interchange format by implementing [`Cacheable`]; the engine's
//! artifact (and its `CostModel`-dependent decoder) stays in the engine
//! crate without a dependency cycle. [`MemoryTier`] asks nothing of `A`,
//! so a cache with no disk (the regex pattern cache) uses it alone.

pub mod tier;

pub use tier::{DiskTier, MemoryTier};

use msc_codegen::GenOptions;
use msc_core::ConvertOptions;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A 128-bit content fingerprint (the two words of a SipHash-2-4-128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Hex rendering, used as the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Fingerprint one compilation request. Options are folded in through
/// their `Debug` rendering: every field participates, and adding a field
/// to either options struct automatically invalidates old keys. The
/// `0xfe` separators cannot occur inside the UTF-8 fields, so the
/// encoding is unambiguous.
pub fn cache_key(
    source: &str,
    convert: &ConvertOptions,
    gen: &GenOptions,
    optimize: bool,
    minimize: bool,
) -> CacheKey {
    use std::io::Write as _;
    let mut msg = Vec::with_capacity(source.len() + 1024);
    msg.extend_from_slice(source.as_bytes());
    msg.push(0xfe);
    write!(msg, "{convert:?}").expect("writing to a Vec cannot fail");
    msg.push(0xfe);
    write!(msg, "{gen:?}").expect("writing to a Vec cannot fail");
    msg.push(optimize as u8);
    msg.push(minimize as u8);
    let (hi, lo) = siphash128(0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03, &msg);
    CacheKey { hi, lo }
}

/// Fingerprint arbitrary content for a non-MIMDC domain (e.g. the regex
/// front-end keys compiled patterns by `content_key("regex", ...)`). The
/// domain tag and a length prefix per part make the encoding unambiguous
/// and keep every domain's keyspace disjoint from [`cache_key`]'s —
/// its `0xfe`-separated encoding never starts with an `0xff` byte, and
/// this one always does.
pub fn content_key(domain: &str, parts: &[&[u8]]) -> CacheKey {
    let mut msg = Vec::with_capacity(64 + parts.iter().map(|p| p.len() + 8).sum::<usize>());
    msg.push(0xff);
    msg.extend_from_slice(&(domain.len() as u64).to_le_bytes());
    msg.extend_from_slice(domain.as_bytes());
    for part in parts {
        msg.extend_from_slice(&(part.len() as u64).to_le_bytes());
        msg.extend_from_slice(part);
    }
    let (hi, lo) = siphash128(0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03, &msg);
    CacheKey { hi, lo }
}

/// SipHash-2-4 with 128-bit output (reference construction from the
/// SipHash paper / `siphash.c`). Vendored because the cache needs a
/// fingerprint whose two words mix independently — deriving two 64-bit
/// lanes by reseeding a non-seed-robust hash (Fx) leaves them correlated
/// — and the container has no 128-bit hash crate to lean on.
fn siphash128(k0: u64, k1: u64, data: &[u8]) -> (u64, u64) {
    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13);
        v[1] ^= v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16);
        v[3] ^= v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21);
        v[3] ^= v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17);
        v[1] ^= v[2];
        v[2] = v[2].rotate_left(32);
    }
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee, // 128-bit output variant marker
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
        v[3] ^= m;
        round(&mut v);
        round(&mut v);
        v[0] ^= m;
    }
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    round(&mut v);
    round(&mut v);
    v[0] ^= m;
    v[2] ^= 0xee;
    for _ in 0..4 {
        round(&mut v);
    }
    let hi = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..4 {
        round(&mut v);
    }
    let lo = v[0] ^ v[1] ^ v[2] ^ v[3];
    (hi, lo)
}

/// Where a cache hit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLayer {
    /// In-memory LRU.
    Memory,
    /// On-disk artifact, reloaded (and promoted into memory).
    Disk,
}

/// Counter snapshot for `--stats` output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// In-memory hits.
    pub hits: u64,
    /// Disk hits (artifact reloaded and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing anywhere.
    pub misses: u64,
    /// Artifacts inserted after a fresh compile.
    pub insertions: u64,
    /// LRU evictions from the memory layer.
    pub evictions: u64,
}

/// An artifact the disk tier can hold: the type names its own
/// interchange text (the format the disk tier persists).
pub trait Cacheable: Sized {
    /// What decoding needs besides the text. The engine's artifact
    /// reparses assembly against the request's `CostModel`; the cache key
    /// already pins it, so the caller lends it per lookup.
    type Context;
    /// Serialize to the interchange text.
    fn encode(&self, key: CacheKey) -> String;
    /// Parse the interchange text; any malformation yields `None`
    /// (treated as a miss — the artifact is simply rebuilt).
    fn decode(text: &str, cx: &Self::Context) -> Option<Self>;
}

/// Point-in-time tier introspection, surfaced on `/healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierStatus {
    /// The in-memory LRU.
    Memory {
        /// Artifacts currently resident.
        entries: usize,
        /// Configured capacity (0 = layer disabled).
        capacity: usize,
        /// Lifetime LRU evictions.
        evictions: u64,
    },
    /// The on-disk layer.
    Disk {
        /// Cache directory.
        dir: String,
    },
}

/// The composed lookup path: memory → disk, disk hits promoted into
/// memory, stats accounted at this level so the `probe`/`note_miss`
/// split (singleflight charges one miss per coalesced group) keeps the
/// invariant `hits + disk_hits + misses == resolved lookups`.
pub struct TieredCache<A> {
    memory: MemoryTier<A>,
    disk: Option<DiskTier<A>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl<A: Cacheable> TieredCache<A> {
    /// A cache holding at most `capacity` artifacts in memory (0 disables
    /// the memory layer), persisting to `disk_dir` when given (the
    /// directory is created on first use; I/O failures degrade to
    /// misses).
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> Self {
        TieredCache {
            memory: MemoryTier::new(capacity),
            disk: disk_dir.map(DiskTier::new),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Look up `key` in the memory tier and nowhere else: no file is
    /// opened, nothing decoded — what a thread that must
    /// not wait (the daemon's reactor) may call. A hit is counted and
    /// touches recency exactly as [`probe`](Self::probe)'s does; a miss
    /// counts nothing, so the caller can still take the full path.
    pub fn probe_memory(&self, key: CacheKey) -> Option<Arc<A>> {
        let artifact = self.memory.touch(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        msc_obs::count("cache.hit", 1);
        Some(artifact)
    }

    /// Look up `key` in memory, then on disk, promoting a disk hit into
    /// memory. Does not record a miss: the singleflight layer probes
    /// first and only the elected leader charges it.
    pub fn probe(&self, key: CacheKey, cx: &A::Context) -> Option<(Arc<A>, CacheLayer)> {
        if let Some(artifact) = self.probe_memory(key) {
            return Some((artifact, CacheLayer::Memory));
        }
        let artifact = self.disk.as_ref()?.fetch(key, cx)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        msc_obs::count("cache.disk_hit", 1);
        self.remember(key, &artifact);
        Some((artifact, CacheLayer::Disk))
    }

    /// Record one miss. Paired with [`probe`](Self::probe): the
    /// singleflight leader calls this exactly once per coalesced group.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        msc_obs::count("cache.miss", 1);
    }

    /// Insert a freshly compiled artifact into the local tiers.
    pub fn insert(&self, key: CacheKey, artifact: Arc<A>) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        msc_obs::count("cache.insert", 1);
        if let Some(disk) = &self.disk {
            disk.store(key, &artifact);
        }
        self.remember(key, &artifact);
    }

    /// File `artifact` in the memory tier, counting what that evicts.
    fn remember(&self, key: CacheKey, artifact: &Arc<A>) {
        let evicted = self.memory.put(key, artifact);
        if evicted > 0 {
            msc_obs::count("cache.evict", evicted);
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.memory.evictions(),
        }
    }

    /// Number of artifacts currently in memory.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// True when the memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Status of every configured tier, fastest first.
    pub fn tier_status(&self) -> Vec<TierStatus> {
        let mut out = vec![self.memory.status()];
        out.extend(self.disk.iter().map(|disk| disk.status()));
        out
    }
}

#[cfg(test)]
/// Minimal artifact for tier tests: the payload is a `String`, framed
/// with the same `mscache v1` magic the engine's format uses.
impl Cacheable for String {
    type Context = ();

    fn encode(&self, key: CacheKey) -> String {
        format!("mscache v1\nkey {}\n{self}", key.hex())
    }

    fn decode(text: &str, _: &()) -> Option<String> {
        let rest = text.strip_prefix("mscache v1\n")?;
        let (key_line, body) = rest.split_once('\n')?;
        key_line.strip_prefix("key ")?;
        Some(body.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siphash128_matches_reference_vectors() {
        // `vectors_sip128` from the SipHash reference implementation,
        // key = 00 01 02 .. 0f, read as two little-endian words.
        let k0 = 0x0706_0504_0302_0100;
        let k1 = 0x0f0e_0d0c_0b0a_0908;
        assert_eq!(
            siphash128(k0, k1, &[]),
            (0xe6a8_25ba_047f_81a3, 0x9302_55c7_1472_f66d)
        );
        assert_eq!(
            siphash128(k0, k1, &[0x00]),
            (0x44af_996b_d8c1_87da, 0x45fc_229b_1159_7634)
        );
        let msg: Vec<u8> = (0..15).collect(); // crosses the 8-byte block edge
        assert_eq!(
            siphash128(k0, k1, &msg),
            (0x11a8_b033_99e9_9354, 0xd9c3_cf97_0fec_087e)
        );
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let c = ConvertOptions::base();
        let g = GenOptions::default();
        let k1 = cache_key("main() {}", &c, &g, false, false);
        let k2 = cache_key("main() {}", &c, &g, false, false);
        assert_eq!(k1, k2);
        assert_ne!(k1, cache_key("main() { }", &c, &g, false, false));
        assert_ne!(k1, cache_key("main() {}", &c, &g, true, false));
        let mut c2 = c.clone();
        c2.max_meta_states = 7;
        assert_ne!(k1, cache_key("main() {}", &c2, &g, false, false));
        let g2 = GenOptions { csi: false, ..g };
        assert_ne!(k1, cache_key("main() {}", &c, &g2, false, false));
    }

    #[test]
    fn tiered_probe_promotes_disk_hits_to_memory() {
        let dir = std::env::temp_dir().join(format!("msc-cache-tiered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = content_key("tiered", &[b"a"]);
        {
            let cache: TieredCache<String> = TieredCache::new(4, Some(dir.clone()));
            cache.insert(key, Arc::new("payload".to_string()));
        }
        let cache: TieredCache<String> = TieredCache::new(4, Some(dir.clone()));
        // The memory-only probe never looks at the file, and its miss
        // leaves no trace in the counters.
        assert!(cache.probe_memory(key).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
        let (artifact, layer) = cache.probe(key, &()).expect("disk hit");
        assert_eq!(layer, CacheLayer::Disk);
        assert_eq!(*artifact, "payload");
        let (_, layer) = cache.probe(key, &()).expect("memory hit after promotion");
        assert_eq!(layer, CacheLayer::Memory);
        assert_eq!(
            cache.probe_memory(key).as_deref(),
            Some(&"payload".to_string())
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.disk_hits, s.misses), (2, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evictions_are_counted_by_the_composed_cache() {
        let registry = Arc::new(msc_obs::Registry::new());
        let _guard = msc_obs::install(registry.clone());
        let cache: TieredCache<String> = TieredCache::new(1, None);
        for i in 0..3u8 {
            cache.insert(content_key("evict", &[&[i]]), Arc::new(i.to_string()));
        }
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(registry.snapshot().counter("cache.evict"), 2);
        // The bare tier counts in its own status only: a cache of
        // something else (the regex pattern cache) reports nothing here.
        let tier: MemoryTier<String> = MemoryTier::new(1);
        for i in 0..3u8 {
            tier.put(content_key("evict", &[&[i]]), &Arc::new(i.to_string()));
        }
        assert_eq!(tier.evictions(), 2);
        assert_eq!(registry.snapshot().counter("cache.evict"), 2);
    }

    #[test]
    fn tier_status_reports_each_configured_tier() {
        let dir = std::env::temp_dir().join(format!("msc-cache-status-{}", std::process::id()));
        let cache: TieredCache<String> = TieredCache::new(8, Some(dir.clone()));
        let status = cache.tier_status();
        assert_eq!(status.len(), 2);
        assert!(matches!(
            status[0],
            TierStatus::Memory {
                entries: 0,
                capacity: 8,
                ..
            }
        ));
        assert_eq!(
            status[1],
            TierStatus::Disk {
                dir: dir.display().to_string()
            }
        );
        let memory_only: TieredCache<String> = TieredCache::new(8, None);
        assert_eq!(memory_only.tier_status().len(), 1);
    }
}
