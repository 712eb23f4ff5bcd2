//! The engine's view of the tiered compile cache.
//!
//! The tier machinery itself — the key/fingerprint algebra, the
//! in-memory LRU, the atomic on-disk layer, and the peer-fetch tier
//! with its breakers and deadlines — lives in the `msc-cache` crate,
//! generic over the artifact type. This module binds it to
//! [`Artifact`]: `ArtifactCodec` implements the `mscache v1`
//! interchange format (the SIMD program via the reloadable assembly
//! format `msc_simd::asm`, plus conversion stats and the automaton
//! rendering), and [`CompileCache`] wraps `TieredCache<Artifact>` with
//! the engine-facing API the rest of the workspace already speaks.

use crate::{Artifact, PhaseTimings};
use msc_cache::{Codec, PeerConfig, TierStatus, TieredCache};
use msc_core::ConvertStats;
use msc_ir::{Addr, CostModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

pub use msc_cache::{cache_key, content_key, CacheKey, CacheLayer, CacheStats};

/// The `mscache v1` (de)serializer for [`Artifact`]s. Decoding reparses
/// the assembly, which needs the request's [`CostModel`]; the cache key
/// already pins it, so borrowing it per call is sound.
pub(crate) struct ArtifactCodec<'a> {
    pub costs: &'a CostModel,
}

impl ArtifactCodec<'_> {
    /// Codec for paths that only encode (insert, export): encoding
    /// never reads the cost model.
    pub fn encode_only() -> ArtifactCodec<'static> {
        static DEFAULT: std::sync::OnceLock<CostModel> = std::sync::OnceLock::new();
        ArtifactCodec {
            costs: DEFAULT.get_or_init(CostModel::default),
        }
    }
}

impl Codec<Artifact> for ArtifactCodec<'_> {
    fn encode(&self, key: CacheKey, artifact: &Artifact) -> String {
        write_disk_artifact(key, artifact)
    }

    fn decode(&self, text: &str) -> Option<Artifact> {
        read_disk_artifact(text, self.costs)
    }
}

/// Bounded, thread-safe artifact cache: memory LRU, optional disk
/// layer, optional peer-daemon layer.
pub struct CompileCache {
    tiers: TieredCache<Artifact>,
}

impl CompileCache {
    /// A cache holding at most `capacity` artifacts in memory (0 disables
    /// the memory layer), persisting to `disk_dir` when given (the
    /// directory is created on first use; I/O failures degrade to misses).
    pub fn new(capacity: usize, disk_dir: Option<PathBuf>) -> Self {
        CompileCache {
            tiers: TieredCache::new(capacity, disk_dir),
        }
    }

    /// [`new`](Self::new) plus a peer tier fetching from sibling
    /// daemons (`host:port` each; an empty list disables the tier).
    pub fn with_peers(
        capacity: usize,
        disk_dir: Option<PathBuf>,
        peers: Vec<String>,
        cfg: PeerConfig,
    ) -> Self {
        CompileCache {
            tiers: TieredCache::with_peers(capacity, disk_dir, peers, cfg),
        }
    }

    /// Look up `key`, consulting memory then disk. `costs` is needed to
    /// reparse a disk artifact's assembly (the key already pins it).
    pub fn lookup(&self, key: CacheKey, costs: &CostModel) -> Option<(Arc<Artifact>, CacheLayer)> {
        let hit = self.probe(key, costs);
        if hit.is_none() {
            self.note_miss();
        }
        hit
    }

    /// [`lookup`](Self::lookup) without recording a miss (hits are still
    /// counted). The engine's singleflight layer probes first and only
    /// charges a miss to the one request that actually compiles, so a
    /// burst of N identical requests reads as 1 miss + N−1 hits/coalesced
    /// rather than N misses. Local tiers only — never the network.
    pub fn probe(&self, key: CacheKey, costs: &CostModel) -> Option<(Arc<Artifact>, CacheLayer)> {
        self.tiers.probe(key, &ArtifactCodec { costs })
    }

    /// [`probe`](Self::probe) restricted to the memory tier: no file, no
    /// decode, no wait. Counts and touches recency as `probe` does on a
    /// hit; a miss leaves no trace.
    pub fn probe_memory(&self, key: CacheKey) -> Option<Arc<Artifact>> {
        self.tiers.probe_memory(key)
    }

    /// Consult the peer tier (if configured) for `key`; a verified hit
    /// is promoted into memory and disk. Called by the singleflight
    /// leader only, so N coalesced cold requests cost at most one peer
    /// round-trip.
    pub fn fetch_remote(&self, key: CacheKey, costs: &CostModel) -> Option<Arc<Artifact>> {
        self.tiers.fetch_remote(key, &ArtifactCodec { costs })
    }

    /// Record one miss. Paired with [`probe`](Self::probe): the
    /// singleflight leader calls this exactly once per coalesced group.
    pub fn note_miss(&self) {
        self.tiers.note_miss();
    }

    /// Insert a freshly compiled artifact into the local tiers.
    pub fn insert(&self, key: CacheKey, artifact: Arc<Artifact>) {
        self.tiers
            .insert(key, artifact, &ArtifactCodec::encode_only());
    }

    /// Serialize a locally cached artifact for `GET /artifact/{key}`:
    /// memory first, else the raw disk file. `None` when this node has
    /// nothing — serving a peer must never trigger a compile, and never
    /// consults *our* peers (no fetch recursion across the fleet).
    pub fn export(&self, key: CacheKey) -> Option<String> {
        self.tiers.export(key, &ArtifactCodec::encode_only())
    }

    /// True when a peer tier is configured.
    pub fn has_peers(&self) -> bool {
        self.tiers.has_peers()
    }

    /// Status of every configured tier, fastest first (for `/healthz`).
    pub fn tier_status(&self) -> Vec<TierStatus> {
        self.tiers.tier_status()
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        self.tiers.stats()
    }

    /// Number of artifacts currently in memory.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True when the memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }
}

/// On-disk artifact: a small line-oriented header followed by the
/// automaton rendering and the reloadable assembly, each length-prefixed
/// by line count.
fn write_disk_artifact(key: CacheKey, artifact: &Artifact) -> String {
    use std::fmt::Write as _;
    let asm = msc_simd::asm::serialize(&artifact.simd);
    let mut out = String::new();
    let _ = writeln!(out, "mscache v1");
    let _ = writeln!(out, "key {}", key.hex());
    let _ = writeln!(out, "meta_states {}", artifact.meta_states);
    let s = &artifact.stats;
    let _ = writeln!(
        out,
        "stats {} {} {} {}",
        s.restarts, s.splits, s.subsumed, s.successor_sets_enumerated
    );
    let t = &artifact.timings;
    let _ = writeln!(
        out,
        "timings_ns {} {} {}",
        t.compile.as_nanos(),
        t.convert.as_nanos(),
        t.codegen.as_nanos()
    );
    match artifact.ret_addr {
        Some(a) => {
            let _ = writeln!(out, "ret {} {}", a.space, a.index);
        }
        None => {
            let _ = writeln!(out, "ret none");
        }
    }
    let _ = writeln!(out, "automaton {}", artifact.automaton_text.lines().count());
    out.push_str(&artifact.automaton_text);
    if !artifact.automaton_text.ends_with('\n') && !artifact.automaton_text.is_empty() {
        out.push('\n');
    }
    let _ = writeln!(out, "asm {}", asm.lines().count());
    out.push_str(&asm);
    out
}

/// Parse an artifact from interchange text; any malformation yields
/// `None` (treated as a miss — the artifact is simply rebuilt).
fn read_disk_artifact(text: &str, costs: &CostModel) -> Option<Artifact> {
    let mut lines = text.lines();
    if lines.next()? != "mscache v1" {
        return None;
    }
    let _key = lines.next()?.strip_prefix("key ")?;
    let meta_states: usize = lines.next()?.strip_prefix("meta_states ")?.parse().ok()?;
    let stats_line = lines.next()?.strip_prefix("stats ")?;
    let mut it = stats_line.split_whitespace();
    let stats = ConvertStats {
        restarts: it.next()?.parse().ok()?,
        splits: it.next()?.parse().ok()?,
        subsumed: it.next()?.parse().ok()?,
        successor_sets_enumerated: it.next()?.parse().ok()?,
    };
    let timings_line = lines.next()?.strip_prefix("timings_ns ")?;
    let mut it = timings_line.split_whitespace();
    let mut dur =
        || -> Option<Duration> { it.next()?.parse::<u64>().ok().map(Duration::from_nanos) };
    let timings = PhaseTimings {
        compile: dur()?,
        convert: dur()?,
        codegen: dur()?,
    };
    let ret_line = lines.next()?.strip_prefix("ret ")?;
    let ret_addr = match ret_line {
        "none" => None,
        other => {
            let mut it = other.split_whitespace();
            let space = it.next()?;
            let index: u32 = it.next()?.parse().ok()?;
            Some(match space {
                "poly" => Addr::poly(index),
                "mono" => Addr::mono(index),
                _ => return None,
            })
        }
    };
    let n_auto: usize = lines.next()?.strip_prefix("automaton ")?.parse().ok()?;
    let mut automaton_text = String::new();
    for _ in 0..n_auto {
        automaton_text.push_str(lines.next()?);
        automaton_text.push('\n');
    }
    let n_asm: usize = lines.next()?.strip_prefix("asm ")?.parse().ok()?;
    let mut asm = String::new();
    for _ in 0..n_asm {
        asm.push_str(lines.next()?);
        asm.push('\n');
    }
    let simd = msc_simd::asm::parse(&asm, costs.clone()).ok()?;
    Some(Artifact {
        simd,
        stats,
        meta_states,
        timings,
        ret_addr,
        automaton_text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msc_codegen::GenOptions;
    use msc_core::ConvertOptions;
    use std::path::Path;

    fn opts() -> (ConvertOptions, GenOptions) {
        (ConvertOptions::base(), GenOptions::default())
    }

    fn disk_path(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join(format!("{}.mscache", key.hex()))
    }

    pub(crate) fn dummy_artifact(tag: usize) -> Arc<Artifact> {
        // A real (tiny) artifact, so the disk round-trip exercises the
        // actual assembly serializer.
        let program =
            msc_lang::compile("main() { poly int x; x = pe_id(); return(x); }").expect("compiles");
        let (automaton, stats) =
            msc_core::convert_with_stats(&program.graph, &ConvertOptions::base()).unwrap();
        let simd = msc_codegen::generate(
            &automaton,
            program.layout.poly_words,
            program.layout.mono_words,
            &GenOptions::default(),
        )
        .unwrap();
        Arc::new(Artifact {
            automaton_text: automaton.text(),
            meta_states: automaton.len() + tag, // tag distinguishes entries
            stats,
            timings: PhaseTimings::default(),
            ret_addr: program.layout.main_ret,
            simd,
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (c, g) = opts();
        let cache = CompileCache::new(2, None);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| cache_key(&format!("src{i}"), &c, &g, false, false))
            .collect();
        cache.insert(keys[0], dummy_artifact(0));
        cache.insert(keys[1], dummy_artifact(1));
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.lookup(keys[0], &c.costs).is_some());
        cache.insert(keys[2], dummy_artifact(2));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(keys[0], &c.costs).is_some());
        assert!(cache.lookup(keys[1], &c.costs).is_none());
        assert!(cache.lookup(keys[2], &c.costs).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn disk_layer_round_trips() {
        let (c, g) = opts();
        let dir =
            std::env::temp_dir().join(format!("msc-engine-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = cache_key("disk", &c, &g, false, false);
        let art = dummy_artifact(0);
        {
            let cache = CompileCache::new(4, Some(dir.clone()));
            cache.insert(key, Arc::clone(&art));
        }
        // A fresh cache (cold memory) must reload from disk.
        let cache = CompileCache::new(4, Some(dir.clone()));
        let (reloaded, layer) = cache.lookup(key, &c.costs).expect("disk hit");
        assert_eq!(layer, CacheLayer::Disk);
        assert_eq!(reloaded.meta_states, art.meta_states);
        assert_eq!(reloaded.automaton_text, art.automaton_text);
        assert_eq!(reloaded.ret_addr, art.ret_addr);
        assert_eq!(
            msc_simd::asm::serialize(&reloaded.simd),
            msc_simd::asm::serialize(&art.simd),
            "assembly round-trips exactly"
        );
        // Second lookup is served from memory (promotion happened).
        let (_, layer) = cache.lookup(key, &c.costs).expect("memory hit");
        assert_eq!(layer, CacheLayer::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_artifact_degrades_to_miss() {
        // A real artifact cut off mid-file (torn write, full disk, manual
        // meddling) must read back as a miss, never a panic.
        let (c, g) = opts();
        let dir =
            std::env::temp_dir().join(format!("msc-engine-cache-truncated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = cache_key("truncated", &c, &g, false, false);
        {
            let cache = CompileCache::new(4, Some(dir.clone()));
            cache.insert(key, dummy_artifact(0));
        }
        let path = disk_path(&dir, key);
        let full = std::fs::read(&path).unwrap();
        // Probe representative cuts that each lose real content: inside
        // the header, and mid automaton/asm. (Cutting only the final
        // newline loses nothing and may legitimately still parse.)
        for cut in [1, 16, full.len() / 3, full.len() / 2, full.len() * 3 / 4] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let cache = CompileCache::new(4, Some(dir.clone()));
            assert!(
                cache.lookup(key, &c.costs).is_none(),
                "truncation at {cut}/{} bytes must be a miss",
                full.len()
            );
            assert_eq!(cache.stats().misses, 1);
        }
        // Arbitrary garbage bytes (not even UTF-8) likewise.
        std::fs::write(&path, [0xff, 0x00, 0xfe, 0x80, 0x80]).unwrap();
        let cache = CompileCache::new(4, Some(dir.clone()));
        assert!(cache.lookup(key, &c.costs).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_artifact_degrades_to_miss() {
        let (c, g) = opts();
        let dir =
            std::env::temp_dir().join(format!("msc-engine-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = cache_key("corrupt", &c, &g, false, false);
        std::fs::write(
            dir.join(format!("{}.mscache", key.hex())),
            "not an artifact",
        )
        .unwrap();
        let cache = CompileCache::new(4, Some(dir.clone()));
        assert!(cache.lookup(key, &c.costs).is_none());
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_accounting_invariant_across_probe_note_miss_split() {
        // Every *resolved* lookup — a `lookup` call, or a `probe`
        // settled by either a hit or a paired `note_miss` — lands in
        // exactly one bucket, so the buckets must always sum back to
        // the number of resolved lookups. This pins the probe/note_miss
        // split the singleflight layer leans on: the leader probes,
        // fetches remotely, then charges the one miss itself.
        let (c, g) = opts();
        let dir =
            std::env::temp_dir().join(format!("msc-engine-cache-invariant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CompileCache::new(2, Some(dir.clone()));
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| cache_key(&format!("inv{i}"), &c, &g, false, false))
            .collect();
        let mut resolved = 0u64;

        // Cold lookups (memory+disk miss).
        for &k in &keys {
            assert!(cache.lookup(k, &c.costs).is_none());
            resolved += 1;
        }
        // The singleflight shape: probe (miss), then note_miss once for
        // the whole coalesced group, then insert.
        for (i, &k) in keys.iter().enumerate() {
            assert!(cache.probe(k, &c.costs).is_none());
            cache.note_miss();
            resolved += 1;
            cache.insert(k, dummy_artifact(i));
        }
        // Warm probes, each key twice: the first resolves from memory
        // or disk (cycling the capacity-2 LRU), the immediate repeat is
        // always a memory hit on the just-promoted entry — hits are
        // counted by probe itself, no note_miss.
        for &k in &keys {
            for _ in 0..2 {
                assert!(cache.probe(k, &c.costs).is_some());
                resolved += 1;
            }
        }
        // Followers that probed and hit after the leader published do
        // not call note_miss; leaders that missed do. Interleave a few
        // more rounds to shake the split.
        for round in 0..3 {
            for &k in &keys {
                match cache.probe(k, &c.costs) {
                    Some(_) => {}
                    None => cache.note_miss(),
                }
                resolved += 1;
            }
            let fresh = cache_key(&format!("inv-fresh-{round}"), &c, &g, false, false);
            assert!(cache.lookup(fresh, &c.costs).is_none());
            resolved += 1;
        }

        let s = cache.stats();
        assert_eq!(
            s.hits + s.disk_hits + s.peer_hits + s.misses,
            resolved,
            "every resolved lookup lands in exactly one stats bucket: {s:?}"
        );
        assert!(s.hits > 0 && s.disk_hits > 0 && s.misses > 0, "{s:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_disk_insert_evict_never_surfaces_partial_artifact() {
        // Two writers hammer the same keys through the temp+rename path
        // while a reader (cold memory every time: capacity 1 with two
        // keys means constant eviction) reloads from disk. Atomic
        // rename means every read parses completely — a torn write
        // would surface as a spurious miss or a half-written automaton.
        let (c, g) = opts();
        let dir = std::env::temp_dir().join(format!(
            "msc-engine-cache-concurrent-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let keys = [
            cache_key("conc0", &c, &g, false, false),
            cache_key("conc1", &c, &g, false, false),
        ];
        let artifacts = [dummy_artifact(0), dummy_artifact(1)];
        let expected_meta: Vec<usize> = artifacts.iter().map(|a| a.meta_states).collect();
        let expected_text = artifacts[0].automaton_text.clone();
        let cache = Arc::new(CompileCache::new(1, Some(dir.clone())));
        // Seed both keys so the reader never races a not-yet-written file.
        cache.insert(keys[0], Arc::clone(&artifacts[0]));
        cache.insert(keys[1], Arc::clone(&artifacts[1]));

        std::thread::scope(|scope| {
            for w in 0..2 {
                let cache = Arc::clone(&cache);
                let artifacts = artifacts.clone();
                scope.spawn(move || {
                    for i in 0..150 {
                        // Both writers alternate over both keys, offset
                        // by one so they collide on the same key often.
                        let which = (i + w) % 2;
                        cache.insert(keys[which], Arc::clone(&artifacts[which]));
                    }
                });
            }
            let cache = Arc::clone(&cache);
            let costs = c.costs.clone();
            scope.spawn(move || {
                for i in 0..300 {
                    let which = i % 2;
                    let (artifact, _) = cache
                        .lookup(keys[which], &costs)
                        .expect("concurrent rewrite must never read as a miss");
                    assert_eq!(
                        artifact.meta_states, expected_meta[which],
                        "complete artifact, never a blend"
                    );
                    if which == 0 {
                        assert_eq!(artifact.automaton_text, expected_text);
                    }
                }
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
