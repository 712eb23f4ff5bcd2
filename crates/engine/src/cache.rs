//! The artifact's cache format, `mscache v1`: a small line-oriented
//! header (key, meta-state count, conversion stats, phase timings,
//! return slot) followed by the automaton rendering and the reloadable
//! assembly (`msc_simd::asm`), each prefixed by its line count. The
//! tiers themselves are `msc_cache::TieredCache<Artifact>`, which is
//! [`CompileCache`](crate::CompileCache).

use crate::{Artifact, PhaseTimings};
use msc_cache::{CacheKey, Cacheable};
use msc_core::ConvertStats;
use msc_ir::{Addr, CostModel};
use std::time::Duration;

/// The first line of every encoding: a file without it is a miss.
const MAGIC: &str = "mscache v1";

impl Cacheable for Artifact {
    /// Decoding reparses the assembly, which needs the request's cost
    /// model.
    type Context = CostModel;

    fn encode(&self, key: CacheKey) -> String {
        use std::fmt::Write as _;
        let asm = msc_simd::asm::serialize(&self.simd);
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "key {}", key.hex());
        let _ = writeln!(out, "meta_states {}", self.meta_states);
        let s = &self.stats;
        let _ = writeln!(
            out,
            "stats {} {} {} {}",
            s.restarts, s.splits, s.subsumed, s.successor_sets_enumerated
        );
        let t = &self.timings;
        let _ = writeln!(
            out,
            "timings_ns {} {} {}",
            t.compile.as_nanos(),
            t.convert.as_nanos(),
            t.codegen.as_nanos()
        );
        match self.ret_addr {
            Some(a) => {
                let _ = writeln!(out, "ret {} {}", a.space, a.index);
            }
            None => {
                let _ = writeln!(out, "ret none");
            }
        }
        let _ = writeln!(out, "automaton {}", self.automaton_text.lines().count());
        out.push_str(&self.automaton_text);
        if !self.automaton_text.ends_with('\n') && !self.automaton_text.is_empty() {
            out.push('\n');
        }
        let _ = writeln!(out, "asm {}", asm.lines().count());
        out.push_str(&asm);
        out
    }

    fn decode(text: &str, costs: &CostModel) -> Option<Artifact> {
        let mut lines = text.lines();
        if lines.next()? != MAGIC {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cache_key, CacheLayer, CompileCache};
    use msc_codegen::GenOptions;
    use msc_core::ConvertOptions;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn opts() -> (ConvertOptions, GenOptions) {
        (ConvertOptions::base(), GenOptions::default())
    }

    /// A probe that charges a miss itself when nothing answers, as the
    /// singleflight leader does for its group.
    fn lookup(
        cache: &CompileCache,
        key: CacheKey,
        costs: &CostModel,
    ) -> Option<(Arc<Artifact>, CacheLayer)> {
        let hit = cache.probe(key, costs);
        if hit.is_none() {
            cache.note_miss();
        }
        hit
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
        assert!(lookup(&cache, keys[0], &c.costs).is_some());
        cache.insert(keys[2], dummy_artifact(2));
        assert_eq!(cache.len(), 2);
        assert!(lookup(&cache, keys[0], &c.costs).is_some());
        assert!(lookup(&cache, keys[1], &c.costs).is_none());
        assert!(lookup(&cache, keys[2], &c.costs).is_some());
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
        let (reloaded, layer) = lookup(&cache, key, &c.costs).expect("disk hit");
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
        let (_, layer) = lookup(&cache, key, &c.costs).expect("memory hit");
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
                lookup(&cache, key, &c.costs).is_none(),
                "truncation at {cut}/{} bytes must be a miss",
                full.len()
            );
            assert_eq!(cache.stats().misses, 1);
        }
        // Arbitrary garbage bytes (not even UTF-8) likewise.
        std::fs::write(&path, [0xff, 0x00, 0xfe, 0x80, 0x80]).unwrap();
        let cache = CompileCache::new(4, Some(dir.clone()));
        assert!(lookup(&cache, key, &c.costs).is_none());
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
        assert!(lookup(&cache, key, &c.costs).is_none());
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
            assert!(lookup(&cache, k, &c.costs).is_none());
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
            assert!(lookup(&cache, fresh, &c.costs).is_none());
            resolved += 1;
        }

        let s = cache.stats();
        assert_eq!(
            s.hits + s.disk_hits + s.misses,
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
                    let (artifact, _) = lookup(&cache, keys[which], &costs)
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
