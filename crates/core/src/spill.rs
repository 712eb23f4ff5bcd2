//! Out-of-core storage for the interned meta-state sets.
//!
//! The [`SetArena`](crate::SetArena) word stream — every interned set's
//! member words, end to end — is append-only, which is the easy case for
//! external memory: spill a cold *prefix* to a temp file, keep the hot
//! suffix resident, and reload on demand with explicit reads — no mmap,
//! no unsafe, std only.
//!
//! * `SegmentStore` — an append-only temp file of `u64` words with
//!   positioned reads. Created lazily on first eviction, deleted on drop.
//!   Word offsets are *stable*: logical word `i` of the stream always
//!   lands at byte `8·i`, because evictions always spill a contiguous
//!   prefix in order.
//! * `ColdWords` — the arena's spilled prefix: its store and a
//!   set-associative cache of 4-word blocks aligned to those offsets.
//!   An intern that finds a known set compares against it, and most known
//!   sets are cold and hit again and again, so every arena read of a
//!   spilled span goes through the cache, and a run of missed blocks is
//!   one positioned read.
//!
//! **What the budget bounds.** The arena's word stream alone: its
//! resident suffix, block cache and reload buffers together stay within
//! the budget after every call (the arena splits it;
//! `SetArena::resident_bytes`). Everything else a conversion holds is
//! O(meta states), resident whatever the budget and capped by
//! `max_meta_states`: at least 93 bytes a meta state — the arena's count
//! and span (4 + 16) and hash-index slots (≥ 32), the converter's latent
//! set (32), successor span (8) and worklist flag (1) — beside 4 bytes
//! per stored successor edge and per queued id, the expansion owners'
//! keys and the finished automaton's sets.
//!
//! **Recovery semantics:** spill files are private to one conversion and
//! carry no cross-run state — a crash leaves at worst an orphaned
//! `msc-spill-*` file in the temp dir (best-effort deleted on drop). Any
//! I/O error while spilling disables further spilling and keeps data
//! resident, so running out of disk degrades to the old all-in-RAM
//! behaviour instead of corrupting the conversion; an I/O error while
//! *reloading* already-spilled words panics, since the data exists nowhere
//! else (this mirrors what an allocation failure would have done in-RAM).
//!
//! The budget that triggers spilling comes from
//! [`ConvertOptions::memory_budget`](crate::ConvertOptions) or, by
//! default, the `MSC_MEMORY_BUDGET` environment variable (bytes, with
//! optional `k`/`m`/`g` suffix) — which is how CI runs the whole tier-1
//! suite with a tiny budget to exercise this path end to end.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Parse a byte count: a number, then at most one of `k`/`m`/`g`, then
/// an optional `b`, in any case: `"65536"`, `"64k"`, `"8M"`, `"1gb"`.
/// Stacked suffixes (`"1kgb"`, `"1kk"`, `"1bk"`) are not a count.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let t = t.strip_suffix('b').unwrap_or(&t);
    let (digits, shift) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 10),
        Some(b'm') => (&t[..t.len() - 1], 20),
        Some(b'g') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let n: usize = digits.parse().ok()?;
    n.checked_mul(1 << shift)
}

/// `MSC_MEMORY_BUDGET` as it reads now: `Ok(None)` when unset, the count
/// when [`parse_bytes`] takes it, and an error naming the variable when
/// it is set to anything else.
pub fn env_memory_budget() -> Result<Option<usize>, String> {
    match std::env::var("MSC_MEMORY_BUDGET") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) => parse_bytes(&v)
            .map(Some)
            .ok_or_else(|| format!("bad MSC_MEMORY_BUDGET `{v}` (try 64m, 2g, 65536)")),
        Err(e) => Err(format!("bad MSC_MEMORY_BUDGET: {e}")),
    }
}

/// The process-wide default memory budget: [`env_memory_budget`], read
/// once. A value that is not a byte count reads as no budget here — a
/// default cannot fail — so a caller that must not run with it checks
/// [`env_memory_budget`] first, as `mscc` does: it refuses such a value
/// with that error before it runs any command.
pub fn default_memory_budget() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| env_memory_budget().ok().flatten())
}

/// An append-only temp file of `u64` words with positioned reads.
pub(crate) struct SegmentStore {
    file: File,
    path: PathBuf,
    bytes: u64,
    /// Reusable read staging buffer (little-endian bytes → words).
    buf: Vec<u8>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl SegmentStore {
    /// Create a fresh store as `msc-spill-<pid>-<n>-<tag>.seg` in the
    /// system temp dir. The file is deleted when the store is dropped.
    fn create(tag: &str) -> std::io::Result<SegmentStore> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "msc-spill-{}-{}-{}.seg",
            std::process::id(),
            n,
            tag
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(SegmentStore {
            file,
            path,
            bytes: 0,
            buf: Vec::new(),
        })
    }

    /// Bytes appended so far.
    fn len(&self) -> u64 {
        self.bytes
    }

    /// Append `words` at the end, at byte offset `len()`.
    /// The words are encoded through a fixed stack chunk: the store's heap
    /// buffer stages reads alone, so a spill leaves no copy of what it
    /// wrote resident.
    fn append_words(&mut self, words: &[u64]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(self.bytes))?;
        let mut chunk = [0u8; 4096];
        for part in words.chunks(chunk.len() / 8) {
            for (bytes, w) in chunk.chunks_exact_mut(8).zip(part) {
                bytes.copy_from_slice(&w.to_le_bytes());
            }
            self.file.write_all(&chunk[..part.len() * 8])?;
        }
        self.bytes += words.len() as u64 * 8;
        Ok(())
    }

    /// Read `out.len()` words starting at `byte_off`: one positioned read
    /// where the platform has one — a conversion under a budget makes one
    /// per run of cache blocks it misses — and a seek + read pair
    /// elsewhere.
    fn read_words(&mut self, byte_off: u64, out: &mut [u64]) -> std::io::Result<()> {
        self.buf.clear();
        self.buf.resize(out.len() * 8, 0);
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&self.file, &mut self.buf, byte_off)?;
        #[cfg(not(unix))]
        {
            use std::io::Read;
            self.file.seek(SeekFrom::Start(byte_off))?;
            self.file.read_exact(&mut self.buf)?;
        }
        for (i, w) in out.iter_mut().enumerate() {
            *w = u64::from_le_bytes(self.buf[i * 8..i * 8 + 8].try_into().unwrap());
        }
        Ok(())
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Words per [`ColdWords`] cache block: block `k` is words `BLOCK·k ..`
/// of the stream, at bytes `8·BLOCK·k ..` of its file.
const BLOCK: usize = 4;
/// Blocks per cache set.
const WAYS: usize = 8;
/// Cache bytes one block costs: its words and its tag.
const LINE_BYTES: usize = 8 * (BLOCK + 1);

/// A set-associative cache of whole spilled blocks, least recently used
/// out, new blocks in at the middle of their set. Spilled words never
/// change, so nothing in it is ever stale.
#[derive(Debug)]
struct BlockCache {
    /// `WAYS` tags per set, most recently used first: block number + 1,
    /// 0 for an empty way, so a fresh cache is zeroed memory that is not
    /// resident until a set is first filled.
    tags: Vec<u64>,
    /// `BLOCK` words per tag, in tag order.
    data: Vec<u64>,
}

impl BlockCache {
    /// As many whole sets as fit in `bytes`; none below one set's worth.
    fn with_bytes(bytes: usize) -> BlockCache {
        let ways = bytes / (LINE_BYTES * WAYS) * WAYS;
        BlockCache {
            tags: vec![0; ways],
            data: vec![0; ways * BLOCK],
        }
    }

    fn bytes(&self) -> usize {
        8 * (self.tags.len() + self.data.len())
    }

    /// The first way of `block`'s set, or `None` for a cache of no sets.
    /// The set count is whatever the budget left room for, so the block
    /// number is scrambled by a multiply and scaled into range by the high
    /// half of a second one, not divided: a 64-bit `%` costs more than the
    /// rest of a hit.
    fn set_of(&self, block: u64) -> Option<usize> {
        let sets = (self.tags.len() / WAYS) as u128;
        let mixed = block.wrapping_mul(0x9e37_79b9_7f4a_7c15) as u128;
        (sets > 0).then(|| ((mixed * sets) >> 64) as usize * WAYS)
    }

    /// `(first way of its set, its way)` when `block` is cached.
    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let at = self.set_of(block)?;
        let way = self.tags[at..at + WAYS]
            .iter()
            .position(|&t| t == block + 1)?;
        Some((at, way))
    }

    /// Copy `block` into `out` and make it its set's most recent: false
    /// when it is not cached.
    fn get(&mut self, block: u64, out: &mut [u64]) -> bool {
        let Some((at, way)) = self.find(block) else {
            return false;
        };
        self.tags[at..=at + way].rotate_right(1);
        self.data[at * BLOCK..(at + way + 1) * BLOCK].rotate_right(BLOCK);
        out.copy_from_slice(&self.data[at * BLOCK..][..BLOCK]);
        true
    }

    /// File `words` as `block`, in place of its set's least recent. It
    /// enters at the middle of the set, not at the front: a block read
    /// once and never again is out after `WAYS / 2` misses, and only one
    /// hit moves it to where the hot blocks stay.
    fn insert(&mut self, block: u64, words: &[u64]) {
        let Some(set) = self.set_of(block) else {
            return;
        };
        let at = set + WAYS / 2;
        self.tags[at..set + WAYS].rotate_right(1);
        self.data[at * BLOCK..(set + WAYS) * BLOCK].rotate_right(BLOCK);
        self.tags[at] = block + 1;
        self.data[at * BLOCK..][..BLOCK].copy_from_slice(words);
    }
}

/// The spilled prefix of a word stream: its [`SegmentStore`], and the
/// block cache every read of it goes through.
///
/// A read covers the blocks its words lie in. Cached blocks are copied
/// out; each run of consecutive blocks that are not is filled with one
/// positioned read, and every block of the run that lies wholly on disk
/// is cached. The last spilled block may lie partly past the store's end,
/// where the stream is still resident: it is read up to that end and not
/// cached, and the words asked for never reach past it.
///
/// It counts its positioned reads (`engine.spill_reload`) and the blocks
/// the cache served (`engine.spill_cache_hit`) as it goes and reports
/// both once, when dropped: a million cache hits are not a million events
/// for a subscriber to take.
#[derive(Debug)]
pub(crate) struct ColdWords {
    store: SegmentStore,
    cache: BlockCache,
    /// Staging for the blocks of one read, handed out as a slice of it.
    buf: Vec<u64>,
    reloads: u64,
    hits: u64,
}

impl ColdWords {
    /// An empty spilled prefix in a fresh `msc-spill-*-<tag>.seg` file,
    /// with a cache of at most `cache_bytes`.
    pub(crate) fn create(tag: &str, cache_bytes: usize) -> std::io::Result<ColdWords> {
        Ok(ColdWords {
            store: SegmentStore::create(tag)?,
            cache: BlockCache::with_bytes(cache_bytes),
            buf: Vec::new(),
            reloads: 0,
            hits: 0,
        })
    }

    /// Words spilled so far.
    pub(crate) fn len(&self) -> u64 {
        self.store.len() / 8
    }

    /// Spill the next `words` of the stream.
    pub(crate) fn append(&mut self, words: &[u64]) -> std::io::Result<()> {
        self.store.append_words(words)
    }

    /// Words `off .. off + n` of the stream, all of them spilled.
    pub(crate) fn read(&mut self, off: u64, n: usize) -> &[u64] {
        let end = off + n as u64;
        debug_assert!(n > 0 && end <= self.len(), "a read of spilled words");
        let block = BLOCK as u64;
        let first = off / block;
        let blocks = (end.div_ceil(block) - first) as usize;
        let spilled = self.len();
        self.buf.clear();
        self.buf.resize(blocks * BLOCK, 0);
        let mut i = 0;
        while i < blocks {
            if self
                .cache
                .get(first + i as u64, &mut self.buf[i * BLOCK..][..BLOCK])
            {
                self.hits += 1;
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < blocks && self.cache.find(first + j as u64).is_none() {
                j += 1;
            }
            let lo = (first + i as u64) * block;
            let hi = ((first + j as u64) * block).min(spilled);
            self.store
                .read_words(lo * 8, &mut self.buf[i * BLOCK..][..(hi - lo) as usize])
                .expect("spilled meta-state words must be readable");
            for k in i..j {
                if (first + k as u64 + 1) * block <= spilled {
                    self.cache
                        .insert(first + k as u64, &self.buf[k * BLOCK..][..BLOCK]);
                }
            }
            self.reloads += 1;
            i = j;
        }
        &self.buf[(off - first * block) as usize..][..n]
    }

    /// Bytes of the block cache.
    pub(crate) fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Bytes held by the two read buffers: the words and the store's bytes.
    pub(crate) fn buffer_bytes(&self) -> usize {
        8 * self.buf.capacity() + self.store.buf.capacity()
    }

    /// Free both read buffers.
    pub(crate) fn release_buffers(&mut self) {
        self.buf = Vec::new();
        self.store.buf = Vec::new();
    }
}

impl Drop for ColdWords {
    fn drop(&mut self) {
        if self.reloads > 0 {
            msc_obs::count("engine.spill_reload", self.reloads);
        }
        if self.hits > 0 {
            msc_obs::count("engine.spill_cache_hit", self.hits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_understands_suffixes() {
        assert_eq!(parse_bytes("65536"), Some(65536));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("64KB"), Some(64 << 10));
        assert_eq!(parse_bytes(" 8M "), Some(8 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes("2gb"), Some(2 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
        assert_eq!(parse_bytes("12q"), None);
        assert_eq!(parse_bytes("-1"), None);
        assert_eq!(parse_bytes("64b"), Some(64));
        assert_eq!(parse_bytes("b"), None);
        // At most one of k/m/g, and `b` only last.
        for stacked in ["1kgb", "2mkb", "1bk", "1kk", "1gk", "1kbb", "1KGB"] {
            assert_eq!(parse_bytes(stacked), None, "{stacked}");
        }
    }

    #[test]
    fn a_set_memory_budget_variable_is_a_byte_count() {
        // `default_memory_budget` reads a value `parse_bytes` rejects as no
        // budget at all, so a typo in a run under `MSC_MEMORY_BUDGET` (CI's
        // spill leg) would quietly convert everything in RAM.
        if let Err(e) = env_memory_budget() {
            panic!("{e}");
        }
    }

    #[test]
    fn segment_store_roundtrips_words() {
        let mut s = SegmentStore::create("test").unwrap();
        s.append_words(&[1, 2, 3]).unwrap();
        assert_eq!(s.len(), 24);
        s.append_words(&[u64::MAX, 0x0123_4567_89ab_cdef]).unwrap();
        assert_eq!(s.len(), 40);
        let mut out = [0u64; 2];
        s.read_words(24, &mut out).unwrap();
        assert_eq!(out, [u64::MAX, 0x0123_4567_89ab_cdef]);
        let mut out = [0u64; 3];
        s.read_words(0, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn segment_store_file_is_removed_on_drop() {
        let s = SegmentStore::create("droptest").unwrap();
        let path = s.path.clone();
        assert!(path.exists());
        drop(s);
        assert!(!path.exists());
    }

    /// A spilled prefix of `n` words, word `i` being `i·7 + 1`.
    fn cold(n: u64, cache_bytes: usize) -> ColdWords {
        let mut c = ColdWords::create("coldtest", cache_bytes).unwrap();
        let words: Vec<u64> = (0..n).map(|i| i * 7 + 1).collect();
        c.append(&words).unwrap();
        c
    }

    #[test]
    fn cold_words_read_every_span_at_any_cache_size() {
        // No cache, below one set, one set (a quarter of the words), and
        // more sets than the stream has blocks. Spans start anywhere in a
        // block and cross up to three block boundaries; the last block is
        // partly past the store's end.
        for cache_bytes in [0, LINE_BYTES * WAYS - 1, LINE_BYTES * WAYS, 64 << 10] {
            let mut c = cold(127, cache_bytes);
            for round in 0..2 {
                for off in 0..127u64 {
                    for n in 1..=(127 - off).min(13) as usize {
                        let want: Vec<u64> = (off..off + n as u64).map(|i| i * 7 + 1).collect();
                        assert_eq!(c.read(off, n), want, "{cache_bytes} {round} {off}+{n}");
                    }
                }
            }
            assert!(
                c.cache.find(127 / BLOCK as u64).is_none(),
                "a partial block"
            );
        }
    }

    #[test]
    fn a_cached_block_is_not_read_again() {
        let mut c = cold(64, 64 << 10);
        assert_eq!(c.read(5, 6), [36, 43, 50, 57, 64, 71]);
        // With the file emptied, only the cache can answer.
        c.store.file.set_len(0).unwrap();
        assert_eq!(c.read(4, 8), [29, 36, 43, 50, 57, 64, 71, 78]);
        assert_eq!(c.read(9, 1), [64]);
    }

    #[test]
    fn a_span_wider_than_the_cache_reads_whole() {
        // One set of `WAYS` blocks, and a span four times that: its blocks
        // evict one another on the way in, and every word still arrives.
        let mut c = cold(200, LINE_BYTES * WAYS);
        let wide = 4 * WAYS * BLOCK;
        let want: Vec<u64> = (3..3 + wide as u64).map(|i| i * 7 + 1).collect();
        assert_eq!(c.read(3, wide), want);
        assert_eq!(c.read(3, wide), want);
        assert_eq!(
            c.read(190, 10),
            (190..200).map(|i| i * 7 + 1).collect::<Vec<_>>()
        );
        assert!(
            c.buffer_bytes() >= 8 * wide,
            "the wide read's buffers are still held"
        );
        c.release_buffers();
        assert_eq!((c.buffer_bytes(), c.read(0, 1)), (0, &[1][..]));
    }

    #[test]
    fn a_block_hit_once_outlives_blocks_read_once() {
        let mut cache = BlockCache::with_bytes(LINE_BYTES * WAYS);
        let mut out = [0u64; BLOCK];
        cache.insert(0, &[1; BLOCK]);
        assert!(cache.get(0, &mut out));
        // A scan of blocks read once cycles through the older half only.
        for block in 1..100 {
            cache.insert(block, &[block; BLOCK]);
            assert!(cache.find(0).is_some(), "evicted by block {block}");
        }
        assert!(cache.get(0, &mut out) && out == [1; BLOCK]);
        assert!(cache.find(99).is_some() && cache.find(1).is_none());
    }
}
