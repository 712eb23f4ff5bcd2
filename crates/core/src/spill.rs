//! Out-of-core storage for the 3ⁿ frontier.
//!
//! Subset construction's memory is dominated by two append-mostly
//! streams: the interned meta-state sets (the [`SetArena`](crate::SetArena)
//! word stream) and the BFS worklist. Both are written once and read back
//! roughly in order, which is the easy case for external memory: spill a
//! cold *prefix* to a temp-file segment store, keep the hot suffix
//! resident, and reload segments on demand with explicit reads — no mmap,
//! no unsafe, std only.
//!
//! * [`SegmentStore`] — an append-only temp file of `u64` words with
//!   positioned reads. Created lazily on first eviction, deleted on drop.
//!   Word offsets are *stable*: logical word `i` of the stream always
//!   lands at byte `8·i`, because evictions always spill a contiguous
//!   prefix in order.
//! * [`SpillQueue`] — a FIFO of `u32` ids whose middle section lives in
//!   chunked segments on disk: a resident front (oldest), spilled chunks,
//!   and a resident back (newest). Pop order is exactly the push order at
//!   any spill threshold.
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

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Parse a byte count with an optional `k`/`m`/`g` (or `kb`/`mb`/`gb`,
/// any case) suffix: `"65536"`, `"64k"`, `"8M"`, `"1gb"`.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.trim_end_matches(['k', 'm', 'g', 'b']) {
        d if t.ends_with('k') || t.ends_with("kb") => (d, 1usize << 10),
        d if t.ends_with('m') || t.ends_with("mb") => (d, 1 << 20),
        d if t.ends_with('g') || t.ends_with("gb") => (d, 1 << 30),
        d if d.len() == t.len() => (d, 1),
        _ => return None, // a bare "b" suffix or similar
    };
    let n: usize = digits.parse().ok()?;
    n.checked_mul(mult)
}

/// The process-wide default memory budget: `MSC_MEMORY_BUDGET` parsed once
/// via [`parse_bytes`], `None` when unset or unparsable.
pub fn default_memory_budget() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("MSC_MEMORY_BUDGET")
            .ok()
            .and_then(|v| parse_bytes(&v))
    })
}

/// An append-only temp file of `u64` words with positioned reads.
pub struct SegmentStore {
    file: File,
    path: PathBuf,
    bytes: u64,
    /// Reusable I/O staging buffer (words ↔ little-endian bytes).
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
    pub fn create(tag: &str) -> std::io::Result<SegmentStore> {
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
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Append `words` at the end, returning the byte offset they start at.
    pub fn append_words(&mut self, words: &[u64]) -> std::io::Result<u64> {
        let off = self.bytes;
        self.buf.clear();
        self.buf.reserve(words.len() * 8);
        for &w in words {
            self.buf.extend_from_slice(&w.to_le_bytes());
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&self.buf)?;
        self.bytes += self.buf.len() as u64;
        Ok(off)
    }

    /// Read `out.len()` words starting at `byte_off`: one positioned read
    /// where the platform has one — a conversion under a budget reloads a
    /// cold set per arena probe — and a seek + read pair elsewhere.
    pub fn read_words(&mut self, byte_off: u64, out: &mut [u64]) -> std::io::Result<()> {
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

/// Entries per spilled [`SpillQueue`] chunk (32 KiB of ids).
const QUEUE_CHUNK: usize = 8192;

/// A FIFO of `u32` ids whose cold middle lives on disk.
///
/// Layout (oldest → newest): `front` (resident) → `chunks` (on disk, in
/// order) → `back` (resident). With spilling disabled it degenerates to a
/// plain `VecDeque`.
#[derive(Debug)]
pub struct SpillQueue {
    front: VecDeque<u32>,
    back: Vec<u32>,
    /// `(byte offset, entry count)` per spilled chunk, oldest first.
    chunks: VecDeque<(u64, u32)>,
    store: Option<SegmentStore>,
    spill: bool,
    chunk_entries: usize,
    len: usize,
}

impl SpillQueue {
    /// A queue that spills once its resident tail reaches the default
    /// chunk size (when `spill` is true) or never does (false).
    pub fn new(spill: bool) -> SpillQueue {
        SpillQueue::with_chunk(spill, QUEUE_CHUNK)
    }

    /// [`SpillQueue::new`] with an explicit chunk size (tests).
    pub fn with_chunk(spill: bool, chunk_entries: usize) -> SpillQueue {
        SpillQueue {
            front: VecDeque::new(),
            back: Vec::new(),
            chunks: VecDeque::new(),
            store: None,
            spill,
            chunk_entries: chunk_entries.max(2),
            len: 0,
        }
    }

    /// Number of queued entries (resident + spilled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue at the tail.
    pub fn push_back(&mut self, v: u32) {
        self.len += 1;
        // Straight to the front only while nothing older waits behind it:
        // a failed flush turns `spill` off with ids still in `back` (and
        // earlier chunks on disk), and those must pop first.
        if !self.spill && self.back.is_empty() && self.chunks.is_empty() {
            self.front.push_back(v);
            return;
        }
        self.back.push(v);
        if self.spill && self.back.len() >= self.chunk_entries {
            self.flush_back();
        }
    }

    /// Dequeue from the head (FIFO).
    pub fn pop_front(&mut self) -> Option<u32> {
        if self.front.is_empty() {
            if let Some((off, count)) = self.chunks.pop_front() {
                self.load_chunk(off, count);
            } else if !self.back.is_empty() {
                self.front.extend(self.back.drain(..));
            }
        }
        let v = self.front.pop_front();
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Spill the resident tail as one chunk. On any I/O failure the queue
    /// falls back to resident-only operation (data is never lost).
    fn flush_back(&mut self) {
        let store = match &mut self.store {
            Some(s) => s,
            None => match SegmentStore::create("worklist") {
                Ok(s) => self.store.insert(s),
                Err(_) => {
                    self.spill = false;
                    return;
                }
            },
        };
        // Pack two ids per word; odd tails are padded with a zero that the
        // entry count makes unambiguous.
        let words: Vec<u64> = self
            .back
            .chunks(2)
            .map(|c| (c[0] as u64) | ((c.get(1).copied().unwrap_or(0) as u64) << 32))
            .collect();
        match store.append_words(&words) {
            Ok(off) => {
                msc_obs::count("convert.spill_bytes", (words.len() * 8) as u64);
                self.chunks.push_back((off, self.back.len() as u32));
                self.back.clear();
            }
            Err(_) => self.spill = false,
        }
    }

    /// Reload one spilled chunk into the resident front.
    fn load_chunk(&mut self, off: u64, count: u32) {
        let store = self.store.as_mut().expect("chunk recorded without store");
        let mut words = vec![0u64; (count as usize).div_ceil(2)];
        store
            .read_words(off, &mut words)
            .expect("spilled worklist chunk must be readable");
        msc_obs::count("engine.spill_reload", 1);
        for i in 0..count as usize {
            let w = words[i / 2];
            self.front.push_back(if i % 2 == 0 {
                w as u32
            } else {
                (w >> 32) as u32
            });
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
    }

    #[test]
    fn segment_store_roundtrips_words() {
        let mut s = SegmentStore::create("test").unwrap();
        let a = s.append_words(&[1, 2, 3]).unwrap();
        let b = s.append_words(&[u64::MAX, 0x0123_4567_89ab_cdef]).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 24);
        assert_eq!(s.len(), 40);
        let mut out = [0u64; 2];
        s.read_words(b, &mut out).unwrap();
        assert_eq!(out, [u64::MAX, 0x0123_4567_89ab_cdef]);
        let mut out = [0u64; 3];
        s.read_words(a, &mut out).unwrap();
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

    #[test]
    fn spill_queue_is_fifo_across_chunk_boundaries() {
        for &(spill, chunk) in &[(false, 4usize), (true, 4), (true, 7), (true, 1000)] {
            let mut q = SpillQueue::with_chunk(spill, chunk);
            let n = 100u32;
            for i in 0..n {
                q.push_back(i);
            }
            assert_eq!(q.len(), n as usize);
            for i in 0..n {
                assert_eq!(q.pop_front(), Some(i), "spill={spill} chunk={chunk}");
            }
            assert_eq!(q.pop_front(), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn spill_queue_interleaves_push_and_pop() {
        let mut q = SpillQueue::with_chunk(true, 3);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        // A deterministic interleaving: pushes in bursts, pops between.
        for round in 0..50 {
            for _ in 0..(round % 5 + 1) {
                q.push_back(next);
                model.push_back(next);
                next += 1;
            }
            for _ in 0..(round % 3) {
                assert_eq!(q.pop_front(), model.pop_front());
            }
            assert_eq!(q.len(), model.len());
        }
        while let Some(v) = model.pop_front() {
            assert_eq!(q.pop_front(), Some(v));
        }
        assert_eq!(q.pop_front(), None);
    }

    #[test]
    fn spill_queue_stays_fifo_after_a_failed_flush() {
        // What `flush_back` leaves when `SegmentStore::create` fails: spill
        // off, the unflushed ids still in `back`, nothing on disk.
        let mut q = SpillQueue::with_chunk(true, 4);
        q.push_back(1);
        q.push_back(2);
        q.spill = false;
        q.push_back(3);
        assert_eq!(
            [q.pop_front(), q.pop_front(), q.pop_front()],
            [Some(1), Some(2), Some(3)]
        );
        assert_eq!(q.pop_front(), None);
        q.push_back(4);
        assert_eq!(q.front, [4], "drained: back on the plain-deque path");

        // What it leaves when `append_words` fails: the same, behind chunks
        // that earlier flushes did write. No further flush is attempted.
        let mut q = SpillQueue::with_chunk(true, 2);
        for v in 1..=5 {
            q.push_back(v);
        }
        assert_eq!((q.chunks.len(), &q.back[..]), (2, &[5][..]));
        q.spill = false;
        for v in 6..=9 {
            q.push_back(v);
        }
        assert_eq!((q.chunks.len(), q.back.len()), (2, 5), "spill is off");
        assert_eq!(q.len(), 9);
        for v in 1..=9 {
            assert_eq!(q.pop_front(), Some(v));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn spill_queue_actually_spills() {
        let mut q = SpillQueue::with_chunk(true, 4);
        for i in 0..20 {
            q.push_back(i);
        }
        assert!(!q.chunks.is_empty(), "expected spilled chunks");
        assert!(q.store.is_some());
    }
}
