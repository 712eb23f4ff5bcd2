//! Meta-state membership sets.
//!
//! A meta state *is* a set of MIMD states (§1.2: "it is also possible to
//! view the set of processor states at a particular time as \[a\] single,
//! aggregate, 'Meta State'"). The converter manipulates huge numbers of
//! these sets — §2.3's base construction unions, hashes, and interns one
//! candidate set per successor choice, up to 3ⁿ per meta state — and every
//! one of them has the same encoding: a **window** of bit words.
//!
//! Bit *b* of `words[i]` is member `64·(base + i) + b`. The window is
//! *tight* — its first and last words are non-zero, and ∅ has no words and
//! `base` 0 — so a set has exactly one `(len, base, words)` triple:
//! equality compares the three fields, [`Hash`] feeds them to the hasher,
//! and neither needs a rule about which form a set is in. Every operation
//! is one body over words addressed by absolute index (`word(wi)`: the
//! window's word there, zero outside it), 64 members at a time, and every
//! derived set is built by one constructor that leaves zero end words out.
//! A set whose members cluster far from id 0 — time splitting (§2.4)
//! appends MIMD states, so late meta states sit at high ids — costs the
//! words it spans, not the words below it. The member count is cached, so
//! [`StateSet::len`] is O(1).
//!
//! Where a window's words live is the business of one private type,
//! `Words`: up to `INLINE_WORDS` in place (no heap allocation — every set
//! the benchmark's converters build fits, DESIGN.md §9), a boxed slice
//! past that. Nothing else looks.
//!
//! Sets are interned in a [`SetArena`]: each distinct set is stored once,
//! as its window's words in one shared word stream, and referred to by a
//! compact [`SetId`] handle.

use crate::spill::{default_memory_budget, ColdWords};
use msc_ir::util::FxHasher;
use msc_ir::StateId;
use msc_simd::setops;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Range};

/// Widest window stored in place; a wider one is a boxed slice.
const INLINE_WORDS: usize = 2;

/// A window's words. Which variant holds them is a function of the word
/// count alone, decided in [`Words::zeroed`] and read in the two derefs;
/// everything else sees a `[u64]`. In-place slots past `n` stay zero — the
/// derefs never hand them out — so the derived equality is slice equality.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline { n: u8, buf: [u64; INLINE_WORDS] },
    Heap(Box<[u64]>),
}

impl Words {
    /// `n` zero words.
    fn zeroed(n: usize) -> Words {
        if n <= INLINE_WORDS {
            Words::Inline {
                n: n as u8,
                buf: [0; INLINE_WORDS],
            }
        } else {
            Words::Heap(vec![0; n].into_boxed_slice())
        }
    }
}

impl From<&[u64]> for Words {
    fn from(words: &[u64]) -> Words {
        let mut out = Words::zeroed(words.len());
        out.copy_from_slice(words);
        out
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline { n, buf } => &buf[..*n as usize],
            Words::Heap(words) => words,
        }
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline { n, buf } => &mut buf[..*n as usize],
            Words::Heap(words) => words,
        }
    }
}

/// A set of MIMD state ids: one meta state's members, as a tight window
/// of bit words (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSet {
    /// Member count (the population of `words`).
    len: u32,
    /// Index of the window's first word: bit 0 of `words[0]` is member
    /// `64 · base`.
    base: u32,
    words: Words,
}

impl Default for StateSet {
    fn default() -> Self {
        StateSet::empty()
    }
}

/// The smallest word range covering both `a` and `b`; an empty range
/// covers nothing, wherever it sits.
fn hull(a: Range<u32>, b: Range<u32>) -> Range<u32> {
    if a.is_empty() {
        b
    } else if b.is_empty() {
        a
    } else {
        a.start.min(b.start)..a.end.max(b.end)
    }
}

fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Feed a window to `state` — its base, each word, its member count — and
/// return the count: what [`Hash`] does for a set, and what
/// [`SetList::push_union`] does in the one pass that ORs a union's words.
fn hash_window<H: Hasher>(state: &mut H, base: u32, words: impl Iterator<Item = u64>) -> u32 {
    state.write_u32(base);
    let mut len = 0;
    for w in words {
        state.write_u64(w);
        len += w.count_ones();
    }
    state.write_u32(len);
    len
}

impl StateSet {
    /// The empty set.
    pub fn empty() -> Self {
        StateSet {
            len: 0,
            base: 0,
            words: Words::zeroed(0),
        }
    }

    /// The set whose bitmap has `word(wi)` at every word index in `window`
    /// and nothing outside it. Zero words at either end of `window` are
    /// left out, which is what keeps every window tight.
    fn from_words(window: Range<u32>, word: impl Fn(u32) -> u64) -> StateSet {
        let nonzero = |wi: &u32| word(*wi) != 0;
        let (Some(lo), Some(hi)) = (window.clone().find(nonzero), window.rev().find(nonzero))
        else {
            return StateSet::empty();
        };
        let mut words = Words::zeroed((hi + 1 - lo) as usize);
        for (out, wi) in words.iter_mut().zip(lo..=hi) {
            *out = word(wi);
        }
        StateSet {
            len: popcount(&words),
            base: lo,
            words,
        }
    }

    /// Build from an arbitrary iterator of state ids, in any order and
    /// with repeats.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator below
    pub fn from_iter(iter: impl IntoIterator<Item = StateId>) -> Self {
        let mut set = StateSet::empty();
        for s in iter {
            set.insert(s);
        }
        set
    }

    /// A singleton set.
    pub fn singleton(s: StateId) -> Self {
        StateSet {
            len: 1,
            base: s.0 >> 6,
            words: Words::from(&[1u64 << (s.0 & 63)][..]),
        }
    }

    /// Number of member MIMD states (the meta state's *width*, which §2.5
    /// notes governs SIMD efficiency). O(1): cached.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the set has no members (program termination).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The word indices the window covers.
    fn range(&self) -> Range<u32> {
        self.window().range()
    }

    /// Where word `wi` of the absolute bitmap sits in `words`: past their
    /// end (in either direction) when the window does not cover it.
    fn slot(&self, wi: u32) -> usize {
        wi.wrapping_sub(self.base) as usize
    }

    /// Word `wi` of the set as an absolute bitmap: the window's word there,
    /// zero outside it.
    fn word(&self, wi: u32) -> u64 {
        self.window().word(wi)
    }

    /// Membership test: one bit probe.
    pub fn contains(&self, s: StateId) -> bool {
        self.word(s.0 >> 6) & (1u64 << (s.0 & 63)) != 0
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> Members<'_> {
        Members {
            words: &self.words,
            base: self.base,
            wi: 0,
            cur: self.words.first().copied().unwrap_or(0),
            left: self.len(),
        }
    }

    /// Members as a freshly allocated sorted vector (tests, rendering).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().map(|s| s.0).collect()
    }

    /// Set union: a word-parallel OR over the hull of the two windows.
    pub fn union(&self, other: &StateSet) -> StateSet {
        StateSet::from_words(hull(self.range(), other.range()), |wi| {
            self.word(wi) | other.word(wi)
        })
    }

    /// In-place union with a single element.
    pub fn insert(&mut self, s: StateId) {
        let (slot, bit) = (self.slot(s.0 >> 6), 1u64 << (s.0 & 63));
        match self.words.get_mut(slot) {
            Some(word) => {
                self.len += u32::from(*word & bit == 0);
                *word |= bit;
            }
            // Outside the window (or ∅): the union finds the new one.
            None => *self = self.union(&StateSet::singleton(s)),
        }
    }

    /// Set difference `self \ other`: a word-parallel AND-NOT over
    /// `self`'s window.
    pub fn difference(&self, other: &StateSet) -> StateSet {
        StateSet::from_words(self.range(), |wi| self.word(wi) & !other.word(wi))
    }

    /// Set intersection: a word-parallel AND over `self`'s window (§2.6:
    /// a candidate's barrier waits are `candidate ∩ barriers`).
    pub(crate) fn intersection(&self, other: &StateSet) -> StateSet {
        StateSet::from_words(self.range(), |wi| self.word(wi) & other.word(wi))
    }

    /// Members satisfying `pred` (e.g. "is a barrier wait state", §2.6).
    pub fn filter(&self, mut pred: impl FnMut(StateId) -> bool) -> StateSet {
        let mut kept = self.clone();
        for s in self.iter().filter(|&s| !pred(s)) {
            kept.words[self.slot(s.0 >> 6)] &= !(1u64 << (s.0 & 63));
            kept.len -= 1;
        }
        // Only an end word going to zero leaves the window loose.
        if kept.words.first() == Some(&0) || kept.words.last() == Some(&0) {
            kept = StateSet::from_words(kept.range(), |wi| kept.word(wi));
        }
        kept
    }

    /// True when every member of `self` is in `other`. A tight window that
    /// sticks out of `other`'s has a member `other` lacks; inside it, the
    /// test is word-parallel.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        let (a, b) = (self.range(), other.range());
        let inside = || &other.words[(a.start - b.start) as usize..][..a.len()];
        self.is_empty()
            || (self.len <= other.len
                && b.start <= a.start
                && a.end <= b.end
                && setops::subset_of(&self.words, inside()))
    }

    /// True when `self ⊂ other` strictly.
    pub fn is_strict_subset(&self, other: &StateSet) -> bool {
        self.len() < other.len() && self.is_subset(other)
    }

    /// The set as a borrowed [`Window`].
    pub(crate) fn window(&self) -> Window<'_> {
        Window {
            len: self.len,
            base: self.base,
            words: &self.words,
        }
    }
}

/// A set's `(len, base, words)` wherever its words live: a [`StateSet`]'s,
/// a [`SetList`] entry's. The window is tight, as a `StateSet`'s is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    len: u32,
    base: u32,
    words: &'a [u64],
}

impl Window<'_> {
    /// ∅'s window.
    pub(crate) const EMPTY: Window<'static> = Window {
        len: 0,
        base: 0,
        words: &[],
    };

    /// The word indices the window covers.
    fn range(&self) -> Range<u32> {
        self.base..self.base + self.words.len() as u32
    }

    /// Word `wi` of the absolute bitmap: the window's word there, zero
    /// outside it.
    fn word(&self, wi: u32) -> u64 {
        let slot = wi.wrapping_sub(self.base) as usize;
        self.words.get(slot).copied().unwrap_or(0)
    }

    /// The window as an owned set.
    pub(crate) fn to_set(self) -> StateSet {
        StateSet {
            len: self.len,
            base: self.base,
            words: Words::from(self.words),
        }
    }
}

/// Iterator over a set's members in ascending order.
pub struct Members<'a> {
    words: &'a [u64],
    base: u32,
    /// Window index of the word `cur` was read from.
    wi: usize,
    /// Bits of that word not yet yielded.
    cur: u64,
    /// Members not yet yielded.
    left: usize,
}

impl Iterator for Members<'_> {
    type Item = StateId;

    fn next(&mut self) -> Option<StateId> {
        while self.cur == 0 {
            self.wi += 1;
            self.cur = *self.words.get(self.wi)?;
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        self.left -= 1;
        Some(StateId((self.base + self.wi as u32) << 6 | bit))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Members<'_> {}

impl Hash for StateSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_window(state, self.base, self.words.iter().copied());
    }
}

impl PartialOrd for StateSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StateSet {
    /// Lexicographic over the ascending member sequence — identical to the
    /// former sorted-`Vec<u32>` ordering, which test expectations and the
    /// deterministic successor orderings rely on.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl fmt::Display for StateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", x.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<StateId> for StateSet {
    fn from_iter<T: IntoIterator<Item = StateId>>(iter: T) -> Self {
        StateSet::from_iter(iter)
    }
}

/// The set's Fx hash — the key the arena and the converter's candidate
/// dedup file a set under in their hash index. No output depends on its
/// value: a set is new exactly when no earlier one equals it, and takes the
/// next index in arrival order.
pub fn fx_hash(set: &StateSet) -> u64 {
    let mut h = FxHasher::default();
    set.hash(&mut h);
    h.finish()
}

/// One slot of a [`HashIndex`]: live while `stamp` is the table's epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    hash: u64,
    index: u32,
    stamp: u32,
}

/// The subset construction's one `hash → u32 index` table: open-addressed
/// `(hash, index)` slots, linear probing, no deletion. It serves the
/// converter's per-step candidate dedup and its barrier pass (cleared by
/// bumping the epoch, O(1)) and [`SetArena`]'s intern lookup (never
/// cleared). The caller owns what an index means and says whether the item
/// behind one is the item it is looking for; the table stores neither keys
/// nor items, and grows by re-placing the hashes it stored — an arena's
/// set words may be on disk by then.
#[derive(Debug)]
pub(crate) struct HashIndex {
    /// None before the first insertion, then a power of two, at most half
    /// of them live — so a probe always ends at a free slot.
    slots: Vec<Slot>,
    live: usize,
    /// Never 0, which is the stamp of a slot nothing was ever put in.
    epoch: u32,
}

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex {
            slots: Vec::new(),
            live: 0,
            epoch: 1,
        }
    }
}

impl HashIndex {
    /// Fewest slots a table that holds anything has.
    const MIN_SLOTS: usize = 16;

    /// Forget every entry, keeping the slots.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp left 2³² clears ago would read live again.
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
    }

    /// The first index filed under `hash` that `same` accepts, in the
    /// order they were filed; when there is none, file `new` under `hash`
    /// and return `None`.
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        new: u32,
        mut same: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if (self.live + 1) * 2 > self.slots.len() {
            self.grow();
        }
        // The top bits: an Fx hash ends in a multiply, which mixes upward.
        let bits = self.slots.len().trailing_zeros();
        let mut at = (hash >> (u64::BITS - bits)) as usize;
        loop {
            let slot = &mut self.slots[at];
            if slot.stamp != self.epoch {
                *slot = Slot {
                    hash,
                    index: new,
                    stamp: self.epoch,
                };
                self.live += 1;
                return None;
            }
            if slot.hash == hash && same(slot.index) {
                return Some(slot.index);
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// Double the slots and re-place every live entry by its stored hash,
    /// walking the old slots from a free one on so that entries under one
    /// hash are met, and so re-filed, in the order they were filed.
    fn grow(&mut self) {
        let bigger = vec![Slot::default(); (self.slots.len() * 2).max(Self::MIN_SLOTS)];
        let mut old = std::mem::replace(&mut self.slots, bigger);
        let epoch = self.epoch;
        let free = old.iter().position(|slot| slot.stamp != epoch);
        old.rotate_left(free.unwrap_or(0));
        self.live = 0;
        for slot in old.into_iter().filter(|slot| slot.stamp == epoch) {
            self.find_or_insert(slot.hash, slot.index, |_| false);
        }
    }
}

/// One set of a [`SetList`]. Sets sit back to back in the list's word
/// stream, in arrival order, so a set's words run from its `off` to the
/// next set's.
#[derive(Debug, Clone, Copy)]
struct Listed {
    off: usize,
    base: u32,
    len: u32,
    hash: u64,
}

/// Distinct sets in arrival order, each with its Fx hash: the §2.3 DP's
/// partial unions and [`successor_sets`](crate::convert)' result. One word
/// stream holds every set's window, a [`HashIndex`] over the list finds an
/// equal set, and a union is built in the stream's tail — OR-ed, counted
/// and hashed in one pass — and then kept, or cut off when an equal set is
/// listed already. No candidate becomes a [`StateSet`].
///
/// Not a [`SetArena`]: the DP clears a list once per member step and cuts
/// off a rejected tail on most unions, and the arena's budget, spill and
/// `convert.set_*` samples have no place on that path.
#[derive(Debug, Default)]
pub(crate) struct SetList {
    words: Vec<u64>,
    sets: Vec<Listed>,
    /// Hash of a listed set → its index; empty in a [`SetList::nonempty`]
    /// copy, which is read, never pushed to.
    index: HashIndex,
}

impl SetList {
    /// Forget every set, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.sets.clear();
        self.index.clear();
    }

    /// Number of sets listed.
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// The words of set `i`.
    fn words_of(&self, i: usize) -> &[u64] {
        let end = self.sets.get(i + 1).map_or(self.words.len(), |s| s.off);
        &self.words[self.sets[i].off..end]
    }

    /// Set `i` as a borrowed window.
    pub(crate) fn window(&self, i: usize) -> Window<'_> {
        Window {
            len: self.sets[i].len,
            base: self.sets[i].base,
            words: self.words_of(i),
        }
    }

    /// Every set with its Fx hash ([`fx_hash`] of the set), in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Window<'_>, u64)> {
        (0..self.len()).map(|i| (self.window(i), self.sets[i].hash))
    }

    /// List `a ∪ b` unless an equal set is listed: then return that set's
    /// index and leave the list as it was.
    pub(crate) fn push_union(&mut self, a: Window<'_>, b: Window<'_>) -> Option<usize> {
        debug_assert_eq!(self.index.live, self.sets.len(), "a list with an index");
        let off = self.words.len();
        // Both windows are tight, so their hull is the union's window.
        let window = hull(a.range(), b.range());
        let base = window.start;
        let mut h = FxHasher::default();
        let words = &mut self.words;
        words.reserve(window.len());
        let or = window.map(|wi| a.word(wi) | b.word(wi));
        let len = hash_window(&mut h, base, or.inspect(|&w| words.push(w)));
        let hash = h.finish();
        let (tail, listed) = (&self.words[off..], &self.sets);
        let found = self.index.find_or_insert(hash, listed.len() as u32, |i| {
            let s = &listed[i as usize];
            let end = listed.get(i as usize + 1).map_or(off, |next| next.off);
            s.len == len && s.base == base && self.words[s.off..end] == *tail
        });
        match found {
            Some(i) => {
                self.words.truncate(off);
                Some(i as usize)
            }
            None => {
                self.sets.push(Listed {
                    off,
                    base,
                    len,
                    hash,
                });
                None
            }
        }
    }

    /// List `set` unless an equal set is listed (see
    /// [`push_union`](SetList::push_union)).
    pub(crate) fn push(&mut self, set: Window<'_>) -> Option<usize> {
        self.push_union(set, Window::EMPTY)
    }

    /// The listed sets but ∅, in order, in buffers sized to hold just them
    /// and with no index: a list to read, not to push to.
    pub(crate) fn nonempty(&self) -> SetList {
        let kept = self.sets.iter().filter(|s| s.len > 0).count();
        let mut out = SetList {
            words: Vec::with_capacity(self.words.len()),
            sets: Vec::with_capacity(kept),
            index: HashIndex::default(),
        };
        for (i, s) in self.sets.iter().enumerate().filter(|(_, s)| s.len > 0) {
            out.sets.push(Listed {
                off: out.words.len(),
                ..*s
            });
            out.words.extend_from_slice(self.words_of(i));
        }
        out
    }
}

/// Interned handle to a [`StateSet`] inside a [`SetArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(pub u32);

impl SetId {
    /// The index as a usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// How [`SetArena`] splits a memory budget once it spills: the block cache
/// over the spilled prefix takes all but a `1/SUFFIX_SHARE` (the resident
/// suffix's, of which an eviction leaves half) and a `1/BUFFER_SHARE` (the
/// reload buffers'). Until the first spill the suffix has the whole budget.
const SUFFIX_SHARE: usize = 16;
const BUFFER_SHARE: usize = 64;

/// Interning arena: each distinct [`StateSet`] is stored exactly once.
///
/// Sets live in a struct-of-arrays bump arena — per-set `(len, base, span)`
/// descriptors over one contiguous `words: Vec<u64>` block holding each
/// set's window — instead of a `Vec<StateSet>`, and are found again through
/// one flat open-addressed hash → id index: an intern that hits is one
/// probe sequence and allocates nothing.
///
/// When a memory `budget` is set (explicitly via [`SetArena::with_budget`]
/// or process-wide via `MSC_MEMORY_BUDGET`), the arena spills its *cold
/// prefix* — sets are appended in discovery order — to an
/// unlinked-on-drop segment store once its words outgrow the budget; an
/// arena whose words fit never touches disk. Because eviction only ever
/// moves a contiguous prefix of whole spans, a logical word offset maps
/// to a stable file byte offset (`off * 8`) forever, and a span is wholly
/// resident or wholly spilled. Every read of a spilled span — the compare
/// behind an intern hit, a [`get`](SetArena::get) — goes through a block
/// cache over the spilled prefix, built at the first spill in the room
/// the suffix gives up, so the cold sets an intern keeps hitting are read
/// from disk once, not once per hit. The resident suffix, the cache and
/// the reload buffers together stay within the budget after every call
/// ([`resident_bytes`](SetArena::resident_bytes)). Spill *write* failures
/// degrade back to in-RAM operation (the budget is dropped, never the
/// data); reload failures panic, since the words exist nowhere else.
#[derive(Debug, Default)]
pub struct SetArena {
    /// Per-set member count.
    lens: Vec<u32>,
    /// Per-set `(logical word offset, word count, window base)`: where the
    /// window's words sit in the arena stream, and where the window sits.
    spans: Vec<(u64, u32, u32)>,
    /// Resident suffix of the arena word stream.
    words: Vec<u64>,
    /// Logical word offset of `words[0]`; everything below it is spilled.
    base: u64,
    /// Index of the first set whose span is resident.
    first_resident: usize,
    /// The spilled prefix and its block cache, from the first eviction on.
    cold: Option<ColdWords>,
    budget: Option<usize>,
    /// Hash of a set → its id. Resident whatever the budget: the budget
    /// counts the word stream only (the suffix, the cache over the spilled
    /// prefix, the reload buffers).
    lookup: HashIndex,
    /// Peak [`resident_bytes`](SetArena::resident_bytes), for
    /// `convert.arena_high_water`.
    high_water: u64,
}

impl SetArena {
    /// An empty arena, honoring the process-wide `MSC_MEMORY_BUDGET` spill
    /// budget when set.
    pub fn new() -> Self {
        Self::with_budget(default_memory_budget())
    }

    /// An empty arena with an explicit budget in bytes (`None` = never
    /// spill).
    pub fn with_budget(budget: Option<usize>) -> Self {
        SetArena {
            budget,
            ..SetArena::default()
        }
    }

    /// Intern a set, returning its stable handle.
    pub fn intern(&mut self, set: StateSet) -> SetId {
        self.intern_window(set.window(), fx_hash(&set))
    }

    /// Intern the set behind a window whose [`fx_hash`] is `hash`: a set
    /// the caller has not built, or has hashed already.
    pub(crate) fn intern_window(&mut self, set: Window<'_>, hash: u64) -> SetId {
        let id = SetId(self.lens.len() as u32);
        // One probe sequence finds the set or files `id` for it. The index
        // is out of `self` meanwhile: `holds` may read a cold span through
        // the block cache.
        let mut lookup = std::mem::take(&mut self.lookup);
        let known = lookup.find_or_insert(hash, id.0, |k| self.holds(SetId(k), set));
        self.lookup = lookup;
        if let Some(k) = known {
            self.fit();
            return SetId(k);
        }
        let off = self.base + self.words.len() as u64;
        self.reserve(set.words.len());
        self.words.extend_from_slice(set.words);
        self.spans.push((off, set.words.len() as u32, set.base));
        self.lens.push(set.len);
        if msc_obs::enabled() {
            msc_obs::value("convert.set_members", set.len as u64);
            msc_obs::value("convert.set_words", set.words.len() as u64);
        }
        self.maybe_evict();
        self.fit();
        id
    }

    /// True when set `id` is `set`; the words are compared last, so a cold
    /// span is read only for a set with the same shape.
    fn holds(&mut self, id: SetId, set: Window<'_>) -> bool {
        let (_, nw, base) = self.spans[id.idx()];
        self.lens[id.idx()] == set.len
            && base == set.base
            && nw as usize == set.words.len()
            && *self.words_of(id) == *set.words
    }

    /// Set `id`'s window words, read through the block cache when the span
    /// is spilled.
    fn words_of(&mut self, id: SetId) -> &[u64] {
        let (off, nw, _) = self.spans[id.idx()];
        let nw = nw as usize;
        if nw == 0 {
            &[]
        } else if off >= self.base {
            &self.words[(off - self.base) as usize..][..nw]
        } else {
            self.cold
                .as_mut()
                .expect("spilled span without a segment store")
                .read(off, nw)
        }
    }

    /// Bytes the resident suffix may hold under the budget: all of it
    /// until the first spill, then what the block cache and the reload
    /// buffers' share leave.
    fn suffix_room(&self) -> Option<usize> {
        let budget = self.budget?;
        Some(match &self.cold {
            None => budget,
            Some(cold) => budget - cold.cache_bytes() - budget / BUFFER_SHARE,
        })
    }

    /// Make room for `n` more suffix words. Under a budget the suffix
    /// doubles only up to its room, not past it: what it holds is its
    /// capacity, and that is what the budget counts.
    fn reserve(&mut self, n: usize) {
        let Some(room) = self.suffix_room() else {
            return;
        };
        let need = self.words.len() + n;
        if need > self.words.capacity() {
            let grown = (2 * self.words.capacity()).min(room / 8).max(need);
            self.words.reserve_exact(grown - self.words.len());
        }
    }

    /// Spill the cold prefix of the arena when the resident suffix
    /// outgrows its room, keeping half the suffix's share of the budget
    /// resident (hysteresis so a stream of interns doesn't trigger a file
    /// write each time). The first spill builds the block cache, which
    /// takes the room the suffix gives up.
    fn maybe_evict(&mut self) {
        let (Some(budget), Some(room)) = (self.budget, self.suffix_room()) else {
            return;
        };
        if self.words.capacity() * 8 <= room {
            return;
        }
        let keep_words = budget / SUFFIX_SHARE / 2 / 8;
        let target_cut = self.words.len().saturating_sub(keep_words);
        // Advance to the first span boundary at or past the target; only
        // whole spans move so file offsets stay stable.
        let mut j = self.first_resident;
        while j < self.spans.len() && ((self.spans[j].0 - self.base) as usize) < target_cut {
            j += 1;
        }
        let cut = if j < self.spans.len() {
            (self.spans[j].0 - self.base) as usize
        } else {
            self.words.len()
        };
        if cut == 0 {
            return;
        }
        let cold = match &mut self.cold {
            Some(c) => c,
            None => {
                let cache = budget - budget / SUFFIX_SHARE - budget / BUFFER_SHARE;
                match ColdWords::create("arena", cache) {
                    Ok(c) => self.cold.insert(c),
                    Err(_) => {
                        // Can't create the spill file: degrade to in-RAM.
                        self.budget = None;
                        return;
                    }
                }
            }
        };
        debug_assert_eq!(cold.len(), self.base, "the store is the spilled prefix");
        match cold.append(&self.words[..cut]) {
            Ok(()) => {
                msc_obs::count("convert.spill_bytes", (cut * 8) as u64);
                self.words.copy_within(cut.., 0);
                let kept = self.words.len() - cut;
                self.words.truncate(kept);
                self.base += cut as u64;
                self.first_resident = j;
                let room = self.suffix_room().expect("a budget");
                self.words.shrink_to(room / 8);
            }
            Err(_) => {
                // Spill write failed: keep everything resident instead.
                self.budget = None;
            }
        }
    }

    /// End a call within the budget: free the reload buffers when a wide
    /// span grew them past their share, and note the resident high water.
    fn fit(&mut self) {
        if let (Some(cold), Some(budget)) = (&mut self.cold, self.budget) {
            if cold.buffer_bytes() > budget / BUFFER_SHARE {
                cold.release_buffers();
            }
        }
        let resident = self.resident_bytes() as u64;
        if resident > self.high_water {
            self.high_water = resident;
            msc_obs::value("convert.arena_high_water", resident);
        }
    }

    /// Materialize a set by handle. Takes `&mut self` because a cold
    /// (spilled) set is read through the block cache.
    pub fn get(&mut self, id: SetId) -> StateSet {
        let set = StateSet {
            len: self.lens[id.idx()],
            base: self.spans[id.idx()].2,
            words: Words::from(self.words_of(id)),
        };
        self.fit();
        set
    }

    /// Member count of set `id` without materializing it.
    pub fn len_of(&self, id: SetId) -> usize {
        self.lens[id.idx()] as usize
    }

    /// Number of distinct sets interned.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Bytes the arena holds against its budget: the resident suffix of
    /// its word stream (as allocated), the block cache over the spilled
    /// prefix and the reload buffers. Under a budget, at most the budget
    /// after every call.
    pub fn resident_bytes(&self) -> usize {
        let cold = self.cold.as_ref();
        self.words.capacity() * 8 + cold.map_or(0, |c| c.cache_bytes() + c.buffer_bytes())
    }

    /// Bytes of set words spilled to the segment store so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.base * 8
    }

    /// Peak [`resident_bytes`](SetArena::resident_bytes) over the arena's
    /// lifetime.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the converter's tests need to see of its dedup table.
    impl HashIndex {
        pub(crate) fn slots(&self) -> usize {
            self.slots.len()
        }

        pub(crate) fn epoch(&self) -> u32 {
            self.epoch
        }

        /// Move the epoch, as that many clears would have.
        pub(crate) fn set_epoch(&mut self, epoch: u32) {
            self.epoch = epoch;
        }
    }

    /// What the converter's tests need to see of its DP lists.
    impl SetList {
        pub(crate) fn index_mut(&mut self) -> &mut HashIndex {
            &mut self.index
        }
    }

    fn set(v: &[u32]) -> StateSet {
        StateSet::from_iter(v.iter().map(|&x| StateId(x)))
    }

    /// The encoding's invariants: a tight window, a true cached count, ∅
    /// one value, storage picked by word count alone.
    pub(super) fn assert_encoding(s: &StateSet) {
        assert_eq!(s.len, popcount(&s.words), "cached count of {s:?}");
        match (s.words.first(), s.words.last()) {
            (Some(&first), Some(&last)) => assert!(first != 0 && last != 0, "loose {s:?}"),
            _ => assert_eq!((s.len, s.base), (0, 0), "∅ is one value"),
        }
        assert_eq!(
            matches!(s.words, Words::Inline { .. }),
            s.words.len() <= INLINE_WORDS,
            "storage of {s:?}"
        );
    }

    /// `a` and `b` are one value: equal fields, equal hash.
    pub(super) fn assert_same(a: &StateSet, b: &StateSet) {
        assert_encoding(a);
        assert_encoding(b);
        assert_eq!(a, b);
        assert_eq!(fx_hash(a), fx_hash(b), "hash of {a}");
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        assert_eq!(set(&[3, 1, 2, 1, 3]).to_vec(), &[1, 2, 3]);
    }

    #[test]
    fn union_is_sorted_merge() {
        assert_eq!(
            set(&[1, 3, 5]).union(&set(&[2, 3, 6])).to_vec(),
            &[1, 2, 3, 5, 6]
        );
        assert_eq!(set(&[]).union(&set(&[2])).to_vec(), &[2]);
        assert_eq!(set(&[2]).union(&set(&[])).to_vec(), &[2]);
    }

    #[test]
    fn difference_removes_members() {
        assert_eq!(set(&[1, 2, 3]).difference(&set(&[2])).to_vec(), &[1, 3]);
        assert_eq!(
            set(&[1, 2]).difference(&set(&[1, 2])).to_vec(),
            &[] as &[u32]
        );
    }

    #[test]
    fn subset_relations() {
        assert!(set(&[1, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 3]).is_strict_subset(&set(&[1, 2, 3])));
        assert!(set(&[1, 2, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 2, 3]).is_strict_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 4]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[]).is_subset(&set(&[1])));
        // Windows that only partly overlap, and ∅ against a window that
        // does not start at word 0.
        assert!(set(&[200, 300]).is_subset(&set(&[70, 200, 300, 900])));
        assert!(!set(&[70, 200]).is_subset(&set(&[200, 300, 900])));
        assert!(!set(&[200, 900]).is_subset(&set(&[70, 200, 300])));
        assert!(set(&[]).is_subset(&set(&[900])));
    }

    #[test]
    fn insert_keeps_order() {
        let mut s = set(&[1, 5]);
        s.insert(StateId(3));
        s.insert(StateId(3));
        assert_eq!(s.to_vec(), &[1, 3, 5]);
    }

    #[test]
    fn insert_grows_the_window_at_either_end() {
        let mut s = set(&[130]);
        assert_eq!((s.base, s.words.len()), (2, 1));
        s.insert(StateId(5000));
        assert_eq!((s.base, s.words.len()), (2, 77), "boxed, base kept");
        s.insert(StateId(3));
        assert_eq!((s.base, s.words.len()), (0, 79));
        s.insert(StateId(5000));
        assert_eq!(s.len(), 3, "re-insert is a no-op");
        assert_eq!(s.to_vec(), &[3, 130, 5000]);
        assert_same(&s, &set(&[5000, 130, 3]));
    }

    #[test]
    fn shrinking_tightens_the_window_from_either_end() {
        // Losing the high member drops 10 words and brings the set back in
        // place; it must be the value a direct build gives.
        let wide = set(&[1, 2, 3, 4, 5, 6, 700]);
        assert_same(&wide.difference(&set(&[2, 4, 6, 700])), &set(&[1, 3, 5]));
        assert_same(&wide.filter(|s| s.0 < 64), &set(&[1, 2, 3, 4, 5, 6]));
        // Losing the low member moves `base` up instead.
        let high = wide.difference(&set(&[1, 2, 3, 4, 5, 6, 9000]));
        assert_eq!((high.base, high.words.len()), (10, 1));
        assert_same(&high, &set(&[700]));
        let sparse = set(&[3, 700, 9000]).filter(|s| s.0 != 3);
        assert_eq!((sparse.base, sparse.words.len()), (10, 131));
        assert_same(&sparse, &set(&[9000, 700]));
    }

    #[test]
    fn one_set_is_one_value_by_every_route() {
        // In place at word 0, in place at a base, boxed at a base.
        for ids in [&[1, 3, 5][..], &[130, 200], &[130, 200, 4000]] {
            let direct = set(ids);
            let (head, tail) = ids.split_at(1);
            assert_same(&set(tail).union(&set(head)), &direct);
            let mut inserted = StateSet::empty();
            for &x in ids.iter().rev() {
                inserted.insert(StateId(x));
            }
            assert_same(&inserted, &direct);
            let wider = direct.union(&set(&[0, 77, 9999]));
            assert_same(&wider.difference(&set(&[0, 77, 9999])), &direct);
            assert_same(&wider.filter(|s| ids.contains(&s.0)), &direct);
            let mut list = SetList::default();
            list.push_union(set(head).window(), set(tail).window());
            assert_same(&list.window(0).to_set(), &direct);

            let mut resident = SetArena::with_budget(None);
            let id = resident.intern(direct.clone());
            assert_same(&resident.get(id), &direct);
            // Push the set's span out to the segment store and read it back.
            let mut spilled = SetArena::with_budget(Some(64));
            let id = spilled.intern(direct.clone());
            for i in 0..64 {
                spilled.intern(set(&[i, i + 64, i + 640]));
            }
            assert!(spilled.spans[id.idx()].0 + ids.len() as u64 <= spilled.base);
            assert_same(&spilled.get(id), &direct);
            assert_eq!(spilled.intern(direct.clone()), id, "re-intern hits it cold");
        }
    }

    #[test]
    fn empty_set_is_one_value() {
        let mut arena = SetArena::with_budget(None);
        let id = arena.intern(StateSet::empty());
        for drained in [
            set(&[9, 80, 300]).difference(&set(&[300, 9, 80])),
            set(&[700, 9000]).filter(|_| false),
            set(&[]).union(&StateSet::empty()),
            set(&[]),
            StateSet::default(),
            arena.get(id),
        ] {
            assert!(drained.is_empty());
            assert_same(&drained, &StateSet::empty());
            assert_eq!(drained.to_vec(), &[] as &[u32]);
        }
    }

    #[test]
    fn a_set_is_four_words() {
        assert!(std::mem::size_of::<StateSet>() <= 32);
    }

    #[test]
    fn wide_sparse_sets_work() {
        let s = set(&[0, 63, 64, 127, 128, 1000]);
        assert_eq!(s.len(), 6);
        assert!(s.contains(StateId(1000)));
        assert!(!s.contains(StateId(999)));
        assert!(!s.contains(StateId(4096)), "beyond the last word");
        assert!(!set(&[700]).contains(StateId(3)), "below the first word");
        assert_eq!(s.to_vec(), &[0, 63, 64, 127, 128, 1000]);
    }

    #[test]
    fn ordering_is_lexicographic_over_members() {
        // Same ordering the former sorted-Vec derive produced.
        let mut v = vec![
            set(&[2, 3]),
            set(&[1, 2, 3, 4, 5]),
            set(&[1]),
            set(&[1, 2, 3, 4, 6]),
            set(&[]),
            set(&[2]),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                set(&[]),
                set(&[1]),
                set(&[1, 2, 3, 4, 5]),
                set(&[1, 2, 3, 4, 6]),
                set(&[2]),
                set(&[2, 3]),
            ]
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(set(&[2, 6, 9]).to_string(), "{2,6,9}");
        assert_eq!(StateSet::empty().to_string(), "{}");
        assert_eq!(set(&[1, 2, 3, 4, 5]).to_string(), "{1,2,3,4,5}");
    }

    #[test]
    fn arena_interns_once() {
        let mut arena = SetArena::new();
        let a = arena.intern(set(&[1, 2]));
        let b = arena.intern(set(&[2, 1, 2]));
        let c = arena.intern(set(&[1, 3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).to_vec(), &[1, 2]);
    }

    /// Push `a ∪ b` onto `list` and hold it to `model`, the distinct
    /// unions in arrival order: the union is `StateSet::union`, its hash
    /// `fx_hash`, a new one takes the next index, and a duplicate returns
    /// the first arrival's index and leaves the list as it was.
    pub(super) fn push_and_check(
        list: &mut SetList,
        model: &mut Vec<StateSet>,
        a: &StateSet,
        b: &StateSet,
    ) {
        let expect = a.union(b);
        let first = model.iter().position(|s| *s == expect);
        let (words, sets) = (list.words.clone(), list.len());
        assert_eq!(list.push_union(a.window(), b.window()), first, "{a} ∪ {b}");
        let i = match first {
            Some(i) => {
                assert_eq!((&list.words, list.len()), (&words, sets), "{a} ∪ {b}");
                i
            }
            None => {
                model.push(expect.clone());
                sets
            }
        };
        assert_same(&list.window(i).to_set(), &expect);
        assert_eq!(list.iter().nth(i).map(|(_, h)| h), Some(fx_hash(&expect)));
        let words = list.words.clone();
        assert_eq!(
            list.push_union(b.window(), a.window()),
            Some(i),
            "{b} ∪ {a}"
        );
        assert_eq!(list.words, words, "a duplicate leaves the stream");
    }

    #[test]
    fn set_list_unions_match_union_and_hash() {
        let cases = [
            (set(&[]), set(&[])),
            (set(&[1, 2]), set(&[2, 3])),         // overlapping
            (set(&[]), set(&[700])),              // ∅ + a base
            (set(&[1, 2, 3, 4, 100]), set(&[7])), // one word + two
            (set(&[5]), set(&[1, 2, 3, 4, 200])), // in place → boxed
            (set(&[0, 64, 128]), set(&[1, 2, 3, 4, 5, 300])), // boxed + boxed
            (set(&[9000]), set(&[130, 200])),     // disjoint windows
            (set(&[3]), set(&[1, 2])),            // a listed union
            (set(&[700]), set(&[])),              // a listed set
            (set(&[130, 200]), set(&[9000, 130])), // a listed boxed one
        ];
        let mut list = SetList::default();
        let mut model = Vec::new();
        for (a, b) in &cases {
            push_and_check(&mut list, &mut model, a, b);
        }
        assert_eq!(model.len(), 7);
        let listed: Vec<StateSet> = list.iter().map(|(w, _)| w.to_set()).collect();
        assert_eq!(listed, model, "arrival order");
        // The read-only copy: the same sets and hashes, but ∅.
        let copy = list.nonempty();
        let kept: Vec<(StateSet, u64)> = copy.iter().map(|(w, h)| (w.to_set(), h)).collect();
        let want: Vec<(StateSet, u64)> =
            model[1..].iter().map(|s| (s.clone(), fx_hash(s))).collect();
        assert_eq!(kept, want);
        assert_eq!(copy.words.len(), list.words.len(), "∅ has no words");
        list.clear();
        assert_eq!(list.push(set(&[1, 2, 3]).window()), None, "cleared");
    }

    #[test]
    fn hash_index_resolves_equal_hashes_in_filing_order() {
        // Items are the caller's: here `items[i]` filed under a hash that
        // only tells odd from even apart, so every probe walks collisions —
        // and the odd run starts in the last slot, wraps, and interleaves
        // with the even one, which growth must not reorder.
        let mut index = HashIndex::default();
        let mut items: Vec<u32> = Vec::new();
        for x in (0..500u32).chain(0..500) {
            let hash = if x & 1 == 1 { u64::MAX } else { 0 };
            let mut asked = Vec::new();
            let found = index.find_or_insert(hash, items.len() as u32, |i| {
                asked.push(i);
                items[i as usize] == x
            });
            assert!(asked.windows(2).all(|w| w[0] < w[1]), "filing order");
            match found {
                Some(i) => assert_eq!(items[i as usize], x),
                None => items.push(x),
            }
        }
        assert_eq!(items, (0..500).collect::<Vec<u32>>());
        assert!(index.slots() >= 1000, "at most half the slots are live");
        index.clear();
        assert_eq!(index.find_or_insert(0, 7, |_| true), None, "cleared");
        assert_eq!(index.find_or_insert(0, 8, |i| i == 7), Some(7));
    }

    #[test]
    fn hash_index_clear_survives_the_epoch_wrapping() {
        let mut index = HashIndex::default();
        assert_eq!(index.find_or_insert(7, 70, |_| true), None);
        // 2³² − 2 clears later the slot still carries stamp 1 …
        index.set_epoch(u32::MAX);
        assert_eq!(index.find_or_insert(9, 90, |_| true), None);
        // … and the next clear wraps the epoch back onto it.
        index.clear();
        assert_eq!(index.epoch(), 1);
        assert_eq!(index.find_or_insert(7, 71, |_| true), None, "stale entry");
        assert_eq!(index.find_or_insert(9, 91, |_| true), None, "cleared entry");
        assert_eq!(index.find_or_insert(7, 72, |_| true), Some(71));
    }

    #[test]
    fn arena_matches_a_map_model_across_index_growths_under_a_budget() {
        // A few thousand interns of ~2 000 distinct sets in a shuffled
        // order — one word, two words across a boundary, boxed — with all
        // but 512 bytes of them on disk, so most probes that reach `holds`
        // reload, and the index doubles eight times along the way without
        // reading a set word.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut arena = SetArena::with_budget(Some(512));
        let mut model: std::collections::HashMap<StateSet, SetId> = Default::default();
        let mut in_order: Vec<StateSet> = Vec::new();
        let mut slots_seen = std::collections::BTreeSet::new();
        for _ in 0..6000 {
            let (a, b) = (next(45) as u32, next(45) as u32);
            let s = match next(3) {
                0 => set(&[a, b]),
                1 => set(&[40 + a, 50 + b]),
                _ => set(&[a, 130 + b, 131 + b]),
            };
            let id = arena.intern(s.clone());
            let first = *model.entry(s.clone()).or_insert_with(|| {
                in_order.push(s.clone());
                SetId(in_order.len() as u32 - 1)
            });
            assert_eq!(id, first, "{s}: the first id, every time");
            slots_seen.insert(arena.lookup.slots());
        }
        assert_eq!(arena.len(), in_order.len());
        assert!(in_order.len() > 1500, "{} distinct sets", in_order.len());
        assert!(slots_seen.len() >= 8, "index sizes seen: {slots_seen:?}");
        assert!(arena.spilled_bytes() > 0 && arena.resident_bytes() <= 512);
        for (i, s) in in_order.iter().enumerate() {
            assert_same(&arena.get(SetId(i as u32)), s);
            assert_eq!(arena.intern(s.clone()), SetId(i as u32));
        }
    }

    #[test]
    fn arena_stays_within_its_budget_and_exact_at_any_budget() {
        // One-word sets, windows of two and three words at every offset
        // mod the block size (so spans cross block boundaries), and every
        // 97th a boxed window of 2 000 words, wider than the whole cache
        // at every budget here. Budgets: none spent on a cache or a suffix
        // (0, and below one block), a cache too small for one set, a few
        // sets, and the `perf` budget.
        let mk = |i: u32| match i % 97 {
            0 => set(&[i, i + 64 * 1999]),
            k if k % 3 == 0 => set(&[i % 50, 64 + i % 61, 130 + i % 7]),
            k if k % 3 == 1 => set(&[200 + i % 40, 270 + i % 3]),
            _ => set(&[i % 63, (i / 63) % 63]),
        };
        let sets: Vec<StateSet> = (0..1500).map(mk).collect();
        let mut plain = SetArena::with_budget(None);
        let ids: Vec<SetId> = sets.iter().map(|s| plain.intern(s.clone())).collect();
        for budget in [0, 16, 31, 300, 2 << 10, 16 << 10] {
            let mut arena = SetArena::with_budget(Some(budget));
            let within = |arena: &SetArena| {
                let cache = arena.cold.as_ref().map_or(0, |c| c.cache_bytes());
                assert!(cache <= budget - budget / SUFFIX_SHARE - budget / BUFFER_SHARE);
                assert!(
                    arena.words.capacity() * 8 <= arena.suffix_room().unwrap(),
                    "suffix at {budget}"
                );
                assert!(arena.resident_bytes() <= budget, "{budget}");
            };
            for (s, &id) in sets.iter().zip(&ids) {
                assert_eq!(arena.intern(s.clone()), id, "budget {budget}");
                within(&arena);
            }
            for (s, &id) in sets.iter().zip(&ids).rev() {
                assert_eq!(arena.intern(s.clone()), id, "re-intern at {budget}");
                within(&arena);
                assert_same(&arena.get(id), s);
                within(&arena);
            }
            assert!(arena.spilled_bytes() > 0);
            assert!(arena.high_water_bytes() <= budget as u64);
            let cache = arena.cold.as_ref().unwrap().cache_bytes();
            assert_eq!(cache > 0, budget >= 2 << 10, "a cache at {budget}: {cache}");
        }
    }

    #[test]
    fn an_arena_whose_words_fit_its_budget_never_spills() {
        // 1 536 one-word sets are exactly 12 KiB: resident, no file, and
        // what the suffix holds is what it counts (a suffix that doubled
        // past 1 024 words would hold 16 KiB). One more spills, and the
        // cache takes the room the suffix gave up.
        let budget = 12 << 10;
        let mut arena = SetArena::with_budget(Some(budget));
        for i in 0..1536 {
            arena.intern(StateSet::singleton(StateId(i)));
            assert!(arena.resident_bytes() <= budget);
        }
        assert_eq!(arena.spilled_bytes(), 0);
        assert!(arena.cold.is_none(), "no spill file");
        assert_eq!(arena.resident_bytes(), budget);
        arena.intern(StateSet::singleton(StateId(1536)));
        assert!(arena.spilled_bytes() > 0);
        let cache = arena.cold.as_ref().unwrap().cache_bytes();
        assert!(cache > budget / 2, "{cache}");
        assert!(arena.words.len() * 8 <= budget / SUFFIX_SHARE / 2);
        assert!(arena.resident_bytes() <= budget);
        for i in 0..=1536 {
            assert_eq!(arena.get(SetId(i)), StateSet::singleton(StateId(i)));
        }
    }

    #[test]
    fn arena_spills_under_budget_and_stays_equivalent() {
        // A tiny-budget arena must hand out the same ids and materialize
        // the same sets as a budget-free one, even once its cold prefix
        // lives on disk — including hash-bucket hits through the reload
        // path when an already-spilled set is re-interned.
        let mk = |i: u32| StateSet::from_iter((0..20).map(move |k| StateId(i * 7 + k * 13)));
        let mut sets: Vec<StateSet> = Vec::new();
        for i in 0..48u32 {
            sets.push(mk(i));
            sets.push(StateSet::from_iter([StateId(i)]));
        }
        sets.push(StateSet::empty());
        let mut plain = SetArena::with_budget(None);
        let mut tiny = SetArena::with_budget(Some(256));
        for s in &sets {
            assert_eq!(plain.intern(s.clone()), tiny.intern(s.clone()));
        }
        assert!(tiny.spilled_bytes() > 0, "tiny budget must actually spill");
        assert_eq!(plain.spilled_bytes(), 0);
        assert!(tiny.high_water_bytes() > 0);
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(tiny.intern(s.clone()), SetId(i as u32), "re-intern hits");
        }
        for (i, s) in sets.iter().enumerate() {
            let id = SetId(i as u32);
            assert_eq!(plain.get(id), tiny.get(id));
            assert_eq!(&tiny.get(id), s);
            assert_eq!(tiny.len_of(id), s.len());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_encoding, assert_same, push_and_check};
    use super::*;
    use proptest::prelude::*;

    /// 0–40 ids around up to two origins below 4 300: one-word sets at
    /// word 0, in-place and boxed windows at a non-zero base, and sparse
    /// pairs of clusters thousands of ids apart all come up.
    fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
        let origin = || prop_oneof![Just(0u32), 0u32..4000];
        let width = prop_oneof![Just(8u32), Just(64), Just(130), Just(300)];
        let picks = prop::collection::vec((any::<bool>(), 0u32..300), 0..41);
        (origin(), origin(), width, picks).prop_map(|(near, far, width, picks)| {
            picks
                .into_iter()
                .map(|(is_far, off)| if is_far { far } else { near } + off % width)
                .collect()
        })
    }

    fn arb_set() -> impl Strategy<Value = StateSet> {
        arb_ids().prop_map(|v| StateSet::from_iter(v.into_iter().map(StateId)))
    }

    /// The sorted-`Vec<u32>` model of a set.
    fn model(v: &[u32]) -> Vec<u32> {
        let mut m = v.to_vec();
        m.sort_unstable();
        m.dedup();
        m
    }

    proptest! {
        /// Union is commutative, associative, idempotent.
        #[test]
        fn union_algebra(a in arb_set(), b in arb_set(), c in arb_set()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(a.union(&a), a);
        }

        /// a ⊆ a∪b; (a∪b)\b ⊆ a; difference then union restores supersets.
        #[test]
        fn subset_difference_laws(a in arb_set(), b in arb_set()) {
            let u = a.union(&b);
            prop_assert!(a.is_subset(&u));
            prop_assert!(b.is_subset(&u));
            prop_assert!(u.difference(&b).is_subset(&a));
            prop_assert_eq!(a.difference(&b).union(&b).difference(&b), a.difference(&b));
        }

        /// Membership agrees with construction.
        #[test]
        fn contains_matches(v in arb_ids(), probe in 0u32..4400) {
            let s = StateSet::from_iter(v.iter().copied().map(StateId));
            prop_assert_eq!(s.contains(StateId(probe)), v.contains(&probe));
            for &x in &v {
                prop_assert!(s.contains(StateId(x)));
            }
        }

        /// Strict subset is irreflexive and implies subset.
        #[test]
        fn strict_subset_laws(a in arb_set(), b in arb_set()) {
            prop_assert!(!a.is_strict_subset(&a));
            if a.is_strict_subset(&b) {
                prop_assert!(a.is_subset(&b));
                prop_assert!(a.len() < b.len());
            }
        }

        /// Every operation agrees with a model over sorted vectors and
        /// leaves the one encoding of its result, the cached length agrees
        /// with iteration, equal sets hash equal, and ordering matches the
        /// vector ordering.
        #[test]
        fn operations_match_sorted_vec_model(va in arb_ids(), vb in arb_ids(), keep in 1u32..5) {
            let (ma, mb) = (model(&va), model(&vb));
            let of = |v: &[u32]| StateSet::from_iter(v.iter().copied().map(StateId));
            let (a, b) = (of(&va), of(&vb));
            assert_same(&a, &of(&ma));
            prop_assert_eq!(a.to_vec(), ma.clone());
            let m_union = model(&[ma.clone(), mb.clone()].concat());
            assert_same(&a.union(&b), &of(&m_union));
            let m_diff: Vec<u32> = ma.iter().copied().filter(|x| !mb.contains(x)).collect();
            assert_same(&a.difference(&b), &of(&m_diff));
            let m_kept: Vec<u32> = ma.iter().copied().filter(|x| x % keep == 0).collect();
            assert_same(&a.filter(|s| s.0 % keep == 0), &of(&m_kept));
            let mut grown = a.clone();
            for &x in &mb {
                grown.insert(StateId(x));
            }
            assert_same(&grown, &of(&m_union));
            prop_assert_eq!(a.is_subset(&b), ma.iter().all(|x| mb.contains(x)));
            prop_assert!(of(&m_diff).is_subset(&a));
            prop_assert_eq!(a.len(), ma.len());
            prop_assert_eq!(a.iter().count(), ma.len());
            prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
            prop_assert_eq!(a == b, ma == mb);
        }

        /// Interning is injective: same handle iff same set. A hit must
        /// also work through the hash-bucket path for spilled sets.
        #[test]
        fn intern_injective(sets in prop::collection::vec(arb_set(), 1..12)) {
            let mut arena = SetArena::new();
            let ids: Vec<SetId> = sets.iter().map(|s| arena.intern(s.clone())).collect();
            for (i, a) in sets.iter().enumerate() {
                assert_same(&arena.get(ids[i]), a);
                for (j, b) in sets.iter().enumerate() {
                    prop_assert_eq!(ids[i] == ids[j], a == b);
                }
            }
        }

        /// A list of unions holds `StateSet::union`'s sets and `fx_hash`'s
        /// hashes, in arrival order, whatever the windows: a duplicate
        /// leaves the stream as it was and answers with the first index.
        #[test]
        fn set_list_matches_union(unions in prop::collection::vec((arb_set(), arb_set()), 1..16)) {
            let mut list = SetList::default();
            let mut model = Vec::new();
            for (a, b) in &unions {
                push_and_check(&mut list, &mut model, a, b);
            }
            let listed: Vec<StateSet> = list.iter().map(|(w, _)| w.to_set()).collect();
            prop_assert_eq!(listed, model);
        }

        /// An arena forced to spill behaves identically to an in-RAM one.
        #[test]
        fn spilled_arena_matches_resident_arena(sets in prop::collection::vec(arb_set(), 1..24)) {
            let mut plain = SetArena::with_budget(None);
            let mut tiny = SetArena::with_budget(Some(64));
            for s in &sets {
                let id = plain.intern(s.clone());
                prop_assert_eq!(id, tiny.intern(s.clone()));
                assert_same(&tiny.get(id), s);
            }
            for i in 0..plain.len() {
                let id = SetId(i as u32);
                assert_same(&plain.get(id), &tiny.get(id));
                assert_encoding(&tiny.get(id));
            }
        }
    }
}
