//! One logical input made of many shards.
//!
//! Shards exist so the matcher can scan them in parallel, but matching
//! semantics are defined over the *concatenation*: a match may start in
//! one shard and end in another. [`ShardedInput`] provides absolute
//! addressing over the concatenation and hands the matcher the input from
//! any position on as plain `&[u8]` slices — the rest of the shard holding
//! the position, then each later shard whole, so a shard boundary costs
//! one outer-loop turn, not a check per byte — without materializing the
//! joined buffer.

/// Borrowed shards viewed as one contiguous byte string.
#[derive(Debug)]
pub struct ShardedInput<'a> {
    shards: &'a [&'a [u8]],
    /// `starts[i]` is the absolute offset of shard `i`; a final entry
    /// holds the total length, so `starts.len() == shards.len() + 1`.
    starts: Vec<usize>,
}

impl<'a> ShardedInput<'a> {
    /// Wrap a shard list (empty shards are fine).
    pub fn new(shards: &'a [&'a [u8]]) -> Self {
        let mut starts = Vec::with_capacity(shards.len() + 1);
        let mut off = 0usize;
        for s in shards {
            starts.push(off);
            off += s.len();
        }
        starts.push(off);
        ShardedInput { shards, starts }
    }

    /// Total length of the concatenation.
    pub fn total_len(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Absolute `[start, end)` of shard `i`.
    pub fn shard_bounds(&self, i: usize) -> (usize, usize) {
        (self.starts[i], self.starts[i + 1])
    }

    /// The shard holding absolute position `pos`: the last one that starts
    /// at or before it (so never an empty shard unless `pos` is the total
    /// length). `hint` is a shard index; a caller whose positions only
    /// grow passes the previous answer and resolves each shard once, any
    /// other hint costs a binary search. The input has at least one shard.
    #[inline]
    pub(crate) fn shard_at(&self, hint: usize, pos: usize) -> usize {
        debug_assert!(pos <= self.total_len());
        let mut shard = hint;
        if self.starts[shard] > pos {
            shard = self.starts[..self.shards.len()].partition_point(|&s| s <= pos) - 1;
        }
        while shard + 1 < self.shards.len() && self.starts[shard + 1] <= pos {
            shard += 1;
        }
        shard
    }

    /// Shard `shard` from absolute position `pos` (inside it, or its end)
    /// on; `pos` at the shard's start gives the whole shard.
    #[inline]
    pub(crate) fn tail(&self, shard: usize, pos: usize) -> &'a [u8] {
        &self.shards[shard][pos - self.starts[shard]..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_addressing() {
        let shards: &[&[u8]] = &[b"ab", b"", b"cde", b"f"];
        let inp = ShardedInput::new(shards);
        assert_eq!(inp.total_len(), 6);
        assert_eq!(inp.shard_bounds(0), (0, 2));
        assert_eq!(inp.shard_bounds(1), (2, 2));
        assert_eq!(inp.shard_bounds(2), (2, 5));
        assert_eq!(inp.shard_bounds(3), (5, 6));
        // The shard holding each position; the empty shard holds none.
        let holder = [0, 0, 2, 2, 2, 3, 3];
        for (p, holder) in holder.into_iter().enumerate() {
            // From a cold hint, from the exact shard and from past it.
            for hint in [0, holder, 3] {
                let shard = inp.shard_at(hint, p);
                assert_eq!(shard, holder, "shard of {p} from hint {hint}");
                let rest: Vec<u8> = (shard + 1..4)
                    .flat_map(|i| inp.tail(i, inp.starts[i]))
                    .copied()
                    .collect();
                assert_eq!([inp.tail(shard, p), &rest].concat(), &b"abcdef"[p..]);
            }
        }
    }

    #[test]
    fn empty_input() {
        let shards: &[&[u8]] = &[];
        assert_eq!(ShardedInput::new(shards).total_len(), 0);
        let shards2: &[&[u8]] = &[b"", b""];
        let inp2 = ShardedInput::new(shards2);
        assert_eq!(inp2.total_len(), 0);
        assert_eq!(inp2.shard_at(0, 0), 1);
        assert!(inp2.tail(1, 0).is_empty());
    }
}
