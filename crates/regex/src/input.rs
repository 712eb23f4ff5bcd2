//! One logical input made of many shards.
//!
//! Shards exist so the matcher can scan them in parallel, but matching
//! semantics are defined over the *concatenation*: a match may start in
//! one shard and end in another. [`ShardedInput`] provides absolute
//! addressing over the concatenation and hands the matcher the input from
//! any position on as plain `&[u8]` slices — one per shard, so a shard
//! boundary costs one outer-loop turn, not a check per byte — without
//! materializing the joined buffer.

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

    /// The input from absolute position `pos` on: the rest of the shard
    /// holding `pos`, then every later shard whole. `shard` is a hint at
    /// or before that shard and is advanced to it, so a caller whose
    /// positions only grow resolves each shard once.
    pub(crate) fn slices_from(
        &self,
        shard: &mut usize,
        pos: usize,
    ) -> impl Iterator<Item = &'a [u8]> {
        debug_assert!(pos <= self.total_len() && self.starts[*shard] <= pos);
        while *shard + 1 < self.shards.len() && self.starts[*shard + 1] <= pos {
            *shard += 1;
        }
        let shards: &'a [&'a [u8]] = self.shards;
        let (first, rest): (&'a [u8], _) = match shards.get(*shard) {
            Some(s) => (&s[pos - self.starts[*shard]..], &shards[*shard + 1..]),
            None => (&[], shards),
        };
        std::iter::once(first).chain(rest.iter().copied())
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
            // From a cold hint and from the exact shard alike.
            for mut hint in [0, holder] {
                let got: Vec<u8> = inp.slices_from(&mut hint, p).flatten().copied().collect();
                assert_eq!(got, &b"abcdef"[p..], "slices from {p}");
                assert_eq!(hint, holder, "hint advanced to the shard of {p}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let shards: &[&[u8]] = &[];
        let inp = ShardedInput::new(shards);
        assert_eq!(inp.total_len(), 0);
        assert_eq!(inp.slices_from(&mut 0, 0).flatten().count(), 0);
        let shards2: &[&[u8]] = &[b"", b""];
        let inp2 = ShardedInput::new(shards2);
        assert_eq!(inp2.total_len(), 0);
        assert_eq!(inp2.slices_from(&mut 0, 0).flatten().count(), 0);
    }
}
