//! The pool `spawn` recruits from (§3.2.5 runs a spawned process on "idle
//! PEs from a pool"). `MimdReference`, the §1.1 interpreter and the SIMD
//! machine all recruit through [`PePool`]; how each treats a halted PE is
//! its own choice, made by calling [`PePool::release`] or not.

/// Which PEs are idle, and which idle PE a spawner gets: the lowest.
/// Callers ask in ascending spawner order, so the lowest spawner of a step
/// gets the lowest idle PE.
#[derive(Debug, Clone, Default)]
pub struct PePool {
    idle: Vec<bool>,
    count: usize,
    /// No idle PE lies below this index.
    low: usize,
}

impl PePool {
    /// A pool of PEs `0..n`, of which those with `is_idle(pe)` are idle.
    pub fn new(n: usize, is_idle: impl FnMut(usize) -> bool) -> Self {
        let idle: Vec<bool> = (0..n).map(is_idle).collect();
        let count = idle.iter().filter(|&&i| i).count();
        PePool {
            idle,
            count,
            low: 0,
        }
    }

    /// How many PEs are idle.
    pub fn idle(&self) -> usize {
        self.count
    }

    /// Take the lowest idle PE out of the pool, or `None` if none is idle.
    pub fn recruit(&mut self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let at = self.idle[self.low..].iter().position(|&i| i);
        let pe = self.low + at.expect("an idle PE at or above `low`");
        self.idle[pe] = false;
        self.count -= 1;
        self.low = pe + 1;
        Some(pe)
    }

    /// Put `pe` back in the pool (a no-op if it is idle already).
    pub fn release(&mut self, pe: usize) {
        if !std::mem::replace(&mut self.idle[pe], true) {
            self.count += 1;
            self.low = self.low.min(pe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn an_empty_pool_recruits_nothing() {
        let mut pool = PePool::new(0, |_| true);
        assert_eq!((pool.idle(), pool.recruit()), (0, None));
        let mut busy = PePool::new(5, |_| false);
        assert_eq!((busy.idle(), busy.recruit()), (0, None));
    }

    #[test]
    fn a_full_pool_recruits_in_ascending_order_until_none() {
        let mut pool = PePool::new(4, |_| true);
        assert_eq!(pool.idle(), 4);
        let got: Vec<_> = std::iter::from_fn(|| pool.recruit()).collect();
        assert_eq!(got, [0, 1, 2, 3]);
        assert_eq!((pool.idle(), pool.recruit()), (0, None));
    }

    #[test]
    fn only_the_idle_pes_are_recruited() {
        let mut pool = PePool::new(6, |pe| pe % 2 == 1);
        assert_eq!(pool.idle(), 3);
        let got: Vec<_> = std::iter::from_fn(|| pool.recruit()).collect();
        assert_eq!(got, [1, 3, 5]);
    }

    #[test]
    fn a_release_below_the_low_water_index_is_recruited_next() {
        let mut pool = PePool::new(8, |pe| pe >= 4);
        assert_eq!((pool.recruit(), pool.recruit()), (Some(4), Some(5)));
        pool.release(1);
        pool.release(1);
        assert_eq!(pool.idle(), 3);
        assert_eq!(pool.recruit(), Some(1));
        assert_eq!(pool.recruit(), Some(6));
        pool.release(5);
        assert_eq!((pool.recruit(), pool.recruit()), (Some(5), Some(7)));
        assert_eq!((pool.idle(), pool.recruit()), (0, None));
    }

    proptest! {
        /// Any sequence of recruits and releases, against the literal
        /// model: the lowest `true` of a `Vec<bool>`. A step below 130
        /// releases that PE (mod `n`), any other recruits.
        #[test]
        fn recruit_and_release_match_the_lowest_idle_model(
            width in 0usize..5,
            start in prop::collection::vec(any::<bool>(), 130),
            steps in prop::collection::vec(0usize..260, 0..400),
        ) {
            let n = [1, 63, 64, 65, 130][width];
            let mut model = start[..n].to_vec();
            let mut pool = PePool::new(n, |pe| model[pe]);
            for step in steps {
                if step < 130 {
                    model[step % n] = true;
                    pool.release(step % n);
                } else {
                    let want = model.iter().position(|&i| i);
                    if let Some(pe) = want {
                        model[pe] = false;
                    }
                    prop_assert_eq!(pool.recruit(), want);
                }
                prop_assert_eq!(pool.idle(), model.iter().filter(|&&i| i).count());
            }
        }
    }
}
