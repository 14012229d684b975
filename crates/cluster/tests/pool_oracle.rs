//! The word-level First Fit pool against a bit-by-bit oracle.
//!
//! `ProcessorPool::allocate_first_fit` takes whole runs of free processors
//! a word at a time and `release` sets one masked span per word. The oracle
//! here is the plain definition — one `bool` per processor, the `n`
//! lowest-indexed free ones taken one at a time — and every step of a
//! random allocate/release sequence must leave both with the same ranges,
//! the same free count and the same per-processor state. Pool sizes cover
//! word boundaries (63, 64, 65) and the paper's machines (430, 4 008 and
//! 9 216 cpus).

#![allow(clippy::unwrap_used)]
use bsld_cluster::{ProcSet, ProcessorPool};

/// One flag per processor (`true` = free), allocated one bit at a time.
struct Oracle {
    free: Vec<bool>,
}

impl Oracle {
    fn new(total: u32) -> Self {
        Oracle {
            free: vec![true; total as usize],
        }
    }

    fn free_count(&self) -> u32 {
        self.free.iter().filter(|&&f| f).count() as u32
    }

    /// The `n` lowest-indexed free processors as `(start, len)` ranges.
    fn allocate(&mut self, n: u32) -> Option<Vec<(u32, u32)>> {
        if n > self.free_count() {
            return None;
        }
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        let mut remaining = n;
        for idx in 0..self.free.len() as u32 {
            if remaining == 0 {
                break;
            }
            if !self.free[idx as usize] {
                continue;
            }
            self.free[idx as usize] = false;
            remaining -= 1;
            match ranges.last_mut() {
                Some(last) if last.0 + last.1 == idx => last.1 += 1,
                _ => ranges.push((idx, 1)),
            }
        }
        Some(ranges)
    }

    fn release(&mut self, set: &ProcSet) {
        for idx in set.iter() {
            assert!(!self.free[idx as usize], "oracle double release of {idx}");
            self.free[idx as usize] = true;
        }
    }
}

fn assert_same_state(pool: &ProcessorPool, oracle: &Oracle, what: &str) {
    assert_eq!(pool.free_count(), oracle.free_count(), "{what}: free count");
    for (idx, &free) in oracle.free.iter().enumerate() {
        assert_eq!(pool.is_free(idx as u32), free, "{what}: processor {idx}");
    }
}

/// A deterministic allocate/release walk on a pool of `total` processors.
fn walk(total: u32, seed: u64, steps: usize) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut pool = ProcessorPool::new(total);
    let mut oracle = Oracle::new(total);
    let mut held: Vec<ProcSet> = Vec::new();
    for step in 0..steps {
        let what = format!("pool {total} seed {seed} step {step}");
        let r = next();
        if r % 5 < 2 && !held.is_empty() {
            let set = held.swap_remove((next() as usize) % held.len());
            pool.release(&set);
            oracle.release(&set);
        } else {
            // Mostly small requests that fragment the pool; now and then
            // a wide one spanning many words, or one that cannot fit.
            let n = match r % 7 {
                0 => (next() % (u64::from(total) + 2)) as u32,
                1 => 0,
                _ => (next() % (u64::from(total) / 8 + 2)) as u32,
            };
            let got = pool.allocate_first_fit(n);
            let want = oracle.allocate(n);
            assert_eq!(
                got.as_ref().map(|s| s.ranges().to_vec()),
                want,
                "{what}: allocate {n}"
            );
            if let Some(set) = got {
                assert_eq!(set.count(), n, "{what}: count");
                held.push(set);
            }
        }
        assert_same_state(&pool, &oracle, &what);
    }
    for set in held {
        pool.release(&set);
        oracle.release(&set);
    }
    assert_same_state(&pool, &oracle, "drained");
    assert_eq!(pool.free_count(), total);
}

#[test]
fn word_level_first_fit_matches_the_bit_by_bit_oracle() {
    for total in [1, 63, 64, 65, 430, 4008, 9216] {
        for seed in [1u64, 2010, 4099] {
            walk(total, seed, 300);
        }
    }
}

#[test]
fn whole_words_and_partial_tails_come_back_as_single_ranges() {
    let mut pool = ProcessorPool::new(200);
    let a = pool.allocate_first_fit(3).unwrap(); // [0, 3)
    let b = pool.allocate_first_fit(130).unwrap(); // [3, 133): three words
    assert_eq!(b.ranges(), &[(3, 130)]);
    pool.release(&a);
    // The hole at [0, 3) plus a tail that crosses into word 2.
    let c = pool.allocate_first_fit(10).unwrap();
    assert_eq!(c.ranges(), &[(0, 3), (133, 7)]);
    pool.release(&b);
    let d = pool.allocate_first_fit(140).unwrap();
    assert_eq!(d.ranges(), &[(3, 130), (140, 10)]);
    assert_eq!(pool.free_count(), 200 - 10 - 140);
}
