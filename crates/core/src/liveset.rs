//! The live multiset behind windowed/deletable serving: which inserted
//! rows are still alive, in arrival order.
//!
//! The online hull itself is insert-only (Algorithm 2's structure has no
//! cheap delete), so deletion is served by **tombstone-then-correct**:
//! the serving layer tracks this multiset next to the hull, tombstones
//! departing rows, and — when a tombstone could matter — corrects the
//! hull from the rows [`LiveSet::live_rows`] walks (a closed-star repair
//! or a full bulk build). Theorem 4.2's order-independence makes either
//! canonically equivalent to any insertion order of the survivors,
//! which is what lets the whole design skip fine-grained dynamic-hull
//! locking.
//!
//! Duplicate coordinates are counted (a multiset), and a delete kills
//! the **oldest** live copy: survivors are always a suffix of each
//! coordinate's arrival list, so window expiry (oldest-first) and
//! explicit deletes compose without tracking per-copy identity.

use std::collections::{vec_deque, HashMap, VecDeque};

/// Per-shard retention policy for windowed serving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// Keep everything; only explicit deletes remove rows.
    #[default]
    None,
    /// Keep at most this many live rows; inserting past the bound
    /// expires the oldest live rows (count-bounded sliding window).
    Count(usize),
    /// Keep rows for this many publication epochs: a row inserted at
    /// epoch `e` expires once the shard publishes epoch `e + n`
    /// (logical-time-bounded window).
    Epochs(u64),
}

/// What [`LiveSet::remove`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// No live copy of the row existed — nothing to tombstone.
    Miss,
    /// A duplicate copy died but at least one live copy remains; the
    /// hull cannot have changed.
    Dec,
    /// The last live copy died; the row is gone from the live set.
    Gone,
}

/// One arrival in the FIFO, live or already dead.
#[derive(Debug)]
struct Arrival {
    row: Vec<i64>,
    /// The publication epoch it arrived under.
    epoch: u64,
    live: bool,
}

/// The live copies of one coordinate row.
#[derive(Debug)]
struct Copies {
    live: usize,
    /// Sequence number of the oldest live copy: the one a delete kills.
    oldest: u64,
}

/// The live multiset: per-coordinate live counts plus the arrival-order
/// FIFO that windows expire from and corrections walk survivors from.
#[derive(Debug, Default)]
pub struct LiveSet {
    /// Coordinate rows with at least one live copy.
    copies: HashMap<Vec<i64>, Copies>,
    /// Every arrival still in the FIFO (live or dead), oldest first.
    fifo: VecDeque<Arrival>,
    /// Sequence number of the FIFO's front: arrival `seq` sits at
    /// position `seq - head`.
    head: u64,
    /// Total live rows (sum of the live copies).
    live: usize,
}

/// The live rows of a [`LiveSet`] in arrival order, borrowed; see
/// [`LiveSet::live_rows`].
#[derive(Clone)]
pub struct LiveRows<'a> {
    fifo: vec_deque::Iter<'a, Arrival>,
    left: usize,
}

impl<'a> Iterator for LiveRows<'a> {
    type Item = &'a [i64];

    fn next(&mut self) -> Option<&'a [i64]> {
        let a = self.fifo.find(|a| a.live)?;
        self.left -= 1;
        Some(&a.row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for LiveRows<'_> {}

impl LiveSet {
    /// An empty live set.
    pub fn new() -> LiveSet {
        LiveSet::default()
    }

    /// Record one inserted row arriving at publication epoch `epoch`.
    pub fn insert(&mut self, row: Vec<i64>, epoch: u64) {
        let seq = self.head + self.fifo.len() as u64;
        self.copies
            .entry(row.clone())
            .and_modify(|c| c.live += 1)
            .or_insert(Copies {
                live: 1,
                oldest: seq,
            });
        self.fifo.push_back(Arrival {
            row,
            epoch,
            live: true,
        });
        self.live += 1;
    }

    /// Kill the oldest live copy of `row`, if any.
    pub fn remove(&mut self, row: &[i64]) -> RemoveOutcome {
        let Some(c) = self.copies.get_mut(row) else {
            return RemoveOutcome::Miss;
        };
        let at = (c.oldest - self.head) as usize;
        self.fifo[at].live = false;
        self.live -= 1;
        c.live -= 1;
        if c.live == 0 {
            self.copies.remove(row);
            return RemoveOutcome::Gone;
        }
        // Live copies are a suffix of the row's arrivals, so the next
        // arrival of the row is the new oldest live copy.
        let next = self
            .fifo
            .range(at + 1..)
            .position(|a| a.row == row)
            .expect("a younger live copy");
        c.oldest += next as u64 + 1;
        RemoveOutcome::Dec
    }

    /// Live copies of `row` (0 when absent).
    pub fn count(&self, row: &[i64]) -> usize {
        self.copies.get(row).map_or(0, |c| c.live)
    }

    /// Total live rows.
    pub fn live(&self) -> usize {
        self.live
    }

    /// FIFO entries that are dead but not yet compacted away — the
    /// memory the next compaction reclaims.
    pub fn dead_entries(&self) -> usize {
        self.fifo.len() - self.live
    }

    /// Expire the `n` oldest **live** rows, returning their coordinates
    /// in expiry order. Rows whose last live copy dies here are exactly
    /// the returned rows with no remaining [`LiveSet::count`].
    pub fn expire_oldest(&mut self, n: usize) -> Vec<Vec<i64>> {
        let mut out = Vec::with_capacity(n.min(self.live));
        while out.len() < n && self.live > 0 {
            let a = self.fifo.pop_front().expect("live > 0 implies entries");
            self.head += 1;
            if !a.live {
                continue;
            }
            // The front live entry is the oldest live copy of its row.
            let c = self.copies.get_mut(&a.row).expect("live entry has copies");
            c.live -= 1;
            if c.live == 0 {
                self.copies.remove(&a.row);
            } else {
                let next = self
                    .fifo
                    .iter()
                    .position(|b| b.row == a.row)
                    .expect("a younger live copy");
                c.oldest = self.head + next as u64;
            }
            self.live -= 1;
            out.push(a.row);
        }
        out
    }

    /// Apply `policy` after the shard published epoch `now`: expire
    /// whatever the window no longer retains, oldest first.
    pub fn expire_window(&mut self, policy: &WindowPolicy, now: u64) -> Vec<Vec<i64>> {
        match *policy {
            WindowPolicy::None => Vec::new(),
            WindowPolicy::Count(cap) => {
                let excess = self.live.saturating_sub(cap);
                self.expire_oldest(excess)
            }
            WindowPolicy::Epochs(n) => {
                let mut out = Vec::new();
                while let Some(a) = self.fifo.front() {
                    if now.saturating_sub(a.epoch) < n {
                        break;
                    }
                    if a.live {
                        out.extend(self.expire_oldest(1));
                    } else {
                        // Dead prefix entries pop for free.
                        self.fifo.pop_front();
                        self.head += 1;
                    }
                }
                out
            }
        }
    }

    /// The live rows in arrival order, borrowed: one pass over the FIFO
    /// that allocates nothing. For a coordinate with dead older copies,
    /// only the youngest `count` arrivals are live.
    pub fn live_rows(&self) -> LiveRows<'_> {
        LiveRows {
            fifo: self.fifo.iter(),
            left: self.live,
        }
    }

    /// [`LiveSet::live_rows`], copied out — the rows a checkpoint
    /// journals and ships.
    pub fn survivors(&self) -> Vec<Vec<i64>> {
        self.live_rows().map(<[i64]>::to_vec).collect()
    }

    /// Drop every dead FIFO entry (after a checkpoint journaled the
    /// survivors): the FIFO shrinks in place to exactly the live rows,
    /// re-stamped as arriving at epoch `epoch`.
    pub fn compact(&mut self, epoch: u64) {
        self.fifo.retain(|a| a.live);
        self.head = 0;
        for c in self.copies.values_mut() {
            c.oldest = u64::MAX;
        }
        for (seq, a) in self.fifo.iter_mut().enumerate() {
            a.epoch = epoch;
            let c = self.copies.get_mut(&a.row).expect("live entry has copies");
            c.oldest = c.oldest.min(seq as u64);
        }
        debug_assert_eq!(self.fifo.len(), self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(s: &LiveSet) -> Vec<Vec<i64>> {
        s.survivors()
    }

    #[test]
    fn multiset_delete_semantics() {
        let mut s = LiveSet::new();
        s.insert(vec![1, 1], 1);
        s.insert(vec![2, 2], 1);
        s.insert(vec![1, 1], 2);
        assert_eq!(s.live(), 3);
        assert_eq!(s.remove(&[3, 3]), RemoveOutcome::Miss);
        assert_eq!(s.remove(&[1, 1]), RemoveOutcome::Dec);
        assert_eq!(s.count(&[1, 1]), 1);
        // The oldest copy died: the survivor list keeps the epoch-2 one.
        assert_eq!(rows(&s), vec![vec![2, 2], vec![1, 1]]);
        assert_eq!(s.remove(&[1, 1]), RemoveOutcome::Gone);
        assert_eq!(s.remove(&[1, 1]), RemoveOutcome::Miss);
        assert_eq!(rows(&s), vec![vec![2, 2]]);
        assert_eq!(s.live(), 1);
        assert_eq!(s.dead_entries(), 2);
    }

    #[test]
    fn count_window_expires_oldest_live() {
        let mut s = LiveSet::new();
        for i in 0..5 {
            s.insert(vec![i, i], i as u64);
        }
        assert_eq!(s.remove(&[0, 0]), RemoveOutcome::Gone);
        let expired = s.expire_window(&WindowPolicy::Count(2), 5);
        // live was 4, cap 2: the two oldest live rows go, skipping the
        // already-dead [0,0] entry.
        assert_eq!(expired, vec![vec![1, 1], vec![2, 2]]);
        assert_eq!(rows(&s), vec![vec![3, 3], vec![4, 4]]);
    }

    #[test]
    fn epoch_window_expires_by_age() {
        let mut s = LiveSet::new();
        s.insert(vec![0, 0], 1);
        s.insert(vec![1, 1], 2);
        s.insert(vec![2, 2], 5);
        let expired = s.expire_window(&WindowPolicy::Epochs(3), 5);
        assert_eq!(expired, vec![vec![0, 0], vec![1, 1]]);
        assert_eq!(rows(&s), vec![vec![2, 2]]);
        assert!(s.expire_window(&WindowPolicy::Epochs(3), 5).is_empty());
        assert_eq!(
            s.expire_window(&WindowPolicy::Epochs(3), 8),
            vec![vec![2, 2]]
        );
    }

    #[test]
    fn compact_drops_dead_entries_and_preserves_survivors() {
        let mut s = LiveSet::new();
        for i in 0..6 {
            s.insert(vec![i], i as u64);
        }
        s.remove(&[1]);
        s.remove(&[4]);
        let before = rows(&s);
        assert_eq!(s.dead_entries(), 2);
        s.compact(9);
        assert_eq!(s.dead_entries(), 0);
        assert_eq!(rows(&s), before);
        assert_eq!(s.live(), 4);
        // Everything now dates from epoch 9.
        assert!(s.expire_window(&WindowPolicy::Epochs(1), 9).is_empty());
        assert_eq!(s.expire_window(&WindowPolicy::Epochs(1), 10).len(), 4);
    }

    /// Deletes, expiries and compactions over a duplicate-heavy stream
    /// agree with a naive model that scans for the oldest live copy.
    #[test]
    fn duplicate_heavy_stream_matches_naive_model() {
        let mut s = LiveSet::new();
        let mut model: Vec<(Vec<i64>, bool)> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for step in 0..3000u64 {
            let row = vec![next(7) as i64, next(3) as i64];
            match next(10) {
                0..=4 => {
                    s.insert(row.clone(), step);
                    model.push((row.clone(), true));
                }
                5..=7 => {
                    let hit = model.iter_mut().find(|(r, l)| *l && *r == row);
                    let expect = match hit {
                        None => RemoveOutcome::Miss,
                        Some(e) => {
                            e.1 = false;
                            if model.iter().any(|(r, l)| *l && *r == row) {
                                RemoveOutcome::Dec
                            } else {
                                RemoveOutcome::Gone
                            }
                        }
                    };
                    assert_eq!(s.remove(&row), expect, "step {step}");
                }
                8 => {
                    let n = next(3) as usize;
                    let mut expect = Vec::new();
                    for e in model.iter_mut().filter(|e| e.1).take(n) {
                        e.1 = false;
                        expect.push(e.0.clone());
                    }
                    assert_eq!(s.expire_oldest(n), expect, "step {step}");
                }
                _ => {
                    s.compact(step);
                    model.retain(|e| e.1);
                    assert_eq!(s.dead_entries(), 0);
                }
            }
            let live: Vec<Vec<i64>> = model.iter().filter(|e| e.1).map(|e| e.0.clone()).collect();
            assert_eq!(s.live(), live.len());
            assert_eq!(s.live_rows().len(), live.len());
            assert_eq!(rows(&s), live, "step {step}");
            assert_eq!(s.count(&row), live.iter().filter(|r| **r == row).count());
        }
    }
}
