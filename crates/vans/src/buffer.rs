//! A fully associative LRU buffer with dirty tracking.
//!
//! Used for the RMW buffer, the AIT data buffer, the AIT translation
//! cache, and the case-study structures (Lazy cache levels, the RLB).
//! Entries are keyed by block index (address / entry size); the caller
//! owns the granularity conventions.

use nvsim_types::lru::{Iter, Lru};
use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Result of a buffer lookup or insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The block was present.
    Hit,
    /// The block was absent.
    Miss,
}

/// An entry evicted to make room, reported to the caller for write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block key of the evicted entry.
    pub key: u64,
    /// Whether the entry was dirty (needs write-back).
    pub dirty: bool,
}

/// Fully-associative LRU buffer keyed by `u64` block indices.
///
/// The recency structure is the shared [`Lru`], each entry's value its
/// dirty bit, so every operation is O(1) with no per-access allocation.
/// This matters because the AIT buffer (4096 entries) evicts on every
/// access once a workload's footprint exceeds 16 MB. The buffer adds the
/// lifetime hit and miss counts and its snapshot format.
///
/// Iteration order ([`iter`](LruBuffer::iter)) is most- to
/// least-recently-used, which is deterministic across runs — a property
/// the parallel experiment runner's byte-identical-results guarantee
/// relies on.
///
/// # Example
///
/// ```
/// use vans::buffer::{LruBuffer, Lookup};
/// let mut b = LruBuffer::new(2);
/// assert_eq!(b.touch(1, false), (Lookup::Miss, None));
/// assert_eq!(b.touch(2, true), (Lookup::Miss, None));
/// // 1 is the LRU victim when 3 is inserted.
/// let (res, evicted) = b.touch(3, false);
/// assert_eq!(res, Lookup::Miss);
/// assert_eq!(evicted.unwrap().key, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruBuffer {
    /// Block key → dirty bit, most recently used first.
    lru: Lru<bool>,
    hits: u64,
    misses: u64,
}

impl LruBuffer {
    /// Creates a buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX - 1` slots.
    pub fn new(capacity: usize) -> Self {
        LruBuffer {
            lru: Lru::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Lifetime (hits, misses).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// True if `key` is resident (does not update recency or stats).
    pub fn contains(&self, key: u64) -> bool {
        self.lru.contains(key)
    }

    /// Accesses `key`, inserting it if absent; `write` marks it dirty.
    /// Returns the hit/miss outcome and, on insertion into a full buffer,
    /// the evicted victim.
    pub fn touch(&mut self, key: u64, write: bool) -> (Lookup, Option<Evicted>) {
        if self.touch_hit(key, write) {
            (Lookup::Hit, None)
        } else {
            (Lookup::Miss, self.insert_missed(key, write))
        }
    }

    /// Accesses `key` only if it is resident: a hit becomes the most
    /// recently used entry, is marked dirty if `write`, counts as a hit
    /// and returns `true`. A miss changes nothing and returns `false`;
    /// the caller then installs the key with
    /// [`insert_missed`](Self::insert_missed), as [`touch`](Self::touch)
    /// would, with one index probe fewer.
    #[inline]
    pub fn touch_hit(&mut self, key: u64, write: bool) -> bool {
        match self.lru.get(key) {
            Some(dirty) => {
                *dirty |= write;
                self.hits += 1;
                true
            }
            None => false,
        }
    }

    /// Installs `key`, which the caller has just seen miss, counting the
    /// miss; `write` marks it dirty. Returns the victim evicted from a
    /// full buffer.
    #[inline]
    pub fn insert_missed(&mut self, key: u64, write: bool) -> Option<Evicted> {
        self.misses += 1;
        self.lru
            .insert(key, write)
            .map(|(key, dirty)| Evicted { key, dirty })
    }

    /// Removes `key`, returning whether it was dirty.
    pub fn invalidate(&mut self, key: u64) -> Option<bool> {
        self.lru.remove(key)
    }

    /// Iterates over the resident `(key, dirty)` entries, most- to
    /// least-recently-used.
    pub fn iter(&self) -> Iter<'_, bool> {
        self.lru.iter()
    }

    /// The least-recently-used resident key, if any.
    pub fn peek_lru(&self) -> Option<u64> {
        self.lru.peek_lru().map(|(key, _)| key)
    }

    /// Resets hit/miss statistics.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

impl Snapshot for LruBuffer {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_usize(self.lru.len());
        // (key, dirty) pairs MRU→LRU; restore inserts them LRU→MRU so the
        // rebuilt recency list is identical.
        for (key, dirty) in self.lru.iter() {
            w.put_u64(key);
            w.put_bool(dirty);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let hits = r.get_u64()?;
        let misses = r.get_u64()?;
        let n = r.get_usize()?;
        if n > self.lru.capacity() {
            return Err(r.invalid("resident count exceeds this buffer's capacity"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((r.get_u64()?, r.get_bool()?));
        }
        self.lru.clear();
        for &(key, dirty) in entries.iter().rev() {
            if self.lru.contains(key) {
                return Err(r.invalid("duplicate keys in buffer snapshot"));
            }
            self.lru.insert(key, dirty);
        }
        self.hits = hits;
        self.misses = misses;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_update_recency() {
        let mut b = LruBuffer::new(2);
        b.touch(1, false);
        b.touch(2, false);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(b.touch(1, false).0, Lookup::Hit);
        let (_, ev) = b.touch(3, false);
        assert_eq!(ev.unwrap().key, 2);
        assert!(b.contains(1));
        assert!(b.contains(3));
    }

    #[test]
    fn split_touch_matches_touch() {
        let mut rng = nvsim_types::DetRng::seed_from(0xb0f);
        let mut one = LruBuffer::new(64);
        let mut split = LruBuffer::new(64);
        for _ in 0..20_000 {
            let key = rng.range_u64(0, 100);
            let write = rng.chance(0.3);
            let (res, evicted) = one.touch(key, write);
            let hit = split.touch_hit(key, write);
            assert_eq!(hit, res == Lookup::Hit);
            if !hit {
                assert_eq!(split.insert_missed(key, write), evicted);
            }
            assert_eq!(split.hit_miss(), one.hit_miss());
        }
        assert!(one.iter().eq(split.iter()));
        let (hits, misses) = one.hit_miss();
        assert!(
            hits > 5_000 && misses > 5_000,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut b = LruBuffer::new(1);
        b.touch(7, true);
        let (_, ev) = b.touch(8, false);
        let ev = ev.unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.dirty);
    }

    #[test]
    fn clean_eviction_not_dirty() {
        let mut b = LruBuffer::new(1);
        b.touch(7, false);
        let (_, ev) = b.touch(8, false);
        assert!(!ev.unwrap().dirty);
    }

    #[test]
    fn hit_rate_statistics() {
        let mut b = LruBuffer::new(2);
        b.touch(1, false);
        b.touch(1, false);
        b.touch(2, false);
        assert_eq!(b.hit_miss(), (1, 2));
        b.reset_stats();
        assert_eq!(b.hit_miss(), (0, 0));
    }

    #[test]
    fn iteration_is_mru_first() {
        let mut b = LruBuffer::new(4);
        b.touch(1, false);
        b.touch(2, false);
        b.touch(3, false);
        b.touch(1, false); // 1 becomes MRU
        let keys: Vec<u64> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 2]);
        assert_eq!(b.peek_lru(), Some(2));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut b = LruBuffer::new(4);
        b.touch(5, true);
        assert_eq!(b.invalidate(5), Some(true));
        assert_eq!(b.invalidate(5), None);
    }

    #[test]
    fn invalidated_slots_are_recycled() {
        let mut b = LruBuffer::new(4);
        for k in 0..4 {
            b.touch(k, false);
        }
        b.invalidate(1);
        b.invalidate(3);
        // Reinserting fills the freed room without evicting.
        assert_eq!(b.touch(10, true), (Lookup::Miss, None));
        assert_eq!(b.touch(11, false), (Lookup::Miss, None));
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            [(11, false), (10, true), (2, false), (0, false)]
        );
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut b = LruBuffer::new(8);
        for k in 0..1000 {
            b.touch(k, k % 2 == 0);
            assert!(b.len() <= 8);
        }
    }

    #[test]
    fn eviction_order_follows_recency_under_churn() {
        let mut b = LruBuffer::new(3);
        b.touch(1, false);
        b.touch(2, false);
        b.touch(3, false);
        b.touch(2, false); // order (MRU..LRU): 2 3 1
        let (_, ev) = b.touch(4, false);
        assert_eq!(ev.unwrap().key, 1);
        let (_, ev) = b.touch(5, false);
        assert_eq!(ev.unwrap().key, 3);
        let (_, ev) = b.touch(6, false);
        assert_eq!(ev.unwrap().key, 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        LruBuffer::new(0);
    }

    #[test]
    fn snapshot_preserves_recency_dirt_and_stats() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        b.touch(2, false);
        b.touch(3, true);
        b.touch(1, false); // MRU..LRU: 1 3 2; 1 and 3 dirty
        let mut w = SnapshotWriter::new();
        b.save(&mut w);
        let blob = w.into_bytes();

        let mut restored = LruBuffer::new(4);
        restored.touch(99, true); // pre-existing state must be replaced
        let mut r = SnapshotReader::new(&blob);
        restored.restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            [(1, true), (3, true), (2, false)]
        );
        assert_eq!(restored.hit_miss(), b.hit_miss());
        assert_eq!(restored.peek_lru(), Some(2));
        assert!(!restored.contains(99));
    }

    #[test]
    fn snapshot_rejects_overfull_blob() {
        let mut b = LruBuffer::new(8);
        for k in 0..6 {
            b.touch(k, false);
        }
        let mut w = SnapshotWriter::new();
        b.save(&mut w);
        let blob = w.into_bytes();
        let mut small = LruBuffer::new(2);
        let mut r = SnapshotReader::new(&blob);
        assert!(small.restore(&mut r).is_err());
    }

    #[test]
    fn snapshot_rejects_duplicate_keys() {
        let mut w = SnapshotWriter::new();
        w.put_u64(0);
        w.put_u64(2);
        w.put_usize(2);
        for dirty in [true, false] {
            w.put_u64(7);
            w.put_bool(dirty);
        }
        let blob = w.into_bytes();
        let mut b = LruBuffer::new(4);
        assert!(b.restore(&mut SnapshotReader::new(&blob)).is_err());
    }
}
