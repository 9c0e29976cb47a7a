//! A generic fully-associative LRU buffer with dirty tracking.
//!
//! Used for the RMW buffer, the AIT data buffer, the AIT translation
//! cache, and the case-study structures (Lazy cache levels, the RLB).
//! Entries are keyed by block index (address / entry size); the caller
//! owns the granularity conventions.

use nvsim_types::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
// nvsim-lint: allow(unordered-map) — key→slot index only; LRU order (the
// only order ever observed) lives in the intrusive slab list below.
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};

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

/// Slot index sentinel for "no node".
const NIL: u32 = u32::MAX;

/// Odd 64-bit constant (the golden ratio's fraction) for the index
/// hash's multiply.
const FOLD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes [`LruBuffer`] index keys with one keyed multiply-fold: the
/// `u64` key, xored with a per-buffer secret, times a constant, the
/// 128-bit product's halves xored together. Every probe of the RMW
/// buffer, the AIT data buffer and the translation cache hashes a key, so
/// SipHash's rounds cost more than the probe itself.
///
/// The secret comes from [`RandomState`] when the buffer is built, so a
/// client choosing addresses cannot aim them at one bucket. Nothing
/// iterates the index, so the secret never reaches simulated output.
#[derive(Debug, Clone, Copy)]
struct FoldHash {
    /// The secret in the builder; the running hash in a hasher.
    state: u64,
}

impl FoldHash {
    fn keyed() -> Self {
        FoldHash {
            state: RandomState::new().hash_one(FOLD_MULTIPLIER),
        }
    }
}

impl BuildHasher for FoldHash {
    type Hasher = FoldHash;

    fn build_hasher(&self) -> FoldHash {
        *self
    }
}

impl Hasher for FoldHash {
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.state) * u128::from(FOLD_MULTIPLIER);
        // nvsim-lint: allow(cast-truncation) — folds the 128-bit product's two halves
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach `write_u64`; other input folds bytewise.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Key → slot index of an [`LruBuffer`].
// nvsim-lint: allow(unordered-map) — never iterated: `keys()` and eviction
// walk the intrusive list in deterministic MRU→LRU order instead, so the
// per-buffer hash secret never reaches simulated output.
type Index = HashMap<u64, u32, FoldHash>;

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    dirty: bool,
    prev: u32,
    next: u32,
}

/// Fully-associative LRU buffer keyed by `u64` block indices.
///
/// Recency is an intrusive doubly-linked list threaded through a slab of
/// nodes (`prev`/`next` are slot indices), with a `HashMap` from key to
/// slot under a keyed multiply-fold hash. Every operation — lookup,
/// recency reorder, victim selection, eviction — is O(1); there is no
/// per-access allocation and no ordered index to rebuild. This matters
/// because the AIT buffer (4096 entries) evicts on every access once a
/// workload's footprint exceeds 16 MB.
///
/// Iteration order ([`keys`](LruBuffer::keys),
/// [`take_dirty_keys`](LruBuffer::take_dirty_keys),
/// [`flush_all`](LruBuffer::flush_all)) is most- to least-recently-used,
/// which is deterministic across runs — a property the parallel
/// experiment runner's byte-identical-results guarantee relies on.
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
    // nvsim-lint: allow(snapshot-field-coverage) — construction-time configuration; restore validates the resident count against it.
    capacity: usize,
    /// Key -> slot index into `slab`.
    index: Index,
    /// Node storage; slots are recycled through `free`.
    slab: Vec<Node>,
    /// Recycled slot indices (from `invalidate`).
    // nvsim-lint: allow(snapshot-field-coverage) — derived slot bookkeeping; restore rebuilds it by replaying the saved entries through `touch`.
    free: Vec<u32>,
    /// Most-recently-used slot, or `NIL` when empty.
    head: u32,
    /// Least-recently-used slot, or `NIL` when empty.
    // nvsim-lint: allow(snapshot-field-coverage) — derived list tail; restore rebuilds it by replaying the saved entries through `touch`.
    tail: u32,
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
        assert!(capacity > 0, "buffer capacity must be nonzero");
        assert!(
            (capacity as u64) < u64::from(u32::MAX),
            "capacity too large"
        );
        LruBuffer {
            capacity,
            index: Index::with_capacity_and_hasher(capacity + 1, FoldHash::keyed()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime (hits, misses).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// True if `key` is resident (does not update recency or stats).
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// True if `key` is resident and dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.index
            .get(&key)
            .is_some_and(|&s| self.slab[s as usize].dirty)
    }

    /// Unlinks `slot` from the recency list (it must be linked).
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.slab[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Links `slot` at the MRU position.
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let n = &mut self.slab[slot as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Accesses `key`, inserting it if absent; `write` marks it dirty.
    /// Returns the hit/miss outcome and, on insertion into a full buffer,
    /// the evicted victim.
    pub fn touch(&mut self, key: u64, write: bool) -> (Lookup, Option<Evicted>) {
        if let Some(&slot) = self.index.get(&key) {
            self.hits += 1;
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            self.slab[slot as usize].dirty |= write;
            return (Lookup::Hit, None);
        }
        self.misses += 1;
        // Full: recycle the LRU node in place — no allocation, no rehash
        // beyond the map insert/remove pair.
        if self.index.len() >= self.capacity {
            let victim = self.tail;
            let node = self.slab[victim as usize];
            self.unlink(victim);
            self.index.remove(&node.key);
            let n = &mut self.slab[victim as usize];
            n.key = key;
            n.dirty = write;
            self.index.insert(key, victim);
            self.push_front(victim);
            return (
                Lookup::Miss,
                Some(Evicted {
                    key: node.key,
                    dirty: node.dirty,
                }),
            );
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let n = &mut self.slab[s as usize];
                n.key = key;
                n.dirty = write;
                s
            }
            None => {
                let s = self.slab.len() as u32; // nvsim-lint: allow(cast-truncation) — slab growth is bounded by the configured buffer capacity, far below u32::MAX (NIL)
                self.slab.push(Node {
                    key,
                    dirty: write,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.index.insert(key, slot);
        self.push_front(slot);
        (Lookup::Miss, None)
    }

    /// Removes `key`, returning whether it was dirty.
    pub fn invalidate(&mut self, key: u64) -> Option<bool> {
        let slot = self.index.remove(&key)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.slab[slot as usize].dirty)
    }

    /// Clears the dirty bit of `key` (after a write-back).
    pub fn clean(&mut self, key: u64) {
        if let Some(&slot) = self.index.get(&key) {
            self.slab[slot as usize].dirty = false;
        }
    }

    /// Drains every dirty key (clearing the buffer's dirty state) into
    /// `out`, in most- to least-recently-used order. The scratch vector is
    /// cleared first, so callers can reuse one allocation across calls.
    pub fn take_dirty_keys_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        let mut slot = self.head;
        while slot != NIL {
            let n = &mut self.slab[slot as usize];
            if n.dirty {
                out.push(n.key);
                n.dirty = false;
            }
            slot = n.next;
        }
    }

    /// Drains every dirty key (clearing the buffer's dirty state);
    /// returns them in most- to least-recently-used order.
    ///
    /// Allocates a fresh vector; hot paths should prefer
    /// [`take_dirty_keys_into`](LruBuffer::take_dirty_keys_into).
    pub fn take_dirty_keys(&mut self) -> Vec<u64> {
        let mut keys = Vec::new();
        self.take_dirty_keys_into(&mut keys);
        keys
    }

    /// Removes every entry, collecting the dirty keys into `out` (cleared
    /// first) in most- to least-recently-used order.
    pub fn flush_all_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        let mut slot = self.head;
        while slot != NIL {
            let n = self.slab[slot as usize];
            if n.dirty {
                out.push(n.key);
            }
            slot = n.next;
        }
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Removes every entry; returns the dirty keys in most- to
    /// least-recently-used order.
    ///
    /// Allocates a fresh vector; hot paths should prefer
    /// [`flush_all_into`](LruBuffer::flush_all_into).
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        self.flush_all_into(&mut dirty);
        dirty
    }

    /// Iterates over all resident keys, most- to least-recently-used.
    pub fn keys(&self) -> Keys<'_> {
        Keys {
            buf: self,
            slot: self.head,
        }
    }

    /// The least-recently-used resident key, if any.
    pub fn peek_lru(&self) -> Option<u64> {
        (self.tail != NIL).then(|| self.slab[self.tail as usize].key)
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
        w.put_usize(self.index.len());
        // (key, dirty) pairs MRU→LRU; restore replays them LRU→MRU so the
        // rebuilt recency list is identical.
        let mut slot = self.head;
        while slot != NIL {
            let n = &self.slab[slot as usize];
            w.put_u64(n.key);
            w.put_bool(n.dirty);
            slot = n.next;
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let hits = r.get_u64()?;
        let misses = r.get_u64()?;
        let n = r.get_usize()?;
        if n > self.capacity {
            return Err(r.invalid("resident count exceeds this buffer's capacity"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((r.get_u64()?, r.get_bool()?));
        }
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        for &(key, dirty) in entries.iter().rev() {
            self.touch(key, dirty);
        }
        if self.index.len() != n {
            return Err(r.invalid("duplicate keys in buffer snapshot"));
        }
        // The rebuild went through `touch`, which perturbed the counters;
        // the saved lifetime statistics win.
        self.hits = hits;
        self.misses = misses;
        Ok(())
    }
}

/// Iterator over resident keys in recency order (MRU first).
#[derive(Debug)]
pub struct Keys<'a> {
    buf: &'a LruBuffer,
    slot: u32,
}

impl Iterator for Keys<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.slot == NIL {
            return None;
        }
        let n = &self.buf.slab[self.slot as usize];
        self.slot = n.next;
        Some(n.key)
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
    fn write_marks_dirty_and_clean_clears() {
        let mut b = LruBuffer::new(4);
        b.touch(1, false);
        assert!(!b.is_dirty(1));
        b.touch(1, true);
        assert!(b.is_dirty(1));
        b.clean(1);
        assert!(!b.is_dirty(1));
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
    fn flush_all_returns_dirty_only() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        b.touch(2, false);
        b.touch(3, true);
        let mut dirty = b.flush_all();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn take_dirty_keys_leaves_entries_resident() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        b.touch(2, true);
        let mut d = b.take_dirty_keys();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_dirty(1));
    }

    #[test]
    fn scratch_reuse_clears_previous_contents() {
        let mut b = LruBuffer::new(4);
        b.touch(1, true);
        let mut scratch = vec![99, 98];
        b.take_dirty_keys_into(&mut scratch);
        assert_eq!(scratch, vec![1]);
        b.touch(2, true);
        b.flush_all_into(&mut scratch);
        assert_eq!(scratch, vec![2]);
        assert!(b.is_empty());
    }

    #[test]
    fn iteration_is_mru_first() {
        let mut b = LruBuffer::new(4);
        b.touch(1, false);
        b.touch(2, false);
        b.touch(3, false);
        b.touch(1, false); // 1 becomes MRU
        let keys: Vec<u64> = b.keys().collect();
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
        // Reinserting reuses freed slots: the slab never grows past
        // capacity.
        b.touch(10, true);
        b.touch(11, false);
        assert_eq!(b.len(), 4);
        assert!(b.contains(10) && b.contains(11));
        assert!(b.is_dirty(10));
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
            restored.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        );
        assert_eq!(restored.hit_miss(), b.hit_miss());
        assert!(restored.is_dirty(1) && restored.is_dirty(3));
        assert!(!restored.is_dirty(2));
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
}
