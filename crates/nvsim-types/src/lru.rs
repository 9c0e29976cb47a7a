//! A fully associative LRU map from `u64` keys to small `Copy` values.
//!
//! [`Lru`] backs VANS's on-DIMM buffers (RMW buffer, AIT buffer and
//! translation cache, LSQ, the Lazy-cache levels and the RLB) and the
//! core's TLB arrays; each wraps it with its own counters and snapshot
//! format. Recency is a doubly linked list threaded through a slab of
//! nodes, found through a key → slot index, so every operation is O(1)
//! with no allocation per access. Iteration runs from most to least
//! recently used (or back), the same in every run.
//!
//! # Example
//!
//! ```
//! use nvsim_types::lru::Lru;
//!
//! let mut lru = Lru::new(2);
//! assert_eq!(lru.insert(1, 10u64), None);
//! assert_eq!(lru.insert(2, 20), None);
//! *lru.get(1).unwrap() += 1; // a hit: 1 becomes the most recently used
//! assert_eq!(lru.insert(3, 30), Some((2, 20))); // full: 2 is the victim
//! assert_eq!(lru.iter().collect::<Vec<_>>(), [(3, 30), (1, 11)]);
//! assert_eq!(lru.peek_lru(), Some((1, 11)));
//! ```

#[expect(
    clippy::disallowed_types,
    reason = "key→slot index only; LRU order (the only order ever observed) lives in \
              the intrusive slab list below"
)]
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};

/// Slot index sentinel for "no node".
const NIL: u32 = u32::MAX;

/// Odd 64-bit constant (the golden ratio's fraction) for the index
/// hash's multiply.
const FOLD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes [`Lru`] index keys with one keyed multiply-fold: the `u64`
/// key, xored with a per-map secret, times a constant, the 128-bit
/// product's halves xored together. Every probe of an on-DIMM buffer or
/// a TLB array hashes a key, so SipHash's rounds cost more than the probe
/// itself.
///
/// The secret comes from [`RandomState`] when the map is built, so a
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

    #[inline]
    fn build_hasher(&self) -> FoldHash {
        *self
    }
}

impl Hasher for FoldHash {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.state) * u128::from(FOLD_MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach `write_u64`; other input folds bytewise.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Key → slot index of an [`Lru`].
#[expect(
    clippy::disallowed_types,
    reason = "never iterated: `iter()` and eviction walk the intrusive list in \
              deterministic MRU→LRU order instead, so the per-map hash secret never \
              reaches simulated output"
)]
type Index = HashMap<u64, u32, FoldHash>;

/// One resident entry and its links. 24 bytes for a `bool` or a `u64`
/// value.
#[derive(Debug, Clone, Copy)]
struct Node<V> {
    key: u64,
    value: V,
    /// Neighbour towards the most recently used end, or `NIL`.
    prev: u32,
    /// Neighbour towards the least recently used end, or `NIL`.
    next: u32,
}

/// A fully associative LRU map of at most `capacity` entries, keyed by
/// `u64`. [`get`](Lru::get) makes a hit the most recently used entry;
/// [`peek`](Lru::peek) and [`contains`](Lru::contains) leave recency
/// alone.
#[derive(Debug, Clone)]
pub struct Lru<V> {
    capacity: usize,
    /// Key → slot index into `slab`.
    index: Index,
    /// Node storage; slots are recycled through `free`.
    slab: Vec<Node<V>>,
    /// Slots freed by `remove`.
    free: Vec<u32>,
    /// Most recently used slot, or `NIL` when empty.
    head: u32,
    /// Least recently used slot, or `NIL` when empty.
    tail: u32,
    /// Index inserts since `new` or the last `clear`.
    index_inserts: usize,
    /// The room `new` gave the index, until `index_insert` grows it;
    /// `usize::MAX` after.
    index_room: usize,
}

impl<V: Copy> Lru<V> {
    /// Creates an empty map holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX - 1` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be nonzero");
        assert!(
            (capacity as u64) < u64::from(u32::MAX),
            "capacity too large"
        );
        let index = Index::with_capacity_and_hasher(capacity + 1, FoldHash::keyed());
        Lru {
            capacity,
            index_inserts: 0,
            index_room: index.capacity(),
            index,
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `key` is resident; leaves recency alone.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// The value of `key`, leaving recency alone.
    #[inline]
    pub fn peek(&self, key: u64) -> Option<&V> {
        let &slot = self.index.get(&key)?;
        Some(&self.slab[slot as usize].value)
    }

    /// The value of `key`, which becomes the most recently used entry.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<&mut V> {
        let &slot = self.index.get(&key)?;
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(&mut self.slab[slot as usize].value)
    }

    /// Adds `key`, which must be absent, as the most recently used entry.
    /// When the map is full, the least recently used entry makes room and
    /// is returned.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        debug_assert!(!self.contains(key), "key {key} is resident");
        if self.index.len() >= self.capacity {
            // Full: recycle the LRU node in place.
            let slot = self.tail;
            let victim = self.slab[slot as usize];
            self.unlink(slot);
            self.index.remove(&victim.key);
            let n = &mut self.slab[slot as usize];
            n.key = key;
            n.value = value;
            self.index_insert(key, slot);
            self.push_front(slot);
            return Some((victim.key, victim.value));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let n = &mut self.slab[s as usize];
                n.key = key;
                n.value = value;
                s
            }
            None => {
                let s = self.slab.len() as u32; // nvsim-lint: allow(cast-truncation) — the slab never outgrows the capacity, which `new` keeps below u32::MAX (NIL)
                self.slab.push(Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                s
            }
        };
        self.index_insert(key, slot);
        self.push_front(slot);
        None
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.index.remove(&key)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.slab[slot as usize].value)
    }

    /// Removes every entry. The index keeps its allocation.
    pub fn clear(&mut self) {
        self.index.clear();
        self.index_inserts = 0;
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// The least recently used entry, if any.
    pub fn peek_lru(&self) -> Option<(u64, V)> {
        (self.tail != NIL).then(|| {
            let n = &self.slab[self.tail as usize];
            (n.key, n.value)
        })
    }

    /// Iterates over the entries from most to least recently used; `rev`
    /// runs from least to most.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            slab: &self.slab,
            front: self.head,
            back: self.tail,
            left: self.len(),
        }
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

    /// Links `slot` at the most recently used end.
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

    /// Maps `key` to `slot`, growing the index once, at a point set by
    /// the operations alone.
    ///
    /// Removals leave tombstones where the per-map secret hashed the
    /// keys, and hashbrown grows a table whose tombstones use up its room;
    /// left to that, the growth would come at a different access in every
    /// run, and the freed table would move the allocator's thresholds and
    /// the process's resident memory with it. No table can run out of
    /// room before as many inserts since its last `clear` as it has room,
    /// so the index is grown at that insert instead, to at least twice
    /// the most keys ever resident: from then on, hashbrown cleans out
    /// tombstones in place.
    fn index_insert(&mut self, key: u64, slot: u32) {
        self.index_inserts += 1;
        if self.index_inserts == self.index_room {
            self.index.reserve(self.index_room + 1 - self.index.len());
            self.index_room = usize::MAX;
        }
        self.index.insert(key, slot);
    }
}

/// Iterator over an [`Lru`]'s `(key, value)` entries, most recently used
/// first; [`Lru::iter`] builds it.
#[derive(Debug, Clone)]
pub struct Iter<'a, V> {
    slab: &'a [Node<V>],
    /// Next slot from the front, or `NIL`.
    front: u32,
    /// Next slot from the back, or `NIL`.
    back: u32,
    /// Entries not yet yielded from either end.
    left: usize,
}

impl<V: Copy> Iterator for Iter<'_, V> {
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        if self.left == 0 {
            return None;
        }
        let n = &self.slab[self.front as usize];
        self.front = n.next;
        self.left -= 1;
        Some((n.key, n.value))
    }
}

impl<V: Copy> DoubleEndedIterator for Iter<'_, V> {
    fn next_back(&mut self) -> Option<(u64, V)> {
        if self.left == 0 {
            return None;
        }
        let n = &self.slab[self.back as usize];
        self.back = n.prev;
        self.left -= 1;
        Some((n.key, n.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    #[test]
    fn nodes_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Node<bool>>(), 24);
        assert_eq!(std::mem::size_of::<Node<u64>>(), 24);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        Lru::<bool>::new(0);
    }

    #[test]
    fn iteration_from_both_ends_meets_once() {
        let mut lru = Lru::new(8);
        for k in 0..5 {
            lru.insert(k, ());
        }
        let mut it = lru.iter();
        assert_eq!(it.next(), Some((4, ())));
        assert_eq!(it.next_back(), Some((0, ())));
        assert_eq!(it.next_back(), Some((1, ())));
        assert_eq!(it.next(), Some((3, ())));
        assert_eq!(it.next_back(), Some((2, ())));
        assert_eq!((it.next(), it.next_back()), (None, None));
    }

    #[test]
    fn removed_slots_are_recycled() {
        let mut lru = Lru::new(4);
        for k in 0..4 {
            lru.insert(k, false);
        }
        assert_eq!(lru.remove(1), Some(false));
        assert_eq!(lru.remove(1), None);
        lru.remove(3);
        // Reinserting reuses the freed slots: the slab never grows past
        // the capacity, and nothing is evicted until the map is full.
        assert_eq!(lru.insert(10, true), None);
        assert_eq!(lru.insert(11, false), None);
        assert_eq!(lru.slab.len(), 4);
        assert_eq!(lru.insert(12, false), Some((0, false)));
        lru.clear();
        assert!(lru.is_empty() && lru.peek_lru().is_none());
        assert_eq!(lru.iter().next(), None);
    }

    #[test]
    fn index_grows_at_the_same_access_whatever_the_secret() {
        // Eight maps that differ only in their hash secrets, so their
        // tombstones fall differently. Each index's room once cleared (its
        // allocation) must change at the same access in all of them, and
        // only once.
        let mut maps: Vec<Lru<bool>> = (0..8).map(|_| Lru::new(64)).collect();
        let room = |m: &Lru<bool>| {
            let mut index = m.index.clone();
            index.clear();
            index.capacity()
        };
        let mut rooms = vec![room(&maps[0])];
        let mut rng = DetRng::seed_from(0xc0de);
        for i in 0..20_000u64 {
            let key = rng.range_u64(0, 1 << 20);
            for m in &mut maps {
                if m.get(key).is_none() {
                    m.insert(key, false);
                }
                if i % 5 == 0 {
                    m.remove(key);
                }
            }
            let now: Vec<usize> = maps.iter().map(room).collect();
            assert!(
                now.iter().all(|&r| r == now[0]),
                "access {i}: rooms {now:?}"
            );
            if rooms.last() != Some(&now[0]) {
                rooms.push(now[0]);
            }
        }
        assert_eq!(rooms.len(), 2, "rooms over the run: {rooms:?}");
    }

    /// The LRU as a linear list of `(key, value, last use)`: the
    /// reference the slab and its recency list must match.
    struct LinearLru {
        entries: Vec<(u64, u64, u64)>,
        capacity: usize,
        clock: u64,
    }

    impl LinearLru {
        fn position(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            self.clock += 1;
            let i = self.position(key)?;
            self.entries[i].2 = self.clock;
            Some(self.entries[i].1)
        }

        fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
            self.clock += 1;
            let mut victim = None;
            if self.entries.len() >= self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].2)
                    .unwrap();
                let (k, v, _) = self.entries.swap_remove(lru);
                victim = Some((k, v));
            }
            self.entries.push((key, value, self.clock));
            victim
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            let i = self.position(key)?;
            Some(self.entries.swap_remove(i).1)
        }

        /// `(key, value)` from most to least recently used.
        fn order(&self) -> Vec<(u64, u64)> {
            let mut e = self.entries.clone();
            e.sort_unstable_by_key(|e| std::cmp::Reverse(e.2));
            e.into_iter().map(|(k, v, _)| (k, v)).collect()
        }
    }

    #[test]
    fn matches_linear_reference() {
        for capacity in [1usize, 4, 64, 1536, 4096] {
            let mut lru = Lru::new(capacity);
            let mut r = LinearLru {
                entries: Vec::new(),
                capacity,
                clock: 0,
            };
            let mut rng = DetRng::seed_from(capacity as u64);
            // Narrow keys hit, evict and free slots within the map; wide
            // ones almost never repeat.
            let narrow = capacity as u64 * 3 / 2 + 2;
            let (mut evictions, mut removals, mut clears) = (0, 0, 0);
            for step in 0..20_000u64 {
                let key = if rng.chance(0.8) {
                    rng.range_u64(0, narrow)
                } else {
                    rng.range_u64(0, 1 << 52)
                };
                match rng.range_u64(0, 64) {
                    0..=19 => {
                        let got = lru.get(key).copied();
                        assert_eq!(got, r.get(key), "step {step}: get {key}");
                    }
                    20..=57 => {
                        // The wrappers insert only after a miss.
                        if lru.peek(key).is_none() {
                            let value = rng.next_u64();
                            let victim = lru.insert(key, value);
                            assert_eq!(victim, r.insert(key, value), "step {step}: insert {key}");
                            evictions += usize::from(victim.is_some());
                        }
                    }
                    58..=62 => {
                        let removed = lru.remove(key);
                        assert_eq!(removed, r.remove(key), "step {step}: remove {key}");
                        removals += usize::from(removed.is_some());
                    }
                    _ => {
                        // Clear full maps only, so the large ones evict too.
                        if lru.len() == capacity && rng.chance(1.0 / 16.0) {
                            lru.clear();
                            r.entries.clear();
                            clears += 1;
                        }
                    }
                }
                assert_eq!(lru.len(), r.entries.len(), "step {step}");
                let order = r.order();
                assert_eq!(lru.iter().collect::<Vec<_>>(), order, "step {step}");
                assert_eq!(lru.peek_lru(), order.last().copied(), "step {step}");
                if step % 97 == 0 {
                    let mut back: Vec<_> = lru.iter().rev().collect();
                    back.reverse();
                    assert_eq!(back, order, "step {step}: reverse walk");
                }
            }
            // Every capacity ran each path: eviction, removal, clear.
            assert!(
                evictions > 0 && removals > 0 && clears > 0,
                "capacity {capacity}: {evictions} evictions, {removals} removals, {clears} clears"
            );
        }
    }
}
