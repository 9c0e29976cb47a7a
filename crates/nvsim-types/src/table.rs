//! A `u64 → nonzero u64` table for keys that cluster below a known bound.
//!
//! [`KeyTable`] stores keys below its dense bound in fixed 4 KiB chunks,
//! each allocated on the first nonzero write into its key range, and
//! every other key in an ordered map. A lookup below the bound is two
//! indexed loads instead of a tree walk, and memory grows with the chunks
//! actually touched rather than with the highest key: one write near the
//! top of a 4 GiB media array costs one chunk, not a vector reaching it.
//!
//! Iteration is ascending by key (every dense key lies below every sparse
//! one), the same order an ordered map gives, so callers whose output
//! depends on scan order keep it.
//!
//! # Example
//!
//! ```
//! use nvsim_types::table::KeyTable;
//!
//! let mut t = KeyTable::new(1 << 20);
//! t.update(7, |c| c + 1);
//! t.update(1 << 40, |c| c + 5);
//! assert_eq!(t.get(7), 1);
//! assert_eq!(t.get(8), 0);
//! assert_eq!(t.iter().collect::<Vec<_>>(), [(7, 1), (1 << 40, 5)]);
//! t.update(7, |_| 0); // a zero value removes the key
//! assert_eq!(t.len(), 1);
//! ```

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Keys per chunk: 512 `u64` values, 4 KiB.
const CHUNK_KEYS: u64 = 512;

/// One chunk of dense values; 0 marks an absent key.
type Chunk = Box<[u64; CHUNK_KEYS as usize]>;

/// Maps `u64` keys to nonzero `u64` values; absent keys read as 0.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// Keys below this bound live in `chunks`, the rest in `sparse`.
    dense_keys: u64,
    /// Chunk `i` holds keys `i * CHUNK_KEYS ..`; grown only up to the
    /// highest chunk written.
    chunks: Vec<Option<Chunk>>,
    /// Keys at or past `dense_keys`.
    sparse: BTreeMap<u64, u64>,
    /// Nonzero keys in both parts.
    len: usize,
}

impl KeyTable {
    /// An empty table whose keys below `dense_keys` are chunk-indexed.
    pub fn new(dense_keys: u64) -> Self {
        KeyTable {
            dense_keys,
            chunks: Vec::new(),
            sparse: BTreeMap::new(),
            len: 0,
        }
    }

    /// The key's chunk index and offset in it, for keys below the bound.
    fn dense_slot(&self, key: u64) -> Option<(usize, usize)> {
        let (chunk, offset) = (key / CHUNK_KEYS, key % CHUNK_KEYS);
        (key < self.dense_keys).then_some((chunk as usize, offset as usize))
    }

    /// The key's value, 0 when absent.
    pub fn get(&self, key: u64) -> u64 {
        match self.dense_slot(key) {
            Some((chunk, offset)) => self
                .chunks
                .get(chunk)
                .and_then(Option::as_ref)
                .map_or(0, |c| c[offset]),
            None => self.sparse.get(&key).copied().unwrap_or(0),
        }
    }

    /// Sets the key to `f(current)` (`current` is 0 when absent) and
    /// returns the new value; a result of 0 removes the key.
    pub fn update(&mut self, key: u64, f: impl FnOnce(u64) -> u64) -> u64 {
        let (old, new) = match self.dense_slot(key) {
            Some((chunk, offset)) => {
                let existing = self.chunks.get_mut(chunk).and_then(Option::as_mut);
                let old = existing.as_ref().map_or(0, |c| c[offset]);
                let new = f(old);
                match existing {
                    Some(c) => c[offset] = new,
                    None if new != 0 => {
                        if chunk >= self.chunks.len() {
                            self.chunks.resize_with(chunk + 1, || None);
                        }
                        let mut fresh: Chunk = Box::new([0; CHUNK_KEYS as usize]);
                        fresh[offset] = new;
                        self.chunks[chunk] = Some(fresh);
                    }
                    None => {}
                }
                (old, new)
            }
            None => match self.sparse.entry(key) {
                Entry::Occupied(mut e) => {
                    let old = *e.get();
                    let new = f(old);
                    if new == 0 {
                        e.remove();
                    } else {
                        *e.get_mut() = new;
                    }
                    (old, new)
                }
                Entry::Vacant(e) => {
                    let new = f(0);
                    if new != 0 {
                        e.insert(new);
                    }
                    (0, new)
                }
            },
        };
        match (old == 0, new == 0) {
            (true, false) => self.len += 1,
            (false, true) => self.len -= 1,
            _ => {}
        }
        new
    }

    /// Number of keys with a nonzero value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key has a nonzero value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every key and frees every chunk.
    pub fn clear(&mut self) {
        self.chunks = Vec::new();
        self.sparse.clear();
        self.len = 0;
    }

    /// Chunks allocated below the dense bound (each one 4 KiB).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }

    /// `(key, value)` pairs with nonzero values, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let dense = (0u64..)
            .zip(&self.chunks)
            .filter_map(|(i, c)| c.as_ref().map(|c| (i * CHUNK_KEYS, c)))
            .flat_map(|(base, c)| (base..).zip(c.iter().copied()))
            .filter(|&(_, v)| v != 0);
        dense.chain(self.sparse.iter().map(|(&k, &v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;
    use std::collections::BTreeSet;

    /// The table against an ordered map with the same semantics: absent
    /// keys read 0, updates store `f(current)`, a zero result removes the
    /// key. Keys fall below the bound, just past it, and far past it.
    #[test]
    fn matches_ordered_map_reference() {
        const BOUND: u64 = 3 * CHUNK_KEYS + 17;
        let mut table = KeyTable::new(BOUND);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        // Dense chunks that received a nonzero write since the last clear.
        let mut written: BTreeSet<u64> = BTreeSet::new();
        let mut rng = DetRng::seed_from(0x7ab1e);
        for _ in 0..20_000 {
            let key = match rng.range_u64(0, 4) {
                0 => rng.range_u64(0, BOUND),
                1 => rng.range_u64(BOUND, BOUND + 64),
                2 => BOUND - 1 - rng.range_u64(0, 4),
                _ => (1 << 40) + rng.range_u64(0, 4),
            };
            match rng.range_u64(0, 100) {
                0 => {
                    table.clear();
                    reference.clear();
                    written.clear();
                }
                1..=45 => {
                    let add = rng.range_u64(0, 3);
                    let want = reference.get(&key).copied().unwrap_or(0) + add;
                    assert_eq!(table.update(key, |c| c + add), want);
                    if want != 0 {
                        reference.insert(key, want);
                    }
                }
                46..=60 => {
                    assert_eq!(table.update(key, |_| 0), 0);
                    reference.remove(&key);
                }
                61..=75 => {
                    let v = rng.range_u64(1, 1 << 62);
                    assert_eq!(table.update(key, |_| v), v);
                    reference.insert(key, v);
                }
                _ => assert_eq!(table.get(key), reference.get(&key).copied().unwrap_or(0)),
            }
            if key < BOUND && reference.contains_key(&key) {
                written.insert(key / CHUNK_KEYS);
            }
            assert_eq!(table.len(), reference.len());
            assert_eq!(table.is_empty(), reference.is_empty());
            assert!(table.iter().eq(reference.iter().map(|(&k, &v)| (k, v))));
            assert!(table.allocated_chunks() <= written.len());
        }
    }

    #[test]
    fn last_key_below_the_bound_allocates_one_chunk() {
        let bound = 16 << 20;
        let mut table = KeyTable::new(bound);
        table.update(bound - 1, |c| c + 1);
        assert_eq!(table.allocated_chunks(), 1);
        assert_eq!(
            table.chunks.len(),
            usize::try_from(bound / CHUNK_KEYS).unwrap()
        );
        table.update(bound, |c| c + 1);
        table.update(u64::MAX, |c| c + 1);
        assert_eq!(table.allocated_chunks(), 1);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn zero_writes_allocate_nothing() {
        let mut table = KeyTable::new(1 << 20);
        assert_eq!(table.update(5, |_| 0), 0);
        assert_eq!(table.update(1 << 30, |_| 0), 0);
        assert_eq!(table.allocated_chunks(), 0);
        assert!(table.chunks.is_empty());
        assert!(table.is_empty());
    }
}
