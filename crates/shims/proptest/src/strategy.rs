//! Value-generation strategies.

#![expect(
    clippy::disallowed_types,
    reason = "mirrors proptest's `hash_set` strategy, which yields a HashSet; test-support \
              code, never on a simulation path"
)]

use crate::test_runner::TestRng;
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Range;

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Samples one value from the deterministic stream.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategies compose by reference.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(width) as $t)
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let width = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(width) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `prop::collection::vec`: vectors of `element` with length in `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Strategy for `HashSet<S::Value>` with a size drawn from `size`.
#[derive(Debug, Clone)]
pub struct HashSetStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for HashSetStrategy<S>
where
    S::Value: Hash + Eq,
{
    type Value = HashSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.generate(rng);
        let mut out = HashSet::with_capacity(target);
        // Duplicates can stall progress on narrow domains; bound the
        // attempts and accept an undersized set rather than spin.
        let mut attempts = 0usize;
        while out.len() < target && attempts < target.saturating_mul(64) + 64 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

/// `prop::collection::hash_set`: sets of `element` with size in `size`.
pub fn hash_set<S: Strategy>(element: S, size: Range<usize>) -> HashSetStrategy<S>
where
    S::Value: Hash + Eq,
{
    HashSetStrategy { element, size }
}
