//! A tiny deterministic property-test harness, and counted access for
//! exact work gates.
//!
//! Stands in for `proptest` in the offline build: [`forall`] runs a closure
//! over `cases` independently-seeded [`Gen`]s, and on failure reports the
//! case index and seed so the exact inputs can be replayed by re-running
//! the test (the harness is fully deterministic — no time- or
//! pointer-derived entropy). There is no shrinking; generators should keep
//! ranges tight instead.
//!
//! [`Counted`] wraps a collection so that every element access is reported
//! to a [`Tally`]: a crate keeps its hot storage behind it and counts, in
//! its own unit tests, the elements a whole run reaches. [`CountedRng`]
//! does the same for the words a sampler draws from a generator.
//!
//! # Examples
//!
//! ```rust
//! use dhl_rng::check::forall;
//!
//! forall("addition commutes", 64, |g| {
//!     let (a, b) = (g.f64_in(0.0, 1e6), g.f64_in(0.0, 1e6));
//!     assert!((a + b - (b + a)).abs() == 0.0);
//! });
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use crate::{DeterministicRng, Rng};

/// Per-case input generator handed to [`forall`] closures.
#[derive(Debug)]
pub struct Gen {
    rng: DeterministicRng,
}

impl Gen {
    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.random_range_f64(lo, hi)
    }

    /// A uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.random_range_u64(lo, hi)
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.random_range_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.random_range_u64(lo as u64, hi as u64) as usize
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.random_bool(0.5)
    }

    /// Direct access to the underlying generator for bespoke sampling.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        &mut self.rng
    }
}

/// Derives a stable 64-bit seed from a property name (FNV-1a), so each
/// property gets its own input stream without manual seed bookkeeping.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `property` over `cases` deterministic input generators.
///
/// # Panics
///
/// Re-panics the first failing case, prefixed with the property name, the
/// case index, and the case seed (all reproducible).
pub fn forall(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    let mut root = DeterministicRng::seed_from_u64(name_seed(name));
    for case in 0..cases {
        let rng = root.fork();
        let seed_state = rng.clone();
        let mut gen = Gen { rng };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut gen);
        }));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (rng state {seed_state:?}): {msg}"
            );
        }
    }
}

/// Where a [`Counted`] collection reports its element accesses.
///
/// An implementor is a marker type whose [`Tally::count`] adds one to a
/// counter its crate keeps, usually a `#[cfg(test)]` thread-local; with
/// the counter compiled out, `count` is empty and so is every access's
/// overhead.
pub trait Tally {
    /// Records one element access.
    fn count();
}

/// A collection whose every element access counts once to the tally `T`.
///
/// The contents are reachable only through the methods below, so a scan
/// over them is counted without opting in: an index, a push, a pop, an
/// insert or a remove counts one, and an iterator counts each element as
/// it reaches it. Lengths, reservations and construction count nothing.
/// The tally is a type, not a field, so an access compiles to the plain
/// collection's plus a call to `T::count`.
#[derive(Clone, Debug, Default)]
pub struct Counted<C, T>(C, PhantomData<T>);

impl<C, T: Tally> Counted<C, T> {
    /// Wraps `inner`.
    #[inline]
    pub fn new(inner: C) -> Self {
        Self(inner, PhantomData)
    }

    /// The wrapped collection.
    #[inline]
    pub fn into_inner(self) -> C {
        self.0
    }

    /// The elements in order, each counted as the iterator reaches it.
    #[inline]
    pub fn iter<'a>(&'a self) -> impl DoubleEndedIterator<Item = <&'a C as IntoIterator>::Item>
    where
        &'a C: IntoIterator<IntoIter: DoubleEndedIterator>,
    {
        (&self.0).into_iter().inspect(|_| T::count())
    }
}

impl<C: Index<usize>, T: Tally> Index<usize> for Counted<C, T> {
    type Output = C::Output;

    #[inline(always)]
    fn index(&self, i: usize) -> &C::Output {
        T::count();
        &self.0[i]
    }
}

impl<C: IndexMut<usize>, T: Tally> IndexMut<usize> for Counted<C, T> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut C::Output {
        T::count();
        &mut self.0[i]
    }
}

impl<V, T: Tally> Counted<Vec<V>, T> {
    /// The number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends `value`.
    #[inline]
    pub fn push(&mut self, value: V) {
        T::count();
        self.0.push(value);
    }
}

impl<V, T: Tally> Counted<VecDeque<V>, T> {
    /// The number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Reserves room for exactly `additional` more elements.
    #[inline]
    pub fn reserve_exact(&mut self, additional: usize) {
        self.0.reserve_exact(additional);
    }

    /// The first element, counted when there is one.
    #[inline]
    pub fn front(&self) -> Option<&V> {
        self.iter().next()
    }

    /// Appends `value`.
    #[inline]
    pub fn push_back(&mut self, value: V) {
        T::count();
        self.0.push_back(value);
    }

    /// Removes the first element.
    #[inline]
    pub fn pop_front(&mut self) -> Option<V> {
        T::count();
        self.0.pop_front()
    }
}

impl<K: Ord, V: Copy, T: Tally> Counted<BTreeMap<K, V>, T> {
    /// Inserts `value` under `key`.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) {
        T::count();
        self.0.insert(key, value);
    }

    /// Removes the entry under `key`.
    #[inline]
    pub fn remove(&mut self, key: &K) {
        T::count();
        self.0.remove(key);
    }

    /// The value under the least key.
    #[inline]
    pub fn first(&self) -> Option<V> {
        self.iter().next().map(|(_, &v)| v)
    }

    /// The value under the greatest key.
    #[inline]
    pub fn last(&self) -> Option<V> {
        self.iter().next_back().map(|(_, &v)| v)
    }
}

/// A generator that counts the 64-bit words drawn through it, so a test
/// can pin exactly how much randomness a sampler reads.
#[derive(Clone, Debug)]
pub struct CountedRng<R> {
    inner: R,
    words: u64,
}

impl<R: Rng> CountedRng<R> {
    /// Wraps `inner`, with no words drawn yet.
    pub fn new(inner: R) -> Self {
        Self { inner, words: 0 }
    }

    /// The words drawn so far.
    pub fn words(&self) -> u64 {
        self.words
    }
}

impl<R: Rng> Rng for CountedRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static REACHED: Cell<u64> = const { Cell::new(0) };
    }

    #[derive(Clone, Debug, Default)]
    struct Probe;

    impl Tally for Probe {
        fn count() {
            REACHED.with(|n| n.set(n.get() + 1));
        }
    }

    /// Elements `f` reaches through counted collections.
    fn reached(f: impl FnOnce()) -> u64 {
        REACHED.with(|n| n.set(0));
        f();
        REACHED.with(Cell::get)
    }

    #[test]
    fn counted_access_counts_each_element_reached() {
        let mut v: Counted<Vec<u32>, Probe> = Counted::new(vec![3, 1, 2]);
        assert_eq!(reached(|| v[1] += v[0]), 2);
        assert_eq!(reached(|| v.push(9)), 1);
        assert_eq!(reached(|| assert_eq!(v.iter().max(), Some(&9))), 4);
        assert_eq!(reached(|| assert_eq!(v.len(), 4)), 0);
        assert_eq!(v.clone().into_inner(), [3, 4, 2, 9]);

        let mut q: Counted<VecDeque<u32>, Probe> = Counted::default();
        assert_eq!(reached(|| assert_eq!(q.front(), None)), 0);
        assert_eq!(reached(|| (0..3).for_each(|i| q.push_back(i))), 3);
        assert_eq!(reached(|| assert_eq!(q.front(), Some(&0))), 1);
        assert_eq!(reached(|| assert_eq!(q.pop_front(), Some(0))), 1);

        let mut m: Counted<BTreeMap<u32, u32>, Probe> = Counted::default();
        assert_eq!(reached(|| (0..5).for_each(|k| m.insert(k, 10 * k))), 5);
        assert_eq!(reached(|| m.remove(&0)), 1);
        assert_eq!(
            reached(|| assert_eq!((m.first(), m.last()), (Some(10), Some(40)))),
            2
        );
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0;
        forall("counts cases", 32, |_| count += 1);
        assert_eq!(count, 32);
    }

    #[test]
    fn failing_property_reports_name_and_case() {
        let result = std::panic::catch_unwind(|| {
            forall("always fails", 8, |_| panic!("inner message"));
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always fails"));
        assert!(msg.contains("case 0/8"));
        assert!(msg.contains("inner message"));
    }

    #[test]
    fn cases_see_distinct_inputs() {
        let mut seen = std::collections::HashSet::new();
        forall("distinct inputs", 64, |g| {
            seen.insert(g.u64_in(0, u64::MAX));
        });
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn streams_are_stable_across_runs() {
        let mut first = Vec::new();
        forall("stability", 16, |g| first.push(g.u64_in(0, 1_000_000)));
        let mut second = Vec::new();
        forall("stability", 16, |g| second.push(g.u64_in(0, 1_000_000)));
        assert_eq!(first, second);
    }
}
