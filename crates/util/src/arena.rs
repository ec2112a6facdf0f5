//! Flat multi-pool arenas: many draw-by-index pools packed into one
//! backing vector.
//!
//! The stub-matching engine (`sgr_dk::construct`) keeps one pool of free
//! half-edges per target-degree class and repeatedly swap-removes a
//! uniformly drawn element from a class. A `Vec<Vec<_>>` of pools pays one
//! allocation (plus growth reallocations) per class on every call; this
//! module provides the same operations over a single flat arena with
//! per-class offset ranges — the layout discipline the targeting engine's
//! triangular arenas established — so a reused [`FlatPools`] performs
//! **zero heap allocations** once its backing storage has grown to the
//! workload's high-water mark.
//!
//! Layout: class `c` owns `items[start[c] .. start[c] + live[c]]`, where
//! `start` is the prefix sum of the per-class capacities passed to
//! [`FlatPools::reset`]. Draws swap-remove against the live length, which
//! reproduces `Vec::swap_remove` element movement exactly — a property the
//! stub matcher's bitwise-equivalence contract with its reference engine
//! depends on.

/// A set of fixed-capacity pools packed contiguously into one vector,
/// each supporting O(1) indexed access and O(1) swap-remove.
///
/// Build cycle per use: [`reset`](Self::reset) with the per-class
/// capacities, then [`push`](Self::push) exactly that many items per
/// class, then draw with [`swap_remove`](Self::swap_remove).
#[derive(Clone, Debug, Default)]
pub struct FlatPools<T> {
    /// Backing storage for every pool.
    items: Vec<T>,
    /// `start[c]` — offset of class `c`'s range in `items`.
    start: Vec<usize>,
    /// `live[c]` — current number of live items in class `c`. During the
    /// fill phase this doubles as the push cursor.
    live: Vec<usize>,
}

impl<T: Copy + Default> FlatPools<T> {
    /// Creates an empty arena (no classes, no storage). The first
    /// [`reset`](Self::reset) sizes it.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            start: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Re-initializes the arena for `counts.len()` classes where class `c`
    /// will hold exactly `counts[c]` items. All pools start empty; push
    /// each class's items next. Reuses the backing storage — no
    /// allocation once capacities cover the workload.
    pub fn reset(&mut self, counts: &[usize]) {
        self.start.clear();
        self.start.reserve(counts.len());
        let mut total = 0usize;
        for &c in counts {
            self.start.push(total);
            total += c;
        }
        self.live.clear();
        self.live.resize(counts.len(), 0);
        // Size without zero-filling the retained prefix: the fill phase
        // writes every declared slot before any read (push covers exactly
        // `counts[c]` slots per class, and reads stay below the live
        // length), so stale values from a previous cycle are never
        // observable — and the arena skips a full memset per reset.
        if total <= self.items.len() {
            self.items.truncate(total);
        } else {
            self.items.resize(total, T::default());
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.start.len()
    }

    /// Live item count of class `c`.
    #[inline]
    pub fn len(&self, c: usize) -> usize {
        self.live[c]
    }

    /// Whether class `c` currently holds no items.
    #[inline]
    pub fn is_empty(&self, c: usize) -> bool {
        self.live[c] == 0
    }

    /// Appends `item` to class `c` during the fill phase.
    ///
    /// # Panics
    /// In debug builds, panics if the class overruns the capacity declared
    /// to [`reset`](Self::reset) (it would silently corrupt the next
    /// class's range otherwise).
    #[inline]
    pub fn push(&mut self, c: usize, item: T) {
        let pos = self.start[c] + self.live[c];
        debug_assert!(
            c + 1 >= self.start.len() || pos < self.start[c + 1],
            "class {c} overruns its declared capacity"
        );
        debug_assert!(pos < self.items.len(), "arena overrun at class {c}");
        self.items[pos] = item;
        self.live[c] += 1;
    }

    /// Item `i` of class `c` (`i < len(c)`).
    #[inline]
    pub fn get(&self, c: usize, i: usize) -> T {
        debug_assert!(i < self.live[c]);
        self.items[self.start[c] + i]
    }

    /// Hints that item `i` of class `c` will be read soon. Changes
    /// nothing; see [`crate::prefetch`].
    #[inline]
    pub fn prefetch(&self, c: usize, i: usize) {
        if let Some(x) = self.items.get(self.start[c] + i) {
            crate::prefetch::prefetch_read(x);
        }
    }

    /// Removes and returns item `i` of class `c` by moving the class's
    /// last live item into its slot — exactly `Vec::swap_remove`.
    #[inline]
    pub fn swap_remove(&mut self, c: usize, i: usize) -> T {
        debug_assert!(i < self.live[c]);
        let base = self.start[c];
        let last = self.live[c] - 1;
        let out = self.items[base + i];
        self.items[base + i] = self.items[base + last];
        self.live[c] = last;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_drain_matches_vec_swap_remove() {
        // Drive FlatPools and a Vec<Vec<_>> with the same operations; the
        // element movement must agree index for index.
        let counts = [3usize, 0, 5, 2];
        let mut flat: FlatPools<u32> = FlatPools::new();
        flat.reset(&counts);
        let mut vecs: Vec<Vec<u32>> = counts.iter().map(|_| Vec::new()).collect();
        let mut next = 0u32;
        for (c, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                flat.push(c, next);
                vecs[c].push(next);
                next += 1;
            }
        }
        // Deterministic pseudo-random removal schedule.
        let mut state = 12345u64;
        for _ in 0..10 {
            for (c, pool) in vecs.iter_mut().enumerate() {
                if pool.is_empty() {
                    assert!(flat.is_empty(c));
                    continue;
                }
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let i = (state >> 33) as usize % pool.len();
                assert_eq!(flat.swap_remove(c, i), pool.swap_remove(i));
                assert_eq!(flat.len(c), pool.len());
                for (j, &v) in pool.iter().enumerate() {
                    assert_eq!(flat.get(c, j), v);
                }
            }
        }
    }

    #[test]
    fn reset_reuses_storage_without_allocating() {
        let mut flat: FlatPools<u32> = FlatPools::new();
        flat.reset(&[100, 50]);
        for c in [0usize, 1] {
            for i in 0..(100 >> c) {
                flat.push(c, i as u32);
            }
        }
        let items_ptr = flat.items.as_ptr();
        let items_cap = flat.items.capacity();
        // Smaller layout: same backing buffers.
        flat.reset(&[40, 40, 40]);
        assert_eq!(flat.items.as_ptr(), items_ptr);
        assert_eq!(flat.items.capacity(), items_cap);
        assert_eq!(flat.num_classes(), 3);
        for c in 0..3 {
            assert_eq!(flat.len(c), 0);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overruns")]
    fn overfilling_a_class_panics_in_debug() {
        let mut flat: FlatPools<u32> = FlatPools::new();
        flat.reset(&[1, 1]);
        flat.push(0, 7);
        flat.push(0, 8); // would clobber class 1's range
    }
}
