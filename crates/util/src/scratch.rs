//! Epoch-stamped scratch arenas for allocation-free hot loops.
//!
//! The rewiring engine evaluates hundreds of thousands of swap attempts,
//! each touching a handful of nodes and degrees. A fresh hash map per
//! attempt pays an allocation, hashing on every access, and a drop; this
//! module replaces that with a dense accumulator over small integer keys:
//!
//! * a `Vec<T>` of values indexed directly by key,
//! * a parallel `Vec<u32>` of epoch stamps, and
//! * a touched-key list for iteration.
//!
//! `begin()` starts a new epoch in O(1) — entries from earlier epochs are
//! logically absent without being written. All storage is sized once up
//! front, so steady-state use performs **zero heap allocations**: values
//! and stamps are preallocated to the key-space size, and the touched list
//! is preallocated to its worst case by [`ScratchAccum::with_keys`].

/// Dense scratch accumulator over keys `0..n` with O(1) epoch-based clear.
///
/// `T` is the per-key accumulator value (e.g. `i64` triangle deltas or
/// `f64` partial sums).
#[derive(Clone, Debug)]
pub struct ScratchAccum<T> {
    vals: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

/// Epoch-stamped membership set over keys `0..n`: O(1) mark, query, and
/// clear, with an explicit marked-key list for iteration.
///
/// This is [`ScratchAccum`] specialized to pure membership (no value per
/// key). The estimators use it to dedup the nodes a crawl observed.
#[derive(Clone, Debug)]
pub struct DirtyStampSet {
    stamp: Vec<u32>,
    epoch: u32,
    marked: Vec<u32>,
}

impl Default for DirtyStampSet {
    /// An empty set; grow it with [`DirtyStampSet::ensure_keys`]. Starts
    /// at epoch 1, like [`with_keys`](DirtyStampSet::with_keys) — a
    /// derived zero epoch would disable [`contains`](Self::contains)
    /// (and with it `mark`'s dedup) until the first `clear`.
    fn default() -> Self {
        Self::with_keys(0)
    }
}

impl DirtyStampSet {
    /// Creates a set covering keys `0..n`, preallocating the marked list
    /// so steady-state use performs no heap allocations.
    pub fn with_keys(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            // Start above the zero-initialized stamps so marks register
            // before the first `clear`.
            epoch: 1,
            marked: Vec::with_capacity(n),
        }
    }

    /// Number of addressable keys.
    pub fn num_keys(&self) -> usize {
        self.stamp.len()
    }

    /// Grows the key space to at least `n` keys (no-op when already that
    /// large); new keys join unmarked (zero stamps sit below any live
    /// epoch).
    pub fn ensure_keys(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            if self.marked.capacity() < n {
                let need = n - self.marked.len();
                self.marked.reserve(need);
            }
        }
    }

    /// Empties the set in O(1) (modulo the once-per-`u32::MAX` re-zero).
    pub fn clear(&mut self) {
        self.marked.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `key`; returns whether it was newly inserted.
    #[inline]
    pub fn mark(&mut self, key: u32) -> bool {
        if self.contains(key) {
            return false;
        }
        self.stamp[key as usize] = self.epoch;
        self.marked.push(key);
        true
    }

    /// Whether `key` is currently marked.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.epoch != 0 && self.stamp[key as usize] == self.epoch
    }

    /// Keys marked since the last [`clear`](Self::clear), in first-mark
    /// order.
    #[inline]
    pub fn marked(&self) -> &[u32] {
        &self.marked
    }

    /// Number of marked keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.marked.len()
    }

    /// Whether no key is marked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.marked.is_empty()
    }
}

impl<T: Copy + Default> Default for ScratchAccum<T> {
    /// An empty arena; grow it with [`ScratchAccum::ensure_keys`].
    fn default() -> Self {
        Self::with_keys(0)
    }
}

impl<T: Copy + Default> ScratchAccum<T> {
    /// Creates an arena covering keys `0..n`, preallocating the touched
    /// list to `n` so no later operation ever allocates.
    pub fn with_keys(n: usize) -> Self {
        Self {
            vals: vec![T::default(); n],
            stamp: vec![0; n],
            epoch: 0,
            touched: Vec::with_capacity(n),
        }
    }

    /// Number of addressable keys.
    pub fn num_keys(&self) -> usize {
        self.vals.len()
    }

    /// Grows the key space to at least `n` keys (no-op when already that
    /// large). New keys join untouched in every epoch: their stamps start
    /// at zero, below any live epoch. Lets long-lived arenas be sized by
    /// the largest workload seen instead of a worst-case bound.
    pub fn ensure_keys(&mut self, n: usize) {
        if self.vals.len() < n {
            self.vals.resize(n, T::default());
            self.stamp.resize(n, 0);
            if self.touched.capacity() < n {
                let need = n - self.touched.len();
                self.touched.reserve(need);
            }
        }
    }

    /// Starts a new epoch: all entries become logically absent. O(1)
    /// except once every `u32::MAX` epochs, when the stamps are re-zeroed.
    pub fn begin(&mut self) {
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide with the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Whether `key` has been written in the current epoch.
    #[inline]
    pub fn is_touched(&self, key: u32) -> bool {
        self.stamp[key as usize] == self.epoch && self.epoch != 0
    }

    /// Current value of `key`, or `init` if untouched this epoch.
    #[inline]
    pub fn get_or(&self, key: u32, init: T) -> T {
        if self.is_touched(key) {
            self.vals[key as usize]
        } else {
            init
        }
    }

    /// Current value of `key`, or `T::default()` if untouched this epoch.
    #[inline]
    pub fn get(&self, key: u32) -> T {
        self.get_or(key, T::default())
    }

    /// Mutable access to `key`'s entry, initializing it to `init` on first
    /// touch this epoch.
    #[inline]
    pub fn entry_or(&mut self, key: u32, init: T) -> &mut T {
        if !self.is_touched(key) {
            self.stamp[key as usize] = self.epoch;
            self.vals[key as usize] = init;
            self.touched.push(key);
        }
        &mut self.vals[key as usize]
    }

    /// Keys written this epoch, in first-touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Sorts the touched-key list ascending (for order-stable iteration).
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }
}

impl ScratchAccum<i64> {
    /// Adds `delta` to `key`'s accumulator (zero-initialized).
    #[inline]
    pub fn add(&mut self, key: u32, delta: i64) {
        *self.entry_or(key, 0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_clears_in_o1() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(10);
        a.begin();
        a.add(3, 5);
        a.add(3, -2);
        a.add(7, 1);
        assert_eq!(a.get(3), 3);
        assert_eq!(a.get(7), 1);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.touched(), &[3, 7]);
        a.begin();
        assert_eq!(a.get(3), 0);
        assert!(!a.is_touched(3));
        assert!(a.touched().is_empty());
    }

    #[test]
    fn entry_or_initializes_once_per_epoch() {
        let mut a: ScratchAccum<f64> = ScratchAccum::with_keys(4);
        a.begin();
        *a.entry_or(2, 10.0) += 1.0;
        *a.entry_or(2, 99.0) += 1.0; // init value ignored on second touch
        assert_eq!(a.get_or(2, 0.0), 12.0);
        assert_eq!(a.get_or(1, -1.0), -1.0);
    }

    #[test]
    fn sort_touched_orders_keys() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(16);
        a.begin();
        for k in [9, 2, 14, 5] {
            a.add(k, 1);
        }
        a.sort_touched();
        assert_eq!(a.touched(), &[2, 5, 9, 14]);
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(2);
        a.begin();
        a.add(1, 7);
        // Force wraparound.
        a.epoch = u32::MAX;
        a.begin();
        assert_eq!(a.get(1), 0);
        a.add(0, 3);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.touched(), &[0]);
    }

    #[test]
    fn ensure_keys_grows_without_disturbing_epochs() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(2);
        a.begin();
        a.add(1, 5);
        a.ensure_keys(10);
        assert_eq!(a.num_keys(), 10);
        assert_eq!(a.get(1), 5); // existing entry survives
        assert!(!a.is_touched(7)); // new keys untouched this epoch
        a.add(7, 3);
        assert_eq!(a.get(7), 3);
        a.ensure_keys(4); // shrinking is a no-op
        assert_eq!(a.num_keys(), 10);

        let mut d = DirtyStampSet::with_keys(2);
        d.mark(0);
        d.ensure_keys(8);
        assert!(d.contains(0));
        assert!(!d.contains(7));
        assert!(d.mark(7));
        assert_eq!(d.num_keys(), 8);
    }

    #[test]
    fn dirty_set_marks_queries_and_clears() {
        let mut d = DirtyStampSet::with_keys(10);
        assert_eq!(d.num_keys(), 10);
        assert!(d.is_empty());
        assert!(!d.contains(3));
        assert!(d.mark(3));
        assert!(!d.mark(3)); // already present
        assert!(d.mark(7));
        assert!(d.contains(3) && d.contains(7) && !d.contains(0));
        assert_eq!(d.marked(), &[3, 7]);
        assert_eq!(d.len(), 2);
        d.clear();
        assert!(d.is_empty());
        assert!(!d.contains(3));
        assert!(d.mark(3));
    }

    #[test]
    fn dirty_set_default_dedups_before_first_clear() {
        // The derived Default used to leave epoch = 0, where `contains`
        // is hardwired false and `mark` pushes duplicates.
        let mut d = DirtyStampSet::default();
        d.ensure_keys(8);
        assert!(d.mark(3));
        assert!(!d.mark(3));
        assert!(d.contains(3));
        assert_eq!(d.marked(), &[3]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn dirty_set_epoch_wraparound_is_safe() {
        let mut d = DirtyStampSet::with_keys(2);
        d.mark(1);
        d.epoch = u32::MAX;
        d.clear();
        assert!(!d.contains(1));
        assert!(d.mark(0));
        assert_eq!(d.marked(), &[0]);
    }

    #[test]
    fn dirty_set_no_allocation_in_steady_state() {
        let mut d = DirtyStampSet::with_keys(32);
        let cap = d.marked.capacity();
        for _ in 0..1000 {
            d.clear();
            for k in 0..32 {
                d.mark(k);
            }
        }
        assert_eq!(d.marked.capacity(), cap);
    }

    #[test]
    fn no_allocation_in_steady_state() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(64);
        let cap = a.touched.capacity();
        for _ in 0..1000 {
            a.begin();
            for k in 0..64 {
                a.add(k, k as i64);
            }
        }
        assert_eq!(a.touched.capacity(), cap);
    }
}
