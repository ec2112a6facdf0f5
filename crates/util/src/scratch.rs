//! Epoch-stamped scratch arenas for allocation-free hot loops.
//!
//! The rewiring engine decides hundreds of thousands of swap attempts,
//! each touching a handful of degrees. A fresh hash map per use pays an
//! allocation, hashing on every access, and a drop; this module replaces
//! that with a dense accumulator over small integer keys:
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
/// `T` is the per-key accumulator value (e.g. the rewiring decision's
/// `i64` per-degree triangle-count changes).
#[derive(Clone, Debug)]
pub struct ScratchAccum<T> {
    vals: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_clears_in_o1() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(10);
        a.begin();
        *a.entry_or(3, 0) += 5;
        *a.entry_or(3, 0) -= 2;
        *a.entry_or(7, 0) += 1;
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
            *a.entry_or(k, 0) += 1;
        }
        a.sort_touched();
        assert_eq!(a.touched(), &[2, 5, 9, 14]);
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(2);
        a.begin();
        *a.entry_or(1, 0) += 7;
        // Force wraparound.
        a.epoch = u32::MAX;
        a.begin();
        assert_eq!(a.get(1), 0);
        *a.entry_or(0, 0) += 3;
        assert_eq!(a.get(0), 3);
        assert_eq!(a.touched(), &[0]);
    }

    #[test]
    fn no_allocation_in_steady_state() {
        let mut a: ScratchAccum<i64> = ScratchAccum::with_keys(64);
        let cap = a.touched.capacity();
        for _ in 0..1000 {
            a.begin();
            for k in 0..64 {
                *a.entry_or(k, 0) += k as i64;
            }
        }
        assert_eq!(a.touched.capacity(), cap);
    }
}
