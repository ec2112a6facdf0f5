//! Sampling helpers used by crawlers and generators.

use crate::rng::Xoshiro256pp;

/// Fisher–Yates shuffle in place.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(i + 1);
        xs.swap(i, j);
    }
}

/// Reservoir-samples `k` items from an iterator (Algorithm R). Returns fewer
/// than `k` items when the iterator is shorter than `k`. Order of the
/// returned sample is unspecified.
pub fn reservoir_sample<I, T>(iter: I, k: usize, rng: &mut Xoshiro256pp) -> Vec<T>
where
    I: IntoIterator<Item = T>,
{
    if k == 0 {
        return Vec::new();
    }
    let mut reservoir: Vec<T> = Vec::with_capacity(k);
    for (i, item) in iter.into_iter().enumerate() {
        if i < k {
            reservoir.push(item);
        } else {
            let j = rng.gen_range(i + 1);
            if j < k {
                reservoir[j] = item;
            }
        }
    }
    reservoir
}

/// Samples `k` distinct indices from `0..n` (uniform without replacement).
/// Uses Floyd's algorithm, O(k) expected insertions.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_indices(n: usize, k: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    let mut chosen = crate::hash::fx_set_with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(j + 1);
        if chosen.insert(t) {
            out.push(t);
        } else {
            chosen.insert(j);
            out.push(j);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashSet;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut xs: Vec<u32> = (0..100).collect();
        shuffle(&mut xs, &mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Overwhelmingly likely to not be the identity.
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_size_and_membership() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let sample = reservoir_sample(0..1000u32, 10, &mut rng);
        assert_eq!(sample.len(), 10);
        for &v in &sample {
            assert!(v < 1000);
        }
        let short = reservoir_sample(0..3u32, 10, &mut rng);
        assert_eq!(short.len(), 3);
        assert!(reservoir_sample(0..100u32, 0, &mut rng).is_empty());
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut hits = [0usize; 10];
        for _ in 0..20_000 {
            for v in reservoir_sample(0..10u32, 3, &mut rng) {
                hits[v as usize] += 1;
            }
        }
        // Each element expected in 3/10 of samples => 6000 hits.
        for &h in &hits {
            assert!((5_400..=6_600).contains(&h), "hits {h}");
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        for _ in 0..100 {
            let s = sample_indices(50, 20, &mut rng);
            assert_eq!(s.len(), 20);
            let set: FxHashSet<usize> = s.iter().copied().collect();
            assert_eq!(set.len(), 20);
            assert!(s.iter().all(|&i| i < 50));
        }
        assert_eq!(sample_indices(5, 5, &mut rng).len(), 5);
        assert!(sample_indices(5, 0, &mut rng).is_empty());
    }
}
