//! Bounded top-k selection.
//!
//! The search pipelines (WarpGate's LSH re-rank, D3L's ensemble merge) all
//! end with "keep the k best-scoring candidates". [`TopK`] is a fixed-size
//! min-heap on score: pushing is `O(log k)` and candidates worse than the
//! current k-th best are rejected with a single comparison.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored entry. Ordered by score ascending (so the heap root is the
/// *worst* retained entry); ties broken by `item` ordering for determinism.
#[derive(Debug, Clone, PartialEq)]
struct Entry<T> {
    score: f64,
    item: T,
}

impl<T: Eq> Eq for Entry<T> {}

impl<T: Ord> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score: BinaryHeap is a max-heap, we want the minimum
        // score at the root so it can be evicted first.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            // Among equal scores the *largest* item must sit at the heap
            // root so it is evicted first: smaller items win ties and
            // results are deterministic.
            .then_with(|| self.item.cmp(&other.item))
    }
}

/// A bounded collector of the `k` highest-scoring items.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<Entry<T>>,
}

impl<T: Ord> TopK<T> {
    /// Create a collector retaining at most `k` items. `k == 0` is allowed
    /// and collects nothing.
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offer an item; keeps it only if it ranks among the best `k` so far.
    /// NaN scores are rejected outright.
    // A re-rank calls this once per candidate. Called out of line it cost
    // the warm lookup ~8% (EXPERIMENTS.md "One tokenizer"), and `#[inline]`
    // alone is a hint the search loop outgrew once: a smaller attached
    // pass left the resident scan calling it again (EXPERIMENTS.md "Small
    // pages").
    #[inline(always)]
    pub fn push(&mut self, score: f64, item: T) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Entry { score, item });
            return;
        }
        // Worst retained score sits at the root.
        let worst = self.heap.peek().expect("non-empty at capacity");
        if score > worst.score || (score == worst.score && item < worst.item) {
            self.heap.pop();
            self.heap.push(Entry { score, item });
        }
    }

    /// Lowest score currently retained, if at capacity — candidates below
    /// this bound cannot enter and callers may skip scoring them exactly.
    pub fn threshold(&self) -> Option<f64> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|e| e.score)
        } else {
            None
        }
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consume the collector, returning `(score, item)` pairs sorted by
    /// descending score (ties: ascending item).
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut v: Vec<(f64, T)> = self.heap.into_iter().map(|e| (e.score, e.item)).collect();
        v.sort_by(|a, b| {
            b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal).then_with(|| a.1.cmp(&b.1))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut tk = TopK::new(3);
        for (s, i) in [(0.1, 1u32), (0.9, 2), (0.5, 3), (0.7, 4), (0.2, 5)] {
            tk.push(s, i);
        }
        let got = tk.into_sorted();
        assert_eq!(got, vec![(0.9, 2), (0.7, 4), (0.5, 3)]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut tk = TopK::new(0);
        tk.push(1.0, 1u32);
        assert!(tk.is_empty());
        assert!(tk.into_sorted().is_empty());
    }

    #[test]
    fn fewer_items_than_k() {
        let mut tk = TopK::new(10);
        tk.push(0.3, 7u32);
        tk.push(0.6, 8);
        assert_eq!(tk.threshold(), None);
        assert_eq!(tk.into_sorted(), vec![(0.6, 8), (0.3, 7)]);
    }

    #[test]
    fn rejects_nan() {
        let mut tk = TopK::new(2);
        tk.push(f64::NAN, 1u32);
        tk.push(0.5, 2);
        assert_eq!(tk.into_sorted(), vec![(0.5, 2)]);
    }

    #[test]
    fn ties_break_deterministically_by_item() {
        let mut tk = TopK::new(2);
        tk.push(0.5, 30u32);
        tk.push(0.5, 10);
        tk.push(0.5, 20);
        // Smallest items win ties.
        assert_eq!(tk.into_sorted(), vec![(0.5, 10), (0.5, 20)]);
    }

    #[test]
    fn threshold_tracks_worst_retained() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), None);
        tk.push(0.4, 1u32);
        tk.push(0.8, 2);
        assert_eq!(tk.threshold(), Some(0.4));
        tk.push(0.6, 3);
        assert_eq!(tk.threshold(), Some(0.6));
    }

    #[test]
    fn matches_exact_sort_on_random_input() {
        use crate::rng::{Rng64, Xoshiro256pp};
        let mut r = Xoshiro256pp::new(99);
        for _ in 0..50 {
            let n = 1 + r.gen_index(200);
            let k = 1 + r.gen_index(20);
            let scores: Vec<f64> = (0..n).map(|_| (r.gen_index(50) as f64) / 10.0).collect();
            let mut tk = TopK::new(k);
            for (i, &s) in scores.iter().enumerate() {
                tk.push(s, i);
            }
            let got = tk.into_sorted();
            let mut want: Vec<(f64, usize)> =
                scores.iter().copied().enumerate().map(|(i, s)| (s, i)).collect();
            want.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
            want.truncate(k);
            assert_eq!(got, want);
        }
    }
}
