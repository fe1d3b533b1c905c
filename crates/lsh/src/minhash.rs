//! MinHash signatures and banded MinHash LSH for sets.
//!
//! The *syntactic* discovery systems the paper compares against both build
//! on MinHash: Aurum thresholds estimated Jaccard to create graph edges;
//! D3L uses banded MinHash LSH indexes for its name/value/format evidence.
//! Signatures use the "one hash function per row" construction:
//! `sig[i] = min_{x ∈ S} h_i(x)` with `h_i(x) = mix64(x ⊕ seed_i)`.

use wg_util::hash::{combine64, mix64};
use wg_util::{FxHashMap, FxHashSet, TopK};

use crate::ItemId;

/// A MinHash signature (`k` minima).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature(pub Vec<u64>);

impl MinHashSignature {
    /// Estimated Jaccard similarity: fraction of agreeing rows.
    pub fn jaccard_estimate(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.0.len(), other.0.len(), "signature width mismatch");
        if self.0.is_empty() {
            return 0.0;
        }
        let eq = self.0.iter().zip(&other.0).filter(|(a, b)| a == b).count();
        eq as f64 / self.0.len() as f64
    }
}

/// Generates MinHash signatures over element hashes.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

impl MinHasher {
    /// A hasher with `k` rows derived from `seed`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0);
        Self { seeds: (0..k as u64).map(|i| combine64(seed, i)).collect() }
    }

    /// Signature width.
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// Sign a set given as element hashes. An empty set signs as all-MAX
    /// (which never collides with non-empty signatures except by fluke).
    pub fn sign<I: IntoIterator<Item = u64>>(&self, elements: I) -> MinHashSignature {
        let mut sig = vec![u64::MAX; self.seeds.len()];
        for x in elements {
            for (s, &seed) in sig.iter_mut().zip(&self.seeds) {
                let h = mix64(x ^ seed);
                if h < *s {
                    *s = h;
                }
            }
        }
        MinHashSignature(sig)
    }

    /// Sign a set of strings.
    pub fn sign_strs<S: AsRef<str>, I: IntoIterator<Item = S>>(
        &self,
        items: I,
    ) -> MinHashSignature {
        self.sign(items.into_iter().map(|s| wg_util::stable_hash_str(s.as_ref())))
    }
}

/// Banded LSH index over MinHash signatures.
///
/// Search returns candidates from colliding bands re-ranked by estimated
/// Jaccard between stored signatures.
pub struct MinHashLshIndex {
    k: usize,
    bands: usize,
    rows: usize,
    signatures: FxHashMap<ItemId, MinHashSignature>,
    buckets: Vec<FxHashMap<u64, Vec<ItemId>>>,
}

impl MinHashLshIndex {
    /// Create an index for signatures of width `k = bands × rows`.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0);
        Self {
            k: bands * rows,
            bands,
            rows,
            signatures: FxHashMap::default(),
            buckets: (0..bands).map(|_| FxHashMap::default()).collect(),
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    fn band_key(&self, sig: &MinHashSignature, band: usize) -> u64 {
        let slice = &sig.0[band * self.rows..(band + 1) * self.rows];
        let mut key = 0xcbf2_9ce4_8422_2325u64;
        for &v in slice {
            key = mix64(key ^ v);
        }
        key
    }

    /// Insert (or replace) a signature. Panics on width mismatch (caller
    /// controls both sides).
    pub fn insert(&mut self, id: ItemId, sig: MinHashSignature) {
        assert_eq!(sig.0.len(), self.k, "signature width mismatch");
        self.remove(id);
        for band in 0..self.bands {
            let key = self.band_key(&sig, band);
            self.buckets[band].entry(key).or_default().push(id);
        }
        self.signatures.insert(id, sig);
    }

    /// Remove by id; true if present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(sig) = self.signatures.remove(&id) else {
            return false;
        };
        for band in 0..self.bands {
            let key = self.band_key(&sig, band);
            if let Some(ids) = self.buckets[band].get_mut(&key) {
                ids.retain(|&x| x != id);
                if ids.is_empty() {
                    self.buckets[band].remove(&key);
                }
            }
        }
        true
    }

    /// The stored signature for an id.
    pub fn signature(&self, id: ItemId) -> Option<&MinHashSignature> {
        self.signatures.get(&id)
    }

    /// Candidate ids colliding with the query in at least one band.
    pub fn candidates(&self, sig: &MinHashSignature) -> FxHashSet<ItemId> {
        let mut out = FxHashSet::default();
        for band in 0..self.bands {
            let key = self.band_key(sig, band);
            if let Some(ids) = self.buckets[band].get(&key) {
                out.extend(ids.iter().copied());
            }
        }
        out
    }

    /// Top-k by estimated Jaccard among band candidates.
    pub fn search(
        &self,
        sig: &MinHashSignature,
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Vec<(ItemId, f64)> {
        let mut topk = TopK::new(k);
        for id in self.candidates(sig) {
            if exclude(id) {
                continue;
            }
            let est = sig.jaccard_estimate(&self.signatures[&id]);
            topk.push(est, id);
        }
        topk.into_sorted().into_iter().map(|(s, id)| (id, s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(range: std::ops::Range<u64>) -> Vec<u64> {
        range.collect()
    }

    #[test]
    fn identical_sets_estimate_one() {
        let h = MinHasher::new(128, 1);
        let a = h.sign(set(0..100));
        let b = h.sign(set(0..100));
        assert_eq!(a.jaccard_estimate(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let h = MinHasher::new(128, 1);
        let a = h.sign(set(0..100));
        let b = h.sign(set(1000..1100));
        assert!(a.jaccard_estimate(&b) < 0.05);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let h = MinHasher::new(256, 7);
        // |A∩B| = 50, |A∪B| = 150 -> J = 1/3.
        let a = h.sign(set(0..100));
        let b = h.sign(set(50..150));
        let est = a.jaccard_estimate(&b);
        assert!((est - 1.0 / 3.0).abs() < 0.1, "estimate {est}");
    }

    #[test]
    fn string_signing_matches_hash_signing() {
        let h = MinHasher::new(64, 3);
        let a = h.sign_strs(["x", "y"]);
        let b = h.sign([wg_util::stable_hash_str("x"), wg_util::stable_hash_str("y")]);
        assert_eq!(a, b);
    }

    #[test]
    fn index_finds_overlapping_sets() {
        let h = MinHasher::new(128, 5);
        let mut idx = MinHashLshIndex::new(32, 4);
        idx.insert(0, h.sign(set(0..100)));
        idx.insert(1, h.sign(set(50..150)));
        idx.insert(2, h.sign(set(5000..5100)));
        let hits = idx.search(&h.sign(set(0..100)), 3, |_| false);
        assert_eq!(hits[0].0, 0);
        assert!(hits.iter().any(|(id, _)| *id == 1), "overlapping set missed");
        assert!(hits[0].1 > hits.last().unwrap().1 - 1e-12);
    }

    #[test]
    fn dissimilar_sets_are_pruned() {
        let h = MinHasher::new(128, 5);
        let mut idx = MinHashLshIndex::new(32, 4);
        for id in 0..100 {
            let start = 1000 * (id as u64 + 1);
            idx.insert(id, h.sign(set(start..start + 50)));
        }
        let cands = idx.candidates(&h.sign(set(0..50)));
        assert!(cands.len() < 20, "too many candidates: {}", cands.len());
    }

    #[test]
    fn insert_replace_remove() {
        let h = MinHasher::new(64, 5);
        let mut idx = MinHashLshIndex::new(16, 4);
        idx.insert(1, h.sign(set(0..10)));
        idx.insert(1, h.sign(set(100..110)));
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(1));
        assert!(!idx.remove(1));
        assert!(idx.is_empty());
    }

    #[test]
    fn empty_set_signature() {
        let h = MinHasher::new(16, 5);
        let sig = h.sign(std::iter::empty());
        assert!(sig.0.iter().all(|&x| x == u64::MAX));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let h = MinHasher::new(8, 5);
        let mut idx = MinHashLshIndex::new(16, 4);
        idx.insert(0, h.sign(set(0..5)));
    }
}
