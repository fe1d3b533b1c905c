//! SimHash: random-hyperplane signatures for cosine similarity.
//!
//! Charikar's construction: draw `K` random hyperplanes (Gaussian normal
//! vectors); bit `i` of a vector's signature is the sign of its projection
//! onto hyperplane `i`. For two vectors at angle `θ`,
//! `P[bit agrees] = 1 − θ/π`, so the Hamming distance of two signatures is
//! an unbiased estimator of their angle.

use wg_util::hash::combine64;
use wg_util::kernel::{self, scratch};
use wg_util::rng::Rng64;
use wg_util::SplitMix64;

/// A `K`-bit signature packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Packed bits, little-endian within words.
    pub words: Vec<u64>,
    /// Number of meaningful bits.
    pub bits: usize,
}

impl Signature {
    /// Bit `i` of the signature.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance to another signature of the same width.
    pub fn hamming(&self, other: &Signature) -> u32 {
        debug_assert_eq!(self.bits, other.bits);
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones()).sum()
    }

    /// Cosine similarity estimated from the Hamming distance:
    /// `cos(π · ham / bits)`.
    pub fn cosine_estimate(&self, other: &Signature) -> f64 {
        let ham = self.hamming(other) as f64;
        (std::f64::consts::PI * ham / self.bits as f64).cos()
    }

    /// The `rows` bits of band `band` packed into a `u64` key (rows ≤ 64).
    /// Used by the banded index to key buckets.
    pub fn band_key(&self, band: usize, rows: usize) -> u64 {
        band_key_of(&self.words, band, rows)
    }
}

/// [`Signature::band_key`] over bare packed words — what the index stores
/// per row and what a snapshot carries, so neither has to build a
/// [`Signature`] to bucket a row. Bit `j` of the key is signature bit
/// `band * rows + j`.
#[inline]
pub fn band_key_of(words: &[u64], band: usize, rows: usize) -> u64 {
    debug_assert!((1..=64).contains(&rows));
    let start = band * rows;
    let (word, offset) = (start / 64, start % 64);
    let mut key = words[word] >> offset;
    if offset + rows > 64 {
        key |= words[word + 1] << (64 - offset);
    }
    if rows < 64 {
        key &= (1 << rows) - 1;
    }
    key
}

/// Generates signatures with a fixed set of seeded hyperplanes.
#[derive(Debug, Clone)]
pub struct SimHasher {
    dim: usize,
    bits: usize,
    /// Hyperplanes stored **transposed** as one contiguous `dim × bits`
    /// row-major matrix: `planes_t[d * bits + b]` is component `d` of
    /// hyperplane `b`. This layout lets [`Self::sign`] compute all `bits`
    /// projections in a single blocked GEMV pass over the query (one pass
    /// over the data instead of one per plane).
    planes_t: Vec<f32>,
    seed: u64,
}

impl SimHasher {
    /// Create a hasher for `dim`-dimensional vectors with `bits` planes.
    /// Plane entries are streamed per-plane from seeded generators (the
    /// same streams as always), then stored transposed — the geometry a
    /// given seed produces is unchanged.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Self {
        assert!(dim > 0 && bits > 0);
        let mut planes_t = vec![0.0f32; bits * dim];
        for b in 0..bits {
            let mut rng = SplitMix64::new(combine64(seed, b as u64));
            for d in 0..dim {
                planes_t[d * bits + b] = rng.gen_gaussian() as f32;
            }
        }
        Self { dim, bits, planes_t, seed }
    }

    /// Vector dimension this hasher expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The seed used to derive hyperplanes (persisted so a reloaded index
    /// reproduces identical signatures).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sign the vector. Panics on dimension mismatch.
    ///
    /// All `bits` projections come from one blocked [`kernel::gemv`] pass
    /// over the transposed plane matrix. Inserts and queries sign through
    /// this same kernel, so signatures are self-consistent; against the
    /// scalar reference ([`Self::project_scalar`]) the projections agree
    /// within float-reassociation tolerance, which can flip a bit only
    /// when a projection sits within that tolerance of zero (measure-zero
    /// for real embeddings — see DESIGN.md §8).
    pub fn sign(&self, v: &[f32]) -> Signature {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut proj = scratch::take_f32(self.bits);
        kernel::gemv(v, &self.planes_t, self.bits, &mut proj);
        let mut words = vec![0u64; self.bits.div_ceil(64)];
        for (b, &d) in proj.iter().enumerate() {
            if d >= 0.0 {
                words[b / 64] |= 1 << (b % 64);
            }
        }
        scratch::put_f32(proj);
        Signature { words, bits: self.bits }
    }

    /// All `bits` hyperplane projections of `v` via the blocked kernel
    /// (the pre-sign values [`Self::sign`] thresholds).
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut proj = vec![0.0f32; self.bits];
        kernel::gemv(v, &self.planes_t, self.bits, &mut proj);
        proj
    }

    /// Scalar reference projections: one strict left-to-right pass per
    /// plane, the exact summation order of the pre-kernel implementation.
    /// Kept public for the parity property tests and perf baselines.
    pub fn project_scalar(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let mut proj = vec![0.0f32; self.bits];
        kernel::reference::gemv(v, &self.planes_t, self.bits, &mut proj);
        proj
    }

    /// [`Self::sign`] computed from the scalar reference projections.
    pub fn sign_scalar(&self, v: &[f32]) -> Signature {
        let proj = self.project_scalar(v);
        let mut words = vec![0u64; self.bits.div_ceil(64)];
        for (b, &d) in proj.iter().enumerate() {
            if d >= 0.0 {
                words[b / 64] |= 1 << (b % 64);
            }
        }
        Signature { words, bits: self.bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    fn random_unit(dim: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
        let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    fn cosine(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x * y) as f64).sum()
    }

    #[test]
    fn identical_vectors_identical_signatures() {
        let h = SimHasher::new(32, 128, 7);
        let mut rng = Xoshiro256pp::new(1);
        let v = random_unit(32, &mut rng);
        let a = h.sign(&v);
        let b = h.sign(&v);
        assert_eq!(a, b);
        assert_eq!(a.hamming(&b), 0);
        assert!((a.cosine_estimate(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_flip_all_bits() {
        let h = SimHasher::new(16, 64, 7);
        let mut rng = Xoshiro256pp::new(2);
        let v = random_unit(16, &mut rng);
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let a = h.sign(&v);
        let b = h.sign(&neg);
        // Sign boundary (dot == 0) is measure-zero for random vectors.
        assert_eq!(a.hamming(&b), 64);
        assert!(a.cosine_estimate(&b) < -0.999);
    }

    #[test]
    fn estimate_tracks_true_cosine() {
        let h = SimHasher::new(64, 512, 42);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..20 {
            let a = random_unit(64, &mut rng);
            // Interpolate to get a related vector with known-ish similarity.
            let b0 = random_unit(64, &mut rng);
            let alpha = rng.gen_f64() as f32;
            let mut b: Vec<f32> =
                a.iter().zip(&b0).map(|(x, y)| alpha * x + (1.0 - alpha) * y).collect();
            let n = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            for x in &mut b {
                *x /= n;
            }
            let truth = cosine(&a, &b);
            let est = h.sign(&a).cosine_estimate(&h.sign(&b));
            assert!((truth - est).abs() < 0.15, "estimate {est:.3} too far from truth {truth:.3}");
        }
    }

    #[test]
    fn band_keys_equal_the_bit_by_bit_definition() {
        let mut rng = Xoshiro256pp::new(6);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let sig = Signature { words, bits: 256 };
        for rows in [1usize, 7, 10, 13, 32, 63, 64] {
            for band in 0..256 / rows {
                let mut want = 0u64;
                for j in 0..rows {
                    if sig.bit(band * rows + j) {
                        want |= 1 << j;
                    }
                }
                assert_eq!(sig.band_key(band, rows), want, "band {band} of {rows} rows");
            }
        }
    }

    #[test]
    fn band_key_extracts_bits() {
        let sig = Signature { words: vec![0b1011_0110], bits: 8 };
        // band 0, rows 4 -> bits 0..4 = 0110 -> key 0b0110
        assert_eq!(sig.band_key(0, 4), 0b0110);
        // band 1, rows 4 -> bits 4..8 = 1011 -> key 0b1011
        assert_eq!(sig.band_key(1, 4), 0b1011);
    }

    #[test]
    fn signatures_differ_across_seeds() {
        let mut rng = Xoshiro256pp::new(5);
        let v = random_unit(32, &mut rng);
        let a = SimHasher::new(32, 64, 1).sign(&v);
        let b = SimHasher::new(32, 64, 2).sign(&v);
        assert_ne!(a, b);
    }

    #[test]
    fn bit_accessor_matches_words() {
        let sig = Signature { words: vec![0b101], bits: 3 };
        assert!(sig.bit(0));
        assert!(!sig.bit(1));
        assert!(sig.bit(2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        SimHasher::new(8, 16, 0).sign(&[0.0; 4]);
    }

    #[test]
    fn kernel_projections_track_scalar_reference() {
        let h = SimHasher::new(96, 128, 77);
        let mut rng = Xoshiro256pp::new(11);
        for _ in 0..10 {
            let v = random_unit(96, &mut rng);
            let fast = h.project(&v);
            let slow = h.project_scalar(&v);
            let (sig, sig_ref) = (h.sign(&v), h.sign_scalar(&v));
            for (b, (f, s)) in fast.iter().zip(&slow).enumerate() {
                let tol = 1e-4 * (1.0 + s.abs());
                assert!((f - s).abs() <= tol, "bit {b}: {f} vs {s}");
                // Away from the sign boundary the bits must agree exactly.
                if s.abs() > tol {
                    assert_eq!(sig.bit(b), sig_ref.bit(b), "bit {b} flipped at {s}");
                }
            }
        }
    }
}
