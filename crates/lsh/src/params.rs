//! Banding parameter selection.
//!
//! A banded LSH index with `b` bands of `r` rows admits a pair as candidate
//! with probability `1 − (1 − p^r)^b`, where `p` is the per-bit collision
//! probability. For SimHash, `p = 1 − acos(s)/π` at cosine similarity `s`.
//! The S-curve's midpoint (`P = 0.5`) sits at `p* = (1 − 2^{-1/b})^{1/r}`;
//! [`LshParams::for_threshold`] picks the `(b, r)` whose midpoint similarity
//! is closest to the requested threshold within a bit budget — this is how
//! the paper's "similarity threshold of the SimHash LSH index = 0.7"
//! becomes concrete index geometry.

/// Banding geometry of an LSH index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bands.
    pub bands: usize,
    /// Rows (bits) per band; limited to 64 so a band packs into a `u64`.
    pub rows: usize,
}

impl LshParams {
    /// Total signature bits consumed.
    pub fn bits(&self) -> usize {
        self.bands * self.rows
    }

    /// Candidate probability at cosine similarity `s` (SimHash bit model).
    #[cfg(test)]
    fn candidate_probability(&self, s: f64) -> f64 {
        let p = bit_collision_probability(s);
        1.0 - (1.0 - p.powi(self.rows as i32)).powi(self.bands as i32)
    }

    /// The similarity at which the S-curve crosses `P = 0.5`.
    fn midpoint_similarity(&self) -> f64 {
        let p_star = (1.0 - 0.5f64.powf(1.0 / self.bands as f64)).powf(1.0 / self.rows as f64);
        similarity_of_bit_probability(p_star)
    }

    /// Choose `(bands, rows)` for a target cosine `threshold` within a
    /// signature budget of `max_bits` (the chosen geometry may use fewer
    /// bits). Among geometries with midpoints within 0.02 of the best, the
    /// one using the most bits wins — more bits means a sharper S-curve.
    pub fn for_threshold(threshold: f64, max_bits: usize) -> LshParams {
        assert!((0.0..1.0).contains(&threshold), "threshold must be in [0,1)");
        assert!(max_bits >= 4);
        let mut best = LshParams { bands: 1, rows: 1 };
        let mut best_err = f64::INFINITY;
        for rows in 1..=64usize {
            for bands in 1..=max_bits {
                if bands * rows > max_bits {
                    break;
                }
                let cand = LshParams { bands, rows };
                let err = (cand.midpoint_similarity() - threshold).abs();
                let better =
                    err + 1e-9 < best_err || (err < best_err + 0.02 && cand.bits() > best.bits());
                if better {
                    // Only accept "more bits at similar error" if error does
                    // not regress past the tolerance band.
                    if err <= best_err + 0.02 {
                        best = cand;
                        best_err = best_err.min(err);
                    }
                }
            }
        }
        best
    }
}

impl Default for LshParams {
    /// Default: tuned for the paper's 0.7 threshold at 128 bits.
    fn default() -> Self {
        LshParams::for_threshold(0.7, 128)
    }
}

/// `P[one SimHash bit agrees]` at cosine similarity `s`.
#[cfg(test)]
fn bit_collision_probability(s: f64) -> f64 {
    1.0 - s.clamp(-1.0, 1.0).acos() / std::f64::consts::PI
}

/// Inverse of [`bit_collision_probability`].
fn similarity_of_bit_probability(p: f64) -> f64 {
    (std::f64::consts::PI * (1.0 - p.clamp(0.0, 1.0))).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_probability_endpoints() {
        assert!((bit_collision_probability(1.0) - 1.0).abs() < 1e-12);
        assert!((bit_collision_probability(-1.0)).abs() < 1e-12);
        assert!((bit_collision_probability(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probability_inverse_roundtrip() {
        for s in [-0.9, -0.3, 0.0, 0.4, 0.7, 0.95] {
            let p = bit_collision_probability(s);
            assert!((similarity_of_bit_probability(p) - s).abs() < 1e-9);
        }
    }

    #[test]
    fn candidate_probability_is_monotone_in_similarity() {
        let params = LshParams { bands: 16, rows: 8 };
        let mut last = -1.0;
        for i in 0..=20 {
            let s = -1.0 + 2.0 * i as f64 / 20.0;
            let p = params.candidate_probability(s);
            assert!(p >= last - 1e-12, "not monotone at s={s}");
            last = p;
        }
    }

    #[test]
    fn midpoint_is_where_probability_crosses_half() {
        let params = LshParams { bands: 16, rows: 8 };
        let mid = params.midpoint_similarity();
        assert!((params.candidate_probability(mid) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn more_rows_raises_midpoint() {
        let low = LshParams { bands: 16, rows: 4 }.midpoint_similarity();
        let high = LshParams { bands: 16, rows: 16 }.midpoint_similarity();
        assert!(high > low);
    }

    #[test]
    fn for_threshold_hits_target() {
        for (threshold, tol) in [(0.5, 0.08), (0.7, 0.05), (0.9, 0.05)] {
            let params = LshParams::for_threshold(threshold, 128);
            let mid = params.midpoint_similarity();
            assert!(
                (mid - threshold).abs() < tol,
                "threshold {threshold}: got midpoint {mid:.3} with {params:?}"
            );
            assert!(params.bits() <= 128);
        }
    }

    #[test]
    fn for_threshold_prefers_more_bits() {
        let params = LshParams::for_threshold(0.7, 128);
        // Should use a decent share of the budget for a sharp curve.
        assert!(params.bits() >= 64, "only {} bits used: {params:?}", params.bits());
    }

    #[test]
    fn default_matches_paper_setting() {
        let p = LshParams::default();
        assert!((p.midpoint_similarity() - 0.7).abs() < 0.05);
    }
}
