//! Ranking metrics (§4.2).
//!
//! The paper reports top-k precision and recall, macro-averaged over all
//! queries, at small k (2, 3, 5, 10) — recommendations beyond that would
//! "overwhelm users".

use wg_store::ColumnRef;

/// Precision and recall of one ranked result list at cutoff `k`.
pub fn precision_recall_at_k(results: &[ColumnRef], answers: &[ColumnRef], k: usize) -> (f64, f64) {
    if k == 0 || answers.is_empty() {
        return (0.0, 0.0);
    }
    let top = &results[..results.len().min(k)];
    let hits = top.iter().filter(|r| answers.contains(r)).count();
    // Precision divides by k (not by |returned|): a system returning fewer
    // than k results is not rewarded for abstaining — this matches how the
    // paper can show precision decreasing monotonically in k.
    (hits as f64 / k as f64, hits as f64 / answers.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: &str) -> ColumnRef {
        ColumnRef::new("d", "t", n)
    }

    #[test]
    fn perfect_ranking() {
        let answers = vec![c("a"), c("b")];
        let results = vec![c("a"), c("b"), c("x")];
        let (p, r) = precision_recall_at_k(&results, &answers, 2);
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn precision_divides_by_k() {
        let answers = vec![c("a")];
        let results = vec![c("a")];
        let (p, r) = precision_recall_at_k(&results, &answers, 10);
        assert!((p - 0.1).abs() < 1e-12);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn miss_everything() {
        let answers = vec![c("a")];
        let results = vec![c("x"), c("y")];
        assert_eq!(precision_recall_at_k(&results, &answers, 2), (0.0, 0.0));
    }

    #[test]
    fn recall_grows_with_k() {
        let answers = vec![c("a"), c("b"), c("c")];
        let results = vec![c("a"), c("x"), c("b"), c("y"), c("c")];
        let (_, r2) = precision_recall_at_k(&results, &answers, 2);
        let (_, r5) = precision_recall_at_k(&results, &answers, 5);
        assert!(r5 > r2);
        assert_eq!(r5, 1.0);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(precision_recall_at_k(&[], &[c("a")], 3), (0.0, 0.0));
        assert_eq!(precision_recall_at_k(&[c("a")], &[], 3), (0.0, 0.0));
        assert_eq!(precision_recall_at_k(&[c("a")], &[c("a")], 0), (0.0, 0.0));
    }
}
