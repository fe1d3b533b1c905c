//! Ground truth and join-quality labeling.
//!
//! NextiaJD (Flores et al., EDBT'21) labels the quality of a directed
//! candidate pair (query `A`, candidate `B`) from two empirically
//! thresholded measures: the containment of `A`'s values in `B`, and the
//! cardinality proportion `min(|A|,|B|)/max(|A|,|B|)`. The paper keeps
//! pairs labeled **Good** and **High** as answers (§4.1); so do we.

use wg_store::{ColumnRef, Warehouse};
use wg_util::FxHashMap;

/// NextiaJD-style join-quality levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Quality {
    /// Containment < 0.1: no meaningful join.
    None,
    /// Containment ≥ 0.1.
    Poor,
    /// Containment ≥ 0.25.
    Moderate,
    /// Containment ≥ 0.5 and proportion ≥ 0.1.
    Good,
    /// Containment ≥ 0.75 and proportion ≥ 0.25.
    High,
}

/// Label a directed pair from containment `c` (of the query in the
/// candidate) and cardinality proportion `k` — the empirically determined
/// thresholds of Flores et al.
pub fn label_quality(c: f64, k: f64) -> Quality {
    if c >= 0.75 && k >= 0.25 {
        Quality::High
    } else if c >= 0.5 && k >= 0.1 {
        Quality::Good
    } else if c >= 0.25 {
        Quality::Moderate
    } else if c >= 0.1 {
        Quality::Poor
    } else {
        Quality::None
    }
}

/// Directed ground truth: query column → set of answer columns.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    answers: FxHashMap<ColumnRef, Vec<ColumnRef>>,
}

impl GroundTruth {
    /// Empty truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an answer for a query (idempotent).
    pub fn add(&mut self, query: ColumnRef, answer: ColumnRef) {
        let entry = self.answers.entry(query).or_default();
        if !entry.contains(&answer) {
            entry.push(answer);
        }
    }

    /// The answers for a query (empty slice when unknown).
    pub fn answers(&self, query: &ColumnRef) -> &[ColumnRef] {
        self.answers.get(query).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All queries that have at least one answer, sorted for determinism.
    pub fn queries(&self) -> Vec<ColumnRef> {
        let mut qs: Vec<ColumnRef> =
            self.answers.iter().filter(|(_, a)| !a.is_empty()).map(|(q, _)| q.clone()).collect();
        qs.sort();
        qs
    }

    /// Number of queries.
    fn num_queries(&self) -> usize {
        self.answers.values().filter(|a| !a.is_empty()).count()
    }

    /// Mean answers per query (the "Avg. # Answers" column of Table 1).
    pub fn avg_answers(&self) -> f64 {
        let n = self.num_queries();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self.answers.values().map(|a| a.len()).sum();
        total as f64 / n as f64
    }

    /// Keep only the given queries (used to match a target query count).
    pub fn retain_queries(&mut self, keep: &[ColumnRef]) {
        let keep: std::collections::HashSet<&ColumnRef> = keep.iter().collect();
        self.answers.retain(|q, _| keep.contains(q));
    }
}

/// A complete evaluation corpus: data + truth + the query workload.
pub struct Corpus {
    /// Corpus label ("testbedS", "spider", ...).
    pub name: String,
    /// The warehouse holding the generated tables.
    pub warehouse: Warehouse,
    /// Directed ground truth.
    pub truth: GroundTruth,
    /// The evaluation queries (all have ≥1 answer).
    pub queries: Vec<ColumnRef>,
}

impl Corpus {
    /// Table 1-style statistics:
    /// `(tables, columns, avg rows, queries, avg answers)`.
    pub fn stats(&self) -> (usize, usize, f64, usize, f64) {
        (
            self.warehouse.num_tables(),
            self.warehouse.num_columns(),
            self.warehouse.avg_rows(),
            self.queries.len(),
            self.truth.avg_answers(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_thresholds() {
        assert_eq!(label_quality(1.0, 1.0), Quality::High);
        assert_eq!(label_quality(0.8, 0.3), Quality::High);
        assert_eq!(label_quality(0.8, 0.2), Quality::Good);
        assert_eq!(label_quality(0.6, 0.15), Quality::Good);
        assert_eq!(label_quality(0.6, 0.05), Quality::Moderate);
        assert_eq!(label_quality(0.3, 0.9), Quality::Moderate);
        assert_eq!(label_quality(0.15, 0.9), Quality::Poor);
        assert_eq!(label_quality(0.05, 0.9), Quality::None);
    }

    #[test]
    fn quality_ordering() {
        assert!(Quality::High > Quality::Good);
        assert!(Quality::Good > Quality::Moderate);
        assert!(Quality::Moderate > Quality::Poor);
        assert!(Quality::Poor > Quality::None);
    }

    #[test]
    fn truth_bookkeeping() {
        let mut t = GroundTruth::new();
        let q = ColumnRef::new("d", "t1", "c");
        let a1 = ColumnRef::new("d", "t2", "c");
        let a2 = ColumnRef::new("d", "t3", "c");
        t.add(q.clone(), a1.clone());
        t.add(q.clone(), a1.clone()); // duplicate ignored
        t.add(q.clone(), a2.clone());
        assert_eq!(t.answers(&q).len(), 2);
        assert_eq!(t.num_queries(), 1);
        assert!((t.avg_answers() - 2.0).abs() < 1e-12);
        assert_eq!(t.queries(), vec![q.clone()]);
        assert!(t.answers(&a1).is_empty());
    }

    #[test]
    fn retain_queries_filters() {
        let mut t = GroundTruth::new();
        let q1 = ColumnRef::new("d", "t1", "c");
        let q2 = ColumnRef::new("d", "t2", "c");
        t.add(q1.clone(), q2.clone());
        t.add(q2.clone(), q1.clone());
        t.retain_queries(std::slice::from_ref(&q1));
        assert_eq!(t.num_queries(), 1);
        assert!(t.answers(&q2).is_empty());
    }
}
