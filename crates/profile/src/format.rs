//! Format-pattern profiles (D3L evidence iv).
//!
//! Each value maps to a pattern string over character classes — `A` upper,
//! `a` lower, `9` digit, other runes kept verbatim — with runs collapsed
//! (`"Acme-42" → "Aa-9"`). A column's format profile is the normalized
//! histogram of its value patterns; two columns with the same *shape* of
//! data (phone numbers, tickers, zip codes) score high even with zero value
//! overlap.

use wg_util::FxHashMap;

use wg_store::Column;

/// Normalized histogram of format patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatProfile {
    /// Pattern → relative frequency (sums to 1 unless the column was empty).
    histogram: Vec<(String, f64)>,
}

/// The collapsed character-class pattern of one value.
fn pattern_of(value: &str) -> String {
    let mut out = String::new();
    let mut last: Option<char> = None;
    for ch in value.chars() {
        let class = if ch.is_ascii_digit() {
            '9'
        } else if ch.is_uppercase() {
            'A'
        } else if ch.is_lowercase() {
            'a'
        } else {
            ch
        };
        if last != Some(class) {
            out.push(class);
            last = Some(class);
        }
    }
    out
}

impl FormatProfile {
    /// Build from a column's distinct values (weighted by multiplicity).
    pub fn build(column: &Column) -> FormatProfile {
        let mut counts: FxHashMap<String, u64> = FxHashMap::default();
        let mut total = 0u64;
        for (value, count) in column.value_counts() {
            *counts.entry(pattern_of(&value)).or_insert(0) += count as u64;
            total += count as u64;
        }
        let mut histogram: Vec<(String, f64)> =
            counts.into_iter().map(|(p, c)| (p, c as f64 / total.max(1) as f64)).collect();
        histogram.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        FormatProfile { histogram }
    }

    /// Number of distinct patterns.
    pub fn num_patterns(&self) -> usize {
        self.histogram.len()
    }

    /// The dominant pattern, if any.
    pub fn top_pattern(&self) -> Option<&str> {
        self.histogram.first().map(|(p, _)| p.as_str())
    }

    /// Cosine similarity between two pattern histograms.
    pub fn similarity(&self, other: &FormatProfile) -> f64 {
        let map: FxHashMap<&str, f64> =
            other.histogram.iter().map(|(p, w)| (p.as_str(), *w)).collect();
        let mut dot = 0.0;
        for (p, w) in &self.histogram {
            if let Some(w2) = map.get(p.as_str()) {
                dot += w * w2;
            }
        }
        let na: f64 = self.histogram.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = other.histogram.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }

    /// The patterns as a token set (fed into MinHash by D3L's index layer).
    pub fn pattern_set(&self) -> impl Iterator<Item = &str> + '_ {
        self.histogram.iter().map(|(p, _)| p.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::Column;

    #[test]
    fn pattern_collapses_runs() {
        assert_eq!(pattern_of("Acme-42"), "Aa-9");
        assert_eq!(pattern_of("ABC123"), "A9");
        assert_eq!(pattern_of("aa bb"), "a a");
        assert_eq!(pattern_of(""), "");
        assert_eq!(pattern_of("(555) 123-4567"), "(9) 9-9");
    }

    #[test]
    fn same_shape_high_similarity() {
        let phones_a = Column::text("p", ["(555) 123-4567", "(415) 555-0000"]);
        let phones_b = Column::text("p", ["(212) 867-5309"]);
        let names = Column::text("n", ["Alice Smith", "Bob Jones"]);
        let fa = FormatProfile::build(&phones_a);
        let fb = FormatProfile::build(&phones_b);
        let fn_ = FormatProfile::build(&names);
        assert!(fa.similarity(&fb) > 0.99);
        assert!(fa.similarity(&fn_) < 0.1);
    }

    #[test]
    fn histogram_is_normalized_and_sorted() {
        let c = Column::text("c", ["abc", "def", "XY"]);
        let f = FormatProfile::build(&c);
        let total: f64 = (0..f.num_patterns()).map(|i| f.histogram[i].1).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(f.top_pattern(), Some("a")); // two of three values are "a"
    }

    #[test]
    fn self_similarity_is_one() {
        let c = Column::text("c", ["x1", "y2", "zz9"]);
        let f = FormatProfile::build(&c);
        assert!((f.similarity(&f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_column_zero_similarity() {
        let e = FormatProfile::build(&Column::text("c", Vec::<String>::new()));
        let c = FormatProfile::build(&Column::text("c", ["x"]));
        assert_eq!(e.similarity(&c), 0.0);
        assert_eq!(e.num_patterns(), 0);
    }
}
