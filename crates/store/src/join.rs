//! Join execution and value-overlap measures.
//!
//! Two consumers:
//!
//! * **Sigma's `Lookup`** (§2.1): once WarpGate recommends a join path, the
//!   product executes a *cardinality-preserving* join to pull columns from
//!   the candidate table next to the query column. [`lookup_join`] is that
//!   operator: a left outer join keeping exactly one match per base row.
//! * **Ground truth & baselines**: join-quality labels (NextiaJD-style) and
//!   Aurum's syntactic edges are defined over [`containment`] and
//!   [`jaccard`] of distinct value sets.
//!
//! [`KeyNorm`] captures the "semantically joinable after transformation"
//! notion from the problem statement: keys can be compared raw, case-folded,
//! or reduced to alphanumerics.

use wg_util::{FxHashMap, FxHashSet};

use crate::column::Column;
use crate::error::StoreResult;
use crate::table::Table;
use crate::value::ValueRef;

/// Key normalization applied before comparing join keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyNorm {
    /// Compare values exactly (type-tagged).
    #[default]
    Exact,
    /// Render to text and case-fold + trim. Makes `"Apple Inc."` match
    /// `"APPLE INC. "`.
    CaseFold,
    /// Render to text, lowercase, and strip every non-alphanumeric rune.
    /// Makes `"Apple, Inc."` match `"apple inc"`.
    AlphaNum,
}

impl KeyNorm {
    /// The normalized key bytes for a value, or `None` for NULL (NULL never
    /// matches NULL, as in SQL).
    fn key_of(&self, v: ValueRef<'_>, scratch: &mut Vec<u8>) -> Option<u64> {
        if v.is_null() {
            return None;
        }
        match self {
            KeyNorm::Exact => {
                v.key_bytes(scratch);
                Some(wg_util::stable_hash64(scratch))
            }
            KeyNorm::CaseFold => {
                let s = v.to_string();
                let folded = s.trim().to_lowercase();
                Some(wg_util::stable_hash_str(&folded))
            }
            KeyNorm::AlphaNum => {
                let s = v.to_string();
                let folded: String = s
                    .chars()
                    .filter(|c| c.is_alphanumeric())
                    .flat_map(|c| c.to_lowercase())
                    .collect();
                if folded.is_empty() {
                    None
                } else {
                    Some(wg_util::stable_hash_str(&folded))
                }
            }
        }
    }
}

/// Cardinality-preserving lookup join (Sigma Workbooks' `Lookup`): a left
/// outer join that keeps **exactly one row per base row**, taking the first
/// match in right-table order. `add_columns` names the right-side columns to
/// append; pass an empty slice to append every non-key column.
pub fn lookup_join(
    base: &Table,
    base_key: &str,
    lookup: &Table,
    lookup_key: &str,
    add_columns: &[&str],
    norm: KeyNorm,
) -> StoreResult<Table> {
    let lk = base.column(base_key)?;
    let rk = lookup.column(lookup_key)?;

    let mut build: FxHashMap<u64, usize> = FxHashMap::default();
    let mut scratch = Vec::new();
    for row in 0..rk.len() {
        if let Some(h) = norm.key_of(rk.get(row), &mut scratch) {
            // Keep the FIRST match; later duplicates never shadow it.
            build.entry(h).or_insert(row);
        }
    }

    let mut right_idx: Vec<Option<usize>> = Vec::with_capacity(lk.len());
    for row in 0..lk.len() {
        right_idx.push(norm.key_of(lk.get(row), &mut scratch).and_then(|h| build.get(&h).copied()));
    }

    // Choose which right columns to append.
    let chosen: Vec<&Column> = if add_columns.is_empty() {
        lookup.columns().iter().filter(|c| c.name() != lookup_key).collect()
    } else {
        let mut v = Vec::with_capacity(add_columns.len());
        for name in add_columns {
            v.push(lookup.column(name)?);
        }
        v
    };

    let mut out = base.clone();
    for rc in chosen {
        let gathered = gather_optional(rc, &right_idx);
        let name = disambiguate(&out, rc.name());
        out = out.with_column(gathered.renamed(name))?;
    }
    Ok(out)
}

/// Gather rows from `col` by optional index; `None` becomes NULL.
fn gather_optional(col: &Column, idx: &[Option<usize>]) -> Column {
    use crate::value::Value;
    // Route through owned values: simple, and join outputs are small
    // relative to scans. (The inner hot path is the hash probe, not this.)
    let values: Vec<Value> = idx
        .iter()
        .map(|i| match i {
            Some(r) => col.get(*r).to_owned(),
            None => Value::Null,
        })
        .collect();
    Column::from_values(col.name(), &values)
}

fn disambiguate(t: &Table, name: &str) -> String {
    if t.column_index(name).is_none() {
        return name.to_string();
    }
    let mut candidate = format!("right_{name}");
    let mut i = 2;
    while t.column_index(&candidate).is_some() {
        candidate = format!("right{i}_{name}");
        i += 1;
    }
    candidate
}

/// Distinct normalized key set of a column.
fn key_set(col: &Column, norm: KeyNorm) -> FxHashSet<u64> {
    let mut set = FxHashSet::default();
    let mut scratch = Vec::new();
    for v in col.iter() {
        if let Some(h) = norm.key_of(v, &mut scratch) {
            set.insert(h);
        }
    }
    set
}

/// Containment of `a` in `b`: `|distinct(a) ∩ distinct(b)| / |distinct(a)|`.
/// Returns 0.0 when `a` has no non-null values.
pub fn containment(a: &Column, b: &Column, norm: KeyNorm) -> f64 {
    let sa = key_set(a, norm);
    if sa.is_empty() {
        return 0.0;
    }
    let sb = key_set(b, norm);
    let inter = sa.iter().filter(|h| sb.contains(*h)).count();
    inter as f64 / sa.len() as f64
}

/// Jaccard similarity of the distinct value sets.
pub fn jaccard(a: &Column, b: &Column, norm: KeyNorm) -> f64 {
    let sa = key_set(a, norm);
    let sb = key_set(b, norm);
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let inter = sa.iter().filter(|h| sb.contains(*h)).count();
    inter as f64 / (sa.len() + sb.len() - inter) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::value::ValueRef;

    fn accounts() -> Table {
        Table::new(
            "accounts",
            vec![
                Column::text("name", ["Acme Corp", "Globex", "Initech", "Hooli"]),
                Column::ints("size", vec![100, 200, 50, 900]),
            ],
        )
        .unwrap()
    }

    fn industries() -> Table {
        Table::new(
            "industries",
            vec![
                Column::text("company", ["ACME CORP", "INITECH", "UMBRELLA"]),
                Column::text("sector", ["Manufacturing", "Software", "Biotech"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_join_preserves_cardinality() {
        let base = accounts();
        let aug =
            lookup_join(&base, "name", &industries(), "company", &["sector"], KeyNorm::CaseFold)
                .unwrap();
        assert_eq!(aug.num_rows(), base.num_rows(), "cardinality preserved");
        assert_eq!(aug.column("sector").unwrap().get(0), ValueRef::Text("Manufacturing"));
        assert_eq!(aug.column("sector").unwrap().get(1), ValueRef::Null);
    }

    #[test]
    fn lookup_join_takes_first_match() {
        let base = Table::new("b", vec![Column::ints("k", vec![1])]).unwrap();
        let lk = Table::new(
            "l",
            vec![Column::ints("k", vec![1, 1]), Column::text("v", ["first", "second"])],
        )
        .unwrap();
        let j = lookup_join(&base, "k", &lk, "k", &[], KeyNorm::Exact).unwrap();
        assert_eq!(j.num_rows(), 1);
        assert_eq!(j.column("v").unwrap().get(0), ValueRef::Text("first"));
    }

    #[test]
    fn lookup_join_disambiguates_names() {
        let base =
            Table::new("b", vec![Column::ints("k", vec![1]), Column::text("v", ["x"])]).unwrap();
        let lk =
            Table::new("l", vec![Column::ints("k", vec![1]), Column::text("v", ["y"])]).unwrap();
        let j = lookup_join(&base, "k", &lk, "k", &[], KeyNorm::Exact).unwrap();
        assert_eq!(j.column("right_v").unwrap().get(0), ValueRef::Text("y"));
    }

    #[test]
    fn norms_change_matching() {
        let a = Column::text("a", ["Apple, Inc."]);
        let b = Column::text("b", ["apple inc"]);
        assert_eq!(containment(&a, &b, KeyNorm::Exact), 0.0);
        assert_eq!(containment(&a, &b, KeyNorm::CaseFold), 0.0);
        assert_eq!(containment(&a, &b, KeyNorm::AlphaNum), 1.0);
    }

    #[test]
    fn containment_vs_jaccard_asymmetry() {
        // FK ⊂ PK: containment of FK in PK is 1.0, Jaccard much lower —
        // the asymmetry behind Aurum's misses on Spider (§4.3.2).
        let pk = Column::ints("pk", (0..100).collect());
        let fk = Column::ints("fk", (0..10).collect());
        assert_eq!(containment(&fk, &pk, KeyNorm::Exact), 1.0);
        let j = jaccard(&fk, &pk, KeyNorm::Exact);
        assert!(j < 0.11, "jaccard {j}");
    }

    #[test]
    fn null_keys_never_match() {
        let l = Table::new("l", vec![Column::text_opt("k", [None, Some("x")])]).unwrap();
        let r = Table::new(
            "r",
            vec![Column::text_opt("k", [None::<&str>]), Column::ints("v", vec![9])],
        )
        .unwrap();
        let j = lookup_join(&l, "k", &r, "k", &["v"], KeyNorm::Exact).unwrap();
        assert_eq!(j.num_rows(), 2, "a lookup keeps every base row");
        assert_eq!(j.column("v").unwrap().get(0), ValueRef::Null, "NULL never matches NULL");
        assert_eq!(j.column("v").unwrap().get(1), ValueRef::Null);
    }

    #[test]
    fn join_errors_on_missing_key() {
        let l = accounts();
        let r = industries();
        assert!(lookup_join(&l, "nope", &r, "company", &[], KeyNorm::Exact).is_err());
        assert!(lookup_join(&l, "name", &r, "nope", &[], KeyNorm::Exact).is_err());
        assert!(matches!(
            lookup_join(&l, "name", &r, "company", &["nope"], KeyNorm::Exact),
            Err(StoreError::NotFound(_))
        ));
    }
}
