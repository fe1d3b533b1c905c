//! Sampling operators.
//!
//! Sampling is WarpGate's central cost lever (§3.1.3): reading full tables
//! out of a CDW is slow and billed per byte, so the connector pushes a
//! [`SampleSpec`] into every scan. §4.4 shows the embedding approach stays
//! within ±1–2% effectiveness at sample sizes as small as 10 while cutting
//! response time to interactive speed — the specs here are what that
//! experiment sweeps.

use std::hash::Hash;

use wg_util::rng::{Rng64, Xoshiro256pp};
use wg_util::FxHashSet;

use crate::column::{valid, Column, ColumnData, NULL_CODE};
use crate::table::Table;
use crate::value::float_key_bits;

/// How a scan should reduce the rows it returns.
///
/// `Hash` lets specs key caches (the embedding cache in `warpgate_core`
/// stores one entry per column × spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleSpec {
    /// No sampling: the full column/table is scanned (the expensive path
    /// the paper's Table 2 measures).
    Full,
    /// First `n` rows. Cheapest but biased toward load order.
    Head(usize),
    /// Uniform random sample of `n` rows without replacement (reservoir
    /// sampling), seeded for reproducibility.
    Reservoir { n: usize, seed: u64 },
    /// Up to `n` *distinct* values, chosen by reservoir over the distinct
    /// set. Best per-byte signal for embeddings: duplicates carry no new
    /// semantic information.
    DistinctReservoir { n: usize, seed: u64 },
}

impl SampleSpec {
    /// The target row count, if the spec bounds one.
    pub fn target(&self) -> Option<usize> {
        match self {
            SampleSpec::Full => None,
            SampleSpec::Head(n)
            | SampleSpec::Reservoir { n, .. }
            | SampleSpec::DistinctReservoir { n, .. } => Some(*n),
        }
    }

    /// Row indices selected from a column of length `len`.
    ///
    /// For [`SampleSpec::DistinctReservoir`] the indices point at the first
    /// occurrence of each chosen distinct value, so `column.take(&idx)`
    /// yields one row per sampled value.
    pub fn select_rows(&self, column: &Column, len: usize) -> Vec<usize> {
        match *self {
            SampleSpec::Full => (0..len).collect(),
            SampleSpec::Head(n) => (0..len.min(n)).collect(),
            SampleSpec::Reservoir { n, seed } => reservoir_indices(len, n, seed),
            SampleSpec::DistinctReservoir { n, seed } => {
                distinct_reservoir_indices(column, n, seed)
            }
        }
    }

    /// Apply to a column, producing the sampled column.
    pub fn apply(&self, column: &Column) -> Column {
        match self {
            SampleSpec::Full => column.clone(),
            _ => {
                let idx = self.select_rows(column, column.len());
                column.take(&idx)
            }
        }
    }

    /// Encode for the remote-backend wire protocol: a tag byte plus the
    /// spec's parameters. See [`crate::remote`] for the frame layout.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        use wg_util::codec::{put_u64, put_u8};
        match *self {
            SampleSpec::Full => put_u8(buf, 0),
            SampleSpec::Head(n) => {
                put_u8(buf, 1);
                put_u64(buf, n as u64);
            }
            SampleSpec::Reservoir { n, seed } => {
                put_u8(buf, 2);
                put_u64(buf, n as u64);
                put_u64(buf, seed);
            }
            SampleSpec::DistinctReservoir { n, seed } => {
                put_u8(buf, 3);
                put_u64(buf, n as u64);
                put_u64(buf, seed);
            }
        }
    }

    /// Decode the wire form written by [`Self::encode`].
    pub fn decode(buf: &mut &[u8]) -> wg_util::codec::CodecResult<SampleSpec> {
        use wg_util::codec::{get_u64, get_u8, CodecError};
        Ok(match get_u8(buf)? {
            0 => SampleSpec::Full,
            1 => SampleSpec::Head(get_u64(buf)? as usize),
            2 => {
                let n = get_u64(buf)? as usize;
                SampleSpec::Reservoir { n, seed: get_u64(buf)? }
            }
            3 => {
                let n = get_u64(buf)? as usize;
                SampleSpec::DistinctReservoir { n, seed: get_u64(buf)? }
            }
            tag => return Err(CodecError::Invalid(format!("unknown SampleSpec tag {tag}"))),
        })
    }

    /// Apply to a whole table: one row selection shared across columns so
    /// rows stay aligned. `DistinctReservoir` falls back to plain reservoir
    /// at table granularity (distinctness is a per-column notion).
    pub fn apply_table(&self, table: &Table) -> Table {
        match *self {
            SampleSpec::Full => table.clone(),
            SampleSpec::Head(n) => table.head(n),
            SampleSpec::Reservoir { n, seed } | SampleSpec::DistinctReservoir { n, seed } => {
                let idx = reservoir_indices(table.num_rows(), n, seed);
                table.take(&idx)
            }
        }
    }
}

/// Algorithm R reservoir sampling over `[0, len)`, output sorted ascending
/// so downstream `take` preserves original row order.
fn reservoir_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    if n >= len {
        return (0..len).collect();
    }
    let mut rng = Xoshiro256pp::new(seed);
    let mut reservoir: Vec<usize> = (0..n).collect();
    for i in n..len {
        let j = rng.gen_index(i + 1);
        if j < n {
            reservoir[j] = i;
        }
    }
    reservoir.sort_unstable();
    reservoir
}

/// Reservoir over the *distinct values* of a column; returns first-occurrence
/// row indices of the sampled values, sorted ascending.
///
/// Rows are walked once and each value's first occurrence is offered to the
/// reservoir. A value's identity is its dictionary code for text (marked in
/// a bitmap; the walk stops once every code has been seen) and its typed
/// key for the other types — nothing is rendered or byte-hashed.
fn distinct_reservoir_indices(column: &Column, n: usize, seed: u64) -> Vec<usize> {
    let mut firsts = FirstOccurrences::new(n, column.len(), seed);
    match column.data() {
        ColumnData::Text(t) => {
            let mut seen = vec![false; t.dict().len()];
            let mut unseen = seen.len();
            for (row, &code) in t.codes().iter().enumerate() {
                if unseen == 0 {
                    break;
                }
                if code != NULL_CODE && !std::mem::replace(&mut seen[code as usize], true) {
                    unseen -= 1;
                    firsts.offer(row);
                }
            }
        }
        ColumnData::Bool { values, validity } => {
            firsts.offer_new_keys(values, validity, |b| b);
        }
        ColumnData::Int { values, validity } => {
            firsts.offer_new_keys(values, validity, |i| i);
        }
        ColumnData::Float { values, validity } => {
            firsts.offer_new_keys(values, validity, float_key_bits);
        }
    }
    firsts.into_sorted_rows()
}

/// Algorithm R over a stream of first-occurrence rows.
struct FirstOccurrences {
    n: usize,
    rng: Xoshiro256pp,
    rows: Vec<usize>,
    offered: usize,
}

impl FirstOccurrences {
    /// A reservoir of `n` over a column of `len` rows.
    fn new(n: usize, len: usize, seed: u64) -> Self {
        Self { n, rng: Xoshiro256pp::new(seed), rows: Vec::with_capacity(n.min(len)), offered: 0 }
    }

    fn offer(&mut self, row: usize) {
        if self.rows.len() < self.n {
            self.rows.push(row);
        } else {
            let j = self.rng.gen_index(self.offered + 1);
            if j < self.n {
                self.rows[j] = row;
            }
        }
        self.offered += 1;
    }

    /// Offer each valid row whose `key` has not occurred before.
    fn offer_new_keys<T: Copy, K: Hash + Eq>(
        &mut self,
        values: &[T],
        validity: &Option<Vec<bool>>,
        key: impl Fn(T) -> K,
    ) {
        let mut seen: FxHashSet<K> = FxHashSet::default();
        seen.reserve(values.len().min(SEEN_PRESIZE));
        for (row, &v) in values.iter().enumerate() {
            if valid(validity, row) && seen.insert(key(v)) {
                self.offer(row);
            }
        }
    }

    fn into_sorted_rows(mut self) -> Vec<usize> {
        self.rows.sort_unstable();
        self.rows
    }
}

/// Keys a numeric column's `seen` set has room for up front. Growing the
/// set from empty costs the sampler about a third more on testbed-S (46 →
/// 65 ms over the corpus); reserving a whole column's length would have a
/// ten-million-row column of five values ask for ~90 MB.
const SEEN_PRESIZE: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::reference;
    use crate::value::ValueRef;

    /// The sampler this module used to have: every row rendered to key
    /// bytes, FNV-hashed, and looked up in a set of hashes.
    fn distinct_reservoir_indices_reference(column: &Column, n: usize, seed: u64) -> Vec<usize> {
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut rng = Xoshiro256pp::new(seed);
        let mut reservoir: Vec<usize> = Vec::with_capacity(n);
        let mut distinct_rank = 0usize;
        let mut key = Vec::new();
        for row in 0..column.len() {
            let v = column.get(row);
            if v.is_null() {
                continue;
            }
            v.key_bytes(&mut key);
            let h = wg_util::stable_hash64(&key);
            if !seen.insert(h) {
                continue;
            }
            if reservoir.len() < n {
                reservoir.push(row);
            } else {
                let j = rng.gen_index(distinct_rank + 1);
                if j < n {
                    reservoir[j] = row;
                }
            }
            distinct_rank += 1;
        }
        reservoir.sort_unstable();
        reservoir
    }

    #[test]
    fn identity_sampler_picks_the_rows_the_hashing_sampler_picked() {
        for corpus_seed in [5, 6] {
            for c in reference::columns(corpus_seed) {
                for n in [1, 10, 1000, 5000] {
                    for seed in [0x5A17, 9] {
                        let spec = SampleSpec::DistinctReservoir { n, seed };
                        let rows = spec.select_rows(&c, c.len());
                        let want = distinct_reservoir_indices_reference(&c, n, seed);
                        assert_eq!(rows, want, "{} n={n} seed={seed}", c.name());
                        let (got, want) = (spec.apply(&c), reference::take(&c, &want));
                        assert_eq!(reference::wire(&got), reference::wire(&want), "{}", c.name());
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_floats_are_keyed_like_key_bytes() {
        let c = Column::floats("f", vec![0.0, -0.0, f64::NAN, -f64::NAN, 1.5, 0.0, 1.5]);
        let rows = SampleSpec::DistinctReservoir { n: 10, seed: 1 }.select_rows(&c, c.len());
        assert_eq!(rows, vec![0, 2, 4], "one zero, one NaN, one 1.5");
    }

    #[test]
    fn full_is_identity() {
        let c = Column::ints("n", (0..100).collect());
        assert_eq!(SampleSpec::Full.apply(&c), c);
    }

    #[test]
    fn head_takes_prefix() {
        let c = Column::ints("n", (0..100).collect());
        let s = SampleSpec::Head(5).apply(&c);
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(4), ValueRef::Int(4));
    }

    #[test]
    fn reservoir_size_and_uniqueness() {
        let c = Column::ints("n", (0..1000).collect());
        let s = SampleSpec::Reservoir { n: 50, seed: 1 }.apply(&c);
        assert_eq!(s.len(), 50);
        let mut vals: Vec<i64> = s
            .iter()
            .map(|v| match v {
                ValueRef::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        let before = vals.len();
        vals.dedup();
        assert_eq!(vals.len(), before, "no repeats without replacement");
    }

    #[test]
    fn reservoir_smaller_input_returns_all() {
        let c = Column::ints("n", (0..10).collect());
        let s = SampleSpec::Reservoir { n: 50, seed: 1 }.apply(&c);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn reservoir_is_deterministic_per_seed() {
        let c = Column::ints("n", (0..1000).collect());
        let a = SampleSpec::Reservoir { n: 20, seed: 7 }.apply(&c);
        let b = SampleSpec::Reservoir { n: 20, seed: 7 }.apply(&c);
        let d = SampleSpec::Reservoir { n: 20, seed: 8 }.apply(&c);
        assert_eq!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Sample 1 of 2 many times; both rows should be picked ~half the time.
        let c = Column::ints("n", vec![0, 1]);
        let mut first = 0;
        for seed in 0..2000 {
            let s = SampleSpec::Reservoir { n: 1, seed }.apply(&c);
            if s.get(0) == ValueRef::Int(0) {
                first += 1;
            }
        }
        assert!((800..1200).contains(&first), "first picked {first}/2000");
    }

    #[test]
    fn distinct_reservoir_takes_distinct_values() {
        let c = Column::text("t", ["a", "a", "b", "b", "b", "c"]);
        let s = SampleSpec::DistinctReservoir { n: 2, seed: 3 }.apply(&c);
        assert_eq!(s.len(), 2);
        assert_eq!(s.distinct_count(), 2);
    }

    #[test]
    fn distinct_reservoir_skips_nulls() {
        let c = Column::text_opt("t", [None, Some("a"), None, Some("b")]);
        let s = SampleSpec::DistinctReservoir { n: 10, seed: 3 }.apply(&c);
        assert_eq!(s.len(), 2);
        assert_eq!(s.null_count(), 0);
    }

    #[test]
    fn apply_table_keeps_rows_aligned() {
        let t = Table::new(
            "t",
            vec![
                Column::ints("id", (0..100).collect()),
                Column::ints("id2", (0..100).map(|i| i * 10).collect()),
            ],
        )
        .unwrap();
        let s = SampleSpec::Reservoir { n: 10, seed: 5 }.apply_table(&t);
        assert_eq!(s.num_rows(), 10);
        for r in 0..10 {
            let a = match s.column("id").unwrap().get(r) {
                ValueRef::Int(i) => i,
                _ => panic!(),
            };
            let b = match s.column("id2").unwrap().get(r) {
                ValueRef::Int(i) => i,
                _ => panic!(),
            };
            assert_eq!(b, a * 10, "row alignment broken");
        }
    }

    #[test]
    fn target_reports_bound() {
        assert_eq!(SampleSpec::Full.target(), None);
        assert_eq!(SampleSpec::Head(5).target(), Some(5));
        assert_eq!(SampleSpec::Reservoir { n: 9, seed: 0 }.target(), Some(9));
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        for spec in [
            SampleSpec::Full,
            SampleSpec::Head(17),
            SampleSpec::Reservoir { n: 100, seed: 0xABCD },
            SampleSpec::DistinctReservoir { n: 1000, seed: 0x5A17 },
        ] {
            let mut buf = Vec::new();
            spec.encode(&mut buf);
            let mut cursor = &buf[..];
            assert_eq!(SampleSpec::decode(&mut cursor).unwrap(), spec);
            assert!(cursor.is_empty(), "trailing bytes after {spec:?}");
        }
        let mut bad: &[u8] = &[9];
        assert!(SampleSpec::decode(&mut bad).is_err());
    }
}
