//! Column-level embedding: aggregate value embeddings into one vector.
//!
//! WarpGate embeds *columns* (§3.1.1). We aggregate over the column's
//! **distinct values with multiplicities** — the dictionary the column
//! store maintains anyway — under one of three weighting schemes. The
//! scheme is an explicit design knob because the paper leaves aggregation
//! unspecified; `bench ablation_aggregation` compares them.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wg_store::Column;

use crate::model::EmbeddingModel;
use crate::vector::Vector;

/// How distinct-value embeddings combine into a column embedding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// Unweighted mean over distinct values. Duplicates carry no weight, so
    /// a column that is 99% `"N/A"` is still described by its tail.
    MeanDistinct,
    /// Mean weighted by value frequency — equivalent to embedding every row.
    FrequencyWeighted,
    /// Smooth-inverse-frequency: weight `a / (a + p(v))` with `p(v)` the
    /// value's within-column relative frequency. Interpolates between the
    /// two extremes; very frequent filler values are damped, rare values
    /// are not over-trusted.
    Sif {
        /// Smoothing constant; typical `1e-2..1e-1` for column data.
        a: f32,
    },
}

impl Aggregation {
    /// Weight for a value occurring `count` times among `total` rows.
    fn weight(&self, count: u32, total: u64) -> f32 {
        match self {
            Aggregation::MeanDistinct => 1.0,
            Aggregation::FrequencyWeighted => count as f32,
            Aggregation::Sif { a } => {
                let p = count as f32 / total.max(1) as f32;
                a / (a + p)
            }
        }
    }

    /// Short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Aggregation::MeanDistinct => "mean-distinct",
            Aggregation::FrequencyWeighted => "freq-weighted",
            Aggregation::Sif { .. } => "sif",
        }
    }
}

impl Default for Aggregation {
    fn default() -> Self {
        Aggregation::Sif { a: 0.05 }
    }
}

/// Embeds columns using a model plus an aggregation scheme.
#[derive(Clone)]
pub struct ColumnEmbedder {
    model: Arc<dyn EmbeddingModel>,
    aggregation: Aggregation,
    /// Column/value-set embeddings computed so far. Shared across clones
    /// (`Arc`) so a system-wide counter survives pipeline fan-out; used by
    /// incremental-sync tests to prove only changed columns re-embed.
    embeds: Arc<AtomicU64>,
}

impl ColumnEmbedder {
    /// Pair a model with an aggregation scheme.
    pub fn new(model: Arc<dyn EmbeddingModel>, aggregation: Aggregation) -> Self {
        Self { model, aggregation, embeds: Arc::new(AtomicU64::new(0)) }
    }

    /// How many column/value-set embeddings this embedder (including its
    /// clones) has computed.
    pub fn embed_count(&self) -> u64 {
        self.embeds.load(Ordering::Relaxed)
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The underlying model.
    pub fn model(&self) -> &Arc<dyn EmbeddingModel> {
        &self.model
    }

    /// The aggregation scheme.
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// Embed a column (typically one that was already sampled by the CDW
    /// connector). Returns a unit vector, or the zero vector when the
    /// column has no embeddable content (all NULL / all symbols).
    ///
    /// A text column's dictionary *is* its distinct values with
    /// multiplicities and is read in place; any other type is counted by
    /// typed key and rendered into one reused buffer.
    pub fn embed_column(&self, column: &Column) -> Vector {
        self.embed_distinct(|sink| column.for_each_value_count(sink), column.len() as u64)
    }

    /// Embed a free-standing list of values (used for ad-hoc queries where
    /// the user pastes values rather than naming a warehouse column).
    pub fn embed_values<S: AsRef<str>>(&self, values: &[S]) -> Vector {
        let mut counts: Vec<(&str, u32)> = Vec::new();
        let mut index = wg_util::fx_hash_map::<&str, usize>();
        for v in values {
            match index.entry(v.as_ref()) {
                Entry::Occupied(e) => counts[*e.get()].1 += 1,
                Entry::Vacant(e) => {
                    e.insert(counts.len());
                    counts.push((v.as_ref(), 1));
                }
            }
        }
        self.embed_distinct(
            |sink| counts.iter().for_each(|&(value, count)| sink(value, count)),
            values.len() as u64,
        )
    }

    /// Distinct values with multiplicities, in the order `values` emits
    /// them, to a column vector: the model runs the aggregation loop
    /// ([`EmbeddingModel::embed_values_into`]) over them, weighted by this
    /// embedder's scheme, and the sum is normalized.
    fn embed_distinct(
        &self,
        mut values: impl FnMut(&mut dyn FnMut(&str, u32)),
        total_rows: u64,
    ) -> Vector {
        self.embeds.fetch_add(1, Ordering::Relaxed);
        let mut acc = Vector::zeros(self.model.dim());
        let any = self.model.embed_values_into(
            &mut |sink| {
                values(&mut |value, count| sink(value, self.aggregation.weight(count, total_rows)))
            },
            &mut acc.0,
        );
        if any {
            acc.normalize();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minibert::MiniBertModel;
    use crate::store::{Key, CHUNK_ROWS};
    use crate::tokenizer::{reference, Token};
    use crate::webtable::{WebTableConfig, WebTableModel};
    use wg_store::{Column, Value};

    fn embedder(agg: Aggregation) -> ColumnEmbedder {
        ColumnEmbedder::new(Arc::new(WebTableModel::default_model()), agg)
    }

    /// The loop `embed_column` used to be: every distinct value rendered to
    /// a `String`, tokenized into owned tokens, embedded into a fresh
    /// `Vector` by `embed_tokens`, and added with `Vector` operations.
    fn embed_column_reference(
        aggregation: Aggregation,
        embed_tokens: &dyn Fn(&[Token]) -> Vector,
        dim: usize,
        column: &Column,
    ) -> Vector {
        let mut acc = Vector::zeros(dim);
        let mut any = false;
        for (value, count) in column.value_counts() {
            let tokens = reference::tokenize(&value);
            if tokens.is_empty() {
                continue;
            }
            let v = embed_tokens(&tokens);
            if v.is_zero() {
                continue;
            }
            acc.add_scaled(&v, aggregation.weight(count, column.len() as u64));
            any = true;
        }
        if any {
            acc.normalize();
        }
        acc
    }

    /// Text columns over the tokenizer's differential-test cells (with
    /// repeats and NULLs), columns aimed at the token store's edges, and
    /// one column of each other type.
    fn parity_columns() -> Vec<Column> {
        let cells = reference::cells(31, 160);
        let repeated = cells.iter().chain(cells.iter().step_by(3)).chain(cells.iter().step_by(7));
        // Two tokens whose probes start at one slot of a new store's table,
        // and enough others beside them that their chunk is published.
        // (Digit runs, so each cell is one token.)
        let home = |t: &str| Key::token(t).home(2 * CHUNK_ROWS);
        let pair = (8..).map(|i| i.to_string()).find(|t| home(t) == home("7")).unwrap();
        let chained =
            ["7".to_string(), pair].into_iter().chain((0..CHUNK_ROWS).map(|i| format!("9{i:05}")));
        vec![
            Column::text("distinct", &cells[..60]),
            Column::text_opt(
                "repeats",
                repeated.enumerate().map(|(i, c)| (i % 11 != 0).then_some(c.as_str())),
            ),
            Column::text("symbols", ["---", "", " / "]),
            // Seven bytes sit in a slot, eight do not; multi-byte characters
            // count by bytes, and a long token may differ in its last byte.
            Column::text(
                "token lengths",
                ["abcdefg abcdefgh", "abcdefgi ééé éééé", "日本語 日本語日本語", "abcdefg"],
            ),
            Column::text("chained", chained.collect::<Vec<_>>()),
            Column::ints("ints", (0..90).map(|i| (i % 17) * 1000 - 3).collect()),
            Column::ints("int extremes", vec![i64::MIN, i64::MAX, 0, -1, i64::MIN]),
            Column::from_values(
                "floats",
                &[0.0, -0.0, 2.5, f64::NAN, 1e15, 2.5, -7.0, -f64::NAN, 0.0]
                    .iter()
                    .map(|&x| Value::Float(x))
                    .chain([Value::Float(f64::from_bits(0x7ff8_0000_0000_beef)), Value::Null])
                    .collect::<Vec<_>>(),
            ),
            Column::bools("bools", vec![true, false, true]),
        ]
    }

    fn bits(v: &Vector) -> Vec<u32> {
        v.0.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_embedding_is_bit_equal_to_the_reference_loop() {
        let oracle = WebTableModel::default_model();
        // The old per-value entry point: each token vector copied out of
        // the model, summed and normalized.
        let web_tokens = |tokens: &[Token]| {
            let mut acc = Vector::zeros(oracle.dim());
            for t in tokens {
                acc.add_scaled(&oracle.compute_token_reference(t), 1.0);
            }
            acc.normalize();
            acc
        };
        // A store that keeps nothing, almost nothing, exactly one chunk,
        // and everything.
        for cache_capacity in [0, 2, CHUNK_ROWS, WebTableConfig::default().cache_capacity] {
            for aggregation in [
                Aggregation::MeanDistinct,
                Aggregation::FrequencyWeighted,
                Aggregation::Sif { a: 0.05 },
            ] {
                for c in parity_columns() {
                    let want = embed_column_reference(aggregation, &web_tokens, oracle.dim(), &c);
                    // A model of its own, so "chained" meets an empty table;
                    // twice, so the second pass reads what the first stored.
                    let config = WebTableConfig { cache_capacity, ..Default::default() };
                    let e = ColumnEmbedder::new(Arc::new(WebTableModel::new(config)), aggregation);
                    for pass in ["cold", "warm"] {
                        assert_eq!(
                            bits(&e.embed_column(&c)),
                            bits(&want),
                            "{} {aggregation:?} capacity {cache_capacity} {pass}",
                            c.name()
                        );
                    }
                }
            }
        }

        let bert = Arc::new(MiniBertModel::default_model());
        let e = ColumnEmbedder::new(bert.clone(), Aggregation::default());
        for c in parity_columns().iter().skip(1) {
            let want = embed_column_reference(
                Aggregation::default(),
                &|tokens| bert.embed_tokens_reference(tokens),
                bert.dim(),
                c,
            );
            assert_eq!(bits(&e.embed_column(c)), bits(&want), "{}", c.name());
        }
    }

    #[test]
    fn borrowed_value_counts_are_the_owned_ones() {
        // What `embed_column` reads against what the reference loop reads.
        for c in parity_columns() {
            let mut borrowed = Vec::new();
            c.for_each_value_count(|value, count| borrowed.push((value.to_string(), count)));
            assert_eq!(borrowed, c.value_counts(), "{}", c.name());
        }
    }

    #[test]
    fn nothing_is_held_while_values_are_produced() {
        // A producer that goes back into the model between two values: a
        // miss ("new" is stored by the call) and a hit. With a guard held
        // across the column, the miss would wait for it forever.
        let model = WebTableModel::default_model();
        let mut acc = vec![0.0; model.dim()];
        let any = model.embed_values_into(
            &mut |sink| {
                sink("old new", 1.0);
                for token in ["new", "old"] {
                    let inside = model.token_vector(token);
                    assert_eq!(bits(&inside), bits(&model.compute_token_reference(token)));
                }
                sink("newer", 2.0);
            },
            &mut acc,
        );
        assert!(any);
        let mut want = Vector::zeros(model.dim());
        want.add_scaled(&model.embed_text("old new"), 1.0);
        want.add_scaled(&model.embed_text("newer"), 2.0);
        assert_eq!(bits(&Vector(acc)), bits(&want));
    }

    #[test]
    fn joinable_columns_more_similar_than_unrelated() {
        let e = embedder(Aggregation::default());
        let companies_a = Column::text("name", ["Acme Corp", "Globex", "Initech", "Hooli"]);
        let companies_b = Column::text("company", ["ACME CORP", "GLOBEX", "INITECH", "Umbrella"]);
        let cities = Column::text("city", ["Austin", "Boston", "Chicago", "Denver"]);
        let sim_join = e.embed_column(&companies_a).cosine(&e.embed_column(&companies_b));
        let sim_unrelated = e.embed_column(&companies_a).cosine(&e.embed_column(&cities));
        assert!(sim_join > sim_unrelated + 0.3, "join {sim_join} vs unrelated {sim_unrelated}");
        // 3 of the 4 values are shared after tokenization, so the expected
        // cosine is around 3/4.
        assert!(sim_join > 0.6, "format variants should stay close: {sim_join}");
    }

    #[test]
    fn sampling_robustness_of_embedding() {
        // The §4.4 property in miniature: a 25% distinct-value sample stays
        // close to the full-column embedding.
        let e = embedder(Aggregation::default());
        let values: Vec<String> = (0..400).map(|i| format!("entity number {i}")).collect();
        let full = Column::text("c", values.clone());
        let sampled = Column::text("c", values.iter().take(100).cloned().collect::<Vec<_>>());
        let sim = e.embed_column(&full).cosine(&e.embed_column(&sampled));
        assert!(sim > 0.9, "sampled embedding drifted: {sim}");
    }

    #[test]
    fn mean_distinct_ignores_duplication() {
        let e = embedder(Aggregation::MeanDistinct);
        let balanced = Column::text("c", ["alpha", "beta"]);
        let mut skewed_vals = vec!["alpha"; 99];
        skewed_vals.push("beta");
        let skewed = Column::text("c", skewed_vals);
        let sim = e.embed_column(&balanced).cosine(&e.embed_column(&skewed));
        assert!(sim > 0.999, "distinct aggregation must ignore multiplicity: {sim}");
    }

    #[test]
    fn frequency_weighted_tracks_duplication() {
        let e = embedder(Aggregation::FrequencyWeighted);
        let mut skewed_vals = vec!["alpha"; 99];
        skewed_vals.push("beta");
        let skewed = Column::text("c", skewed_vals);
        let alpha_only = Column::text("c", ["alpha"]);
        let sim = e.embed_column(&skewed).cosine(&e.embed_column(&alpha_only));
        assert!(sim > 0.95, "frequency weighting should be dominated by alpha: {sim}");
    }

    #[test]
    fn sif_sits_between() {
        let sif = embedder(Aggregation::Sif { a: 0.05 });
        let freq = embedder(Aggregation::FrequencyWeighted);
        let mut skewed_vals = vec!["alpha"; 99];
        skewed_vals.push("beta");
        let skewed = Column::text("c", skewed_vals);
        let alpha_only = Column::text("c", ["alpha"]);
        let sim_sif = sif.embed_column(&skewed).cosine(&sif.embed_column(&alpha_only));
        let sim_freq = freq.embed_column(&skewed).cosine(&freq.embed_column(&alpha_only));
        assert!(sim_sif < sim_freq, "SIF must damp the dominant value");
    }

    #[test]
    fn empty_and_null_columns_are_zero() {
        let e = embedder(Aggregation::default());
        let empty = Column::text("c", Vec::<String>::new());
        assert!(e.embed_column(&empty).is_zero());
        let nulls = Column::text_opt("c", [None::<&str>, None]);
        assert!(e.embed_column(&nulls).is_zero());
    }

    #[test]
    fn numeric_columns_embed_via_rendering() {
        let e = embedder(Aggregation::default());
        let a = Column::ints("ids", vec![100, 200, 300]);
        let b = Column::text("ids_text", ["100", "200", "300"]);
        let sim = e.embed_column(&a).cosine(&e.embed_column(&b));
        assert!(sim > 0.999, "int column and its text rendering must agree: {sim}");
    }

    #[test]
    fn embed_values_matches_column() {
        let e = embedder(Aggregation::default());
        let vals = ["x", "y", "x"];
        let col = Column::text("c", vals);
        assert_eq!(bits(&e.embed_values(&vals)), bits(&e.embed_column(&col)));
        let cells = reference::cells(32, 200);
        let pasted: Vec<&String> = cells.iter().chain(cells.iter().step_by(2)).collect();
        let col = Column::text("c", &pasted);
        assert_eq!(bits(&e.embed_values(&pasted)), bits(&e.embed_column(&col)));
    }

    #[test]
    fn embed_counter_shared_across_clones() {
        let e = embedder(Aggregation::default());
        assert_eq!(e.embed_count(), 0);
        e.embed_column(&Column::text("c", ["a", "b"]));
        let clone = e.clone();
        clone.embed_values(&["x", "y"]);
        assert_eq!(e.embed_count(), 2, "clones must share the counter");
    }

    #[test]
    fn weights_behave() {
        assert_eq!(Aggregation::MeanDistinct.weight(50, 100), 1.0);
        assert_eq!(Aggregation::FrequencyWeighted.weight(50, 100), 50.0);
        let sif = Aggregation::Sif { a: 0.05 };
        assert!(sif.weight(90, 100) < sif.weight(1, 100));
    }
}
