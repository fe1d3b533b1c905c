//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the store, embedding, and LSH layers.
//!
//! Each test runs a fixed number of cases. Case `i` of test `name` draws
//! every input from `Xoshiro256pp::new(combine64(stable_hash_str(name), i))`.
//! A failing case prints that seed; `Xoshiro256pp::new(seed)` alone
//! reproduces its inputs, whatever ran before it.

use warpgate::embed::{Aggregation, ColumnEmbedder, WebTableModel};
use warpgate::lsh::{MinHasher, SimHasher};
use warpgate::prelude::*;
use warpgate::store::csv;
use warpgate::store::Value;
use warpgate::util::hash::{combine64, stable_hash_str};
use warpgate::util::rng::{Rng64, Xoshiro256pp};

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Run `cases` seeded cases of `property`, naming the seed of the first
/// one that fails.
fn check(name: &str, cases: u64, property: impl Fn(&mut Xoshiro256pp)) {
    for case in 0..cases {
        let seed = combine64(stable_hash_str(name), case);
        if let Err(panic) =
            catch_unwind(AssertUnwindSafe(|| property(&mut Xoshiro256pp::new(seed))))
        {
            eprintln!("{name}: case {case} of {cases} failed; replay with seed {seed:#018x}");
            resume_unwind(panic);
        }
    }
}

/// Uniform in the half-open `range`.
fn usize_in(rng: &mut Xoshiro256pp, range: Range<usize>) -> usize {
    range.start + rng.gen_index(range.end - range.start)
}

/// A vec whose length is drawn from `len`, each element from `item`.
fn vec_of<T>(
    rng: &mut Xoshiro256pp,
    len: Range<usize>,
    mut item: impl FnMut(&mut Xoshiro256pp) -> T,
) -> Vec<T> {
    (0..usize_in(rng, len)).map(|_| item(rng)).collect()
}

/// A string whose length is drawn from `len`, each char from `class`.
fn string_of(rng: &mut Xoshiro256pp, class: &[u8], len: Range<usize>) -> String {
    (0..usize_in(rng, len)).map(|_| *rng.choose(class) as char).collect()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const NAME_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// Printable ASCII, commas and quotes included.
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

fn arb_value(rng: &mut Xoshiro256pp) -> Value {
    match rng.gen_range(5) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_u64() as i64),
        // Finite floats only: the store rejects inf/NaN at CSV ingestion.
        3 => Value::Float(-1e12 + rng.gen_f64() * 2e12),
        _ => Value::Text(string_of(rng, &printable(), 0..19)),
    }
}

fn arb_column(rng: &mut Xoshiro256pp) -> Column {
    let values = vec_of(rng, 0..40, arb_value);
    let name = string_of(rng, LOWER, 1..2) + &string_of(rng, NAME_TAIL, 0..11);
    Column::from_values(name, &values)
}

// ---------------------------------------------------------------------------
// Store invariants
// ---------------------------------------------------------------------------

/// Wire-codec round trip is the identity for arbitrary columns.
#[test]
fn column_codec_roundtrip() {
    check("column_codec_roundtrip", 64, |rng| {
        let col = arb_column(rng);
        let mut buf = Vec::new();
        col.encode(&mut buf);
        let mut cursor = &buf[..];
        let decoded = Column::decode(&mut cursor).expect("decode");
        assert_eq!(decoded, col);
        assert!(cursor.is_empty());
    });
}

/// Values text dictionaries are drawn from: the empty string, ASCII, and
/// two-byte (`ß`, `É`, `Σ`, `٣`) and four-byte (`𝔸`) UTF-8.
const TEXT_PIECES: &[&str] = &["a", "b", "ß", "É", "Σ", "٣", "𝔸"];

fn wire(column: &Column) -> Vec<u8> {
    let mut buf = Vec::new();
    column.encode(&mut buf);
    buf
}

/// A text column with NULLs, empty strings and multi-byte values: its
/// dictionary's wire form round-trips byte for byte, `take` equals
/// interning the kept rows afresh, and the distinct values come out in
/// first-seen order with their counts.
#[test]
fn text_dictionary_codec_and_take() {
    check("text_dictionary_codec_and_take", 64, |rng| {
        let rows: Vec<Option<String>> = vec_of(rng, 0..60, |rng| {
            let null = rng.gen_index(6) == 0;
            let pieces = usize_in(rng, 0..3);
            (!null).then(|| (0..pieces).map(|_| *rng.choose(TEXT_PIECES)).collect())
        });
        let column = Column::text_opt("t", rows.iter().map(Option::as_deref));

        let bytes = wire(&column);
        let decoded = Column::decode(&mut &bytes[..]).expect("decode");
        decoded.check().expect("check");
        assert_eq!(wire(&decoded), bytes);
        assert_eq!(decoded, column);

        let idx = match rows.len() {
            0 => Vec::new(),
            n => vec_of(rng, 0..80, |rng| rng.gen_index(n)),
        };
        let kept = Column::text_opt("t", idx.iter().map(|&i| rows[i].as_deref()));
        assert_eq!(wire(&column.take(&idx)), wire(&kept));

        let mut first_seen: Vec<(String, u32)> = Vec::new();
        for value in rows.iter().flatten() {
            match first_seen.iter_mut().find(|(seen, _)| seen == value) {
                Some((_, count)) => *count += 1,
                None => first_seen.push((value.clone(), 1)),
            }
        }
        let mut yielded = Vec::new();
        column.for_each_value_count(|value, count| yielded.push((value.to_string(), count)));
        assert_eq!(yielded, first_seen);
    });
}

/// CSV write → read reproduces every *text* cell exactly (typed columns
/// may re-infer, so test pure text tables).
#[test]
fn csv_roundtrip_text() {
    check("csv_roundtrip_text", 64, |rng| {
        // Cells that are pure whitespace or parse as numbers/bools would
        // legitimately re-type on read; mark them to keep the column text.
        let cells = vec_of(rng, 1..30, |rng| format!("v{}", string_of(rng, &printable(), 0..17)));
        let table = Table::new("t", vec![Column::text("field", cells)]).unwrap();
        let text = csv::write_table(&table);
        let back = csv::read_table("t", &text).expect("parse");
        assert_eq!(back.column("field").unwrap(), table.column("field").unwrap());
    });
}

/// Lookup join always preserves base cardinality, whatever the data.
#[test]
fn lookup_join_preserves_cardinality() {
    check("lookup_join_preserves_cardinality", 64, |rng| {
        let base_keys = vec_of(rng, 1..30, |rng| string_of(rng, b"abc", 1..3));
        let lookup_keys = vec_of(rng, 1..30, |rng| string_of(rng, b"abc", 1..3));
        let rows = lookup_keys.len() as i64;
        let base = Table::new("b", vec![Column::text("k", base_keys)]).unwrap();
        let lk = Table::new(
            "l",
            vec![Column::text("k", lookup_keys), Column::ints("v", (0..rows).collect())],
        )
        .unwrap();
        let joined = warpgate::store::join::lookup_join(&base, "k", &lk, "k", &[], KeyNorm::Exact)
            .expect("join");
        assert_eq!(joined.num_rows(), base.num_rows());
    });
}

/// Reservoir sampling returns exactly min(n, len) rows, all from the
/// source column, without replacement.
#[test]
fn reservoir_sample_bounds() {
    check("reservoir_sample_bounds", 64, |rng| {
        let (len, n, seed) = (usize_in(rng, 0..400), usize_in(rng, 1..100), rng.gen_u64());
        let col = Column::ints("x", (0..len as i64).collect());
        let sampled = SampleSpec::Reservoir { n, seed }.apply(&col);
        assert_eq!(sampled.len(), n.min(len));
        let mut seen = std::collections::HashSet::new();
        for v in sampled.iter() {
            let warpgate::store::ValueRef::Int(i) = v else {
                panic!("non-int value leaked into sample");
            };
            assert!((0..len as i64).contains(&i));
            assert!(seen.insert(i), "duplicate {i}");
        }
    });
}

/// Containment is reflexive and bounded for arbitrary text columns.
#[test]
fn containment_bounds() {
    check("containment_bounds", 64, |rng| {
        let col = Column::text("c", vec_of(rng, 1..40, |rng| string_of(rng, b"abcde", 1..4)));
        let c = warpgate::store::containment(&col, &col, KeyNorm::Exact);
        assert!((c - 1.0).abs() < 1e-12, "self containment {c}");
        let empty = Column::text("e", Vec::<String>::new());
        assert_eq!(warpgate::store::containment(&empty, &col, KeyNorm::Exact), 0.0);
    });
}

// ---------------------------------------------------------------------------
// Embedding invariants
// ---------------------------------------------------------------------------

/// Column embeddings are invariant to row order.
#[test]
fn embedding_row_order_invariant() {
    check("embedding_row_order_invariant", 24, |rng| {
        // One or two lowercase words.
        let mut values = vec_of(rng, 2..30, |rng| {
            let word = string_of(rng, LOWER, 1..9);
            if rng.gen_bool(0.5) {
                format!("{word} {}", string_of(rng, LOWER, 1..9))
            } else {
                word
            }
        });
        let embedder =
            ColumnEmbedder::new(Arc::new(WebTableModel::default_model()), Aggregation::default());
        let a = embedder.embed_column(&Column::text("c", values.clone()));
        rng.shuffle(&mut values);
        let b = embedder.embed_column(&Column::text("c", values));
        // Identical value multisets must embed identically up to float
        // association order in the accumulator.
        assert!(a.cosine(&b) > 0.9999, "row order changed embedding: {}", a.cosine(&b));
    });
}

/// Case and punctuation variants embed onto the same point.
#[test]
fn embedding_format_invariant() {
    check("embedding_format_invariant", 24, |rng| {
        let values = vec_of(rng, 1..20, |rng| string_of(rng, LOWER, 2..9));
        let embedder = ColumnEmbedder::new(
            Arc::new(WebTableModel::default_model()),
            Aggregation::MeanDistinct,
        );
        let shouty: Vec<String> = values.iter().map(|v| format!("{}!", v.to_uppercase())).collect();
        let plain = embedder.embed_column(&Column::text("c", values));
        let loud = embedder.embed_column(&Column::text("c", shouty));
        assert!(plain.cosine(&loud) > 0.999);
    });
}

/// Embeddings are unit length or exactly zero.
#[test]
fn embedding_norm_invariant() {
    check("embedding_norm_invariant", 24, |rng| {
        let values = vec_of(rng, 0..20, |rng| string_of(rng, &printable(), 0..11));
        let embedder =
            ColumnEmbedder::new(Arc::new(WebTableModel::default_model()), Aggregation::default());
        let v = embedder.embed_column(&Column::text("c", values));
        assert!(v.is_zero() || v.is_normalized(), "norm {}", v.norm());
    });
}

// ---------------------------------------------------------------------------
// LSH invariants
// ---------------------------------------------------------------------------

fn unit_gaussian(rng: &mut Xoshiro256pp, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n);
    v
}

/// SimHash cosine estimates stay within a statistical band of truth.
#[test]
fn simhash_estimates_cosine() {
    check("simhash_estimates_cosine", 32, |rng| {
        let (seed, alpha) = (rng.gen_u64(), rng.gen_f64() as f32);
        let mut rng = Xoshiro256pp::new(seed);
        let dim = 48;
        let a = unit_gaussian(&mut rng, dim);
        let b0 = unit_gaussian(&mut rng, dim);
        let mut b: Vec<f32> =
            a.iter().zip(&b0).map(|(x, y)| alpha * x + (1.0 - alpha) * y).collect();
        let n = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        b.iter_mut().for_each(|x| *x /= n);
        let truth: f64 = a.iter().zip(&b).map(|(x, y)| (x * y) as f64).sum();

        let hasher = SimHasher::new(dim, 1024, seed ^ 0xABCD);
        let est = hasher.sign(&a).cosine_estimate(&hasher.sign(&b));
        // 1024 bits: sampling error well under 0.12 with overwhelming
        // probability.
        assert!((truth - est).abs() < 0.12, "truth {truth:.3} est {est:.3}");
    });
}

/// MinHash Jaccard estimates stay within a statistical band of truth.
#[test]
fn minhash_estimates_jaccard() {
    check("minhash_estimates_jaccard", 32, |rng| {
        let (overlap, extra) = (usize_in(rng, 0..100), usize_in(rng, 1..100));
        let a: Vec<u64> = (0..(overlap + extra) as u64).collect();
        let b: Vec<u64> = (0..overlap as u64).chain(10_000..(10_000 + extra as u64)).collect();
        let truth = overlap as f64 / (overlap + 2 * extra) as f64;
        let h = MinHasher::new(512, 99);
        let est = h.sign(a.iter().copied()).jaccard_estimate(&h.sign(b.iter().copied()));
        assert!((truth - est).abs() < 0.12, "truth {truth:.3} est {est:.3}");
    });
}

/// LSH top-1 agrees with exact search whenever LSH returns anything,
/// for near-duplicate queries (which are above any banding threshold).
#[test]
fn lsh_top1_matches_exact_for_near_duplicates() {
    check("lsh_top1_matches_exact_for_near_duplicates", 32, |rng| {
        let dim = 32;
        let mut index = warpgate::lsh::SimHashLshIndex::for_threshold(dim, 0.7, 5);
        let base = unit_gaussian(rng, dim);
        for id in 0..50u32 {
            let mut v: Vec<f32> =
                base.iter().map(|x| x + 0.02 * rng.gen_gaussian() as f32).collect();
            let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            index.insert(id, &v);
        }
        let lsh = index.search(&base, 1, |_| false);
        let exact = index.search_exact(&base, 1, |_| false);
        assert!(!lsh.is_empty(), "near-duplicates must collide");
        assert_eq!(lsh[0].0, exact[0].0);
    });
}
