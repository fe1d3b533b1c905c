//! Columnar storage.
//!
//! Text columns are dictionary-encoded: the distinct strings live once in a
//! `dict` and rows are `u32` codes. This matters for this workload twice
//! over — (1) discovery corpora are dominated by low-cardinality string
//! columns, so memory drops sharply, and (2) sampling, profiling and
//! embedding all operate on *distinct values with multiplicities*, and a
//! duplicate-free dictionary makes the code a value's identity: the
//! distinct sampler marks codes in a bitmap, `take` re-interns through an
//! old-code → new-code table, and the embedder reads `dict`/`counts` in
//! place — no string is hashed on any of those paths. Numeric columns have
//! no dictionary; they pay one hash pass over typed keys (`i64`, float
//! bits, `bool`), never over rendered strings.
//!
//! The invariant all of that rests on — no string occurs twice in `dict`,
//! every code is in range — holds by construction for columns built here
//! and is checked by [`Column::check`] on columns decoded off the wire.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::{FxHashMap, FxHashSet};

use crate::dtype::{self, DataType};
use crate::error::{StoreError, StoreResult};
use crate::value::{Value, ValueRef};

/// Sentinel code for NULL in dictionary-encoded text columns.
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// A dictionary-encoded string column.
#[derive(Debug, Clone, PartialEq)]
pub struct TextColumn {
    /// Distinct values in first-seen order.
    dict: Vec<String>,
    /// Occurrences of each dictionary entry.
    counts: Vec<u32>,
    /// Per-row dictionary codes; `NULL_CODE` marks NULL.
    codes: Vec<u32>,
}

impl TextColumn {
    /// Build from row values, interning distinct strings.
    pub fn from_rows<I, S>(rows: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        let mut dict: Vec<String> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut codes: Vec<u32> = Vec::new();
        let mut intern: FxHashMap<String, u32> = FxHashMap::default();
        for row in rows {
            match row {
                None => codes.push(NULL_CODE),
                Some(s) => {
                    let s = s.as_ref();
                    let code = match intern.get(s) {
                        Some(&c) => c,
                        None => {
                            let c = dict.len() as u32;
                            intern.insert(s.to_string(), c);
                            dict.push(s.to_string());
                            counts.push(0);
                            c
                        }
                    };
                    counts[code as usize] += 1;
                    codes.push(code);
                }
            }
        }
        Self { dict, counts, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The distinct values, in first-seen order.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Occurrence count for each dictionary entry (parallel to [`dict`]).
    ///
    /// [`dict`]: TextColumn::dict
    pub fn dict_counts(&self) -> &[u32] {
        &self.counts
    }

    /// The per-row codes (`u32::MAX` = NULL).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Value at `row`, or `None` for NULL.
    pub fn get(&self, row: usize) -> Option<&str> {
        let code = self.codes[row];
        if code == NULL_CODE {
            None
        } else {
            Some(&self.dict[code as usize])
        }
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&c| c == NULL_CODE).count()
    }

    /// Re-intern after row selection so the dictionary only holds values
    /// that still occur (keeps sampled columns small). Codes are remapped
    /// through a table, so each kept string is cloned once and none is
    /// hashed; the result equals `from_rows` over the selected rows.
    fn take(&self, idx: &[usize]) -> Self {
        // `new code + 1` per old code, 0 = not kept yet: an all-zero table
        // comes from the allocator without being written.
        let mut remap = vec![0u32; self.dict.len()];
        let mut dict: Vec<String> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(idx.len());
        for &i in idx {
            let old = self.codes[i];
            if old == NULL_CODE {
                codes.push(NULL_CODE);
                continue;
            }
            let slot = &mut remap[old as usize];
            if *slot == 0 {
                dict.push(self.dict[old as usize].clone());
                counts.push(0);
                *slot = dict.len() as u32;
            }
            let code = *slot - 1;
            counts[code as usize] += 1;
            codes.push(code);
        }
        Self { dict, counts, codes }
    }
}

/// Physical storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans with optional validity (true = present).
    Bool { values: Vec<bool>, validity: Option<Vec<bool>> },
    /// 64-bit integers with optional validity.
    Int { values: Vec<i64>, validity: Option<Vec<bool>> },
    /// 64-bit floats with optional validity.
    Float { values: Vec<f64>, validity: Option<Vec<bool>> },
    /// Dictionary-encoded text.
    Text(TextColumn),
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Wrap pre-built storage.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Self { name: name.into(), data }
    }

    /// Non-null text column from anything string-like.
    pub fn text<I, S>(name: impl Into<String>, rows: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::new(name, ColumnData::Text(TextColumn::from_rows(rows.into_iter().map(Some))))
    }

    /// Nullable text column.
    pub fn text_opt<I, S>(name: impl Into<String>, rows: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        Self::new(name, ColumnData::Text(TextColumn::from_rows(rows)))
    }

    /// Non-null integer column.
    pub fn ints(name: impl Into<String>, values: Vec<i64>) -> Self {
        Self::new(name, ColumnData::Int { values, validity: None })
    }

    /// Non-null float column.
    pub fn floats(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self::new(name, ColumnData::Float { values, validity: None })
    }

    /// Non-null boolean column.
    pub fn bools(name: impl Into<String>, values: Vec<bool>) -> Self {
        Self::new(name, ColumnData::Bool { values, validity: None })
    }

    /// Build a column from owned values, inferring the narrowest common
    /// type. Mixed numeric widens to float; any other mixture falls back to
    /// text (rendering each value).
    pub fn from_values(name: impl Into<String>, values: &[Value]) -> Self {
        let mut ty: Option<DataType> = None;
        for v in values {
            if let Some(t) = v.dtype() {
                ty = Some(match ty {
                    None => t,
                    Some(prev) => dtype::unify(prev, t),
                });
            }
        }
        let name = name.into();
        match ty {
            None => {
                // All NULL: store as all-null text.
                Self::text_opt(name, values.iter().map(|_| None::<&str>))
            }
            Some(DataType::Int) => {
                let mut out = Vec::with_capacity(values.len());
                let mut validity = Vec::with_capacity(values.len());
                let mut any_null = false;
                for v in values {
                    match v {
                        Value::Int(i) => {
                            out.push(*i);
                            validity.push(true);
                        }
                        _ => {
                            out.push(0);
                            validity.push(false);
                            any_null = true;
                        }
                    }
                }
                Self::new(
                    name,
                    ColumnData::Int { values: out, validity: any_null.then_some(validity) },
                )
            }
            Some(DataType::Float) => {
                let mut out = Vec::with_capacity(values.len());
                let mut validity = Vec::with_capacity(values.len());
                let mut any_null = false;
                for v in values {
                    match v {
                        Value::Int(i) => {
                            out.push(*i as f64);
                            validity.push(true);
                        }
                        Value::Float(x) => {
                            out.push(*x);
                            validity.push(true);
                        }
                        _ => {
                            out.push(0.0);
                            validity.push(false);
                            any_null = true;
                        }
                    }
                }
                Self::new(
                    name,
                    ColumnData::Float { values: out, validity: any_null.then_some(validity) },
                )
            }
            Some(DataType::Bool) => {
                let mut out = Vec::with_capacity(values.len());
                let mut validity = Vec::with_capacity(values.len());
                let mut any_null = false;
                for v in values {
                    match v {
                        Value::Bool(b) => {
                            out.push(*b);
                            validity.push(true);
                        }
                        _ => {
                            out.push(false);
                            validity.push(false);
                            any_null = true;
                        }
                    }
                }
                Self::new(
                    name,
                    ColumnData::Bool { values: out, validity: any_null.then_some(validity) },
                )
            }
            Some(DataType::Text) => Self::text_opt(
                name,
                values.iter().map(|v| if v.is_null() { None } else { Some(v.to_string()) }),
            ),
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename, returning the column (builder style).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Physical storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Bool { .. } => DataType::Bool,
            ColumnData::Int { .. } => DataType::Int,
            ColumnData::Float { .. } => DataType::Float,
            ColumnData::Text(_) => DataType::Text,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Text(t) => t.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Bool { validity, .. }
            | ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. } => {
                validity.as_ref().map(|v| v.iter().filter(|&&ok| !ok).count()).unwrap_or(0)
            }
            ColumnData::Text(t) => t.null_count(),
        }
    }

    /// Cell at `row` as a borrowed value. Panics if out of range (like
    /// slice indexing); use [`Column::len`] to guard.
    pub fn get(&self, row: usize) -> ValueRef<'_> {
        match &self.data {
            ColumnData::Bool { values, validity } => {
                if valid(validity, row) {
                    ValueRef::Bool(values[row])
                } else {
                    ValueRef::Null
                }
            }
            ColumnData::Int { values, validity } => {
                if valid(validity, row) {
                    ValueRef::Int(values[row])
                } else {
                    ValueRef::Null
                }
            }
            ColumnData::Float { values, validity } => {
                if valid(validity, row) {
                    ValueRef::Float(values[row])
                } else {
                    ValueRef::Null
                }
            }
            ColumnData::Text(t) => match t.get(row) {
                Some(s) => ValueRef::Text(s),
                None => ValueRef::Null,
            },
        }
    }

    /// Iterate all cells.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Distinct non-null values rendered to strings, with multiplicities,
    /// in first-seen order: [`Column::for_each_value_count`], collected.
    /// This is the input the profiling layer consumes.
    pub fn value_counts(&self) -> Vec<(String, u32)> {
        let distinct = self.distinct();
        let mut out = Vec::with_capacity(distinct.len());
        distinct.for_each_rendered(|value, count| out.push((value.to_owned(), count)));
        out
    }

    /// Call `f` with each distinct non-null value, rendered, and its
    /// multiplicity, in first-seen order. The rendering is borrowed: a text
    /// column hands out its dictionary entries in place, any other type
    /// counts typed keys in one hashing pass and renders each distinct
    /// value into one reused buffer — no `String` per value. This is the
    /// input the embedding layer consumes.
    pub fn for_each_value_count(&self, f: impl FnMut(&str, u32)) {
        self.distinct().for_each_rendered(f);
    }

    /// Number of distinct non-null values (typed keys are counted, nothing
    /// is rendered).
    pub fn distinct_count(&self) -> usize {
        self.distinct().len()
    }

    fn distinct(&self) -> Distinct<'_> {
        match &self.data {
            ColumnData::Text(t) => Distinct::Dictionary(t),
            ColumnData::Bool { values, validity } => {
                Distinct::Counted(count_keys(values, validity, 2, |b| b, ValueRef::Bool))
            }
            ColumnData::Int { values, validity } => Distinct::Counted(count_keys(
                values,
                validity,
                DISTINCT_PRESIZE,
                |i| i,
                ValueRef::Int,
            )),
            // Keyed the way floats render: every NaN payload prints "NaN",
            // and any two other bit patterns (`-0.0` and `0.0` included)
            // print differently.
            ColumnData::Float { values, validity } => Distinct::Counted(count_keys(
                values,
                validity,
                DISTINCT_PRESIZE,
                |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() },
                ValueRef::Float,
            )),
        }
    }

    /// Select rows by index (allows repeats); reinterns text dictionaries.
    pub fn take(&self, idx: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Bool { values, validity } => ColumnData::Bool {
                values: idx.iter().map(|&i| values[i]).collect(),
                validity: take_validity(validity, idx),
            },
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: idx.iter().map(|&i| values[i]).collect(),
                validity: take_validity(validity, idx),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: idx.iter().map(|&i| values[i]).collect(),
                validity: take_validity(validity, idx),
            },
            ColumnData::Text(t) => ColumnData::Text(t.take(idx)),
        };
        Column { name: self.name.clone(), data }
    }

    /// First `n` rows (fewer if the column is shorter).
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        let idx: Vec<usize> = (0..n).collect();
        self.take(&idx)
    }

    /// Approximate in-memory footprint in bytes; this is also what the
    /// simulated CDW bills for when the column is scanned.
    pub fn approx_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Int { values, .. } => values.len() * 8,
            ColumnData::Float { values, .. } => values.len() * 8,
            ColumnData::Text(t) => {
                t.codes.len() * 4 + t.dict.iter().map(|s| s.len() + 8).sum::<usize>()
            }
        }
    }

    /// Encode to the wire format used by the simulated CDW and by index
    /// persistence.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_str(buf, &self.name);
        codec::put_u8(buf, self.dtype().tag());
        match &self.data {
            ColumnData::Bool { values, validity } => {
                codec::put_len(buf, values.len());
                for &b in values {
                    codec::put_u8(buf, u8::from(b));
                }
                encode_validity(buf, validity);
            }
            ColumnData::Int { values, validity } => {
                codec::put_len(buf, values.len());
                for &i in values {
                    codec::put_i64(buf, i);
                }
                encode_validity(buf, validity);
            }
            ColumnData::Float { values, validity } => {
                codec::put_len(buf, values.len());
                for &x in values {
                    codec::put_f64(buf, x);
                }
                encode_validity(buf, validity);
            }
            ColumnData::Text(t) => {
                codec::put_len(buf, t.dict.len());
                for s in &t.dict {
                    codec::put_str(buf, s);
                }
                codec::put_u32_slice(buf, &t.counts);
                codec::put_u32_slice(buf, &t.codes);
            }
        }
    }

    /// Decode the wire format. Inverse of [`Column::encode`].
    pub fn decode(buf: &mut &[u8]) -> CodecResult<Column> {
        let name = codec::get_str(buf)?;
        let tag = codec::get_u8(buf)?;
        let dt = DataType::from_tag(tag)
            .ok_or_else(|| CodecError::Invalid(format!("bad dtype tag {tag}")))?;
        let data = match dt {
            DataType::Bool => {
                let len = codec::get_len(buf)?;
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(codec::get_u8(buf)? != 0);
                }
                ColumnData::Bool { values, validity: decode_validity(buf)? }
            }
            DataType::Int => {
                let len = codec::get_len(buf)?;
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(codec::get_i64(buf)?);
                }
                ColumnData::Int { values, validity: decode_validity(buf)? }
            }
            DataType::Float => {
                let len = codec::get_len(buf)?;
                let mut values = Vec::with_capacity(len);
                for _ in 0..len {
                    values.push(codec::get_f64(buf)?);
                }
                ColumnData::Float { values, validity: decode_validity(buf)? }
            }
            DataType::Text => {
                let dict_len = codec::get_len(buf)?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(codec::get_str(buf)?);
                }
                let counts = codec::get_u32_vec(buf)?;
                let codes = codec::get_u32_vec(buf)?;
                if counts.len() != dict.len() {
                    return Err(CodecError::Invalid("counts/dict length mismatch".into()));
                }
                for &c in &codes {
                    if c != NULL_CODE && c as usize >= dict.len() {
                        return Err(CodecError::Invalid(format!("code {c} out of range")));
                    }
                }
                ColumnData::Text(TextColumn { dict, counts, codes })
            }
        };
        Ok(Column { name, data })
    }

    /// Validate internal consistency: what [`Column::decode`] cannot know
    /// from the bytes alone. Columns built in this process hold these by
    /// construction; [`crate::RemoteBackend`] calls this on every column it
    /// decodes off the wire, because sampling, `take` and embedding treat a
    /// text column's code as the value's identity.
    pub fn check(&self) -> StoreResult<()> {
        let schema =
            |msg: String| Err(StoreError::Schema(format!("column {:?}: {msg}", self.name)));
        match &self.data {
            ColumnData::Text(t) => {
                if t.counts.len() != t.dict.len() {
                    return schema("dict/counts length mismatch".into());
                }
                let mut recount = vec![0u32; t.dict.len()];
                for &c in &t.codes {
                    if c == NULL_CODE {
                        continue;
                    }
                    match recount.get_mut(c as usize) {
                        Some(n) => *n += 1,
                        None => return schema(format!("code {c} out of range")),
                    }
                }
                if recount != t.counts {
                    return schema("dict counts disagree with codes".into());
                }
                let mut seen: FxHashSet<&str> = FxHashSet::default();
                seen.reserve(t.dict.len());
                if let Some(dup) = t.dict.iter().find(|s| !seen.insert(s.as_str())) {
                    return schema(format!("dictionary entry {dup:?} occurs twice"));
                }
            }
            ColumnData::Bool { validity, .. }
            | ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. } => {
                if validity.as_ref().is_some_and(|v| v.len() != self.len()) {
                    return schema("validity length mismatch".into());
                }
            }
        }
        Ok(())
    }
}

/// A column's distinct non-null values with multiplicities, in first-seen
/// order: a text column's dictionary, read in place, or the typed values
/// of any other column, counted in one hashing pass.
enum Distinct<'a> {
    Dictionary(&'a TextColumn),
    Counted(Vec<(ValueRef<'static>, u32)>),
}

impl Distinct<'_> {
    fn len(&self) -> usize {
        match self {
            Distinct::Dictionary(t) => t.dict.len(),
            Distinct::Counted(counts) => counts.len(),
        }
    }

    /// Call `f` with each value as it renders, and its count. Counted
    /// values render one after another into one buffer.
    fn for_each_rendered(&self, mut f: impl FnMut(&str, u32)) {
        match self {
            Distinct::Dictionary(t) => {
                t.dict.iter().zip(&t.counts).for_each(|(value, &count)| f(value, count));
            }
            Distinct::Counted(counts) => {
                let mut rendered = String::new();
                for (value, count) in counts {
                    rendered.clear();
                    value.render_into(&mut rendered);
                    f(&rendered, *count);
                }
            }
        }
    }
}

/// Distinct values a numeric column's map and list have room for up front,
/// at most (and never more than it has rows). Growing both from empty is
/// what the sampler measured at a third of its pass (`SEEN_PRESIZE`);
/// reserving by row count would size them for rows where only distinct
/// values land.
const DISTINCT_PRESIZE: usize = 4096;

/// The distinct valid values of a non-text column, each wrapped by `wrap`,
/// with multiplicities, in first-seen order. Two values are one when `key`
/// says so (the first seen stands for them); `presize` bounds what is
/// reserved up front.
fn count_keys<T: Copy, K: Hash + Eq>(
    values: &[T],
    validity: &Option<Vec<bool>>,
    presize: usize,
    key: impl Fn(T) -> K,
    wrap: impl Fn(T) -> ValueRef<'static>,
) -> Vec<(ValueRef<'static>, u32)> {
    let presize = values.len().min(presize);
    let mut slot_of: FxHashMap<K, usize> = FxHashMap::default();
    slot_of.reserve(presize);
    let mut out: Vec<(ValueRef<'static>, u32)> = Vec::with_capacity(presize);
    for (row, &v) in values.iter().enumerate() {
        if !valid(validity, row) {
            continue;
        }
        match slot_of.entry(key(v)) {
            Entry::Occupied(e) => out[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((wrap(v), 1));
            }
        }
    }
    out
}

#[inline]
pub(crate) fn valid(validity: &Option<Vec<bool>>, row: usize) -> bool {
    validity.as_ref().map(|v| v[row]).unwrap_or(true)
}

fn take_validity(validity: &Option<Vec<bool>>, idx: &[usize]) -> Option<Vec<bool>> {
    validity.as_ref().map(|v| idx.iter().map(|&i| v[i]).collect())
}

fn encode_validity(buf: &mut Vec<u8>, validity: &Option<Vec<bool>>) {
    match validity {
        None => codec::put_u8(buf, 0),
        Some(v) => {
            codec::put_u8(buf, 1);
            codec::put_len(buf, v.len());
            for &b in v {
                codec::put_u8(buf, u8::from(b));
            }
        }
    }
}

fn decode_validity(buf: &mut &[u8]) -> CodecResult<Option<Vec<bool>>> {
    match codec::get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let len = codec::get_len(buf)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(codec::get_u8(buf)? != 0);
            }
            Ok(Some(v))
        }
        other => Err(CodecError::Invalid(format!("bad validity tag {other}"))),
    }
}

/// The code the identity-based paths replaced, kept as test oracles, and the
/// seeded columns the differential tests here and in `sample.rs` run over.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    /// `Column::take` with text re-interned by hashing every kept string.
    pub(crate) fn take(column: &Column, idx: &[usize]) -> Column {
        match column.data() {
            ColumnData::Text(t) => Column::new(
                column.name(),
                ColumnData::Text(TextColumn::from_rows(idx.iter().map(|&i| t.get(i)))),
            ),
            _ => column.take(idx),
        }
    }

    /// Wire bytes: equal exactly when two columns agree in name, type,
    /// dictionary order, counts, codes, validity and every value bit for
    /// bit — `==` on columns, except that it lets a NaN equal itself.
    pub(crate) fn wire(column: &Column) -> Vec<u8> {
        let mut buf = Vec::new();
        column.encode(&mut buf);
        buf
    }

    /// A text column frame written field by field, so it can carry what
    /// `from_rows` never produces.
    pub(crate) fn text_frame(name: &str, dict: &[&str], counts: &[u32], codes: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_str(&mut buf, name);
        codec::put_u8(&mut buf, DataType::Text.tag());
        codec::put_len(&mut buf, dict.len());
        for s in dict {
            codec::put_str(&mut buf, s);
        }
        codec::put_u32_slice(&mut buf, counts);
        codec::put_u32_slice(&mut buf, codes);
        buf
    }

    /// `Column::value_counts` by rendering every row.
    pub(crate) fn value_counts(column: &Column) -> Vec<(String, u32)> {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        let mut order: Vec<String> = Vec::new();
        for v in column.iter() {
            if v.is_null() {
                continue;
            }
            let s = v.to_string();
            match map.get_mut(&s) {
                Some(c) => *c += 1,
                None => {
                    map.insert(s.clone(), 1);
                    order.push(s);
                }
            }
        }
        order
            .into_iter()
            .map(|s| {
                let c = map[&s];
                (s, c)
            })
            .collect()
    }

    /// Seeded columns of all four dtypes × {all distinct, heavy
    /// duplication, two values} × {no NULLs, ~1 in 5 NULL}, floats drawn
    /// from a pool holding `0.0`, `-0.0`, three NaN payloads and ±∞.
    pub(crate) fn columns(seed: u64) -> Vec<Column> {
        let mut rng = Xoshiro256pp::new(seed);
        let float_pool = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_beef),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -2.5,
            1e-7,
        ];
        let mut out = Vec::new();
        for (rows, distinct) in [(0, 1), (1, 1), (300, 300), (2000, 2000), (2000, 37), (500, 2)] {
            for nulls in [false, true] {
                let mut draws = Vec::with_capacity(rows);
                for row in 0..rows {
                    let null = nulls && rng.gen_index(5) == 0;
                    let v = if distinct >= rows { row } else { rng.gen_index(distinct) };
                    draws.push((!null).then_some(v));
                }
                let tag = format!("{rows}_{distinct}_{nulls}");
                let value = |d: &Option<usize>, f: &dyn Fn(usize) -> Value| match d {
                    Some(v) => f(*v),
                    None => Value::Null,
                };
                let typed = |f: &dyn Fn(usize) -> Value| -> Vec<Value> {
                    draws.iter().map(|d| value(d, f)).collect()
                };
                out.push(Column::text_opt(
                    format!("t_{tag}"),
                    draws.iter().map(|d| d.map(|v| format!("value {v}"))),
                ));
                out.push(Column::from_values(
                    format!("i_{tag}"),
                    &typed(&|v| Value::Int(v as i64 - 7)),
                ));
                out.push(Column::from_values(
                    format!("f_{tag}"),
                    &typed(&|v| {
                        Value::Float(if v < float_pool.len() {
                            float_pool[v]
                        } else {
                            v as f64 / 4.0
                        })
                    }),
                ));
                out.push(Column::from_values(
                    format!("b_{tag}"),
                    &typed(&|v| Value::Bool(v % 2 == 0)),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_column_interns() {
        let c = Column::text("city", ["NYC", "SF", "NYC", "NYC"]);
        let ColumnData::Text(t) = c.data() else { panic!("expected text") };
        assert_eq!(t.dict(), &["NYC".to_string(), "SF".to_string()]);
        assert_eq!(t.dict_counts(), &[3, 1]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.get(1), ValueRef::Text("SF"));
        c.check().unwrap();
    }

    #[test]
    fn nullable_text() {
        let c = Column::text_opt("x", [Some("a"), None, Some("a")]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(1), ValueRef::Null);
        assert_eq!(c.distinct_count(), 1);
    }

    #[test]
    fn from_values_infers_int() {
        let c = Column::from_values("n", &[Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(2), ValueRef::Int(3));
    }

    #[test]
    fn from_values_widens_to_float() {
        let c = Column::from_values("n", &[Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.dtype(), DataType::Float);
        assert_eq!(c.get(0), ValueRef::Float(1.0));
    }

    #[test]
    fn from_values_mixed_falls_back_to_text() {
        let c = Column::from_values("n", &[Value::Int(1), Value::Text("x".into())]);
        assert_eq!(c.dtype(), DataType::Text);
        assert_eq!(c.get(0), ValueRef::Text("1"));
    }

    #[test]
    fn from_values_all_null() {
        let c = Column::from_values("n", &[Value::Null, Value::Null]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn value_counts_for_numeric() {
        let c = Column::ints("n", vec![3, 1, 3, 3]);
        let vc = c.value_counts();
        assert_eq!(vc, vec![("3".to_string(), 3), ("1".to_string(), 1)]);
    }

    #[test]
    fn take_reinterns_dictionary() {
        let c = Column::text("x", ["a", "b", "c", "a"]);
        let s = c.take(&[0, 3]);
        let ColumnData::Text(t) = s.data() else { panic!() };
        assert_eq!(t.dict(), &["a".to_string()]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn head_limits() {
        let c = Column::ints("n", (0..10).collect());
        assert_eq!(c.head(3).len(), 3);
        assert_eq!(c.head(100).len(), 10);
    }

    #[test]
    fn encode_decode_roundtrip_all_types() {
        let cols = vec![
            Column::text_opt("t", [Some("x"), None, Some("y")]),
            Column::ints("i", vec![1, -2, 3]),
            Column::from_values("f", &[Value::Float(0.5), Value::Null]),
            Column::bools("b", vec![true, false]),
        ];
        for c in cols {
            let mut buf = Vec::new();
            c.encode(&mut buf);
            let mut r = &buf[..];
            let d = Column::decode(&mut r).unwrap();
            assert_eq!(d, c);
            assert!(r.is_empty());
            d.check().unwrap();
        }
    }

    #[test]
    fn decode_rejects_out_of_range_code() {
        let c = Column::text("t", ["a"]);
        let mut buf = Vec::new();
        c.encode(&mut buf);
        // Corrupt the last 4 bytes (the single code) to a huge value.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&7u32.to_le_bytes());
        let mut r = &buf[..];
        assert!(Column::decode(&mut r).is_err());
    }

    #[test]
    fn typed_value_counts_match_rendering_every_row() {
        let extremes = Column::ints("i", vec![i64::MIN, 0, i64::MAX, -1, i64::MIN]);
        for seed in [1, 2, 3] {
            for c in reference::columns(seed).iter().chain([&extremes]) {
                let want = reference::value_counts(c);
                assert_eq!(c.value_counts(), want, "{}", c.name());
                assert_eq!(c.distinct_count(), want.len(), "{}", c.name());
                // The borrowed rendering is only good for the call.
                let mut borrowed = Vec::new();
                c.for_each_value_count(|value, count| borrowed.push((value.to_string(), count)));
                assert_eq!(borrowed, want, "{}", c.name());
            }
        }
        let nans = Column::floats("f", vec![f64::NAN, -0.0, -f64::NAN, 0.0, -0.0]);
        let want = vec![("NaN".to_string(), 2), ("-0.0".to_string(), 2), ("0.0".to_string(), 1)];
        assert_eq!(nans.value_counts(), want);
    }

    #[test]
    fn take_by_code_table_equals_reinterning() {
        for c in reference::columns(4) {
            let n = c.len();
            let picks: [Vec<usize>; 4] = [
                Vec::new(),
                (0..n).collect(),
                (0..n).rev().step_by(3).collect(),
                (0..n).flat_map(|i| [i, i / 2]).collect(),
            ];
            for idx in &picks {
                let got = c.take(idx);
                let want = reference::take(&c, idx);
                assert_eq!(reference::wire(&got), reference::wire(&want), "{}", c.name());
                got.check().unwrap();
            }
        }
    }

    #[test]
    fn check_rejects_what_decode_lets_through() {
        let decode = |frame: Vec<u8>| Column::decode(&mut &frame[..]).unwrap();
        let text_frame = |dict: &[&str], counts: &[u32], codes: &[u32]| {
            reference::text_frame("t", dict, counts, codes)
        };
        decode(text_frame(&["a", "b"], &[2, 1], &[0, 1, 0, NULL_CODE])).check().unwrap();
        for (what, frame) in [
            ("duplicate entry", text_frame(&["a", "b", "a"], &[1, 1, 1], &[0, 1, 2])),
            ("counts off by one", text_frame(&["a", "b"], &[1, 2], &[0, 0, 1])),
            ("counts sum too low", text_frame(&["a"], &[1], &[0, 0])),
        ] {
            let err = decode(frame).check().unwrap_err();
            assert!(matches!(err, StoreError::Schema(_)), "{what}: {err}");
        }
        let short_validity = Column::new(
            "f",
            ColumnData::Float { values: vec![1.0, 2.0], validity: Some(vec![true]) },
        );
        assert!(matches!(short_validity.check(), Err(StoreError::Schema(_))));
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = Column::ints("n", (0..10).collect());
        let big = Column::ints("n", (0..1000).collect());
        assert!(big.approx_bytes() > small.approx_bytes() * 50);
    }
}
