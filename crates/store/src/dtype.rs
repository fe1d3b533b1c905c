//! Column data types and type inference.

use std::fmt;

/// The four storage types of the column store.
///
/// Dates, identifiers, categorical codes etc. are all stored as one of
/// these; richer semantics live in the profiling / embedding layers, which
/// is where the paper places them too (embeddings capture semantics, the
/// store only moves bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 text.
    Text,
}

impl DataType {
    /// Stable single-byte tag for the wire codec.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(DataType::Bool),
            1 => Some(DataType::Int),
            2 => Some(DataType::Float),
            3 => Some(DataType::Text),
            _ => None,
        }
    }

    /// Whether values of this type are numeric.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Text => "text",
        };
        f.write_str(s)
    }
}

/// Infer the narrowest type that can represent a raw string cell.
///
/// Empty strings are `None` (NULL). The order is int → float → bool → text,
/// matching common CSV-loader behaviour; note `"1"`/`"0"` infer as Int, not
/// Bool, so boolean inference only triggers on `true`/`false` spellings.
pub fn infer_cell(raw: &str) -> Option<DataType> {
    let t = raw.trim();
    if t.is_empty() {
        return None;
    }
    if parse_int(t).is_some() {
        return Some(DataType::Int);
    }
    if parse_float(t).is_some() {
        return Some(DataType::Float);
    }
    if parse_bool(t).is_some() {
        return Some(DataType::Bool);
    }
    Some(DataType::Text)
}

/// Merge two inferred types into the narrowest common supertype.
pub fn unify(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Text,
    }
}

/// Strict integer parse (no leading `+` handling beyond std, no underscores).
pub fn parse_int(s: &str) -> Option<i64> {
    s.parse::<i64>().ok()
}

/// Float parse, rejecting values like `inf`/`nan` that rarely denote data.
pub fn parse_float(s: &str) -> Option<f64> {
    let x = s.parse::<f64>().ok()?;
    if x.is_finite() {
        Some(x)
    } else {
        None
    }
}

/// Boolean parse accepting `true`/`false` in any case.
pub fn parse_bool(s: &str) -> Option<bool> {
    if s.eq_ignore_ascii_case("true") {
        Some(true)
    } else if s.eq_ignore_ascii_case("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for t in [DataType::Bool, DataType::Int, DataType::Float, DataType::Text] {
            assert_eq!(DataType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(DataType::from_tag(9), None);
    }

    #[test]
    fn inference_order() {
        assert_eq!(infer_cell("42"), Some(DataType::Int));
        assert_eq!(infer_cell("-1"), Some(DataType::Int));
        assert_eq!(infer_cell("3.25"), Some(DataType::Float));
        assert_eq!(infer_cell("1e3"), Some(DataType::Float));
        assert_eq!(infer_cell("true"), Some(DataType::Bool));
        assert_eq!(infer_cell("FALSE"), Some(DataType::Bool));
        assert_eq!(infer_cell("hello"), Some(DataType::Text));
        assert_eq!(infer_cell(""), None);
        assert_eq!(infer_cell("  "), None);
    }

    #[test]
    fn inf_and_nan_are_text() {
        assert_eq!(infer_cell("inf"), Some(DataType::Text));
        assert_eq!(infer_cell("NaN"), Some(DataType::Text));
    }

    #[test]
    fn unify_widens() {
        assert_eq!(unify(DataType::Int, DataType::Int), DataType::Int);
        assert_eq!(unify(DataType::Int, DataType::Float), DataType::Float);
        assert_eq!(unify(DataType::Float, DataType::Text), DataType::Text);
        assert_eq!(unify(DataType::Bool, DataType::Int), DataType::Text);
    }
}
