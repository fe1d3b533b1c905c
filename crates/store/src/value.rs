//! Scalar values.
//!
//! [`Value`] is the owned scalar used at API boundaries (CSV ingestion, join
//! keys, test fixtures); [`ValueRef`] is the borrowed view handed out by
//! columns so that iterating a table never clones cell contents.

use std::fmt;

use crate::dtype::DataType;

/// An owned scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// The value's data type ([`DataType::Text`] for `Null` is avoided by
    /// returning `None`).
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// Borrow as a [`ValueRef`].
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(x) => ValueRef::Float(*x),
            Value::Text(s) => ValueRef::Text(s),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.as_ref(), f)
    }
}

/// A borrowed scalar cell value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL / missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(&'a str),
}

impl<'a> ValueRef<'a> {
    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Convert to an owned [`Value`].
    pub fn to_owned(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(*b),
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(x) => Value::Float(*x),
            ValueRef::Text(s) => Value::Text((*s).to_string()),
        }
    }

    /// The text payload if this is a `Text` value.
    pub fn as_text(&self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` for `Int`/`Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(*i as f64),
            ValueRef::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Render the value the way it would appear in a CSV cell / CDW wire
    /// format: NULL renders as the empty string, floats with minimal digits.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// A canonical, hashable key encoding: used by join/overlap operators so
    /// that `Int(3)` from two tables compare equal while `Text("3")` stays
    /// distinct from `Int(3)` unless normalization says otherwise.
    pub fn key_bytes(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            ValueRef::Null => out.push(b'N'),
            ValueRef::Bool(b) => {
                out.push(b'B');
                out.push(u8::from(*b));
            }
            ValueRef::Int(i) => {
                out.push(b'I');
                out.extend_from_slice(&i.to_le_bytes());
            }
            ValueRef::Float(x) => {
                out.push(b'F');
                out.extend_from_slice(&float_key_bits(*x).to_le_bytes());
            }
            ValueRef::Text(s) => {
                out.push(b'T');
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// The bits a float is keyed by: `-0.0` normalized to `0.0` and every NaN
/// to one bit pattern, so equal-looking floats have one identity. Shared by
/// [`ValueRef::key_bytes`] and the distinct sampler.
pub(crate) fn float_key_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => Ok(()),
            ValueRef::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            ValueRef::Text(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_csv_expectations() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
    }

    #[test]
    fn roundtrip_ref_owned() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(9),
            Value::Float(0.25),
            Value::Text("x".into()),
        ];
        for v in vals {
            assert_eq!(v.as_ref().to_owned(), v);
        }
    }

    #[test]
    fn key_bytes_distinguish_types() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        ValueRef::Int(3).key_bytes(&mut a);
        ValueRef::Text("3").key_bytes(&mut b);
        assert_ne!(a, b);
        ValueRef::Int(3).key_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn key_bytes_normalize_negative_zero() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        ValueRef::Float(0.0).key_bytes(&mut a);
        ValueRef::Float(-0.0).key_bytes(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn as_f64_widens() {
        assert_eq!(ValueRef::Int(4).as_f64(), Some(4.0));
        assert_eq!(ValueRef::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(ValueRef::Text("4").as_f64(), None);
    }

    #[test]
    fn dtype_of_values() {
        assert_eq!(Value::Null.dtype(), None);
        assert_eq!(Value::Int(1).dtype(), Some(DataType::Int));
    }
}
