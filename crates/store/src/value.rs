//! Scalar values.
//!
//! [`Value`] is the owned scalar used at API boundaries (CSV ingestion, join
//! keys, test fixtures); [`ValueRef`] is the borrowed view handed out by
//! columns so that iterating a table never clones cell contents.

use std::fmt::{self, Write as _};

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

    /// Append exactly what `Display` prints, without the formatter where a
    /// number's digits can be written directly: integers, and floats that
    /// hold one (the `{:.1}` arm of `Display`). Callers that render many
    /// values into one buffer — a column's distinct values on their way to
    /// the tokenizer — pay no allocation and no `fmt` dispatch per value.
    pub fn render_into(&self, buf: &mut String) {
        match *self {
            ValueRef::Null => {}
            ValueRef::Bool(b) => buf.push_str(if b { "true" } else { "false" }),
            ValueRef::Int(i) => {
                if i < 0 {
                    buf.push('-');
                }
                push_digits(buf, i.unsigned_abs());
            }
            ValueRef::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
                if x.is_sign_negative() {
                    buf.push('-');
                }
                // Integral and below 2⁵³: the cast is exact.
                push_digits(buf, x.abs() as u64);
                buf.push_str(".0");
            }
            ValueRef::Float(x) => {
                write!(buf, "{x}").expect("writing to a String cannot fail");
            }
            ValueRef::Text(s) => buf.push_str(s),
        }
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

/// Append `n` in decimal.
fn push_digits(buf: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
    fn render_into_appends_what_display_prints() {
        use wg_util::rng::{Rng64, Xoshiro256pp};
        let mut rng = Xoshiro256pp::new(41);
        let mut values = vec![
            ValueRef::Null,
            ValueRef::Bool(true),
            ValueRef::Bool(false),
            ValueRef::Text("a b"),
            ValueRef::Int(0),
            ValueRef::Int(i64::MIN),
            ValueRef::Int(i64::MAX),
        ];
        let floats = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            -999_999_999_999_999.0,
            1e300,
            5e-324,
            0.1 + 0.2,
            -2.5,
        ];
        values.extend(floats.map(ValueRef::Float));
        for _ in 0..2000 {
            let bits = rng.next_u64();
            // Every magnitude of integer, integral float and fraction.
            let shifted = (bits as i64) >> rng.gen_index(64);
            values.push(ValueRef::Int(shifted));
            values.push(ValueRef::Float(shifted as f64));
            values.push(ValueRef::Float(shifted as f64 / 8.0));
            values.push(ValueRef::Float(f64::from_bits(bits)));
        }
        let mut buf = String::from("kept:");
        for v in values {
            buf.truncate(5);
            v.render_into(&mut buf);
            assert_eq!(buf, format!("kept:{v}"), "{v:?}");
        }
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
