//! RFC-4180 CSV reading and writing.
//!
//! Open-data corpora (NextiaJD is assembled from Kaggle/OpenML CSV files)
//! arrive as CSV; the paper's §5.2.2 discusses the cost of loading giant
//! CSV files. This parser handles quoted fields, escaped quotes (`""`),
//! embedded separators and newlines inside quotes, and CRLF line endings.
//! Type inference maps each parsed column onto the store's storage types.

use crate::column::Column;
use crate::dtype::{self, DataType};
use crate::error::{StoreError, StoreResult};
use crate::table::Table;
use crate::value::Value;

/// Parse CSV text into raw records (header not treated specially).
///
/// Returns an error for unterminated quotes or ragged rows (a row whose
/// field count differs from the header's).
fn parse_records(input: &str) -> StoreResult<Vec<Vec<String>>> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    // Tracks whether the current record has any content, so a trailing
    // newline does not produce a phantom empty record.
    let mut record_started = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push(c);
                    line += 1;
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                record_started = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                record_started = true;
            }
            '\r' => {
                // Swallow; the following '\n' terminates the record.
            }
            '\n' => {
                line += 1;
                if record_started || !field.is_empty() || !record.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    record_started = false;
                }
            }
            _ => {
                field.push(c);
                record_started = true;
            }
        }
    }
    if in_quotes {
        return Err(StoreError::Csv { line, message: "unterminated quoted field".into() });
    }
    if record_started || !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }

    if let Some(first) = records.first() {
        let width = first.len();
        for (i, r) in records.iter().enumerate() {
            if r.len() != width {
                return Err(StoreError::Csv {
                    line: i + 1,
                    message: format!("expected {} fields, found {}", width, r.len()),
                });
            }
        }
    }
    Ok(records)
}

/// Parse CSV text (first record = header) into a [`Table`] with inferred
/// column types. Empty cells become NULL.
pub fn read_table(name: impl Into<String>, input: &str) -> StoreResult<Table> {
    let records = parse_records(input)?;
    let Some(header) = records.first() else {
        return Table::new(name, vec![]);
    };
    let ncols = header.len();
    let nrows = records.len() - 1;

    let mut columns = Vec::with_capacity(ncols);
    for (ci, col_name) in header.iter().enumerate() {
        // First pass: infer the unified type.
        let mut ty: Option<DataType> = None;
        for r in records.iter().skip(1) {
            if let Some(t) = dtype::infer_cell(&r[ci]) {
                ty = Some(match ty {
                    None => t,
                    Some(prev) => dtype::unify(prev, t),
                });
            }
        }
        // Second pass: materialize values under that type.
        let mut values = Vec::with_capacity(nrows);
        for r in records.iter().skip(1) {
            let raw = r[ci].trim();
            let v = if raw.is_empty() {
                Value::Null
            } else {
                match ty {
                    Some(DataType::Int) => {
                        Value::Int(dtype::parse_int(raw).expect("inferred Int implies parseable"))
                    }
                    Some(DataType::Float) => Value::Float(
                        dtype::parse_float(raw).expect("inferred Float implies parseable"),
                    ),
                    Some(DataType::Bool) => Value::Bool(
                        dtype::parse_bool(raw).expect("inferred Bool implies parseable"),
                    ),
                    // Text columns keep the *untrimmed* cell: whitespace can
                    // be significant data.
                    _ => Value::Text(r[ci].clone()),
                }
            };
            values.push(v);
        }
        columns.push(Column::from_values(col_name.clone(), &values));
    }
    Table::new(name, columns)
}

/// Serialize a table to CSV (header + rows). Quotes only where needed.
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    let ncols = table.num_columns();
    for (i, c) in table.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, c.name());
    }
    out.push('\n');
    for r in 0..table.num_rows() {
        for (i, c) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = c.get(r);
            if !v.is_null() {
                write_field(&mut out, &v.to_string());
            }
        }
        out.push('\n');
        let _ = ncols;
    }
    out
}

fn write_field(out: &mut String, field: &str) {
    let needs_quotes = field.contains(',')
        || field.contains('"')
        || field.contains('\n')
        || field.contains('\r')
        || field.starts_with(' ')
        || field.ends_with(' ');
    if needs_quotes {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueRef;

    #[test]
    fn parses_simple() {
        let recs = parse_records("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn parses_quotes_and_escapes() {
        let recs = parse_records("name,quote\n\"Smith, John\",\"said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs[1][0], "Smith, John");
        assert_eq!(recs[1][1], "said \"hi\"");
    }

    #[test]
    fn parses_newline_in_quotes() {
        let recs = parse_records("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(recs[1][0], "line1\nline2");
    }

    #[test]
    fn handles_crlf() {
        let recs = parse_records("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn no_phantom_trailing_record() {
        assert_eq!(parse_records("a\n1\n").unwrap().len(), 2);
        assert_eq!(parse_records("a\n1").unwrap().len(), 2);
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(matches!(parse_records("a\n\"oops\n"), Err(StoreError::Csv { .. })));
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(matches!(parse_records("a,b\n1\n"), Err(StoreError::Csv { .. })));
    }

    #[test]
    fn empty_field_quoted_counts_as_record() {
        let recs = parse_records("a\n\"\"\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1][0], "");
    }

    #[test]
    fn read_table_infers_types() {
        let t = read_table("t", "id,name,score,ok\n1,ada,3.5,true\n2,bob,,false\n").unwrap();
        assert_eq!(t.column("id").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("name").unwrap().dtype(), DataType::Text);
        assert_eq!(t.column("score").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("ok").unwrap().dtype(), DataType::Bool);
        assert_eq!(t.column("score").unwrap().get(1), ValueRef::Null);
    }

    #[test]
    fn mixed_column_becomes_text() {
        let t = read_table("t", "x\n1\nhello\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Text);
        assert_eq!(t.column("x").unwrap().get(0), ValueRef::Text("1"));
    }

    #[test]
    fn roundtrip_table() {
        let t =
            read_table("t", "name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\nplain,\n").unwrap();
        let csv = write_table(&t);
        let t2 = read_table("t", &csv).unwrap();
        assert_eq!(t.column("name").unwrap(), t2.column("name").unwrap());
        assert_eq!(t.column("notes").unwrap(), t2.column("notes").unwrap());
    }

    #[test]
    fn empty_input_gives_empty_table() {
        let t = read_table("t", "").unwrap();
        assert_eq!(t.num_columns(), 0);
        assert_eq!(t.num_rows(), 0);
    }
}
