//! Shared fixtures for the Criterion benches.
//!
//! The paper's tables and figures are regenerated by `wg_eval`'s
//! `reproduce` binary; what is left here times the system's own behaviour
//! (concurrency, sync, retry, shedding) and the parameter ablations. All
//! corpora use small row scales so `cargo bench` completes in minutes.

use std::sync::Arc;

use wg_corpora::{build_testbed, Corpus, TestbedSpec};
use wg_store::{CdwConfig, CdwConnector};

/// The XS testbed served through a free simulated-CDW backend — the
/// standard bench fixture (fast to build, representative structure). The
/// connector is concrete so a bench can mutate its warehouse.
pub fn xs_fixture() -> (Corpus, Arc<CdwConnector>) {
    let corpus = build_testbed(&TestbedSpec::xs(0.1));
    let connector = Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::free()));
    (corpus, connector)
}

/// Median of a sample set (sorts in place; the upper-middle element for
/// even lengths). Shared by every custom-harness bench so summary
/// statistics cannot silently diverge between them. Panics on empty
/// input or NaN samples — both are bench bugs, not data conditions.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN bench sample"));
    samples[samples.len() / 2]
}

/// Merge one named top-level section into the repo's `BENCH_core.json`,
/// replacing any previous section of the same name and leaving every
/// other section untouched (benches run independently and must not eat
/// each other's numbers).
///
/// `section_object` is the JSON object text for the section's value,
/// starting with `{` and indented for a 2-space top level.
pub fn merge_bench_section(path: impl AsRef<std::path::Path>, key: &str, section_object: &str) {
    let path = path.as_ref();
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let cleaned = remove_bench_section(&existing, key);
    let close = cleaned.rfind('}').expect("BENCH_core.json must be a JSON object");
    let head = cleaned[..close].trim_end();
    let sep = if head.ends_with('{') { "\n" } else { ",\n" };
    let merged = format!("{head}{sep}  \"{key}\": {section_object}\n}}\n");
    std::fs::write(path, merged).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Drop the top-level section `key` (and exactly one separating comma)
/// from the JSON object text, if present.
fn remove_bench_section(text: &str, key: &str) -> String {
    // The colon distinguishes the key position from occurrences of the
    // same word as a string *value* (e.g. `"bench": "incremental_sync"`).
    let needle = format!("\"{key}\":");
    let Some(kpos) = text.find(&needle) else {
        return text.to_string();
    };
    let bytes = text.as_bytes();
    let bopen = kpos + text[kpos..].find('{').expect("section must be an object");
    // Brace-count to the section's end, ignoring braces inside JSON
    // string values (a `generated_by` command could legitimately contain
    // one) and honoring backslash escapes within them.
    let mut depth = 0usize;
    let mut bclose = bopen;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes[bopen..].iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    bclose = bopen + i;
                    break;
                }
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in bench section '{key}'");
    let mut start = kpos;
    while start > 0 && bytes[start - 1].is_ascii_whitespace() {
        start -= 1;
    }
    let mut end = bclose + 1;
    if start > 0 && bytes[start - 1] == b',' {
        // Interior or trailing section: eat the preceding separator.
        start -= 1;
    } else {
        // Leading section: eat the following separator instead, if any.
        let rest = &text[end..];
        let trimmed = rest.trim_start();
        if let Some(stripped) = trimmed.strip_prefix(',') {
            end = text.len() - stripped.len();
        }
    }
    format!("{}{}", &text[..start], &text[end..])
}

#[cfg(test)]
mod tests {
    use super::remove_bench_section;

    const DOC: &str = "{\n  \"a\": {\"x\": 1},\n  \"b\": {\n    \"bench\": \"b\",\n    \"nested\": {\"y\": 2}\n  },\n  \"c\": {\"z\": 3}\n}\n";

    #[test]
    fn removes_interior_section_keeping_neighbors() {
        let out = remove_bench_section(DOC, "b");
        assert!(out.contains("\"a\""), "{out}");
        assert!(out.contains("\"c\""), "{out}");
        assert!(!out.contains("\"nested\""), "{out}");
    }

    #[test]
    fn removes_leading_and_trailing_sections() {
        let no_a = remove_bench_section(DOC, "a");
        assert!(!no_a.contains("\"x\""), "{no_a}");
        assert!(no_a.contains("\"b\"") && no_a.contains("\"c\""), "{no_a}");
        let no_c = remove_bench_section(DOC, "c");
        assert!(!no_c.contains("\"z\""), "{no_c}");
        assert!(no_c.contains("\"a\"") && no_c.contains("\"nested\""), "{no_c}");
    }

    #[test]
    fn missing_key_is_a_noop_and_values_never_match() {
        assert_eq!(remove_bench_section(DOC, "nope"), DOC);
        // "bench": "b" contains the word b as a *value*; only the keyed
        // section must match.
        let out = remove_bench_section(DOC, "b");
        assert!(out.contains("\"a\""));
    }

    #[test]
    fn braces_inside_string_values_do_not_confuse_the_scan() {
        let doc = "{\n  \"a\": {\"cmd\": \"echo {x} \\\" }\", \"n\": 1},\n  \"b\": {\"z\": 2}\n}\n";
        let out = remove_bench_section(doc, "a");
        assert!(!out.contains("cmd"), "{out}");
        assert!(out.contains("\"b\"") && out.contains("\"z\": 2"), "{out}");
        let out = remove_bench_section(doc, "b");
        assert!(out.contains("echo {x}"), "{out}");
        assert!(!out.contains("\"z\""), "{out}");
    }
}
