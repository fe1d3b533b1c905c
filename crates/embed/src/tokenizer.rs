//! Cell tokenization.
//!
//! The tokenizer is where *syntactic variation collapses*: two columns that
//! store the same entities in different formats must produce overlapping
//! token streams, because everything downstream (hashing, aggregation,
//! cosine) only sees tokens. Rules:
//!
//! * split on any non-alphanumeric rune (`"Apple, Inc." → apple inc`);
//! * split letter/digit boundaries inside runs (`"CUST0042" → cust 0042`);
//! * lowercase;
//! * normalize digit runs by stripping leading zeros (`"0042" → 42`), so
//!   zero-padded identifiers match unpadded ones;
//! * date-ish cells fall out naturally: `2020-01-15` and `01/15/2020`
//!   produce the same token multiset.
//!
//! A "digit" is an ASCII digit; every other alphanumeric scalar (Arabic-
//! Indic digits included) is a letter.
//!
//! The rules live in one visitor, [`for_each_token`], which hands each
//! token to a callback as a `&str`. A token that is already normal is a
//! slice of the cell itself — a digit run past its leading zeros, or an
//! ASCII letter run with no capital — so the common token is never copied.
//! Only a run that must be lowercased is written out, into one scratch
//! string the caller keeps across cells: ASCII capitals fold in place, and a
//! run with any non-ASCII letter goes through `str::to_lowercase`, which
//! sees the whole run (a final sigma lowercases by its position in the word,
//! `İ` to two scalars). The cell is read byte by byte; a `char` is decoded
//! only at a non-ASCII byte.
//!
//! The embedding path sums token vectors straight from the visitor.
//! [`tokenize_into`] is the visitor's consumer for callers that want the
//! tokens kept: it copies them into a [`TokenBuf`].

/// A single normalized token, owned. The embedding path itself never
/// builds these: it reads tokens from [`for_each_token`].
pub type Token = String;

/// Call `f` on each normalized token of `cell`, in order. A token is a
/// slice of `cell` when the run needs no change, and otherwise the run
/// lowercased into `scratch`, whose old contents are discarded (its
/// capacity is what the caller keeps it for).
pub fn for_each_token(cell: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    let bytes = cell.as_bytes();
    let scalar_at = |at: usize| cell[at..].chars().next().expect("a scalar starts here");
    let mut at = 0;
    while at < bytes.len() {
        let b = bytes[at];
        if b.is_ascii_digit() {
            // A digit run. Its token starts past the leading zeros, or is
            // the run's last byte when the run is all zeros.
            while at < bytes.len() && bytes[at] == b'0' {
                at += 1;
            }
            let from = at;
            while at < bytes.len() && bytes[at].is_ascii_digit() {
                at += 1;
            }
            f(&cell[if from == at { at - 1 } else { from }..at]);
            continue;
        }
        if b.is_ascii() && !b.is_ascii_alphabetic() {
            at += 1;
            continue;
        }
        if !b.is_ascii() {
            let ch = scalar_at(at);
            if !ch.is_alphanumeric() {
                at += ch.len_utf8();
                continue;
            }
        }
        // A letter run: ASCII letters and non-ASCII alphanumerics, up to the
        // next digit or separator. Note whether it has a capital or any
        // non-ASCII scalar; without either it is a token as it stands.
        let start = at;
        let (mut capital, mut unicode) = (false, false);
        while at < bytes.len() {
            let b = bytes[at];
            if b.is_ascii_lowercase() {
                at += 1;
            } else if b.is_ascii_uppercase() {
                capital = true;
                at += 1;
            } else if b.is_ascii() {
                break;
            } else {
                let ch = scalar_at(at);
                if !ch.is_alphanumeric() {
                    break;
                }
                unicode = true;
                at += ch.len_utf8();
            }
        }
        let run = &cell[start..at];
        if unicode {
            // Full Unicode lowercasing sees the whole run: a final sigma
            // lowercases by its position in the word, `İ` to two scalars.
            scratch.clear();
            scratch.push_str(&run.to_lowercase());
            f(scratch);
        } else if capital {
            scratch.clear();
            scratch.push_str(run);
            scratch.make_ascii_lowercase();
            f(scratch);
        } else {
            f(run);
        }
    }
}

/// The normalized tokens of one cell, stored back to back in one string
/// with a list of end offsets. [`tokenize_into`] refills it without
/// freeing, so one buffer serves every value of a column.
#[derive(Debug, Clone, Default)]
pub struct TokenBuf {
    text: String,
    /// Byte offset in `text` where each token ends; a token starts where
    /// the one before it ends.
    ends: Vec<usize>,
    /// The visitor's scratch, kept for its capacity.
    scratch: String,
}

impl TokenBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the cell produced no token (empty, or symbols only).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The tokens, in cell order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let token = &self.text[start..end];
            start = end;
            token
        })
    }
}

/// Tokenize one cell into `out`, replacing what it held.
pub fn tokenize_into(cell: &str, out: &mut TokenBuf) {
    let TokenBuf { text, ends, scratch } = out;
    text.clear();
    ends.clear();
    for_each_token(cell, scratch, |token| {
        text.push_str(token);
        ends.push(text.len());
    });
}

/// Tokenize one cell into owned tokens.
pub fn tokenize(cell: &str) -> Vec<Token> {
    let mut buf = TokenBuf::new();
    tokenize_into(cell, &mut buf);
    buf.iter().map(str::to_owned).collect()
}

thread_local! {
    /// The `<token>` buffer [`for_each_char_ngram`] last used on this
    /// thread, kept for its capacity.
    static BOUNDED: std::cell::Cell<String> = const { std::cell::Cell::new(String::new()) };
}

/// Call `f` on each character n-gram of a token with boundary markers,
/// fastText style: `"cat"` with n=3 yields `<ca`, `cat`, `at>`; all grams
/// of one size before the next size, each size left to right. Tokens
/// shorter than `n-2` yield nothing for that n. One buffer per thread holds
/// the marked token (it is taken for the call, so an `f` that comes back
/// here starts a fresh one); grams are slices of it.
pub(crate) fn for_each_char_ngram(
    token: &str,
    min_n: usize,
    max_n: usize,
    mut f: impl FnMut(&str),
) {
    debug_assert!(min_n >= 2 && max_n >= min_n);
    let mut bounded = BOUNDED.take();
    bounded.clear();
    bounded.push('<');
    bounded.push_str(token);
    bounded.push('>');
    for n in min_n..=max_n {
        // A gram is the bytes between a character's start and the start of
        // the character `n` places on (or the end of the string).
        let starts = bounded.char_indices().map(|(at, _)| at);
        let ends = starts.clone().chain(std::iter::once(bounded.len())).skip(n);
        for (start, end) in starts.zip(ends) {
            f(&bounded[start..end]);
        }
    }
    BOUNDED.set(bounded);
}

/// How many grams [`for_each_char_ngram`] yields for a token.
pub(crate) fn char_ngram_count(token: &str, min_n: usize, max_n: usize) -> usize {
    let bounded_chars = token.chars().count() + 2;
    (min_n..=max_n).map(|n| (bounded_chars + 1).saturating_sub(n)).sum()
}

/// The character n-grams of a token as owned strings (see
/// `for_each_char_ngram`).
pub fn char_ngrams(token: &str, min_n: usize, max_n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(char_ngram_count(token, min_n, max_n));
    for_each_char_ngram(token, min_n, max_n, |g| out.push(g.to_string()));
    out
}

/// The allocating tokenizer and n-gram splitter this module used to have,
/// kept as test oracles, and the seeded cells differential tests run over.
#[cfg(test)]
pub(crate) mod reference {
    use super::Token;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    pub(crate) fn tokenize(cell: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        let mut current_is_digit = false;

        let flush = |buf: &mut String, is_digit: bool, out: &mut Vec<Token>| {
            if buf.is_empty() {
                return;
            }
            if is_digit {
                let trimmed = buf.trim_start_matches('0');
                out.push(if trimmed.is_empty() { "0".to_string() } else { trimmed.to_string() });
            } else {
                out.push(buf.to_lowercase());
            }
            buf.clear();
        };

        for ch in cell.chars() {
            if ch.is_alphanumeric() {
                let is_digit = ch.is_ascii_digit();
                if !current.is_empty() && is_digit != current_is_digit {
                    flush(&mut current, current_is_digit, &mut tokens);
                }
                current_is_digit = is_digit;
                current.push(ch);
            } else {
                flush(&mut current, current_is_digit, &mut tokens);
            }
        }
        flush(&mut current, current_is_digit, &mut tokens);
        tokens
    }

    pub(crate) fn char_ngrams(token: &str, min_n: usize, max_n: usize) -> Vec<String> {
        let bounded: Vec<char> =
            std::iter::once('<').chain(token.chars()).chain(std::iter::once('>')).collect();
        let mut out = Vec::new();
        for n in min_n..=max_n {
            if bounded.len() < n {
                break;
            }
            for w in bounded.windows(n) {
                out.push(w.iter().collect::<String>());
            }
        }
        out
    }

    /// Seeded cells over an alphabet that exercises every branch: ASCII
    /// letters and digits, zero runs, separators, final sigma (`ΣΑΣ`), `İ`
    /// (lowercases to two scalars), `ß`, Arabic-Indic digits (alphanumeric
    /// but not ASCII digits) and a non-BMP letter.
    pub(crate) fn cells(seed: u64, count: usize) -> Vec<String> {
        const PIECES: [&str; 24] = [
            "a", "B", "Zz", "0", "00", "7", "42", " ", "-", ", ", "/", "_", "Σ", "ΣΑΣ", "σ", "İ",
            "ß", "É", "٣", "٠٤", "𝒜", "ǅ", "'", "x9",
        ];
        let mut rng = Xoshiro256pp::new(seed);
        let mut out = vec![String::new(), "--- ///".to_string(), "000".to_string()];
        while out.len() < count {
            let pieces = rng.gen_index(12);
            out.push((0..pieces).map(|_| PIECES[rng.gen_index(PIECES.len())]).collect());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_tokenizer_matches_the_allocating_one() {
        let mut buf = TokenBuf::new();
        for cell in reference::cells(7, 4000) {
            let want = reference::tokenize(&cell);
            tokenize_into(&cell, &mut buf);
            assert_eq!(buf.iter().collect::<Vec<_>>(), want, "{cell:?}");
            assert_eq!((buf.len(), buf.is_empty()), (want.len(), want.is_empty()));
            assert_eq!(tokenize(&cell), want, "{cell:?}");
        }
        assert_eq!(tokenize("ΣΑΣ İx"), vec!["σας", "i\u{307}x"]);
    }

    /// The runs of a cell, one per token: maximal stretches of alphanumeric
    /// scalars that are all ASCII digits or all not.
    fn runs(cell: &str) -> Vec<&str> {
        let mut runs = Vec::new();
        let mut run: Option<(usize, bool)> = None;
        for (at, ch) in cell.char_indices().chain([(cell.len(), ' ')]) {
            let class = ch.is_alphanumeric().then(|| ch.is_ascii_digit());
            match (run, class) {
                (Some((_, ran)), Some(digit)) if ran == digit => {}
                _ => {
                    if let Some((start, _)) = run {
                        runs.push(&cell[start..at]);
                    }
                    run = class.map(|digit| (at, digit));
                }
            }
        }
        runs
    }

    /// The visitor yields the reference tokens, and copies only what it must:
    /// a digit run's token and an all-lowercase ASCII run's token lie in
    /// the cell's own bytes, a capitalised or non-ASCII run's in the
    /// scratch.
    #[test]
    fn visitor_hands_out_unchanged_runs_as_slices_of_the_cell() {
        let mut cells = reference::cells(9, 3000);
        cells.extend(
            ["CUST0042", "0042-000 x", "acme corp", "Acme Corp.", "a1B2c3", "000", "ÉCOLE 007"]
                .map(String::from),
        );
        // Reserved past any cell's lowercasing, so it never moves.
        let mut scratch = String::with_capacity(1 << 10);
        let scratch_bytes = scratch.as_ptr()..scratch.as_ptr().wrapping_add(scratch.capacity());
        let within = |token: &str, bytes: &std::ops::Range<*const u8>| {
            let token = token.as_bytes().as_ptr_range();
            bytes.start <= token.start && token.end <= bytes.end
        };
        for cell in &cells {
            let runs = runs(cell);
            let mut got = Vec::new();
            for_each_token(cell, &mut scratch, |token| {
                let run = runs[got.len()];
                let unchanged = run.bytes().all(|b| b.is_ascii_digit())
                    || run.bytes().all(|b| b.is_ascii_lowercase());
                let from =
                    if unchanged { cell.as_bytes().as_ptr_range() } else { scratch_bytes.clone() };
                assert!(within(token, &from), "{cell:?}: {token:?} of {run:?}");
                got.push(token.to_string());
            });
            assert_eq!(got, reference::tokenize(cell), "{cell:?}");
            assert_eq!(runs.len(), got.len(), "{cell:?}");
        }
    }

    #[test]
    fn ngram_slices_match_the_char_windows() {
        for cell in reference::cells(8, 1500) {
            for token in reference::tokenize(&cell) {
                for (min_n, max_n) in [(3, 4), (2, 2), (2, 6)] {
                    let want = reference::char_ngrams(&token, min_n, max_n);
                    assert_eq!(char_ngrams(&token, min_n, max_n), want, "{token:?}");
                    assert_eq!(char_ngram_count(&token, min_n, max_n), want.len(), "{token:?}");
                }
            }
        }
    }

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(tokenize("Apple, Inc."), vec!["apple", "inc"]);
        assert_eq!(tokenize("  hello   world "), vec!["hello", "world"]);
    }

    #[test]
    fn case_variants_collapse() {
        assert_eq!(tokenize("ACME CORP"), tokenize("Acme Corp."));
    }

    #[test]
    fn splits_letter_digit_boundaries() {
        assert_eq!(tokenize("CUST0042"), vec!["cust", "42"]);
        assert_eq!(tokenize("CUST-0042"), vec!["cust", "42"]);
        assert_eq!(tokenize("42abc7"), vec!["42", "abc", "7"]);
    }

    #[test]
    fn zero_padding_collapses() {
        assert_eq!(tokenize("0042"), vec!["42"]);
        assert_eq!(tokenize("000"), vec!["0"]);
        assert_eq!(tokenize("0042"), tokenize("42"));
    }

    #[test]
    fn date_formats_share_tokens() {
        let mut a = tokenize("2020-01-15");
        let mut b = tokenize("01/15/2020");
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn unicode_is_kept() {
        assert_eq!(tokenize("Zürich"), vec!["zürich"]);
        assert_eq!(tokenize("naïve café"), vec!["naïve", "café"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ///").is_empty());
    }

    #[test]
    fn ngrams_with_boundaries() {
        let g = char_ngrams("cat", 3, 3);
        assert_eq!(g, vec!["<ca", "cat", "at>"]);
    }

    #[test]
    fn ngrams_multiple_sizes() {
        let g = char_ngrams("ab", 3, 4);
        assert_eq!(g, vec!["<ab", "ab>", "<ab>"]);
    }

    #[test]
    fn ngrams_short_token() {
        // "a" bounded = "<a>": 3-grams = ["<a>"], 4-grams none.
        assert_eq!(char_ngrams("a", 3, 4), vec!["<a>"]);
    }

    #[test]
    fn similar_tokens_share_ngrams() {
        let a = char_ngrams("street", 3, 4);
        let b = char_ngrams("streets", 3, 4);
        let shared = a.iter().filter(|g| b.contains(g)).count();
        assert!(shared >= a.len() / 2, "shared {shared} of {}", a.len());
    }
}
