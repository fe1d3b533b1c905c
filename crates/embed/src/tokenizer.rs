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

/// A single normalized token, owned. The embedding path itself never
/// builds these: it reads tokens out of a [`TokenBuf`].
pub type Token = String;

/// The normalized tokens of one cell, stored back to back in one string
/// with a list of end offsets. [`tokenize_into`] refills it without
/// freeing, so one buffer serves every value of a column.
#[derive(Debug, Clone, Default)]
pub struct TokenBuf {
    text: String,
    /// Byte offset in `text` where each token ends; a token starts where
    /// the one before it ends.
    ends: Vec<usize>,
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

    /// Append one run of the cell as a token. A run is a maximal stretch of
    /// alphanumeric characters that are all ASCII digits or all not.
    fn push_run(&mut self, run: &str, is_digit: bool) {
        if is_digit {
            let trimmed = run.trim_start_matches('0');
            self.text.push_str(if trimmed.is_empty() { "0" } else { trimmed });
        } else if run.is_ascii() {
            let from = self.text.len();
            self.text.push_str(run);
            self.text[from..].make_ascii_lowercase();
        } else {
            // Full Unicode lowercasing sees the whole run: a final sigma
            // lowercases by its position in the word, `İ` to two scalars.
            self.text.push_str(&run.to_lowercase());
        }
        self.ends.push(self.text.len());
    }
}

/// Tokenize one cell into `out`, replacing what it held.
pub fn tokenize_into(cell: &str, out: &mut TokenBuf) {
    out.text.clear();
    out.ends.clear();
    // Every run is a contiguous slice of the cell: remember where the
    // current one started and whether it is digits or letters.
    let mut run: Option<(usize, bool)> = None;
    for (at, ch) in cell.char_indices() {
        if ch.is_alphanumeric() {
            let is_digit = ch.is_ascii_digit();
            match run {
                Some((_, run_is_digit)) if run_is_digit == is_digit => {}
                Some((start, run_is_digit)) => {
                    out.push_run(&cell[start..at], run_is_digit);
                    run = Some((at, is_digit));
                }
                None => run = Some((at, is_digit)),
            }
        } else if let Some((start, run_is_digit)) = run.take() {
            out.push_run(&cell[start..at], run_is_digit);
        }
    }
    if let Some((start, run_is_digit)) = run {
        out.push_run(&cell[start..], run_is_digit);
    }
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
/// [`for_each_char_ngram`]).
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
