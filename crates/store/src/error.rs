//! Error type for store operations, classified for retry middleware.
//!
//! Every [`StoreError`] is either **transient** (the same call may succeed
//! if repeated — a flaky link, a suspended warehouse, an injected fault)
//! or **fatal** (repeating the call cannot help — a missing table, a
//! schema violation, corrupt bytes). [`StoreError::is_retryable`] is the
//! single source of truth for that classification; retry middleware like
//! [`crate::RetryBackend`] keys off it and nothing else.
//!
//! The enum is `#[non_exhaustive]`: downstream crates must match with a
//! wildcard arm, so adding a variant here can never silently fall through
//! an external match. *Inside* this crate every match stays exhaustive on
//! purpose — a new variant then fails to compile until it is classified in
//! `is_retryable`, displayed, and wired through the remote-backend codec.

use wg_util::codec::CodecError;
use wg_util::deadline::Phase;

/// Errors from catalog lookups, CSV parsing, joins and CDW scans.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A database, table or column was not found. Fatal.
    NotFound(String),
    /// CSV input violated the expected structure. Fatal.
    Csv {
        /// 1-based line of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Columns of mismatched lengths, duplicate names, etc. Fatal.
    Schema(String),
    /// A join was requested on incompatible or missing keys. Fatal.
    Join(String),
    /// A wire frame or persisted artifact failed to decode. Fatal (the
    /// bytes will not un-corrupt themselves).
    Codec(CodecError),
    /// A warehouse backend failed in a way a retry cannot fix:
    /// misconfiguration, unreadable files, no backend attached. Fatal.
    Backend(String),
    /// A persisted snapshot failed its integrity check: checksum mismatch,
    /// torn frame, truncation, or trailing garbage. Fatal for *this* file —
    /// recovery falls back to the previous checkpoint generation instead
    /// of retrying (see `warpgate_core::durability`).
    SnapshotCorrupt(String),
    /// A transient backend failure: connection reset, timeout, suspended
    /// warehouse, injected fault. **Retryable**, as is `Overloaded`; every
    /// other variant is fatal.
    Unavailable(String),
    /// Retry middleware exhausted its attempt or backoff budget; wraps the
    /// last transient error. Fatal (the budget is spent).
    RetriesExhausted {
        /// Total attempts made, the initial call included.
        attempts: u32,
        /// The transient error the final attempt died on.
        last: Box<StoreError>,
    },
    /// Admission control shed this request: the concurrency cap and its
    /// bounded wait queue were both full, or the queue wait timed out.
    /// **Retryable** — the server is healthy, just busy; back off for
    /// roughly the hinted interval and try again.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's cooperative deadline expired before the pipeline
    /// finished; `phase` is the boundary the budget died at, with no
    /// further billed work started past it. Fatal — the caller's budget
    /// is spent, retrying the same budget would expire the same way.
    DeadlineExceeded {
        /// Pipeline phase whose boundary check observed the expiry.
        phase: Phase,
    },
}

impl StoreError {
    /// Whether retrying the failed call may succeed. This is the
    /// classification [`crate::RetryBackend`] acts on: transient failures
    /// retry with backoff, everything else propagates immediately.
    pub fn is_retryable(&self) -> bool {
        // Exhaustive on purpose: a new variant must be classified here
        // before the crate compiles again.
        match self {
            // A busy node clears with time: after the hinted backoff the
            // same call may succeed.
            StoreError::Unavailable(_) | StoreError::Overloaded { .. } => true,
            // An expired deadline is the caller's spent budget: the retry
            // would run against the same dead clock. The caller must mint
            // a fresh deadline, which is a new request, not a retry.
            StoreError::DeadlineExceeded { .. } => false,
            StoreError::NotFound(_)
            | StoreError::Csv { .. }
            | StoreError::Schema(_)
            | StoreError::Join(_)
            | StoreError::Codec(_)
            | StoreError::Backend(_)
            | StoreError::SnapshotCorrupt(_)
            | StoreError::RetriesExhausted { .. } => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(what) => write!(f, "not found: {what}"),
            StoreError::Csv { line, message } => {
                write!(f, "CSV error at line {line}: {message}")
            }
            StoreError::Schema(msg) => write!(f, "schema error: {msg}"),
            StoreError::Join(msg) => write!(f, "join error: {msg}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Backend(msg) => write!(f, "backend error: {msg}"),
            StoreError::SnapshotCorrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            StoreError::Unavailable(msg) => write!(f, "backend unavailable: {msg}"),
            StoreError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            StoreError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "overloaded: admission shed this request, retry after ~{retry_after_ms} ms"
                )
            }
            StoreError::DeadlineExceeded { phase } => {
                write!(f, "deadline exceeded in {phase} phase")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(StoreError::NotFound("db.t.c".into()).to_string(), "not found: db.t.c");
        assert!(StoreError::Csv { line: 3, message: "unterminated quote".into() }
            .to_string()
            .contains("line 3"));
        assert!(StoreError::Unavailable("link down".into()).to_string().contains("unavailable"));
        assert!(StoreError::Overloaded { retry_after_ms: 25 }.to_string().contains("25 ms"));
        assert_eq!(
            StoreError::DeadlineExceeded { phase: Phase::BlockRead }.to_string(),
            "deadline exceeded in block-read phase"
        );
        let exhausted = StoreError::RetriesExhausted {
            attempts: 4,
            last: Box::new(StoreError::Unavailable("still down".into())),
        };
        let msg = exhausted.to_string();
        assert!(msg.contains("4 attempts") && msg.contains("still down"), "{msg}");
    }

    #[test]
    fn codec_error_converts() {
        let e: StoreError = CodecError::UnexpectedEof.into();
        assert!(matches!(e, StoreError::Codec(_)));
    }

    /// The complete retryability contract, one arm per variant. A new
    /// variant added without extending this table fails the count check
    /// below, so the classification can never silently drift.
    #[test]
    fn retryability_covers_every_variant() {
        let transient = [
            StoreError::Unavailable("timeout".into()),
            StoreError::Overloaded { retry_after_ms: 50 },
        ];
        let fatal = [
            StoreError::NotFound("x".into()),
            StoreError::Csv { line: 1, message: "m".into() },
            StoreError::Schema("s".into()),
            StoreError::Join("j".into()),
            StoreError::Codec(CodecError::UnexpectedEof),
            StoreError::Backend("b".into()),
            StoreError::SnapshotCorrupt("checksum mismatch".into()),
            StoreError::RetriesExhausted {
                attempts: 3,
                last: Box::new(StoreError::Unavailable("u".into())),
            },
            StoreError::DeadlineExceeded { phase: Phase::Scan },
        ];
        for e in &transient {
            assert!(e.is_retryable(), "{e} must be retryable");
        }
        for e in &fatal {
            assert!(!e.is_retryable(), "{e} must be fatal");
        }
        // One exemplar per variant: count them via an exhaustive match so
        // adding a variant breaks compilation right here too.
        let variant_count = |e: &StoreError| match e {
            StoreError::NotFound(_)
            | StoreError::Csv { .. }
            | StoreError::Schema(_)
            | StoreError::Join(_)
            | StoreError::Codec(_)
            | StoreError::Backend(_)
            | StoreError::SnapshotCorrupt(_)
            | StoreError::Unavailable(_)
            | StoreError::RetriesExhausted { .. }
            | StoreError::Overloaded { .. }
            | StoreError::DeadlineExceeded { .. } => 1usize,
        };
        let total: usize = transient.iter().chain(fatal.iter()).map(variant_count).sum();
        assert_eq!(total, 11, "every StoreError variant has an exemplar in this table");
    }

    #[test]
    fn retries_exhausted_exposes_cause_via_source() {
        use std::error::Error;
        let e = StoreError::RetriesExhausted {
            attempts: 2,
            last: Box::new(StoreError::Unavailable("flaky".into())),
        };
        let src = e.source().expect("has a source");
        assert!(src.to_string().contains("flaky"));
    }
}
