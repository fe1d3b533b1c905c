//! Process-wide backend-name interning.
//!
//! Federated discovery addresses columns as `warehouse:db.table.col`. The
//! warehouse component is carried everywhere — inside every `ColumnRef`,
//! inside every LSH item id, inside every cache key — so it must be a
//! small copyable integer, not a `String`. The free functions of this
//! module are the single backend name ↔ id table behind that integer.
//!
//! Properties:
//!
//! * **Global and append-only.** A name, once seen, keeps its id for the
//!   process lifetime; ids are never reused. That is what makes the id
//!   safe to embed in the high bits of an LSH item id (`wg_lsh`): two
//!   live handles can never collide on bits, and a *re-attached* name
//!   maps back onto its old id so its indexed items remain addressable.
//! * **`"default"` is pinned to id 0.** Bits 0 is therefore both "the
//!   legacy single-backend namespace" and the namespace every
//!   pre-federation snapshot or un-namespaced `ColumnRef` lands in —
//!   no translation step needed for old data.
//! * **Capped at 256 names** ([`MAX_NAMES`]) because the LSH item-id
//!   layout reserves 8 bits for the backend (see `wg_lsh`). The cap is a
//!   per-process ceiling on *distinct names ever used*, not on
//!   simultaneously attached backends.

use std::sync::{Mutex, MutexGuard};

/// Hard ceiling on distinct interned names per process: the LSH item-id
/// layout gives the backend 8 bits.
pub const MAX_NAMES: usize = 256;

/// The name every un-namespaced reference belongs to, pinned to id 0.
pub const DEFAULT_NAME: &str = "default";

/// An append-only name ↔ id table of at most `cap` names, meant to live in
/// a `static`. [`DEFAULT_NAME`] holds id 0 from the first access on.
struct NameTable {
    names: Mutex<Vec<String>>,
    cap: usize,
}

impl NameTable {
    const fn new(cap: usize) -> Self {
        Self { names: Mutex::new(Vec::new()), cap }
    }

    fn names(&self) -> MutexGuard<'_, Vec<String>> {
        let mut names = self.names.lock().expect("name table lock");
        if names.is_empty() {
            names.push(DEFAULT_NAME.to_string());
        }
        names
    }

    fn intern(&self, name: &str) -> u32 {
        self.try_intern(name).unwrap_or_else(|| {
            panic!(
                "backend name table full ({} distinct names): names are interned for the process \
                 lifetime, so use stable names, not fresh ones",
                self.cap
            )
        })
    }

    fn try_intern(&self, name: &str) -> Option<u32> {
        let mut names = self.names();
        if let Some(pos) = names.iter().position(|n| n == name) {
            return Some(pos as u32);
        }
        if names.len() == self.cap {
            return None;
        }
        names.push(name.to_string());
        Some((names.len() - 1) as u32)
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.names().iter().position(|n| n == name).map(|p| p as u32)
    }

    fn resolve(&self, id: u32) -> String {
        self.names().get(id as usize).cloned().unwrap_or_else(|| format!("backend#{id}"))
    }
}

static BACKENDS: NameTable = NameTable::new(MAX_NAMES);

/// Intern a backend name, returning its stable id. Idempotent;
/// `"default"` always returns 0.
///
/// # Panics
///
/// Panics when a *new* name would exceed [`MAX_NAMES`] — names are
/// interned for the process lifetime, so that is a misuse (e.g. a fresh
/// name per request or per sync tick), not a workload.
pub fn intern(name: &str) -> u16 {
    BACKENDS.intern(name) as u16
}

/// [`intern`] that returns `None` instead of panicking when a *new* name
/// would exceed [`MAX_NAMES`] — for names that arrive in data (a snapshot
/// being loaded), where a full table is an error to report, not a misuse.
pub fn try_intern(name: &str) -> Option<u16> {
    BACKENDS.try_intern(name).map(|id| id as u16)
}

/// The id for a backend name, if it was ever interned. Does not intern.
pub fn lookup(name: &str) -> Option<u16> {
    BACKENDS.lookup(name).map(|id| id as u16)
}

/// The backend name behind an id. Ids only come from [`intern`], so an
/// unknown id means corrupted data (e.g. a snapshot decoded without
/// remapping); it resolves to a diagnostic placeholder rather than
/// panicking in Display paths.
pub fn resolve(id: u16) -> String {
    BACKENDS.resolve(u32::from(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pinned_to_zero() {
        assert_eq!(intern(DEFAULT_NAME), 0);
        assert_eq!(lookup(DEFAULT_NAME), Some(0));
        assert_eq!(resolve(0), DEFAULT_NAME);
    }

    #[test]
    fn interning_is_idempotent_and_stable() {
        let a = intern("names-test-cdw");
        let b = intern("names-test-lake");
        assert_ne!(a, b);
        assert_ne!(a, 0);
        assert_eq!(intern("names-test-cdw"), a, "same name must keep its id");
        assert_eq!(resolve(a), "names-test-cdw");
        assert_eq!(lookup("names-test-lake"), Some(b));
    }

    #[test]
    fn lookup_does_not_intern() {
        assert_eq!(lookup("names-test-never-interned"), None);
    }

    #[test]
    fn unknown_id_resolves_to_placeholder() {
        assert_eq!(resolve(u16::MAX), format!("backend#{}", u16::MAX));
    }

    #[test]
    fn table_holds_its_cap() {
        static SMALL: NameTable = NameTable::new(3);
        assert_eq!((SMALL.intern("a"), SMALL.intern("b"), SMALL.intern("a")), (1, 2, 1));
        assert_eq!(SMALL.lookup(DEFAULT_NAME), Some(0), "the default name counts toward the cap");
        assert_eq!((SMALL.try_intern("b"), SMALL.try_intern("c")), (Some(2), None));
        let full = std::panic::catch_unwind(|| SMALL.intern("c")).unwrap_err();
        let message = full.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("backend name table full (3 distinct names)"), "{message}");
    }
}
