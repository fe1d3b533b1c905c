//! Process-wide name interning: backend names here, tenant names in
//! `warpgate_core::admission`, one [`NameTable`] each.
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

/// An append-only, capped name ↔ id table, meant to live in a `static`.
/// The `pinned` names hold ids `0..pinned.len()` from the first access on.
pub struct NameTable {
    names: Mutex<Vec<String>>,
    cap: usize,
    pinned: &'static [&'static str],
    /// What the names name, for panic messages and placeholders.
    kind: &'static str,
}

impl NameTable {
    /// An empty table of at most `cap` names of `kind`.
    pub const fn new(kind: &'static str, cap: usize, pinned: &'static [&'static str]) -> Self {
        Self { names: Mutex::new(Vec::new()), cap, pinned, kind }
    }

    fn names(&self) -> MutexGuard<'_, Vec<String>> {
        let mut names = self.names.lock().expect("name table lock");
        if names.is_empty() {
            names.extend(self.pinned.iter().map(|n| n.to_string()));
        }
        names
    }

    /// Intern `name`, returning its stable id. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics when a *new* name would exceed the cap — names are interned
    /// for the process lifetime, so that is a misuse (e.g. a fresh name
    /// per request or per sync tick), not a workload.
    pub fn intern(&self, name: &str) -> u32 {
        let mut names = self.names();
        if let Some(pos) = names.iter().position(|n| n == name) {
            return pos as u32;
        }
        assert!(
            names.len() < self.cap,
            "{} name table full ({} distinct names): names are interned for the process \
             lifetime, so use stable names, not fresh ones",
            self.kind,
            self.cap
        );
        names.push(name.to_string());
        (names.len() - 1) as u32
    }

    /// The id for a name, if it was ever interned. Does not intern.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.names().iter().position(|n| n == name).map(|p| p as u32)
    }

    /// The name behind an id. Ids only come from [`Self::intern`], so an
    /// unknown id means corrupted data (e.g. a snapshot decoded without
    /// remapping); it resolves to a diagnostic placeholder rather than
    /// panicking in Display paths.
    pub fn resolve(&self, id: u32) -> String {
        self.names().get(id as usize).cloned().unwrap_or_else(|| format!("{}#{id}", self.kind))
    }
}

static BACKENDS: NameTable = NameTable::new("backend", MAX_NAMES, &[DEFAULT_NAME]);

/// Intern a backend name, returning its stable id. Idempotent;
/// `"default"` always returns 0. Panics past [`MAX_NAMES`] distinct names
/// (see [`NameTable::intern`]).
pub fn intern(name: &str) -> u16 {
    BACKENDS.intern(name) as u16
}

/// The id for a backend name, if it was ever interned. Does not intern.
pub fn lookup(name: &str) -> Option<u16> {
    BACKENDS.lookup(name).map(|id| id as u16)
}

/// The backend name behind an id (see [`NameTable::resolve`]).
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
    fn table_holds_its_cap_and_pins_nothing_unasked() {
        static SMALL: NameTable = NameTable::new("widget", 2, &[]);
        assert_eq!(SMALL.lookup(DEFAULT_NAME), None);
        assert_eq!((SMALL.intern("a"), SMALL.intern("b"), SMALL.intern("a")), (0, 1, 0));
        let full = std::panic::catch_unwind(|| SMALL.intern("c")).unwrap_err();
        let message = full.downcast_ref::<String>().expect("formatted panic");
        assert!(message.starts_with("widget name table full (2 distinct names)"), "{message}");
    }
}
