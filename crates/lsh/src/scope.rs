//! Backend scoping for federated queries.
//!
//! A federated discover runs over many attached warehouses at once, but a
//! caller often wants to restrict the search: "find joins for this CDW
//! column *in the data lake only*", or "everywhere except the warehouse
//! the query came from". [`DiscoverScope`] is that filter, expressed over
//! the backend bits packed into every [`ItemId`] (see
//! [`crate::compose_item_id`]).
//!
//! The filter is pushed into **candidate generation**: a row from the band
//! buckets is judged once, as the candidate scan reaches it and before any
//! exact cosine is computed, so an excluded backend costs nothing past the
//! bucket probe — no scoring, and (because the federation layer also checks
//! the scope before touching a backend) no billed scans.

use crate::{item_backend, ItemId};

/// Which backend namespaces a query may touch.
///
/// Backends are identified by their interned-name bits
/// (`wg_store::BackendId::bits`); the sets are tiny (≤ 256 entries, in
/// practice a handful), so membership is a linear probe over a sorted
/// `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DiscoverScope {
    /// Every attached backend (the default, and the legacy single-backend
    /// behavior).
    #[default]
    All,
    /// Only these backends.
    Include(Vec<u16>),
    /// Every backend except these.
    Exclude(Vec<u16>),
}

impl DiscoverScope {
    /// Scope to exactly these backends (deduplicated, order-insensitive).
    pub fn include(backends: impl IntoIterator<Item = u16>) -> Self {
        DiscoverScope::Include(normalize(backends))
    }

    /// Scope to everything but these backends.
    pub fn exclude(backends: impl IntoIterator<Item = u16>) -> Self {
        DiscoverScope::Exclude(normalize(backends))
    }

    /// Whether this scope admits every backend.
    pub fn is_all(&self) -> bool {
        match self {
            DiscoverScope::All => true,
            DiscoverScope::Include(_) => false,
            DiscoverScope::Exclude(list) => list.is_empty(),
        }
    }

    /// Whether a backend namespace (by its interned bits) is in scope.
    #[inline]
    pub fn admits_backend(&self, bits: u16) -> bool {
        match self {
            DiscoverScope::All => true,
            DiscoverScope::Include(list) => list.contains(&bits),
            DiscoverScope::Exclude(list) => !list.contains(&bits),
        }
    }

    /// Whether an item is in scope, judged by its backend bits.
    #[inline]
    pub fn admits(&self, id: ItemId) -> bool {
        self.admits_backend(item_backend(id))
    }
}

fn normalize(backends: impl IntoIterator<Item = u16>) -> Vec<u16> {
    let mut list: Vec<u16> = backends.into_iter().collect();
    list.sort_unstable();
    list.dedup();
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose_item_id;

    #[test]
    fn all_admits_everything() {
        let scope = DiscoverScope::default();
        assert!(scope.is_all());
        assert!(scope.admits_backend(0));
        assert!(scope.admits_backend(255));
        assert!(scope.admits(compose_item_id(3, 7)));
    }

    #[test]
    fn include_admits_only_listed() {
        let scope = DiscoverScope::include([2, 1, 2]);
        assert_eq!(scope, DiscoverScope::Include(vec![1, 2]));
        assert!(!scope.is_all());
        assert!(scope.admits_backend(1));
        assert!(scope.admits_backend(2));
        assert!(!scope.admits_backend(0));
        assert!(scope.admits(compose_item_id(1, 9)));
        assert!(!scope.admits(compose_item_id(3, 9)));
    }

    #[test]
    fn exclude_admits_the_complement() {
        let scope = DiscoverScope::exclude([1]);
        assert!(!scope.is_all());
        assert!(scope.admits_backend(0));
        assert!(!scope.admits_backend(1));
        assert!(scope.admits_backend(2));
        // An empty exclusion is All in practice.
        assert!(DiscoverScope::exclude([]).is_all());
    }
}
