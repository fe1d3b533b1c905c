//! The item-id ↔ column-ref registry behind [`crate::WarpGate`], and the
//! integer form of its re-rank exclusion predicate.
//!
//! Ids are namespaced: the high bits are the ref's backend, the low bits a
//! per-backend counter that is never reused (removal tombstones the id).
//! Because the counters are dense, the registry also keeps, per backend, a
//! plain `Vec` from local id to an interned **table id** — so "is this
//! candidate the query's table-mate?" is one 4-byte load and an integer
//! compare per candidate instead of a hash probe into `ColumnRef`s and
//! three `String` compares (DESIGN.md §8 "Per-candidate cost").

use wg_lsh::{compose_item_id, item_backend, item_local};
use wg_store::{ColumnRef, TableRef};
use wg_util::FxHashMap;

/// Table id of an item id that is removed or was never assigned. Real
/// table ids count up from 0 and never reach it.
const TOMBSTONE: u32 = u32::MAX;

/// One interned `(backend, database, table)`.
struct TableEntry {
    /// Process-local table id: never persisted, never reused.
    id: u32,
    /// Live item ids of the table's columns, in no particular order.
    items: Vec<u32>,
}

/// Maps index item ids to column references and back, and item ids to the
/// table they belong to.
#[derive(Default)]
pub(crate) struct Registry {
    ref_of: FxHashMap<u32, ColumnRef>,
    id_of: FxHashMap<ColumnRef, u32>,
    /// Tables with at least one live column.
    tables: FxHashMap<TableRef, TableEntry>,
    next_table: u32,
    /// `table_of[backend bits][local id]` = table id, [`TOMBSTONE`] once
    /// removed. Each inner `Vec`'s length is the namespace's next local id.
    table_of: Vec<Vec<u32>>,
}

impl Registry {
    pub(crate) fn insert(&mut self, r: ColumnRef) -> u32 {
        if let Some(&id) = self.id_of.get(&r) {
            return id;
        }
        let bits = r.backend.bits();
        let next_local = self.table_of.get(bits as usize).map_or(0, Vec::len);
        let id = compose_item_id(bits, next_local as u32);
        self.link(id, r);
        id
    }

    /// Build a registry from persisted `(id, ref)` pairs, in any order.
    /// Each namespace's counter ends past its highest id, so later inserts
    /// never collide. A snapshot never repeats an id or a ref (its writer
    /// walks a registry); input that does is refused, not half-installed.
    pub(crate) fn from_entries(entries: Vec<(u32, ColumnRef)>) -> Result<Registry, String> {
        let n = entries.len();
        let mut registry = Registry::default();
        registry.ref_of.reserve(n);
        registry.id_of.reserve(n);
        for (id, r) in entries {
            registry.link(id, r);
        }
        if registry.ref_of.len() != n || registry.id_of.len() != n {
            return Err(format!(
                "{n} registry entries name {} distinct ids and {} distinct columns",
                registry.ref_of.len(),
                registry.id_of.len()
            ));
        }
        Ok(registry)
    }

    pub(crate) fn remove(&mut self, r: &ColumnRef) -> Option<u32> {
        let id = self.id_of.remove(r)?;
        self.ref_of.remove(&id);
        self.table_of[item_backend(id) as usize][item_local(id) as usize] = TOMBSTONE;
        let table = r.table_ref();
        let entry = self.tables.get_mut(&table).expect("a live column's table is interned");
        let at = entry.items.iter().position(|&i| i == id).expect("table lists its live column");
        entry.items.swap_remove(at);
        if entry.items.is_empty() {
            self.tables.remove(&table);
        }
        Some(id)
    }

    pub(crate) fn reference(&self, id: u32) -> Option<&ColumnRef> {
        self.ref_of.get(&id)
    }

    /// Every live `(id, ref)` pair, in no particular order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, &ColumnRef)> {
        self.ref_of.iter().map(|(id, r)| (*id, r))
    }

    /// Every table with at least one live column, in no particular order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &TableRef> {
        self.tables.keys()
    }

    /// Live refs of one (namespaced) table, in no particular order —
    /// what a sync's table install diffs against.
    pub(crate) fn table_refs(&self, table: &TableRef) -> Vec<ColumnRef> {
        let Some(entry) = self.tables.get(table) else {
            return Vec::new();
        };
        entry.items.iter().map(|id| self.ref_of[id].clone()).collect()
    }

    /// The re-rank exclusion predicate for one query, resolved to integers
    /// once: tombstoned ids never match, and every column of the query's
    /// own table — the query column included — is filtered out (the
    /// product recommends *other* tables to join with). A query ref the
    /// registry does not know excludes tombstones and the live columns of
    /// its table, if that is interned.
    pub(crate) fn excluder(&self, query: &ColumnRef) -> impl Fn(u32) -> bool + '_ {
        // TOMBSTONE for a table with no live column: no live id carries it.
        let qtable = match self.id_of.get(query) {
            Some(&id) => self.table_of(id),
            None => self.tables.get(&query.table_ref()).map_or(TOMBSTONE, |t| t.id),
        };
        move |id| {
            let table = self.table_of(id);
            table == TOMBSTONE || table == qtable
        }
    }

    #[inline]
    fn table_of(&self, id: u32) -> u32 {
        match self.table_of.get(item_backend(id) as usize) {
            Some(locals) => locals.get(item_local(id) as usize).copied().unwrap_or(TOMBSTONE),
            None => TOMBSTONE,
        }
    }

    fn locals_mut(&mut self, bits: u16) -> &mut Vec<u32> {
        let bits = bits as usize;
        if self.table_of.len() <= bits {
            self.table_of.resize_with(bits + 1, Vec::new);
        }
        &mut self.table_of[bits]
    }

    /// Record `id ↔ r` (neither currently live) under `r`'s table.
    fn link(&mut self, id: u32, r: ColumnRef) {
        let entry = self.tables.entry(r.table_ref()).or_insert_with(|| {
            let id = self.next_table;
            assert!(id < TOMBSTONE, "table ids exhausted");
            self.next_table += 1;
            TableEntry { id, items: Vec::new() }
        });
        entry.items.push(id);
        let table = entry.id;
        let local = item_local(id) as usize;
        let locals = self.locals_mut(item_backend(id));
        if locals.len() <= local {
            locals.resize(local + 1, TOMBSTONE);
        }
        locals[local] = table;
        self.id_of.insert(r.clone(), id);
        self.ref_of.insert(id, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::BackendId;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    /// The predicate as the facade wrote it before table ids existed.
    fn by_strings(reg: &Registry, id: u32, q: &ColumnRef) -> bool {
        match reg.reference(id) {
            None => true,
            Some(r) => r.same_table(q),
        }
    }

    fn backends() -> [BackendId; 3] {
        [
            BackendId::DEFAULT,
            BackendId::named("registry-test-a"),
            BackendId::named("registry-test-b"),
        ]
    }

    /// A ref drawn from a small universe in which every backend has the
    /// same database, table and column names.
    fn random_ref(rng: &mut Xoshiro256pp) -> ColumnRef {
        let pick = |rng: &mut Xoshiro256pp, n: u64| rng.gen_u64() % n;
        ColumnRef::scoped(
            backends()[pick(rng, 3) as usize],
            format!("db{}", pick(rng, 2)),
            format!("t{}", pick(rng, 4)),
            format!("c{}", pick(rng, 5)),
        )
    }

    /// Every id worth asking about: all assigned locals of each backend,
    /// two past the end, and a backend the registry never saw.
    fn probe_ids(reg: &Registry) -> Vec<u32> {
        let mut ids = vec![compose_item_id(200, 0), compose_item_id(200, 7)];
        for b in backends() {
            let assigned = reg.table_of.get(b.bits() as usize).map_or(0, Vec::len) as u32;
            ids.extend((0..assigned + 2).map(|local| compose_item_id(b.bits(), local)));
        }
        ids
    }

    fn assert_predicates_agree(reg: &Registry, queries: &[ColumnRef], what: &str) {
        let ids = probe_ids(reg);
        for q in queries {
            let exclude = reg.excluder(q);
            for &id in &ids {
                assert_eq!(exclude(id), by_strings(reg, id, q), "{what}: id {id:#x}, query {q}");
            }
        }
    }

    #[test]
    fn integer_exclusion_equals_the_string_predicate() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256pp::new(0x7AB1E + seed);
            let mut reg = Registry::default();
            let mut removed: Vec<ColumnRef> = Vec::new();
            for step in 0..400 {
                match rng.gen_u64() % 10 {
                    0..=5 => {
                        reg.insert(random_ref(&mut rng));
                    }
                    6..=8 => {
                        let r = random_ref(&mut rng);
                        if reg.remove(&r).is_some() {
                            removed.push(r);
                        }
                    }
                    _ => {
                        // A removed ref comes back under a fresh id; the
                        // old one stays tombstoned.
                        if let Some(r) = removed.pop() {
                            reg.insert(r);
                        }
                    }
                }
                if step % 40 != 39 {
                    continue;
                }
                // Registered, removed, never-registered-in-a-known-table,
                // and the ref `discover_values` queries with.
                let mut queries: Vec<ColumnRef> =
                    reg.entries().map(|(_, r)| r.clone()).take(12).collect();
                queries.extend(removed.iter().take(4).cloned());
                queries.extend(backends().map(|b| ColumnRef::scoped(b, "db0", "t1", "never")));
                queries.push(ColumnRef::new("", "", ""));
                assert_predicates_agree(&reg, &queries, "live registry");

                // Restore: the same pairs through `from_entries`, any order.
                let mut pairs: Vec<(u32, ColumnRef)> =
                    reg.entries().map(|(id, r)| (id, r.clone())).collect();
                pairs.sort_by_key(|(id, _)| id.wrapping_mul(0x9E37_79B9));
                let mut restored = Registry::from_entries(pairs).expect("a live registry's pairs");
                assert_predicates_agree(&restored, &queries, "restored registry");
                for (id, r) in reg.entries() {
                    assert_eq!(restored.reference(id), Some(r));
                }
                // A restored namespace numbers on from its highest id.
                let fresh = ColumnRef::scoped(backends()[1], "db9", "t9", "c9");
                let highest = restored
                    .entries()
                    .filter(|(id, _)| item_backend(*id) == fresh.backend.bits())
                    .map(|(id, _)| item_local(id))
                    .max();
                let id = restored.insert(fresh);
                assert!(highest.is_none_or(|h| item_local(id) > h));
            }
        }
    }

    #[test]
    fn table_refs_equals_a_scan_over_every_entry() {
        let mut rng = Xoshiro256pp::new(0x7AB1E5);
        let mut reg = Registry::default();
        for step in 0..600 {
            let r = random_ref(&mut rng);
            if rng.gen_u64() % 3 == 0 {
                reg.remove(&r);
            } else {
                reg.insert(r);
            }
            if step % 50 != 49 {
                continue;
            }
            for b in backends() {
                for (db, t) in [("db0", "t0"), ("db1", "t3"), ("db0", "absent")] {
                    let table = TableRef::scoped(b, db, t);
                    let mut got = reg.table_refs(&table);
                    let mut want: Vec<ColumnRef> = reg
                        .entries()
                        .filter(|(_, r)| table.contains(r))
                        .map(|(_, r)| r.clone())
                        .collect();
                    // The caller (`commit_table`) treats the result as a
                    // set.
                    got.sort();
                    want.sort();
                    assert_eq!(got, want, "{table}");
                }
            }
        }
        // A table whose last column goes is forgotten, not leaked.
        let all: Vec<ColumnRef> = reg.entries().map(|(_, r)| r.clone()).collect();
        for r in &all {
            reg.remove(r);
        }
        assert!(reg.tables.is_empty());
        assert!(reg.table_refs(&all[0].table_ref()).is_empty());
    }

    #[test]
    fn from_entries_refuses_a_repeated_id_or_ref() {
        let (a, b) = (ColumnRef::new("db", "t", "a"), ColumnRef::new("db", "u", "b"));
        let same_id = Registry::from_entries(vec![(3, a.clone()), (3, b.clone())]);
        assert!(same_id.is_err_and(|e| e.contains("1 distinct ids")));
        let same_ref = Registry::from_entries(vec![(3, b.clone()), (5, b.clone())]);
        assert!(same_ref.is_err_and(|e| e.contains("1 distinct columns")));
        // Gaps are fine, and the namespace numbers on past the highest id.
        let mut reg = Registry::from_entries(vec![(5, b.clone()), (3, a.clone())]).unwrap();
        assert_eq!((reg.reference(3), reg.reference(5)), (Some(&a), Some(&b)));
        assert!(reg.excluder(&a)(4), "an id the snapshot skipped is a tombstone");
        assert_eq!(reg.insert(ColumnRef::new("db", "t", "c")), 6);
    }
}
