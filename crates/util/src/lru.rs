//! The one LRU cache of the workspace: a byte-budgeted map whose recency
//! order is a doubly linked list threaded through a slab by index.
//!
//! A hit is one hash probe plus a few indexed writes; the eviction victim
//! is always the list's oldest slot, with no scan over what is resident;
//! freed slots go on a free list and are reused before the slab grows.
//! [`Lru`] takes `&mut self` — a shared cache wraps it in a mutex and
//! decides for itself what runs outside that lock (the block cache loads a
//! block there, the embedding cache scans and embeds a column).
//!
//! Admission is unconditional: [`Lru::insert`] links the new entry in as
//! most recently used, then evicts the least recently used *other* entries
//! until the budget holds again. One entry heavier than the whole budget
//! therefore stays resident until the next admission.

use std::hash::Hash;

use crate::FxHashMap;

/// Point-in-time counters of an [`Lru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay under budget or by [`Lru::retain`].
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: usize,
}

/// "No slot": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One slot of the slab: a resident entry, or a free slot.
struct Slot<K, V> {
    /// `None` while the slot is free.
    entry: Option<(K, V)>,
    bytes: usize,
    /// Slot of the next more recently used entry.
    newer: u32,
    /// Slot of the next less recently used entry; for a free slot, the
    /// next free slot.
    older: u32,
}

/// A byte-budgeted LRU map from `K` to `V` (see the module docs).
pub struct Lru<K, V> {
    /// 0 = unbounded.
    budget_bytes: usize,
    /// Slot of each resident entry.
    map: FxHashMap<K, u32>,
    slab: Vec<Slot<K, V>>,
    /// Head of the free-slot list, threaded through `older`.
    free: u32,
    newest: u32,
    oldest: u32,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_bytes: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty cache admitting up to `budget_bytes` (0 = unbounded).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: NIL,
            newest: NIL,
            oldest: NIL,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_bytes: 0,
        }
    }

    /// The value for `key`, marked most recently used. Counts a hit or a
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let value = self.touch(key);
        match value {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        value
    }

    /// Admit `value` under `key`, weighing `bytes`, as most recently used,
    /// then evict until the budget holds — unless `key` is already
    /// resident, in which case that value is refreshed and returned and
    /// `value` is dropped. Returns the resident value either way; counts
    /// neither a hit nor a miss (the [`Self::get`] before it did).
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> V {
        if let Some(resident) = self.touch(&key) {
            return resident;
        }
        let slot =
            Slot { entry: Some((key.clone(), value.clone())), bytes, newer: NIL, older: NIL };
        let at = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "LRU slab is full");
                self.slab.push(slot);
                (self.slab.len() - 1) as u32
            }
            at => {
                self.free = self.slab[at as usize].older;
                self.slab[at as usize] = slot;
                at
            }
        };
        self.map.insert(key, at);
        self.link_newest(at);
        self.bytes += bytes;
        if self.budget_bytes > 0 {
            // The entry just admitted is `newest`, so with two or more
            // resident it is never the victim.
            while self.bytes > self.budget_bytes && self.map.len() > 1 {
                self.evict(self.oldest);
            }
        }
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        value
    }

    /// Evict every entry whose key `keep` rejects; returns how many. Walks
    /// the whole slab, which is right for invalidation and would not be
    /// for anything per lookup.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let before = self.map.len();
        for at in 0..self.slab.len() as u32 {
            if self.slab[at as usize].entry.as_ref().is_some_and(|(k, _)| !keep(k)) {
                self.evict(at);
            }
        }
        before - self.map.len()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.map.len(),
            resident_bytes: self.bytes,
            peak_resident_bytes: self.peak_bytes,
        }
    }

    /// The resident value for `key`, marked most recently used.
    fn touch(&mut self, key: &K) -> Option<V> {
        let at = *self.map.get(key)?;
        let slot = &self.slab[at as usize];
        let value = slot.entry.as_ref().expect("a mapped slot is resident").1.clone();
        let (newer, older) = (slot.newer, slot.older);
        if newer != NIL {
            self.unlink(newer, older);
            self.link_newest(at);
        }
        Some(value)
    }

    /// Close the list over the gap a slot with these neighbours leaves.
    fn unlink(&mut self, newer: u32, older: u32) {
        match newer {
            NIL => self.newest = older,
            n => self.slab[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o as usize].newer = newer,
        }
    }

    /// Link a resident, currently unlinked slot in as most recently used.
    fn link_newest(&mut self, at: u32) {
        let prev = std::mem::replace(&mut self.newest, at);
        match prev {
            NIL => self.oldest = at,
            p => self.slab[p as usize].newer = at,
        }
        let slot = &mut self.slab[at as usize];
        slot.newer = NIL;
        slot.older = prev;
    }

    /// Drop the entry in slot `at` and put the slot on the free list.
    fn evict(&mut self, at: u32) {
        let slot = &mut self.slab[at as usize];
        let (key, _) = slot.entry.take().expect("evicted slot is resident");
        let (bytes, newer, older) = (slot.bytes, slot.newer, slot.older);
        slot.older = std::mem::replace(&mut self.free, at);
        self.map.remove(&key).expect("evicted slot is mapped");
        self.unlink(newer, older);
        self.bytes -= bytes;
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, Xoshiro256pp};
    use std::collections::VecDeque;

    type Key = (u32, u32);

    /// The recency order, oldest first, read off the slab's links.
    fn recency<V: Clone>(lru: &Lru<Key, V>) -> Vec<Key> {
        let mut order = Vec::new();
        let mut at = lru.oldest;
        while at != NIL {
            let slot = &lru.slab[at as usize];
            let key = slot.entry.as_ref().expect("a linked slot is resident").0;
            assert_eq!(lru.map[&key], at);
            order.push(key);
            at = slot.newer;
        }
        assert_eq!(order.len(), lru.map.len());
        order
    }

    /// A miss the way the caches take one: probe, and admit on a miss.
    fn fetch(lru: &mut Lru<Key, f32>, key: Key, bytes: usize) -> f32 {
        lru.get(&key).unwrap_or_else(|| lru.insert(key, key.1 as f32, bytes))
    }

    #[test]
    fn eviction_order_replays_a_strict_lru_model() {
        // Entries of 4..=16 bytes over a 40-byte budget, accessed in a
        // seeded script that mixes hits, misses and re-admissions.
        let budget = 40usize;
        let mut lru = Lru::new(budget);
        let bytes = |key: Key| 4 * (1 + (key.1 as usize % 4));
        let mut model: VecDeque<Key> = Default::default();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut rng = Xoshiro256pp::new(13);
        for _ in 0..4_000 {
            let key = ((rng.gen_u64() % 2) as u32, (rng.gen_u64() % 9) as u32);
            assert_eq!(fetch(&mut lru, key, bytes(key)), key.1 as f32);
            if let Some(at) = model.iter().position(|&k| k == key) {
                model.remove(at);
                hits += 1;
            } else {
                misses += 1;
            }
            model.push_back(key);
            let resident = |m: &VecDeque<Key>| -> usize { m.iter().map(|&k| bytes(k)).sum() };
            while resident(&model) > budget && model.len() > 1 {
                model.pop_front();
                evictions += 1;
            }
            assert_eq!(recency(&lru), Vec::from(model.clone()));
            let stats = lru.stats();
            assert_eq!((stats.hits, stats.misses, stats.evictions), (hits, misses, evictions));
            assert_eq!(stats.resident_bytes, resident(&model));
        }
        assert!(evictions > 100 && hits > 100, "the script must exercise both paths");
        // Slots are reused: the slab never outgrew the most entries the
        // budget ever held at once (ten 4-byte entries) plus the one being
        // admitted.
        assert!(lru.slab.len() <= 11);
    }

    #[test]
    fn retain_returns_its_slots_to_the_free_list() {
        let mut lru = Lru::new(0);
        for key in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)] {
            fetch(&mut lru, key, 16);
        }
        assert_eq!(lru.retain(|&(s, _)| s != 0), 3);
        assert_eq!(recency(&lru), vec![(1, 0), (1, 1)]);
        assert_eq!(lru.stats().evictions, 3);
        // Three new entries fit in the three freed slots.
        for key in [(2, 0), (2, 1), (2, 2)] {
            fetch(&mut lru, key, 16);
        }
        assert_eq!(lru.slab.len(), 5);
        assert_eq!(recency(&lru), vec![(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]);
        fetch(&mut lru, (2, 3), 16);
        assert_eq!(lru.slab.len(), 6);
    }

    #[test]
    fn insert_keeps_a_resident_value_and_refreshes_it() {
        let mut lru = Lru::new(0);
        lru.insert((0, 0), 1.0, 4);
        lru.insert((0, 1), 2.0, 4);
        assert_eq!(lru.insert((0, 0), 9.0, 4), 1.0, "the resident value wins");
        assert_eq!(recency(&lru), vec![(0, 1), (0, 0)]);
        let stats = lru.stats();
        assert_eq!((stats.hits, stats.misses, stats.len, stats.resident_bytes), (0, 0, 2, 8));
    }
}
