//! A contiguous slab of same-dimension vectors keyed by [`ItemId`].
//!
//! [`VectorArena`] stores all vectors back-to-back in one `Vec<f32>`
//! (`slot × dim` addressing) with an id → slot map and a free-list. The
//! **slot** is a row's number everywhere below the public API: the index's
//! band buckets hold slots, a query's candidate set is a bitset over slots,
//! and the exact re-rank walks that bitset in ascending order — so it
//! streams the slab in address order, four rows per kernel pass, without
//! ever probing the id → slot map (that map serves insert, remove and
//! lookups by id only). Removals recycle slots without shifting anything —
//! which is why the index unbuckets a slot *before* it returns here to be
//! freed — and per-slot L2 norms are maintained on insert, so cosine scoring
//! is one dot product per candidate instead of a dot plus two norm passes.

use wg_util::kernel;
use wg_util::FxHashMap;

use crate::ItemId;

/// Contiguous vector storage with slot reuse. No `Default`: a zero-dim
/// arena is meaningless, so construction goes through [`Self::new`],
/// which enforces `dim > 0`.
#[derive(Debug, Clone)]
pub struct VectorArena {
    dim: usize,
    /// Slot-major slab: slot `s` occupies `data[s*dim .. (s+1)*dim]`.
    data: Vec<f32>,
    /// Per-slot L2 norm (0.0 for free slots).
    norms: Vec<f32>,
    /// Per-slot owner; `None` marks a free slot.
    ids: Vec<Option<ItemId>>,
    slot_of: FxHashMap<ItemId, u32>,
    /// Recyclable slots, popped LIFO on insert.
    free: Vec<u32>,
}

impl VectorArena {
    /// An empty arena for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
            norms: Vec::new(),
            ids: Vec::new(),
            slot_of: FxHashMap::default(),
            free: Vec::new(),
        }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live vectors.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True when no vector is stored.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Number of slots (live + free) — the iteration bound for slot-order
    /// scans.
    pub fn slot_count(&self) -> usize {
        self.ids.len()
    }

    /// Insert (or overwrite in place) the vector for `id`; returns its
    /// slot. Panics on dimension mismatch — validation happens above.
    pub fn insert(&mut self, id: ItemId, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let filled = self.insert_with(id, |slot| {
            slot.copy_from_slice(vector);
            Ok(())
        });
        filled.unwrap_or_else(|never: std::convert::Infallible| match never {})
    }

    /// [`Self::insert`] for a vector that does not exist in memory yet:
    /// `fill` writes it straight into the slot's `dim` floats (a decoder
    /// reading a row needs no staging `Vec`). If `fill` fails, `id` is not
    /// stored — not even a vector it had before the call.
    pub fn insert_with<E>(
        &mut self,
        id: ItemId,
        fill: impl FnOnce(&mut [f32]) -> Result<(), E>,
    ) -> Result<u32, E> {
        let slot = match self.slot_of.get(&id) {
            Some(&s) => s,
            None => {
                let s = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        let s = self.ids.len() as u32;
                        self.ids.push(None);
                        self.norms.push(0.0);
                        self.data.resize(self.data.len() + self.dim, 0.0);
                        s
                    }
                };
                self.slot_of.insert(id, s);
                self.ids[s as usize] = Some(id);
                s
            }
        };
        let start = slot as usize * self.dim;
        let vector = &mut self.data[start..start + self.dim];
        if let Err(e) = fill(vector) {
            self.remove(id);
            return Err(e);
        }
        self.norms[slot as usize] = kernel::norm_sq(vector).sqrt();
        Ok(slot)
    }

    /// Remove `id`, recycling its slot; true if it was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        self.ids[slot as usize] = None;
        self.norms[slot as usize] = 0.0;
        self.free.push(slot);
        true
    }

    /// The slot holding `id`, if present.
    #[inline]
    pub fn slot(&self, id: ItemId) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    /// The stored vector for `id`, if present.
    pub fn get(&self, id: ItemId) -> Option<&[f32]> {
        self.slot(id).map(|s| self.vector_at(s))
    }

    /// The vector stored at `slot` (garbage for free slots — pair with
    /// [`Self::id_at`]).
    #[inline]
    pub fn vector_at(&self, slot: u32) -> &[f32] {
        let start = slot as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// The L2 norm of the vector at `slot` (0.0 for free slots).
    #[inline]
    pub fn norm_at(&self, slot: u32) -> f32 {
        self.norms[slot as usize]
    }

    /// The id owning `slot`, or `None` for a free slot.
    #[inline]
    pub fn id_at(&self, slot: u32) -> Option<ItemId> {
        self.ids[slot as usize]
    }

    /// Iterate live `(id, vector)` pairs in slot order (ascending memory
    /// addresses — the streaming-friendly order).
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &[f32])> {
        self.ids.iter().enumerate().filter_map(move |(s, id)| {
            id.map(|id| (id, &self.data[s * self.dim..(s + 1) * self.dim]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_norm() {
        let mut a = VectorArena::new(2);
        assert!(a.is_empty());
        let s = a.insert(7, &[3.0, 4.0]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(7), Some(&[3.0, 4.0][..]));
        assert_eq!(a.norm_at(s), 5.0);
        assert_eq!(a.id_at(s), Some(7));
    }

    #[test]
    fn overwrite_keeps_slot() {
        let mut a = VectorArena::new(2);
        let s1 = a.insert(1, &[1.0, 0.0]);
        let s2 = a.insert(1, &[0.0, 2.0]);
        assert_eq!(s1, s2, "replacement must reuse the slot");
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(1), Some(&[0.0, 2.0][..]));
        assert_eq!(a.norm_at(s2), 2.0);
    }

    #[test]
    fn insert_with_fills_the_slot_in_place_and_forgets_the_id_on_failure() {
        let mut a = VectorArena::new(2);
        let s = a.insert_with(4, |v| {
            v.copy_from_slice(&[3.0, 4.0]);
            Ok::<(), ()>(())
        });
        assert_eq!(s, Ok(0));
        assert_eq!((a.get(4), a.norm_at(0)), (Some(&[3.0, 4.0][..]), 5.0));
        // A failed fill — of a new id or of one already stored — leaves
        // the id absent and its slot reusable.
        assert_eq!(a.insert_with(5, |_| Err("short read")), Err("short read"));
        assert_eq!(
            a.insert_with(4, |v| {
                v[0] = 9.0;
                Err("short read")
            }),
            Err("short read")
        );
        assert_eq!((a.len(), a.get(4), a.get(5)), (0, None, None));
        assert_eq!(a.insert(6, &[1.0, 0.0]), 0, "the freed slot is reused");
    }

    #[test]
    fn remove_recycles_slots_lifo() {
        let mut a = VectorArena::new(1);
        let s0 = a.insert(10, &[1.0]);
        let s1 = a.insert(11, &[2.0]);
        assert!(a.remove(10));
        assert!(!a.remove(10));
        assert_eq!(a.id_at(s0), None);
        assert_eq!(a.norm_at(s0), 0.0);
        // The freed slot is reused before the slab grows.
        let s2 = a.insert(12, &[3.0]);
        assert_eq!(s2, s0);
        assert_eq!(a.slot_count(), 2);
        assert_eq!(a.slot(11), Some(s1));
    }

    #[test]
    fn iteration_is_slot_ordered_and_skips_free() {
        let mut a = VectorArena::new(1);
        for id in [5u32, 3, 9, 1] {
            a.insert(id, &[id as f32]);
        }
        a.remove(9);
        let got: Vec<ItemId> = a.iter().map(|(id, _)| id).collect();
        // Insertion filled slots 0..4 in call order; slot 2 (id 9) is free.
        assert_eq!(got, vec![5, 3, 1]);
        // Reinsertion lands in the freed middle slot.
        a.insert(9, &[9.0]);
        let got: Vec<ItemId> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(got, vec![5, 3, 9, 1]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        VectorArena::new(3).insert(0, &[1.0]);
    }
}
