//! Parity and invariants for the vectorized kernel layer (ISSUE 5).
//!
//! The kernels reassociate float additions, so exact bit-equality with the
//! old scalar loops is not the contract. The contract pinned here is:
//!
//! * kernel `dot`/`gemv` agree with the strict scalar references within a
//!   small relative tolerance, for arbitrary (odd) lengths including the
//!   remainder lanes;
//! * element-wise kernels (`axpy`) are bit-exact, and `dot4` is bit-equal
//!   to four `dot`s — the re-rank scores a row through either;
//! * SimHash signing is self-consistent (insert-side and query-side use
//!   the same kernel) and agrees with the scalar reference away from the
//!   sign boundary;
//! * `VectorArena` slot management behaves (insert/remove/reuse/iteration);
//! * the arena-streaming re-rank ranks like a plain reference scorer.
//!
//! (Snapshot round trips — including through arena slot churn — are pinned
//! where the frame lives, in `wg_lsh::index`'s tests.)

use proptest::prelude::*;
use warpgate::lsh::{SimHashLshIndex, SimHasher, VectorArena};
use warpgate::util::kernel::{self, reference};
use warpgate::util::rng::{Rng64, Xoshiro256pp};
use warpgate::util::TopK;

// ---------------------------------------------------------------------------
// Kernel vs. scalar reference
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel dot tracks the strict scalar dot over odd lengths, which
    /// exercises both the 8-lane body and the remainder tail.
    #[test]
    fn dot_parity(values in prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 0..70)) {
        let a: Vec<f32> = values.iter().map(|(x, _)| *x).collect();
        let b: Vec<f32> = values.iter().map(|(_, y)| *y).collect();
        let got = kernel::dot(&a, &b);
        let want = reference::dot(&a, &b);
        let tol = 1e-3 * (1.0 + want.abs());
        prop_assert!((got - want).abs() <= tol, "{got} vs {want} over {} lanes", a.len());
    }

    /// Blocked GEMV tracks the per-column strict reference for arbitrary
    /// shapes, including row counts that leave 1–3 remainder rows.
    #[test]
    fn gemv_parity(
        x in prop::collection::vec(-4.0f32..4.0, 1..14),
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::new(seed);
        let m: Vec<f32> = (0..x.len() * cols).map(|_| rng.gen_gaussian() as f32).collect();
        let mut got = vec![0.0f32; cols];
        let mut want = vec![0.0f32; cols];
        kernel::gemv(&x, &m, cols, &mut got);
        reference::gemv(&x, &m, cols, &mut want);
        for (g, w) in got.iter().zip(&want) {
            let tol = 1e-3 * (1.0 + w.abs());
            prop_assert!((g - w).abs() <= tol, "{g} vs {w} ({}x{cols})", x.len());
        }
    }

    /// axpy is element-wise: bit-exact against the scalar loop.
    #[test]
    fn axpy_exact(
        pairs in prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 0..70),
        alpha in -4.0f32..4.0,
    ) {
        let x: Vec<f32> = pairs.iter().map(|(v, _)| *v).collect();
        let mut y: Vec<f32> = pairs.iter().map(|(_, v)| *v).collect();
        let mut y_ref = y.clone();
        kernel::axpy(&mut y, alpha, &x);
        reference::axpy(&mut y_ref, alpha, &x);
        prop_assert_eq!(y, y_ref);
    }

    /// Signing is deterministic and self-consistent with the scalar
    /// reference away from the sign boundary: projections agree within
    /// tolerance, and every bit whose reference projection clears the
    /// tolerance matches exactly.
    #[test]
    fn sign_parity(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::new(seed);
        let dim = 48;
        let hasher = SimHasher::new(dim, 128, seed ^ 0xC0FFEE);
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
        prop_assert!(hasher.sign(&v) == hasher.sign(&v), "signing must be deterministic");
        let fast = hasher.project(&v);
        let slow = hasher.project_scalar(&v);
        let sig = hasher.sign(&v);
        let sig_ref = hasher.sign_scalar(&v);
        for (b, (f, s)) in fast.iter().zip(&slow).enumerate() {
            let tol = 1e-3 * (1.0 + s.abs());
            prop_assert!((f - s).abs() <= tol, "bit {b}: {f} vs {s}");
            if s.abs() > tol {
                prop_assert!(sig.bit(b) == sig_ref.bit(b), "stable bit {b} flipped");
            }
        }
    }
}

/// The exact re-rank scores hot rows four per `dot4` pass, the remainder
/// and every cold row through `dot`: a row's score must not depend on which.
#[test]
fn dot4_is_bit_equal_to_four_dots() {
    let mut rng = Xoshiro256pp::new(17);
    for len in [0usize, 1, 7, 8, 9, 127, 128, 129] {
        for _ in 0..20 {
            let mut vector = || (0..len).map(|_| rng.gen_gaussian() as f32).collect::<Vec<f32>>();
            let (a, rows) = (vector(), [vector(), vector(), vector(), vector()]);
            let got = kernel::dot4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
            for (lane, row) in rows.iter().enumerate() {
                let want = kernel::dot(&a, row);
                assert_eq!(got[lane].to_bits(), want.to_bits(), "len {len} lane {lane}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// VectorArena
// ---------------------------------------------------------------------------

#[test]
fn arena_insert_remove_reuse_and_iteration_order() {
    let mut arena = VectorArena::new(4);
    let mut rng = Xoshiro256pp::new(5);
    let vecs: Vec<Vec<f32>> =
        (0..6).map(|_| (0..4).map(|_| rng.gen_gaussian() as f32).collect()).collect();
    for (id, v) in vecs.iter().enumerate() {
        assert_eq!(arena.insert(id as u32, v), id as u32, "fresh ids fill slots in order");
    }
    assert_eq!(arena.len(), 6);

    // Removal frees the slot without disturbing neighbours.
    assert!(arena.remove(2));
    assert!(arena.remove(4));
    assert!(!arena.remove(2));
    assert_eq!(arena.len(), 4);
    assert_eq!(arena.get(3), Some(&vecs[3][..]));
    let live: Vec<u32> = arena.iter().map(|(id, _)| id).collect();
    assert_eq!(live, vec![0, 1, 3, 5], "iteration is slot-ordered, skipping free slots");

    // Free slots recycle LIFO; the slab does not grow.
    assert_eq!(arena.insert(7, &vecs[0]), 4);
    assert_eq!(arena.insert(8, &vecs[1]), 2);
    assert_eq!(arena.insert(9, &vecs[2]), 6, "exhausted free list appends");
    assert_eq!(arena.slot_count(), 7);

    // In-place replacement keeps the slot and refreshes norm + data.
    let before = arena.slot(7).unwrap();
    arena.insert(7, &vecs[5]);
    assert_eq!(arena.slot(7), Some(before));
    assert_eq!(arena.get(7), Some(&vecs[5][..]));
    let expected_norm = vecs[5].iter().map(|x| x * x).sum::<f32>().sqrt();
    assert!((arena.norm_at(before) - expected_norm).abs() < 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arena contents always match a straightforward model map, whatever
    /// the interleaving of inserts, replacements and removals.
    #[test]
    fn arena_matches_model_map(ops in prop::collection::vec((0u32..12, any::<bool>()), 1..60)) {
        let mut arena = VectorArena::new(2);
        let mut model = std::collections::BTreeMap::new();
        for (step, (id, is_insert)) in ops.into_iter().enumerate() {
            if is_insert {
                let v = [step as f32, id as f32];
                arena.insert(id, &v);
                model.insert(id, v.to_vec());
            } else {
                prop_assert_eq!(arena.remove(id), model.remove(&id).is_some());
            }
        }
        prop_assert_eq!(arena.len(), model.len());
        for (id, v) in &model {
            prop_assert_eq!(arena.get(*id), Some(&v[..]));
        }
        let mut live: Vec<u32> = arena.iter().map(|(id, _)| id).collect();
        live.sort_unstable();
        let want: Vec<u32> = model.keys().copied().collect();
        prop_assert_eq!(live, want);
    }
}

fn random_unit(dim: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    for x in &mut v {
        *x /= n;
    }
    v
}

// ---------------------------------------------------------------------------
// Re-rank equivalence: arena streaming vs. a straightforward scorer
// ---------------------------------------------------------------------------

#[test]
fn arena_rerank_matches_bruteforce_scoring() {
    let dim = 48;
    let mut rng = Xoshiro256pp::new(13);
    let mut index = SimHashLshIndex::for_threshold(dim, 0.6, 3);
    let base = random_unit(dim, &mut rng);
    let mut stored: Vec<(u32, Vec<f32>)> = Vec::new();
    for id in 0..300u32 {
        let mut v: Vec<f32> = base.iter().map(|x| x + 0.4 * rng.gen_gaussian() as f32).collect();
        let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        index.insert(id, &v);
        stored.push((id, v));
    }
    for _ in 0..10 {
        let q = random_unit(dim, &mut rng);
        let candidates = index.candidates(&q);
        assert!(candidates.windows(2).all(|w| w[0] < w[1]), "candidates sorted + deduped");
        // Score the same candidate set with the plain reference cosine.
        let mut topk = TopK::new(5);
        for &id in &candidates {
            let v = &stored[id as usize].1;
            topk.push(reference::cosine(&q, v) as f64, id);
        }
        let want: Vec<u32> = topk.into_sorted().into_iter().map(|(_, id)| id).collect();
        let got: Vec<u32> = index.search(&q, 5, |_| false).into_iter().map(|(id, _)| id).collect();
        assert_eq!(got, want, "arena streaming re-rank must rank like the reference");
    }
}
