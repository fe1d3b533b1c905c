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
//! * the index's re-rank ranks like a plain reference scorer.
//!
//! (Row-table bookkeeping — insert, replace, remove and row reuse — and
//! snapshot round trips through that churn are pinned where the table
//! lives, in `wg_lsh::index`'s tests.)
//!
//! The property tests run a fixed number of cases. Case `i` of test `name`
//! draws every input from
//! `Xoshiro256pp::new(combine64(stable_hash_str(name), i))`. A failing
//! case prints that seed; `Xoshiro256pp::new(seed)` alone reproduces its
//! inputs, whatever ran before it.

use warpgate::lsh::{SimHashLshIndex, SimHasher};
use warpgate::util::hash::{combine64, stable_hash_str};
use warpgate::util::kernel::{self, reference};
use warpgate::util::rng::{Rng64, Xoshiro256pp};
use warpgate::util::TopK;

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `cases` seeded cases of `property`, naming the seed of the first
/// one that fails.
fn check(name: &str, cases: u64, property: impl Fn(&mut Xoshiro256pp)) {
    for case in 0..cases {
        let seed = combine64(stable_hash_str(name), case);
        if let Err(panic) =
            catch_unwind(AssertUnwindSafe(|| property(&mut Xoshiro256pp::new(seed))))
        {
            eprintln!("{name}: case {case} of {cases} failed; replay with seed {seed:#018x}");
            resume_unwind(panic);
        }
    }
}

/// A vec whose length is uniform in the half-open `len`, each element
/// from `item`.
fn vec_of<T>(
    rng: &mut Xoshiro256pp,
    len: Range<usize>,
    mut item: impl FnMut(&mut Xoshiro256pp) -> T,
) -> Vec<T> {
    (0..len.start + rng.gen_index(len.end - len.start)).map(|_| item(rng)).collect()
}

/// Uniform in the half-open `range`.
fn f32_in(rng: &mut Xoshiro256pp, range: Range<f32>) -> f32 {
    range.start + rng.gen_f64() as f32 * (range.end - range.start)
}

// ---------------------------------------------------------------------------
// Kernel vs. scalar reference
// ---------------------------------------------------------------------------

/// Kernel dot tracks the strict scalar dot over odd lengths, which
/// exercises both the 8-lane body and the remainder tail.
#[test]
fn dot_parity() {
    check("dot_parity", 64, |rng| {
        let values = vec_of(rng, 0..70, |rng| (f32_in(rng, -8.0..8.0), f32_in(rng, -8.0..8.0)));
        let a: Vec<f32> = values.iter().map(|(x, _)| *x).collect();
        let b: Vec<f32> = values.iter().map(|(_, y)| *y).collect();
        let got = kernel::dot(&a, &b);
        let want = reference::dot(&a, &b);
        let tol = 1e-3 * (1.0 + want.abs());
        assert!((got - want).abs() <= tol, "{got} vs {want} over {} lanes", a.len());
    });
}

/// Blocked GEMV tracks the per-column strict reference for arbitrary
/// shapes, including row counts that leave 1–3 remainder rows.
#[test]
fn gemv_parity() {
    check("gemv_parity", 64, |rng| {
        let x = vec_of(rng, 1..14, |rng| f32_in(rng, -4.0..4.0));
        let cols = 1 + rng.gen_index(19);
        let m: Vec<f32> = (0..x.len() * cols).map(|_| rng.gen_gaussian() as f32).collect();
        let mut got = vec![0.0f32; cols];
        let mut want = vec![0.0f32; cols];
        kernel::gemv(&x, &m, cols, &mut got);
        reference::gemv(&x, &m, cols, &mut want);
        for (g, w) in got.iter().zip(&want) {
            let tol = 1e-3 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "{g} vs {w} ({}x{cols})", x.len());
        }
    });
}

/// axpy is element-wise: bit-exact against the scalar loop.
#[test]
fn axpy_exact() {
    check("axpy_exact", 64, |rng| {
        let pairs = vec_of(rng, 0..70, |rng| (f32_in(rng, -8.0..8.0), f32_in(rng, -8.0..8.0)));
        let alpha = f32_in(rng, -4.0..4.0);
        let x: Vec<f32> = pairs.iter().map(|(v, _)| *v).collect();
        let mut y: Vec<f32> = pairs.iter().map(|(_, v)| *v).collect();
        let mut y_ref = y.clone();
        kernel::axpy(&mut y, alpha, &x);
        reference::axpy(&mut y_ref, alpha, &x);
        assert_eq!(y, y_ref);
    });
}

/// Signing is deterministic and self-consistent with the scalar
/// reference away from the sign boundary: projections agree within
/// tolerance, and every bit whose reference projection clears the
/// tolerance matches exactly.
#[test]
fn sign_parity() {
    check("sign_parity", 64, |rng| {
        let dim = 48;
        let hasher = SimHasher::new(dim, 128, rng.gen_u64() ^ 0xC0FFEE);
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
        assert!(hasher.sign(&v) == hasher.sign(&v), "signing must be deterministic");
        let fast = hasher.project(&v);
        let slow = hasher.project_scalar(&v);
        let sig = hasher.sign(&v);
        let sig_ref = hasher.sign_scalar(&v);
        for (b, (f, s)) in fast.iter().zip(&slow).enumerate() {
            let tol = 1e-3 * (1.0 + s.abs());
            assert!((f - s).abs() <= tol, "bit {b}: {f} vs {s}");
            if s.abs() > tol {
                assert!(sig.bit(b) == sig_ref.bit(b), "stable bit {b} flipped");
            }
        }
    });
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

fn random_unit(dim: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    for x in &mut v {
        *x /= n;
    }
    v
}

// ---------------------------------------------------------------------------
// Re-rank equivalence: the index's resident pages vs. a straightforward scorer
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
        assert_eq!(got, want, "the re-rank must rank like the reference");
    }
}
