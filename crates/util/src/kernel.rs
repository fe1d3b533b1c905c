//! Vectorized numeric kernels for the embed → sign → re-rank hot path.
//!
//! Every dense `f32` loop in WarpGate funnels through these kernels:
//! [`dot`] (and its four-row form [`dot4`]), [`norm_sq`], [`axpy`] and
//! [`gemv`]. They operate on contiguous row-major slices and are written so
//! LLVM's auto-vectorizer turns them into packed SIMD: reductions expose
//! eight independent accumulators (breaking the serial float-add dependency
//! chain the naive loop has), and [`gemv`] blocks four rows of the matrix
//! per pass over the output so each output element is loaded once per four
//! multiply-adds.
//!
//! **Parity contract.** Reassociating float additions changes low-order
//! bits, so the kernels do *not* promise bit-equality with the strict
//! left-to-right loops in [`reference`](mod@reference). What they promise — and what
//! `tests/kernel_parity.rs` pins over seeded `wg_util::rng` cases — is
//! (a) results within a small relative tolerance of the reference, (b)
//! determinism: the same inputs produce the same outputs on every call,
//! so SimHash signatures computed at insert and at query time are
//! self-consistent, and (c)
//! exactness for element-wise kernels ([`axpy`], [`scale`]), which have no
//! reassociation at all. [`dot4`] promises more: each of its four results
//! is **bit-equal** to [`dot`] over that row, because the exact re-rank
//! scores a row through whichever of the two its batch position picks.
//!
//! [`scratch`] provides a thread-local buffer pool so steady-state callers
//! (signing, the MiniBert forward pass) allocate nothing after warmup.

/// Dot product over equal-length slices, eight accumulator lanes.
///
/// Panics in debug builds on length mismatch; in release the shorter
/// length wins (callers in this workspace always pass equal lengths).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    let mut acc = [0.0f32; 8];
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for i in 0..8 {
            acc[i] += ca[i] * cb[i];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        sum += x * y;
    }
    sum
}

/// [`dot`] of `a` against four rows in one pass: `[dot(a, r0), …, dot(a, r3)]`,
/// bit for bit. Every row keeps its own eight accumulators, fed and reduced
/// in exactly [`dot`]'s order, so batching changes no result. What it
/// changes: the four rows' cache misses are in flight together instead of
/// one after another, and the eight add chains (two SIMD registers a row)
/// hide the add latency that bounds a lone [`dot`].
#[inline]
pub fn dot4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    debug_assert!(rows.iter().all(|r| r.len() == a.len()));
    let mut chunks_a = a.chunks_exact(8);
    let [mut c0, mut c1, mut c2, mut c3] = rows.map(|r| r.chunks_exact(8));
    let mut acc = [[0.0f32; 8]; 4];
    for ((((ca, b0), b1), b2), b3) in
        (&mut chunks_a).zip(&mut c0).zip(&mut c1).zip(&mut c2).zip(&mut c3)
    {
        for i in 0..8 {
            acc[0][i] += ca[i] * b0[i];
            acc[1][i] += ca[i] * b1[i];
            acc[2][i] += ca[i] * b2[i];
            acc[3][i] += ca[i] * b3[i];
        }
    }
    // The identity, as far as results go. It makes the accumulators leave
    // the loop as four 8-float arrays, which is what keeps each row's lanes
    // side by side in two registers; without it LLVM vectorizes *across*
    // the four reductions below and pays ~24 shuffles per step to transpose
    // the rows into that shape (38 ns a row in cache against 19).
    let acc = std::hint::black_box(acc);
    let mut sums = acc.map(|lanes| lanes.iter().sum::<f32>());
    for (sum, tail) in sums.iter_mut().zip([c0, c1, c2, c3]) {
        for (x, y) in chunks_a.remainder().iter().zip(tail.remainder()) {
            *sum += x * y;
        }
    }
    sums
}

/// Sum of squares (`dot(a, a)`), eight accumulator lanes.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// `y[i] += alpha * x[i]` — element-wise, so exactly equal to the scalar
/// loop (no reassociation).
#[inline]
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(y.len(), x.len());
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// `y[i] *= s` — element-wise.
#[inline]
pub fn scale(y: &mut [f32], s: f32) {
    for v in y.iter_mut() {
        *v *= s;
    }
}

/// Row-vector × matrix: `out = x · M` for a row-major `M` with `x.len()`
/// rows and `out.len()` columns (`m.len() == x.len() * out.len()`).
///
/// This is the one-pass signing kernel: with the SimHash hyperplanes
/// stored as a contiguous `dim × bits` matrix, a single call computes all
/// `bits` projections while streaming the query and the matrix exactly
/// once. Rows are blocked four at a time so each `out` element serves
/// four fused multiply-adds per load.
pub fn gemv(x: &[f32], m: &[f32], cols: usize, out: &mut [f32]) {
    let rows = x.len();
    assert_eq!(m.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(out.len(), cols, "output length mismatch");
    if cols == 0 {
        return;
    }
    out.fill(0.0);
    let mut blocks = x.chunks_exact(4);
    let mut mrows = m.chunks_exact(4 * cols);
    for (xb, mb) in (&mut blocks).zip(&mut mrows) {
        let (x0, x1, x2, x3) = (xb[0], xb[1], xb[2], xb[3]);
        let (r0, rest) = mb.split_at(cols);
        let (r1, rest) = rest.split_at(cols);
        let (r2, r3) = rest.split_at(cols);
        for (j, o) in out.iter_mut().enumerate() {
            *o += x0 * r0[j] + x1 * r1[j] + x2 * r2[j] + x3 * r3[j];
        }
    }
    for (r, &xv) in blocks.remainder().iter().enumerate() {
        let row = &mrows.remainder()[r * cols..(r + 1) * cols];
        axpy(out, xv, row);
    }
}

/// Strict scalar reference implementations: the exact summation orders the
/// pre-kernel code used. Property tests compare the kernels against these.
pub mod reference {
    /// Left-to-right scalar dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut sum = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            sum += x * y;
        }
        sum
    }

    /// Per-column strict GEMV: `out[j] = Σ_r x[r] · m[r·cols + j]`, each
    /// output accumulated independently in ascending-`r` order (the
    /// summation order of the old one-plane-at-a-time signing loop).
    pub fn gemv(x: &[f32], m: &[f32], cols: usize, out: &mut [f32]) {
        assert_eq!(m.len(), x.len() * cols);
        assert_eq!(out.len(), cols);
        for (j, o) in out.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for (r, &xv) in x.iter().enumerate() {
                sum += xv * m[r * cols + j];
            }
            *o = sum;
        }
    }

    /// Scalar `y += alpha·x`.
    pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        for (o, &v) in y.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    /// The pre-arena exact-cosine scorer: one fused strict pass computing
    /// dot and both norms, `(na·nb).sqrt()` denominator.
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        let denom = (na * nb).sqrt();
        if denom <= f32::MIN_POSITIVE {
            0.0
        } else {
            (dot / denom).clamp(-1.0, 1.0)
        }
    }
}

/// Thread-local buffer pool for the hot paths.
///
/// `take_f32` hands out a zero-filled buffer of the requested length;
/// `put_f32` returns it for reuse. Buffers keep their capacity across the
/// pool, so a steady-state caller that takes and puts the same shapes
/// performs no heap allocation after its first call on each thread.
/// Forgetting to `put_f32` (or unwinding past it) merely leaks the buffer
/// back to the allocator — correctness never depends on the pool.
pub mod scratch {
    use std::cell::RefCell;

    thread_local! {
        static F32_POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    }

    /// A zero-filled `f32` buffer of length `len` from this thread's pool.
    pub fn take_f32(len: usize) -> Vec<f32> {
        let mut buf = F32_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Return an `f32` buffer to this thread's pool.
    pub fn put_f32(buf: Vec<f32>) {
        F32_POOL.with(|p| p.borrow_mut().push(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, Xoshiro256pp};

    fn randvec(n: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
        (0..n).map(|_| rng.gen_gaussian() as f32).collect()
    }

    #[test]
    fn dot_matches_reference_within_tolerance() {
        let mut rng = Xoshiro256pp::new(1);
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129] {
            let a = randvec(n, &mut rng);
            let b = randvec(n, &mut rng);
            let got = dot(&a, &b);
            let want = reference::dot(&a, &b);
            let tol = 1e-4 * (1.0 + want.abs());
            assert!((got - want).abs() <= tol, "n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_exact_on_small_integers() {
        let a: Vec<f32> = (1..=11).map(|i| i as f32).collect();
        let b = vec![1.0f32; 11];
        assert_eq!(dot(&a, &b), 66.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_and_scale_are_exact() {
        let mut rng = Xoshiro256pp::new(2);
        let x = randvec(37, &mut rng);
        let mut y = randvec(37, &mut rng);
        let mut y_ref = y.clone();
        axpy(&mut y, 0.75, &x);
        reference::axpy(&mut y_ref, 0.75, &x);
        assert_eq!(y, y_ref, "element-wise kernels must be bit-exact");
        scale(&mut y, 2.0);
        for (a, b) in y.iter().zip(&y_ref) {
            assert_eq!(*a, b * 2.0);
        }
    }

    #[test]
    fn gemv_matches_reference_odd_shapes() {
        let mut rng = Xoshiro256pp::new(3);
        for (rows, cols) in [(1, 1), (3, 5), (4, 8), (5, 7), (8, 128), (13, 33), (128, 128)] {
            let x = randvec(rows, &mut rng);
            let m = randvec(rows * cols, &mut rng);
            let mut got = vec![0.0f32; cols];
            let mut want = vec![0.0f32; cols];
            gemv(&x, &m, cols, &mut got);
            reference::gemv(&x, &m, cols, &mut want);
            for (g, w) in got.iter().zip(&want) {
                let tol = 1e-4 * (1.0 + w.abs());
                assert!((g - w).abs() <= tol, "{rows}x{cols}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn gemv_zero_rows_zeroes_output() {
        let mut out = vec![7.0f32; 4];
        gemv(&[], &[], 4, &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn gemv_zero_cols_is_a_noop() {
        let mut out: Vec<f32> = vec![];
        gemv(&[1.0, 2.0, 3.0, 4.0, 5.0], &[], 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn gemv_rejects_bad_shapes() {
        let mut out = vec![0.0f32; 2];
        gemv(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    fn scratch_reuses_capacity() {
        let a = scratch::take_f32(64);
        assert!(a.iter().all(|&v| v == 0.0));
        let ptr = a.as_ptr();
        scratch::put_f32(a);
        let b = scratch::take_f32(32);
        assert_eq!(b.as_ptr(), ptr, "pool must hand the same buffer back");
        assert_eq!(b.len(), 32);
        scratch::put_f32(b);
    }

    #[test]
    fn reference_cosine_bounds() {
        assert_eq!(reference::cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(reference::cosine(&[1.0, 0.0], &[2.0, 0.0]), 1.0);
        assert_eq!(reference::cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
