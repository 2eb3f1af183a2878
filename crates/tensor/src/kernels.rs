//! Cache-blocked matmul kernels for the tape's hot loop.
//!
//! Three kernels cover the forward product and both backward
//! accumulations of `C = A @ B`:
//!
//! * [`matmul`] — `out = A @ B` (overwrite), B packed into column
//!   panels with a register-tile accumulator; full-width panels run
//!   the AVX2 body in [`crate::simd`] when the CPU has it. A one-row
//!   `A` (every decoder step's `[1,k]` state or query) skips the
//!   packing, which only pays when several rows reuse a panel, and
//!   streams `B`'s rows through [`crate::simd::axpy`] instead.
//! * [`matmul_grad_a`] — `gA += G @ Bᵀ`. B is transposed once per call
//!   into a `[c,k]` scratch so each `g != 0` term becomes a contiguous
//!   saxpy into a per-row accumulator — the same memory shape as the
//!   forward kernel, instead of the strided dot grid it used to be.
//! * [`matmul_grad_b`] — `gB += Aᵀ @ G`, a blocked saxpy accumulation
//!   that keeps a small panel of `gB` rows hot while streaming `G`.
//!
//! **Determinism contract.** Every default kernel performs, for each
//! output element, *exactly* the same sequence of float operations as
//! its `*_naive` reference (single left-to-right accumulator over the
//! contraction index; same zero-skip conditions). Blocking, packing
//! and AVX2 lanes only reorder *independent* elements, never the
//! summands of one element, so results are bit-identical to the
//! reference — which is what keeps `tests/determinism.rs` meaningful
//! and is enforced by the `kernel_props` proptests.
//!
//! The `*_naive` references are kept `pub` on purpose: the equivalence
//! proptests and the `tensor_kernels` bench both compare against them.

use crate::simd;
use std::cell::RefCell;

/// Column-tile width of the forward kernel's register accumulator.
/// 16 f32 = four SSE / two AVX registers; edge tiles take a slower
/// variable-width path.
const NR: usize = 16;

thread_local! {
    /// Per-thread scratch for the packed B panel (`k × NR` floats).
    /// Thread-local keeps the kernel allocation-free after warm-up
    /// without threading a scratch buffer through every call site.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Reference forward product `out = A @ B` (`A [r,k]`, `B [k,c]`,
/// `out [r,c]`, all row-major). The i-k-j saxpy loop this replaces as
/// the hot kernel; per output element the accumulation is a single
/// left-to-right sum over `kk` starting from 0.
pub fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(out.len(), r * c);
    out.iter_mut().for_each(|o| *o = 0.0);
    for i in 0..r {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * c..(i + 1) * c];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * c..(kk + 1) * c];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked forward product `out = A @ B` (overwrite). Bit-identical to
/// [`matmul_naive`].
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(out.len(), r * c);
    rtp_obs::counter!("tensor.matmul.fwd").inc();
    if r == 0 || c == 0 {
        return;
    }
    if k == 0 {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    if c == 1 {
        // B is a contiguous column vector: plain dot products.
        for i in 0..r {
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(b) {
                acc += av * bv;
            }
            out[i] = acc;
        }
        return;
    }
    if r == 1 {
        // A row vector: out = Σ_kk a[kk] · B[kk], one axpy per row of B
        // in ascending kk. Per output element that is the reference's
        // sequence exactly — start at 0, then mul-then-add each term.
        out.iter_mut().for_each(|o| *o = 0.0);
        for (kk, &av) in a.iter().enumerate() {
            simd::axpy(out, &b[kk * c..(kk + 1) * c], av);
        }
        return;
    }
    PACK.with(|p| {
        let mut pack = p.borrow_mut();
        let mut jb = 0;
        while jb < c {
            let nr = NR.min(c - jb);
            // Pack the B column panel [k × nr] contiguously; reused by
            // every row of A, so the pack cost amortises over r.
            pack.clear();
            pack.reserve(k * nr);
            for kk in 0..k {
                pack.extend_from_slice(&b[kk * c + jb..kk * c + jb + nr]);
            }
            if nr == NR {
                #[cfg(target_arch = "x86_64")]
                if simd::have_avx2() {
                    // SAFETY: AVX2 just checked; pack is k×NR and the
                    // out/a bounds hold by the matmul contract.
                    unsafe { simd::fwd_panel_avx2(a, &pack, out, r, k, c, jb) };
                    jb += nr;
                    continue;
                }
                // 4×NR register tile: four rows of A share each packed-B
                // load, giving eight independent vector accumulators so
                // the FMA latency chains overlap. Each row's acc is still
                // a single left-to-right sum over kk — bit-identical to
                // the reference.
                let mut i = 0;
                while i + 4 <= r {
                    let a0 = &a[i * k..(i + 1) * k];
                    let a1 = &a[(i + 1) * k..(i + 2) * k];
                    let a2 = &a[(i + 2) * k..(i + 3) * k];
                    let a3 = &a[(i + 3) * k..(i + 4) * k];
                    let mut c0 = [0.0f32; NR];
                    let mut c1 = [0.0f32; NR];
                    let mut c2 = [0.0f32; NR];
                    let mut c3 = [0.0f32; NR];
                    for kk in 0..k {
                        let bp: &[f32; NR] =
                            pack[kk * NR..(kk + 1) * NR].try_into().expect("panel tile");
                        let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                        for j in 0..NR {
                            c0[j] += v0 * bp[j];
                            c1[j] += v1 * bp[j];
                            c2[j] += v2 * bp[j];
                            c3[j] += v3 * bp[j];
                        }
                    }
                    out[i * c + jb..i * c + jb + NR].copy_from_slice(&c0);
                    out[(i + 1) * c + jb..(i + 1) * c + jb + NR].copy_from_slice(&c1);
                    out[(i + 2) * c + jb..(i + 2) * c + jb + NR].copy_from_slice(&c2);
                    out[(i + 3) * c + jb..(i + 3) * c + jb + NR].copy_from_slice(&c3);
                    i += 4;
                }
                while i < r {
                    let arow = &a[i * k..(i + 1) * k];
                    let mut acc = [0.0f32; NR];
                    for (kk, &av) in arow.iter().enumerate() {
                        let bp: &[f32; NR] =
                            pack[kk * NR..(kk + 1) * NR].try_into().expect("panel tile");
                        for (ac, &bv) in acc.iter_mut().zip(bp) {
                            *ac += av * bv;
                        }
                    }
                    out[i * c + jb..i * c + jb + NR].copy_from_slice(&acc);
                    i += 1;
                }
            } else {
                for i in 0..r {
                    let arow = &a[i * k..(i + 1) * k];
                    let mut acc = [0.0f32; NR];
                    for (kk, &av) in arow.iter().enumerate() {
                        let bp = &pack[kk * nr..(kk + 1) * nr];
                        for (ac, &bv) in acc.iter_mut().zip(bp) {
                            *ac += av * bv;
                        }
                    }
                    out[i * c + jb..i * c + jb + nr].copy_from_slice(&acc[..nr]);
                }
            }
            jb += nr;
        }
    });
}

/// Reference backward accumulation `gA += G @ Bᵀ` (`G [r,c]`,
/// `B [k,c]`, `gA [r,k]`): per element, a zero-initialised dot over
/// `j` (skipping `g == 0` terms) added once into `gA`.
pub fn matmul_grad_a_naive(g: &[f32], b: &[f32], ga: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(ga.len(), r * k);
    for i in 0..r {
        let grow = &g[i * c..(i + 1) * c];
        let garow = &mut ga[i * k..(i + 1) * k];
        for (kk, gout) in garow.iter_mut().enumerate() {
            let brow = &b[kk * c..(kk + 1) * c];
            let mut acc = 0.0f32;
            for (&gv, &bv) in grow.iter().zip(brow) {
                if gv != 0.0 {
                    acc += gv * bv;
                }
            }
            *gout += acc;
        }
    }
}

thread_local! {
    /// Per-thread scratch for [`matmul_grad_a`]: `(Bᵀ [c,k], acc [k])`.
    static GRAD_A_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Panel-wise `gA += G @ Bᵀ`, bit-identical to
/// [`matmul_grad_a_naive`].
///
/// The old kernel walked `B` column-wise (stride `c`) inside dot
/// products, so every inner step was a strided load — ~9× slower than
/// the forward kernel. Here `B` is transposed **once per call** into a
/// `[c,k]` scratch; for each output row, a zeroed accumulator row
/// collects `acc[kk] += g[i,j] * Bᵀ[j,kk]` as contiguous saxpies
/// (vectorized across the independent `kk` outputs via
/// [`crate::simd::axpy`]) and lands in `gA` with one final add.
///
/// Per element `(i,kk)` that is *exactly* the reference sequence: a
/// zero-initialised left-to-right sum over ascending `j` with the same
/// `g != 0` skip, then a single `+=` into `gA` — only independent
/// elements were reordered, so bits match with or without AVX2.
pub fn matmul_grad_a(g: &[f32], b: &[f32], ga: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(ga.len(), r * k);
    rtp_obs::counter!("tensor.matmul.grad_a").inc();
    if r == 0 || k == 0 {
        return;
    }
    GRAD_A_SCRATCH.with(|s| {
        let (bt, acc) = &mut *s.borrow_mut();
        bt.clear();
        bt.resize(c * k, 0.0);
        for kk in 0..k {
            let brow = &b[kk * c..(kk + 1) * c];
            for (j, &bv) in brow.iter().enumerate() {
                bt[j * k + kk] = bv;
            }
        }
        for i in 0..r {
            let grow = &g[i * c..(i + 1) * c];
            let garow = &mut ga[i * k..(i + 1) * k];
            acc.clear();
            acc.resize(k, 0.0);
            for (j, &gv) in grow.iter().enumerate() {
                if gv != 0.0 {
                    simd::axpy(acc, &bt[j * k..(j + 1) * k], gv);
                }
            }
            for (gout, &av) in garow.iter_mut().zip(acc.iter()) {
                *gout += av;
            }
        }
    });
}

/// Reference backward accumulation `gB += Aᵀ @ G` (`A [r,k]`,
/// `G [r,c]`, `gB [k,c]`): streaming saxpy, per element accumulated in
/// ascending `i` (skipping `a == 0` rows).
pub fn matmul_grad_b_naive(a: &[f32], g: &[f32], gb: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(gb.len(), k * c);
    for i in 0..r {
        let grow = &g[i * c..(i + 1) * c];
        for kk in 0..k {
            let av = a[i * k + kk];
            if av != 0.0 {
                let gbrow = &mut gb[kk * c..(kk + 1) * c];
                for (gbv, &gv) in gbrow.iter_mut().zip(grow) {
                    *gbv += av * gv;
                }
            }
        }
    }
}

/// Blocked `gB += Aᵀ @ G`: processes `gB` in panels of 8 rows so the
/// panel stays cache-hot while `G` streams through once per panel.
/// Bit-identical to [`matmul_grad_b_naive`].
pub fn matmul_grad_b(a: &[f32], g: &[f32], gb: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(gb.len(), k * c);
    rtp_obs::counter!("tensor.matmul.grad_b").inc();
    const KB: usize = 8;
    let mut kk0 = 0;
    while kk0 < k {
        let kb = KB.min(k - kk0);
        let panel = &mut gb[kk0 * c..(kk0 + kb) * c];
        for i in 0..r {
            let grow = &g[i * c..(i + 1) * c];
            let arow = &a[i * k + kk0..i * k + kk0 + kb];
            for (dk, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let gbrow = &mut panel[dk * c..(dk + 1) * c];
                    for (gbv, &gv) in gbrow.iter_mut().zip(grow) {
                        *gbv += av * gv;
                    }
                }
            }
        }
        kk0 += kb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // tiny deterministic LCG; values in [-1, 1)
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_forward_matches_naive_bitwise() {
        // The last five are the decoders' row-vector products: the LSTM
        // gates over the recurrent state and the route and SortLSTM
        // inputs, and the attention query.
        for &(r, k, c) in &[
            (1, 1, 1),
            (3, 5, 7),
            (16, 16, 16),
            (17, 33, 19),
            (2, 64, 1),
            (40, 24, 48),
            (1, 48, 192),
            (1, 56, 192),
            (1, 57, 192),
            (1, 65, 192),
            (1, 59, 48),
        ] {
            let a = fill(r * k, 1 + r as u32);
            let b = fill(k * c, 2 + c as u32);
            let mut out1 = vec![f32::NAN; r * c];
            let mut out2 = vec![f32::NAN; r * c];
            matmul_naive(&a, &b, &mut out1, r, k, c);
            matmul(&a, &b, &mut out2, r, k, c);
            assert_eq!(bits(&out1), bits(&out2), "forward mismatch at ({r},{k},{c})");
        }
    }

    #[test]
    fn blocked_backward_kernels_match_naive_bitwise() {
        for &(r, k, c) in &[(1, 1, 1), (3, 5, 7), (17, 33, 19), (8, 4, 32)] {
            let a = fill(r * k, 3);
            let b = fill(k * c, 4);
            let g = fill(r * c, 5);
            let mut ga1 = fill(r * k, 6);
            let mut ga2 = ga1.clone();
            matmul_grad_a_naive(&g, &b, &mut ga1, r, k, c);
            matmul_grad_a(&g, &b, &mut ga2, r, k, c);
            assert_eq!(bits(&ga1), bits(&ga2), "grad_a mismatch at ({r},{k},{c})");
            let mut gb1 = fill(k * c, 7);
            let mut gb2 = gb1.clone();
            matmul_grad_b_naive(&a, &g, &mut gb1, r, k, c);
            matmul_grad_b(&a, &g, &mut gb2, r, k, c);
            assert_eq!(bits(&gb1), bits(&gb2), "grad_b mismatch at ({r},{k},{c})");
        }
    }
}
