//! Runtime-dispatched AVX2 kernels for the bit-exact numerics tier
//! (see DESIGN.md "Numerics policy"): [`axpy`] and [`fwd_panel_avx2`].
//!
//! Every output element sees *exactly* the scalar reference's
//! left-to-right f32 op sequence; AVX2 lanes only spread *independent*
//! output elements across a register. Crucially these use separate
//! `_mm256_mul_ps` + `_mm256_add_ps` — never `_mm256_fmadd_ps`, which
//! skips the intermediate rounding and changes bits. These back the
//! kernels in [`crate::kernels`], so thread-count determinism and
//! twin-server byte comparisons hold by construction.
//!
//! Dispatch is per-call via [`have_avx2`] (cached CPUID behind
//! `is_x86_feature_detected!`); every entry point has a scalar
//! fallback with identical bits, so non-x86 builds and pre-AVX2 boxes
//! run the same code paths the proptests verify.

// -------------------------------------------------------------------
// Feature detection
// -------------------------------------------------------------------

/// Whether the running CPU has AVX2 (cached by the std detection
/// macro; false on non-x86_64 targets).
#[inline]
pub fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel dispatch, for bench
/// metadata and `--version`-style diagnostics.
pub fn detected_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            f.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
    }
    f
}

// -------------------------------------------------------------------
// Bit-exact kernels
// -------------------------------------------------------------------

/// `dst[i] += s * x[i]` over `min(dst.len(), x.len())` elements.
///
/// Per element this is one f32 multiply then one f32 add — exactly the
/// scalar sequence — so it is bit-identical to the plain loop whether
/// the AVX2 path runs or not. The destination elements are independent
/// outputs, which is what makes vectorizing them legal under the
/// determinism contract.
#[inline]
pub fn axpy(dst: &mut [f32], x: &[f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 presence just checked; the kernel handles any
        // slice lengths itself.
        unsafe { axpy_avx2(dst, x, s) };
        return;
    }
    for (d, &xv) in dst.iter_mut().zip(x) {
        *d += s * xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(dst: &mut [f32], x: &[f32], s: f32) {
    use std::arch::x86_64::*;
    let n = dst.len().min(x.len());
    let d = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    // Two independent 8-lane streams per iteration so the add latency
    // chains overlap. mul+add, NOT fmadd: bit-exact tier.
    while i + 16 <= n {
        let d0 = _mm256_loadu_ps(d.add(i));
        let d1 = _mm256_loadu_ps(d.add(i + 8));
        let x0 = _mm256_loadu_ps(xp.add(i));
        let x1 = _mm256_loadu_ps(xp.add(i + 8));
        _mm256_storeu_ps(d.add(i), _mm256_add_ps(d0, _mm256_mul_ps(vs, x0)));
        _mm256_storeu_ps(d.add(i + 8), _mm256_add_ps(d1, _mm256_mul_ps(vs, x1)));
        i += 16;
    }
    while i + 8 <= n {
        let d0 = _mm256_loadu_ps(d.add(i));
        let x0 = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(d.add(i), _mm256_add_ps(d0, _mm256_mul_ps(vs, x0)));
        i += 8;
    }
    while i < n {
        *d.add(i) += s * *xp.add(i);
        i += 1;
    }
}

/// Bit-exact AVX2 body for one packed B column panel of the forward
/// matmul: `out[i][jb..jb+16] = Σ_kk a[i][kk] * pack[kk][0..16]`, the
/// same 4-row register tile as the scalar blocked kernel with each
/// accumulator update done as mul-then-add.
///
/// # Safety
/// Caller must ensure AVX2 is available, `pack.len() == k * 16`,
/// `a.len() >= r * k`, `out.len() >= (r-1) * c + jb + 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn fwd_panel_avx2(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    r: usize,
    k: usize,
    c: usize,
    jb: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(pack.len() >= k * 16);
    let ap = a.as_ptr();
    let pp = pack.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= r {
        let (mut c0l, mut c0h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c1l, mut c1h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c2l, mut c2h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c3l, mut c3h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * 16));
            let bh = _mm256_loadu_ps(pp.add(kk * 16 + 8));
            let v0 = _mm256_set1_ps(*ap.add(i * k + kk));
            let v1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
            let v2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
            let v3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
            c0l = _mm256_add_ps(c0l, _mm256_mul_ps(v0, bl));
            c0h = _mm256_add_ps(c0h, _mm256_mul_ps(v0, bh));
            c1l = _mm256_add_ps(c1l, _mm256_mul_ps(v1, bl));
            c1h = _mm256_add_ps(c1h, _mm256_mul_ps(v1, bh));
            c2l = _mm256_add_ps(c2l, _mm256_mul_ps(v2, bl));
            c2h = _mm256_add_ps(c2h, _mm256_mul_ps(v2, bh));
            c3l = _mm256_add_ps(c3l, _mm256_mul_ps(v3, bl));
            c3h = _mm256_add_ps(c3h, _mm256_mul_ps(v3, bh));
        }
        _mm256_storeu_ps(op.add(i * c + jb), c0l);
        _mm256_storeu_ps(op.add(i * c + jb + 8), c0h);
        _mm256_storeu_ps(op.add((i + 1) * c + jb), c1l);
        _mm256_storeu_ps(op.add((i + 1) * c + jb + 8), c1h);
        _mm256_storeu_ps(op.add((i + 2) * c + jb), c2l);
        _mm256_storeu_ps(op.add((i + 2) * c + jb + 8), c2h);
        _mm256_storeu_ps(op.add((i + 3) * c + jb), c3l);
        _mm256_storeu_ps(op.add((i + 3) * c + jb + 8), c3h);
        i += 4;
    }
    while i < r {
        let (mut cl, mut ch) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * 16));
            let bh = _mm256_loadu_ps(pp.add(kk * 16 + 8));
            let v = _mm256_set1_ps(*ap.add(i * k + kk));
            cl = _mm256_add_ps(cl, _mm256_mul_ps(v, bl));
            ch = _mm256_add_ps(ch, _mm256_mul_ps(v, bh));
        }
        _mm256_storeu_ps(op.add(i * c + jb), cl);
        _mm256_storeu_ps(op.add(i * c + jb + 8), ch);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            let x = fill(n, 3 + n as u32);
            let mut d1 = fill(n, 5 + n as u32);
            let mut d2 = d1.clone();
            let s = 0.37f32;
            axpy(&mut d1, &x, s);
            for (d, &xv) in d2.iter_mut().zip(&x) {
                *d += s * xv;
            }
            let b1: Vec<u32> = d1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u32> = d2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b1, b2, "axpy bits diverge at n={n}");
        }
    }
}
