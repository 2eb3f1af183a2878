//! Property-based equivalence checks for the blocked matmul kernels
//! and the tape's clear-and-reuse contract.
//!
//! The blocked/packed kernels in [`rtp_tensor::kernels`] are specified
//! to perform **exactly** the same sequence of floating-point
//! operations per output element as their `*_naive` references —
//! blocking, panel packing and AVX2 lanes only reorder independent
//! elements. That makes the equivalence testable as exact bit
//! equality, not a tolerance check, and it is what keeps training
//! bit-identical across thread counts after the kernel swap.

use proptest::prelude::*;
use rtp_tensor::{kernels, ParamStore, Tape};

/// Random matrix of the given size with values spanning several orders
/// of magnitude (including exact zeros, which the backward kernels
/// skip — the skip must match between naive and blocked paths).
fn mat(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((-4.0f32..4.0, 0u32..6), len).prop_map(|v| {
        v.into_iter()
            .map(|(x, kind)| match kind {
                0 => 0.0,      // exact zero: exercises the backward skip
                1 => x * 1e-4, // tiny magnitude
                _ => x,
            })
            .collect()
    })
}

/// Shapes crossing the NR=16 column-tile boundary and the KB=8 row
/// panel, plus degenerate 1-sized edges.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=20, 1usize..=20, prop_oneof![1usize..=40, 15usize..=17])
}

/// Shapes crossing the 8-, 16- and 32-float vector-lane boundaries in
/// both the reduction (k) and output-column (c) dimensions, where the
/// AVX2 main loops hand over to their remainder paths.
fn dims_wide() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        1usize..=6,
        prop_oneof![1usize..=10, 7usize..=9, 15usize..=17, 31usize..=34, 62usize..=66],
        prop_oneof![1usize..=10, 15usize..=17, 31usize..=34, 62usize..=66],
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_forward_is_bitwise_equal_to_naive((r, k, c) in dims(), av in mat(400), bv in mat(800)) {
        let avec: Vec<f32> = av.iter().cycle().take(r * k).copied().collect();
        let bvec: Vec<f32> = bv.iter().cycle().take(k * c).copied().collect();
        let mut naive = vec![f32::NAN; r * c];
        let mut blocked = vec![f32::NAN; r * c];
        kernels::matmul_naive(&avec, &bvec, &mut naive, r, k, c);
        kernels::matmul(&avec, &bvec, &mut blocked, r, k, c);
        prop_assert_eq!(bits(&naive), bits(&blocked));
    }

    #[test]
    fn blocked_grad_a_is_bitwise_equal_to_naive(
        (r, k, c) in dims(),
        gv in mat(400),
        bv in mat(800),
        acc in mat(400),
    ) {
        // Pre-existing accumulator content must be preserved identically.
        let gvec: Vec<f32> = gv.iter().cycle().take(r * c).copied().collect();
        let bvec: Vec<f32> = bv.iter().cycle().take(k * c).copied().collect();
        let mut ga_naive: Vec<f32> = acc.iter().cycle().take(r * k).copied().collect();
        let mut ga_blocked = ga_naive.clone();
        kernels::matmul_grad_a_naive(&gvec, &bvec, &mut ga_naive, r, k, c);
        kernels::matmul_grad_a(&gvec, &bvec, &mut ga_blocked, r, k, c);
        prop_assert_eq!(bits(&ga_naive), bits(&ga_blocked));
    }

    #[test]
    fn blocked_grad_b_is_bitwise_equal_to_naive(
        (r, k, c) in dims(),
        av in mat(400),
        gv in mat(800),
        acc in mat(400),
    ) {
        let avec: Vec<f32> = av.iter().cycle().take(r * k).copied().collect();
        let gvec: Vec<f32> = gv.iter().cycle().take(r * c).copied().collect();
        let mut gb_naive: Vec<f32> = acc.iter().cycle().take(k * c).copied().collect();
        let mut gb_blocked = gb_naive.clone();
        kernels::matmul_grad_b_naive(&avec, &gvec, &mut gb_naive, r, k, c);
        kernels::matmul_grad_b(&avec, &gvec, &mut gb_blocked, r, k, c);
        prop_assert_eq!(bits(&gb_naive), bits(&gb_blocked));
    }

    /// The same three bitwise identities at shapes that cross the 8/16/32
    /// vector-lane boundaries, where the SIMD kernels switch from their
    /// unrolled main loops to remainder handling.
    #[test]
    fn simd_kernels_are_bitwise_equal_to_naive_at_lane_boundaries(
        (r, k, c) in dims_wide(),
        av in mat(600),
        bv in mat(900),
        acc in mat(600),
    ) {
        let avec: Vec<f32> = av.iter().cycle().take(r * k).copied().collect();
        let bvec: Vec<f32> = bv.iter().cycle().take(k * c).copied().collect();
        let mut naive = vec![f32::NAN; r * c];
        let mut blocked = vec![f32::NAN; r * c];
        kernels::matmul_naive(&avec, &bvec, &mut naive, r, k, c);
        kernels::matmul(&avec, &bvec, &mut blocked, r, k, c);
        prop_assert_eq!(bits(&naive), bits(&blocked));

        // grad_a with g:[r,c], b:[k,c] — reuse `naive` as the upstream
        // gradient so zeros from the forward exercise the skip path.
        let gvec = naive;
        let mut ga_naive: Vec<f32> = acc.iter().cycle().take(r * k).copied().collect();
        let mut ga_simd = ga_naive.clone();
        kernels::matmul_grad_a_naive(&gvec, &bvec, &mut ga_naive, r, k, c);
        kernels::matmul_grad_a(&gvec, &bvec, &mut ga_simd, r, k, c);
        prop_assert_eq!(bits(&ga_naive), bits(&ga_simd));

        let mut gb_naive: Vec<f32> = acc.iter().cycle().take(k * c).copied().collect();
        let mut gb_simd = gb_naive.clone();
        kernels::matmul_grad_b_naive(&avec, &gvec, &mut gb_naive, r, k, c);
        kernels::matmul_grad_b(&avec, &gvec, &mut gb_simd, r, k, c);
        prop_assert_eq!(bits(&gb_naive), bits(&gb_simd));
    }

    /// A tape cleared and reused for a program must produce bitwise the
    /// same forward data and parameter gradients as a fresh tape — the
    /// contract behind the model's `*_into` entry points, which clear a
    /// caller's tape before each pass.
    #[test]
    fn cleared_tape_reuse_is_bit_identical_to_fresh(
        w in prop::collection::vec(-2.0f32..2.0, 12),
        x in prop::collection::vec(-2.0f32..2.0, 12),
        warm_rounds in 1usize..4,
    ) {
        let mut store = ParamStore::new(7);
        let wp = store.add_param("w", 3, 4, w);

        let run = |t: &mut Tape, store: &mut ParamStore| -> (Vec<f32>, Vec<f32>) {
            let wv = t.param(store, wp);
            let xv = t.constant(4, 3, x.clone());
            let h = t.matmul(wv, xv);
            let h = t.tanh(h);
            let ht = t.transpose(h);
            let sq = t.matmul(h, ht);
            let flat = t.reshape(sq, 9, 1);
            let loss = t.mean_all(flat);
            let data = t.data(loss).to_vec();
            store.zero_grad();
            t.backward(loss, store);
            (data, store.grad(wp).to_vec())
        };

        let mut fresh = Tape::new();
        let (fresh_out, fresh_grad) = run(&mut fresh, &mut store);

        let mut reused = Tape::new();
        for _ in 0..warm_rounds {
            // Run a differently-shaped throwaway program first.
            let junk = reused.constant(5, 7, vec![0.25; 35]);
            let jt = reused.transpose(junk);
            let _ = reused.matmul(junk, jt);
            reused.clear();
        }
        let (reused_out, reused_grad) = run(&mut reused, &mut store);

        prop_assert_eq!(bits(&fresh_out), bits(&reused_out));
        prop_assert_eq!(bits(&fresh_grad), bits(&reused_grad));
    }
}
