//! Property-based gradient verification: every differentiable op's
//! analytic gradient is checked against central finite differences on
//! randomised inputs. This is the load-bearing correctness suite for
//! the autodiff substrate — every model in the workspace trains through
//! these code paths.

use proptest::prelude::*;
use rtp_tensor::nn::LstmCell;
use rtp_tensor::{grad_check, ParamId, ParamStore, Tape, TensorId};

/// Runs `build` to produce a scalar loss from one 2x3 parameter, then
/// checks its gradient by finite differences.
fn check_op(
    data: Vec<f32>,
    build: impl Fn(&mut Tape, TensorId) -> TensorId,
) -> Result<(), TestCaseError> {
    let mut store = ParamStore::new(0);
    let p = store.add_param("p", 2, 3, data);
    let forward = |store: &ParamStore| -> f32 {
        let mut t = Tape::new();
        let x = t.param(store, p);
        let loss = build(&mut t, x);
        t.scalar(loss)
    };
    let mut t = Tape::new();
    let x = t.param(&store, p);
    let loss = build(&mut t, x);
    store.zero_grad();
    t.backward(loss, &mut store);
    let analytic = store.grad(p).to_vec();
    let worst = grad_check(&mut store, p, &analytic, 1e-2, forward);
    prop_assert!(worst < 5e-3, "gradient mismatch: {worst}");
    Ok(())
}

fn input6() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, 6)
}

/// Inputs bounded away from f(x) kinks (|x| > eps) so finite
/// differences are valid for relu/leaky/abs.
fn input6_away_from_zero() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((0.15f32..2.0).prop_flat_map(|m| prop_oneof![Just(m), Just(-m)]), 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grad_tanh(d in input6()) {
        check_op(d, |t, x| { let a = t.tanh(x); t.mean_all(a) })?;
    }

    #[test]
    fn grad_sigmoid(d in input6()) {
        check_op(d, |t, x| { let a = t.sigmoid(x); t.mean_all(a) })?;
    }

    #[test]
    fn grad_relu(d in input6_away_from_zero()) {
        check_op(d, |t, x| { let a = t.relu(x); t.sum_all(a) })?;
    }

    #[test]
    fn grad_leaky_relu(d in input6_away_from_zero()) {
        check_op(d, |t, x| { let a = t.leaky_relu(x, 0.2); t.sum_all(a) })?;
    }

    #[test]
    fn grad_abs(d in input6_away_from_zero()) {
        check_op(d, |t, x| { let a = t.abs(x); t.mean_all(a) })?;
    }

    #[test]
    fn grad_exp(d in input6()) {
        check_op(d, |t, x| { let a = t.exp(x); t.mean_all(a) })?;
    }

    #[test]
    fn grad_mul_and_square(d in input6()) {
        check_op(d, |t, x| { let a = t.mul(x, x); t.mean_all(a) })?;
    }

    #[test]
    fn grad_transpose_matmul(d in input6()) {
        check_op(d, |t, x| {
            let xt = t.transpose(x); // [3,2]
            let m = t.matmul(x, xt); // [2,2]
            t.mean_all(m)
        })?;
    }

    #[test]
    fn grad_concat_and_gather(d in input6()) {
        check_op(d, |t, x| {
            let g = t.gather_rows(x, &[1, 0, 1]);
            let c = t.concat_rows(&[x, g]); // [5,3]
            let s = t.tanh(c);
            t.mean_all(s)
        })?;
    }

    #[test]
    fn grad_repeat_ops(d in input6()) {
        check_op(d, |t, x| {
            let r = t.repeat_rows(x, 2);
            let i = t.repeat_interleave_rows(x, 2);
            let s = t.add(r, i);
            t.mean_all(s)
        })?;
    }

    #[test]
    fn grad_add_outer(d in input6()) {
        check_op(d, |t, x| {
            let col = t.gather_rows(x, &[0]); // [1,3]
            let a = t.transpose(col); // [3,1]
            let b = {
                let r = t.gather_rows(x, &[1]);
                t.transpose(r)
            };
            let o = t.add_outer(a, b); // [3,3]
            let s = t.tanh(o);
            t.mean_all(s)
        })?;
    }

    #[test]
    fn grad_masked_softmax(d in input6()) {
        let mask = vec![true, true, false, true, false, true];
        check_op(d, move |t, x| {
            let s = t.masked_softmax_rows(x, &mask);
            let sq = t.mul(s, s);
            t.sum_all(sq)
        })?;
    }

    #[test]
    fn grad_layer_norm(d in input6()) {
        // keep rows non-constant so variance stays well conditioned
        let mut d = d;
        d[0] += 3.0;
        d[4] -= 3.0;
        check_op(d, |t, x| {
            let n = t.layer_norm_rows(x, 1e-3);
            let s = t.sigmoid(n);
            t.mean_all(s)
        })?;
    }

    #[test]
    fn grad_broadcast_rows_cols(d in input6()) {
        check_op(d, |t, x| {
            let row = t.gather_rows(x, &[0]); // [1,3]
            let y = t.add_row(x, row);
            let z = t.mul_row(y, row);
            t.mean_all(z)
        })?;
    }

    #[test]
    fn grad_ln(d in prop::collection::vec(0.2f32..3.0, 6)) {
        check_op(d, |t, x| { let l = t.ln(x); t.mean_all(l) })?;
    }

    #[test]
    fn grad_mae_mse(d in input6()) {
        check_op(d, |t, x| {
            // targets far outside the input range keep |pred − target|
            // away from the MAE kink for any finite-difference step
            let target = t.constant(2, 3, vec![10.0, -10.0, 10.0, -10.0, 10.0, -10.0]);
            let a = t.mse_loss(x, target);
            let b = t.mae_loss(x, target);
            t.add(a, b)
        })?;
    }
}

// -------------------------------------------------------------------
// random-shape checks with relative tolerance
// -------------------------------------------------------------------

/// Worst per-coordinate *relative* finite-difference error for `pid`:
/// `|numeric − analytic| / max(|analytic|, |numeric|, 1)`.
#[allow(clippy::needless_range_loop)] // perturbs store in place; iterator borrow rules forbid it
fn worst_rel_error(
    store: &mut ParamStore,
    pid: ParamId,
    analytic: &[f32],
    mut f: impl FnMut(&ParamStore) -> f32,
) -> f32 {
    let eps = 1e-2f32;
    let n = store.data(pid).len();
    assert_eq!(analytic.len(), n);
    let mut worst = 0.0f32;
    for i in 0..n {
        let orig = store.data(pid)[i];
        store.data_mut(pid)[i] = orig + eps;
        let up = f(store);
        store.data_mut(pid)[i] = orig - eps;
        let down = f(store);
        store.data_mut(pid)[i] = orig;
        let numeric = (up - down) / (2.0 * eps);
        let denom = analytic[i].abs().max(numeric.abs()).max(1.0);
        worst = worst.max((numeric - analytic[i]).abs() / denom);
    }
    worst
}

/// Checks every parameter in `store` against finite differences with
/// relative tolerance 1e-3, where `build` rebuilds the loss from the
/// store each call.
fn check_all_params_rel(
    store: &mut ParamStore,
    build: impl Fn(&mut Tape, &ParamStore) -> TensorId,
) -> Result<(), TestCaseError> {
    let forward = |s: &ParamStore| -> f32 {
        let mut t = Tape::new();
        let loss = build(&mut t, s);
        t.scalar(loss)
    };
    store.zero_grad();
    let mut t = Tape::new();
    let loss = build(&mut t, store);
    t.backward(loss, store);
    let ids: Vec<ParamId> = store.iter_ids().collect();
    for pid in ids {
        let analytic = store.grad(pid).to_vec();
        let worst = worst_rel_error(store, pid, &analytic, forward);
        prop_assert!(worst <= 1e-3, "relative gradient error {worst} for param {pid:?}");
    }
    Ok(())
}

/// A random matrix: rows, cols and entries all drawn by proptest.
fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-2.0f32..2.0, r * c).prop_map(move |d| (r, c, d))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grad_masked_softmax_random_shape(
        ((r, c, d), mask) in matrix(1..5, 2..6).prop_flat_map(|(r, c, d)| {
            (Just((r, c, d)), prop::collection::vec(any::<bool>(), r * c))
        })
    ) {
        let mut store = ParamStore::new(0);
        let p = store.add_param("p", r, c, d);
        check_all_params_rel(&mut store, move |t, s| {
            let x = t.param(s, p);
            let sm = t.masked_softmax_rows(x, &mask);
            let sq = t.mul(sm, sm);
            t.sum_all(sq)
        })?;
    }

    #[test]
    fn grad_gather_rows_random_shape(
        ((r, c, d), idx) in matrix(1..6, 1..5).prop_flat_map(|(r, c, d)| {
            let len = 1..(2 * r + 1);
            (Just((r, c, d)), prop::collection::vec(0..r, len))
        })
    ) {
        let mut store = ParamStore::new(0);
        let p = store.add_param("p", r, c, d);
        check_all_params_rel(&mut store, move |t, s| {
            let x = t.param(s, p);
            let g = t.gather_rows(x, &idx);
            let a = t.tanh(g);
            t.sum_all(a)
        })?;
    }

    #[test]
    fn grad_add_outer_random_shape(
        ((r, _, a), (c, _, b)) in (matrix(1..6, 1..2), matrix(1..6, 1..2))
    ) {
        let mut store = ParamStore::new(0);
        let pa = store.add_param("a", r, 1, a);
        let pb = store.add_param("b", c, 1, b);
        check_all_params_rel(&mut store, move |t, s| {
            let av = t.param(s, pa);
            let bv = t.param(s, pb);
            let o = t.add_outer(av, bv);
            let sq = t.tanh(o);
            t.sum_all(sq)
        })?;
    }

    #[test]
    fn grad_lstm_cell_random_shape(
        (in_dim, hidden, seed, steps) in (1usize..4, 1usize..4, 0u64..1 << 20, 1usize..4)
            .prop_flat_map(|(i, h, seed, n)| {
                (Just(i), Just(h), Just(seed), prop::collection::vec(-1.5f32..1.5, n * i))
            })
    ) {
        let mut store = ParamStore::new(seed);
        let cell = LstmCell::new(&mut store, "lstm", in_dim, hidden);
        check_all_params_rel(&mut store, move |t, s| {
            let mut state = cell.zero_state(t);
            for step in steps.chunks(in_dim) {
                let x = t.constant(1, in_dim, step.to_vec());
                state = cell.step(t, s, x, state);
            }
            let joint = t.concat_cols(&[state.0, state.1]);
            t.sum_all(joint)
        })?;
    }
}
