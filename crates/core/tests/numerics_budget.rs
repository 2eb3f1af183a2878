//! Accuracy budgets for the approximate inference tiers.
//!
//! `--numerics quantized` is only admissible in serving because its
//! deviation from the bit-exact tier is bounded and tested. The
//! declared budgets on the simulator eval set:
//!
//! * the predicted route permutation (both levels) is **identical** to
//!   the exact tier's for every test sample — greedy decoding reads
//!   argmaxes of well-separated logits, which quantization noise must
//!   not flip;
//! * the mean absolute ETA deviation vs the exact tier stays under
//!   0.5 minutes, far below the model's own ~tens-of-minutes MAE vs
//!   ground truth;
//! * the exact tier through the numerics-dispatch path stays bitwise
//!   equal to the legacy `predict_sample` path.

use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};
use rtp_tensor::Numerics;

fn trained() -> (Dataset, M2G4Rtp) {
    let d = DatasetBuilder::new(DatasetConfig::tiny(1234)).build();
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&d), 7);
    Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::quick() }).fit(&mut model, &d);
    (d, model)
}

/// Mean absolute deviation between two per-stop ETA vectors.
fn eta_dev(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let n = a.len().max(1) as f32;
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / n
}

#[test]
fn approximate_tiers_stay_within_declared_budgets() {
    let (dataset, model) = trained();
    assert!(
        model.quant_set().quantized_params() > 0,
        "model must have quantizable weight matrices for this test to mean anything"
    );

    let mut worst_q = 0.0f32;
    let (mut sum_q, mut stops) = (0.0f64, 0usize);
    for s in &dataset.test {
        let exact = model.predict_sample_with(&dataset, s, Numerics::Exact);
        let quant = model.predict_sample_with(&dataset, s, Numerics::Quantized);

        assert_eq!(exact.route, quant.route, "quantized tier flipped a route decision");
        assert_eq!(
            exact.aoi_route, quant.aoi_route,
            "quantized tier flipped an AOI route decision"
        );

        let dq = eta_dev(&exact.times, &quant.times);
        worst_q = worst_q.max(dq);
        sum_q += (dq * exact.times.len() as f32) as f64;
        stops += exact.times.len();
    }
    let mae_q = sum_q / stops.max(1) as f64;
    assert!(mae_q <= 0.5, "quantized ETA deviation {mae_q:.4} min exceeds the 0.5 min budget");
    // Per-sample worst cases are recorded in the failure message only;
    // printing keeps them visible under --nocapture for tuning.
    println!("numerics budget: quantized mae {mae_q:.5} (worst {worst_q:.5}) over {stops} stops");
}

#[test]
fn exact_tier_dispatch_is_bitwise_identical_to_legacy_path() {
    let (dataset, model) = trained();
    for s in dataset.test.iter().take(8) {
        // The legacy entry point: a plain `Tape::inference()` with no
        // numerics dispatch at all.
        let courier = &dataset.couriers[s.query.courier_id];
        let g = model.build_graph(&dataset.city, courier, &s.query);
        let legacy = model.predict(&g);
        let exact = model.predict_sample_with(&dataset, s, Numerics::Exact);
        assert_eq!(legacy.route, exact.route);
        assert_eq!(legacy.aoi_route, exact.aoi_route);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&legacy.times), bits(&exact.times));
        assert_eq!(bits(&legacy.aoi_times), bits(&exact.aoi_times));
    }
}
