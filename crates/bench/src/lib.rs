//! # rtp-bench
//!
//! Benchmarks for the M²G4RTP reproduction:
//!
//! * `inference` — per-model single-query latency (paper Table V).
//! * `encoder_scaling` — GAT-e forward cost vs the number of locations.
//! * `simulator` — world generation, behaviour simulation and graph
//!   construction throughput.
//! * `tensor_kernels` — matmul kernel sweep, masked-softmax and
//!   LSTM-step timings, tape reuse and the per-op profile.
//! * `training_throughput`, `serve_throughput`, `obs_overhead` —
//!   end-to-end training and serving rates and the telemetry cost.
//!
//! Shared fixtures live here so every bench sees identical inputs.

use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};

/// A small dataset shared by the benches (deterministic).
pub fn bench_dataset() -> Dataset {
    DatasetBuilder::new(DatasetConfig::tiny(4242)).build()
}

/// A briefly trained M²G4RTP model with its pipeline attached. Latency
/// does not depend on how converged the weights are, so one epoch is
/// enough.
pub fn bench_model(dataset: &Dataset) -> M2G4Rtp {
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(dataset), 1);
    Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::quick() }).fit(&mut model, dataset);
    model
}

/// Machine/toolchain metadata embedded in every bench result JSON so
/// entries in `results/history.jsonl` are comparable across boxes:
/// logical cores, the CPU features the kernels dispatch on, the rustc
/// that built the bench and the `-C target-cpu` it was built with.
/// Returns a JSON object as a string (the benches hand-format their
/// output).
pub fn bench_meta_json() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let features: Vec<String> =
        rtp_tensor::simd::detected_features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_features\": [{}], \"rustc\": \"{}\", \"target_cpu\": \"{}\"}}",
        features.join(", "),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_TARGET_CPU"),
    )
}

/// Picks the test sample whose location count is closest to `n`.
pub fn sample_near_n(dataset: &Dataset, n: usize) -> &rtp_sim::RtpSample {
    dataset
        .test
        .iter()
        .min_by_key(|s| s.query.num_locations().abs_diff(n))
        .expect("non-empty test split")
}
