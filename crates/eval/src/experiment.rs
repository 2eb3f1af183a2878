//! Experiment configuration, model-zoo training and shared evaluation.

use m2g4rtp::{M2G4Rtp, ModelConfig, Prediction, TrainConfig, Trainer};
use rtp_baselines::{
    Baseline, DeepBaseline, DeepConfig, DeepKind, DistanceGreedy, OSquare, OSquareConfig,
    OrToolsLike, TimeGreedy,
};
use rtp_metrics::{
    Bucket, RouteMetricAccumulator, RouteMetrics, TimeMetricAccumulator, TimeMetrics,
};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig, RtpSample};
use serde::{Deserialize, Serialize};

/// Display name of the trained M²G4RTP predictor in the zoo.
pub const M2GPREDICTOR_NAME: &str = "M2G4RTP";

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// CI-scale: small dataset, few epochs — tens of seconds.
    Quick,
    /// Paper-shape scale sized for a single CPU core — minutes.
    Full,
}

/// Everything an experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// M²G4RTP training parameters.
    pub train: TrainConfig,
    /// M²G4RTP model hyperparameters factory seed.
    pub model_seed: u64,
    /// Deep-baseline parameters.
    pub deep: DeepConfig,
    /// OSquare parameters.
    pub osquare: OSquareConfig,
    /// Row cap for OSquare's pointwise training set (exact-split GBDT
    /// is O(rows log rows) per node; the cap keeps it tractable).
    pub osquare_row_cap: usize,
}

impl ExperimentConfig {
    /// Builds the config for a scale.
    pub fn for_scale(scale: Scale, seed: u64) -> Self {
        match scale {
            Scale::Quick => Self {
                dataset: DatasetConfig::quick(seed),
                train: TrainConfig { epochs: 10, verbose: true, ..TrainConfig::quick() },
                model_seed: seed ^ 0x9a17,
                deep: DeepConfig {
                    route_epochs: 8,
                    time_epochs: 5,
                    verbose: true,
                    ..DeepConfig::quick(seed)
                },
                osquare: OSquareConfig::default(),
                osquare_row_cap: 12_000,
            },
            Scale::Full => Self {
                dataset: DatasetConfig {
                    n_couriers: 28,
                    territory_size: 20,
                    split: rtp_sim::SplitSizes { train_days: 40, val_days: 9, test_days: 8 },
                    samples_per_courier_day: 2,
                    ..DatasetConfig::default()
                },
                train: TrainConfig::full(),
                model_seed: seed ^ 0x5eed,
                deep: DeepConfig::full(seed),
                osquare: OSquareConfig::default(),
                osquare_row_cap: 25_000,
            },
        }
    }
}

/// The trained model zoo, in the row order of Tables III/IV.
pub struct Zoo {
    /// All predictors (heuristics untrained, learned models fitted).
    pub predictors: Vec<Box<dyn Baseline>>,
    /// Wall-clock training seconds per learned method.
    pub train_seconds: Vec<(String, f64)>,
}

/// Wrapper giving [`M2G4Rtp`] the common [`Baseline`] interface.
pub struct M2gPredictor {
    /// The trained model.
    pub model: M2G4Rtp,
    name: &'static str,
}

impl M2gPredictor {
    /// Wraps a trained model under a display name.
    pub fn new(model: M2G4Rtp, name: &'static str) -> Self {
        Self { model, name }
    }
}

impl Baseline for M2gPredictor {
    fn name(&self) -> &'static str {
        self.name
    }

    fn predict(&self, dataset: &Dataset, sample: &RtpSample) -> Prediction {
        self.model.predict_sample(dataset, sample)
    }
}

/// Generates the dataset and trains every method of Tables III/IV.
pub fn train_zoo(config: &ExperimentConfig) -> (Dataset, Zoo) {
    eprintln!("== generating dataset ==");
    let dataset = DatasetBuilder::new(config.dataset.clone()).build();
    eprintln!(
        "train/val/test = {}/{}/{} samples",
        dataset.train.len(),
        dataset.val.len(),
        dataset.test.len()
    );

    let mut predictors: Vec<Box<dyn Baseline>> = Vec::new();
    let mut train_seconds = Vec::new();

    predictors.push(Box::new(DistanceGreedy));
    predictors.push(Box::new(TimeGreedy));
    predictors.push(Box::new(OrToolsLike::default()));

    eprintln!("== training OSquare (GBDT) ==");
    let t0 = std::time::Instant::now();
    let osquare = OSquare::fit(&capped_dataset(&dataset, config.osquare_row_cap), &config.osquare);
    train_seconds.push(("OSquare".to_string(), t0.elapsed().as_secs_f64()));
    predictors.push(Box::new(osquare));

    for kind in [DeepKind::DeepRoute, DeepKind::Fdnet, DeepKind::Graph2Route] {
        eprintln!("== training {} ==", kind.label());
        let t0 = std::time::Instant::now();
        let mut m = DeepBaseline::new(kind, config.deep.clone(), &dataset);
        m.fit(&dataset);
        train_seconds.push((kind.label().to_string(), t0.elapsed().as_secs_f64()));
        predictors.push(Box::new(m));
    }

    eprintln!("== training M2G4RTP ==");
    let t0 = std::time::Instant::now();
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&dataset), config.model_seed);
    let report = Trainer::new(config.train.clone()).fit(&mut model, &dataset);
    eprintln!(
        "M2G4RTP: best val KRC {:.3}, MAE {:.2} ({} epochs, {:.1}s)",
        report.best_val_krc, report.best_val_mae, report.epochs_run, report.train_seconds
    );
    train_seconds.push((M2GPREDICTOR_NAME.to_string(), t0.elapsed().as_secs_f64()));
    predictors.push(Box::new(M2gPredictor::new(model, M2GPREDICTOR_NAME)));

    (dataset, Zoo { predictors, train_seconds })
}

/// OSquare's pointwise expansion is O(samples × steps × candidates);
/// cap the number of training *samples* so the exact-split GBDT stays
/// tractable (the cap applies to the route scorer's source rows).
fn capped_dataset(dataset: &Dataset, row_cap: usize) -> Dataset {
    // rows per sample ≈ n(n+1)/2; estimate with the mean n.
    let mean_n = dataset.train.iter().map(|s| s.query.num_locations()).sum::<usize>() as f64
        / dataset.train.len().max(1) as f64;
    let rows_per_sample = (mean_n * (mean_n + 1.0) / 2.0).max(1.0);
    let max_samples = ((row_cap as f64 / rows_per_sample) as usize).max(50);
    if dataset.train.len() <= max_samples {
        return dataset.clone();
    }
    let mut capped = dataset.clone();
    // deterministic stride subsample preserves day coverage
    let stride = dataset.train.len().div_ceil(max_samples);
    capped.train = dataset.train.iter().step_by(stride).cloned().collect();
    capped
}

/// Per-method evaluation over the test split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodEval {
    /// Method display name.
    pub name: String,
    /// Route metrics per bucket (Short, Long, All).
    pub route: Vec<(Bucket, RouteMetrics)>,
    /// Time metrics per bucket.
    pub time: Vec<(Bucket, TimeMetrics)>,
    /// Mean end-to-end inference latency per query, milliseconds.
    pub infer_ms: f64,
}

/// Evaluation of the whole zoo.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// One entry per method, zoo order.
    pub methods: Vec<MethodEval>,
    /// Test samples evaluated.
    pub n_test: usize,
}

/// Runs every predictor over the test split, computing the bucketed
/// route/time metrics of Tables III/IV and the mean inference latency
/// of Table V.
pub fn evaluate_zoo(dataset: &Dataset, zoo: &Zoo) -> EvalOutcome {
    let methods = zoo.predictors.iter().map(|p| evaluate_method(dataset, p.as_ref())).collect();
    EvalOutcome { methods, n_test: dataset.test.len() }
}

/// Evaluates one predictor over the test split.
pub fn evaluate_method(dataset: &Dataset, predictor: &dyn Baseline) -> MethodEval {
    let mut route_acc = RouteMetricAccumulator::new();
    let mut time_acc = TimeMetricAccumulator::new();
    let t0 = std::time::Instant::now();
    for s in &dataset.test {
        let p = predictor.predict(dataset, s);
        route_acc.add(&p.route, &s.truth.route);
        time_acc.add(&p.times, &s.truth.arrival, s.query.num_locations());
    }
    let infer_ms = t0.elapsed().as_secs_f64() * 1e3 / dataset.test.len().max(1) as f64;
    let route = Bucket::ALL.iter().filter_map(|&b| route_acc.finish(b).map(|m| (b, m))).collect();
    let time = Bucket::ALL.iter().filter_map(|&b| time_acc.finish(b).map(|m| (b, m))).collect();
    MethodEval { name: predictor.name().to_string(), route, time, infer_ms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_dataset_respects_row_budget() {
        let d = DatasetBuilder::new(DatasetConfig::quick(5)).build();
        let capped = capped_dataset(&d, 2_000);
        assert!(capped.train.len() < d.train.len());
        let rows: usize = capped
            .train
            .iter()
            .map(|s| {
                let n = s.query.num_locations();
                n * (n + 1) / 2
            })
            .sum();
        // stride subsampling is approximate; allow 2x slack
        assert!(rows < 4_000, "row cap grossly exceeded: {rows}");
        // untouched splits
        assert_eq!(capped.test.len(), d.test.len());
    }

    #[test]
    fn evaluate_method_fills_all_buckets_when_data_has_both() {
        let d = DatasetBuilder::new(DatasetConfig::quick(6)).build();
        let eval = evaluate_method(&d, &DistanceGreedy);
        assert_eq!(eval.name, "Distance-Greedy");
        assert!(!eval.route.is_empty());
        assert!(eval.infer_ms >= 0.0);
        let all_route = eval.route.iter().find(|(b, _)| *b == Bucket::All).expect("all bucket");
        assert_eq!(all_route.1.count, d.test.len());
    }
}
