//! Training loop: Adam with gradient accumulation over mini-batches of
//! per-sample tapes, gradient clipping, validation-based early stopping
//! with best-weights restoration, and the two-phase schedule used by the
//! "two-step" ablation.
//!
//! Mini-batches are **data-parallel**: each sample's forward/backward
//! runs on a worker thread against the epoch-frozen weights, producing
//! a private [`GradBuffer`]; buffers are then reduced into the
//! [`rtp_tensor::ParamStore`] in sample-index order and Adam steps
//! once. Because the reduction order is fixed, the training trajectory
//! is bit-identical for any [`TrainConfig::threads`] setting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::Dataset;
use rtp_tensor::optim::{Adam, Optimizer};
use rtp_tensor::parallel::{parallel_map_ordered_with, resolve_threads};
use rtp_tensor::{GradBuffer, Tape};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    dataset_fingerprint, CheckpointError, CheckpointOptions, TrainCheckpoint, CHECKPOINT_VERSION,
};
use crate::config::Variant;
use crate::model::M2G4Rtp;

/// Training hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Early-stopping patience (epochs without val improvement).
    pub patience: usize,
    /// Fraction of the epoch budget spent on a route-only warm-up
    /// before joint optimisation starts (time modules frozen during
    /// warm-up). The joint tasks compete for shared-encoder capacity;
    /// letting the route structure form first measurably improves both
    /// tasks. Ignored by the `TwoStep` variant, which has its own
    /// strict two-phase schedule.
    pub route_warmup_frac: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
    /// Worker threads for the data-parallel mini-batch loop
    /// (0 = all available cores). Results are bit-identical for every
    /// setting; this only trades wall-clock time.
    pub threads: usize,
}

impl TrainConfig {
    /// Seconds-scale config for tests/CI.
    pub fn quick() -> Self {
        Self {
            epochs: 6,
            lr: 2e-3,
            batch_size: 16,
            grad_clip: 5.0,
            patience: 3,
            route_warmup_frac: 0.34,
            seed: 7,
            verbose: false,
            threads: 0,
        }
    }

    /// The configuration used by the paper-scale experiment harness.
    pub fn full() -> Self {
        Self {
            epochs: 30,
            lr: 1.5e-3,
            batch_size: 16,
            grad_clip: 5.0,
            patience: 7,
            route_warmup_frac: 0.34,
            seed: 7,
            verbose: true,
            threads: 0,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean combined training loss.
    pub train_loss: f32,
    /// Validation mean KRC of the location route.
    pub val_krc: f64,
    /// Validation MAE of location arrival times, minutes.
    pub val_mae: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Epochs actually run (≤ configured, early stopping).
    pub epochs_run: usize,
    /// Best validation KRC observed.
    pub best_val_krc: f64,
    /// Validation MAE at the best epoch, minutes.
    pub best_val_mae: f64,
    /// Full per-epoch history.
    pub history: Vec<EpochStats>,
    /// Wall-clock training time, seconds.
    pub train_seconds: f64,
    /// Seconds spent inside the mini-batch gradient loops only
    /// (excludes graph prep and validation) — the quantity the
    /// `training_throughput` bench divides samples by.
    pub train_loop_seconds: f64,
}

/// Fits an [`M2G4Rtp`] model on a dataset.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// Trains `model` on `dataset.train`, early-stopping on
    /// `dataset.val`, restoring the best weights, and attaching the
    /// feature pipeline to the model.
    ///
    /// For [`Variant::TwoStep`] the epochs are split 60/40 into a
    /// route-only phase (time modules frozen) and a time-only phase
    /// (everything else frozen) — the paper's "assign an optimizer to
    /// the parameters of SortLSTM separately".
    pub fn fit(&self, model: &mut M2G4Rtp, dataset: &Dataset) -> TrainReport {
        self.fit_with_checkpoints(model, dataset, None)
            .expect("fit without checkpointing performs no fallible I/O")
    }

    /// [`Trainer::fit`] with durable per-epoch checkpoints and exact
    /// resume.
    ///
    /// With `ckpt` set, the full training state — weights, Adam
    /// moments + step count, shuffle RNG state and current
    /// permutation, epoch index, best-snapshot/patience bookkeeping —
    /// is written atomically to `ckpt.dir/checkpoint.json` after every
    /// epoch. With `ckpt.resume`, that state is restored and the epoch
    /// loop continues where it left off, including mid-warm-up and
    /// across the two-step phase-A/phase-B boundary.
    ///
    /// **Exactness guarantee:** a run killed at any point and resumed
    /// from its latest checkpoint produces byte-identical final
    /// weights (and a byte-identical [`crate::SavedModel`] JSON) to an
    /// uninterrupted run — regardless of `threads`, which may even
    /// change across the kill boundary.
    ///
    /// # Errors
    /// Fails if a checkpoint cannot be written, or on resume if the
    /// checkpoint is missing, corrupt, from a different format
    /// version, or belongs to a different run (config, model
    /// architecture or dataset mismatch). It never silently retrains
    /// from scratch.
    pub fn fit_with_checkpoints(
        &self,
        model: &mut M2G4Rtp,
        dataset: &Dataset,
        ckpt: Option<&CheckpointOptions>,
    ) -> Result<TrainReport, CheckpointError> {
        let _fit_span = rtp_obs::span!("train.fit");
        let obs = rtp_obs::metrics::global();
        let (g_loss, g_val_krc, g_val_mae) =
            (obs.gauge("train.loss"), obs.gauge("train.val_krc"), obs.gauge("train.val_mae"));
        let g_ckpt_bytes = obs.gauge("train.checkpoint_bytes");
        let start = std::time::Instant::now();
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(dataset, &builder);
        // Graph construction is embarrassingly parallel and dominates
        // start-up cost on large datasets.
        let prep = |samples: &[rtp_sim::RtpSample]| -> Vec<MultiLevelGraph> {
            samples
                .par_iter()
                .map(|s| {
                    let mut g = builder.build(
                        &s.query,
                        &dataset.city,
                        &dataset.couriers[s.query.courier_id],
                    );
                    scaler.apply(&mut g);
                    g
                })
                .collect()
        };
        let train_graphs = prep(&dataset.train);
        let val_graphs = prep(&dataset.val);

        let mut opt = Adam::new(self.config.lr);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut history = Vec::new();
        let mut best_score = f64::NEG_INFINITY;
        let mut best_krc = 0.0;
        let mut best_mae = f64::MAX;
        let mut best_snapshot = model.store.snapshot();
        let mut since_best = 0usize;

        let two_step = model.config().variant == Variant::TwoStep;
        let phase_a_epochs = if two_step { (self.config.epochs * 3).div_ceil(5) } else { 0 };
        let warmup_epochs = if two_step {
            0
        } else {
            (self.config.epochs as f32 * self.config.route_warmup_frac) as usize
        };

        let mut indices: Vec<usize> = (0..train_graphs.len()).collect();
        let mut train_loop_seconds = 0.0f64;
        let mut prior_train_seconds = 0.0f64;
        let mut start_epoch = 0usize;
        let mut stopped_early = false;
        let ds_fingerprint = if ckpt.is_some() { dataset_fingerprint(dataset) } else { 0 };
        if let Some(o) = ckpt {
            if o.resume {
                let cp = TrainCheckpoint::load(&o.dir)?;
                cp.validate_against(&self.config, model.config(), &model.store, dataset)?;
                if cp.adam.m.len() != cp.adam.v.len()
                    || cp.adam.m.iter().zip(&cp.adam.v).any(|(m, v)| m.len() != v.len())
                {
                    return Err(CheckpointError::Corrupt(
                        "Adam moment buffers are internally inconsistent".into(),
                    ));
                }
                let restored = Adam::from_state(cp.adam);
                if !restored.matches_store(&model.store) {
                    return Err(CheckpointError::Mismatch(
                        "Adam moment layout does not match the model's parameters".into(),
                    ));
                }
                opt = restored;
                model.store.restore(&cp.weights);
                rng = StdRng::from_state(cp.rng_state);
                indices = cp.indices;
                history = cp.history;
                best_score = f64::from_bits(cp.best_score_bits);
                best_krc = f64::from_bits(cp.best_krc_bits);
                best_mae = f64::from_bits(cp.best_mae_bits);
                best_snapshot = cp.best_snapshot;
                since_best = cp.since_best;
                prior_train_seconds = cp.train_seconds;
                train_loop_seconds = cp.train_loop_seconds;
                // A checkpoint written at the early-stop epoch means the
                // uninterrupted run would have trained no further: resume
                // must finalise, not continue.
                start_epoch = if cp.stopped_early { self.config.epochs } else { cp.epochs_done };
                stopped_early = cp.stopped_early;
                if self.config.verbose {
                    eprintln!(
                        "resumed from {} after epoch {}",
                        o.file().display(),
                        cp.epochs_done - 1
                    );
                }
            }
        }
        // One tape per worker, reused (via `clear()`) across every
        // sample of every epoch.
        let workers = resolve_threads(self.config.threads).min(self.config.batch_size.max(1));
        let mut worker_tapes: Vec<Tape> = (0..workers.max(1)).map(|_| Tape::new()).collect();
        for epoch in start_epoch..self.config.epochs {
            let _epoch_span = rtp_obs::span!("train.epoch", epoch);
            indices.shuffle(&mut rng);
            let phase_b = two_step && epoch >= phase_a_epochs;
            let warming_up = !two_step && epoch < warmup_epochs;
            // One span per epoch-phase: which parameter groups this
            // epoch's gradient steps actually move.
            let phase_span = rtp_obs::trace::span(if warming_up {
                "train.phase.route_warmup"
            } else if !two_step {
                "train.phase.joint"
            } else if phase_b {
                "train.phase.time"
            } else {
                "train.phase.route"
            });
            let mut loss_sum = 0.0f32;
            let loop_start = std::time::Instant::now();
            for batch in indices.chunks(self.config.batch_size) {
                model.store.zero_grad();
                let frozen_store = model.store.clone();
                // Data-parallel shard: each sample runs forward/backward
                // on a worker thread against the frozen weights, into a
                // private gradient buffer.
                let model_ref: &M2G4Rtp = model;
                let shards =
                    parallel_map_ordered_with(&mut worker_tapes, batch.len(), |tape, k| {
                        let i = batch[k];
                        tape.clear();
                        let lt = model_ref.forward_train(
                            tape,
                            &frozen_store,
                            &train_graphs[i],
                            &dataset.train[i].truth,
                        );
                        let objective = if warming_up {
                            lt.route_total
                        } else if !two_step {
                            lt.total
                        } else if phase_b {
                            lt.time_total
                        } else {
                            lt.route_total
                        };
                        let mut buffer = GradBuffer::zeros_like(&frozen_store);
                        tape.backward_into(objective, &mut buffer);
                        (buffer, lt.scalars.total)
                    });
                // Fixed, index-ordered reduction: identical float
                // operation sequence no matter how many workers ran.
                for (buffer, sample_loss) in &shards {
                    model.store.accumulate(buffer);
                    loss_sum += sample_loss;
                }
                if two_step || warming_up {
                    // freeze the complementary parameter group
                    let ids: Vec<_> = model.store.iter_ids().collect();
                    for id in ids {
                        let is_time = model.is_time_param(id);
                        if (phase_b && !is_time) || (!phase_b && is_time) {
                            model.store.zero_grad_of(id);
                        }
                    }
                }
                model.store.scale_grad(1.0 / batch.len() as f32);
                model.store.clip_grad_norm(self.config.grad_clip);
                opt.step(&mut model.store);
            }
            train_loop_seconds += loop_start.elapsed().as_secs_f64();
            drop(phase_span);
            let train_loss = loss_sum / train_graphs.len().max(1) as f32;

            let (val_krc, val_mae) = {
                let _val_span = rtp_obs::span!("train.validate");
                validate(model, &val_graphs, &dataset.val)
            };
            g_loss.set(train_loss as f64);
            g_val_krc.set(val_krc);
            g_val_mae.set(val_mae);
            history.push(EpochStats { epoch, train_loss, val_krc, val_mae });
            // Epoch progress through the flight recorder: a crash later
            // in the run dumps the recent training trajectory alongside
            // the panic event.
            rtp_obs::flight::record(rtp_obs::flight::Kind::Epoch, "train.epoch", 0, || {
                format!(
                    "epoch={epoch} loss={train_loss:.4} val_krc={val_krc:.3} val_mae={val_mae:.2}"
                )
            });
            if self.config.verbose {
                eprintln!(
                    "epoch {epoch:>3}  loss {train_loss:>8.4}  val KRC {val_krc:>6.3}  val MAE {val_mae:>7.2}"
                );
            }

            // During two-step phase A and the route warm-up the time
            // modules are untrained; only start tracking the best epoch
            // (and counting patience) once every task is being optimised.
            let score = val_krc - val_mae / 120.0;
            let in_warmup_phase = warming_up || (two_step && epoch < phase_a_epochs);
            if !in_warmup_phase {
                if score > best_score {
                    best_score = score;
                    best_krc = val_krc;
                    best_mae = val_mae;
                    best_snapshot = model.store.snapshot();
                    since_best = 0;
                } else {
                    since_best += 1;
                    stopped_early = since_best > self.config.patience;
                }
            }

            if let Some(o) = ckpt {
                let bytes = {
                    let _ckpt_span = rtp_obs::span!("train.checkpoint", epoch);
                    TrainCheckpoint {
                        version: CHECKPOINT_VERSION,
                        train_config: self.config.clone(),
                        model_config: model.config().clone(),
                        dataset_fingerprint: ds_fingerprint,
                        epochs_done: epoch + 1,
                        stopped_early,
                        rng_state: rng.state(),
                        indices: indices.clone(),
                        adam: opt.state(),
                        weights: model.store.snapshot(),
                        best_snapshot: best_snapshot.clone(),
                        best_score_bits: best_score.to_bits(),
                        best_krc_bits: best_krc.to_bits(),
                        best_mae_bits: best_mae.to_bits(),
                        since_best,
                        history: history.clone(),
                        train_seconds: prior_train_seconds + start.elapsed().as_secs_f64(),
                        train_loop_seconds,
                    }
                    .save(&o.dir)?
                };
                g_ckpt_bytes.set(bytes as f64);
                if o.stop_after_epoch == Some(epoch) {
                    // Simulated crash: abandon the run right after the
                    // checkpoint, skipping best-weight restoration and
                    // pipeline attachment exactly like a real kill would.
                    return Ok(TrainReport {
                        epochs_run: history.len(),
                        best_val_krc: best_krc,
                        best_val_mae: best_mae,
                        history,
                        train_seconds: prior_train_seconds + start.elapsed().as_secs_f64(),
                        train_loop_seconds,
                    });
                }
            }
            if stopped_early {
                break;
            }
        }
        // If no epoch ever improved the scoreboard (e.g. a two-step run
        // that ended inside phase A), keep the current weights rather
        // than reverting to initialisation.
        if best_score > f64::NEG_INFINITY {
            model.store.restore(&best_snapshot);
        }
        model.set_pipeline(builder, scaler);
        Ok(TrainReport {
            epochs_run: history.len(),
            best_val_krc: best_krc,
            best_val_mae: best_mae,
            history,
            train_seconds: prior_train_seconds + start.elapsed().as_secs_f64(),
            train_loop_seconds,
        })
    }
}

/// Mean location-route KRC and arrival-time MAE over a validation set.
fn validate(
    model: &M2G4Rtp,
    graphs: &[MultiLevelGraph],
    samples: &[rtp_sim::RtpSample],
) -> (f64, f64) {
    if graphs.is_empty() {
        return (0.0, 0.0);
    }
    // One sample at a time on one no-grad tape: stacking samples
    // through the encoders measured no faster.
    let mut krc_sum = 0.0;
    let mut mae_sum = 0.0;
    let mut n_locs = 0usize;
    let mut tape = Tape::inference();
    for (g, s) in graphs.iter().zip(samples) {
        let p = model.predict_into(&mut tape, g);
        krc_sum += rtp_metrics::krc(&p.route, &s.truth.route);
        for (pt, yt) in p.times.iter().zip(&s.truth.arrival) {
            mae_sum += (*pt - *yt).abs() as f64;
        }
        n_locs += s.truth.arrival.len();
    }
    (krc_sum / graphs.len() as f64, mae_sum / n_locs.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    fn tiny_model(variant: Variant, seed: u64) -> (Dataset, M2G4Rtp) {
        let d = DatasetBuilder::new(DatasetConfig::tiny(71)).build();
        let mut cfg = ModelConfig::for_dataset(&d).with_variant(variant);
        cfg.d_loc = 16;
        cfg.d_aoi = 16;
        cfg.n_heads = 2;
        cfg.n_layers = 1;
        (d.clone(), M2G4Rtp::new(cfg, seed))
    }

    #[test]
    fn training_reduces_loss_and_attaches_pipeline() {
        let (d, mut model) = tiny_model(Variant::Full, 3);
        let cfg = TrainConfig { epochs: 4, patience: 10, ..TrainConfig::quick() };
        let report = Trainer::new(cfg).fit(&mut model, &d);
        assert!(model.has_pipeline());
        assert_eq!(report.history.len(), report.epochs_run);
        let first = report.history.first().unwrap().train_loss;
        let last = report.history.last().unwrap().train_loss;
        assert!(last < first, "training loss must decrease: {first} -> {last}");
        assert!(report.best_val_krc > -1.0 && report.best_val_krc <= 1.0);
    }

    #[test]
    fn training_beats_random_routes_on_validation() {
        // Needs a few hundred samples for the signal to emerge; the
        // `quick` dataset at 3 epochs reliably clears KRC 0.2 (random
        // permutations have expected KRC 0).
        let d = DatasetBuilder::new(DatasetConfig::quick(71)).build();
        let mut cfg = ModelConfig::for_dataset(&d);
        cfg.d_loc = 16;
        cfg.d_aoi = 16;
        cfg.n_heads = 2;
        cfg.n_layers = 1;
        let mut model = M2G4Rtp::new(cfg, 4);
        let tc = TrainConfig { epochs: 3, patience: 10, ..TrainConfig::quick() };
        let report = Trainer::new(tc).fit(&mut model, &d);
        assert!(
            report.best_val_krc > 0.2,
            "trained KRC {} not better than chance",
            report.best_val_krc
        );
    }

    #[test]
    fn two_step_phase_a_leaves_time_modules_untouched() {
        let (d, mut model) = tiny_model(Variant::TwoStep, 5);
        let before: Vec<Vec<f32>> = model
            .store
            .iter_ids()
            .filter(|&id| model.is_time_param(id))
            .map(|id| model.store.data(id).to_vec())
            .collect();
        // epochs=2 with a 60/40 split -> both epochs are phase A
        let cfg = TrainConfig { epochs: 2, patience: 10, ..TrainConfig::quick() };
        Trainer::new(cfg).fit(&mut model, &d);
        // NOTE: best-weights restoration happens at the end; phase A
        // checkpoints are skipped, so the final snapshot is from the last
        // epoch. Compare time params directly.
        let after: Vec<Vec<f32>> = model
            .store
            .iter_ids()
            .filter(|&id| model.is_time_param(id))
            .map(|id| model.store.data(id).to_vec())
            .collect();
        assert_eq!(before, after, "time params must be frozen in phase A");
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let (d, mut model) = tiny_model(Variant::Full, 6);
        let cfg = TrainConfig { epochs: 12, patience: 1, ..TrainConfig::quick() };
        let report = Trainer::new(cfg).fit(&mut model, &d);
        assert!(report.epochs_run <= 12);
        // the restored model's val metrics equal the reported best
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(&d, &builder);
        let val_graphs: Vec<_> = d
            .val
            .iter()
            .map(|s| {
                let mut g = builder.build(&s.query, &d.city, &d.couriers[s.query.courier_id]);
                scaler.apply(&mut g);
                g
            })
            .collect();
        let (krc, mae) = validate(&model, &val_graphs, &d.val);
        assert!((krc - report.best_val_krc).abs() < 1e-9);
        assert!((mae - report.best_val_mae).abs() < 1e-9);
    }
}
