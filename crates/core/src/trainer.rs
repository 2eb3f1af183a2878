//! Training loop: Adam over mini-batches, validation-based early
//! stopping with best-weights restoration, exact checkpoint/resume, and
//! the schedules of the route warm-up and the "two-step" ablation.
//!
//! [`TrainingGraphs::build`] turns a dataset into scaled graphs once;
//! every optimizer step is one call of
//! [`rtp_tensor::parallel::minibatch_step`], which runs the batch's
//! samples data-parallel on tapes of their own and reduces their
//! gradients in sample-index order. That step owns the determinism
//! contract, so the training trajectory is bit-identical for any
//! [`TrainConfig::threads`] setting. This module only chooses, per
//! epoch, which objective the step differentiates and which parameter
//! group it holds still.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::{Dataset, RtpSample};
use rtp_tensor::optim::Adam;
use rtp_tensor::parallel::minibatch_step;
use rtp_tensor::ParamId;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    borrow_set, dataset_fingerprint, CheckpointError, CheckpointOptions, TrainCheckpoint,
    CHECKPOINT_VERSION,
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
    /// Wall-clock seconds spent building and durably writing this
    /// call's checkpoints (the `train.checkpoint` blocks); 0 without
    /// checkpointing. Unlike `train_seconds` it is not carried across
    /// a resume.
    pub checkpoint_seconds: f64,
}

/// A dataset's training and validation graphs, each built once, and
/// the feature pipeline that scaled them. The scaler is fitted on the
/// training graphs alone, so no statistic leaks from the validation
/// split. Every trainer in the workspace starts from one.
#[derive(Debug)]
pub struct TrainingGraphs {
    /// The builder every graph was built with.
    pub builder: GraphBuilder,
    /// Feature statistics fitted on the training graphs.
    pub scaler: FeatureScaler,
    /// `dataset.train`'s graphs, scaled, in sample order.
    pub train: Vec<MultiLevelGraph>,
    /// `dataset.val`'s graphs, scaled, in sample order.
    pub val: Vec<MultiLevelGraph>,
}

impl TrainingGraphs {
    /// Builds every training graph once, in parallel, fits the scaler
    /// on them ([`FeatureScaler::fit_graphs`]) and scales them, then
    /// builds and scales the validation graphs.
    ///
    /// # Panics
    /// Panics if `dataset.train` is empty: there is nothing to fit the
    /// scaler on.
    pub fn build(dataset: &Dataset) -> Self {
        let builder = GraphBuilder::new(GraphConfig::default());
        let build = |s: &RtpSample| {
            builder.build(&s.query, &dataset.city, &dataset.couriers[s.query.courier_id])
        };
        let mut train: Vec<MultiLevelGraph> = dataset.train.par_iter().map(build).collect();
        let scaler = FeatureScaler::fit_graphs(&train);
        for g in &mut train {
            scaler.apply(g);
        }
        let val = dataset
            .val
            .par_iter()
            .map(|s| {
                let mut g = build(s);
                scaler.apply(&mut g);
                g
            })
            .collect();
        Self { builder, scaler, train, val }
    }
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
    /// (everything else frozen, and a fresh Adam, so phase A's momentum
    /// cannot move the route modules) — the paper's "assign an
    /// optimizer to the parameters of SortLSTM separately".
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
    /// is written atomically to `ckpt.dir/checkpoint.bin` after every
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
        let graphs = TrainingGraphs::build(dataset);

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

        let mut indices: Vec<usize> = (0..graphs.train.len()).collect();
        let mut train_loop_seconds = 0.0f64;
        let mut checkpoint_seconds = 0.0f64;
        let mut prior_train_seconds = 0.0f64;
        let mut start_epoch = 0usize;
        let mut stopped_early = false;
        let ds_fingerprint = if ckpt.is_some() { dataset_fingerprint(dataset) } else { 0 };
        if let Some(o) = ckpt {
            if o.resume {
                let cp = TrainCheckpoint::load(&o.dir)?;
                cp.validate_against(&self.config, model.config(), &model.store, dataset)?;
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
        for epoch in start_epoch..self.config.epochs {
            let _epoch_span = rtp_obs::span!("train.epoch", epoch);
            indices.shuffle(&mut rng);
            let phase_b = two_step && epoch >= phase_a_epochs;
            if two_step && epoch == phase_a_epochs {
                // Phase B gets an optimizer of its own: phase A's Adam
                // momentum would keep moving the frozen route modules
                // although their gradients are zero.
                opt = Adam::new(self.config.lr);
            }
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
            // The complementary group stands still: the time modules
            // during the warm-up and phase A, everything else in phase B.
            let frozen: Vec<ParamId> = if two_step || warming_up {
                model.store.iter_ids().filter(|&id| model.is_time_param(id) != phase_b).collect()
            } else {
                Vec::new()
            };
            let mut loss_sum = 0.0f32;
            let loop_start = std::time::Instant::now();
            for batch in indices.chunks(self.config.batch_size) {
                let losses = minibatch_step(
                    model,
                    &mut opt,
                    batch,
                    self.config.threads,
                    self.config.grad_clip,
                    &frozen,
                    |m, tape, i| {
                        let lt = m.forward_train(
                            tape,
                            &m.store,
                            &graphs.train[i],
                            &dataset.train[i].truth,
                        );
                        let objective = if phase_b {
                            lt.time_total
                        } else if two_step || warming_up {
                            lt.route_total
                        } else {
                            lt.total
                        };
                        (objective, lt.scalars.total)
                    },
                );
                // Sample by sample: the epoch loss adds the same floats
                // in the same order for every thread count.
                for loss in losses {
                    loss_sum += loss;
                }
            }
            train_loop_seconds += loop_start.elapsed().as_secs_f64();
            drop(phase_span);
            let train_loss = loss_sum / graphs.train.len().max(1) as f32;

            let (val_krc, val_mae) = {
                let _val_span = rtp_obs::span!("train.validate");
                validate(model, &graphs.val, &dataset.val)
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
                let ckpt_start = std::time::Instant::now();
                let bytes = {
                    let _ckpt_span = rtp_obs::span!("train.checkpoint", epoch);
                    let head = TrainCheckpoint {
                        version: CHECKPOINT_VERSION,
                        train_config: self.config.clone(),
                        model_config: model.config().clone(),
                        dataset_fingerprint: ds_fingerprint,
                        epochs_done: epoch + 1,
                        stopped_early,
                        rng_state: rng.state(),
                        indices: indices.clone(),
                        adam: opt.scalar_state(),
                        weights: Vec::new(),
                        best_snapshot: Vec::new(),
                        best_score_bits: best_score.to_bits(),
                        best_krc_bits: best_krc.to_bits(),
                        best_mae_bits: best_mae.to_bits(),
                        since_best,
                        history: history.clone(),
                        train_seconds: prior_train_seconds + start.elapsed().as_secs_f64(),
                        train_loop_seconds,
                    };
                    // The tensor sets are encoded where they live.
                    let store = &model.store;
                    let (m, v) = opt.moments();
                    let weights = store.iter_ids().map(|id| store.data(id)).collect();
                    let sets = [weights, borrow_set(&best_snapshot), borrow_set(m), borrow_set(v)];
                    TrainCheckpoint::save_parts(&o.dir, &head, sets)?
                };
                checkpoint_seconds += ckpt_start.elapsed().as_secs_f64();
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
                        checkpoint_seconds,
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
        model.set_pipeline(graphs.builder, graphs.scaler);
        Ok(TrainReport {
            epochs_run: history.len(),
            best_val_krc: best_krc,
            best_val_mae: best_mae,
            history,
            train_seconds: prior_train_seconds + start.elapsed().as_secs_f64(),
            train_loop_seconds,
            checkpoint_seconds,
        })
    }
}

/// Mean location-route KRC and arrival-time MAE over a validation set.
fn validate(model: &M2G4Rtp, graphs: &[MultiLevelGraph], samples: &[RtpSample]) -> (f64, f64) {
    if graphs.is_empty() {
        return (0.0, 0.0);
    }
    // One sample at a time, each on a fresh no-grad tape: stacking
    // samples through the encoders measured no faster.
    let mut krc_sum = 0.0;
    let mut mae_sum = 0.0;
    let mut n_locs = 0usize;
    for (g, s) in graphs.iter().zip(samples) {
        let p = model.predict(g);
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

    /// Phase B trains the time modules alone: with epochs 3 the split is
    /// two phase-A epochs and one phase-B epoch, and a 2-epoch run is
    /// exactly that phase A, so every route-side weight of the 3-epoch
    /// model must equal the 2-epoch model's.
    #[test]
    fn two_step_phase_b_leaves_route_modules_untouched() {
        let fit = |epochs: usize| {
            let (d, mut model) = tiny_model(Variant::TwoStep, 5);
            let cfg = TrainConfig { epochs, patience: 10, threads: 1, ..TrainConfig::quick() };
            Trainer::new(cfg).fit(&mut model, &d);
            let (time, route): (Vec<_>, Vec<_>) =
                model.store.iter_ids().partition(|&id| model.is_time_param(id));
            let weights = |ids: Vec<ParamId>| -> Vec<Vec<u32>> {
                ids.into_iter()
                    .map(|id| model.store.data(id).iter().map(|x| x.to_bits()).collect())
                    .collect()
            };
            (weights(route), weights(time))
        };
        let (route_a, time_a) = fit(2);
        let (route_b, time_b) = fit(3);
        assert_ne!(time_a, time_b, "phase B must train the time modules");
        assert_eq!(route_a, route_b, "route params must be frozen in phase B");
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
