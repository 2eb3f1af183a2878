//! DeepETA (Wu & Wu, AAAI 2019) — the *time-only* method of the
//! paper's Table I. It never predicts a route: arrival times are
//! regressed directly from spatial-temporal encodings of the query via
//! attention over the unvisited locations.
//!
//! The paper lists DeepETA in its design-space comparison but excludes
//! it from Tables III/IV (no route output). We implement it as an
//! extension so the library covers every row of Table I; evaluate it
//! with [`DeepEta::predict_times`] against time metrics only.

use m2g4rtp::NodeEmbedder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::{Dataset, RtpSample};
use rtp_tensor::nn::{Linear, Mlp};
use rtp_tensor::optim::{Adam, Optimizer};
use rtp_tensor::parallel::parallel_map_ordered;
use rtp_tensor::{GradBuffer, ParamStore, Tape, TensorId};
use serde::{Deserialize, Serialize};

use m2g4rtp::TIME_SCALE;

/// DeepETA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepEtaConfig {
    /// Hidden width.
    pub d: usize,
    /// Discrete embedding width.
    pub d_disc: usize,
    /// Epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Samples per step.
    pub batch_size: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Seed.
    pub seed: u64,
    /// Worker threads for the data-parallel mini-batch loop
    /// (0 = all cores). Results are bit-identical for every setting.
    pub threads: usize,
}

impl DeepEtaConfig {
    /// Seconds-scale preset.
    pub fn quick(seed: u64) -> Self {
        Self {
            d: 32,
            d_disc: 8,
            epochs: 8,
            lr: 2e-3,
            batch_size: 16,
            patience: 3,
            seed,
            threads: 0,
        }
    }
}

/// The trained DeepETA model.
#[derive(Debug)]
pub struct DeepEta {
    config: DeepEtaConfig,
    store: ParamStore,
    node_emb: NodeEmbedder,
    att_q: Linear,
    att_k: Linear,
    att_v: Linear,
    head: Mlp,
    pipeline: Option<(GraphBuilder, FeatureScaler)>,
}

impl DeepEta {
    /// Builds an untrained model.
    pub fn new(config: DeepEtaConfig, dataset: &Dataset) -> Self {
        let mut store = ParamStore::new(config.seed ^ 0xE7A);
        let d = config.d;
        let node_emb = NodeEmbedder::new(
            &mut store,
            "eta.node_emb",
            rtp_graph::LOC_CONT_DIM,
            rtp_graph::GLOBAL_CONT_DIM,
            dataset.city.aois.len() + 1,
            dataset.couriers.len() + 1,
            config.d_disc,
            d,
        );
        let att_q = Linear::new_no_bias(&mut store, "eta.q", d, d);
        let att_k = Linear::new_no_bias(&mut store, "eta.k", d, d);
        let att_v = Linear::new_no_bias(&mut store, "eta.v", d, d);
        let head = Mlp::new(&mut store, "eta.head", &[2 * d, 2 * d, d, 1]);
        Self { config, store, node_emb, att_q, att_k, att_v, head, pipeline: None }
    }

    /// Forward: per-location scaled arrival times `[n, 1]`.
    ///
    /// One round of self-attention pools context over the other
    /// unvisited locations (the "similarity to other destinations"
    /// mechanism of the original paper), then an MLP regresses each
    /// location's gap from `[own ‖ pooled]`.
    fn forward(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let x = self.node_emb.embed(t, store, &g.locations, &g.global);
        let (n, d) = t.shape(x);
        let q = self.att_q.forward(t, store, x);
        let k = self.att_k.forward(t, store, x);
        let v = self.att_v.forward(t, store, x);
        let kt = t.transpose(k);
        let scores = t.matmul(q, kt);
        let scores = t.scale(scores, 1.0 / (d as f32).sqrt());
        let full = vec![true; n * n];
        let attn = t.masked_softmax_rows(scores, &full);
        let pooled = t.matmul(attn, v);
        let joint = t.concat_cols(&[x, pooled]);
        self.head.forward(t, store, joint)
    }

    /// Trains on MAE over the training split with validation early
    /// stopping.
    pub fn fit(&mut self, dataset: &Dataset) {
        let _fit_span = rtp_obs::span!("deepeta.fit");
        let g_val_mae = rtp_obs::metrics::global().gauge("deepeta.val_mae");
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(dataset, &builder);
        let prep = |samples: &[RtpSample]| -> Vec<MultiLevelGraph> {
            samples
                .iter()
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
        let mut indices: Vec<usize> = (0..train_graphs.len()).collect();
        let mut best = f64::MAX;
        let mut best_snap = self.store.snapshot();
        let mut since = 0usize;
        for epoch in 0..self.config.epochs {
            let _epoch_span = rtp_obs::span!("deepeta.epoch", epoch);
            indices.shuffle(&mut rng);
            for batch in indices.chunks(self.config.batch_size) {
                self.store.zero_grad();
                let this = &*self;
                let store = &this.store;
                let shards = parallel_map_ordered(batch.len(), self.config.threads, |k| {
                    let i = batch[k];
                    let t = &mut Tape::new();
                    let pred = this.forward(t, store, &train_graphs[i]);
                    let target: Vec<f32> =
                        dataset.train[i].truth.arrival.iter().map(|&v| v / TIME_SCALE).collect();
                    let y = t.constant(target.len(), 1, target);
                    let loss = t.mae_loss(pred, y);
                    let mut buffer = GradBuffer::zeros_like(store);
                    t.backward_into(loss, &mut buffer);
                    buffer
                });
                for buffer in &shards {
                    self.store.accumulate(buffer);
                }
                self.store.scale_grad(1.0 / batch.len() as f32);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
            // validation MAE in minutes
            let mut sum = 0.0f64;
            let mut nl = 0usize;
            for (g, s) in val_graphs.iter().zip(&dataset.val) {
                let t = &mut Tape::inference();
                let pred = self.forward(t, &self.store, g);
                for (p, y) in t.data(pred).iter().zip(&s.truth.arrival) {
                    sum += ((p * TIME_SCALE) - y).abs() as f64;
                }
                nl += s.truth.arrival.len();
            }
            let mae = sum / nl.max(1) as f64;
            g_val_mae.set(mae);
            if mae < best {
                best = mae;
                best_snap = self.store.snapshot();
                since = 0;
            } else {
                since += 1;
                if since > self.config.patience {
                    break;
                }
            }
        }
        self.store.restore(&best_snap);
        self.pipeline = Some((builder, scaler));
    }

    /// Predicts per-location arrival gaps in minutes (aligned with the
    /// query's order indices). DeepETA has no route output.
    ///
    /// # Panics
    /// Panics if called before [`DeepEta::fit`].
    pub fn predict_times(&self, dataset: &Dataset, sample: &RtpSample) -> Vec<f32> {
        let (builder, scaler) = self.pipeline.as_ref().expect("DeepEta::fit must run first");
        let mut g =
            builder.build(&sample.query, &dataset.city, &dataset.couriers[sample.query.courier_id]);
        scaler.apply(&mut g);
        let mut t = Tape::inference();
        let pred = self.forward(&mut t, &self.store, &g);
        t.data(pred).iter().map(|&v| (v * TIME_SCALE).max(0.0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_metrics::mae;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    #[test]
    fn deepeta_trains_and_beats_a_constant_predictor() {
        let d = DatasetBuilder::new(DatasetConfig::quick(161)).build();
        let mut m = DeepEta::new(DeepEtaConfig { epochs: 4, ..DeepEtaConfig::quick(1) }, &d);
        m.fit(&d);
        // constant baseline: the train-split mean arrival gap
        let mean: f32 = {
            let (mut s, mut n) = (0.0f64, 0usize);
            for t in &d.train {
                s += t.truth.arrival.iter().map(|&v| v as f64).sum::<f64>();
                n += t.truth.arrival.len();
            }
            (s / n as f64) as f32
        };
        let (mut eta_err, mut const_err) = (0.0, 0.0);
        for s in d.test.iter().take(60) {
            let p = m.predict_times(&d, s);
            assert_eq!(p.len(), s.query.num_locations());
            assert!(p.iter().all(|&v| v >= 0.0 && v.is_finite()));
            eta_err += mae(&p, &s.truth.arrival);
            let consts = vec![mean; p.len()];
            const_err += mae(&consts, &s.truth.arrival);
        }
        assert!(
            eta_err < const_err,
            "DeepETA ({eta_err:.1}) must beat the constant predictor ({const_err:.1})"
        );
    }

    /// `DeepEtaConfig::threads` promises bit-identical results for
    /// every setting: the fitted weights must not depend on it.
    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(163)).build();
        let fit = |threads: usize| {
            let mut m =
                DeepEta::new(DeepEtaConfig { epochs: 2, threads, ..DeepEtaConfig::quick(2) }, &d);
            let untrained = m.store.snapshot();
            m.fit(&d);
            let bits = |w: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
                w.iter().map(|t| t.iter().map(|x| x.to_bits()).collect()).collect()
            };
            (bits(untrained), bits(m.store.snapshot()))
        };
        let (untrained, fitted1) = fit(1);
        assert_ne!(untrained, fitted1, "fit must move the weights");
        for threads in [2, 4] {
            let (_, fitted_n) = fit(threads);
            assert_eq!(fitted1, fitted_n, "fitted weights differ at {threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "fit must run first")]
    fn predicting_untrained_deepeta_panics() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(162)).build();
        let m = DeepEta::new(DeepEtaConfig::quick(1), &d);
        let _ = m.predict_times(&d, &d.test[0]);
    }
}
