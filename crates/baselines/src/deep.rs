//! The deep-learning baselines: DeepRoute (Transformer encoder), FDNET
//! (LSTM encoder, two-step route→time), Graph2Route (single-level GCN
//! encoder).
//!
//! All three share the experimental protocol of paper §V-B: a route
//! model (encoder + attention pointer decoder) trained on route
//! cross-entropy, and a **separately trained** time head ("a
//! three-layer fully connected neural network ... trained separately
//! from the original model") that consumes the frozen encoder
//! representations and the *predicted* route — which is exactly where
//! the two-step error accumulation the paper criticises comes from.
//!
//! FDNET's Wide&Deep time module is approximated by the same MLP head
//! over [representation ‖ position encoding ‖ handcrafted step
//! features]; the wide (raw-feature) path is the handcrafted block.

use m2g4rtp::{derive_aoi_outputs, NodeEmbedder, Prediction, RouteDecoder, TIME_SCALE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::{Dataset, RtpSample};
use rtp_tensor::nn::{positional_encoding, Embedding, Linear, LstmCell, Mlp};
use rtp_tensor::optim::{Adam, Optimizer};
use rtp_tensor::parallel::{parallel_map_ordered_with, resolve_threads};
use rtp_tensor::{GradBuffer, ParamStore, Tape, TensorId};
use serde::{Deserialize, Serialize};

use crate::Baseline;

/// Which deep baseline to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeepKind {
    /// Transformer encoder + pointer decoder (Wen et al., ICDE 2021).
    DeepRoute,
    /// LSTM (RNN) encoder + pointer decoder, two-step time module
    /// (Gao et al., KDD 2021).
    Fdnet,
    /// Edge-conditioned GCN encoder, single level (Wen et al., KDD 2022).
    Graph2Route,
}

impl DeepKind {
    /// Table display name.
    pub fn label(self) -> &'static str {
        match self {
            DeepKind::DeepRoute => "DeepRoute",
            DeepKind::Fdnet => "FDNET",
            DeepKind::Graph2Route => "Graph2Route",
        }
    }
}

/// Hyperparameters shared by the deep baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepConfig {
    /// Hidden width.
    pub d: usize,
    /// Discrete-feature embedding width.
    pub d_disc: usize,
    /// Courier embedding width.
    pub d_courier: usize,
    /// Positional-encoding width for the time head.
    pub d_pos: usize,
    /// Transformer heads (DeepRoute only).
    pub n_heads: usize,
    /// Encoder depth.
    pub n_layers: usize,
    /// Route-phase epochs.
    pub route_epochs: usize,
    /// Time-phase epochs.
    pub time_epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Early-stopping patience per phase.
    pub patience: usize,
    /// Shuffle/init seed.
    pub seed: u64,
    /// Print progress.
    pub verbose: bool,
    /// Worker threads for the data-parallel mini-batch loop
    /// (0 = all cores). Results are bit-identical for every setting.
    pub threads: usize,
}

impl DeepConfig {
    /// Seconds-scale config for tests.
    pub fn quick(seed: u64) -> Self {
        Self {
            d: 32,
            d_disc: 8,
            d_courier: 8,
            d_pos: 8,
            n_heads: 4,
            n_layers: 2,
            route_epochs: 5,
            time_epochs: 4,
            lr: 2e-3,
            batch_size: 16,
            grad_clip: 5.0,
            patience: 3,
            seed,
            verbose: false,
            threads: 0,
        }
    }

    /// The configuration used by the experiment harness.
    pub fn full(seed: u64) -> Self {
        Self { route_epochs: 18, time_epochs: 10, patience: 4, verbose: true, ..Self::quick(seed) }
    }
}

// -------------------------------------------------------------------
// encoders
// -------------------------------------------------------------------

#[derive(Debug)]
struct TransformerLayer {
    wq: Vec<rtp_tensor::ParamId>,
    wk: Vec<rtp_tensor::ParamId>,
    wv: Vec<rtp_tensor::ParamId>,
    wo: Linear,
    ffn1: Linear,
    ffn2: Linear,
    ln1_g: rtp_tensor::ParamId,
    ln1_b: rtp_tensor::ParamId,
    ln2_g: rtp_tensor::ParamId,
    ln2_b: rtp_tensor::ParamId,
    dh: usize,
}

impl TransformerLayer {
    fn new(store: &mut ParamStore, name: &str, d: usize, n_heads: usize) -> Self {
        assert_eq!(d % n_heads, 0, "transformer width must divide heads");
        let dh = d / n_heads;
        let mk = |store: &mut ParamStore, what: &str, p: usize| {
            store.add_xavier(&format!("{name}.{what}{p}"), d, dh)
        };
        Self {
            wq: (0..n_heads).map(|p| mk(store, "wq", p)).collect(),
            wk: (0..n_heads).map(|p| mk(store, "wk", p)).collect(),
            wv: (0..n_heads).map(|p| mk(store, "wv", p)).collect(),
            wo: Linear::new_no_bias(store, &format!("{name}.wo"), d, d),
            ffn1: Linear::new(store, &format!("{name}.ffn1"), d, 2 * d),
            ffn2: Linear::new(store, &format!("{name}.ffn2"), 2 * d, d),
            ln1_g: store.add_param(&format!("{name}.ln1.g"), 1, d, vec![1.0; d]),
            ln1_b: store.add_zeros(&format!("{name}.ln1.b"), 1, d),
            ln2_g: store.add_param(&format!("{name}.ln2.g"), 1, d, vec![1.0; d]),
            ln2_b: store.add_zeros(&format!("{name}.ln2.b"), 1, d),
            dh,
        }
    }

    fn forward(&self, t: &mut Tape, store: &ParamStore, x: TensorId) -> TensorId {
        let (n, _) = t.shape(x);
        let full = vec![true; n * n];
        let scale = 1.0 / (self.dh as f32).sqrt();
        let mut heads = Vec::with_capacity(self.wq.len());
        for p in 0..self.wq.len() {
            let wq = t.param(store, self.wq[p]);
            let wk = t.param(store, self.wk[p]);
            let wv = t.param(store, self.wv[p]);
            let q = t.matmul(x, wq);
            let k = t.matmul(x, wk);
            let v = t.matmul(x, wv);
            let kt = t.transpose(k);
            let scores = t.matmul(q, kt);
            let scores = t.scale(scores, scale);
            let attn = t.masked_softmax_rows(scores, &full);
            heads.push(t.matmul(attn, v));
        }
        let cat = t.concat_cols(&heads);
        let att = self.wo.forward(t, store, cat);
        let res1 = t.add(x, att);
        let norm1 = t.layer_norm_rows(res1, 1e-5);
        let g1 = t.param(store, self.ln1_g);
        let b1 = t.param(store, self.ln1_b);
        let norm1 = t.mul_row(norm1, g1);
        let norm1 = t.add_row(norm1, b1);
        let h = self.ffn1.forward(t, store, norm1);
        let h = t.relu(h);
        let h = self.ffn2.forward(t, store, h);
        let res2 = t.add(norm1, h);
        let norm2 = t.layer_norm_rows(res2, 1e-5);
        let g2 = t.param(store, self.ln2_g);
        let b2 = t.param(store, self.ln2_b);
        let norm2 = t.mul_row(norm2, g2);
        t.add_row(norm2, b2)
    }
}

#[derive(Debug)]
struct GcnLayer {
    w_self: Linear,
    w_nbr: Linear,
    w_edge: Linear,
}

impl GcnLayer {
    fn new(store: &mut ParamStore, name: &str, d: usize) -> Self {
        Self {
            w_self: Linear::new(store, &format!("{name}.self"), d, d),
            w_nbr: Linear::new_no_bias(store, &format!("{name}.nbr"), d, d),
            w_edge: Linear::new_no_bias(store, &format!("{name}.edge"), d, d),
        }
    }

    /// `x [n,d]`, `z [n*n,d]` (projected edge features), `adj [n*n]`.
    fn forward(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        x: TensorId,
        z: TensorId,
        adj: &[bool],
    ) -> TensorId {
        let (n, _) = t.shape(x);
        // degree-normalised adjacency (constants: no gradient through
        // the graph structure)
        let mut anorm = vec![0.0f32; n * n];
        let mut sel = vec![0.0f32; n * n * n];
        for i in 0..n {
            let deg = adj[i * n..(i + 1) * n].iter().filter(|&&b| b).count().max(1) as f32;
            for j in 0..n {
                if adj[i * n + j] {
                    anorm[i * n + j] = 1.0 / deg;
                    sel[i * (n * n) + i * n + j] = 1.0 / deg;
                }
            }
        }
        let a = t.constant(n, n, anorm);
        let s = t.constant(n, n * n, sel);
        let self_term = self.w_self.forward(t, store, x);
        let nbr = self.w_nbr.forward(t, store, x);
        let nbr_agg = t.matmul(a, nbr);
        let ze = self.w_edge.forward(t, store, z);
        let edge_agg = t.matmul(s, ze);
        let sum = t.add(self_term, nbr_agg);
        let sum = t.add(sum, edge_agg);
        t.relu(sum)
    }
}

#[derive(Debug)]
enum DeepEncoder {
    Transformer(Vec<TransformerLayer>),
    Lstm(LstmCell),
    Gcn { edge_proj: Linear, layers: Vec<GcnLayer> },
}

// -------------------------------------------------------------------
// the baseline model
// -------------------------------------------------------------------

/// A deep route-prediction baseline with a separately trained plugged
/// time head. Construct with [`DeepBaseline::new`], train with
/// [`DeepBaseline::fit`].
#[derive(Debug)]
pub struct DeepBaseline {
    kind: DeepKind,
    config: DeepConfig,
    /// All learnable weights.
    pub store: ParamStore,
    node_emb: NodeEmbedder,
    courier_emb: Embedding,
    encoder: DeepEncoder,
    route_dec: RouteDecoder,
    time_head: Mlp,
    /// Param ids at or beyond this index belong to the time head.
    time_param_start: usize,
    pipeline: Option<(GraphBuilder, FeatureScaler)>,
}

impl DeepBaseline {
    /// Builds an untrained baseline of the given kind.
    pub fn new(kind: DeepKind, config: DeepConfig, dataset: &Dataset) -> Self {
        let mut store = ParamStore::new(config.seed ^ 0xBA5E);
        let d = config.d;
        let node_emb = NodeEmbedder::new(
            &mut store,
            "node_emb",
            rtp_graph::LOC_CONT_DIM,
            rtp_graph::GLOBAL_CONT_DIM,
            dataset.city.aois.len() + 1,
            dataset.couriers.len() + 1,
            config.d_disc,
            d,
        );
        let courier_emb =
            Embedding::new(&mut store, "courier_emb", dataset.couriers.len() + 1, config.d_courier);
        let encoder = match kind {
            DeepKind::DeepRoute => DeepEncoder::Transformer(
                (0..config.n_layers)
                    .map(|k| {
                        TransformerLayer::new(&mut store, &format!("enc.l{k}"), d, config.n_heads)
                    })
                    .collect(),
            ),
            DeepKind::Fdnet => DeepEncoder::Lstm(LstmCell::new(&mut store, "enc.lstm", d, d)),
            DeepKind::Graph2Route => DeepEncoder::Gcn {
                edge_proj: Linear::new(&mut store, "enc.edge_proj", rtp_graph::EDGE_DIM, d),
                layers: (0..config.n_layers)
                    .map(|k| GcnLayer::new(&mut store, &format!("enc.l{k}"), d))
                    .collect(),
            },
        };
        let d_u = config.d_courier + 3;
        let route_dec = RouteDecoder::new(&mut store, "route_dec", d, d_u, d, d);
        let time_param_start = store.len();
        // three-layer plugged time head (paper §V-B)
        let time_in = d + config.d_pos + 2;
        let time_head = Mlp::new(&mut store, "time_head", &[time_in, 2 * d, d, 1]);
        Self {
            kind,
            config,
            store,
            node_emb,
            courier_emb,
            encoder,
            route_dec,
            time_head,
            time_param_start,
            pipeline: None,
        }
    }

    /// The baseline kind.
    pub fn kind(&self) -> DeepKind {
        self.kind
    }

    fn encode(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let x = self.node_emb.embed(t, store, &g.locations, &g.global);
        match &self.encoder {
            DeepEncoder::Transformer(layers) => {
                let mut h = x;
                for l in layers {
                    h = l.forward(t, store, h);
                }
                h
            }
            DeepEncoder::Lstm(cell) => {
                let (n, _) = t.shape(x);
                let mut state = cell.zero_state(t);
                let mut rows = Vec::with_capacity(n);
                for i in 0..n {
                    let xi = t.row(x, i);
                    state = cell.step(t, store, xi, state);
                    rows.push(state.0);
                }
                t.concat_rows(&rows)
            }
            DeepEncoder::Gcn { edge_proj, layers } => {
                let nn = g.locations.n * g.locations.n;
                let raw = t.constant(nn, g.locations.edge_dim, g.locations.edge.clone());
                let z = edge_proj.forward(t, store, raw);
                let mut h = x;
                for l in layers {
                    h = l.forward(t, store, h, z, &g.locations.adj);
                }
                h
            }
        }
    }

    fn courier_repr(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let emb = self.courier_emb.forward(t, store, &[g.global.courier_id]);
        let profile = t.constant(1, 3, g.global.cont[..3].to_vec());
        t.concat_cols(&[emb, profile])
    }

    /// Time-head forward for a decoded route: per location, consumes
    /// [frozen representation ‖ positional encoding ‖ (position
    /// fraction, cumulative path distance)]. Returns `[n,1]` scaled
    /// times aligned with location index.
    fn time_forward(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        g: &MultiLevelGraph,
        reps: TensorId,
        route: &[usize],
    ) -> TensorId {
        let n = route.len();
        let mut rows: Vec<Option<TensorId>> = vec![None; n];
        let mut cum = 0.0f32;
        let mut prev: Option<usize> = None;
        for (pos, &loc) in route.iter().enumerate() {
            let step_dist = match prev {
                None => g.locations.cont[loc * g.locations.cont_dim + 2].abs(),
                Some(p) => g.locations.edge[(p * n + loc) * g.locations.edge_dim..][..1][0].abs(),
            };
            cum += step_dist;
            let rep = t.row(reps, loc);
            let pe = positional_encoding(pos + 1, self.config.d_pos);
            let pe = t.constant(1, self.config.d_pos, pe);
            let extra = t.constant(1, 2, vec![(pos + 1) as f32 / n as f32, cum]);
            let inp = t.concat_cols(&[rep, pe, extra]);
            rows[loc] = Some(self.time_head.forward(t, store, inp));
            prev = Some(loc);
        }
        let rows: Vec<TensorId> = rows.into_iter().map(|r| r.expect("route is complete")).collect();
        t.concat_rows(&rows)
    }

    /// Two-phase training: route model first (validation-KRC early
    /// stopping), then the plugged time head against the *predicted*
    /// routes with everything else frozen (validation-MAE early
    /// stopping).
    pub fn fit(&mut self, dataset: &Dataset) {
        let _fit_span = rtp_obs::span!("deep.fit");
        let obs = rtp_obs::metrics::global();
        let (g_val_krc, g_val_mae) = (obs.gauge("deep.val_krc"), obs.gauge("deep.val_mae"));
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(dataset, &builder);
        let prep = |samples: &[RtpSample]| -> Vec<MultiLevelGraph> {
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
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut indices: Vec<usize> = (0..train_graphs.len()).collect();

        // One tape per worker, reused (via `Tape::clear`) across every
        // sample, batch and epoch of both training phases.
        let workers =
            resolve_threads(self.config.threads).min(self.config.batch_size.max(1)).max(1);
        let mut worker_tapes: Vec<Tape> = (0..workers).map(|_| Tape::new()).collect();

        // ---------- phase 1: route ----------
        let route_phase_span = rtp_obs::span!("deep.route_phase");
        let mut opt = Adam::new(self.config.lr);
        let mut best = f64::NEG_INFINITY;
        let mut best_snap = self.store.snapshot();
        let mut since = 0usize;
        for epoch in 0..self.config.route_epochs {
            let _epoch_span = rtp_obs::span!("deep.epoch", epoch);
            indices.shuffle(&mut rng);
            for batch in indices.chunks(self.config.batch_size) {
                self.store.zero_grad();
                let frozen = self.store.clone();
                let this = &*self;
                let shards = parallel_map_ordered_with(&mut worker_tapes, batch.len(), |t, k| {
                    let i = batch[k];
                    t.clear();
                    let reps = this.encode(t, &frozen, &train_graphs[i]);
                    let u = this.courier_repr(t, &frozen, &train_graphs[i]);
                    let loss = this.route_dec.train_loss(
                        t,
                        &frozen,
                        reps,
                        u,
                        &dataset.train[i].truth.route,
                    );
                    let mut buffer = GradBuffer::zeros_like(&frozen);
                    t.backward_into(loss, &mut buffer);
                    buffer
                });
                for buffer in &shards {
                    self.store.accumulate(buffer);
                }
                self.store.scale_grad(1.0 / batch.len() as f32);
                self.store.clip_grad_norm(self.config.grad_clip);
                opt.step(&mut self.store);
            }
            let krc = self.mean_val_krc(&val_graphs, &dataset.val);
            g_val_krc.set(krc);
            if self.config.verbose {
                eprintln!("[{}] route epoch {epoch:>3}  val KRC {krc:>6.3}", self.kind.label());
            }
            if krc > best {
                best = krc;
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
        drop(route_phase_span);

        // ---------- phase 2: time head on predicted routes ----------
        let _time_phase_span = rtp_obs::span!("deep.time_phase");
        let mut opt = Adam::new(self.config.lr);
        let mut best = f64::MAX;
        let mut best_snap = self.store.snapshot();
        let mut since = 0usize;
        for epoch in 0..self.config.time_epochs {
            let _epoch_span = rtp_obs::span!("deep.epoch", epoch);
            indices.shuffle(&mut rng);
            for batch in indices.chunks(self.config.batch_size) {
                self.store.zero_grad();
                let frozen = self.store.clone();
                let this = &*self;
                let shards = parallel_map_ordered_with(&mut worker_tapes, batch.len(), |t, k| {
                    let i = batch[k];
                    let g = &train_graphs[i];
                    t.clear();
                    let reps = this.encode(t, &frozen, g);
                    let u = this.courier_repr(t, &frozen, g);
                    let route = this.route_dec.decode(t, &frozen, reps, u);
                    let pred = this.time_forward(t, &frozen, g, reps, &route);
                    let target: Vec<f32> =
                        dataset.train[i].truth.arrival.iter().map(|&v| v / TIME_SCALE).collect();
                    let y = t.constant(target.len(), 1, target);
                    let loss = t.mae_loss(pred, y);
                    let mut buffer = GradBuffer::zeros_like(&frozen);
                    t.backward_into(loss, &mut buffer);
                    buffer
                });
                for buffer in &shards {
                    self.store.accumulate(buffer);
                }
                // freeze everything but the time head
                let ids: Vec<_> = self.store.iter_ids().collect();
                for id in ids {
                    if id.index() < self.time_param_start {
                        self.store.zero_grad_of(id);
                    }
                }
                self.store.scale_grad(1.0 / batch.len() as f32);
                self.store.clip_grad_norm(self.config.grad_clip);
                opt.step(&mut self.store);
            }
            let mae = self.mean_val_mae(&val_graphs, &dataset.val);
            g_val_mae.set(mae);
            if self.config.verbose {
                eprintln!("[{}] time epoch {epoch:>3}   val MAE {mae:>7.2}", self.kind.label());
            }
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

    fn mean_val_krc(&self, graphs: &[MultiLevelGraph], samples: &[RtpSample]) -> f64 {
        if graphs.is_empty() {
            return 0.0;
        }
        // Validation never needs gradients: one no-grad tape serves
        // every sample.
        let mut t = Tape::inference();
        let mut sum = 0.0f64;
        for (g, s) in graphs.iter().zip(samples) {
            t.clear();
            let reps = self.encode(&mut t, &self.store, g);
            let u = self.courier_repr(&mut t, &self.store, g);
            let route = self.route_dec.decode(&mut t, &self.store, reps, u);
            sum += rtp_metrics::krc(&route, &s.truth.route);
        }
        sum / graphs.len() as f64
    }

    fn mean_val_mae(&self, graphs: &[MultiLevelGraph], samples: &[RtpSample]) -> f64 {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        // One no-grad tape across the sweep.
        let mut t = Tape::inference();
        for (g, s) in graphs.iter().zip(samples) {
            let p = self.predict_graph_into(&mut t, g);
            for (pt, yt) in p.times.iter().zip(&s.truth.arrival) {
                sum += (pt - yt).abs() as f64;
            }
            n += s.truth.arrival.len();
        }
        sum / n.max(1) as f64
    }

    /// Inference on a pre-built (scaled) graph. Runs on a no-grad tape:
    /// no gradient buffers, no op payloads.
    pub fn predict_graph(&self, g: &MultiLevelGraph) -> Prediction {
        let mut t = Tape::inference();
        self.predict_graph_into(&mut t, g)
    }

    /// Like [`DeepBaseline::predict_graph`] but reuses `t` (cleared
    /// first), so a validation sweep holds one tape.
    pub fn predict_graph_into(&self, t: &mut Tape, g: &MultiLevelGraph) -> Prediction {
        t.clear();
        let reps = self.encode(t, &self.store, g);
        let u = self.courier_repr(t, &self.store, g);
        let route = self.route_dec.decode(t, &self.store, reps, u);
        let pred = self.time_forward(t, &self.store, g, reps, &route);
        let times: Vec<f32> = t.data(pred).iter().map(|&v| (v * TIME_SCALE).max(0.0)).collect();
        let m = g.aois.n;
        let (aoi_route, aoi_times) = derive_aoi_outputs(&route, &times, &g.loc_to_aoi, m);
        Prediction { aoi_route, aoi_times, route, times }
    }
}

impl Baseline for DeepBaseline {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn predict(&self, dataset: &Dataset, sample: &RtpSample) -> Prediction {
        let (builder, scaler) =
            self.pipeline.as_ref().expect("DeepBaseline::fit must run before predict");
        let mut g =
            builder.build(&sample.query, &dataset.city, &dataset.couriers[sample.query.courier_id]);
        scaler.apply(&mut g);
        self.predict_graph(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    fn tiny_config(seed: u64) -> DeepConfig {
        DeepConfig {
            d: 16,
            n_heads: 2,
            n_layers: 1,
            route_epochs: 2,
            time_epochs: 2,
            patience: 5,
            ..DeepConfig::quick(seed)
        }
    }

    #[test]
    fn all_kinds_train_and_emit_valid_predictions() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(101)).build();
        for kind in [DeepKind::DeepRoute, DeepKind::Fdnet, DeepKind::Graph2Route] {
            let mut m = DeepBaseline::new(kind, tiny_config(3), &d);
            m.fit(&d);
            for s in d.test.iter().take(3) {
                let p = m.predict(&d, s);
                let n = s.query.num_locations();
                assert_eq!(p.route.len(), n, "{kind:?}");
                let mut seen = vec![false; n];
                for &i in &p.route {
                    assert!(!seen[i], "{kind:?} repeats");
                    seen[i] = true;
                }
                assert!(p.times.iter().all(|&x| x >= 0.0 && x.is_finite()), "{kind:?}");
                assert_eq!(p.aoi_route.len(), s.query.distinct_aois().len());
            }
        }
    }

    #[test]
    fn phase_two_only_updates_the_time_head() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(102)).build();
        let mut m = DeepBaseline::new(DeepKind::Fdnet, tiny_config(4), &d);
        // run only phase 2 by setting route epochs to zero
        m.config.route_epochs = 0;
        let route_params_before: Vec<Vec<f32>> = m
            .store
            .iter_ids()
            .filter(|id| id.index() < m.time_param_start)
            .map(|id| m.store.data(id).to_vec())
            .collect();
        m.fit(&d);
        let route_params_after: Vec<Vec<f32>> = m
            .store
            .iter_ids()
            .filter(|id| id.index() < m.time_param_start)
            .map(|id| m.store.data(id).to_vec())
            .collect();
        assert_eq!(route_params_before, route_params_after, "route params moved in phase 2");
    }

    #[test]
    fn transformer_layer_is_permutation_equivariant() {
        // Self-attention without positional input must commute with row
        // permutations — the architectural property distinguishing
        // DeepRoute's encoder from FDNET's order-sensitive RNN.
        let mut store = ParamStore::new(9);
        let layer = TransformerLayer::new(&mut store, "t", 8, 2);
        let n = 4;
        let data: Vec<f32> = (0..n * 8).map(|i| ((i * 13 % 29) as f32 - 14.0) / 14.0).collect();
        let mut t = Tape::new();
        let x = t.constant(n, 8, data.clone());
        let out = layer.forward(&mut t, &store, x);
        let base = t.data(out).to_vec();
        // swap rows 1 and 2
        let mut swapped = data.clone();
        for k in 0..8 {
            swapped.swap(8 + k, 16 + k);
        }
        let mut t2 = Tape::new();
        let x2 = t2.constant(n, 8, swapped);
        let out2 = layer.forward(&mut t2, &store, x2);
        let got = t2.data(out2);
        for k in 0..8 {
            assert!((base[8 + k] - got[16 + k]).abs() < 1e-5, "not equivariant");
            assert!((base[16 + k] - got[8 + k]).abs() < 1e-5, "not equivariant");
        }
    }
}
