//! The M²G4RTP model: wiring of the multi-level encoder, the
//! multi-task decoders, the AOI→location guidance pathway and the
//! uncertainty-weighted joint loss (paper §IV).

use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::{Courier, Dataset, RtpQuery, RtpSample};
use rtp_tensor::nn::{positional_encoding, Embedding};
use rtp_tensor::{Numerics, ParamId, ParamStore, Tape, TensorId};
use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, Variant};
use crate::decoder::{RouteDecoder, SortLstm};
use crate::encoder::{BiLstmEncoder, EdgeEmbedder, Encoder, GatEncoder, NodeEmbedder};
use crate::TIME_SCALE;

/// Inference output for one query: routes and arrival times at both
/// levels (paper Eq. 10 plus the AOI-level outputs of §IV-D).
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted AOI visit sequence (indices into
    /// `query.distinct_aois()`).
    pub aoi_route: Vec<usize>,
    /// Predicted AOI arrival gaps in minutes, aligned with AOI node
    /// index.
    pub aoi_times: Vec<f32>,
    /// Predicted location visit sequence (indices into `query.orders`).
    pub route: Vec<usize>,
    /// Predicted location arrival gaps in minutes, aligned with
    /// location index.
    pub times: Vec<f32>,
}

/// The encoder activations of one query, extracted as raw bits so a
/// serving layer can cache them per courier and replay the (cheap)
/// decoders without re-running graph feature extraction or the GAT-e
/// stack. Replaying through [`M2G4Rtp::predict_encoded_into`] is
/// bit-identical to a cold [`M2G4Rtp::predict_into`] because the
/// decoders consume the encoder outputs only through these values.
#[derive(Debug, Clone)]
pub struct EncodedQuery {
    /// Location-level encoder output, row-major `[n, d_loc]`.
    pub x_loc: Vec<f32>,
    /// AOI-level encoder output `[m, d_aoi]`; `None` for the `NoAoi`
    /// ablation, which has no AOI encoder.
    pub x_aoi: Option<Vec<f32>>,
}

/// Scalar loss components of one training sample (for logging).
#[derive(Debug, Clone, Copy, Default)]
pub struct SampleLosses {
    /// Combined (variant-weighted) loss.
    pub total: f32,
    /// AOI route cross-entropy (0 for `NoAoi`).
    pub route_aoi: f32,
    /// Location route cross-entropy.
    pub route_loc: f32,
    /// AOI time MAE, in `TIME_SCALE` units (0 for `NoAoi`).
    pub time_aoi: f32,
    /// Location time MAE, in `TIME_SCALE` units.
    pub time_loc: f32,
}

/// The tape tensors of one training forward pass; the trainer picks
/// which one to backprop depending on the variant/phase.
pub(crate) struct LossTensors {
    /// Variant-weighted total (what joint training optimises).
    pub total: TensorId,
    /// Unweighted sum of the route losses (two-step phase A).
    pub route_total: TensorId,
    /// Unweighted sum of the time losses (two-step phase B).
    pub time_total: TensorId,
    /// Scalar values for logging.
    pub scalars: SampleLosses,
}

/// Feature pipeline attached to a trained model so it can serve raw
/// queries end to end (graph construction + train-split scaling).
#[derive(Debug, Clone)]
struct Pipeline {
    builder: GraphBuilder,
    scaler: FeatureScaler,
}

/// The M²G4RTP model (or one of its ablation variants).
#[derive(Debug)]
pub struct M2G4Rtp {
    config: ModelConfig,
    /// All learnable weights.
    pub store: ParamStore,
    node_emb_loc: NodeEmbedder,
    edge_emb_loc: EdgeEmbedder,
    enc_loc: Encoder,
    aoi_level: Option<AoiLevel>,
    courier_emb: Embedding,
    route_dec_loc: RouteDecoder,
    time_dec_loc: SortLstm,
    time_dec_aoi: Option<SortLstm>,
    /// Learnable log-variances `s_i = log σ_i²` of Eq. 41.
    unc: Vec<ParamId>,
    /// Param-id range `[start, end)` of the time modules (SortLSTMs and
    /// their heads) — the freeze boundary for two-step training.
    time_param_range: (usize, usize),
    pipeline: Option<Pipeline>,
}

/// The weights, for [`rtp_tensor::parallel::minibatch_step`].
impl AsRef<ParamStore> for M2G4Rtp {
    fn as_ref(&self) -> &ParamStore {
        &self.store
    }
}

impl AsMut<ParamStore> for M2G4Rtp {
    fn as_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[derive(Debug)]
struct AoiLevel {
    node_emb: NodeEmbedder,
    edge_emb: EdgeEmbedder,
    enc: Encoder,
    route_dec: RouteDecoder,
}

impl M2G4Rtp {
    /// Builds a model (weights initialised from `seed`).
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        config.validate();
        let mut store = ParamStore::new(seed);
        let c = &config;

        let node_emb_loc = NodeEmbedder::new(
            &mut store,
            "loc.node_emb",
            rtp_graph::LOC_CONT_DIM,
            rtp_graph::GLOBAL_CONT_DIM,
            c.aoi_vocab,
            c.courier_vocab,
            c.d_disc,
            c.d_loc,
        );
        let edge_emb_loc =
            EdgeEmbedder::new(&mut store, "loc.edge_emb", rtp_graph::EDGE_DIM, c.d_loc);
        let enc_loc = match c.variant {
            Variant::NoGraph => Encoder::BiLstm(BiLstmEncoder::new(&mut store, "loc.enc", c.d_loc)),
            _ => Encoder::Gat(GatEncoder::new(
                &mut store,
                "loc.enc",
                c.d_loc,
                c.n_heads,
                c.n_layers,
                c.leaky_slope,
            )),
        };

        let has_aoi = c.variant != Variant::NoAoi;
        let aoi_parts = if has_aoi {
            let node_emb = NodeEmbedder::new(
                &mut store,
                "aoi.node_emb",
                rtp_graph::AOI_CONT_DIM,
                rtp_graph::GLOBAL_CONT_DIM,
                c.aoi_vocab,
                c.courier_vocab,
                c.d_disc,
                c.d_aoi,
            );
            let edge_emb =
                EdgeEmbedder::new(&mut store, "aoi.edge_emb", rtp_graph::EDGE_DIM, c.d_aoi);
            let enc = match c.variant {
                Variant::NoGraph => {
                    Encoder::BiLstm(BiLstmEncoder::new(&mut store, "aoi.enc", c.d_aoi))
                }
                _ => Encoder::Gat(GatEncoder::new(
                    &mut store,
                    "aoi.enc",
                    c.d_aoi,
                    c.n_heads,
                    c.n_layers,
                    c.leaky_slope,
                )),
            };
            Some((node_emb, edge_emb, enc))
        } else {
            None
        };

        let courier_emb = Embedding::new(&mut store, "courier_emb", c.courier_vocab, c.d_courier);

        let aoi_route_dec = has_aoi.then(|| {
            RouteDecoder::new(&mut store, "aoi.route_dec", c.d_aoi, c.d_u(), c.d_aoi, c.d_aoi)
        });
        // Location inputs carry AOI guidance (Eq. 34): position encoding
        // of the containing AOI + its predicted arrival time.
        let d_in_loc = if has_aoi { c.d_loc + c.d_pos + 1 } else { c.d_loc };
        let route_dec_loc =
            RouteDecoder::new(&mut store, "loc.route_dec", d_in_loc, c.d_u(), c.d_loc, c.d_loc);

        // --- time modules last: their ids form the two-step freeze range ---
        let time_start = store.len();
        let time_dec_aoi =
            has_aoi.then(|| SortLstm::new(&mut store, "aoi.time_dec", c.d_aoi, c.d_pos, c.d_aoi));
        let time_dec_loc = SortLstm::new(&mut store, "loc.time_dec", d_in_loc, c.d_pos, c.d_loc);
        let time_end = store.len();

        let n_losses = if has_aoi { 4 } else { 2 };
        // s_i = log sigma_i^2 (Eq. 41). Route terms start at s=0
        // (weight 1/2); time terms start at s=2 (weight ~0.07), letting
        // the route structure form before the regression pressure ramps
        // up — the learnable s then rebalances (Kendall et al. leave the
        // initialisation free).
        let unc = (0..n_losses)
            .map(|i| {
                let is_time = i >= n_losses / 2;
                store.add_param(&format!("unc.s{i}"), 1, 1, vec![if is_time { 2.0 } else { 0.0 }])
            })
            .collect();

        let aoi_level = aoi_parts.map(|(node_emb, edge_emb, enc)| AoiLevel {
            node_emb,
            edge_emb,
            enc,
            route_dec: aoi_route_dec.expect("constructed together"),
        });

        Self {
            config: config.clone(),
            store,
            node_emb_loc,
            edge_emb_loc,
            enc_loc,
            aoi_level,
            courier_emb,
            route_dec_loc,
            time_dec_loc,
            time_dec_aoi,
            unc,
            time_param_range: (time_start, time_end),
            pipeline: None,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Total number of scalar weights.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Whether a parameter belongs to the time modules (SortLSTMs and
    /// their output heads) — the set two-step phase B trains.
    pub fn is_time_param(&self, id: ParamId) -> bool {
        let i = id.index();
        i >= self.time_param_range.0 && i < self.time_param_range.1
    }

    /// Attaches the feature pipeline (graph builder + scaler fitted on
    /// the training split) so the model can serve raw queries.
    pub fn set_pipeline(&mut self, builder: GraphBuilder, scaler: FeatureScaler) {
        self.pipeline = Some(Pipeline { builder, scaler });
    }

    /// Whether a pipeline is attached.
    pub fn has_pipeline(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Builds and scales the multi-level graph for a raw query.
    ///
    /// # Panics
    /// Panics if no pipeline is attached (train first, or call
    /// [`M2G4Rtp::set_pipeline`]).
    pub fn build_graph(
        &self,
        city: &rtp_sim::City,
        courier: &Courier,
        query: &RtpQuery,
    ) -> MultiLevelGraph {
        let p = self.pipeline.as_ref().expect("no pipeline attached; train the model first");
        let mut g = p.builder.build(query, city, courier);
        p.scaler.apply(&mut g);
        g
    }

    // -----------------------------------------------------------------
    // shared forward pieces
    // -----------------------------------------------------------------

    fn encode_loc(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let x = self.node_emb_loc.embed(t, store, &g.locations, &g.global);
        let z = self.edge_emb_loc.embed(t, store, &g.locations);
        self.enc_loc.forward(t, store, x, z, &g.locations.adj)
    }

    fn encode_aoi(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let a = self.aoi_level.as_ref().expect("AOI level present");
        let x = a.node_emb.embed(t, store, &g.aois, &g.global);
        let z = a.edge_emb.embed(t, store, &g.aois);
        a.enc.forward(t, store, x, z, &g.aois.adj)
    }

    /// Courier representation `u`: embedding ‖ profile features
    /// (working hours, speed, attendance — already standardised).
    fn courier_repr(&self, t: &mut Tape, store: &ParamStore, g: &MultiLevelGraph) -> TensorId {
        let emb = self.courier_emb.forward(t, store, &[g.global.courier_id]);
        let profile = t.constant(1, 3, g.global.cont[..3].to_vec());
        t.concat_cols(&[emb, profile])
    }

    /// Builds the location-decoder inputs with AOI guidance (Eq. 34):
    /// `x_in_i = [x̃_i^l ‖ p_aoi ‖ ŷ_aoi^a]`, where `p_aoi` is the
    /// positional encoding of the containing AOI's route position and
    /// `ŷ^a` the (differentiable) predicted AOI arrival time.
    fn guided_loc_inputs(
        &self,
        t: &mut Tape,
        x_loc: TensorId,
        y_aoi_pred: TensorId,
        aoi_ranks: &[usize],
        loc_to_aoi: &[usize],
    ) -> TensorId {
        let n = loc_to_aoi.len();
        let d_pos = self.config.d_pos;
        let mut pos_data = Vec::with_capacity(n * d_pos);
        for &a in loc_to_aoi {
            pos_data.extend(positional_encoding(aoi_ranks[a] + 1, d_pos));
        }
        let p = t.constant(n, d_pos, pos_data);
        let y = t.gather_rows(y_aoi_pred, loc_to_aoi);
        t.concat_cols(&[x_loc, p, y])
    }

    // -----------------------------------------------------------------
    // training forward
    // -----------------------------------------------------------------

    /// Builds the full training tape for one sample and returns the loss
    /// tensors. Teacher forcing is used at both levels: decoders consume
    /// ground-truth prefixes, SortLSTMs run along the ground-truth route
    /// (the paper's decoders are trained the same way; the AOI-guidance
    /// arrival time stays the *predicted* tensor so gradients couple the
    /// levels).
    pub(crate) fn forward_train(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        g: &MultiLevelGraph,
        truth: &rtp_sim::GroundTruth,
    ) -> LossTensors {
        let u = self.courier_repr(t, store, g);
        let x_loc = self.encode_loc(t, store, g);

        let mut route_aoi_loss = None;
        let mut time_aoi_loss = None;
        let x_in_loc = if let Some(aoi) = &self.aoi_level {
            let x_aoi = self.encode_aoi(t, store, g);
            route_aoi_loss = Some(aoi.route_dec.train_loss(t, store, x_aoi, u, &truth.aoi_route));
            let y_pred = self.time_dec_aoi.as_ref().expect("AOI time decoder").forward(
                t,
                store,
                x_aoi,
                &truth.aoi_route,
            );
            let target: Vec<f32> = truth.aoi_arrival.iter().map(|&v| v / TIME_SCALE).collect();
            let y_target = t.constant(target.len(), 1, target);
            time_aoi_loss = Some(t.mae_loss(y_pred, y_target));
            // Detach the guidance: the location tasks consume the AOI
            // arrival predictions as *inputs*, but their gradients must
            // not steer the AOI module — letting them through measurably
            // degrades the AOI route accuracy that the whole
            // divide-and-conquer hinges on.
            let y_detached = {
                let data = t.data(y_pred).to_vec();
                t.constant(data.len(), 1, data)
            };
            self.guided_loc_inputs(t, x_loc, y_detached, &truth.aoi_ranks(), &g.loc_to_aoi)
        } else {
            x_loc
        };

        let route_loc_loss = self.route_dec_loc.train_loss(t, store, x_in_loc, u, &truth.route);
        let y_loc_pred = self.time_dec_loc.forward(t, store, x_in_loc, &truth.route);
        let loc_target: Vec<f32> = truth.arrival.iter().map(|&v| v / TIME_SCALE).collect();
        let y_loc_target = t.constant(loc_target.len(), 1, loc_target);
        let time_loc_loss = t.mae_loss(y_loc_pred, y_loc_target);

        let (total, route_total, time_total) = self.combine_losses(
            t,
            store,
            route_aoi_loss,
            route_loc_loss,
            time_aoi_loss,
            time_loc_loss,
        );

        let scalars = SampleLosses {
            total: t.scalar(total),
            route_aoi: route_aoi_loss.map(|l| t.scalar(l)).unwrap_or(0.0),
            route_loc: t.scalar(route_loc_loss),
            time_aoi: time_aoi_loss.map(|l| t.scalar(l)).unwrap_or(0.0),
            time_loc: t.scalar(time_loc_loss),
        };
        LossTensors { total, route_total, time_total, scalars }
    }

    /// Combines the task losses per the variant: homoscedastic
    /// uncertainty weighting (Eq. 41) by default, fixed 100:1 weights
    /// for `NoUncertainty`, plain sums for the two-step phases.
    fn combine_losses(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        route_aoi: Option<TensorId>,
        route_loc: TensorId,
        time_aoi: Option<TensorId>,
        time_loc: TensorId,
    ) -> (TensorId, TensorId, TensorId) {
        let route_total = match route_aoi {
            Some(ra) => t.add(ra, route_loc),
            None => route_loc,
        };
        let time_total = match time_aoi {
            Some(ta) => t.add(ta, time_loc),
            None => time_loc,
        };
        let total = match self.config.variant {
            Variant::NoUncertainty => {
                let r = t.scale(route_total, 100.0);
                t.add(r, time_total)
            }
            Variant::TwoStep => {
                // Joint total is never optimised for this variant; keep
                // a plain sum for logging.
                t.add(route_total, time_total)
            }
            _ => {
                // Eq. 41 with s_i = log σ_i²:
                //   route: ½·exp(−s)·L + ½·s      time: exp(−s)·L + ½·s
                let mut terms = Vec::new();
                let mut push = |t: &mut Tape, s_id: ParamId, loss: TensorId, half: bool| {
                    let s = t.param(store, s_id);
                    let neg_s = t.neg(s);
                    let w = t.exp(neg_s);
                    let weighted = t.mul(w, loss);
                    let weighted = if half { t.scale(weighted, 0.5) } else { weighted };
                    let reg = t.scale(s, 0.5);
                    terms.push(t.add(weighted, reg));
                };
                let mut k = 0;
                if let Some(ra) = route_aoi {
                    push(t, self.unc[k], ra, true);
                    k += 1;
                }
                push(t, self.unc[k], route_loc, true);
                k += 1;
                if let Some(ta) = time_aoi {
                    push(t, self.unc[k], ta, false);
                    k += 1;
                }
                push(t, self.unc[k], time_loc, false);
                let mut acc = terms[0];
                for &term in &terms[1..] {
                    acc = t.add(acc, term);
                }
                acc
            }
        };
        (total, route_total, time_total)
    }

    // -----------------------------------------------------------------
    // inference
    // -----------------------------------------------------------------

    /// Greedy joint inference on a pre-built (scaled) graph.
    ///
    /// Runs on a fresh no-grad tape that is dropped on return.
    pub fn predict(&self, g: &MultiLevelGraph) -> Prediction {
        self.predict_into(&mut Tape::inference(), g)
    }

    /// Like [`M2G4Rtp::predict`], but runs on `t` (cleared first). `t`
    /// is typically a [`Tape::inference`] tape; a grad tape works too
    /// but pays for gradient buffers nobody reads.
    pub fn predict_into(&self, t: &mut Tape, g: &MultiLevelGraph) -> Prediction {
        t.clear();
        let (u, x_loc, x_aoi) = self.encode(t, g);
        self.decode_levels(t, g, u, x_loc, x_aoi, 1)
    }

    /// Like [`M2G4Rtp::predict_into`], but also extracts the sample's
    /// encoder activations so a serving layer can cache them (see
    /// [`EncodedQuery`]). The prediction is the very same forward.
    pub fn predict_and_encode_into(
        &self,
        t: &mut Tape,
        g: &MultiLevelGraph,
    ) -> (Prediction, EncodedQuery) {
        t.clear();
        let (u, x_loc, x_aoi) = self.encode(t, g);
        let enc = EncodedQuery {
            x_loc: t.data(x_loc).to_vec(),
            x_aoi: x_aoi.map(|x| t.data(x).to_vec()),
        };
        (self.decode_levels(t, g, u, x_loc, x_aoi, 1), enc)
    }

    /// The inference encoders: courier representation `u` and the
    /// location- and (when present) AOI-level node encodings.
    fn encode(&self, t: &mut Tape, g: &MultiLevelGraph) -> (TensorId, TensorId, Option<TensorId>) {
        let store = &self.store;
        let u = self.courier_repr(t, store, g);
        let x_loc = self.encode_loc(t, store, g);
        let x_aoi = self.aoi_level.as_ref().map(|_| self.encode_aoi(t, store, g));
        (u, x_loc, x_aoi)
    }

    /// A fresh no-grad tape: [`Tape::inference`]. `Exact` is the only
    /// numerics tier; the argument remains for the benchmark's
    /// `inference_tape(Numerics::Exact)` calls.
    pub fn inference_tape(&self, _numerics: Numerics) -> Tape {
        Tape::inference()
    }

    /// The shared decode tail: AOI route/time decoding, the guidance
    /// pathway (Eq. 34) and the location decoders, starting from
    /// already-encoded node representations. Every entry point (cold,
    /// encode-and-cache, cached-activation, beam) funnels through this,
    /// so equal encoder bits guarantee equal predictions. Routes decode
    /// greedily at `beam == 1` and by beam search above it.
    fn decode_levels(
        &self,
        t: &mut Tape,
        g: &MultiLevelGraph,
        u: TensorId,
        x_loc: TensorId,
        x_aoi: Option<TensorId>,
        beam: usize,
    ) -> Prediction {
        let store = &self.store;
        let decode = |dec: &RouteDecoder, t: &mut Tape, x: TensorId| {
            if beam == 1 {
                dec.decode(t, store, x, u)
            } else {
                dec.decode_beam(t, store, x, u, beam)
            }
        };
        let (aoi_route, aoi_times, x_in_loc) = if let Some(aoi) = &self.aoi_level {
            let x_aoi = x_aoi.expect("AOI-level model requires AOI activations");
            let aoi_route = decode(&aoi.route_dec, t, x_aoi);
            let y_aoi = self
                .time_dec_aoi
                .as_ref()
                .expect("AOI time decoder")
                .forward(t, store, x_aoi, &aoi_route);
            let mut aoi_ranks = vec![0usize; aoi_route.len()];
            for (pos, &a) in aoi_route.iter().enumerate() {
                aoi_ranks[a] = pos;
            }
            let x_in = self.guided_loc_inputs(t, x_loc, y_aoi, &aoi_ranks, &g.loc_to_aoi);
            let times: Vec<f32> =
                t.data(y_aoi).iter().map(|&v| (v * TIME_SCALE).max(0.0)).collect();
            (aoi_route, times, x_in)
        } else {
            (Vec::new(), Vec::new(), x_loc)
        };

        let route = decode(&self.route_dec_loc, t, x_in_loc);
        let y_loc = self.time_dec_loc.forward(t, store, x_in_loc, &route);
        let times: Vec<f32> = t.data(y_loc).iter().map(|&v| (v * TIME_SCALE).max(0.0)).collect();

        if self.aoi_level.is_some() {
            Prediction { aoi_route, aoi_times, route, times }
        } else {
            // Derive AOI-level outputs from the location predictions so
            // the ablation still reports all four outputs.
            let (aoi_route, aoi_times) =
                derive_aoi_outputs(&route, &times, &g.loc_to_aoi, g.aois.n);
            Prediction { aoi_route, aoi_times, route, times }
        }
    }

    /// [`M2G4Rtp::predict_into`] over each graph in turn on one tape.
    pub fn predict_batch_into(&self, t: &mut Tape, graphs: &[&MultiLevelGraph]) -> Vec<Prediction> {
        graphs.iter().map(|g| self.predict_into(t, g)).collect()
    }

    /// [`M2G4Rtp::predict_and_encode_into`] over each graph in turn on
    /// one tape.
    pub fn predict_batch_encoded_into(
        &self,
        t: &mut Tape,
        graphs: &[&MultiLevelGraph],
    ) -> Vec<(Prediction, EncodedQuery)> {
        graphs.iter().map(|g| self.predict_and_encode_into(t, g)).collect()
    }

    /// Greedy joint inference replaying cached encoder activations:
    /// skips feature embedding and the GAT-e stacks entirely and runs
    /// only the decoders. Bit-identical to [`M2G4Rtp::predict_into`]
    /// on `g` when `enc` was extracted from the same (graph, weights):
    /// the decoders see the same constant bits either way.
    ///
    /// # Panics
    /// Panics if `enc`'s shapes do not match `g` (wrong node counts or
    /// a missing AOI level).
    pub fn predict_encoded_into(
        &self,
        t: &mut Tape,
        g: &MultiLevelGraph,
        enc: &EncodedQuery,
    ) -> Prediction {
        t.clear();
        let store = &self.store;
        let u = self.courier_repr(t, store, g);
        let n = g.locations.n;
        assert_eq!(enc.x_loc.len() % n.max(1), 0, "cached x_loc shape mismatch");
        let x_loc = t.constant(n, enc.x_loc.len() / n, enc.x_loc.clone());
        let x_aoi = self.aoi_level.as_ref().map(|_| {
            let data = enc.x_aoi.as_ref().expect("AOI-level model requires cached x_aoi");
            let m = g.aois.n;
            assert_eq!(data.len() % m.max(1), 0, "cached x_aoi shape mismatch");
            t.constant(m, data.len() / m, data.clone())
        });
        self.decode_levels(t, g, u, x_loc, x_aoi, 1)
    }

    /// Joint inference with beam-search route decoding (extension over
    /// the paper's greedy decoder): both levels decode with the given
    /// beam width; `beam == 1` is identical to [`M2G4Rtp::predict`].
    pub fn predict_beam(&self, g: &MultiLevelGraph, beam: usize) -> Prediction {
        let t = &mut Tape::inference();
        let (u, x_loc, x_aoi) = self.encode(t, g);
        self.decode_levels(t, g, u, x_loc, x_aoi, beam)
    }

    /// Diagnostic inference: like [`M2G4Rtp::predict`], but feeds the
    /// location level **ground-truth** AOI guidance (route positions and
    /// true arrival times) instead of the AOI decoder's predictions.
    ///
    /// The gap between this and `predict` isolates how much location
    /// error is inherited from AOI-level mistakes — the error-analysis
    /// companion to the paper's "AOI guiding Location" design.
    pub fn predict_with_oracle_guidance(
        &self,
        g: &MultiLevelGraph,
        truth: &rtp_sim::GroundTruth,
    ) -> Prediction {
        let t = &mut Tape::inference();
        let store = &self.store;
        let u = self.courier_repr(t, store, g);
        let x_loc = self.encode_loc(t, store, g);
        let x_in_loc = if self.aoi_level.is_some() {
            let scaled: Vec<f32> = truth.aoi_arrival.iter().map(|&v| v / TIME_SCALE).collect();
            let y_true = t.constant(scaled.len(), 1, scaled);
            self.guided_loc_inputs(t, x_loc, y_true, &truth.aoi_ranks(), &g.loc_to_aoi)
        } else {
            x_loc
        };
        let route = self.route_dec_loc.decode(t, store, x_in_loc, u);
        let y_loc = self.time_dec_loc.forward(t, store, x_in_loc, &route);
        let times: Vec<f32> = t.data(y_loc).iter().map(|&v| (v * TIME_SCALE).max(0.0)).collect();
        let (aoi_route, aoi_times) = derive_aoi_outputs(&route, &times, &g.loc_to_aoi, g.aois.n);
        Prediction { aoi_route, aoi_times, route, times }
    }

    /// Convenience: builds the graph for `sample` through the attached
    /// pipeline and predicts.
    pub fn predict_sample(&self, dataset: &Dataset, sample: &RtpSample) -> Prediction {
        let courier = &dataset.couriers[sample.query.courier_id];
        self.predict(&self.build_graph(&dataset.city, courier, &sample.query))
    }
}

/// A serialisable snapshot of a trained model: configuration, weights
/// and the feature pipeline. This is what the paper's "pre-trained
/// model packaged as M²G4RTP Service module" (§VI, Fig. 7) persists
/// between the offline training job and the online inference layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Model hyperparameters (the architecture is reconstructed from
    /// these).
    pub config: ModelConfig,
    /// Per-parameter weight tensors in registration order.
    pub weights: Vec<Vec<f32>>,
    /// Graph-construction config of the attached pipeline, if any.
    pub graph_config: Option<GraphConfig>,
    /// Fitted feature scaler of the attached pipeline, if any.
    pub scaler: Option<FeatureScaler>,
}

impl SavedModel {
    /// Checks that this snapshot can replace `current` in place — a
    /// hot-swap precondition with the same loud-rejection policy as
    /// checkpoint `--resume` ([`crate::checkpoint::CheckpointError`]):
    /// a swap that cannot be proven compatible is refused with a named
    /// reason, never guessed at and never allowed to reach the
    /// panicking weight restore in [`M2G4Rtp::from_saved`].
    ///
    /// Compatible means: every architecture field of [`ModelConfig`]
    /// matches the running model (graph dims, feature widths, vocab
    /// sizes, variant), and the snapshot passes the load rules of
    /// [`M2G4Rtp::try_from_saved`] against the running parameter store.
    pub fn validate_swap(&self, current: &M2G4Rtp) -> Result<(), String> {
        let have = current.config();
        let want = &self.config;
        let fields: [(&str, usize, usize); 9] = [
            ("d_loc", want.d_loc, have.d_loc),
            ("d_aoi", want.d_aoi, have.d_aoi),
            ("d_disc", want.d_disc, have.d_disc),
            ("d_courier", want.d_courier, have.d_courier),
            ("d_pos", want.d_pos, have.d_pos),
            ("n_heads", want.n_heads, have.n_heads),
            ("n_layers", want.n_layers, have.n_layers),
            ("aoi_vocab", want.aoi_vocab, have.aoi_vocab),
            ("courier_vocab", want.courier_vocab, have.courier_vocab),
        ];
        for (name, new, running) in fields {
            if new != running {
                return Err(format!(
                    "model config field `{name}` differs: running model has {running}, \
                     new model has {new}"
                ));
            }
        }
        if want.variant != have.variant {
            return Err(format!(
                "model variant differs: running model is {}, new model is {}",
                have.variant.label(),
                want.variant.label()
            ));
        }
        self.check_servable(&current.store)
    }

    /// The load rules every servable snapshot must meet: it carries a
    /// feature pipeline (a server cannot build graphs without one)
    /// whose scaler has statistics for every feature column, and its
    /// weights match `store`'s layout tensor by tensor, so neither the
    /// restore in [`M2G4Rtp::from_saved`] nor the first graph build can
    /// panic.
    fn check_servable(&self, store: &ParamStore) -> Result<(), String> {
        let (Some(_), Some(scaler)) = (&self.graph_config, &self.scaler) else {
            return Err("model has no feature pipeline (graph config + scaler)".into());
        };
        scaler.check()?;
        if self.weights.len() != store.len() {
            return Err(format!(
                "model holds {} weight tensors but its architecture has {}",
                self.weights.len(),
                store.len()
            ));
        }
        for id in store.iter_ids() {
            let (have, want) = (self.weights[id.index()].len(), store.data(id).len());
            if have != want {
                return Err(format!(
                    "weight tensor `{}` has {have} scalars but its architecture has {want}",
                    store.name(id)
                ));
            }
        }
        Ok(())
    }
}

impl M2G4Rtp {
    /// Snapshots the trained model for persistence (serialise the
    /// result with serde).
    pub fn to_saved(&self) -> SavedModel {
        SavedModel {
            config: self.config.clone(),
            weights: self.store.snapshot(),
            graph_config: self.pipeline.as_ref().map(|p| p.builder.config()),
            scaler: self.pipeline.as_ref().map(|p| p.scaler.clone()),
        }
    }

    /// Reconstructs a model from a snapshot, restoring weights and the
    /// feature pipeline.
    ///
    /// # Panics
    /// Panics if the snapshot's weight layout does not match the
    /// architecture its config describes (i.e. the snapshot is
    /// corrupt or from an incompatible version). Snapshots read from
    /// disk go through [`M2G4Rtp::try_from_saved`] instead.
    pub fn from_saved(saved: SavedModel) -> Self {
        let mut model = Self::new(saved.config.clone(), 0);
        model.restore_saved(saved);
        model
    }

    /// Builds a servable model from a snapshot read from disk. Where
    /// [`M2G4Rtp::from_saved`] or the first query would panic, this
    /// names the fault instead: an invalid [`ModelConfig`], no feature
    /// pipeline, or a weight layout that does not match the
    /// architecture its config describes.
    pub fn try_from_saved(saved: SavedModel) -> Result<Self, String> {
        saved.config.check()?;
        let mut model = Self::new(saved.config.clone(), 0);
        saved.check_servable(&model.store)?;
        model.restore_saved(saved);
        Ok(model)
    }

    fn restore_saved(&mut self, saved: SavedModel) {
        self.store.restore(&saved.weights);
        if let (Some(gc), Some(scaler)) = (saved.graph_config, saved.scaler) {
            self.set_pipeline(GraphBuilder::new(gc), scaler);
        }
    }
}

/// Derives AOI-level route/times from location-level predictions
/// (first-visit semantics of Definition 5). Exposed for baselines that
/// only predict at the location level but must still report AOI-level
/// outputs.
pub fn derive_aoi_outputs(
    route: &[usize],
    times: &[f32],
    loc_to_aoi: &[usize],
    m: usize,
) -> (Vec<usize>, Vec<f32>) {
    let mut aoi_route = Vec::with_capacity(m);
    let mut aoi_times = vec![0.0f32; m];
    let mut seen = vec![false; m];
    for &i in route {
        let a = loc_to_aoi[i];
        if !seen[a] {
            seen[a] = true;
            aoi_route.push(a);
            aoi_times[a] = times[i];
        }
    }
    (aoi_route, aoi_times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_graph::GraphConfig;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    fn setup(variant: Variant) -> (Dataset, M2G4Rtp, Vec<MultiLevelGraph>) {
        let d = DatasetBuilder::new(DatasetConfig::tiny(61)).build();
        let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&d).with_variant(variant), 5);
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(&d, &builder);
        let graphs: Vec<_> = d.train[..4.min(d.train.len())]
            .iter()
            .map(|s| {
                let mut g = builder.build(&s.query, &d.city, &d.couriers[s.query.courier_id]);
                scaler.apply(&mut g);
                g
            })
            .collect();
        model.set_pipeline(builder, scaler);
        (d, model, graphs)
    }

    #[test]
    fn forward_train_produces_finite_losses_for_all_variants() {
        for v in Variant::ALL {
            let (d, model, graphs) = setup(v);
            let truth = &d.train[0].truth;
            let mut t = Tape::new();
            let lt = model.forward_train(&mut t, &model.store, &graphs[0], truth);
            assert!(lt.scalars.total.is_finite(), "{v:?} total not finite");
            assert!(lt.scalars.route_loc > 0.0, "{v:?} route loss must start positive");
            assert!(lt.scalars.time_loc > 0.0, "{v:?} time loss must start positive");
            if v == Variant::NoAoi {
                assert_eq!(lt.scalars.route_aoi, 0.0);
                assert_eq!(lt.scalars.time_aoi, 0.0);
            } else {
                assert!(lt.scalars.route_aoi > 0.0);
                assert!(lt.scalars.time_aoi > 0.0);
            }
        }
    }

    #[test]
    fn backward_reaches_every_trainable_family() {
        let (d, mut model, graphs) = setup(Variant::Full);
        let truth = &d.train[0].truth;
        let mut t = Tape::new();
        let store = model.store.clone();
        let lt = model.forward_train(&mut t, &store, &graphs[0], truth);
        model.store.zero_grad();
        t.backward(lt.total, &mut model.store);
        let ids: Vec<_> = model.store.iter_ids().collect();
        let touched =
            ids.iter().filter(|&&id| model.store.grad(id).iter().any(|&g| g != 0.0)).count();
        // Nearly every parameter should receive gradient in a joint pass
        // (some embedding rows are legitimately unused per sample).
        assert!(touched * 2 > ids.len(), "only {touched}/{} params received gradient", ids.len());
        // Uncertainty scalars must always receive gradient.
        for &s in &model.store.iter_ids().collect::<Vec<_>>() {
            if model.store.name(s).starts_with("unc.") {
                assert!(model.store.grad(s)[0] != 0.0, "uncertainty param got no grad");
            }
        }
    }

    #[test]
    fn predictions_are_valid_permutations_with_nonnegative_times() {
        for v in Variant::ALL {
            let (d, model, graphs) = setup(v);
            for (g, s) in graphs.iter().zip(&d.train) {
                let p = model.predict(g);
                let n = s.query.num_locations();
                let m = s.query.distinct_aois().len();
                assert_eq!(p.route.len(), n);
                assert_eq!(p.times.len(), n);
                assert_eq!(p.aoi_route.len(), m, "{v:?}");
                assert_eq!(p.aoi_times.len(), m);
                let mut seen = vec![false; n];
                for &i in &p.route {
                    assert!(!seen[i], "{v:?} route repeats");
                    seen[i] = true;
                }
                assert!(p.times.iter().all(|&x| x >= 0.0 && x.is_finite()));
                assert!(p.aoi_times.iter().all(|&x| x >= 0.0 && x.is_finite()));
            }
        }
    }

    #[test]
    fn predict_sample_goes_through_pipeline() {
        let (d, model, _) = setup(Variant::Full);
        assert!(model.has_pipeline());
        let p = model.predict_sample(&d, &d.train[0]);
        assert_eq!(p.route.len(), d.train[0].query.num_locations());
    }

    #[test]
    fn time_param_range_covers_sort_lstms_only() {
        let (_, model, _) = setup(Variant::Full);
        let ids: Vec<_> = model.store.iter_ids().collect();
        for id in ids {
            let name = model.store.name(id).to_string();
            let is_time_name = name.contains("time_dec");
            assert_eq!(
                model.is_time_param(id),
                is_time_name,
                "param `{name}` misclassified by the freeze boundary"
            );
        }
    }

    #[test]
    fn beam_one_prediction_matches_greedy_prediction() {
        let (_, model, graphs) = setup(Variant::Full);
        for g in &graphs {
            let greedy = model.predict(g);
            let beam = model.predict_beam(g, 1);
            assert_eq!(greedy.route, beam.route);
            assert_eq!(greedy.aoi_route, beam.aoi_route);
            assert_eq!(greedy.times, beam.times);
        }
        // wider beams still emit valid permutations
        let wide = model.predict_beam(&graphs[0], 4);
        let n = wide.route.len();
        let mut seen = vec![false; n];
        for &i in &wide.route {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn saved_model_roundtrip_preserves_predictions() {
        let (d, model, graphs) = setup(Variant::Full);
        let saved = model.to_saved();
        // exercise actual serde, not just the struct copy
        let json = serde_json::to_string(&saved).expect("serialise");
        let restored = M2G4Rtp::from_saved(serde_json::from_str(&json).expect("deserialise"));
        assert!(restored.has_pipeline());
        for (g, s) in graphs.iter().zip(&d.train) {
            let a = model.predict(g);
            let b = restored.predict(g);
            assert_eq!(a.route, b.route, "routes must survive persistence");
            assert_eq!(a.times, b.times, "times must survive persistence");
            // and through the restored pipeline end-to-end
            let c = restored.predict_sample(&d, s);
            assert_eq!(a.route, c.route);
        }
    }

    /// Bit-level equality for predictions: routes plus exact float bits
    /// of every time output.
    fn assert_bit_identical(a: &Prediction, b: &Prediction, ctx: &str) {
        assert_eq!(a.route, b.route, "{ctx}: routes differ");
        assert_eq!(a.aoi_route, b.aoi_route, "{ctx}: AOI routes differ");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.times), bits(&b.times), "{ctx}: time bits differ");
        assert_eq!(bits(&a.aoi_times), bits(&b.aoi_times), "{ctx}: AOI time bits differ");
    }

    /// The `inference_tape(Numerics::Exact)` path (the one the
    /// benchmark's oracle takes) and the pipeline's `predict_sample`
    /// both reproduce `predict` bit for bit.
    #[test]
    fn exact_inference_paths_are_bitwise_identical_to_predict() {
        for v in Variant::ALL {
            let (d, model, graphs) = setup(v);
            for (g, s) in graphs.iter().zip(&d.train) {
                let reference = model.predict(g);
                let tape = model.predict_into(&mut model.inference_tape(Numerics::Exact), g);
                assert_bit_identical(&tape, &reference, &format!("{v:?} inference_tape"));
                let sample = model.predict_sample(&d, s);
                assert_bit_identical(&sample, &reference, &format!("{v:?} predict_sample"));
            }
        }
    }

    #[test]
    fn batched_predict_is_bit_identical_to_unbatched_for_all_variants() {
        for v in Variant::ALL {
            let (_, model, graphs) = setup(v);
            let solo: Vec<_> = graphs.iter().map(|g| model.predict(g)).collect();
            // Batch sizes 1, 2, and the full set, sliced from different
            // offsets so every sample appears at several batch positions.
            for bs in [1, 2, graphs.len()] {
                let mut t = Tape::inference();
                for start in 0..graphs.len() {
                    let end = (start + bs).min(graphs.len());
                    let refs: Vec<&MultiLevelGraph> = graphs[start..end].iter().collect();
                    let batched = model.predict_batch_into(&mut t, &refs);
                    for (k, p) in batched.iter().enumerate() {
                        assert_bit_identical(
                            p,
                            &solo[start + k],
                            &format!("{v:?} batch={bs} sample={}", start + k),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_replay_is_bit_identical_to_cold_predict() {
        for v in Variant::ALL {
            let (_, model, graphs) = setup(v);
            let refs: Vec<&MultiLevelGraph> = graphs.iter().collect();
            let mut t = Tape::inference();
            let batched = model.predict_batch_encoded_into(&mut t, &refs);
            for (g, (p, enc)) in graphs.iter().zip(&batched) {
                let cold = model.predict(g);
                assert_bit_identical(p, &cold, &format!("{v:?} batched"));
                // Replaying the cached activations must reproduce the
                // cold prediction exactly — this is the cache-hit path.
                let mut t2 = Tape::inference();
                let replay = model.predict_encoded_into(&mut t2, g, enc);
                assert_bit_identical(&replay, &cold, &format!("{v:?} replay"));
                // And again on a reused (cleared) tape.
                let replay2 = model.predict_encoded_into(&mut t2, g, enc);
                assert_bit_identical(&replay2, &cold, &format!("{v:?} replay reuse"));
            }
        }
    }

    #[test]
    fn derive_aoi_outputs_first_visit_semantics() {
        let (ar, at) = derive_aoi_outputs(&[2, 0, 1], &[10.0, 30.0, 5.0], &[1, 1, 0], 2);
        assert_eq!(ar, vec![0, 1], "AOI 0 entered first via location 2");
        // first visit into AOI 1 is location 0 (time 10), not location 1
        assert_eq!(at, vec![5.0, 10.0]);
    }
}
