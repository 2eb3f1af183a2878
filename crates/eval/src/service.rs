//! The §VI deployment pipeline, reproduced in-process: a **Feature
//! Extraction Layer** (query → multi-level graph, the paper's Graph
//! Builder with its distance tool), an **Inference Layer** (the trained
//! M²G4RTP service module) and an **Application Layer** with the two
//! launched products — Intelligent Order Sorting for couriers and
//! Minute-Level ETA push messages for users.
//!
//! One [`RtpService`] is a *single inference lane*: it shares the model
//! read-only (via `Arc`, so a worker pool clones the handle, not the
//! weights) and owns one no-grad [`Tape`]. The serve layer builds one
//! service per worker thread, so concurrent requests never contend on a
//! tape mutex.

use m2g4rtp::{EncodedQuery, M2G4Rtp, Prediction};
use rtp_graph::MultiLevelGraph;
use rtp_sim::{City, Courier, RtpQuery};
use rtp_tensor::{Numerics, Tape};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};

/// An ETA push message of the Minute-Level ETA service (Fig. 8b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EtaMessage {
    /// Index of the order in the query.
    pub order_index: usize,
    /// Predicted arrival gap from "now", minutes.
    pub eta_minutes: f32,
    /// How many stops away the courier is.
    pub stops_away: usize,
    /// The user-facing message body.
    pub text: String,
}

/// The response of one RTP request through the deployed pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceResponse {
    /// Intelligent Order Sorting (Fig. 8a): order indices in the
    /// predicted service sequence.
    pub sorted_orders: Vec<usize>,
    /// Predicted AOI visit sequence (indices into the query's distinct
    /// AOI list).
    pub aoi_sequence: Vec<usize>,
    /// One ETA message per order.
    pub etas: Vec<EtaMessage>,
    /// End-to-end handling latency, milliseconds.
    pub latency_ms: f64,
}

/// The in-process RTP inference service.
pub struct RtpService {
    model: Arc<M2G4Rtp>,
    /// Numerics tier every prediction of this lane runs under
    /// (exact by default; quantized is a serve-time opt-in).
    numerics: Numerics,
    /// No-grad tape every request of this lane runs on (cleared first).
    tape: Mutex<Tape>,
}

impl RtpService {
    /// Wraps a trained model (it must have its feature pipeline
    /// attached, which [`m2g4rtp::Trainer::fit`] does).
    ///
    /// # Panics
    /// Panics if the model has no pipeline.
    pub fn new(model: M2G4Rtp) -> Self {
        Self::shared(Arc::new(model))
    }

    /// Wraps an already-shared trained model — the worker-pool
    /// constructor: every worker gets its own service (own tape), all
    /// reading the same weights.
    ///
    /// # Panics
    /// Panics if the model has no pipeline.
    pub fn shared(model: Arc<M2G4Rtp>) -> Self {
        Self::with_numerics(model, Numerics::Exact)
    }

    /// Like [`RtpService::shared`], but running the given numerics
    /// tier: every prediction of this lane uses the corresponding
    /// inference tape (for `Quantized`, with the parameter snapshot
    /// the model caches on first use).
    ///
    /// # Panics
    /// Panics if the model has no pipeline.
    pub fn with_numerics(model: Arc<M2G4Rtp>, numerics: Numerics) -> Self {
        assert!(model.has_pipeline(), "service needs a trained model with a pipeline");
        let tape = Mutex::new(model.inference_tape(numerics));
        Self { model, numerics, tape }
    }

    /// The numerics tier this lane serves under.
    pub fn numerics(&self) -> Numerics {
        self.numerics
    }

    /// Locks the inference tape, recovering from poisoning: if a
    /// previous request panicked mid-prediction the tape's node list
    /// may be in an arbitrary state, but correctness never depends on
    /// the tape's history (cleared-tape reuse is bit-identical to a
    /// fresh tape) — so we swap in a fresh no-grad tape and keep serving
    /// instead of dying on `.expect("poisoned")` for every later
    /// request.
    fn lock_tape(&self) -> MutexGuard<'_, Tape> {
        match self.tape.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.tape.clear_poison();
                rtp_obs::flight::record(
                    rtp_obs::flight::Kind::Recovery,
                    "service.tape_poison",
                    0,
                    || "poisoned inference tape replaced with a fresh no-grad tape".to_string(),
                );
                let mut guard = poisoned.into_inner();
                *guard = self.model.inference_tape(self.numerics);
                guard
            }
        }
    }

    /// Handles one RTP request end to end.
    ///
    /// Returns `Err` when the model's prediction does not line up with
    /// the query (see [`apply_prediction`]) — the serving layer turns
    /// that into a structured error reply instead of a panic.
    pub fn handle(
        &self,
        city: &City,
        courier: &Courier,
        query: &RtpQuery,
    ) -> Result<ServiceResponse, String> {
        let t0 = std::time::Instant::now();
        // Feature Extraction Layer
        let graph = self.build_graph(city, courier, query);
        // Inference Layer — this lane's no-grad tape
        let prediction = self.predict(&graph);
        // Application Layer
        let app = apply_prediction(query, &prediction)?;
        Ok(app.into_response(t0.elapsed().as_secs_f64() * 1e3))
    }

    /// Feature Extraction Layer only: query → scaled multi-level graph.
    /// Split out so the serve layer can keep the graph in its encoder
    /// cache and skip feature extraction on a repeat query.
    pub fn build_graph(&self, city: &City, courier: &Courier, query: &RtpQuery) -> MultiLevelGraph {
        self.model.build_graph(city, courier, query)
    }

    /// Inference Layer only, on this lane's no-grad tape.
    pub fn predict(&self, graph: &MultiLevelGraph) -> Prediction {
        let mut tape = self.lock_tape();
        self.model.predict_into(&mut tape, graph)
    }

    /// Inference Layer that also returns the sample's encoder
    /// activations, on this lane's tape — the serve cache's miss path.
    /// It is the same forward as [`RtpService::predict`]
    /// ([`M2G4Rtp::predict_and_encode_into`]); the activations let a
    /// repeat query skip the encoders via [`RtpService::predict_encoded`].
    pub fn predict_and_encode(&self, graph: &MultiLevelGraph) -> (Prediction, EncodedQuery) {
        let mut tape = self.lock_tape();
        self.model.predict_and_encode_into(&mut tape, graph)
    }

    /// Inference Layer replaying cached encoder activations on this
    /// lane's tape — the serve cache's hit path. Bit-identical
    /// to [`RtpService::predict`] when `enc` came from the same
    /// (graph, weights); see [`M2G4Rtp::predict_encoded_into`].
    pub fn predict_encoded(&self, graph: &MultiLevelGraph, enc: &EncodedQuery) -> Prediction {
        let mut tape = self.lock_tape();
        self.model.predict_encoded_into(&mut tape, graph, enc)
    }
}

/// The Application Layer's products for one request, before latency
/// stamping: the two launched services of §VI (order sorting + ETA
/// push messages).
#[derive(Debug, Clone)]
pub struct AppOutput {
    /// Order indices in predicted service sequence.
    pub sorted_orders: Vec<usize>,
    /// Predicted AOI visit sequence.
    pub aoi_sequence: Vec<usize>,
    /// One ETA message per order in the query.
    pub etas: Vec<EtaMessage>,
}

impl AppOutput {
    /// Stamps the end-to-end latency onto the products.
    pub fn into_response(self, latency_ms: f64) -> ServiceResponse {
        ServiceResponse {
            sorted_orders: self.sorted_orders,
            aoi_sequence: self.aoi_sequence,
            etas: self.etas,
            latency_ms,
        }
    }
}

/// The Application Layer: turns a raw [`Prediction`] into the courier's
/// sorted order list and one ETA push message per order.
///
/// The route is validated against the query before any indexing:
///
/// - a route position pointing past the query's order list, or visiting
///   the same order twice, is a **misaligned prediction** and returns a
///   named `Err` (the serving layer reports it as an internal error
///   rather than panicking or emitting garbage ETAs);
/// - an order that is *absent* from the route gets a well-defined
///   "already served" message (`stops_away == 0`, `eta_minutes == 0.0`)
///   instead of the old silent `0 stop(s) away` default that read like
///   an imminent arrival.
pub fn apply_prediction(query: &RtpQuery, p: &Prediction) -> Result<AppOutput, String> {
    let n = query.orders.len();
    // stops_away[i] = Some(position) iff order i appears in the route.
    let mut stops_away: Vec<Option<usize>> = vec![None; n];
    for (pos, &i) in p.route.iter().enumerate() {
        let slot = stops_away.get_mut(i).ok_or_else(|| {
            format!(
                "misaligned prediction: route position {pos} points at location {i}, \
                 but the query has only {n} order(s)"
            )
        })?;
        if slot.is_some() {
            return Err(format!("misaligned prediction: route visits location {i} twice"));
        }
        *slot = Some(pos + 1);
    }
    let etas = (0..n)
        .map(|i| match stops_away[i] {
            Some(stops) => {
                let eta = p.times.get(i).copied().unwrap_or(0.0);
                EtaMessage {
                    order_index: i,
                    eta_minutes: eta,
                    stops_away: stops,
                    text: format!(
                        "Your courier is {} stop(s) away and is expected in about {} minutes.",
                        stops,
                        eta.round() as i64
                    ),
                }
            }
            None => EtaMessage {
                order_index: i,
                eta_minutes: 0.0,
                stops_away: 0,
                text: "This order is no longer in the courier's planned route; \
                       it has likely already been served."
                    .to_string(),
            },
        })
        .collect();
    Ok(AppOutput { sorted_orders: p.route.clone(), aoi_sequence: p.aoi_route.clone(), etas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2g4rtp::{ModelConfig, TrainConfig, Trainer};
    use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};

    fn trained(seed: u64) -> (Dataset, M2G4Rtp) {
        let d = DatasetBuilder::new(DatasetConfig::tiny(seed)).build();
        let mut cfg = ModelConfig::for_dataset(&d);
        cfg.d_loc = 16;
        cfg.d_aoi = 16;
        cfg.n_heads = 2;
        cfg.n_layers = 1;
        let mut model = m2g4rtp::M2G4Rtp::new(cfg, 1);
        Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::quick() }).fit(&mut model, &d);
        (d, model)
    }

    #[test]
    fn service_serves_sorted_orders_and_etas() {
        let (d, model) = trained(121);
        let service = RtpService::new(model);
        let s = &d.test[0];
        let courier = &d.couriers[s.query.courier_id];
        let resp = service.handle(&d.city, courier, &s.query).expect("aligned prediction");
        assert_eq!(resp.sorted_orders.len(), s.query.num_locations());
        assert_eq!(resp.etas.len(), s.query.num_locations());
        // `>= 0.0`, not `> 0.0`: a tiny model can predict inside one
        // timer tick on coarse clocks, legitimately reporting 0.0 ms.
        assert!(resp.latency_ms >= 0.0 && resp.latency_ms.is_finite());
        for e in &resp.etas {
            assert!(e.eta_minutes >= 0.0);
            assert!(e.stops_away >= 1 && e.stops_away <= s.query.num_locations());
            assert!(e.text.contains("minutes"));
        }
        // sorted orders are a permutation
        let mut seen = vec![false; s.query.num_locations()];
        for &i in &resp.sorted_orders {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn poisoned_tape_recovers_instead_of_dying_forever() {
        let (d, model) = trained(122);
        let service = RtpService::new(model);
        let s = &d.test[0];
        let courier = &d.couriers[s.query.courier_id];
        let before = service.handle(&d.city, courier, &s.query).expect("aligned prediction");

        // Poison the tape mutex the way a panicking handler would:
        // panic while holding the lock.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = service.tape.lock().unwrap();
            panic!("simulated mid-prediction panic");
        }));
        assert!(poison.is_err());
        assert!(service.tape.is_poisoned(), "lock must actually be poisoned");

        // Every later request must still be served — and identically.
        let after = service.handle(&d.city, courier, &s.query).expect("aligned prediction");
        assert_eq!(before.sorted_orders, after.sorted_orders);
        assert_eq!(before.aoi_sequence, after.aoi_sequence);
        let bits = |v: &[EtaMessage]| v.iter().map(|e| e.eta_minutes.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&before.etas), bits(&after.etas), "recovery must not change numerics");
    }

    #[test]
    fn per_worker_services_share_weights_and_agree() {
        let (d, model) = trained(123);
        let model = Arc::new(model);
        let a = RtpService::shared(Arc::clone(&model));
        let b = RtpService::shared(model);
        let s = &d.test[0];
        let courier = &d.couriers[s.query.courier_id];
        let ra = a.handle(&d.city, courier, &s.query).expect("aligned prediction");
        let rb = b.handle(&d.city, courier, &s.query).expect("aligned prediction");
        assert_eq!(ra.sorted_orders, rb.sorted_orders);
        let bits = |v: &[EtaMessage]| v.iter().map(|e| e.eta_minutes.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ra.etas), bits(&rb.etas), "separate tapes must not change numerics");
    }

    #[test]
    fn cached_encoder_replay_matches_cold_service_path() {
        let (d, model) = trained(124);
        let service = RtpService::new(model);
        let s = &d.test[0];
        let courier = &d.couriers[s.query.courier_id];
        let graph = service.build_graph(&d.city, courier, &s.query);
        let cold = service.predict(&graph);
        let (miss_pred, enc) = service.predict_and_encode(&graph);
        let hot = service.predict_encoded(&graph, &enc);
        assert_eq!(cold.route, miss_pred.route);
        assert_eq!(cold.route, hot.route);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cold.times), bits(&miss_pred.times), "miss path must match cold bits");
        assert_eq!(bits(&cold.times), bits(&hot.times), "cache replay must match cold bits");
    }

    fn query_with_orders(d: &Dataset, n: usize) -> RtpQuery {
        let mut q = d.test[0].query.clone();
        assert!(q.orders.len() >= n, "test query too small");
        q.orders.truncate(n);
        q
    }

    #[test]
    fn unrouted_order_reports_already_served_not_zero_stops() {
        let (d, _) = trained(125);
        let q = query_with_orders(&d, 3);
        // Route covers orders 2 and 0 only; order 1 was served already.
        let p = Prediction {
            route: vec![2, 0],
            times: vec![5.0, 7.0, 9.0],
            aoi_route: vec![0],
            aoi_times: vec![5.0],
        };
        let app = apply_prediction(&q, &p).expect("partial route is not an error");
        assert_eq!(app.etas.len(), 3);
        let served = &app.etas[1];
        assert_eq!(served.stops_away, 0);
        assert_eq!(served.eta_minutes, 0.0);
        assert!(
            served.text.contains("no longer in the courier's planned route"),
            "unrouted order must get the explicit already-served message, got: {}",
            served.text
        );
        // Routed orders still report 1-based stop counts and their ETAs.
        assert_eq!(app.etas[2].stops_away, 1);
        assert_eq!(app.etas[0].stops_away, 2);
        assert_eq!(app.etas[0].eta_minutes, 5.0);
        assert!(app.etas[0].text.contains("2 stop(s) away"));
    }

    #[test]
    fn out_of_range_and_duplicate_route_positions_are_named_errors() {
        let (d, _) = trained(126);
        let q = query_with_orders(&d, 2);
        let oob = Prediction {
            route: vec![0, 5],
            times: vec![1.0, 2.0],
            aoi_route: vec![0],
            aoi_times: vec![1.0],
        };
        let err = apply_prediction(&q, &oob).expect_err("index 5 must not be applied");
        assert!(err.contains("misaligned prediction"), "got: {err}");
        assert!(err.contains("position 1") && err.contains("location 5"), "got: {err}");

        let dup = Prediction {
            route: vec![1, 1],
            times: vec![1.0, 2.0],
            aoi_route: vec![0],
            aoi_times: vec![1.0],
        };
        let err = apply_prediction(&q, &dup).expect_err("duplicate visit must not be applied");
        assert!(err.contains("twice"), "got: {err}");
    }
}
