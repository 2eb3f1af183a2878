//! The multi-task decoders: the pointer-style route decoder
//! (Eqs. 27–31 / 34–35) and the SortLSTM arrival-time decoder
//! (Eqs. 32–33 / 36).

use rtp_tensor::nn::{positional_encoding, Linear, LstmCell};
use rtp_tensor::{ParamId, ParamStore, Tape, TensorId};

/// Step-by-step route decoder: an LSTM aggregates the already-emitted
/// nodes into the current state `h_{s-1}` (Eq. 28); at each step a
/// masked additive attention over the remaining candidates scores
/// `o_s^j = vᵀ tanh(W_node x_j + W_query [h‖u])` (Eq. 29), softmax over
/// unvisited nodes gives the pointer distribution (Eq. 30), and the
/// argmax is emitted (Eq. 31).
#[derive(Debug, Clone)]
pub struct RouteDecoder {
    lstm: LstmCell,
    w_node: Linear,
    w_query: Linear,
    v: ParamId,
}

impl RouteDecoder {
    /// Creates a decoder over node representations of width `d_in`,
    /// courier representation of width `d_u`, attention width `d_att`
    /// and LSTM state width `d_h`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_u: usize,
        d_att: usize,
        d_h: usize,
    ) -> Self {
        Self {
            lstm: LstmCell::new(store, &format!("{name}.lstm"), d_in, d_h),
            w_node: Linear::new_no_bias(store, &format!("{name}.w_node"), d_in, d_att),
            w_query: Linear::new_no_bias(store, &format!("{name}.w_query"), d_h + d_u, d_att),
            v: store.add_xavier(&format!("{name}.v"), d_att, 1),
        }
    }

    /// Scores the candidates whose projected keys are the rows of
    /// `keys` (`[m, d_att]`) against the state `h`: the column `[m, 1]`
    /// of `vᵀ tanh(key + W_query [h‖u])`. Each row's score depends on
    /// that row alone, so scoring a subset of the keys gives the same
    /// bits for it as scoring them all.
    fn scores(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        keys: TensorId,
        h: TensorId,
        u: TensorId,
    ) -> TensorId {
        let hu = t.concat_cols(&[h, u]);
        let q = self.w_query.forward(t, store, hu); // [1, d_att]
        let scores = t.add_row(keys, q); // [m, d_att]
        let scores = t.tanh(scores);
        let v = t.param(store, self.v);
        t.matmul(scores, v) // [m, 1]
    }

    /// Computes the pointer logits `[1, n]` over every node for one
    /// step; the caller masks the visited ones.
    fn step_logits(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        keys: TensorId,
        h: TensorId,
        u: TensorId,
    ) -> TensorId {
        let o = self.scores(t, store, keys, h, u);
        t.transpose(o) // [1, n]
    }

    /// Teacher-forced training loss: the mean step cross-entropy of
    /// Eqs. 37–38's inner sum. `x_in` is `[n, d_in]`, `u` is `[1, d_u]`,
    /// `target` the ground-truth visit sequence.
    pub fn train_loss(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        x_in: TensorId,
        u: TensorId,
        target: &[usize],
    ) -> TensorId {
        let (n, _) = t.shape(x_in);
        assert_eq!(target.len(), n, "target route length mismatch");
        let keys = self.w_node.forward(t, store, x_in);
        let mut state = self.lstm.zero_state(t);
        let mut visited = vec![false; n];
        let mut step_losses = Vec::with_capacity(n);
        for &next in target {
            let logits = self.step_logits(t, store, keys, state.0, u);
            let mask: Vec<bool> = visited.iter().map(|&v| !v).collect();
            step_losses.push(t.masked_cross_entropy(logits, &mask, next));
            visited[next] = true;
            // teacher forcing: feed the true node into the state LSTM
            let inp = t.row(x_in, next);
            state = self.lstm.step(t, store, inp, state);
        }
        let stacked = t.concat_rows(&step_losses);
        t.mean_all(stacked)
    }

    /// Beam-search decoding (an extension over the paper's greedy
    /// Eq. 31): keeps the `beam` highest-log-probability partial routes
    /// at every step and returns the best complete one. `beam == 1`
    /// reduces exactly to greedy decoding.
    ///
    /// # Panics
    /// Panics if `beam == 0`.
    pub fn decode_beam(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        x_in: TensorId,
        u: TensorId,
        beam: usize,
    ) -> Vec<usize> {
        assert!(beam >= 1, "beam width must be at least 1");
        let (n, _) = t.shape(x_in);
        let keys = self.w_node.forward(t, store, x_in);

        struct Hyp {
            route: Vec<usize>,
            visited: Vec<bool>,
            state: (TensorId, TensorId),
            logp: f32,
        }
        let mut hyps = vec![Hyp {
            route: Vec::new(),
            visited: vec![false; n],
            state: self.lstm.zero_state(t),
            logp: 0.0,
        }];
        for _ in 0..n {
            // expand every hypothesis over its unvisited candidates
            let mut expansions: Vec<(usize, usize, f32)> = Vec::new(); // (hyp, node, logp)
            for (h, hyp) in hyps.iter().enumerate() {
                let logits = self.step_logits(t, store, keys, hyp.state.0, u);
                let mask: Vec<bool> = hyp.visited.iter().map(|&v| !v).collect();
                let logp = t.masked_log_softmax_rows(logits, &mask);
                for (j, &lp) in t.data(logp).iter().enumerate() {
                    if !hyp.visited[j] {
                        expansions.push((h, j, hyp.logp + lp));
                    }
                }
            }
            expansions.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite log-probabilities"));
            expansions.truncate(beam);
            let mut next = Vec::with_capacity(expansions.len());
            for (h, j, logp) in expansions {
                let mut route = hyps[h].route.clone();
                route.push(j);
                let mut visited = hyps[h].visited.clone();
                visited[j] = true;
                let inp = t.row(x_in, j);
                let state = self.lstm.step(t, store, inp, hyps[h].state);
                next.push(Hyp { route, visited, state, logp });
            }
            hyps = next;
        }
        hyps.into_iter()
            .max_by(|a, b| a.logp.partial_cmp(&b.logp).expect("finite log-probabilities"))
            .expect("at least one hypothesis survives")
            .route
    }

    /// Greedy decoding (Eq. 31): returns the predicted visit sequence.
    ///
    /// Each step scores only the still-unvisited candidates (their key
    /// rows gathered in ascending node order) and emits the first
    /// strict maximum, so the route is the one full masked scoring
    /// would pick: a candidate's logit does not depend on which others
    /// are scored. The state LSTM is not advanced after the last pick,
    /// whose state nothing reads. [`RouteDecoder::train_loss`] and
    /// [`RouteDecoder::decode_beam`] keep the masked scoring over all
    /// `n` nodes, which their softmax needs.
    ///
    /// # Panics
    /// Panics if no live candidate's logit compares greater than −∞
    /// (NaN or −∞ scores, e.g. from non-finite inputs).
    pub fn decode(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        x_in: TensorId,
        u: TensorId,
    ) -> Vec<usize> {
        let (n, _) = t.shape(x_in);
        let keys = self.w_node.forward(t, store, x_in);
        let mut state = self.lstm.zero_state(t);
        let mut live: Vec<usize> = (0..n).collect();
        let mut route = Vec::with_capacity(n);
        while !live.is_empty() {
            let live_keys = if live.len() == n { keys } else { t.gather_rows(keys, &live) };
            let logits = self.scores(t, store, live_keys, state.0, u);
            let mut best = None;
            let mut best_v = f32::NEG_INFINITY;
            for (slot, &v) in t.data(logits).iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = Some(slot);
                }
            }
            let slot = best.unwrap_or_else(|| {
                panic!(
                    "route decoder: none of {} live candidate logits exceeds -inf \
                     (NaN or infinite scores from non-finite inputs)",
                    live.len()
                )
            });
            let node = live.remove(slot);
            route.push(node);
            if !live.is_empty() {
                let inp = t.row(x_in, node);
                state = self.lstm.step(t, store, inp, state);
            }
        }
        route
    }
}

/// SortLSTM (Eqs. 32–33): an LSTM that consumes node representations
/// **sorted by the route**, each concatenated with the sinusoidal
/// positional encoding of its route position, and emits one arrival
/// time per step. Monotonicity of the outputs is deliberately not
/// enforced — the paper argues this lets the time task correct route
/// errors instead of accumulating them.
#[derive(Debug, Clone)]
pub struct SortLstm {
    lstm: LstmCell,
    head: Linear,
    d_pos: usize,
}

impl SortLstm {
    /// Creates a SortLSTM over inputs of width `d_in` with positional
    /// encodings of width `d_pos` and hidden width `d_h`.
    pub fn new(store: &mut ParamStore, name: &str, d_in: usize, d_pos: usize, d_h: usize) -> Self {
        Self {
            lstm: LstmCell::new(store, &format!("{name}.lstm"), d_in + d_pos, d_h),
            head: Linear::new(store, &format!("{name}.head"), d_h, 1),
            d_pos,
        }
    }

    /// Runs the SortLSTM along `route` and returns the predicted times
    /// as an `[n, 1]` tensor aligned with **node index** (so
    /// `out[i]` is the prediction for node `i`, whatever its route
    /// position).
    pub fn forward(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        x_in: TensorId,
        route: &[usize],
    ) -> TensorId {
        let (n, _) = t.shape(x_in);
        assert_eq!(route.len(), n, "route length mismatch");
        let mut per_node: Vec<Option<TensorId>> = vec![None; n];
        let mut state = self.lstm.zero_state(t);
        for (s, &node) in route.iter().enumerate() {
            let pe = positional_encoding(s + 1, self.d_pos);
            let pe = t.constant(1, self.d_pos, pe);
            let xi = t.row(x_in, node);
            let inp = t.concat_cols(&[xi, pe]);
            state = self.lstm.step(t, store, inp, state);
            let y = self.head.forward(t, store, state.0); // [1,1]
            assert!(per_node[node].is_none(), "route revisits node {node}");
            per_node[node] = Some(y);
        }
        let rows: Vec<TensorId> =
            per_node.into_iter().map(|o| o.expect("route covers all nodes")).collect();
        t.concat_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtp_tensor::optim::{Adam, Optimizer};

    /// Full-scoring greedy decoding, the oracle of
    /// [`RouteDecoder::decode`]: every step scores all `n` nodes, skips
    /// the visited ones while taking the first strict maximum, and
    /// advances the state LSTM after every pick, the last included.
    fn decode_full_scoring(
        dec: &RouteDecoder,
        t: &mut Tape,
        store: &ParamStore,
        x_in: TensorId,
        u: TensorId,
    ) -> Vec<usize> {
        let (n, _) = t.shape(x_in);
        let keys = dec.w_node.forward(t, store, x_in);
        let mut state = dec.lstm.zero_state(t);
        let mut visited = vec![false; n];
        let mut route = Vec::with_capacity(n);
        for _ in 0..n {
            let logits = dec.step_logits(t, store, keys, state.0, u);
            let data = t.data(logits);
            let mut best = usize::MAX;
            let mut best_v = f32::NEG_INFINITY;
            for (j, &v) in data.iter().enumerate() {
                if !visited[j] && v > best_v {
                    best_v = v;
                    best = j;
                }
            }
            visited[best] = true;
            route.push(best);
            let inp = t.row(x_in, best);
            state = dec.lstm.step(t, store, inp, state);
        }
        route
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn live_candidate_decode_matches_full_scoring(
            n in 1usize..=12,
            x in prop::collection::vec(-3.0f32..3.0, 12 * 6),
            u in prop::collection::vec(-1.0f32..1.0, 3),
            seed in any::<u64>(),
        ) {
            let mut store = ParamStore::new(seed);
            let dec = RouteDecoder::new(&mut store, "d", 6, 3, 8, 8);
            let run = |full: bool| {
                let mut t = Tape::inference();
                let xt = t.constant(n, 6, x[..n * 6].to_vec());
                let ut = t.constant(1, 3, u.clone());
                if full {
                    decode_full_scoring(&dec, &mut t, &store, xt, ut)
                } else {
                    dec.decode(&mut t, &store, xt, ut)
                }
            };
            prop_assert_eq!(run(false), run(true));
        }
    }

    #[test]
    #[should_panic(expected = "live candidate logits exceeds -inf")]
    fn decode_names_non_finite_logits() {
        let mut store = ParamStore::new(6);
        let dec = RouteDecoder::new(&mut store, "d", 4, 2, 8, 8);
        let mut t = Tape::inference();
        let x = t.constant(3, 4, vec![f32::NAN; 12]);
        let u = t.constant(1, 2, vec![0.1, 0.2]);
        dec.decode(&mut t, &store, x, u);
    }

    #[test]
    fn route_decoder_emits_permutations() {
        let mut store = ParamStore::new(1);
        let dec = RouteDecoder::new(&mut store, "d", 8, 4, 8, 8);
        let mut t = Tape::new();
        let x = t.constant(6, 8, (0..48).map(|i| (i as f32 * 0.31).sin()).collect());
        let u = t.constant(1, 4, vec![0.1, 0.2, -0.1, 0.5]);
        let route = dec.decode(&mut t, &store, x, u);
        let mut seen = [false; 6];
        for &i in &route {
            assert!(!seen[i], "repeat in decoded route");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn route_decoder_learns_a_fixed_ordering() {
        // Toy task: route nodes in ascending order of their first
        // feature. The pointer decoder must reach near-zero loss.
        let mut store = ParamStore::new(2);
        let dec = RouteDecoder::new(&mut store, "d", 4, 2, 16, 16);
        let mut opt = Adam::new(0.01);
        let samples: Vec<(Vec<f32>, Vec<usize>)> = (0..8)
            .map(|s| {
                let vals: Vec<f32> = (0..5).map(|i| ((s * 5 + i) as f32 * 0.73).sin()).collect();
                let mut order: Vec<usize> = (0..5).collect();
                order.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
                let feats: Vec<f32> = vals.iter().flat_map(|&v| [v, v * v, 1.0 - v, 0.5]).collect();
                (feats, order)
            })
            .collect();
        let mut last = f32::MAX;
        for _ in 0..150 {
            store.zero_grad();
            let mut total = 0.0;
            for (feats, order) in &samples {
                let mut t = Tape::new();
                let x = t.constant(5, 4, feats.clone());
                let u = t.constant(1, 2, vec![0.0, 0.0]);
                let loss = dec.train_loss(&mut t, &store, x, u, order);
                total += t.scalar(loss);
                t.backward(loss, &mut store);
            }
            store.scale_grad(1.0 / samples.len() as f32);
            opt.step(&mut store);
            last = total / samples.len() as f32;
        }
        assert!(last < 0.15, "pointer decoder failed to learn sorting: {last}");
        // and greedy decode now reproduces the orderings
        let (feats, order) = &samples[0];
        let mut t = Tape::new();
        let x = t.constant(5, 4, feats.clone());
        let u = t.constant(1, 2, vec![0.0, 0.0]);
        assert_eq!(&dec.decode(&mut t, &store, x, u), order);
    }

    #[test]
    fn beam_width_one_equals_greedy() {
        let mut store = ParamStore::new(11);
        let dec = RouteDecoder::new(&mut store, "d", 6, 3, 8, 8);
        let mut t = Tape::new();
        let x = t.constant(7, 6, (0..42).map(|i| (i as f32 * 0.21).sin()).collect());
        let u = t.constant(1, 3, vec![0.2, -0.3, 0.1]);
        let greedy = dec.decode(&mut t, &store, x, u);
        let beam1 = dec.decode_beam(&mut t, &store, x, u, 1);
        assert_eq!(greedy, beam1);
    }

    #[test]
    fn beam_search_never_scores_below_greedy() {
        // sequence log-probability of the beam-8 route must be >= that
        // of the greedy route under the same model
        let mut store = ParamStore::new(12);
        let dec = RouteDecoder::new(&mut store, "d", 5, 2, 8, 8);
        let score = |route: &[usize], t: &mut Tape, x, u| -> f32 {
            // teacher-force the route and sum its step log-probs
            let loss = dec.train_loss(t, &store, x, u, route);
            -t.scalar(loss) * route.len() as f32
        };
        let data: Vec<f32> = (0..30).map(|i| (i as f32 * 0.47).cos()).collect();
        let mut t = Tape::new();
        let x = t.constant(6, 5, data);
        let u = t.constant(1, 2, vec![0.4, -0.2]);
        let greedy = dec.decode(&mut t, &store, x, u);
        let beamed = dec.decode_beam(&mut t, &store, x, u, 8);
        let sg = score(&greedy, &mut t, x, u);
        let sb = score(&beamed, &mut t, x, u);
        assert!(sb >= sg - 1e-4, "beam ({sb}) worse than greedy ({sg})");
        // both must be permutations
        let mut seen = [false; 6];
        for &i in &beamed {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn sort_lstm_aligns_outputs_with_node_index() {
        let mut store = ParamStore::new(3);
        let sl = SortLstm::new(&mut store, "s", 4, 4, 8);
        let mut t = Tape::new();
        let x = t.constant(3, 4, (0..12).map(|i| i as f32 / 12.0).collect());
        let route = vec![2, 0, 1];
        let out = sl.forward(&mut t, &store, x, &route);
        assert_eq!(t.shape(out), (3, 1));
        // Re-running with the identity route gives a different
        // step-order, so node 2's value must change (it moves from step
        // 1 to step 3).
        let mut t2 = Tape::new();
        let x2 = t2.constant(3, 4, (0..12).map(|i| i as f32 / 12.0).collect());
        let out2 = sl.forward(&mut t2, &store, x2, &[0, 1, 2]);
        assert_ne!(t.data(out)[2], t2.data(out2)[2], "route position must matter");
    }

    #[test]
    fn sort_lstm_learns_cumulative_times() {
        // Toy: each node carries its service duration; arrival time of
        // the k-th routed node is the prefix sum. SortLSTM must regress
        // it from route-ordered inputs.
        let mut store = ParamStore::new(4);
        let sl = SortLstm::new(&mut store, "s", 1, 4, 16);
        let mut opt = Adam::new(0.01);
        let mut last = f32::MAX;
        for step in 0..300 {
            let durs: Vec<f32> = (0..4).map(|i| 0.3 + ((step * 4 + i) % 7) as f32 * 0.1).collect();
            let route = vec![1, 3, 0, 2];
            let mut target = vec![0.0f32; 4];
            let mut acc = 0.0;
            for &nd in &route {
                acc += durs[nd];
                target[nd] = acc;
            }
            let mut t = Tape::new();
            let x = t.constant(4, 1, durs);
            let pred = sl.forward(&mut t, &store, x, &route);
            let y = t.constant(4, 1, target);
            let loss = t.mse_loss(pred, y);
            last = t.scalar(loss);
            store.zero_grad();
            t.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(last < 0.05, "SortLSTM failed prefix-sum regression: {last}");
    }

    #[test]
    #[should_panic(expected = "route revisits node")]
    fn sort_lstm_rejects_non_permutation_routes() {
        let mut store = ParamStore::new(5);
        let sl = SortLstm::new(&mut store, "s", 2, 4, 4);
        let mut t = Tape::new();
        let x = t.constant(3, 2, vec![0.0; 6]);
        sl.forward(&mut t, &store, x, &[0, 0, 1]);
    }
}
