//! The traced run's per-layer timings. Each layer is timed from
//! outside, around calls to its public functions, over the workload's
//! own generated inputs; nothing inside the program is instrumented.

use std::path::Path;
use std::time::Instant;

use m2g4rtp::{
    EdgeEmbedder, GatEncoder, M2G4Rtp, ModelConfig, NodeEmbedder, RouteDecoder, SavedModel,
    SortLstm, TrainCheckpoint, TrainConfig, Trainer,
};
use rayon::prelude::*;
use rtp_cli::serve::{ServeResponse, StatsReply};
use rtp_eval::service::apply_prediction;
use rtp_graph::{FeatureScaler, GraphBuilder, GraphConfig, MultiLevelGraph};
use rtp_sim::{Dataset, RtpQuery};
use rtp_tensor::optim::{Adam, Optimizer};
use rtp_tensor::{Numerics, ParamStore, Tape};
use serde::Deserialize;

use crate::report::Metric;
use crate::stats::median;

/// Minimum wall time each per-request layer loop runs for, seconds.
const LOOP_SECONDS: f64 = 1.5;
/// Repetitions of the start-up and training-step timings.
const REPEATS: usize = 5;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Medians of the per-request serve layers, µs, in request order:
/// parse → graph build → model forward (or cached-encoder decode) →
/// apply → serialize.
pub struct RequestLayers {
    /// `from_str::<Value>` + `RtpQuery::from_value`.
    pub parse: f64,
    /// `M2G4Rtp::build_graph`.
    pub build: f64,
    /// `predict_into` (encoders and decoders).
    pub forward: f64,
    /// `predict_encoded_into` (decoders only).
    pub decode: f64,
    /// `apply_prediction`.
    pub apply: f64,
    /// `to_string(&ServeResponse)`.
    pub serialize: f64,
    /// Requests timed.
    pub samples: usize,
}

/// Times the per-request serve layers on `lines`, then the batched
/// forward and the encoder/decoder shares, returning their metrics.
pub fn serve_layers(
    model: &M2G4Rtp,
    dataset: &Dataset,
    lines: &[String],
    seed: u64,
) -> (RequestLayers, Vec<Metric>) {
    let mut tape = model.inference_tape(Numerics::Exact);
    let (mut parse, mut build, mut forward, mut decode, mut apply, mut serialize) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut graphs = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < LOOP_SECONDS || i < lines.len() {
        let line = &lines[i % lines.len()];
        i += 1;
        let t = Instant::now();
        let value: serde::Value = serde_json::from_str(line).expect("generated lines parse");
        let query = RtpQuery::from_value(&value).expect("generated lines are queries");
        parse.push(us(t));
        let t = Instant::now();
        let g = model.build_graph(&dataset.city, &dataset.couriers[query.courier_id], &query);
        build.push(us(t));
        let t = Instant::now();
        let p = model.predict_into(&mut tape, &g);
        forward.push(us(t));
        let (_, enc) =
            model.predict_batch_encoded_into(&mut tape, &[&g]).pop().expect("one sample");
        let t = Instant::now();
        let replayed = model.predict_encoded_into(&mut tape, &g, &enc);
        decode.push(us(t));
        assert_eq!(replayed.route, p.route, "cached-encoder replay must equal the forward");
        let t = Instant::now();
        let app = apply_prediction(&query, &p).expect("predictions fit their query");
        apply.push(us(t));
        let t = Instant::now();
        let reply = serde_json::to_string(&ServeResponse {
            eta_minutes: app.etas.iter().map(|e| e.eta_minutes).collect(),
            sorted_orders: app.sorted_orders,
            aoi_sequence: app.aoi_sequence,
            latency_ms: 0.5,
            model_version: 1,
        })
        .expect("a reply always serialises");
        serialize.push(us(t));
        std::hint::black_box(reply);
        if graphs.len() < lines.len() {
            graphs.push(g);
        }
    }
    let layers = RequestLayers {
        parse: median(&parse),
        build: median(&build),
        forward: median(&forward),
        decode: median(&decode),
        apply: median(&apply),
        serialize: median(&serialize),
        samples: parse.len(),
    };
    let n = layers.samples;
    let mut metrics = vec![
        Metric::new("serde_json.request_parse_us", layers.parse, "us", n),
        Metric::new("serde_json.reply_serialize_us", layers.serialize, "us", n),
        Metric::new("rtp_eval.apply_us", layers.apply, "us", n),
        Metric::new("rtp_graph.build_us", layers.build, "us", n),
        Metric::new("m2g4rtp.forward_us", layers.forward, "us", n),
        Metric::new("m2g4rtp.decode_us", layers.decode, "us", n),
        Metric::new("m2g4rtp.encode_us", layers.forward - layers.decode, "us", n),
    ];
    metrics.extend(module_shares(model.config(), &graphs, layers.forward, seed));
    for (name, size) in [("m2g4rtp.batch2_us_per_query", 2), ("m2g4rtp.batch8_us_per_query", 8)] {
        let refs: Vec<&MultiLevelGraph> =
            graphs.iter().cycle().take(graphs.len().max(size)).collect();
        let mut per_query = Vec::new();
        let start = Instant::now();
        while per_query.is_empty() || start.elapsed().as_secs_f64() < LOOP_SECONDS / 3.0 {
            for chunk in refs.chunks_exact(size) {
                let t = Instant::now();
                std::hint::black_box(model.predict_batch_encoded_into(&mut tape, chunk));
                per_query.push(us(t) / size as f64);
            }
        }
        metrics.push(Metric::new(name, median(&per_query), "us", per_query.len() * size));
    }
    (layers, metrics)
}

/// Times the model's public encoder and decoder modules, built with the
/// served configuration's dimensions, on the same graphs; reports each
/// one's share of their sum, anchored to the measured forward time.
fn module_shares(
    config: &ModelConfig,
    graphs: &[MultiLevelGraph],
    forward_us: f64,
    seed: u64,
) -> Vec<Metric> {
    let c = config;
    let mut store = ParamStore::new(seed);
    let level = |store: &mut ParamStore, name: &str, cont: usize, d: usize| {
        (
            NodeEmbedder::new(
                store,
                &format!("{name}.node"),
                cont,
                rtp_graph::GLOBAL_CONT_DIM,
                c.aoi_vocab,
                c.courier_vocab,
                c.d_disc,
                d,
            ),
            EdgeEmbedder::new(store, &format!("{name}.edge"), rtp_graph::EDGE_DIM, d),
            GatEncoder::new(store, &format!("{name}.enc"), d, c.n_heads, c.n_layers, c.leaky_slope),
        )
    };
    let loc = level(&mut store, "loc", rtp_graph::LOC_CONT_DIM, c.d_loc);
    let aoi = level(&mut store, "aoi", rtp_graph::AOI_CONT_DIM, c.d_aoi);
    let d_in_loc = c.d_loc + c.d_pos + 1;
    let aoi_route = RouteDecoder::new(&mut store, "aoi.route", c.d_aoi, c.d_u(), c.d_aoi, c.d_aoi);
    let aoi_time = SortLstm::new(&mut store, "aoi.time", c.d_aoi, c.d_pos, c.d_aoi);
    let loc_route = RouteDecoder::new(&mut store, "loc.route", d_in_loc, c.d_u(), c.d_loc, c.d_loc);
    let loc_time = SortLstm::new(&mut store, "loc.time", d_in_loc, c.d_pos, c.d_loc);

    let mut tape = Tape::inference();
    let t = &mut tape;
    let mut total = [0.0f64; 6];
    let mut samples = 0;
    let start = Instant::now();
    while samples == 0 || start.elapsed().as_secs_f64() < LOOP_SECONDS {
        for g in graphs {
            t.clear();
            let clock = Instant::now();
            let x = loc.0.embed(t, &store, &g.locations, &g.global);
            let z = loc.1.embed(t, &store, &g.locations);
            let x_loc = loc.2.forward(t, &store, x, z, &g.locations.adj);
            total[0] += us(clock);
            let clock = Instant::now();
            let x = aoi.0.embed(t, &store, &g.aois, &g.global);
            let z = aoi.1.embed(t, &store, &g.aois);
            let x_aoi = aoi.2.forward(t, &store, x, z, &g.aois.adj);
            total[1] += us(clock);
            let u = t.constant(1, c.d_u(), vec![0.1; c.d_u()]);
            let clock = Instant::now();
            let aoi_seq = aoi_route.decode(t, &store, x_aoi, u);
            total[2] += us(clock);
            let clock = Instant::now();
            std::hint::black_box(aoi_time.forward(t, &store, x_aoi, &aoi_seq));
            total[3] += us(clock);
            // The location decoders read encoder rows widened by the
            // AOI guidance (position encoding + AOI arrival time).
            let n = g.locations.n;
            let mut x_in = Vec::with_capacity(n * d_in_loc);
            for row in t.data(x_loc).chunks(c.d_loc) {
                x_in.extend_from_slice(row);
                x_in.extend(std::iter::repeat_n(0.0, d_in_loc - c.d_loc));
            }
            let x_in = t.constant(n, d_in_loc, x_in);
            let clock = Instant::now();
            let loc_seq = loc_route.decode(t, &store, x_in, u);
            total[4] += us(clock);
            let clock = Instant::now();
            std::hint::black_box(loc_time.forward(t, &store, x_in, &loc_seq));
            total[5] += us(clock);
            samples += 1;
        }
    }
    let sum: f64 = total.iter().sum();
    let names = [
        "m2g4rtp.encoder.loc_us",
        "m2g4rtp.encoder.aoi_us",
        "m2g4rtp.decoder.aoi_route_us",
        "m2g4rtp.decoder.aoi_time_us",
        "m2g4rtp.decoder.loc_route_us",
        "m2g4rtp.decoder.loc_time_us",
    ];
    names
        .iter()
        .zip(total)
        .map(|(&name, part)| Metric::new(name, forward_us * part / sum, "us", samples))
        .collect()
}

/// Start-up layers: dataset and SavedModel parse, and model build.
pub fn startup_layers(dataset_json: &str, model_json: &str) -> Vec<Metric> {
    let (mut ds, mut parse, mut build) = (vec![], vec![], vec![]);
    for _ in 0..REPEATS {
        let t = Instant::now();
        std::hint::black_box(Dataset::from_json(dataset_json).expect("generated dataset parses"));
        ds.push(ms(t));
        let t = Instant::now();
        let saved: SavedModel = serde_json::from_str(model_json).expect("fixture model parses");
        parse.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(M2G4Rtp::from_saved(saved));
        build.push(ms(t));
    }
    vec![
        Metric::new("serde_json.dataset_parse_ms", median(&ds), "ms", REPEATS),
        Metric::new("serde_json.dataset_bytes", dataset_json.len() as f64, "bytes", 1),
        Metric::new("serde_json.model_parse_ms", median(&parse), "ms", REPEATS),
        Metric::new("serde_json.model_bytes", model_json.len() as f64, "bytes", 1),
        Metric::new("m2g4rtp.from_saved_ms", median(&build), "ms", REPEATS),
    ]
}

fn counter(name: &str) -> u64 {
    rtp_obs::metrics::global().snapshot().counters.get(name).copied().unwrap_or(0)
}

fn matmul_grad_calls() -> u64 {
    counter("tensor.matmul.grad_a") + counter("tensor.matmul.grad_b")
}

/// Training layers on `dataset`: graph preparation, the trainer's
/// epoch loop and validation sweep, one Adam step, and the gradient
/// matmul count. Returns them with the trained model's SavedModel
/// JSON, which must equal what `rtp train` writes for the same seed.
pub fn train_layers(dataset: &Dataset, seed: u64, epochs: usize) -> (Vec<Metric>, String) {
    let builder = GraphBuilder::new(GraphConfig::default());
    let mut prep = Vec::new();
    let mut val_graphs = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        let scaler = FeatureScaler::fit(dataset, &builder);
        let build = |samples: &[rtp_sim::RtpSample]| -> Vec<MultiLevelGraph> {
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
        std::hint::black_box(build(&dataset.train));
        val_graphs = build(&dataset.val);
        prep.push(ms(t));
    }

    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(dataset), seed);
    let grads_before = matmul_grad_calls();
    let config = TrainConfig { epochs, threads: 1, ..TrainConfig::quick() };
    let lr = config.lr;
    let report = Trainer::new(config).fit(&mut model, dataset);
    let grad_calls = (matmul_grad_calls() - grads_before) as f64 / report.epochs_run as f64;
    let saved = serde_json::to_string(&model.to_saved()).expect("a SavedModel always serialises");

    let mut tape = model.inference_tape(Numerics::Exact);
    let mut validate = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        for chunk in val_graphs.chunks(8) {
            let refs: Vec<&MultiLevelGraph> = chunk.iter().collect();
            std::hint::black_box(model.predict_batch_into(&mut tape, &refs));
        }
        validate.push(ms(t));
    }

    let mut store = model.store.clone();
    store.zero_grad();
    let mut adam = Adam::new(lr);
    let mut steps = Vec::new();
    for _ in 0..4 * REPEATS {
        let t = Instant::now();
        adam.step(&mut store);
        steps.push(ms(t));
    }
    let epochs_run = report.epochs_run;
    let metrics = vec![
        Metric::new("rtp_graph.prep_ms", median(&prep), "ms", REPEATS),
        Metric::new(
            "m2g4rtp.trainer.loop_s_per_epoch",
            report.train_loop_seconds / epochs_run as f64,
            "s",
            epochs_run,
        ),
        Metric::new("m2g4rtp.trainer.validate_ms", median(&validate), "ms", REPEATS),
        Metric::new("rtp_tensor.adam_step_ms", median(&steps), "ms", steps.len()),
        Metric::new("rtp_tensor.matmul_grad_calls_per_epoch", grad_calls, "count", epochs_run),
    ];
    (metrics, saved)
}

/// Checkpoint layers on a checkpoint `rtp train` wrote: serialising it
/// and writing it durably (write, fsync, rename), plus its size.
pub fn checkpoint_layers(cp: &TrainCheckpoint, scratch: &Path) -> Vec<Metric> {
    let (mut ser, mut write) = (vec![], vec![]);
    let mut bytes = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let json = serde_json::to_string(cp).expect("a checkpoint always serialises");
        ser.push(ms(t));
        let t = Instant::now();
        rtp_obs::fsio::write_atomic_str(&scratch.join("checkpoint_copy.json"), &json)
            .expect("the work directory is writable");
        write.push(ms(t));
        bytes = json.len();
    }
    vec![
        Metric::new("serde_json.ckpt_serialize_ms", median(&ser), "ms", ser.len()),
        Metric::new("m2g4rtp.checkpoint.write_ms", median(&write), "ms", write.len()),
        Metric::new("m2g4rtp.checkpoint.bytes", bytes as f64, "bytes", 1),
    ]
}

/// Per-request latencies a traced reply echoes: its handle time and
/// the five stages, µs.
pub struct Echo {
    /// `latency_ms` × 1000: the server's full handle time.
    pub handle_us: f64,
    /// queue_wait, batch_form, forward, demux, write.
    pub stages: [f64; 5],
}

/// Reads the handle time and stage breakdown out of a traced reply.
pub fn echo(reply: &str) -> Option<Echo> {
    let v: serde::Value = serde_json::from_str(reply).ok()?;
    let num = |v: &serde::Value| f64::from_value(v).ok();
    let handle_us = num(v.get("latency_ms")?)? * 1e3;
    let s = v.get("stages")?;
    let mut stages = [0.0; 5];
    for (slot, key) in stages.iter_mut().zip(STAGES) {
        *slot = num(s.get(&format!("{key}_us"))?)?;
    }
    Some(Echo { handle_us, stages })
}

const STAGES: [&str; 5] = ["queue_wait", "batch_form", "forward", "demux", "write"];

/// Server-side layer metrics of a traced session: the mean handle time
/// and stage breakdown echoed by its replies (warm-up included, each
/// with its client-side latency), the client-side remainder (front end
/// and network), and the deltas of the server's own counters over the
/// timed rounds.
pub fn server_layers(
    echoes: &[(f64, Echo)],
    before: &StatsReply,
    after: &StatsReply,
) -> Vec<Metric> {
    let n = echoes.len();
    let mean = |f: &dyn Fn(&(f64, Echo)) -> f64| echoes.iter().map(f).sum::<f64>() / n as f64;
    let handle = mean(&|(_, e)| e.handle_us);
    let mut metrics = vec![
        Metric::new("rtp_cli.handle_us", handle, "us", n),
        Metric::new("rtp_cli.frontend_us", mean(&|(client, _)| *client) - handle, "us", n),
    ];
    let stage_names = [
        "rtp_cli.stage.queue_wait_us",
        "rtp_cli.stage.batch_form_us",
        "rtp_cli.stage.forward_us",
        "rtp_cli.stage.demux_us",
        "rtp_cli.stage.write_us",
    ];
    for (k, name) in stage_names.into_iter().enumerate() {
        metrics.push(Metric::new(name, mean(&|(_, e)| e.stages[k]), "us", n));
    }
    let delta = |name: &str| {
        (after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)) as f64
    };
    let requests = delta("serve.requests").max(1.0);
    let batch =
        |s: &StatsReply| s.histograms.get("serve.batch_size").map_or((0, 0), |h| (h.sum, h.count));
    let (sum1, n1) = batch(after);
    let (sum0, n0) = batch(before);
    let batches = (n1 - n0) as usize;
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    let pool_hit_rate = after.gauges.get("tensor.pool.hit_rate").copied().unwrap_or(0.0);
    metrics.extend([
        Metric::new(
            "rtp_cli.batch_size_mean",
            if batches > 0 { (sum1 - sum0) as f64 / batches as f64 } else { 0.0 },
            "count",
            batches,
        ),
        Metric::new(
            "rtp_cli.cache_hit_rate",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
            "ratio",
            (hits + misses) as usize,
        ),
        Metric::new("rtp_tensor.pool_hit_rate", pool_hit_rate, "ratio", requests as usize),
        Metric::new(
            "rtp_tensor.matmul_fwd_calls_per_req",
            delta("tensor.matmul.fwd") / requests,
            "count",
            requests as usize,
        ),
        Metric::new(
            "rtp_tensor.lstm_cell_calls_per_req",
            delta("tensor.op.lstm_cell.calls") / requests,
            "count",
            requests as usize,
        ),
        Metric::new(
            "rtp_tensor.softmax_flops_per_req",
            delta("tensor.op.masked_softmax_rows.flops") / requests,
            "count",
            requests as usize,
        ),
    ]);
    metrics
}

/// The part of the server's handle time the timed layers do not
/// explain: handle − (parse + serialize + apply + miss share × (graph
/// build + forward) + hit share × decode). On cold traffic it is
/// mostly the batch window; on warm traffic, locking and bookkeeping.
pub fn residual(handle_us: f64, hit_rate: f64, l: &RequestLayers) -> f64 {
    handle_us
        - (l.parse
            + l.serialize
            + l.apply
            + (1.0 - hit_rate) * (l.build + l.forward)
            + hit_rate * l.decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_reads_handle_time_and_stages() {
        let reply = "{\"latency_ms\":1.25,\"model_version\":1,\"trace_id\":7,\"stages\":\
                     {\"queue_wait_us\":3,\"batch_form_us\":1000,\"forward_us\":120,\
                     \"demux_us\":4,\"write_us\":9},\"sorted_orders\":[0],\"aoi_sequence\":[0],\
                     \"eta_minutes\":[1.5]}";
        let e = echo(reply).expect("traced reply");
        assert_eq!(e.handle_us, 1250.0);
        assert_eq!(e.stages, [3.0, 1000.0, 120.0, 4.0, 9.0]);
        assert!(echo("{\"latency_ms\":1.0,\"sorted_orders\":[]}").is_none());
    }

    #[test]
    fn residual_weights_cold_and_warm_paths_by_hit_rate() {
        let l = RequestLayers {
            parse: 40.0,
            build: 100.0,
            forward: 1000.0,
            decode: 300.0,
            apply: 5.0,
            serialize: 10.0,
            samples: 1,
        };
        assert_eq!(residual(2155.0, 0.0, &l), 1000.0);
        assert_eq!(residual(400.0, 1.0, &l), 45.0);
    }
}
