//! Hot-swap integration tests: the in-band `{"cmd":"reload"}` verb,
//! the SIGHUP path, the loud-rejection policy, the version-keyed
//! encoder cache, and a swap-under-load soak. Runs in its own test
//! binary because the SIGHUP test raises a real process-wide signal.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    query_line, reply_version, start_sharded_server, start_spec_server, strip_latency,
    strip_version, trained_model, Client,
};
use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rtp_cli::serve::{ServeOptions, ServeResponse, ShardSpec};
use rtp_eval::service::{apply_prediction, RtpService};
use rtp_sim::Dataset;

/// A second model on the same dataset that predicts differently from
/// [`trained_model`]'s (different init seed, no training) — structurally
/// swap-compatible, behaviourally distinguishable.
fn swapped_in_model(dataset: &Dataset, model_seed: u64) -> M2G4Rtp {
    let mut cfg = ModelConfig::for_dataset(dataset);
    cfg.d_loc = 16;
    cfg.d_aoi = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    let mut model = M2G4Rtp::new(cfg, model_seed);
    // One epoch attaches the feature pipeline (validate_swap requires
    // it); a different seed keeps the weights distinct.
    Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::quick() }).fit(&mut model, dataset);
    model
}

/// Writes a model as SavedModel JSON under a unique temp path.
fn write_model_file(model: &M2G4Rtp, tag: &str) -> String {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "rtp-reload-{}-{}-{tag}.json",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, serde_json::to_string(&model.to_saved()).expect("serialise")).unwrap();
    path.to_str().unwrap().to_string()
}

/// The reload request line for a model path (default shard).
fn reload_line(path: &str) -> String {
    format!("{{\"cmd\":\"reload\",\"model\":{}}}", serde_json::to_string(path).unwrap())
}

/// The server shape of the reload tests: two workers, so a swap lands
/// while another worker keeps serving, and in-band shutdown.
fn reload_opts() -> ServeOptions {
    ServeOptions { allow_shutdown: true, workers: 2, ..Default::default() }
}

/// A reload must advance the version tag on every subsequent reply,
/// actually serve the new weights (even for queries whose encoder
/// activations were cached under the old generation) — every post-swap
/// reply, cache miss and hit alike, equals the new model run
/// in-process, ETAs bit for bit — and count its cache invalidations.
#[test]
fn reload_advances_version_and_serves_the_new_weights() {
    let (dataset, model_a) = trained_model(61);
    let model_b = swapped_in_model(&dataset, 17);
    let path_b = write_model_file(&model_b, "b");

    let server =
        start_sharded_server(vec![("default".into(), model_a)], dataset.clone(), reload_opts());
    let mut client = Client::connect(&server.addr);

    // Warm the encoder cache: same queries twice, all on version 1.
    let mut before = Vec::new();
    for k in 0..4 {
        let line = query_line(&dataset, k);
        let first = client.round_trip(&line);
        assert_eq!(reply_version(&first), 1, "fresh server serves version 1: {first}");
        let second = client.round_trip(&line);
        assert_eq!(
            strip_latency(&second),
            strip_latency(&first),
            "cache hit must not change the reply"
        );
        before.push(strip_version(&strip_latency(&first)));
    }

    let ack = client.round_trip(&reload_line(&path_b));
    assert!(ack.contains("\"reloaded\":\"default\""), "ack: {ack}");
    assert_eq!(reply_version(&ack), 2, "first swap lands version 2: {ack}");

    // Every post-swap reply is tagged with the new version, and the
    // swapped-in weights answer — not version-1 cache entries. The
    // oracle loads the same file the server swapped in.
    let oracle = RtpService::new(M2G4Rtp::from_saved(
        serde_json::from_str(&std::fs::read_to_string(&path_b).unwrap()).expect("parse model B"),
    ));
    let bits = |etas: &[f32]| etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    let mut changed = 0;
    for (k, old_body) in before.iter().enumerate() {
        let query = &dataset.test[k].query;
        let graph = oracle.build_graph(&dataset.city, &dataset.couriers[query.courier_id], query);
        let want = apply_prediction(query, &oracle.predict(&graph)).expect("prediction fits");
        let want_etas: Vec<f32> = want.etas.iter().map(|e| e.eta_minutes).collect();
        // The first send misses the drained cache; the repeat replays
        // the activations cached under version 2.
        for _ in 0..2 {
            let reply = client.round_trip(&query_line(&dataset, k));
            assert_eq!(reply_version(&reply), 2, "post-swap reply: {reply}");
            let got: ServeResponse = serde_json::from_str(&reply).expect("reply parses");
            assert_eq!(got.sorted_orders, want.sorted_orders, "query {k}: {reply}");
            assert_eq!(got.aoi_sequence, want.aoi_sequence, "query {k}: {reply}");
            assert_eq!(bits(&got.eta_minutes), bits(&want_etas), "query {k}: {reply}");
            if strip_version(&strip_latency(&reply)) != *old_body {
                changed += 1;
            }
        }
    }
    assert!(changed > 0, "differently-seeded weights must answer at least one query differently");

    // The swap's bookkeeping is observable: one reload, no failures,
    // and the warmed cache entries were invalidated.
    let metrics = client.round_trip("{\"cmd\":\"metrics\"}");
    assert!(metrics.contains("serve_reload_count 1"), "metrics: {metrics}");
    assert!(metrics.contains("serve_reload_failures 0"), "metrics: {metrics}");
    assert!(!metrics.contains("serve_cache_invalidations 0"), "swap must drain the cache");

    client.send("{\"cmd\":\"shutdown\"}");
    let summary = server.shutdown_summary();
    assert!(summary.contains("0 conn error(s), 0 panic(s)"), "summary:\n{summary}");
    std::fs::remove_file(&path_b).ok();
}

/// Bad reloads are rejected loudly — structured error naming the cause,
/// running model untouched, failure counted — never a silent fallback.
#[test]
fn reload_rejects_mismatches_without_touching_the_running_model() {
    let (dataset, model_a) = trained_model(67);

    // A config-mismatched model: double the location embedding width.
    let mut cfg = ModelConfig::for_dataset(&dataset);
    cfg.d_loc = 32;
    cfg.d_aoi = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    let mut mismatched = M2G4Rtp::new(cfg, 9);
    Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::quick() }).fit(&mut mismatched, &dataset);
    let path_mismatch = write_model_file(&mismatched, "mismatch");

    let garbage = std::env::temp_dir().join(format!("rtp-reload-{}-junk.json", std::process::id()));
    std::fs::write(&garbage, "{\"not\":\"a model\"}").unwrap();
    let path_garbage = garbage.to_str().unwrap().to_string();

    let server =
        start_sharded_server(vec![("default".into(), model_a)], dataset.clone(), reload_opts());
    let mut client = Client::connect(&server.addr);
    let line = query_line(&dataset, 0);
    let baseline = strip_version(&strip_latency(&client.round_trip(&line)));

    let cases: &[(String, &str)] = &[
        (reload_line(&path_mismatch), "d_loc"),
        (reload_line("/nonexistent/model.json"), "cannot read"),
        (reload_line(&path_garbage), "not a SavedModel"),
        ("{\"cmd\":\"reload\"}".to_string(), "needs a `model` key"),
        (
            format!(
                "{{\"cmd\":\"reload\",\"model\":{},\"shard\":\"nope\"}}",
                serde_json::to_string(&path_mismatch).unwrap()
            ),
            "unknown shard",
        ),
    ];
    for (request, expect) in cases {
        let reply = client.round_trip(request);
        assert!(reply.contains("\"error\""), "must reject: {reply}");
        assert!(reply.contains(expect), "error must name the cause ({expect}): {reply}");
    }

    // Still version 1, still the original weights.
    let reply = client.round_trip(&line);
    assert_eq!(reply_version(&reply), 1, "failed reloads must not advance the version");
    assert_eq!(strip_version(&strip_latency(&reply)), baseline);

    // Only the file-level/validation failures count as reload attempts;
    // the malformed requests (no model key, unknown shard) never reach
    // the swap machinery.
    let metrics = client.round_trip("{\"cmd\":\"metrics\"}");
    assert!(metrics.contains("serve_reload_count 0"), "metrics: {metrics}");
    assert!(metrics.contains("serve_reload_failures 3"), "metrics: {metrics}");

    client.send("{\"cmd\":\"shutdown\"}");
    server.shutdown_summary();
    std::fs::remove_file(&path_mismatch).ok();
    std::fs::remove_file(&path_garbage).ok();
}

/// SIGHUP re-reads every shard's original `--model` path through the
/// same swap machinery as the in-band verb.
#[test]
fn sighup_reloads_from_the_shard_model_path() {
    // Install the handler before any SIGHUP can be raised, so the
    // signal's default action (terminate) can never win the race
    // against the server's own installation.
    rtp_cli::evented::install_sighup_handler();

    let (dataset, model_a) = trained_model(71);
    let model_b = swapped_in_model(&dataset, 23);
    let path = write_model_file(&model_a, "sighup");

    let server = start_spec_server(
        vec![ShardSpec::with_path("default", model_a, path.clone())],
        dataset.clone(),
        reload_opts(),
    );
    let mut client = Client::connect(&server.addr);
    let line = query_line(&dataset, 1);
    assert_eq!(reply_version(&client.round_trip(&line)), 1);

    // Republish new weights at the served path, then poke the server.
    std::fs::write(&path, serde_json::to_string(&model_b.to_saved()).unwrap()).unwrap();
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    assert_eq!(unsafe { raise(1) }, 0, "raise(SIGHUP)");

    // The watcher polls; wait for the swap to land.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = client.round_trip(&line);
        if reply_version(&reply) == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "SIGHUP swap never landed: {reply}");
        std::thread::sleep(Duration::from_millis(20));
    }

    client.send("{\"cmd\":\"shutdown\"}");
    let summary = server.shutdown_summary();
    assert!(summary.contains("0 conn error(s)"), "summary:\n{summary}");
    std::fs::remove_file(&path).ok();
}

/// The headline guarantee: many consecutive hot-swaps under concurrent
/// pipelined load, with zero dropped connections, per-connection
/// monotonic version tags, and — because every swap republishes the
/// same weights — byte-identical reply bodies throughout.
#[test]
fn soak_ten_hot_swaps_under_pipelined_load_drop_nothing() {
    const SWAPS: u64 = 10;
    const CLIENTS: usize = 3;
    const PIPELINE: usize = 8;

    let (dataset, model_a) = trained_model(73);
    let path = write_model_file(&model_a, "soak");
    let server =
        start_sharded_server(vec![("default".into(), model_a)], dataset.clone(), reload_opts());
    let addr = server.addr.clone();
    let dataset = Arc::new(dataset);

    // Ground truth: one reply per query shape, version/latency
    // stripped. Identity swaps must never change these bytes.
    let mut reference = Vec::new();
    {
        let mut c = Client::connect(&addr);
        for k in 0..PIPELINE {
            reference.push(strip_version(&strip_latency(&c.round_trip(&query_line(&dataset, k)))));
        }
    }
    let reference = Arc::new(reference);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|w| {
            let (addr, dataset, reference, stop) =
                (addr.clone(), Arc::clone(&dataset), Arc::clone(&reference), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut last_version = 0u64;
                let mut replies = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    // Pipeline a burst, then drain it.
                    for k in 0..PIPELINE {
                        client.send(&query_line(&dataset, k));
                    }
                    for k in 0..PIPELINE {
                        let reply = client.recv();
                        assert!(!reply.is_empty(), "client {w}: server hung up mid-burst");
                        let version = reply_version(&reply);
                        assert!(
                            version >= last_version,
                            "client {w}: version went backwards {last_version} -> {version}"
                        );
                        last_version = version;
                        assert_eq!(
                            strip_version(&strip_latency(&reply)),
                            reference[k],
                            "client {w}: identity swap changed reply bytes"
                        );
                        replies += 1;
                    }
                }
                (replies, last_version)
            })
        })
        .collect();

    // Swap while the load runs; each ack must advance the version.
    let mut operator = Client::connect(&addr);
    for swap in 0..SWAPS {
        let ack = operator.round_trip(&reload_line(&path));
        assert_eq!(reply_version(&ack), swap + 2, "swap {swap} ack: {ack}");
        std::thread::sleep(Duration::from_millis(30));
    }

    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for w in workers {
        let (replies, last_version) = w.join().expect("load client panicked");
        assert!(replies > 0, "load client never completed a burst");
        assert!(last_version >= 1, "load client never saw a tagged reply");
        total += replies;
    }

    // The served model provably advanced across every swap.
    assert_eq!(reply_version(&operator.round_trip(&query_line(&dataset, 0))), SWAPS + 1);

    operator.send("{\"cmd\":\"shutdown\"}");
    let summary = server.shutdown_summary();
    assert!(
        summary.contains("0 conn error(s), 0 panic(s)"),
        "swaps must not drop connections; {total} replies served; summary:\n{summary}"
    );
    assert!(!summary.contains("dropped accepts"), "summary:\n{summary}");
    std::fs::remove_file(&path).ok();
}
