//! End-to-end tests of the TCP inference server: train a tiny model,
//! serve it on an ephemeral port with a worker pool, and act as one or
//! many clients speaking newline-delimited JSON — including clients
//! that misbehave (garbage, hard closes, induced panics), which must
//! cost only their own connection, never the server.

mod common;

use common::{query_line, start_cli_server, start_server, strip_latency, trained_model, Client};
use m2g4rtp::M2G4Rtp;
use rtp_cli::serve::{ServeOptions, ServeResponse, StatsReply};
use std::time::Duration;

/// Asserts a reply is a well-formed prediction for `n_orders` orders:
/// `sorted_orders` a permutation, ETAs finite and non-negative.
fn assert_valid_prediction(reply: &str, n_orders: usize) -> ServeResponse {
    let resp: ServeResponse = serde_json::from_str(reply).expect("valid response JSON");
    assert_eq!(resp.sorted_orders.len(), n_orders);
    assert_eq!(resp.eta_minutes.len(), n_orders);
    assert!(resp.eta_minutes.iter().all(|&e| e >= 0.0 && e.is_finite()));
    // `>= 0.0`, not `> 0.0`: a tiny model can answer inside one timer
    // tick on coarse clocks, legitimately reporting 0.0 ms.
    assert!(resp.latency_ms >= 0.0 && resp.latency_ms.is_finite());
    let mut seen = vec![false; n_orders];
    for &i in &resp.sorted_orders {
        assert!(!seen[i], "duplicate order index in route");
        seen[i] = true;
    }
    resp
}

/// Polls `{"cmd":"stats"}` on a fresh connection until `pred` holds or
/// the deadline passes (some failure counters lag the client's view of
/// the fault, e.g. a reset is seen at the server's next read).
fn wait_for_stats(addr: &str, pred: impl Fn(&StatsReply) -> bool) -> StatsReply {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let mut c = Client::connect(addr);
        let stats: StatsReply =
            serde_json::from_str(&c.round_trip("{\"cmd\":\"stats\"}")).expect("stats reply parses");
        if pred(&stats) || std::time::Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn serve_answers_queries_over_tcp() {
    let (dataset, model) = trained_model(151);
    let opts = ServeOptions { max_requests: 3, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    // 1–2: two valid queries, pipelined on one connection
    for k in 0..2 {
        let reply = client.round_trip(&query_line(&dataset, k));
        assert_valid_prediction(&reply, dataset.test[k].query.orders.len());
    }
    // 3: malformed request gets a JSON error, not a dropped connection
    let reply = client.round_trip("this is not json");
    assert!(reply.contains("error"), "expected error reply, got: {reply}");

    let summary = server.shutdown_summary();
    assert!(summary.contains("served 3 request(s): 2 ok, 1 error(s)"), "{summary}");
}

#[test]
fn concurrent_pipelining_clients_all_get_valid_permutations_with_exact_accounting() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;
    let (dataset, model) = trained_model(157);
    let opts = ServeOptions {
        workers: 4,
        max_requests: CLIENTS * PER_CLIENT + 1, // + the final stats line
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);

    let addr = &server.addr;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let dataset = &dataset;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                // pipeline: write every request, then read every reply
                for k in 0..PER_CLIENT {
                    client.send(&query_line(dataset, c * PER_CLIENT + k));
                }
                for k in 0..PER_CLIENT {
                    let reply = client.recv();
                    let q = &dataset.test[(c * PER_CLIENT + k) % dataset.test.len()].query;
                    assert_valid_prediction(&reply, q.orders.len());
                }
            });
        }
    });

    // every reply above is accounted for before this stats round trip
    let mut client = Client::connect(addr);
    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.requests"), Some(&((CLIENTS * PER_CLIENT) as u64)));
    assert_eq!(stats.counters.get("serve.errors"), Some(&0));
    assert_eq!(stats.counters.get("serve.connections"), Some(&((CLIENTS + 1) as u64)));
    let worker_sum: u64 = stats
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.worker.") && k.ends_with(".requests"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(worker_sum, (CLIENTS * PER_CLIENT) as u64, "per-worker counters must add up");

    let summary = server.shutdown_summary();
    assert!(
        summary.contains(&format!(
            "served {} request(s): {} ok, 0 error(s), 1 stats",
            CLIENTS * PER_CLIENT + 1,
            CLIENTS * PER_CLIENT
        )),
        "{summary}"
    );
}

#[test]
fn garbage_then_hard_close_costs_only_that_connection() {
    let (dataset, model) = trained_model(163);
    let opts = ServeOptions { workers: 2, allow_shutdown: true, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    // a well-behaved client, connected the whole time
    let mut good = Client::connect(&server.addr);
    let reply = good.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    {
        // a hostile client: garbage line, then a hard close mid-line
        // with an unread reply in its receive buffer (⇒ RST, so the
        // server sees a genuine I/O error, not a clean EOF)
        let mut bad = Client::connect(&server.addr);
        let reply = bad.round_trip("garbage that is not json");
        assert!(reply.contains("error"), "{reply}");
        bad.send(&query_line(&dataset, 1)); // reply never read
        bad.send_partial(b"{\"truncated");
        bad.close_with_unread();
    }

    // the good client keeps getting served while the bad one dies
    for k in 2..5 {
        let reply = good.round_trip(&query_line(&dataset, k));
        assert_valid_prediction(&reply, dataset.test[k].query.orders.len());
    }

    let stats = wait_for_stats(&server.addr, |s| {
        s.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1
    });
    assert!(
        stats.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1,
        "the hard close must surface as a connection error: {:?}",
        stats.counters
    );
    assert!(stats.counters.get("serve.requests").copied().unwrap_or(0) >= 5);

    let mut c = Client::connect(&server.addr);
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("conn error(s)"), "{summary}");
    assert!(!summary.contains("0 conn error(s)"), "{summary}");
}

#[test]
fn unknown_courier_is_an_error_not_a_courier0_prediction() {
    let (dataset, model) = trained_model(167);
    let opts = ServeOptions { max_requests: 3, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    let mut query = dataset.test[0].query.clone();
    query.courier_id = 1_000_000;
    let line = serde_json::to_string(&query).expect("serialise query");
    let reply = client.round_trip(&line);
    assert!(
        reply.contains("unknown courier_id 1000000"),
        "must name the bad courier id, got: {reply}"
    );
    assert!(
        serde_json::from_str::<ServeResponse>(&reply).is_err(),
        "an unknown courier must not yield a prediction: {reply}"
    );

    // a valid query on the same connection still works
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.errors"), Some(&1));
    assert_eq!(stats.counters.get("serve.requests"), Some(&1));

    server.shutdown_summary();
}

/// An out-of-range `weekday` or `aoi_id` is a named `bad request` for
/// its sender: never a prediction from a silently clamped weekday
/// embedding, never a panic in the city's AOI lookup.
#[test]
fn out_of_range_weekday_and_aoi_id_are_bad_requests_not_panics() {
    let (dataset, model) = trained_model(169);
    let opts = ServeOptions { max_requests: 4, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);

    let mut query = dataset.test[0].query.clone();
    query.weekday = 200;
    let reply = client.round_trip(&serde_json::to_string(&query).expect("serialise query"));
    assert!(reply.contains("bad request: weekday 200"), "must name the weekday, got: {reply}");

    let mut query = dataset.test[0].query.clone();
    let last = query.orders.len() - 1;
    query.orders[last].aoi_id = dataset.city.aois.len();
    let reply = client.round_trip(&serde_json::to_string(&query).expect("serialise query"));
    assert!(
        reply.contains(&format!(
            "bad request: orders[{last}].aoi_id: AOI {} is not in the city",
            dataset.city.aois.len()
        )),
        "must name the aoi_id, got: {reply}"
    );

    // The same connection still serves a good line.
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.errors"), Some(&2), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.shard.default.errors"), Some(&2), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.requests"), Some(&1), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.panics"), Some(&0), "{:?}", stats.counters);
    server.shutdown_summary();
}

#[test]
fn idle_connections_are_reaped() {
    let (dataset, model) = trained_model(173);
    let opts = ServeOptions {
        workers: 2,
        idle_timeout: Some(Duration::from_millis(200)),
        allow_shutdown: true,
        ..Default::default()
    };
    let server = start_server(model, dataset.clone(), opts);

    let mut stalled = Client::connect(&server.addr);
    // send nothing: the server must close this connection on its own
    let reply = stalled.recv();
    assert!(reply.is_empty(), "idle connection must be reaped with EOF, got: {reply}");

    let stats =
        wait_for_stats(&server.addr, |s| s.counters.get("serve.timeouts").copied() >= Some(1));
    assert!(
        stats.counters.get("serve.timeouts").copied().unwrap_or(0) >= 1,
        "{:?}",
        stats.counters
    );

    // reaping must not affect fresh connections
    let mut c = Client::connect(&server.addr);
    let reply = c.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 timeout(s)"), "{summary}");
}

/// The acceptance test: with one connection force-killed mid-request
/// and one request panicking, the server stays up, later requests on
/// fresh connections succeed, the shutdown summary reports the
/// failures — and the N-worker server's predictions are byte-identical
/// to the single-worker path for the same queries (which worker ran a
/// prediction must not change its numerics).
#[test]
fn fault_isolation_and_multi_worker_determinism() {
    let (dataset, model) = trained_model(179);
    // two bit-identical models from one set of trained weights
    let saved = serde_json::to_string(&model.to_saved()).expect("serialise model");
    let model_multi = M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));
    let model_single = M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));

    const QUERIES: usize = 5;
    let lines: Vec<String> = (0..QUERIES).map(|k| query_line(&dataset, k)).collect();

    // reference: single worker, sequential
    let reference: Vec<String> = {
        let opts = ServeOptions { workers: 1, max_requests: QUERIES, ..Default::default() };
        let server = start_server(model_single, dataset.clone(), opts);
        let mut client = Client::connect(&server.addr);
        let replies = lines.iter().map(|l| strip_latency(&client.round_trip(l))).collect();
        server.shutdown_summary();
        replies
    };

    // system under test: 4 workers, faults injected between requests
    let opts = ServeOptions { workers: 4, allow_shutdown: true, ..Default::default() };
    let server = start_server(model_multi, dataset.clone(), opts);

    // fault 1: an in-handler panic (via the gated fault-injection cmd)
    let mut panicker = Client::connect(&server.addr);
    let reply = panicker.round_trip("{\"cmd\":\"panic\"}");
    assert!(reply.contains("internal error"), "best-effort panic reply, got: {reply}");
    assert!(panicker.recv().is_empty(), "panicking connection must be dropped");
    drop(panicker);

    // fault 2: a connection force-killed mid-request (reply never read
    // ⇒ close sends RST ⇒ the server's next read on it fails)
    let mut killed = Client::connect(&server.addr);
    killed.send(&lines[0]);
    killed.close_with_unread();

    // the server is still up: fresh connections serve every query,
    // byte-identical to the single-worker reference
    let mut client = Client::connect(&server.addr);
    for (line, expect) in lines.iter().zip(&reference) {
        let got = strip_latency(&client.round_trip(line));
        assert_eq!(&got, expect, "multi-worker reply must be byte-identical to single-worker");
    }
    // and concurrent fresh clients agree too
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let addr = &server.addr;
            let lines = &lines;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for (line, expect) in lines.iter().zip(reference) {
                    assert_eq!(&strip_latency(&client.round_trip(line)), expect);
                }
            });
        }
    });

    let stats = wait_for_stats(&server.addr, |s| {
        s.counters.get("serve.panics").copied() == Some(1)
            && s.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1
    });
    assert_eq!(stats.counters.get("serve.panics"), Some(&1), "{:?}", stats.counters);
    assert!(
        stats.counters.get("serve.conn_errors").copied().unwrap_or(0) >= 1,
        "{:?}",
        stats.counters
    );

    let mut c = Client::connect(&server.addr);
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 panic(s)"), "{summary}");
    assert!(!summary.contains("0 conn error(s)"), "{summary}");
}

/// Concurrent cache hits and misses on a multi-worker server: four
/// pipelining clients send the same lines, so each line is a miss on
/// whichever worker serves it first and a hit for later ones. Every reply
/// must be byte-identical (modulo the latency field) to a single-worker
/// reference server running on its own copy of the same weights.
#[test]
fn concurrent_hits_and_misses_are_byte_identical_to_one_worker() {
    let (dataset, model) = trained_model(181);
    let saved = serde_json::to_string(&model.to_saved()).expect("serialise model");
    let load = || M2G4Rtp::from_saved(serde_json::from_str(&saved).expect("parse model"));

    const CLIENTS: usize = 4;
    const QUERIES: usize = 6;
    let lines: Vec<String> = (0..QUERIES).map(|k| query_line(&dataset, k)).collect();

    // Reference: single worker, sequential.
    let reference: Vec<String> = {
        let opts = ServeOptions { workers: 1, max_requests: QUERIES, ..Default::default() };
        let server = start_server(load(), dataset.clone(), opts);
        let mut client = Client::connect(&server.addr);
        let replies = lines.iter().map(|l| strip_latency(&client.round_trip(l))).collect();
        server.shutdown_summary();
        replies
    };

    let opts = ServeOptions { workers: 4, allow_shutdown: true, ..Default::default() };
    let server = start_server(load(), dataset.clone(), opts);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let addr = &server.addr;
            let lines = &lines;
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                // pipeline: everything in flight before reading
                for line in lines {
                    client.send(line);
                }
                for expect in reference {
                    assert_eq!(
                        &strip_latency(&client.recv()),
                        expect,
                        "4-worker reply must be byte-identical to the 1-worker reference"
                    );
                }
            });
        }
    });

    let mut c = Client::connect(&server.addr);
    let stats: StatsReply =
        serde_json::from_str(&c.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    let hits = stats.counters.get("serve.cache.hits").copied().unwrap_or(0);
    let misses = stats.counters.get("serve.cache.misses").copied().unwrap_or(0);
    assert_eq!(hits + misses, (CLIENTS * QUERIES) as u64, "every prediction is a hit or a miss");
    assert!(hits > 0, "repeat lines must hit the cache: {:?}", stats.counters);
    assert!(c.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    server.shutdown_summary();
}

/// `--batch-max` and `--batch-window-us` are accepted and ignored: a
/// cold query is answered as soon as its own forward finishes, never
/// held open waiting for other queries to batch with, even when the
/// flags ask for a 2 s window.
#[test]
fn a_cold_query_is_never_held_for_other_queries() {
    let (dataset, model) = trained_model(183);
    let dir = std::env::temp_dir().join(format!("rtp-serve-window-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (ds_path, md_path) = (dir.join("d.json"), dir.join("m.json"));
    std::fs::write(&ds_path, dataset.to_json().expect("serialise dataset")).unwrap();
    std::fs::write(&md_path, serde_json::to_string(&model.to_saved()).expect("serialise model"))
        .unwrap();

    let server = start_cli_server(&[
        "serve",
        "--model",
        md_path.to_str().unwrap(),
        "--dataset",
        ds_path.to_str().unwrap(),
        "--workers",
        "1",
        "--batch-max",
        "8",
        "--batch-window-us",
        "2000000",
        "--max-requests",
        "1",
    ]);
    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip(&query_line(&dataset, 0));
    let resp = assert_valid_prediction(&reply, dataset.test[0].query.orders.len());
    assert!(resp.latency_ms < 1000.0, "a cold query waited {} ms: {reply}", resp.latency_ms);
    let summary = server.shutdown_summary();
    assert!(summary.contains("served 1 request(s): 1 ok"), "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The encoder cache's exact behaviour on one connection: repeats of a
/// line are hits and byte-identical to the cold reply; changing the
/// same courier's route state (here: the query clock advancing) misses
/// the fingerprint, replaces the stale entry (counted as an
/// invalidation), and switching back re-encodes from scratch — again
/// byte-identical to the original cold reply, proving no stale
/// activations survive an invalidation.
#[test]
fn encoder_cache_hits_and_invalidations_are_exact_and_bit_identical() {
    let (dataset, model) = trained_model(191);
    let q_a = dataset.test[0].query.clone();
    let mut q_b = q_a.clone();
    q_b.time += 30.0; // same courier, route state moved on
    let line_a = serde_json::to_string(&q_a).expect("serialise");
    let line_b = serde_json::to_string(&q_b).expect("serialise");

    let opts = ServeOptions { workers: 2, allow_shutdown: true, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);

    let cold_a = strip_latency(&client.round_trip(&line_a)); // miss
    for _ in 0..3 {
        // hits: replayed activations must reproduce the cold bytes
        assert_eq!(strip_latency(&client.round_trip(&line_a)), cold_a);
    }
    let cold_b = strip_latency(&client.round_trip(&line_b)); // miss + invalidation
    assert_eq!(strip_latency(&client.round_trip(&line_b)), cold_b); // hit
                                                                    // switch back: the stale entry for this courier is gone, so this is
                                                                    // a fresh encode — and must still equal the original cold bytes
    assert_eq!(strip_latency(&client.round_trip(&line_a)), cold_a); // miss + invalidation

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.cache.hits"), Some(&4), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.cache.misses"), Some(&3), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.cache.invalidations"), Some(&2), "{:?}", stats.counters);
    let rate = stats.gauges.get("serve.cache.hit_rate").copied().unwrap_or(-1.0);
    assert!((rate - 4.0 / 7.0).abs() < 1e-9, "hit-rate gauge must track the counters: {rate}");

    assert!(client.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    server.shutdown_summary();
}

/// A line nested deeper than the JSON parser's cap is a `bad request`
/// for its sender, not a stack overflow that aborts the process: the
/// same connection and the server keep serving.
#[test]
fn deeply_nested_line_is_a_bad_request_not_a_crash() {
    let (dataset, model) = trained_model(199);
    let opts = ServeOptions { max_requests: 4, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip(&"[".repeat(200_000));
    assert!(reply.contains("bad request: nesting deeper than 128"), "{reply}");
    for k in 0..2 {
        let reply = client.round_trip(&query_line(&dataset, k));
        assert_valid_prediction(&reply, dataset.test[k].query.orders.len());
    }
    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.errors"), Some(&1), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.panics"), Some(&0), "{:?}", stats.counters);
    server.shutdown_summary();
}

/// Unknown control commands must be classified as control lines (never
/// falling through to the query parse-error path), answered with a
/// named reply, and counted in `serve.unknown_cmds` — not
/// `serve.errors`.
#[test]
fn unknown_command_gets_named_reply_and_its_own_counter() {
    let (dataset, model) = trained_model(193);
    let opts = ServeOptions { max_requests: 4, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip("{\"cmd\":\"flush\"}");
    assert!(reply.contains("unknown command `flush`"), "must name the command: {reply}");
    assert!(reply.contains("stats"), "must list the known commands: {reply}");
    assert!(!reply.contains("bad request"), "must not read as a query parse error: {reply}");

    // A non-string `cmd` is still a control line, not a malformed query.
    let reply = client.round_trip("{\"cmd\":42}");
    assert!(reply.contains("unknown command"), "{reply}");
    assert!(!reply.contains("bad request"), "{reply}");

    // Predictions still work on the same connection afterwards.
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_valid_prediction(&reply, dataset.test[0].query.orders.len());

    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.unknown_cmds"), Some(&2), "{:?}", stats.counters);
    assert_eq!(
        stats.counters.get("serve.errors"),
        Some(&0),
        "unknown commands must not pollute serve.errors: {:?}",
        stats.counters
    );
    assert_eq!(stats.counters.get("serve.requests"), Some(&1));
    server.shutdown_summary();
}

/// A panic reply spends a budgeted reply slot like any other, so a
/// server whose last budgeted line panics still shuts down.
#[test]
fn a_panic_reply_counts_toward_max_requests() {
    let (dataset, model) = trained_model(197);
    let opts =
        ServeOptions { max_requests: 1, workers: 1, allow_shutdown: true, ..Default::default() };
    let server = start_server(model, dataset, opts);
    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip("{\"cmd\":\"panic\"}");
    assert!(reply.contains("request handler panicked"), "{reply}");
    assert!(
        server.exits_within(Duration::from_secs(20)),
        "the server kept running after its only budgeted reply"
    );
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 panic(s)"), "{summary}");
}
