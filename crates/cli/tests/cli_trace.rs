//! End-to-end tests of per-request trace propagation: traced replies
//! carry a trace id and a five-stage latency breakdown that is finite,
//! non-negative and sums to no more than the reply's own `latency_ms`;
//! stripping the trace fields leaves bytes identical to the untraced
//! path; and a forced worker panic produces a flight-recorder JSONL
//! dump containing the panicking request's trace id.

mod common;

use common::{
    parse_trace, query_line, start_server, strip_latency, strip_trace, traced_query_line,
    trained_model, Client,
};
use rtp_cli::serve::{ServeOptions, StatsReply};

/// Pipelines traced + untraced queries through one connection and
/// checks ids, stage arithmetic and byte identity.
fn check_traced_serving(opts: ServeOptions, seed: u64) {
    let (dataset, model) = trained_model(seed);
    let queries = 4usize;
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);

    let mut last_id = None;
    for k in 0..queries {
        // Untraced first: its reply must not mention tracing at all.
        let plain = client.round_trip(&query_line(&dataset, k));
        assert!(!plain.contains("trace_id"), "untraced reply leaked trace fields: {plain}");
        let traced = client.round_trip(&traced_query_line(&dataset, k));
        let (trace_id, stages) = parse_trace(&traced);

        // Pipelined requests on one connection get consecutive ids
        // (the untraced request in between consumed one).
        if let Some(prev) = last_id {
            assert_eq!(trace_id, prev + 2, "ids must be consecutive per connection");
        }
        last_id = Some(trace_id);

        // Stages are disjoint sub-intervals of the handle window, so
        // their sum is bounded by the reply's own latency.
        let v: serde::Value = serde_json::from_str(traced.trim()).expect("reply parses");
        let latency_ms = match v.get("latency_ms") {
            Some(serde::Value::Num(n)) => n.as_f64(),
            other => panic!("missing latency_ms: {other:?}"),
        };
        let latency_us = (latency_ms * 1000.0).round() as u64;
        let sum: u64 = stages.iter().sum();
        assert!(sum <= latency_us, "stage sum {sum} µs exceeds latency {latency_us} µs: {traced}");
        assert!(stages[2] > 0, "forward stage must be visible: {traced}");

        // Modulo latency and the trace fields, traced and untraced
        // replies to the same query are byte-identical.
        assert_eq!(
            strip_latency(&strip_trace(&traced)),
            strip_latency(&plain),
            "traced reply must differ only in trace fields"
        );
    }
    drop(client);
    server.shutdown_summary();
}

#[test]
fn traced_replies_one_worker() {
    check_traced_serving(ServeOptions { max_requests: 8, workers: 1, ..Default::default() }, 311);
}

#[test]
fn traced_replies_two_workers() {
    check_traced_serving(ServeOptions { max_requests: 8, workers: 2, ..Default::default() }, 312);
}

/// Every prediction runs on the worker that read its line: a traced
/// cache miss (full forward) and a traced cache hit (decoder replay)
/// both echo zero queue, batch-form and demux time, with a visible
/// forward.
#[test]
fn no_prediction_crosses_a_thread() {
    let (dataset, model) = trained_model(313);
    let opts = ServeOptions { max_requests: 3, workers: 2, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);
    // The same line twice: a miss, then a hit.
    for _ in 0..2 {
        let traced = client.round_trip(&traced_query_line(&dataset, 0));
        let (_, stages) = parse_trace(&traced);
        assert_eq!([stages[0], stages[1], stages[3]], [0, 0, 0], "crossed a thread: {traced}");
        assert!(stages[2] > 0, "forward stage must be nonzero: {traced}");
    }
    let stats: StatsReply =
        serde_json::from_str(&client.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.cache.misses"), Some(&1), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.cache.hits"), Some(&1), "{:?}", stats.counters);
    drop(client);
    server.shutdown_summary();
}

#[test]
fn worker_panic_dumps_flight_recorder_with_trace_id() {
    let (dataset, model) = trained_model(314);
    let dump_path =
        std::env::temp_dir().join(format!("rtp-flight-panic-{}.jsonl", std::process::id()));
    let dump_s = dump_path.to_str().unwrap().to_string();
    let opts =
        ServeOptions { allow_shutdown: true, flight_dump: Some(dump_s), ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    let traced = client.round_trip(&traced_query_line(&dataset, 0));
    let (trace_id, _) = parse_trace(&traced);
    // The panic command is the next request on the same connection, so
    // its trace id is the traced request's + 1.
    let reply = client.round_trip("{\"cmd\":\"panic\"}");
    assert!(reply.contains("internal error"), "{reply}");
    drop(client);

    let dump = std::fs::read_to_string(&dump_path).expect("flight dump written");
    std::fs::remove_file(&dump_path).ok();
    let panic_line = dump
        .lines()
        .find(|l| l.contains("\"kind\":\"panic\""))
        .unwrap_or_else(|| panic!("no panic event in dump:\n{dump}"));
    assert!(
        panic_line.contains(&format!("\"trace_id\":{}", trace_id + 1)),
        "panic event must carry the panicking request's trace id {}: {panic_line}",
        trace_id + 1
    );
    // The preceding successful request is part of the post-mortem.
    assert!(
        dump.lines().any(|l| {
            l.contains("\"kind\":\"request\"") && l.contains(&format!("\"trace_id\":{trace_id}"))
        }),
        "request history missing from dump:\n{dump}"
    );

    let mut client = Client::connect(&server.addr);
    client.round_trip("{\"cmd\":\"shutdown\"}");
    let summary = server.shutdown_summary();
    assert!(summary.contains("1 panic(s)"), "{summary}");
}

#[test]
fn dump_command_returns_flight_events_in_band() {
    let (dataset, model) = trained_model(315);
    let opts = ServeOptions { max_requests: 2, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);
    let traced = client.round_trip(&traced_query_line(&dataset, 0));
    let (trace_id, _) = parse_trace(&traced);
    let reply = client.round_trip("{\"cmd\":\"dump\"}");
    let v: serde::Value = serde_json::from_str(reply.trim()).expect("dump reply parses");
    let Some(serde::Value::Array(events)) = v.get("events") else {
        panic!("dump reply has no events array: {reply}");
    };
    assert!(
        events.iter().any(|e| {
            matches!(e.get("trace_id"), Some(serde::Value::Num(n)) if n.as_u64() == Some(trace_id))
        }),
        "served request's trace id {trace_id} missing from dump reply: {reply}"
    );
    drop(client);
    server.shutdown_summary();
}
