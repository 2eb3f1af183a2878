//! End-to-end test of the in-band telemetry request: after serving
//! real queries, `{"cmd":"stats"}` must return a parseable registry
//! snapshot whose counters and latency histogram reflect exactly the
//! traffic the server handled.

mod common;

use common::{query_line, start_server, trained_model, Client};
use rtp_cli::serve::{ServeOptions, ServeResponse, StatsReply};

#[test]
fn stats_request_reports_latency_percentiles_and_errors() {
    let (dataset, model) = trained_model(171);
    // 2 queries + 1 bad line + 1 stats request = 4 replies.
    let opts = ServeOptions { max_requests: 4, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);

    let mut client = Client::connect(&server.addr);
    for k in 0..2 {
        let reply = client.round_trip(&query_line(&dataset, k));
        let resp: ServeResponse = serde_json::from_str(&reply).expect("valid response JSON");
        // latency field is the histogram sample (µs-quantised), so it
        // must be strictly positive and finite
        assert!(resp.latency_ms > 0.0 && resp.latency_ms.is_finite());
    }

    let reply = client.round_trip("not json at all");
    assert!(reply.contains("error"), "{reply}");

    let reply = client.round_trip("{\"cmd\":\"stats\"}");
    let stats: StatsReply = serde_json::from_str(&reply).expect("stats reply parses");

    // exact traffic accounting
    assert_eq!(stats.counters.get("serve.requests"), Some(&2));
    assert_eq!(stats.counters.get("serve.errors"), Some(&1));
    assert_eq!(stats.counters.get("serve.stats"), Some(&1));
    assert_eq!(stats.counters.get("serve.connections"), Some(&1));
    assert_eq!(stats.counters.get("serve.conn_errors"), Some(&0));
    assert_eq!(stats.counters.get("serve.panics"), Some(&0));
    assert!(stats.gauges.get("serve.active_connections").copied() >= Some(1.0));

    let lat = stats.histograms.get("serve.latency_us").expect("latency histogram present");
    assert_eq!(lat.count, 2);
    assert!(lat.p50 >= 1 && lat.p50 <= lat.p99 && lat.p99 <= lat.max);

    let route_len = stats.histograms.get("serve.route_len").expect("route_len histogram");
    assert_eq!(route_len.count, 2);
    assert!(route_len.max as usize <= dataset.test[0].query.orders.len().max(64));

    // the matmul kernel counters ride in from the global registry
    let fwd = stats.counters.get("tensor.matmul.fwd").copied().unwrap_or(0);
    assert!(fwd > 0, "matmul counter should have counted training + serving work");

    // shutdown summary: served/ok/error counts and latency percentiles
    let summary = server.shutdown_summary();
    assert!(summary.contains("served 4 request(s): 2 ok, 1 error(s), 1 stats"), "{summary}");
    assert!(summary.contains("connections: 1 handled, 0 conn error(s), 0 panic(s)"), "{summary}");
    assert!(summary.contains("latency p50"), "{summary}");
    assert!(summary.contains("p99"), "{summary}");
}

/// The cache metrics must all round-trip through `{"cmd":"stats"}`:
/// the `serve.cache.hit_rate` gauge, the `serve.unknown_cmds` counter
/// and the stage histograms.
#[test]
fn stats_round_trip_cache_rate_unknown_cmds_and_tiers() {
    let (dataset, model) = trained_model(172);
    // 2 predictions + 1 unknown command + 1 stats = 4 replies
    let opts = ServeOptions { max_requests: 4, workers: 1, ..Default::default() };
    let server = start_server(model, dataset.clone(), opts);
    let mut client = Client::connect(&server.addr);

    // Same line twice: one cache miss + one cache hit.
    let line = query_line(&dataset, 0);
    let first = client.round_trip(&line);
    let second = client.round_trip(&line);
    assert_eq!(common::strip_latency(&first), common::strip_latency(&second));

    let reply = client.round_trip("{\"cmd\":\"frobnicate\"}");
    assert!(reply.contains("unknown command"), "{reply}");

    let reply = client.round_trip("{\"cmd\":\"stats\"}");
    let stats: StatsReply = serde_json::from_str(&reply).expect("stats reply parses");

    // serve.cache.hit_rate: 1 hit / (1 hit + 1 miss).
    assert_eq!(stats.counters.get("serve.cache.hits"), Some(&1));
    assert_eq!(stats.counters.get("serve.cache.misses"), Some(&1));
    assert_eq!(stats.gauges.get("serve.cache.hit_rate"), Some(&0.5));

    // serve.unknown_cmds: the typo'd command, kept out of serve.errors.
    assert_eq!(stats.counters.get("serve.unknown_cmds"), Some(&1));
    assert_eq!(stats.counters.get("serve.errors"), Some(&0));

    // The stage histograms ride along for every prediction; the
    // hand-off stages that always read 0 have none.
    for name in ["forward", "write"] {
        let h = stats
            .histograms
            .get(&format!("serve.stage.{name}_us"))
            .unwrap_or_else(|| panic!("serve.stage.{name}_us missing from stats"));
        assert_eq!(h.count, 2, "stage {name} must have one sample per prediction");
    }
    for name in ["queue_wait", "batch_form", "demux"] {
        let key = format!("serve.stage.{name}_us");
        assert!(!stats.histograms.contains_key(&key), "{key} is always 0 and not recorded");
    }

    drop(client);
    server.shutdown_summary();
}
