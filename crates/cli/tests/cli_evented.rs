//! End-to-end tests of the epoll connection front end and the worker
//! pool's run queue: replies checked against the model run in-process,
//! pipelined ordering, partial-line reassembly, the request-line cap,
//! pool-size independence of one pipelining connection, and the
//! shutdown-poke accounting fix (`serve.connections` counts real
//! clients only). The 1k-idle soak lives in its own binary
//! (`cli_soak.rs`) so its process-wide thread-count assertions don't
//! race other tests.

mod common;

use common::{
    query_line, start_server, strip_latency, strip_trace, traced_query_line, trained_model, Client,
};
use m2g4rtp::M2G4Rtp;
use rtp_cli::evented::MAX_LINE_BYTES;
use rtp_cli::serve::{ServeOptions, ServeResponse, StatsReply};
use rtp_eval::service::{apply_prediction, RtpService};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// A reply is a function of the request line and the model: every
/// prediction — plain, and traced with the trace fields stripped —
/// must equal `RtpService::predict` + `apply_prediction` run in-process
/// on the same SavedModel, ETAs bit for bit, from model version 1.
/// Error replies keep their exact text.
#[test]
fn replies_match_the_model_run_in_process() {
    let (dataset, model) = trained_model(211);
    let saved = model.to_saved();
    let server =
        start_server(M2G4Rtp::from_saved(saved.clone()), dataset.clone(), ServeOptions::default());
    let oracle = RtpService::new(M2G4Rtp::from_saved(saved));
    let bits = |etas: &[f32]| etas.iter().map(|e| e.to_bits()).collect::<Vec<_>>();

    let mut client = Client::connect(&server.addr);
    for k in 0..6 {
        let query = &dataset.test[k].query;
        let graph = oracle.build_graph(&dataset.city, &dataset.couriers[query.courier_id], query);
        let want = apply_prediction(query, &oracle.predict(&graph)).expect("prediction fits");
        let want_etas: Vec<f32> = want.etas.iter().map(|e| e.eta_minutes).collect();
        for line in [query_line(&dataset, k), traced_query_line(&dataset, k)] {
            let reply = strip_trace(&client.round_trip(&line));
            let got: ServeResponse = serde_json::from_str(&reply).expect("reply parses");
            assert_eq!(got.sorted_orders, want.sorted_orders, "query {k}: {reply}");
            assert_eq!(got.aoi_sequence, want.aoi_sequence, "query {k}: {reply}");
            assert_eq!(bits(&got.eta_minutes), bits(&want_etas), "query {k}: {reply}");
            assert_eq!(got.model_version, 1, "query {k}: {reply}");
        }
    }
    // Error replies are part of the protocol surface too.
    for (bad, want) in [
        ("not json", "{\"error\":\"bad request: invalid literal at byte 0\"}"),
        (
            "{\"cmd\":\"frobnicate\"}",
            "{\"error\":\"unknown command `frobnicate`: known commands are stats, metrics, \
             dump, reload, shutdown, panic\"}",
        ),
        ("{\"orders\":[]}", "{\"error\":\"bad request: missing field `courier_id`\"}"),
    ] {
        assert_eq!(client.round_trip(bad).trim(), want, "error reply for {bad:?}");
    }
}

/// A pipelined burst (all requests written before any reply is read)
/// must come back in request order, each reply identical to the one
/// the same line gets on its own.
#[test]
fn evented_pipelined_burst_replies_in_request_order() {
    let (dataset, model) = trained_model(223);
    let server = start_server(model, dataset.clone(), ServeOptions::default());
    let mut client = Client::connect(&server.addr);

    let mut expected = Vec::new();
    for k in 0..8 {
        client.send(&query_line(&dataset, k));
        expected.push(k);
    }
    let mut singles = Client::connect(&server.addr);
    for k in expected {
        let burst = strip_latency(&client.recv());
        let single = strip_latency(&singles.round_trip(&query_line(&dataset, k)));
        assert_eq!(burst, single, "burst reply {k} out of order or corrupted");
    }
}

/// A client that dribbles one request byte-per-write across many
/// readiness events must still get exactly one (correct) reply: the
/// reactor's per-connection buffer reassembles partial lines.
#[test]
fn dribbled_request_bytes_reassemble_into_one_request() {
    let (dataset, model) = trained_model(227);
    let server = start_server(model, dataset.clone(), ServeOptions::default());

    let mut reference = Client::connect(&server.addr);
    let line = query_line(&dataset, 0);
    let want = strip_latency(&reference.round_trip(&line));

    let mut dribbler = Client::connect(&server.addr);
    let bytes = format!("{line}\n");
    for (i, chunk) in bytes.as_bytes().chunks(1).enumerate() {
        dribbler.stream.write_all(chunk).expect("dribble byte");
        // Pause every few bytes so the kernel delivers separate
        // readiness events instead of coalescing the whole line.
        if i % 64 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(strip_latency(&dribbler.recv()), want, "dribbled request corrupted");

    // A complete line and a partial one in a single write: the
    // complete line is answered now, the tail once its newline lands.
    let (head, tail) = bytes.as_bytes().split_at(bytes.len() / 2);
    let mut mixed = Client::connect(&server.addr);
    mixed.send_partial(format!("{line}\n").as_bytes());
    mixed.send_partial(head);
    assert_eq!(strip_latency(&mixed.recv()), want, "complete line in mixed write");
    std::thread::sleep(Duration::from_millis(20));
    mixed.send_partial(tail);
    assert_eq!(strip_latency(&mixed.recv()), want, "split line completed later");
}

/// The shutdown self-connect poke must not be visible in connection
/// accounting: with two real clients, the summary says exactly
/// `connections: 2 handled`.
#[test]
fn shutdown_poke_is_excluded_from_connection_accounting() {
    let (dataset, model) = trained_model(229);
    let server = start_server(
        model,
        dataset.clone(),
        ServeOptions { allow_shutdown: true, workers: 2, ..Default::default() },
    );

    let mut c1 = Client::connect(&server.addr);
    let r = c1.round_trip(&query_line(&dataset, 0));
    assert!(r.contains("sorted_orders"), "{r}");
    let mut c2 = Client::connect(&server.addr);
    let ack = c2.round_trip("{\"cmd\":\"shutdown\"}");
    assert!(ack.contains("shutting down"), "{ack}");

    let summary = server.shutdown_summary();
    assert!(summary.contains("connections: 2 handled"), "poke leaked into accounting:\n{summary}");
}

/// One connection is drained by one worker at a time, so a second
/// worker must not slow a pipelining connection down: handing a spent
/// drain quantum back through the run queue costs no polling delay.
#[test]
fn a_second_worker_does_not_slow_one_pipelined_connection() {
    let (dataset, model) = trained_model(241);
    let saved = model.to_saved();
    let payload: String = (0..256).map(|k| query_line(&dataset, k) + "\n").collect();
    let burst = |workers: usize| {
        let server = start_server(
            M2G4Rtp::from_saved(saved.clone()),
            dataset.clone(),
            ServeOptions { workers, allow_shutdown: true, ..Default::default() },
        );
        let mut client = Client::connect(&server.addr);
        let mut writer = client.stream.try_clone().expect("clone stream");
        let payload = payload.clone();
        let t0 = Instant::now();
        let send = std::thread::spawn(move || writer.write_all(payload.as_bytes()));
        let replies: Vec<String> = (0..256).map(|_| strip_latency(&client.recv())).collect();
        let took = t0.elapsed();
        send.join().expect("writer thread").expect("burst sent");
        assert!(client.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
        server.shutdown_summary();
        (took, replies)
    };
    let (one, one_replies) = burst(1);
    let (two, two_replies) = burst(2);
    assert!(one_replies.iter().all(|r| r.contains("sorted_orders")), "{one_replies:?}");
    assert_eq!(one_replies, two_replies, "replies must not depend on the pool size");
    assert!(
        two.as_secs_f64() <= 1.5 * one.as_secs_f64(),
        "256 pipelined lines took {two:?} on 2 workers vs {one:?} on 1"
    );
}

/// A client that never sends `\n` costs its own connection, not server
/// memory: past `MAX_LINE_BYTES` it gets one error line and EOF, the
/// server counts it in `serve.oversize_lines`, and another client is
/// served before, during and after.
#[test]
fn oversize_line_costs_only_its_connection() {
    let (dataset, model) = trained_model(239);
    let server = start_server(
        model,
        dataset.clone(),
        ServeOptions { allow_shutdown: true, ..Default::default() },
    );
    let mut good = Client::connect(&server.addr);
    let line = query_line(&dataset, 0);
    let want = strip_latency(&good.round_trip(&line));

    // Exactly one byte over the cap, so the server has read every byte
    // when it closes (no unread data, hence a clean EOF, not a reset).
    let mut hog = Client::connect(&server.addr);
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0;
    while sent <= MAX_LINE_BYTES {
        let n = chunk.len().min(MAX_LINE_BYTES + 1 - sent);
        hog.send_partial(&chunk[..n]);
        sent += n;
        if sent == MAX_LINE_BYTES / 2 {
            assert_eq!(strip_latency(&good.round_trip(&line)), want, "served mid-flood");
        }
    }
    let reply = hog.recv();
    assert!(reply.contains("request line exceeds 1048576 bytes"), "{reply}");
    assert_eq!(hog.recv(), "", "the connection closes after its error line");

    assert_eq!(strip_latency(&good.round_trip(&line)), want, "served after the flood");
    let stats: StatsReply =
        serde_json::from_str(&good.round_trip("{\"cmd\":\"stats\"}")).expect("stats parses");
    assert_eq!(stats.counters.get("serve.oversize_lines"), Some(&1), "{:?}", stats.counters);
    assert_eq!(stats.counters.get("serve.conn_errors"), Some(&0), "{:?}", stats.counters);
    assert!(good.round_trip("{\"cmd\":\"shutdown\"}").contains("shutting down"));
    server.shutdown_summary();
}

/// A connection that dies mid-line (bytes sent, no newline, then EOF)
/// must cost only itself: the server stays healthy for the next
/// client and exits cleanly.
#[test]
fn eof_with_unterminated_partial_line_is_contained() {
    let (dataset, model) = trained_model(233);
    let server = start_server(
        model,
        dataset.clone(),
        ServeOptions { allow_shutdown: true, ..Default::default() },
    );

    let mut half = Client::connect(&server.addr);
    half.send_partial(b"{\"orders\":");
    drop(half);

    // The server keeps answering.
    let mut client = Client::connect(&server.addr);
    let r = client.round_trip(&query_line(&dataset, 1));
    assert!(r.contains("sorted_orders"), "{r}");
    let ack = client.round_trip("{\"cmd\":\"shutdown\"}");
    assert!(ack.contains("shutting down"), "{ack}");
    server.shutdown_summary();
}
