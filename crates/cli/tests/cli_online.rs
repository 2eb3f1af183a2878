//! End-to-end tests of the `rtp online` loop: train rounds on fresh
//! simulated days and hot-swap each round's weights into a live server.

mod common;

use common::{query_line, reply_version, start_sharded_server, trained_model, Client};
use rtp_cli::online::{run_online, OnlineOptions};
use rtp_cli::serve::ServeOptions;

fn temp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("rtp-online-{}-{tag}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

/// Two rounds of the loop against a live server: each round's reload
/// is acknowledged with an advancing version, and afterwards the
/// server provably serves the final round's model.
#[test]
fn online_rounds_train_and_hot_swap_into_a_live_server() {
    let (dataset, model) = trained_model(83);
    // M2G4Rtp is deliberately not Clone; round-trip through SavedModel
    // to give the server its own copy of the boot weights.
    let served = m2g4rtp::M2G4Rtp::from_saved(model.to_saved());
    let server = start_sharded_server(
        vec![("default".into(), served)],
        dataset.clone(),
        ServeOptions { allow_shutdown: true, workers: 2, ..Default::default() },
    );

    let out_path = temp_path("published.json");
    let opts = OnlineOptions {
        addr: server.addr.clone(),
        shard: Some("default".into()),
        rounds: 2,
        epochs_per_round: 1,
        seed: 901,
        threads: 1,
        out: out_path.clone(),
        checkpoint_dir: None,
    };
    let mut log = Vec::new();
    let reports = run_online(model, &dataset, &opts, &mut log).expect("online loop runs");
    let log = String::from_utf8(log).unwrap();

    assert_eq!(reports.len(), 2);
    // Version 1 is the boot model; rounds land 2 then 3.
    assert_eq!(reports[0].model_version, 2, "log:\n{log}");
    assert_eq!(reports[1].model_version, 3, "log:\n{log}");
    assert!(log.contains("round 1/2"), "log:\n{log}");
    assert!(log.contains("round 2/2"), "log:\n{log}");

    // The server really serves round 2's model, and counted the swaps.
    let mut client = Client::connect(&server.addr);
    let reply = client.round_trip(&query_line(&dataset, 0));
    assert_eq!(reply_version(&reply), 3, "server must serve the last pushed round: {reply}");
    let metrics = client.round_trip("{\"cmd\":\"metrics\"}");
    assert!(metrics.contains("serve_reload_count 2"), "metrics: {metrics}");
    assert!(metrics.contains("serve_reload_failures 0"), "metrics: {metrics}");

    // The published artifact is a loadable SavedModel (atomic publish
    // means it can never be seen half-written).
    let text = std::fs::read_to_string(&out_path).expect("published model exists");
    let saved: m2g4rtp::SavedModel = serde_json::from_str(&text).expect("published model parses");
    drop(saved);

    client.send("{\"cmd\":\"shutdown\"}");
    let summary = server.shutdown_summary();
    assert!(summary.contains("0 conn error(s)"), "summary:\n{summary}");
    std::fs::remove_file(&out_path).ok();
}

/// The loop fails fast — a dead server address aborts round 1 before
/// any training time is wasted on unpushable rounds.
#[test]
fn online_fails_fast_when_the_server_is_unreachable() {
    let (dataset, model) = trained_model(89);
    let out_path = temp_path("unreachable.json");
    let opts = OnlineOptions {
        // A bound-then-dropped ephemeral port: connection refused.
        addr: {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap().to_string();
            drop(l);
            addr
        },
        shard: None,
        rounds: 2,
        epochs_per_round: 1,
        seed: 902,
        threads: 1,
        out: out_path.clone(),
        checkpoint_dir: None,
    };
    let mut log = Vec::new();
    let err = run_online(model, &dataset, &opts, &mut log).expect_err("push must fail");
    assert!(
        err.to_string().contains("refused") || err.kind() == std::io::ErrorKind::ConnectionRefused,
        "unexpected error: {err}"
    );
    std::fs::remove_file(&out_path).ok();
}

/// The CLI wiring: `rtp online` parses, runs rounds in-process, and
/// reports the final served version on stdout.
#[test]
fn online_subcommand_runs_end_to_end() {
    let (dataset, model) = trained_model(97);
    let served = m2g4rtp::M2G4Rtp::from_saved(model.to_saved());
    let server = start_sharded_server(
        vec![("default".into(), served)],
        dataset.clone(),
        ServeOptions { allow_shutdown: true, workers: 1, ..Default::default() },
    );

    let dir = std::path::PathBuf::from(temp_path("cli"));
    std::fs::create_dir_all(&dir).unwrap();
    let ds_path = dir.join("d.json");
    let md_path = dir.join("m.json");
    let out_path = dir.join("pub.json");
    std::fs::write(&ds_path, dataset.to_json().unwrap()).unwrap();
    std::fs::write(&md_path, serde_json::to_string(&model.to_saved()).unwrap()).unwrap();

    let cli = rtp_cli::args::parse(&[
        "online",
        "--model",
        md_path.to_str().unwrap(),
        "--dataset",
        ds_path.to_str().unwrap(),
        "--addr",
        &server.addr,
        "--out",
        out_path.to_str().unwrap(),
        "--rounds",
        "1",
        "--epochs-per-round",
        "1",
        "--seed",
        "903",
        "--threads",
        "1",
    ])
    .expect("parses");
    let mut out = Vec::new();
    let code = rtp_cli::commands::run(cli.command, &mut out).expect("runs");
    let out = String::from_utf8(out).unwrap();
    assert_eq!(code, 0, "output:\n{out}");
    assert!(out.contains("online loop done: 1 round(s), serving model_version 2"), "{out}");

    let mut client = Client::connect(&server.addr);
    assert_eq!(reply_version(&client.round_trip(&query_line(&dataset, 0))), 2);
    client.send("{\"cmd\":\"shutdown\"}");
    server.shutdown_summary();
    std::fs::remove_dir_all(&dir).ok();
}
