//! Telemetry overhead: the cost of leaving the observability layer
//! compiled into the training hot loop.
//!
//! Three arms train the same model on the same data:
//! * **stripped** — metrics kill switch off, no trace sink: every
//!   counter/gauge/histogram update and span open collapses to one
//!   relaxed atomic load;
//! * **instrumented** — the default shipping configuration (metrics
//!   on, no trace sink attached);
//! * **traced** — metrics on plus an in-memory span sink.
//!
//! Arms are interleaved and the minimum loop time of each is compared,
//! so a background hiccup in one repetition cannot masquerade as
//! overhead. Telemetry must also be *write-only*: the final-epoch loss
//! bits must match across all arms. Writes `results/obs_overhead.json`.
//!
//! A fourth pair of arms measures the *serve* path: one closed-loop
//! client round-trips the same query stream twice against a live
//! server — once plain, once with `"trace": true` so every reply
//! carries a trace id and the five-stage latency breakdown. The
//! throughput delta is the full cost of per-request tracing (stage
//! timing, flight-recorder events, the echoed JSON), and the budget is
//! ≤2%.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::Instant;

use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rtp_bench::{bench_dataset, bench_model};
use rtp_cli::serve::{serve, ServeOptions};

const EPOCHS: usize = 2;
const REPS: usize = 5;
/// Requests per timed serve repetition (per arm).
const SERVE_REQUESTS: usize = 200;

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Stripped,
    Instrumented,
    Traced,
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Stripped => "stripped",
            Arm::Instrumented => "instrumented",
            Arm::Traced => "traced",
        }
    }
}

fn measure(arm: Arm) -> (f64, u32) {
    match arm {
        Arm::Stripped => rtp_obs::metrics::set_enabled(false),
        Arm::Instrumented => rtp_obs::metrics::set_enabled(true),
        Arm::Traced => {
            rtp_obs::metrics::set_enabled(true);
            rtp_obs::trace::attach_memory();
        }
    }
    let dataset = bench_dataset();
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&dataset), 7);
    let cfg =
        TrainConfig { epochs: EPOCHS, patience: usize::MAX, threads: 1, ..TrainConfig::quick() };
    let report = Trainer::new(cfg).fit(&mut model, &dataset);
    let spans = rtp_obs::trace::detach().len();
    rtp_obs::metrics::set_enabled(true);
    if arm == Arm::Traced {
        assert!(spans > 0, "traced arm must have recorded spans");
    }
    let loss_bits = report.history.last().expect("ran at least one epoch").train_loss.to_bits();
    (report.train_loop_seconds, loss_bits)
}

/// Strips `"latency_ms":X,` and the `,"trace_id":N,"stages":{...}`
/// splice from a reply so a traced and an untraced reply to the same
/// query can be compared byte-for-byte.
fn strip_variable_fields(reply: &str) -> String {
    let mut body = reply.trim().to_string();
    if let Some(start) = body.find(",\"trace_id\":") {
        let stages_key = "\"stages\":{";
        let sk = body[start..].find(stages_key).expect("stages follows trace_id") + start;
        let close = body[sk + stages_key.len()..].find('}').expect("stages closes");
        body.replace_range(start..sk + stages_key.len() + close + 1, "");
    }
    let prefix = "{\"latency_ms\":";
    if let Some(rest) = body.strip_prefix(prefix) {
        if let Some(comma) = rest.find(',') {
            return format!("{{{}", &rest[comma + 1..]);
        }
    }
    body
}

/// One *paired* closed-loop pass: for each of `SERVE_REQUESTS` query
/// lines, a plain round trip immediately followed by a traced round
/// trip of the same line, each timed separately. Pairing at request
/// granularity means scheduler drift and CPU-frequency wander hit
/// both arms alike instead of whichever pass they landed in, which is
/// the only way a ≤2% budget is resolvable on a noisy 1-core box.
/// Returns (plain_seconds, traced_seconds) summed over the pass.
fn serve_pass(addr: &str, lines: &[String]) -> (f64, f64) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let mut round_trip = |req: &str| -> (String, f64) {
        let mut reply = String::new();
        let t0 = Instant::now();
        s.write_all(req.as_bytes()).expect("send");
        r.read_line(&mut reply).expect("reply");
        (reply, t0.elapsed().as_secs_f64())
    };
    let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
    for k in 0..SERVE_REQUESTS {
        let line = &lines[k % lines.len()];
        let (plain, dt) = round_trip(&format!("{line}\n"));
        plain_secs += dt;
        let (traced, dt) = round_trip(&format!("{{\"trace\":true,{}\n", &line[1..]));
        traced_secs += dt;
        // Verification outside both timers: the traced reply must be
        // byte-identical modulo latency and the trace splice, every
        // single pair.
        assert!(!plain.contains("\"error\""), "bench request failed: {plain}");
        assert!(!plain.contains("\"trace_id\":"), "untraced reply leaked trace: {plain}");
        assert!(traced.contains("\"trace_id\":"), "traced reply missing trace: {traced}");
        assert_eq!(
            strip_variable_fields(&plain),
            strip_variable_fields(&traced),
            "traced replies must differ only in trace fields"
        );
    }
    (plain_secs, traced_secs)
}

/// Interleaved plain/traced serve throughput against one live server;
/// returns min-time requests/s for (untraced, traced).
fn measure_serve() -> (f64, f64) {
    let dataset = bench_dataset();
    let model = bench_model(&dataset);
    let (addr_tx, addr_rx) = channel::<String>();
    struct AddrSink(std::sync::mpsc::Sender<String>, Vec<u8>);
    impl Write for AddrSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1.extend_from_slice(buf);
            while let Some(pos) = self.1.iter().position(|&b| b == b'\n') {
                if let Some(addr) =
                    String::from_utf8_lossy(&self.1[..pos]).strip_prefix("listening on ")
                {
                    let _ = self.0.send(addr.to_string());
                }
                self.1.drain(..=pos);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let ds = dataset.clone();
    let opts = ServeOptions { workers: 1, allow_shutdown: true, ..Default::default() };
    let server = std::thread::spawn(move || {
        let mut sink = AddrSink(addr_tx, Vec::new());
        serve(model, ds, opts, &mut sink).expect("server runs");
    });
    let addr = addr_rx.recv().expect("server address");

    // One line per distinct courier, as in serve_throughput. Since
    // the cache fingerprint is the full request line and plain/traced
    // lines differ, the alternation makes every request an encoder-
    // cache miss — so both arms run the full forward, graph build
    // included, and the reply path tracing instruments.
    let lines: Vec<String> = {
        let mut seen = std::collections::HashSet::new();
        dataset
            .test
            .iter()
            .filter(|s| seen.insert(s.query.courier_id))
            .map(|s| serde_json::to_string(&s.query).unwrap())
            .collect()
    };

    // Warm-up pass (encoder cache churn), then timed
    // paired passes; each arm keeps its own min total.
    let mut best = [f64::MAX; 2];
    serve_pass(&addr, &lines);
    for _ in 0..REPS {
        let (plain, traced) = serve_pass(&addr, &lines);
        best[0] = best[0].min(plain);
        best[1] = best[1].min(traced);
    }

    let mut s = TcpStream::connect(&addr).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    s.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    r.read_line(&mut ack).unwrap();
    server.join().expect("server exits");

    (SERVE_REQUESTS as f64 / best[0], SERVE_REQUESTS as f64 / best[1])
}

fn main() {
    let arms = [Arm::Stripped, Arm::Instrumented, Arm::Traced];
    let mut best = [f64::MAX; 3];
    let mut loss_bits = [0u32; 3];
    // warm-up rep (page cache, allocator) then interleaved timed reps
    for &arm in &arms {
        measure(arm);
    }
    for _ in 0..REPS {
        for (i, &arm) in arms.iter().enumerate() {
            let (secs, bits) = measure(arm);
            best[i] = best[i].min(secs);
            loss_bits[i] = bits;
        }
    }

    let identical = loss_bits.iter().all(|&b| b == loss_bits[0]);
    assert!(identical, "telemetry must be write-only: loss bits diverged {loss_bits:?}");

    let overhead = |i: usize| (best[i] - best[0]) / best[0] * 100.0;
    for (i, &arm) in arms.iter().enumerate() {
        println!(
            "{:<12} min loop {:.3}s  ({:+.2}% vs stripped)",
            arm.label(),
            best[i],
            overhead(i)
        );
    }
    println!("loss bit-identical across arms: {identical}");

    let (untraced_rps, traced_rps) = measure_serve();
    let serve_overhead_pct = (untraced_rps - traced_rps) / untraced_rps * 100.0;
    println!(
        "serve untraced  min-time {untraced_rps:>8.1} req/s\nserve traced    min-time {traced_rps:>8.1} req/s  ({serve_overhead_pct:+.2}% overhead, budget 2%)"
    );

    let entries: Vec<String> = arms
        .iter()
        .enumerate()
        .map(|(i, &arm)| {
            format!(
                "    {{\"arm\": \"{}\", \"min_loop_seconds\": {:.4}, \"overhead_pct_vs_stripped\": {:.3}}}",
                arm.label(),
                best[i],
                overhead(i)
            )
        })
        .collect();
    let serve_rows = format!(
        "    {{\"arm\": \"serve_untraced\", \"requests_per_sec\": {untraced_rps:.3}, \"overhead_pct_vs_untraced\": 0.000}},\n    {{\"arm\": \"serve_traced\", \"requests_per_sec\": {traced_rps:.3}, \"overhead_pct_vs_untraced\": {serve_overhead_pct:.3}}}"
    );
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"epochs\": {EPOCHS},\n  \"reps\": {REPS},\n  \"serve_requests_per_rep\": {SERVE_REQUESTS},\n  \"loss_bit_identical_across_arms\": {identical},\n  \"rows\": [\n{}\n  ],\n  \"serve_rows\": [\n{serve_rows}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("obs_overhead.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}
