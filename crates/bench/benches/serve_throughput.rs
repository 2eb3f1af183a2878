//! Serve-layer throughput: requests/s of the NDJSON TCP server at 1
//! worker vs all-core workers with concurrent closed-loop clients.
//!
//! Each arm starts a real server on an ephemeral port, drives it with
//! `CLIENTS` threads doing request/reply round trips, and reads
//! p50/p99 handle latency plus the encoder-cache hit rate from the
//! in-band `{"cmd":"stats"}` snapshot (the same histogram the
//! `latency_ms` response field feeds). Every arm serves the *same*
//! trained weights (one training run, replayed via `SavedModel`).
//! Writes `results/serve_throughput.json`.
//!
//! The client workload repeats one query line per distinct courier, so
//! every arm exercises the serve path the way a courier app does: a
//! courier's route state is encoded once cold, then repeat polls of the
//! same state replay the cached encoder activations through the
//! decoders only. The reported `cache_hit_rate` makes the repeat share
//! of the workload explicit.
//!
//! The hot-swap pair shares **one** server and **one** timed window,
//! split into alternating quiet/swap segments: each swap segment opens
//! with an identity `{"cmd":"reload"}` hot-swap, and completed
//! requests are counted per segment. Comparing quiet vs swap segments
//! measured seconds apart on the same server cancels the ambient
//! scheduler noise of a shared runner (whole back-to-back windows have
//! been observed to swing 2–6x for reasons that have nothing to do
//! with the server), so the pair's ratio isolates the true cost of a
//! production swap cadence: the reload's own CPU plus every distinct
//! query re-encoding once against the drained encoder cache. The ratio
//! is recorded as the swap row's `ratio_vs_twin` and enforced
//! by `perf_gate swap`. `--swap-only` runs just that pair (the CI perf
//! job's swap gate).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use m2g4rtp::M2G4Rtp;
use rtp_bench::{bench_dataset, bench_meta_json, bench_model};
use rtp_cli::serve::{serve, ServeOptions, StatsReply};
use rtp_sim::Dataset;
use rtp_tensor::parallel::resolve_threads;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 50;
/// Length of one quiet or swap segment of the hot-swap pair. One swap
/// per 10 s is already a hotter cadence than the online-training loop
/// (which retrains for seconds to minutes between pushes), so holding
/// the 5% gate at this pacing covers production with margin. The
/// reload itself costs a fixed ~100-200 ms of single-core CPU (parse +
/// validate + cache re-warm); the segment must be long enough that the
/// gate measures steady swapping cost, not that fixed cost divided by
/// an arbitrarily short window.
const SWAP_SEGMENT: Duration = Duration::from_secs(10);
/// Total alternating segments of the hot-swap pair (half quiet, half
/// swap, interleaved so both phases see the same ambient load).
const SWAP_SEGMENTS: usize = 8;

struct Row {
    /// Which arm measured the row: `plain`, `soak_twin`, `soak`,
    /// `swap_quiet` or `swap`. `perf_gate` keys rows by it, because
    /// arms share worker counts.
    arm: &'static str,
    workers: usize,
    requests: usize,
    requests_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    cache_hit_rate: f64,
    /// Open idle sockets parked on the server for the whole timed
    /// window (the soak arms; 0 everywhere else).
    idle_conns: usize,
    /// Process thread-count delta from opening those sockets — the
    /// evented front end's contract is that this is zero.
    idle_threads_delta: i64,
    /// Identity hot-swaps performed during the timed window (the swap
    /// arm; 0 everywhere else).
    reloads: usize,
}

/// Current thread count of this process (`/proc/self/status`).
fn process_threads() -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok()))
        .unwrap_or(0)
}

/// Soft `RLIMIT_NOFILE` cap (`/proc/self/limits`), so the soak arm
/// sizes itself instead of dying on EMFILE on constrained runners.
fn max_open_files() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("Max open files"))?;
            let soft = line.split_whitespace().nth(3)?;
            if soft == "unlimited" {
                Some(1 << 20)
            } else {
                soft.parse().ok()
            }
        })
        .unwrap_or(1024)
}

/// Captures the server's `listening on <addr>` line off its output
/// stream and forwards the address to the bench thread.
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

/// Starts a server thread and returns its bound address and handle.
fn start_server(
    workers: usize,
    model: M2G4Rtp,
    dataset: &Dataset,
) -> (String, std::thread::JoinHandle<()>) {
    let (addr_tx, addr_rx) = channel::<String>();
    let ds = dataset.clone();
    let opts = ServeOptions { workers, allow_shutdown: true, ..Default::default() };
    let server = std::thread::spawn(move || {
        let mut sink = AddrSink(addr_tx, Vec::new());
        serve(model, ds, opts, &mut sink).expect("server runs");
    });
    let addr = addr_rx.recv().expect("server address");
    (addr, server)
}

/// One query line per distinct courier: the deployed workload shape
/// is each courier's app polling its *current* route state, so
/// repeat requests for a courier carry the same line (cacheable)
/// until the route actually changes. Two lines for one courier would
/// instead model a courier flip-flopping between route states and
/// just thrash the per-courier cache slot.
fn query_lines(dataset: &Dataset) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    dataset
        .test
        .iter()
        .filter(|s| seen.insert(s.query.courier_id))
        .map(|s| serde_json::to_string(&s.query).unwrap())
        .collect()
}

/// Sends the first four query lines before the timed window, so the
/// timed requests do not pay first-request costs (the first
/// encoder-cache entries).
fn warm_server(addr: &str, lines: &[String]) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    for line in lines.iter().take(4) {
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
    }
}

/// Fetches the end-of-window stats snapshot and asks the server to
/// shut down; returns `(p50_us, p99_us, cache_hit_rate)`. The caller
/// still joins the server thread (after dropping any parked sockets).
fn stats_and_stop(addr: &str) -> (u64, u64, f64) {
    let mut s = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    s.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    let mut reply = String::new();
    r.read_line(&mut reply).unwrap();
    let stats: StatsReply = serde_json::from_str(&reply).expect("stats reply parses");
    let lat = &stats.histograms["serve.latency_us"];
    let cache_hit_rate = stats.gauges.get("serve.cache.hit_rate").copied().unwrap_or(0.0);
    s.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let mut ack = String::new();
    r.read_line(&mut ack).unwrap();
    (lat.p50, lat.p99, cache_hit_rate)
}

fn measure(
    arm: &'static str,
    workers: usize,
    model: M2G4Rtp,
    dataset: &Dataset,
    idle_conns: usize,
) -> Row {
    let (addr, server) = start_server(workers, model, dataset);
    let lines = query_lines(dataset);
    warm_server(&addr, &lines);

    // Soak arms: park a herd of idle sockets on the reactor before the
    // timed window. They never send a byte; the contract under test is
    // that they cost no threads and no hot-path throughput.
    let threads_before = process_threads();
    let mut parked = Vec::with_capacity(idle_conns);
    for _ in 0..idle_conns {
        parked.push(TcpStream::connect(&addr).expect("idle connect"));
    }
    let idle_threads_delta = process_threads() - threads_before;

    let t0 = Instant::now();
    std::thread::scope(|clients| {
        for c in 0..CLIENTS {
            let addr = &addr;
            let lines = &lines;
            clients.spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                for k in 0..REQUESTS_PER_CLIENT {
                    let line = &lines[(c * REQUESTS_PER_CLIENT + k) % lines.len()];
                    s.write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut reply = String::new();
                    r.read_line(&mut reply).unwrap();
                    assert!(!reply.contains("\"error\""), "bench request failed: {reply}");
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let (p50_us, p99_us, cache_hit_rate) = stats_and_stop(&addr);
    drop(parked);
    server.join().expect("server exits");

    let requests = CLIENTS * REQUESTS_PER_CLIENT;
    Row {
        arm,
        workers,
        requests,
        requests_per_sec: requests as f64 / elapsed,
        p50_us,
        p99_us,
        cache_hit_rate,
        idle_conns,
        idle_threads_delta,
        reloads: 0,
    }
}

/// The hot-swap pair: one server, one window of `SWAP_SEGMENTS`
/// alternating quiet/swap segments, returning `(quiet_row, swap_row)`
/// built from per-phase request counts. Clients run free (no request
/// budget) until every segment has elapsed; an operator connection
/// opens each swap segment with one identity hot-swap, so the swap
/// phase carries the reload's CPU, the post-swap cache re-warm, and
/// any hot-path cost of the generation change, while the interleaved
/// quiet phase pins down what the same box serves seconds away from a
/// swap.
fn measure_swap_pair(
    workers: usize,
    model: M2G4Rtp,
    dataset: &Dataset,
    reload_path: &str,
) -> (Row, Row) {
    let (addr, server) = start_server(workers, model, dataset);
    let lines = query_lines(dataset);
    warm_server(&addr, &lines);

    let done = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    // (requests, seconds) aggregated per phase across its segments.
    let mut quiet = (0u64, 0.0f64);
    let mut swap = (0u64, 0.0f64);
    let mut reloads = 0usize;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, lines, done, completed) = (&addr, &lines, &done, &completed);
            scope.spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_nodelay(true).unwrap();
                let mut r = BufReader::new(s.try_clone().unwrap());
                let mut k = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let line = &lines[(c * 131 + k) % lines.len()];
                    k += 1;
                    s.write_all(format!("{line}\n").as_bytes()).unwrap();
                    let mut reply = String::new();
                    r.read_line(&mut reply).unwrap();
                    assert!(!reply.contains("\"error\""), "bench request failed: {reply}");
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        let mut op = TcpStream::connect(&addr).unwrap();
        op.set_nodelay(true).unwrap();
        let mut op_r = BufReader::new(op.try_clone().unwrap());
        let reload_line = format!(
            "{{\"cmd\":\"reload\",\"model\":{}}}\n",
            serde_json::to_string(reload_path).unwrap()
        );
        for seg in 0..SWAP_SEGMENTS {
            let c0 = completed.load(Ordering::Relaxed);
            let t0 = Instant::now();
            if seg % 2 == 1 {
                op.write_all(reload_line.as_bytes()).unwrap();
                let mut ack = String::new();
                op_r.read_line(&mut ack).unwrap();
                assert!(ack.contains("\"reloaded\""), "bench reload failed: {ack}");
                reloads += 1;
            }
            // The reload ack can arrive late behind queued client
            // requests; the segment runs its full length from t0
            // regardless, and is scored on its *actual* duration.
            let spent = t0.elapsed();
            if spent < SWAP_SEGMENT {
                std::thread::sleep(SWAP_SEGMENT - spent);
            }
            let dt = t0.elapsed().as_secs_f64();
            let dc = completed.load(Ordering::Relaxed) - c0;
            let phase = if seg % 2 == 1 { &mut swap } else { &mut quiet };
            phase.0 += dc;
            phase.1 += dt;
        }
        done.store(true, Ordering::SeqCst);
    });

    let (p50_us, p99_us, cache_hit_rate) = stats_and_stop(&addr);
    server.join().expect("server exits");

    let row = |arm, (requests, seconds): (u64, f64), reloads: usize| Row {
        arm,
        workers,
        requests: requests as usize,
        requests_per_sec: requests as f64 / seconds,
        // One shared window: the latency/cache stats describe the pair
        // as a whole, not either phase alone.
        p50_us,
        p99_us,
        cache_hit_rate,
        idle_conns: 0,
        idle_threads_delta: 0,
        reloads,
    };
    (row("swap_quiet", quiet, 0), row("swap", swap, reloads))
}

fn main() {
    let swap_only = std::env::args().any(|a| a == "--swap-only");
    let cores = resolve_threads(0);
    let dataset = bench_dataset();
    // One training run shared by every arm, so no two arms differ in
    // weights.
    let saved = bench_model(&dataset).to_saved();
    let load = || M2G4Rtp::from_saved(saved.clone());
    // The swap arm reloads the very same weights from disk: an
    // identity swap, so the pair's delta is pure swap overhead.
    let reload_path = std::env::temp_dir()
        .join(format!("rtp-bench-swap-{}.json", std::process::id()))
        .to_str()
        .unwrap()
        .to_string();
    std::fs::write(&reload_path, serde_json::to_string(&saved).unwrap())
        .expect("write swap model file");
    // Measure 2 workers even on a 1-core box (recorded honestly via
    // cores_available, as in training_throughput).
    let mut settings = vec![1usize, 2, cores];
    settings.sort_unstable();
    settings.dedup();
    if swap_only {
        settings.clear();
    }

    // One arm per worker count, serving through the encoder cache.
    let mut rows: Vec<(Row, f64)> = Vec::new(); // (row, req/s relative to its twin arm)
    for &w in &settings {
        let row = measure("plain", w, load(), &dataset, 0);
        println!(
            "workers {:>2}: {:>8.1} req/s  (cache hit rate {:.1}%, p50 {:.3} ms, p99 {:.3} ms)",
            row.workers,
            row.requests_per_sec,
            row.cache_hit_rate * 100.0,
            row.p50_us as f64 / 1000.0,
            row.p99_us as f64 / 1000.0
        );
        rows.push((row, 1.0));
    }

    // Idle-connection soak: the 1-worker arm, measured
    // back-to-back with and without 1k+ parked idle sockets. The pair
    // is the honest before/after — the ratio is the throughput cost of
    // an idle herd on the epoll front end (contract: ~none), and
    // idle_threads_delta records that the herd consumed no threads.
    // Sized off RLIMIT_NOFILE (2 fds per in-process connection) so a
    // constrained runner soaks what it can instead of dying on EMFILE.
    if !swap_only {
        let soak_n = ((max_open_files().saturating_sub(256)) / 2).min(1500);
        let soak_base = measure("soak_twin", 1, load(), &dataset, 0);
        let soak = measure("soak", 1, load(), &dataset, soak_n);
        println!(
            "idle soak: {:>8.1} req/s with {} idle conns vs {:>8.1} req/s with none ({:.2}x, {} extra thread(s))",
            soak.requests_per_sec,
            soak.idle_conns,
            soak_base.requests_per_sec,
            soak.requests_per_sec / soak_base.requests_per_sec,
            soak.idle_threads_delta
        );
        let soak_ratio = soak.requests_per_sec / soak_base.requests_per_sec;
        rows.push((soak_base, 1.0));
        rows.push((soak, soak_ratio));
    }

    // Hot-swap pair: the all-core configuration (the deployed
    // shape) under interleaved quiet/swap segments. The intra-window
    // ratio is what `perf_gate swap` enforces — a production swap
    // cadence must be near-invisible to the hot path.
    let (swap_base, swap) = measure_swap_pair(cores, load(), &dataset, &reload_path);
    let swap_ratio = swap.requests_per_sec / swap_base.requests_per_sec;
    println!(
        "hot swap: {:>8.1} req/s across swap segments ({} reloads) vs {:>8.1} req/s across interleaved quiet segments ({:.2}x)",
        swap.requests_per_sec, swap.reloads, swap_base.requests_per_sec, swap_ratio
    );
    rows.push((swap_base, 1.0));
    rows.push((swap, swap_ratio));
    std::fs::remove_file(&reload_path).ok();

    let base = rows[0].0.requests_per_sec;
    let entries: Vec<String> = rows
        .iter()
        .map(|(r, ratio_vs_twin)| {
            format!(
                "    {{\"arm\": \"{}\", \"workers\": {}, \"requests\": {}, \"requests_per_sec\": {:.3}, \"speedup_vs_1\": {:.3}, \"ratio_vs_twin\": {:.3}, \"cache_hit_rate\": {:.4}, \"p50_us\": {}, \"p99_us\": {}, \"idle_conns\": {}, \"idle_threads_delta\": {}, \"reloads\": {}}}",
                r.arm,
                r.workers,
                r.requests,
                r.requests_per_sec,
                r.requests_per_sec / base,
                ratio_vs_twin,
                r.cache_hit_rate,
                r.p50_us,
                r.p99_us,
                r.idle_conns,
                r.idle_threads_delta,
                r.reloads
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"bench_meta\": {},\n  \"clients\": {CLIENTS},\n  \"requests_per_client\": {REQUESTS_PER_CLIENT},\n  \"cores_available\": {cores},\n  \"rows\": [\n{}\n  ]\n}}\n",
        bench_meta_json(),
        entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("serve_throughput.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}
