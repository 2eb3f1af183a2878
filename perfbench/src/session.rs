//! One serve workload against a real `rtp serve` child: repeated
//! start-ups (the set-up samples), then the timed rounds on the last
//! server, then its own `stats` snapshot.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use rtp_cli::serve::StatsReply;

use crate::client::{self, Conn, Record, Traffic};
use crate::inputs::{poisson_schedule, LineOrder, Workload};
use crate::proc::{self, Program};

/// The deployed server shape: two workers (this host's core count,
/// fixed so the benchmark does not follow the host), micro-batching
/// with the encoder cache, exact numerics, the evented front end.
const SERVER_FLAGS: [&str; 13] = [
    "--workers",
    "2",
    "--batch-max",
    "8",
    "--batch-window-us",
    "1000",
    "--numerics",
    "exact",
    "--frontend",
    "evented",
    "--allow-shutdown",
    "--port",
    "0",
];

/// Server start-ups per run; the set-up time is their median.
pub const STARTS: usize = 7;

/// Requests a gateway keeps in flight on `serve-pipelined`.
const PIPELINE_DEPTH: usize = 16;

/// Open-loop arrival rates, requests per second. Both are about a tenth
/// of what the one CPU a session runs on can serve (about 600 req/s
/// cold and 1,500 req/s warm on the host the benchmark was sized on),
/// so a request rarely waits for another and its latency is the cost
/// of one query. Queueing would turn every wobble of a shared host's
/// speed into a larger latency swing.
const COLD_RATE: f64 = 60.0;
const WARM_RATE: f64 = 150.0;

/// Share of the measuring time spent in open-loop rounds; the rest
/// goes to closed-loop rounds.
const OPEN_SHARE: f64 = 0.6;

/// Each phase is split into this many rounds, and each metric is the
/// median of its per-round values, so a burst of host noise spoils a
/// round rather than the run. Open-loop and closed-loop rounds
/// alternate, so both phases sample the whole measuring time.
pub const ROUNDS: usize = 10;

/// What a serve session sends.
pub struct Plan<'a> {
    /// The perfbench executable, started in `program` mode.
    pub exe: &'a Path,
    /// The workload (fixes connections, loop kind and rates).
    pub workload: Workload,
    /// Directory holding the model and dataset files.
    pub dir: &'a Path,
    /// Model file name inside `dir`.
    pub model_file: &'a str,
    /// Dataset file name inside `dir`.
    pub dataset_file: &'a str,
    /// Lines sent once after each start-up, one per courier.
    pub warmup: &'a [String],
    /// Lines the timed rounds draw from.
    pub pool: &'a [String],
    /// Seed of the arrival schedules and random line picks.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Server start-ups; the timed rounds run on the last one.
    pub starts: usize,
    /// Also snapshot `stats` right before the timed rounds.
    pub stats_before: bool,
}

/// One timed round.
pub struct Round {
    /// Its requests, in request-number order.
    pub records: Vec<Record>,
    /// Its length, seconds.
    pub seconds: f64,
    /// Server CPU time over the round, µs.
    pub cpu_us: f64,
}

/// One warm-up request.
pub struct Warmup {
    /// The line sent.
    pub line: String,
    /// The reply, or the I/O error that replaced it.
    pub reply: Result<String, String>,
    /// Client-side latency, µs.
    pub latency_us: f64,
}

/// Everything a serve session observed.
pub struct Outcome {
    /// Spawn-to-end-of-warm-up time of every start-up, seconds.
    pub setup_s: Vec<f64>,
    /// Server peak resident set of every start-up once it has loaded
    /// its files and accepted the connections, before the warm-up, KiB.
    pub loaded_hwm_kb: Vec<u64>,
    /// Warm-up exchanges of every start-up.
    pub warmup: Vec<Warmup>,
    /// Open-loop rounds (none on `serve-pipelined`).
    pub open: Vec<Round>,
    /// Closed-loop rounds: two request/reply connections, or the
    /// pipelining connection on `serve-pipelined`.
    pub closed: Vec<Round>,
    /// Lines of the timed rounds, by request number.
    pub order: LineOrder,
    /// Server peak resident set after the timed rounds, KiB.
    pub serving_hwm_kb: u64,
    /// Host steal ticks over the timed rounds.
    pub steal_ticks: u64,
    /// `stats` right before the timed rounds, when asked for.
    pub stats_before: Option<StatsReply>,
    /// `stats` right after the timed rounds.
    pub stats_after: StatsReply,
}

impl Outcome {
    /// Every timed request, each once.
    pub fn timed(&self) -> impl Iterator<Item = &Record> {
        self.open.iter().chain(&self.closed).flat_map(|r| &r.records)
    }

    /// The rounds whose latency is reported: open loop, except on
    /// `serve-pipelined`, whose closed loop is its deployed shape.
    pub fn latency_rounds(&self) -> &[Round] {
        if self.open.is_empty() {
            &self.closed
        } else {
            &self.open
        }
    }
}

/// A running `rtp serve` child.
struct Server {
    program: Program,
    addr: SocketAddr,
}

impl Server {
    fn start(plan: &Plan<'_>) -> io::Result<Server> {
        let mut args = vec!["serve", "--model", plan.model_file, "--dataset", plan.dataset_file];
        args.extend(SERVER_FLAGS);
        let program = Program::spawn(plan.exe, &args, plan.dir)?;
        let line = program.wait_for("listening on ", Duration::from_secs(60))?;
        let addr = line.text["listening on ".len()..]
            .trim()
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("address: {e}")))?;
        Ok(Server { program, addr })
    }

    fn stop(self, conn: &mut Conn) -> io::Result<()> {
        let ack = conn.call("{\"cmd\":\"shutdown\"}")?;
        if !ack.contains("shutting down") {
            return Err(io::Error::other(format!("shutdown refused: {ack}")));
        }
        let status = self.program.finish(Duration::from_secs(30))?;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        Ok(())
    }

    /// Runs `phase` and records the server CPU time it took.
    fn round(&self, seconds: f64, phase: impl FnOnce() -> Vec<Record>) -> io::Result<Round> {
        let cpu0 = self.program.cpu_us()?;
        let records = phase();
        Ok(Round { records, seconds, cpu_us: self.program.cpu_us()? - cpu0 })
    }
}

/// The server's own counters, gauges and histograms.
pub fn stats(conn: &mut Conn) -> io::Result<StatsReply> {
    let reply = conn.call("{\"cmd\":\"stats\"}")?;
    serde_json::from_str(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("stats reply: {e}")))
}

/// The request number after the last one `round` sent.
fn next_seq(round: &Round, seq: usize) -> usize {
    round.records.iter().map(|r| r.seq + 1).max().unwrap_or(seq)
}

/// Runs one serve session. The server and the load generator run on
/// one CPU throughout (see `proc::OneCpu`), which a spinner keeps from
/// idling during the timed rounds (see `proc::KeepAwake`). The
/// start-ups are CPU-bound and run without it.
pub fn run(plan: &Plan<'_>) -> io::Result<Outcome> {
    let _one_cpu = proc::OneCpu::enter()?;
    let conns_wanted = if plan.workload == Workload::ServePipelined { 1 } else { 2 };
    let mut setup_s = Vec::with_capacity(plan.starts);
    let mut loaded_hwm_kb = Vec::with_capacity(plan.starts);
    let mut warmup = Vec::new();
    let mut live = None;
    for start in 0..plan.starts {
        let server = Server::start(plan)?;
        let mut conns = (0..conns_wanted)
            .map(|_| Conn::connect(server.addr))
            .collect::<io::Result<Vec<_>>>()?;
        loaded_hwm_kb.push(server.program.vm_hwm_kb()?);
        for (i, line) in plan.warmup.iter().enumerate() {
            let k = i % conns.len();
            let sent = Instant::now();
            let reply = conns[k].call(line).map_err(|e| e.to_string());
            let latency_us = sent.elapsed().as_secs_f64() * 1e6;
            warmup.push(Warmup { line: line.clone(), reply, latency_us });
        }
        setup_s.push(server.program.spawned.elapsed().as_secs_f64());

        if start + 1 < plan.starts {
            server.stop(&mut conns[0])?;
        } else {
            live = Some((server, conns));
        }
    }
    let (server, mut conns) = live.expect("at least one start-up");

    let stats_before = if plan.stats_before { Some(stats(&mut conns[0])?) } else { None };
    let order = if plan.workload == Workload::ServeWarm {
        LineOrder::Random(plan.seed)
    } else {
        LineOrder::Rotate
    };
    let _awake = proc::KeepAwake::start()?;
    let steal0 = proc::steal_ticks();
    let mut seq = 0;
    let mut open = Vec::new();
    let mut closed = Vec::with_capacity(ROUNDS);
    if plan.workload == Workload::ServePipelined {
        let round_s = plan.seconds / ROUNDS as f64;
        for _ in 0..ROUNDS {
            let traffic = Traffic { pool: plan.pool, order, first_seq: seq };
            let round = server.round(round_s, || {
                client::pipelined(&mut conns[0], traffic, PIPELINE_DEPTH, round_s)
            })?;
            seq = next_seq(&round, seq);
            closed.push(round);
        }
    } else {
        let rate = if plan.workload.warm() { WARM_RATE } else { COLD_RATE };
        let open_s = plan.seconds * OPEN_SHARE / ROUNDS as f64;
        let closed_s = plan.seconds * (1.0 - OPEN_SHARE) / ROUNDS as f64;
        for k in 0..ROUNDS {
            let schedule = poisson_schedule(plan.seed.wrapping_add(k as u64), rate, open_s);
            let traffic = Traffic { pool: plan.pool, order, first_seq: seq };
            let round =
                server.round(open_s, || client::open_loop(&mut conns, traffic, &schedule))?;
            seq = next_seq(&round, seq);
            open.push(round);
            let traffic = Traffic { pool: plan.pool, order, first_seq: seq };
            let round =
                server.round(closed_s, || client::closed_loop(&mut conns, traffic, closed_s))?;
            seq = next_seq(&round, seq);
            closed.push(round);
        }
    }
    let serving_hwm_kb = server.program.vm_hwm_kb()?;
    let steal_ticks = proc::steal_ticks() - steal0;
    let stats_after = stats(&mut conns[0])?;
    server.stop(&mut conns[0])?;
    Ok(Outcome {
        setup_s,
        loaded_hwm_kb,
        warmup,
        open,
        closed,
        order,
        serving_hwm_kb,
        steal_ticks,
        stats_before,
        stats_after,
    })
}
