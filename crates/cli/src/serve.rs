//! The TCP inference server: the closest in-repo analog of the paper's
//! §VI online deployment (Fig. 7). Speaks newline-delimited JSON:
//! every request line is an [`rtp_sim::RtpQuery`], every response line
//! a [`ServeResponse`].
//!
//! # Concurrency model
//!
//! One reactor thread multiplexes *every* client socket through a
//! hand-rolled epoll readiness loop ([`crate::evented`]) — nonblocking
//! accept, per-connection read buffers with partial-line preservation
//! and a line-length cap, idle reaping via a timer wheel — and feeds
//! one fixed pool of worker threads (`--workers N`, `0` = all cores,
//! the same std-thread scaffolding as `rtp_tensor::parallel`). An idle
//! connection costs an epoll registration, not a thread, so 10k open
//! couriers are as cheap as 10.
//!
//! The pool's only input is one FIFO **run queue** of connections
//! (`Mutex<VecDeque>` + `Condvar` + a closed flag). The reactor pushes a
//! connection when a complete line lands on it unclaimed; a worker
//! drains at most `DRAIN_QUANTUM` of its lines and pushes a
//! still-busy connection back to the tail, so every connection's wait —
//! an operator's `reload` line included — is bounded by the quanta
//! already queued ahead of it.
//!
//! Every prediction runs its forward on a no-grad tape of its own,
//! built for the request and dropped with it, over the shard's shared
//! read-only `Arc<M2G4Rtp>`: inference never contends on a global
//! mutex, and nothing one request computes outlives it. Replies on one
//! connection keep request order: a per-connection claim lets at most
//! one worker drain a connection's line queue at a time, and the claim
//! travels with the connection through the run queue.
//!
//! # Shard router (`--model [NAME=]PATH`, repeatable)
//!
//! `--model` may be given repeatedly as `NAME=PATH` pairs to serve a
//! fleet of per-city models from one process — the paper's §VI
//! deployment story. Each shard loads its own `Arc<M2G4Rtp>` and its
//! own encoder cache. Requests carry an optional `"city"` key naming
//! the shard; requests without one go to the **default shard** (the
//! first `--model`), so single-model clients are unaffected. An unknown `"city"` is an
//! error reply naming the hosted shards. Per-shard reply counters
//! (`serve.shard.<name>.requests` / `.errors`) land in the same
//! registry — and therefore in `{"cmd":"stats"}`, the Prometheus
//! exposition and `--metrics-file` — next to the server-wide counters.
//!
//! # Model hot-swap (`{"cmd":"reload"}`, SIGHUP)
//!
//! Each shard's model is behind a versioned `Arc`: a
//! `{"cmd":"reload","model":PATH[,"shard":NAME]}` control line loads
//! and validates a fresh SavedModel **off the hot path** (on the
//! worker that received the command), then performs a blue-green swap —
//! the shard's current `(version, Arc<M2G4Rtp>)` pair is replaced under
//! a mutex while every other worker keeps serving, and in-flight
//! requests finish on the weights they started with (each holds the
//! generation's `Arc` it took when its prediction began). Every ok
//! prediction is tagged with the `model_version` that produced it, so a
//! client can watch the served model advance. A server started with
//! `--model` *paths* also installs a SIGHUP handler: the signal
//! re-reads every shard's original path through the same swap (the
//! classic config-reload idiom).
//!
//! Swap correctness around cached state:
//!
//! * a prediction takes its shard's `(version, Arc<M2G4Rtp>)` pair
//!   once, as one unit, and computes every byte of its reply from that
//!   generation, so the version tag always names the weights that
//!   answered;
//! * encoder-cache entries are keyed by model version as well as
//!   courier + fingerprint; the swap drains the shard's cache (counted
//!   under `serve.cache.invalidations`), and a concurrent miss that
//!   raced the swap refuses to install its now-stale activations — no
//!   post-swap reply is ever computed from pre-swap encoder state.
//!
//! A reload whose SavedModel mismatches the running shard (different
//! architecture dims, vocab sizes, missing pipeline, different weight
//! layout) is **rejected** with a structured error naming the first
//! mismatching field — the same loud-rejection policy as `--resume`
//! ([`m2g4rtp::SavedModel::validate_swap`]) — and counted under
//! `serve.reload.failures`; the running model is untouched. Successful
//! swaps count `serve.reload.count`, time themselves into
//! `serve.reload.duration_us`, and record a `reload` flight event.
//!
//! # Encoder cache
//!
//! Every prediction runs on the worker that read its line. Each shard
//! keeps a per-courier **encoder cache** keyed by courier id and
//! fingerprinted by the full request line:
//!
//! * a miss builds the graph and runs the full forward on a fresh tape
//!   ([`M2G4Rtp::predict_and_encode_into`]), which also yields the
//!   sample's encoder activations; they are installed in the cache;
//! * a repeat query (same courier, byte-identical line — i.e. identical
//!   route state) skips feature extraction and the whole encoder stack:
//!   the worker replays the cached activations through the decoders
//!   ([`M2G4Rtp::predict_encoded_into`]).
//!
//! Both routes are bit-identical to a plain single-sample forward, so
//! the cache can change latency but never a reply byte. Any change in
//! the query line (an order served, the courier moved, time advanced)
//! misses the fingerprint and the fresh result replaces the stale entry
//! (`serve.cache.invalidations`).
//!
//! There is no cross-request batching: a worker waits for its own
//! reply, so a batch could never hold more queries than there are
//! workers, and on this model a batch costs more per query than a
//! single sample. `--batch-max` and `--batch-window-us` are accepted
//! and ignored so existing command lines keep working.
//!
//! # Fault isolation & lifecycle
//!
//! * a per-connection I/O error (client reset, broken pipe) drops only
//!   that connection and increments `serve.conn_errors`;
//! * a panic inside request handling is caught (`catch_unwind` around
//!   `handle_line`), answers a best-effort error line, drops only
//!   that connection and increments `serve.panics`; the panicked
//!   request's tape unwinds with it, and the next request builds its
//!   own;
//! * a client idle longer than `--idle-timeout-secs` is reaped by the
//!   reactor's timer wheel (`serve.timeouts`);
//! * a request line longer than [`crate::evented::MAX_LINE_BYTES`]
//!   costs only its connection: the reactor sends one best-effort error
//!   line, closes it and counts `serve.oversize_lines`, so a client
//!   that never sends `\n` cannot grow server memory without bound;
//! * a connection whose lines arrive after the run queue closed (a
//!   shutdown race) is closed and counted as `serve.dropped_accepts`
//!   instead of vanishing silently;
//! * the self-connect poke that wakes the reactor at shutdown is
//!   structurally excluded from connection accounting (the reactor
//!   checks the shutdown flag before registering an accepted socket),
//!   so `serve.connections` counts real clients only;
//! * shutdown is graceful: when `--max-requests` is reached or an
//!   in-band `{"cmd":"shutdown"}` arrives (only honoured with
//!   `--allow-shutdown`), the reactor stops, in-flight requests
//!   complete, workers drain, and the telemetry summary is printed.
//!
//! # Telemetry
//!
//! Each server owns a private [`rtp_obs::Registry`] (so concurrent
//! servers in one process do not bleed into each other) recording:
//!
//! * `serve.requests` / `serve.errors` / `serve.stats` — reply
//!   counters (ok predictions, error replies, stats replies);
//! * `serve.unknown_cmds` — control lines whose `cmd` value is not a
//!   known command (counted here, **not** in `serve.errors`: a typo'd
//!   operator command is not a malformed client request);
//! * `serve.cache.hits` / `.misses` / `.invalidations` and the
//!   `serve.cache.hit_rate` gauge — encoder-cache effectiveness;
//! * `serve.connections` / `serve.conn_errors` / `serve.panics` /
//!   `serve.timeouts` / `serve.oversize_lines` /
//!   `serve.dropped_accepts` — connection lifecycle counters (real
//!   clients only; the shutdown poke is excluded by construction);
//! * `serve.shard.<name>.requests` / `serve.shard.<name>.errors` —
//!   per-shard reply counters, registered for every hosted shard;
//! * `serve.reload.count` / `.failures` and the
//!   `serve.reload.duration_us` histogram — hot-swap outcomes and
//!   load-validate-swap latency;
//! * `serve.trace_id_wraps` — how many times a long-lived connection
//!   exhausted a 2^20-request trace-id segment and rolled over into a
//!   fresh one (ids stay globally unique across the rollover);
//! * `serve.active_connections` — gauge of connections being handled;
//! * `serve.worker.<i>.requests` — replies written per worker;
//! * `serve.latency_us` — full-handle latency histogram. The timer
//!   starts before the request line is parsed and stops after the
//!   response body is serialized, and the **same** measurement becomes
//!   the response's `latency_ms` field, so the field and the histogram
//!   can never disagree;
//! * `serve.route_len` — orders-per-request histogram.
//!
//! An in-band `{"cmd":"stats"}` request line returns the registry
//! snapshot (merged with the process-global registry, which carries
//! the matmul-kernel counters) as one JSON line; on shutdown the
//! server prints served/error/connection counts and p50/p95/p99
//! latency.
//!
//! # Per-request tracing
//!
//! Every accepted connection mints a [`rtp_obs::TraceCtx`]; every
//! request line on it gets a u64 trace id (consecutive for pipelined
//! requests on one connection). Per-stage durations land in the
//! `serve.stage.{forward,write}_us` histograms for **every**
//! prediction (traced or not): `forward` is the model forward
//! (cache-hit replay or full miss forward) and `write` the reply
//! construction. A client that sends `"trace": true` in its query
//! additionally gets `trace_id` and a `stages` breakdown echoed in the
//! reply (five keys; `queue_wait_us`, `batch_form_us` and `demux_us`
//! are always 0 because a prediction never crosses a thread); with the
//! trace fields stripped, a traced reply is byte-identical to an
//! untraced one. Stages are disjoint sub-intervals of the handle window
//! measured with `saturating_duration_since`, so each duration is finite and
//! non-negative and their sum never exceeds `latency_ms`. The
//! breakdown's `write_us` covers reply construction (apply +
//! serialize); the `serve.stage.write_us` histogram additionally
//! includes the socket write, which a reply cannot observe about
//! itself.
//!
//! # Exporters
//!
//! `{"cmd":"metrics"}` returns the merged registry snapshot rendered
//! as Prometheus text exposition ([`rtp_obs::prom::render`]) inside a
//! one-line JSON envelope; `--metrics-file PATH` additionally writes
//! the same text to `PATH` every `--metrics-interval-secs S` (and once
//! at startup and shutdown) via `write_atomic`, so any scraper or
//! `watch cat` sees complete, valid exposition with zero deps.
//!
//! # Flight recorder
//!
//! The server enables [`rtp_obs::flight`]: request, error, span and
//! panic events (each carrying its trace id) go into fixed per-thread
//! rings. A worker panic records a `panic` event and — with
//! `--flight-dump PATH` — dumps all rings as JSONL through
//! `write_atomic`, turning the catch_unwind sites into post-mortems;
//! `{"cmd":"dump"}` returns the same events in-band.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use m2g4rtp::{EncodedQuery, M2G4Rtp, Prediction, SavedModel};

use crate::evented::{self, EvConn, EventSink};
use rtp_eval::service::apply_prediction;
use rtp_graph::MultiLevelGraph;
use rtp_obs::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
use rtp_obs::{flight, StageBreakdown, TraceCtx};
use rtp_sim::{Dataset, RtpQuery};
use rtp_tensor::parallel::resolve_threads;
use rtp_tensor::Numerics;
use serde::{Deserialize, Serialize};

/// How often the SIGHUP watcher and the `--metrics-file` writer wake
/// to look for work and for the shutdown flag. Neither sits on the
/// request path.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// One served prediction, mirroring the two application-layer products
/// (Intelligent Order Sorting and Minute-Level ETA).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeResponse {
    /// Order indices in predicted service sequence.
    pub sorted_orders: Vec<usize>,
    /// Predicted AOI visit sequence.
    pub aoi_sequence: Vec<usize>,
    /// Per-order ETA in minutes (aligned with the query's order index).
    pub eta_minutes: Vec<f32>,
    /// Server-side handling latency (parse → predict → serialize), ms.
    /// Identical to the sample recorded in the `serve.latency_us`
    /// histogram for this request.
    pub latency_ms: f64,
    /// Version of the shard model that produced this prediction
    /// (starts at 1; each successful hot-swap advances it by one).
    pub model_version: u64,
}

/// The serialized part of a response that the latency timer must cover;
/// `latency_ms` is spliced in afterwards (same field set as
/// [`ServeResponse`]).
#[derive(Debug, Serialize)]
struct ServeBody {
    sorted_orders: Vec<usize>,
    aoi_sequence: Vec<usize>,
    eta_minutes: Vec<f32>,
}

/// An error reply for malformed requests.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeError {
    /// What went wrong.
    pub error: String,
}

/// Known in-band control commands, for the unknown-command reply.
const KNOWN_CMDS: &str = "stats, metrics, dump, reload, shutdown, panic";

/// The reply to `{"cmd":"metrics"}`: the merged registry snapshot
/// rendered as Prometheus text exposition, in a one-line JSON envelope
/// so it rides the NDJSON protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Prometheus text exposition format (validates under
    /// [`rtp_obs::prom::validate`]).
    pub metrics: String,
}

/// Flattened percentile view of one histogram in a [`StatsReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramStats {
    /// Recorded samples.
    pub count: u64,
    /// Sum of raw values.
    pub sum: u64,
    /// Largest raw value.
    pub max: u64,
    /// Mean raw value.
    pub mean: f64,
    /// Quantized-exact percentiles (bucket floors, ≤1/16 resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramStats {
    fn from_snapshot(h: &HistogramSnapshot) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
        }
    }
}

/// The reply to `{"cmd":"stats"}`: a registry snapshot in NDJSON-
/// friendly form (one line, deserializable with the same vendored
/// serde the rest of the protocol uses).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReply {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name, flattened to percentiles.
    pub histograms: BTreeMap<String, HistogramStats>,
}

impl StatsReply {
    /// Flattens a merged registry snapshot.
    pub fn from_snapshot(s: &Snapshot) -> Self {
        Self {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), HistogramStats::from_snapshot(h)))
                .collect(),
        }
    }
}

/// Server configuration (`rtp serve` flags).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// TCP port (0 = ephemeral).
    pub port: u16,
    /// Total replies to send before shutting down (0 = forever).
    pub max_requests: usize,
    /// Worker-pool size (0 = all cores).
    pub workers: usize,
    /// Reap a connection after this long without a complete request
    /// line (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Honour in-band `{"cmd":"shutdown"}` (and the `{"cmd":"panic"}`
    /// fault-injection hook).
    pub allow_shutdown: bool,
    /// Numerics tier for the inference tapes (`--numerics`). Replies
    /// from non-default tiers are tagged with a `"numerics"` field so
    /// clients can tell approximate answers from bit-exact ones.
    pub numerics: Numerics,
    /// Write the merged registry as Prometheus text exposition to this
    /// path (atomically) every `metrics_interval`, plus once at startup
    /// and shutdown. `None` disables the writer.
    pub metrics_file: Option<String>,
    /// Snapshot period for `metrics_file` (zero = the 5 s default).
    pub metrics_interval: Duration,
    /// Dump the flight recorder as JSONL to this path when a worker
    /// panic is caught. `None` keeps panics as counters only.
    pub flight_dump: Option<String>,
}

/// The per-server metric handles (all on the server's own registry).
struct ServeMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    stats: Arc<Counter>,
    unknown_cmds: Arc<Counter>,
    connections: Arc<Counter>,
    conn_errors: Arc<Counter>,
    panics: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// Connections the reactor could not hand to the closed run queue
    /// (drain race at shutdown): closed and counted, never silently.
    dropped_accepts: Arc<Counter>,
    /// Connections closed for a request line over
    /// [`evented::MAX_LINE_BYTES`].
    oversize_lines: Arc<Counter>,
    /// Trace-id segment rollovers across all connections (a connection
    /// pipelining more than 2^20 requests rolls into a fresh id
    /// segment instead of aliasing old ids).
    trace_id_wraps: Arc<Counter>,
    active_connections: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    route_len: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_invalidations: Arc<Counter>,
    cache_hit_rate: Arc<Gauge>,
    /// Per-numerics-tier ok-prediction counters
    /// (`serve.requests.{exact,quantized}`); both are registered up
    /// front so the stats reply always carries the full tier
    /// breakdown.
    req_exact: Arc<Counter>,
    req_quantized: Arc<Counter>,
    /// Stage-latency histograms `serve.stage.forward_us` and
    /// `serve.stage.write_us`, recorded for every ok prediction.
    stage_forward_us: Arc<Histogram>,
    stage_write_us: Arc<Histogram>,
    /// Successful hot-swaps (`serve.reload.count`).
    reload_count: Arc<Counter>,
    /// Rejected or failed hot-swaps (`serve.reload.failures`); the
    /// running model is untouched on every one of these.
    reload_failures: Arc<Counter>,
    /// Load + validate + swap duration per successful reload
    /// (`serve.reload.duration_us`).
    reload_duration_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            stats: registry.counter("serve.stats"),
            unknown_cmds: registry.counter("serve.unknown_cmds"),
            connections: registry.counter("serve.connections"),
            conn_errors: registry.counter("serve.conn_errors"),
            panics: registry.counter("serve.panics"),
            timeouts: registry.counter("serve.timeouts"),
            dropped_accepts: registry.counter("serve.dropped_accepts"),
            oversize_lines: registry.counter("serve.oversize_lines"),
            trace_id_wraps: registry.counter("serve.trace_id_wraps"),
            active_connections: registry.gauge("serve.active_connections"),
            latency_us: registry.histogram("serve.latency_us"),
            route_len: registry.histogram("serve.route_len"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_invalidations: registry.counter("serve.cache.invalidations"),
            cache_hit_rate: registry.gauge("serve.cache.hit_rate"),
            req_exact: registry.counter("serve.requests.exact"),
            req_quantized: registry.counter("serve.requests.quantized"),
            stage_forward_us: registry.histogram("serve.stage.forward_us"),
            stage_write_us: registry.histogram("serve.stage.write_us"),
            reload_count: registry.counter("serve.reload.count"),
            reload_failures: registry.counter("serve.reload.failures"),
            reload_duration_us: registry.histogram("serve.reload.duration_us"),
        }
    }
}

/// One resident entry of the per-courier encoder cache.
struct CacheEntry {
    /// The exact request line that produced this entry. Fingerprinting
    /// the whole line (rather than a digest of the route state) makes
    /// the invalidation rule trivially sound: *any* observable change —
    /// an order served, the courier moving, the clock advancing —
    /// changes the line, misses the cache, and replaces the entry.
    fingerprint: String,
    /// Model generation whose encoders produced `enc`. A lookup under
    /// a newer shard version must miss even on a byte-identical line:
    /// activations from swapped-out weights are never replayed.
    version: u64,
    /// The scaled multi-level graph (Feature Extraction Layer output).
    graph: MultiLevelGraph,
    /// The encoder activations to replay through the decoders.
    enc: EncodedQuery,
}

/// One hosted model shard: its own read-only model, its own encoder
/// cache (per-shard because activations from different models must
/// never cross-pollinate) and its own reply counters.
/// Shard 0 is the **default shard**: requests without a `"city"` key
/// route to it, so a single-model server behaves exactly like the
/// pre-shard versions.
struct ShardState {
    name: String,
    /// The serving generation: `(version, model)` swapped as one unit
    /// under the mutex (blue-green — readers clone the `Arc` out and
    /// the old generation lives until its last in-flight request
    /// drops it).
    current: Mutex<(u64, Arc<M2G4Rtp>)>,
    /// The SavedModel path this shard was loaded from, when the caller
    /// had one (`rtp serve --model`); SIGHUP re-reads it through the
    /// same swap as the in-band `reload` verb.
    path: Option<String>,
    /// Per-courier encoder cache. Concurrent misses for the same
    /// courier may both insert — that is a benign lost-update (same
    /// fingerprint + version ⇒ same bits), not an invalidation.
    cache: Mutex<HashMap<usize, Arc<CacheEntry>>>,
    /// `serve.shard.<name>.requests` — ok predictions served by this
    /// shard.
    requests: Arc<Counter>,
    /// `serve.shard.<name>.errors` — error replies attributed to this
    /// shard (routing resolved, prediction failed).
    errors: Arc<Counter>,
}

impl ShardState {
    fn new(spec: ShardSpec, registry: &Registry) -> Self {
        let ShardSpec { name, model, path } = spec;
        let requests = registry.counter(&format!("serve.shard.{name}.requests"));
        let errors = registry.counter(&format!("serve.shard.{name}.errors"));
        Self {
            name,
            current: Mutex::new((1, Arc::new(model))),
            path,
            cache: Mutex::new(HashMap::new()),
            requests,
            errors,
        }
    }

    /// Clones out the current `(version, model)` pair as one unit.
    fn generation(&self) -> (u64, Arc<M2G4Rtp>) {
        let cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        (cur.0, Arc::clone(&cur.1))
    }
}

/// One model shard as handed to [`serve_sharded`]: a name, a loaded
/// model, and optionally the path it came from (which arms SIGHUP
/// reloads and path-less in-band reloads of the original file).
pub struct ShardSpec {
    /// Shard (city) name; requests route to it via their `"city"` key.
    pub name: String,
    /// The initial model generation (version 1).
    pub model: M2G4Rtp,
    /// Where `model` was loaded from, if anywhere.
    pub path: Option<String>,
}

impl ShardSpec {
    /// A shard with no backing file (in-process callers, tests).
    pub fn new(name: impl Into<String>, model: M2G4Rtp) -> Self {
        Self { name: name.into(), model, path: None }
    }

    /// A shard loaded from `path`; SIGHUP re-reads it.
    pub fn with_path(name: impl Into<String>, model: M2G4Rtp, path: impl Into<String>) -> Self {
        Self { name: name.into(), model, path: Some(path.into()) }
    }
}

/// State shared by the reactor and every worker.
struct ServerShared {
    registry: Registry,
    metrics: ServeMetrics,
    /// Replies written so far (claim-based: a worker reserves a slot
    /// *before* answering, so exactly `max_requests` replies go out).
    served: AtomicUsize,
    /// Connections currently being handled (mirrored into the
    /// `serve.active_connections` gauge).
    active: AtomicI64,
    shutdown: AtomicBool,
    /// The listener's address, used to poke the reactor's
    /// `epoll_wait` awake when shutdown is triggered from a worker.
    addr: SocketAddr,
    max_requests: usize,
    allow_shutdown: bool,
    /// The hosted model shards; index 0 is the default shard.
    shards: Vec<ShardState>,
    /// Where a caught panic dumps the flight recorder (`--flight-dump`).
    flight_dump: Option<String>,
}

impl ServerShared {
    fn new(
        registry: Registry,
        addr: SocketAddr,
        opts: &ServeOptions,
        shards: Vec<ShardState>,
    ) -> Self {
        let metrics = ServeMetrics::new(&registry);
        Self {
            registry,
            metrics,
            served: AtomicUsize::new(0),
            active: AtomicI64::new(0),
            shutdown: AtomicBool::new(false),
            addr,
            max_requests: opts.max_requests,
            allow_shutdown: opts.allow_shutdown,
            shards,
            flight_dump: opts.flight_dump.clone(),
        }
    }

    /// The comma-separated shard-name list for routing-error messages.
    fn shard_names(&self) -> String {
        self.shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
    }

    /// Dumps the flight recorder to the `--flight-dump` path (no-op
    /// without one). Called from caught-panic sites, so the dump also
    /// flushes and fsyncs the span sink (S2: a `--log-json` file is
    /// complete at post-mortem time).
    fn dump_flight(&self) {
        if let Some(path) = &self.flight_dump {
            if let Err(e) = flight::dump_to_file(path) {
                eprintln!("flight dump to {path} failed: {e}");
            }
        }
    }

    /// Locks one shard's encoder cache, recovering from poisoning:
    /// cache entries are immutable once inserted (only whole-entry
    /// replacement), so a panicked holder cannot leave a half-written
    /// entry behind.
    fn lock_cache(&self, shard: usize) -> MutexGuard<'_, HashMap<usize, Arc<CacheEntry>>> {
        self.shards[shard].cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Refreshes the `serve.cache.hit_rate` gauge from the counters.
    fn refresh_cache_rate(&self) {
        let h = self.metrics.cache_hits.get();
        let m = self.metrics.cache_misses.get();
        let total = h + m;
        self.metrics.cache_hit_rate.set(if total == 0 { 0.0 } else { h as f64 / total as f64 });
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and wakes the reactor with a no-op
    /// connection so its blocking `epoll_wait` returns.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Reserves one reply slot. Returns `false` when the request budget
    /// is spent — the caller must close the connection unanswered. The
    /// claimer of the final slot triggers shutdown after replying.
    fn claim_reply(&self) -> bool {
        if self.max_requests == 0 {
            self.served.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        let n = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        if n > self.max_requests {
            self.served.fetch_sub(1, Ordering::SeqCst);
            self.trigger_shutdown();
            return false;
        }
        true
    }

    /// Called after a reply is written: the final budgeted reply shuts
    /// the server down.
    fn after_reply(&self) {
        if self.max_requests != 0 && self.served.load(Ordering::SeqCst) >= self.max_requests {
            self.trigger_shutdown();
        }
    }

    fn conn_started(&self) {
        self.metrics.connections.inc();
        let n = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.metrics.active_connections.set(n as f64);
    }

    fn conn_finished(&self) {
        let n = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
        self.metrics.active_connections.set(n as f64);
    }
}

/// One worker's view of the server: the shared state plus its own
/// reply counter.
struct WorkerCtx<'a> {
    dataset: &'a Dataset,
    shared: &'a ServerShared,
    /// Numerics tier every prediction's tape runs under.
    numerics: Numerics,
    /// Replies written by this worker (`serve.worker.<i>.requests`).
    replies: Arc<Counter>,
}

/// The worker pool's only input: one FIFO of connections with queued
/// lines. The reactor pushes a connection when a line lands on it
/// unclaimed; a worker that used its [`DRAIN_QUANTUM`] on a still-busy
/// connection pushes it back to the tail, its claim and queued lines
/// travelling with it.
///
/// Closing refuses further dispatch from the reactor but still takes
/// requeues, so parked connections are served before the workers
/// exit: a worker leaves only once the queue is closed *and* empty,
/// and the worker that requeues a connection is still running to pop
/// it.
#[derive(Default)]
struct RunQueue {
    state: Mutex<RunQueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct RunQueueState {
    conns: VecDeque<Arc<EvConn>>,
    closed: bool,
}

impl RunQueue {
    /// Connections are only ever pushed or popped whole, so a panicked
    /// holder cannot leave the state half-written.
    fn lock(&self) -> MutexGuard<'_, RunQueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The reactor's hand-off; `false` once the queue is closed.
    fn dispatch(&self, conn: Arc<EvConn>) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        state.conns.push_back(conn);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// A worker's end-of-quantum hand-back; allowed after close.
    fn requeue(&self, conn: Arc<EvConn>) {
        self.lock().conns.push_back(conn);
        self.ready.notify_one();
    }

    /// Refuses further dispatch and wakes every idle worker.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks until a connection is queued; `None` once the queue is
    /// closed and empty.
    fn next(&self) -> Option<Arc<EvConn>> {
        let mut state = self.lock();
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// The serve layer's hooks into the epoll reactor: lifecycle counting
/// plus the hand-off into the run queue. Only real client connections
/// reach these callbacks — the reactor checks the shutdown flag before
/// registering an accepted socket, so the shutdown poke is never
/// counted and never mints a trace context, which is what lets the
/// exact-accounting tests assert `serve.connections == clients`.
struct EventedSink<'a> {
    shared: &'a ServerShared,
    queue: &'a RunQueue,
}

impl EventSink for EventedSink<'_> {
    fn shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    fn conn_opened(&self) {
        self.shared.conn_started();
    }

    fn conn_closed(&self) {
        self.shared.conn_finished();
    }

    fn conn_error(&self) {
        self.shared.metrics.conn_errors.inc();
    }

    fn conn_timeout(&self) {
        self.shared.metrics.timeouts.inc();
    }

    fn oversize_line(&self) {
        self.shared.metrics.oversize_lines.inc();
    }

    fn dropped_dispatch(&self) {
        self.shared.metrics.dropped_accepts.inc();
    }

    fn dispatch(&self, conn: Arc<EvConn>) -> bool {
        self.queue.dispatch(conn)
    }
}

/// Binds a listener, prints `listening on <addr>` to `out`, and serves
/// a single (default) shard with a fixed worker pool until the request
/// budget is spent or an in-band shutdown arrives. Each connection may
/// pipeline many request lines. On exit, drains in-flight connections
/// and prints a telemetry summary.
pub fn serve(
    model: M2G4Rtp,
    dataset: Dataset,
    opts: ServeOptions,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    serve_sharded(vec![ShardSpec::new("default", model)], dataset, opts, out)
}

/// The multi-shard entry point behind repeatable `--model`: hosts one
/// model per [`ShardSpec`], routes request lines by their optional
/// `"city"` key (absent ⇒ the first shard), and gives every shard its
/// own encoder cache. All shards share the worker pool, the reactor
/// and the telemetry registry. When any spec carries a path, SIGHUP
/// re-reads every path-ful shard's file through the hot-swap
/// machinery.
pub fn serve_sharded(
    models: Vec<ShardSpec>,
    dataset: Dataset,
    opts: ServeOptions,
    out: &mut dyn Write,
) -> std::io::Result<i32> {
    assert!(!models.is_empty(), "serve_sharded needs at least one model shard");
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;
    let workers = resolve_threads(opts.workers).max(1);
    writeln!(out, "listening on {addr}")?;
    writeln!(out, "workers: {workers}")?;
    out.flush()?;

    if models.len() > 1 {
        let names = models.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ");
        writeln!(out, "shards: {names}")?;
        out.flush()?;
    }

    // The flight recorder stays on for the server's lifetime: request,
    // error, span and panic events accumulate in per-thread rings so a
    // caught panic (or {"cmd":"dump"}) has history to show.
    flight::set_enabled(true);

    let registry = Registry::new();
    let shards: Vec<ShardState> =
        models.into_iter().map(|spec| ShardState::new(spec, &registry)).collect();
    let shared = ServerShared::new(registry, addr, &opts, shards);

    // Lives outside the scope so scoped workers can borrow it.
    let queue = RunQueue::default();
    let reactor_result = std::thread::scope(|scope| {
        for worker_id in 0..workers {
            let queue = &queue;
            let shared = &shared;
            let dataset = &dataset;
            let numerics = opts.numerics;
            scope.spawn(move || {
                let ctx = WorkerCtx {
                    dataset,
                    shared,
                    numerics,
                    replies: shared.registry.counter(&format!("serve.worker.{worker_id}.requests")),
                };
                while let Some(conn) = queue.next() {
                    drain_evented_conn(&ctx, &conn, queue);
                }
            });
        }

        // SIGHUP watcher: only armed when some shard knows its backing
        // file. The signal handler itself just bumps a counter; this
        // thread notices the bump and re-reads every path-ful shard
        // through the same swap path as the in-band `reload` verb.
        // Path-less servers (tests, in-process callers) never install
        // the handler, so SIGHUP keeps its default disposition there.
        if shared.shards.iter().any(|s| s.path.is_some()) {
            evented::install_sighup_handler();
            let shared = &shared;
            scope.spawn(move || {
                let mut seen = evented::sighup_count();
                while !shared.shutting_down() {
                    std::thread::sleep(POLL_INTERVAL);
                    let now = evented::sighup_count();
                    if now == seen {
                        continue;
                    }
                    seen = now;
                    for idx in 0..shared.shards.len() {
                        let shard = &shared.shards[idx];
                        let Some(path) = shard.path.clone() else { continue };
                        match reload_shard(shared, idx, &path, 0) {
                            Ok(version) => eprintln!(
                                "SIGHUP: shard {} reloaded from {path} (model_version {version})",
                                shard.name
                            ),
                            Err(e) => eprintln!("SIGHUP: shard {} reload failed: {e}", shard.name),
                        }
                    }
                }
            });
        }

        // Periodic Prometheus snapshot writer (--metrics-file). Sleeps
        // in POLL_INTERVAL slices so shutdown is honoured promptly; the
        // final (post-drain) snapshot is written by serve() itself
        // after the scope joins every worker.
        if let Some(path) = opts.metrics_file.clone() {
            let shared = &shared;
            let interval = if opts.metrics_interval.is_zero() {
                Duration::from_secs(5)
            } else {
                opts.metrics_interval
            };
            scope.spawn(move || loop {
                write_metrics_file(&path, shared);
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline {
                    if shared.shutting_down() {
                        return;
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
            });
        }

        // The reactor runs on this thread until shutdown. Closing the
        // run queue afterwards lets idle workers exit; busy workers
        // finish the connections they hold and any they park (drain).
        let sink = EventedSink { shared: &shared, queue: &queue };
        let result = evented::run(&listener, opts.idle_timeout, &sink);
        queue.close();
        // A reactor-fatal error must still release the snapshot-writer
        // thread (it polls the shutdown flag) so the scope can join.
        if result.is_err() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        result
    });
    reactor_result?;

    // Graceful-shutdown durability (S2): everything traced so far is
    // flushed and fsynced, and the exported snapshot reflects the full
    // run including the final drained requests.
    rtp_obs::trace::flush();
    if let Some(path) = &opts.metrics_file {
        write_metrics_file(path, &shared);
    }

    let m = &shared.metrics;
    let served = shared.served.load(Ordering::SeqCst);
    writeln!(
        out,
        "served {served} request(s): {} ok, {} error(s), {} stats",
        m.requests.get(),
        m.errors.get(),
        m.stats.get()
    )?;
    if shared.shards.len() > 1 {
        for s in &shared.shards {
            writeln!(
                out,
                "shard {}: {} ok, {} error(s)",
                s.name,
                s.requests.get(),
                s.errors.get()
            )?;
        }
    }
    writeln!(
        out,
        "connections: {} handled, {} conn error(s), {} panic(s), {} timeout(s)",
        m.connections.get(),
        m.conn_errors.get(),
        m.panics.get(),
        m.timeouts.get()
    )?;
    if m.dropped_accepts.get() > 0 {
        writeln!(out, "dropped accepts: {}", m.dropped_accepts.get())?;
    }
    let snap = shared.registry.snapshot();
    let ms = |v: u64| v as f64 / 1000.0;
    if let Some(lat) = snap.histograms.get("serve.latency_us").filter(|l| l.count() > 0) {
        writeln!(
            out,
            "latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            ms(lat.percentile(0.50)),
            ms(lat.percentile(0.95)),
            ms(lat.percentile(0.99)),
            ms(lat.max())
        )?;
    }
    Ok(0)
}

/// The server registry merged with the process-global one (which
/// carries the matmul-kernel counters and training gauges) — the same
/// view `{"cmd":"stats"}`, `{"cmd":"metrics"}` and the snapshot writer
/// all export.
fn merged_snapshot(shared: &ServerShared) -> Snapshot {
    let mut snap = shared.registry.snapshot();
    snap.merge(&rtp_obs::metrics::global().snapshot());
    snap
}

/// Writes the merged snapshot to `path` as Prometheus text exposition,
/// atomically — a scraper never sees a half-written file.
fn write_metrics_file(path: &str, shared: &ServerShared) {
    let text = rtp_obs::prom::render(&merged_snapshot(shared));
    if let Err(e) = rtp_obs::fsio::write_atomic_str(std::path::Path::new(path), &text) {
        eprintln!("metrics snapshot to {path} failed: {e}");
    }
}

/// Hot-swaps one shard's model from a SavedModel file: load and parse
/// off the hot path, validate against the running generation with the
/// loud-rejection policy ([`SavedModel::validate_swap`]), then swap the
/// `(version, Arc)` pair and drain the shard's encoder cache so no
/// post-swap reply can replay pre-swap activations. Returns the new
/// version; on any error the running model is untouched and
/// `serve.reload.failures` counts the attempt.
fn reload_shard(
    shared: &ServerShared,
    shard_idx: usize,
    path: &str,
    trace_id: u64,
) -> Result<u64, String> {
    let shard = &shared.shards[shard_idx];
    let t0 = Instant::now();
    let loaded = (|| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reload rejected: cannot read model file `{path}`: {e}"))?;
        let saved: SavedModel = serde_json::from_str(&text)
            .map_err(|e| format!("reload rejected: `{path}` is not a SavedModel: {e}"))?;
        // Validate against the running generation *before* the
        // panicking weight restore in from_saved can run.
        let (_, current) = shard.generation();
        saved
            .validate_swap(&current)
            .map_err(|e| format!("reload rejected for shard `{}`: {e}", shard.name))?;
        Ok::<Arc<M2G4Rtp>, String>(Arc::new(M2G4Rtp::from_saved(saved)))
    })();
    let model = match loaded {
        Ok(model) => model,
        Err(e) => {
            shared.metrics.reload_failures.inc();
            flight::record(flight::Kind::Reload, "serve.reload", trace_id, || {
                format!("shard {} reload failed: {e}", shard.name)
            });
            return Err(e);
        }
    };
    // The swap: version and model replaced as one unit, so a reader
    // never pairs a version with the wrong weights.
    let version = {
        let mut cur = shard.current.lock().unwrap_or_else(|p| p.into_inner());
        let version = cur.0 + 1;
        *cur = (version, model);
        version
    };
    // Drain the shard's encoder cache *after* the version advanced:
    // entries are version-keyed, so anything a racing miss re-inserts
    // under the old version is refused at insert time, and lookups
    // under the new version miss stale entries regardless.
    let stale = {
        let mut cache = shared.lock_cache(shard_idx);
        let stale = cache.len() as u64;
        cache.clear();
        stale
    };
    if stale > 0 {
        shared.metrics.cache_invalidations.add(stale);
        shared.refresh_cache_rate();
    }
    let took_us = t0.elapsed().as_micros() as u64;
    shared.metrics.reload_count.inc();
    shared.metrics.reload_duration_us.record(took_us);
    flight::record(flight::Kind::Reload, "serve.reload", trace_id, || {
        format!(
            "shard {} swapped to model_version {version} from {path} in {took_us} us",
            shard.name
        )
    });
    Ok(version)
}

/// Mints the next trace id on a connection, surfacing a sequence
/// rollover (a fresh globally-unique id segment after 2^20 requests)
/// as `serve.trace_id_wraps`.
fn next_trace_id(shared: &ServerShared, trace: &mut TraceCtx) -> u64 {
    let before = trace.rollovers();
    let id = trace.next_request();
    if trace.rollovers() > before {
        shared.metrics.trace_id_wraps.inc();
    }
    id
}

/// Lines served per claim before a still-busy connection goes back to
/// the tail of the run queue. A closed-loop pipelining client can land
/// its next line faster than the worker's post-reply `pop_line`, so an
/// unbounded drain pins the worker to one connection for as long as
/// the client keeps winning that race — with a small pool every other
/// queued connection starves, most visibly an operator's `reload`
/// line (observed waiting ~20 s behind four busy bench clients).
const DRAIN_QUANTUM: usize = 8;

/// Drains one connection's queued request lines under its claim (the
/// reactor dispatched it because its queue went non-empty; no other
/// worker touches it until the claim is released by the final
/// `pop_line` or kept through [`EvConn::yield_claim`] at the end of a
/// quantum). Replies are written directly to the shared nonblocking
/// socket; a close is signalled back to the reactor via the dead flag
/// plus socket shutdown, never by dropping the fd out from under it.
fn drain_evented_conn(ctx: &WorkerCtx<'_>, conn: &Arc<EvConn>, queue: &RunQueue) {
    let mut served = 0usize;
    while let Some(line) = conn.pop_line() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !ctx.shared.claim_reply() {
            conn.close(); // budget spent — close unanswered
            return;
        }
        let trace_id = {
            let mut trace = conn.trace.lock().unwrap_or_else(|p| p.into_inner());
            next_trace_id(ctx.shared, &mut trace)
        };
        // Fault isolation: a panic anywhere in parse/predict/serialize
        // must not unwind through the worker loop. The request's tape
        // unwinds with it; the next request builds its own.
        let reply = catch_unwind(AssertUnwindSafe(|| handle_line(ctx, line, trace_id)));
        match reply {
            Ok(Reply::Line(mut body, stages)) => {
                body.push('\n');
                // Count before the write lands: a client must never
                // observe a reply whose counters haven't settled.
                ctx.replies.inc();
                let wire_t0 = Instant::now();
                if conn.write_reply(body.as_bytes()).is_err() {
                    ctx.shared.metrics.conn_errors.inc();
                    conn.close();
                    ctx.shared.after_reply();
                    return;
                }
                if let Some(ser_us) = stages {
                    let wire_us = wire_t0.elapsed().as_micros() as u64;
                    ctx.shared.metrics.stage_write_us.record(ser_us + wire_us);
                }
                ctx.shared.after_reply();
            }
            Ok(Reply::ShutdownAck(mut body)) => {
                body.push('\n');
                ctx.replies.inc();
                let _ = conn.write_reply(body.as_bytes());
                conn.close();
                ctx.shared.trigger_shutdown();
                return;
            }
            Err(_) => {
                ctx.shared.metrics.panics.inc();
                flight::record(flight::Kind::Panic, "serve.worker", trace_id, || {
                    format!("request handler panicked on line of {} byte(s)", line.len())
                });
                ctx.shared.dump_flight();
                let mut err = serde_json::to_string(&ServeError {
                    error: "internal error: request handler panicked; connection closed".into(),
                })
                .expect("serialise error");
                err.push('\n');
                // Best effort — the client may already be gone.
                let _ = conn.write_reply(err.as_bytes());
                conn.close();
                return;
            }
        }
        served += 1;
        if served == DRAIN_QUANTUM {
            if conn.yield_claim() {
                // Still busy: back to the tail of the run queue (the
                // claim and any queued lines travel with it), behind
                // whatever was already waiting.
                queue.requeue(Arc::clone(conn));
            }
            return;
        }
    }
}

/// A reply line, plus whether it also requests server shutdown. An ok
/// prediction carries `Some(serialization_us)` so the connection loop
/// can fold the socket write into the `serve.stage.write_us` sample.
enum Reply {
    Line(String, Option<u64>),
    ShutdownAck(String),
}

/// Produces the reply for one request line, recording telemetry.
fn handle_line(ctx: &WorkerCtx<'_>, line: &str, trace_id: u64) -> Reply {
    let shared = ctx.shared;
    let metrics = &shared.metrics;
    let err_line = |msg: String| {
        metrics.errors.inc();
        flight::record(flight::Kind::Error, "serve.error", trace_id, || msg.clone());
        Reply::Line(
            serde_json::to_string(&ServeError { error: msg }).expect("serialise error"),
            None,
        )
    };
    let t0 = Instant::now();
    // Parse once, classify structurally: any object carrying a `cmd`
    // key is a control request — full stop. This closes the old
    // misclassification hole where an unknown `{"cmd":"…"}` value (or a
    // line shaped like both a command and a query) fell through to the
    // prediction/parse-error path and came back as `bad request`.
    let value = match serde_json::from_str::<serde::Value>(line) {
        Ok(v) => v,
        Err(e) => return err_line(format!("bad request: {e}")),
    };
    if let Some(cmd) = value.get("cmd") {
        // Unknown commands get their own named reply and counter:
        // a typo'd operator command is not a malformed client request,
        // so it must not pollute `serve.errors`.
        let unknown_cmd = |msg: String| {
            metrics.unknown_cmds.inc();
            Reply::Line(
                serde_json::to_string(&ServeError { error: msg }).expect("serialise error"),
                None,
            )
        };
        return match cmd.as_str() {
            Some("stats") => {
                metrics.stats.inc();
                // The global registry carries process-wide metrics
                // (matmul kernel counters, training gauges); merging
                // demonstrates snapshot associativity in anger.
                let snap = merged_snapshot(shared);
                Reply::Line(
                    serde_json::to_string(&StatsReply::from_snapshot(&snap))
                        .expect("serialise stats"),
                    None,
                )
            }
            Some("metrics") => {
                metrics.stats.inc();
                let text = rtp_obs::prom::render(&merged_snapshot(shared));
                Reply::Line(
                    serde_json::to_string(&MetricsReply { metrics: text })
                        .expect("serialise metrics"),
                    None,
                )
            }
            Some("dump") => {
                metrics.stats.inc();
                // The flight events carry their own JSON (obs stays
                // zero-dep, so they don't derive the vendored serde);
                // join them into one {"events":[...]} line.
                let mut body = String::from("{\"events\":[");
                for (i, event) in flight::snapshot().iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push_str(&event.to_json_line());
                }
                body.push_str("]}");
                Reply::Line(body, None)
            }
            Some("reload") => {
                let Some(path) = value.get("model").and_then(|v| v.as_str()) else {
                    return err_line(
                        "reload needs a `model` key naming a SavedModel path".to_string(),
                    );
                };
                let shard_idx = match value.get("shard") {
                    None => 0,
                    Some(serde::Value::Str(name)) => {
                        match shared.shards.iter().position(|s| s.name == *name) {
                            Some(i) => i,
                            None => {
                                return err_line(format!(
                                    "unknown shard `{name}`: this server hosts {}",
                                    shared.shard_names()
                                ))
                            }
                        }
                    }
                    Some(_) => {
                        return err_line("bad request: `shard` must be a string shard name".into())
                    }
                };
                match reload_shard(shared, shard_idx, path, trace_id) {
                    Ok(version) => {
                        // A reload ack is an operator reply, like stats.
                        metrics.stats.inc();
                        Reply::Line(
                            format!(
                                "{{\"reloaded\":\"{}\",\"model_version\":{version}}}",
                                shared.shards[shard_idx].name
                            ),
                            None,
                        )
                    }
                    Err(e) => err_line(e),
                }
            }
            Some("shutdown") if shared.allow_shutdown => {
                metrics.stats.inc();
                Reply::ShutdownAck(
                    "{\"ok\":\"shutting down: draining in-flight connections\"}".to_string(),
                )
            }
            Some("shutdown") => {
                err_line("shutdown disabled: start the server with --allow-shutdown".into())
            }
            // Fault-injection hook for the isolation tests; rides the
            // same opt-in flag as shutdown.
            Some("panic") if shared.allow_shutdown => panic!("induced panic via control command"),
            Some(other) => {
                unknown_cmd(format!("unknown command `{other}`: known commands are {KNOWN_CMDS}"))
            }
            None => unknown_cmd(format!(
                "unknown command: `cmd` must be a string naming one of {KNOWN_CMDS}"
            )),
        };
    }
    // Shard routing: an optional `"city"` key names the model shard;
    // absent means the default shard (index 0), so legacy single-model
    // clients see the exact pre-shard behaviour. Routing resolves
    // before query parsing so an unknown city is reported as such even
    // if the rest of the line is also malformed.
    let shard_idx = match value.get("city") {
        None => 0,
        Some(serde::Value::Str(name)) => match shared.shards.iter().position(|s| s.name == *name) {
            Some(i) => i,
            None => {
                return err_line(format!(
                    "unknown city `{name}`: this server hosts {}",
                    shared.shard_names()
                ))
            }
        },
        Some(_) => return err_line("bad request: `city` must be a string shard name".into()),
    };
    let shard = &shared.shards[shard_idx];
    // Post-routing errors are attributed to the shard as well as the
    // server-wide counter.
    let shard_err = |msg: String| {
        shard.errors.inc();
        err_line(msg)
    };
    match RtpQuery::from_value(&value) {
        Err(e) => shard_err(format!("bad request: {e}")),
        Ok(query) if query.orders.is_empty() => shard_err("bad request: empty order set".into()),
        Ok(query) => {
            // Out-of-range ids are errors, never a silent courier-0
            // prediction, a clamped weekday embedding or a panic in the
            // city's AOI lookup.
            if let Err(e) = ctx.dataset.check_query(&query) {
                return shard_err(format!("bad request: {e}"));
            }
            let courier = &ctx.dataset.couriers[query.courier_id];
            let (prediction, mut stages, model_version) =
                predict_query(ctx, shard_idx, line, courier, &query);
            let pred_done = Instant::now();
            let app = match apply_prediction(&query, &prediction) {
                Ok(app) => app,
                Err(e) => return shard_err(format!("internal error: {e}")),
            };
            let body = serde_json::to_string(&ServeBody {
                eta_minutes: app.etas.iter().map(|e| e.eta_minutes).collect(),
                sorted_orders: app.sorted_orders,
                aoi_sequence: app.aoi_sequence,
            })
            .expect("serialise response");
            // The write stage (as echoed) is reply construction: apply
            // + serialize. The socket write is folded into the
            // histogram sample by the connection loop afterwards.
            let ser_us = pred_done.elapsed().as_micros() as u64;
            stages.write_us = ser_us;
            // The full handle — parse, predict, serialize — measured
            // once: the histogram sample and the latency_ms field are
            // the same number by construction. Every stage is a
            // disjoint sub-interval of this window, so the breakdown
            // sums to ≤ latency_us.
            let latency_us = (t0.elapsed().as_micros() as u64).max(1);
            metrics.latency_us.record(latency_us);
            metrics.route_len.record(query.orders.len() as u64);
            metrics.requests.inc();
            shard.requests.inc();
            metrics.stage_forward_us.record(stages.forward_us);
            match ctx.numerics {
                Numerics::Exact => metrics.req_exact.inc(),
                Numerics::Quantized => metrics.req_quantized.inc(),
            }
            flight::record(flight::Kind::Request, "serve.request", trace_id, || {
                format!(
                    "courier={} orders={} shard={} latency_us={latency_us}",
                    query.courier_id,
                    query.orders.len(),
                    shard.name
                )
            });
            let latency_ms = latency_us as f64 / 1000.0;
            // A client that sent "trace": true gets the id and the
            // stage breakdown echoed (plus the serving shard on a
            // multi-shard server); otherwise the reply bytes are
            // exactly the untraced shape.
            let traced = matches!(value.get("trace"), Some(serde::Value::Bool(true)));
            let trace_tag = if traced {
                let shard_tag = if shared.shards.len() > 1 {
                    format!(",\"shard\":\"{}\"", shard.name)
                } else {
                    String::new()
                };
                format!(",\"trace_id\":{trace_id}{shard_tag},\"stages\":{}", stages.to_json())
            } else {
                String::new()
            };
            // Splice latency and the serving model version into the
            // serialized body ({"a":.. -> {"latency_ms":X,
            // "model_version":V,"a":..): field order is free in JSON.
            // Quantized replies also carry a tier tag so a client can
            // tell approximate answers apart.
            let tier_tag = match ctx.numerics {
                Numerics::Exact => "",
                Numerics::Quantized => ",\"numerics\":\"quantized\"",
            };
            Reply::Line(
                format!(
                    "{{\"latency_ms\":{latency_ms},\"model_version\":{model_version}\
                     {tier_tag}{trace_tag},{}",
                    &body[1..]
                ),
                Some(ser_us),
            )
        }
    }
}

/// The Inference (+ Feature Extraction) Layer for one query, on the
/// shard's current model and a no-grad tape of its own:
///
/// * cache hit (same courier, byte-identical line, same model
///   generation) — replay the cached encoder activations through the
///   decoders; no graph build, no encoder forward;
/// * cache miss — build the graph, run the full forward, and install
///   the resulting encoder activations (replacing a stale entry counts
///   as `serve.cache.invalidations`).
///
/// Both routes produce bit-identical predictions; see the module docs.
///
/// Alongside the prediction, returns the request's [`StageBreakdown`]
/// with `forward_us` (the model forward, graph build excluded) filled
/// in, and the model version that produced it.
fn predict_query(
    ctx: &WorkerCtx<'_>,
    shard_idx: usize,
    line: &str,
    courier: &rtp_sim::Courier,
    query: &RtpQuery,
) -> (Prediction, StageBreakdown, u64) {
    let shared = ctx.shared;
    let metrics = &shared.metrics;
    let shard = &shared.shards[shard_idx];
    // `version` names the generation every byte of this reply is
    // computed from (and tagged with): a swap landing a microsecond
    // later leaves this request on the old weights (blue-green).
    let (version, model) = shard.generation();
    let mut stages = StageBreakdown::default();
    // A cache entry is valid only when both the request line *and* the
    // model generation match: a byte-identical line after a swap must
    // miss, or the reply would replay swapped-out encoder activations.
    let cached = shared
        .lock_cache(shard_idx)
        .get(&query.courier_id)
        .filter(|e| e.fingerprint == line && e.version == version)
        .cloned();
    if let Some(entry) = cached {
        metrics.cache_hits.inc();
        shared.refresh_cache_rate();
        // The tape is a temporary: built, used and dropped inside the
        // timed forward.
        let t0 = Instant::now();
        let prediction = model.predict_encoded_into(
            &mut model.inference_tape(ctx.numerics),
            &entry.graph,
            &entry.enc,
        );
        stages.forward_us = t0.elapsed().as_micros() as u64;
        return (prediction, stages, version);
    }
    metrics.cache_misses.inc();
    shared.refresh_cache_rate();
    let graph = model.build_graph(&ctx.dataset.city, courier, query);
    let t0 = Instant::now();
    let (prediction, enc) =
        model.predict_and_encode_into(&mut model.inference_tape(ctx.numerics), &graph);
    stages.forward_us = t0.elapsed().as_micros() as u64;
    // Install the activations — unless a swap advanced the shard while
    // this request was in flight, in which case they are already stale
    // and must not land (a later lookup filters on version anyway, but
    // refusing the insert keeps the cache free of dead weight).
    if shard.generation().0 == version {
        let entry = Arc::new(CacheEntry { fingerprint: line.to_string(), version, graph, enc });
        if let Some(old) = shared.lock_cache(shard_idx).insert(query.courier_id, entry) {
            // Same-fingerprint same-version replacement is a
            // concurrent-miss race, not a route-state change.
            if old.fingerprint != line || old.version != version {
                metrics.cache_invalidations.inc();
            }
        }
    }
    (prediction, stages, version)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_shared() -> (TcpListener, ServerShared) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = ServerShared::new(Registry::new(), addr, &ServeOptions::default(), Vec::new());
        (listener, shared)
    }

    #[test]
    fn evented_dispatch_drain_race_counts_dropped_accepts() {
        let (listener, shared) = bare_shared();
        let addr = shared.addr;
        // A closed run queue models the worker pool having drained
        // between a connection's accept and its first line.
        let queue = RunQueue::default();
        queue.close();
        let sink = EventedSink { shared: &shared, queue: &queue };
        let _client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let conn = Arc::new(EvConn::for_test(accepted));
        assert!(!sink.dispatch(Arc::clone(&conn)), "closed queue refuses dispatch");
        // The reactor's queue_lines reacts to a failed dispatch by
        // counting and closing; mirror that protocol here.
        sink.dropped_dispatch();
        conn.close();
        assert_eq!(shared.metrics.dropped_accepts.get(), 1);
        assert!(conn.is_dead());
        assert!(queue.next().is_none(), "nothing was queued");
    }

    #[test]
    fn run_queue_is_fifo_and_serves_requeues_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut conns = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..3 {
            clients.push(TcpStream::connect(addr).expect("connect"));
            conns.push(Arc::new(EvConn::for_test(listener.accept().expect("accept").0)));
        }
        let queue = RunQueue::default();
        assert!(queue.dispatch(Arc::clone(&conns[0])));
        assert!(queue.dispatch(Arc::clone(&conns[1])));
        let first = queue.next().expect("queued");
        assert!(Arc::ptr_eq(&first, &conns[0]), "FIFO order");
        // A spent quantum goes behind the work already waiting.
        queue.requeue(first);
        queue.close();
        assert!(!queue.dispatch(Arc::clone(&conns[2])), "closed: no new dispatch");
        let order: Vec<_> = std::iter::from_fn(|| queue.next()).collect();
        assert_eq!(order.len(), 2);
        assert!(Arc::ptr_eq(&order[0], &conns[1]));
        assert!(Arc::ptr_eq(&order[1], &conns[0]), "requeued connection served after close");
        // Requeues stay allowed after close, so a parked connection
        // still reaches a worker before the pool exits.
        queue.requeue(Arc::clone(&conns[0]));
        assert!(queue.next().is_some_and(|c| Arc::ptr_eq(&c, &conns[0])));
        assert!(queue.next().is_none());
    }

    #[test]
    fn trace_id_wrap_rolls_to_fresh_segment_and_counts() {
        let (_listener, shared) = bare_shared();
        let mut trace = TraceCtx::at_accept();
        let first = next_trace_id(&shared, &mut trace);
        // Exhaust the remainder of the segment: a segment spans seq
        // 1..=2^20-1, so after `first` there are 2^20 - 2 ids left.
        let seq_span = 1u64 << rtp_obs::SEQ_BITS;
        let mut last = first;
        for _ in 2..seq_span {
            last = next_trace_id(&shared, &mut trace);
        }
        assert_eq!(shared.metrics.trace_id_wraps.get(), 0, "still inside the first segment");
        assert_eq!(last, first + seq_span - 2, "consecutive ids within the segment");
        let rolled = next_trace_id(&shared, &mut trace);
        assert_eq!(shared.metrics.trace_id_wraps.get(), 1, "rollover must be surfaced");
        assert_ne!(rolled, first, "request 2^20+1 must not alias request 1");
        assert!(rolled >> rtp_obs::SEQ_BITS > first >> rtp_obs::SEQ_BITS, "fresh segment");
    }
}
