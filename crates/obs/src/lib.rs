//! # rtp-obs — zero-dependency observability
//!
//! Production telemetry for the M²G4RTP stack, std-only by design so
//! every crate (down to the tensor substrate) can depend on it without
//! cycles:
//!
//! * [`metrics`] — a global lock-free registry of atomic
//!   [`metrics::Counter`]s, [`metrics::Gauge`]s and fixed-bucket log2
//!   [`metrics::Histogram`]s. Snapshots are mergeable (associative) and
//!   percentile extraction is *quantized-exact*: it returns exactly the
//!   value a sorted-vector oracle would, rounded down to the histogram's
//!   bucket floor (≤ 1/16 relative resolution).
//! * [`trace`] — structured span tracing. [`span!`] guards record
//!   wall-time and per-thread parent/child structure, drained as JSONL
//!   events to a file sink (`rtp train --log-json PATH`) or an
//!   in-memory sink (the `run_all` timing artifact).
//! * [`fsio`] — durable artifact writes: [`fsio::write_atomic`] is the
//!   write-temp → fsync → rename helper every model/checkpoint/results
//!   writer in the workspace goes through, so a crash or full disk can
//!   never leave a truncated artifact behind.
//! * [`context`] — per-request trace ids ([`context::TraceCtx`], minted
//!   at connection accept) and the stage latency
//!   [`context::StageBreakdown`] the serving layer attributes a
//!   request's end-to-end latency to.
//! * [`prom`] — Prometheus text exposition: [`prom::render`] turns any
//!   [`metrics::Snapshot`] into scrape-able text (histograms with
//!   exact integer `le` bounds), [`prom::validate`] is the matching
//!   checker used by tests and CI.
//! * [`flight`] — the crash flight recorder: a fixed ring of recent
//!   events per thread ([`flight::record`]), dumped as JSONL on worker
//!   panic or `{"cmd":"dump"}`
//!   ([`flight::dump_to_file`]).
//!
//! ## Determinism contract
//!
//! Telemetry must never perturb training bits. Every primitive here is
//! write-only from the model's perspective: no clock reading or metric
//! value ever flows back into model math, counters and gauges live off
//! the gradient path, and span guards read `Instant` only into event
//! records. When no sink is attached, span creation is a single relaxed
//! atomic load and **never allocates**; the global kill switch
//! ([`metrics::set_enabled`]) reduces counter/histogram updates to the
//! same single load for overhead A/B measurement (`obs_overhead`
//! bench).

pub mod context;
pub mod flight;
pub mod fsio;
pub mod metrics;
pub mod prom;
pub mod trace;

pub use context::{StageBreakdown, TraceCtx, SEQ_BITS};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use trace::{SpanEvent, SpanGuard};

/// A lock-free static counter handle on the global registry:
/// `rtp_obs::counter!("tensor.matmul.fwd").inc()`. The registry lock is
/// taken once at first use; afterwards the expression is two relaxed
/// atomic loads plus the increment.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**__CELL.get_or_init(|| $crate::metrics::global().counter($name))
    }};
}

/// A lock-free static gauge handle on the global registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__CELL.get_or_init(|| $crate::metrics::global().gauge($name))
    }};
}

/// A lock-free static histogram handle on the global registry.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__CELL.get_or_init(|| $crate::metrics::global().histogram($name))
    }};
}

/// Opens a timing span: `let _g = span!("epoch");` or
/// `let _g = span!("epoch", epoch_index);` (the second argument is
/// recorded as the event's integer `arg`). The span closes when the
/// guard drops. With no sink attached this is one relaxed atomic load
/// and no allocation.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
    ($name:expr, $arg:expr) => {
        $crate::trace::span_arg($name, $arg as i64)
    };
}
