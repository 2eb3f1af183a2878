//! Per-request trace context for the serving stack: u64 trace ids
//! minted at connection accept and the stage latency breakdown (model
//! forward and reply write) of one request's handling.
//!
//! A [`TraceCtx`] is created when a connection is accepted; every
//! request line on that connection then gets its own trace id from
//! [`TraceCtx::next_request`]. Ids pack the connection and the request
//! sequence (`conn << SEQ_BITS | seq`), so consecutive requests on one
//! connection have consecutive ids and the connection a request came
//! in on is recoverable from its id alone — which is exactly what a
//! post-mortem flight-recorder dump needs.
//!
//! Timestamps never enter this module: stages are *durations* computed
//! by the serving layer from monotonic [`std::time::Instant`] pairs,
//! so a breakdown is non-negative by construction and the sum of the
//! stages can never exceed the request's end-to-end latency (each
//! stage is a disjoint sub-interval of the handle window).

use std::sync::atomic::{AtomicU64, Ordering};

/// Low bits of a trace id reserved for the per-connection request
/// sequence number (2^20 pipelined requests per connection before the
/// context rolls over into a fresh id segment).
pub const SEQ_BITS: u32 = 20;

/// Largest sequence number that fits in the trace-id layout.
const SEQ_MAX: u64 = (1 << SEQ_BITS) - 1;

static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

/// The trace context of one accepted connection.
#[derive(Debug)]
pub struct TraceCtx {
    conn: u64,
    seq: u64,
    rollovers: u64,
}

impl TraceCtx {
    /// Mints the context for a freshly accepted connection. Connection
    /// ids are process-wide and monotonically increasing.
    pub fn at_accept() -> Self {
        Self { conn: NEXT_CONN.fetch_add(1, Ordering::Relaxed), seq: 0, rollovers: 0 }
    }

    /// The connection id this context was minted for. After a sequence
    /// rollover this is the id of the *current* segment, not the one
    /// minted at accept.
    pub fn conn_id(&self) -> u64 {
        self.conn
    }

    /// How many times this connection exhausted a 2^20-request id
    /// segment and rolled over into a fresh one. The serving layer
    /// surfaces this as `serve.trace_id_wraps`.
    pub fn rollovers(&self) -> u64 {
        self.rollovers
    }

    /// Returns the trace id of the next request line on this
    /// connection: `conn << SEQ_BITS | seq`, with `seq` starting at 1.
    ///
    /// When the sequence would overflow its `SEQ_BITS` field the
    /// context mints a fresh connection-id segment from the same
    /// process-wide allocator that `at_accept` uses, instead of
    /// silently wrapping: ids stay globally unique (request 2^20+1 can
    /// no longer alias request 1 or collide into another connection's
    /// id space), at the cost of `conn_id` changing mid-connection —
    /// which [`Self::rollovers`] makes observable.
    pub fn next_request(&mut self) -> u64 {
        self.seq += 1;
        if self.seq > SEQ_MAX {
            self.conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
            self.seq = 1;
            self.rollovers += 1;
        }
        (self.conn << SEQ_BITS) | self.seq
    }
}

/// Per-stage durations (microseconds) of one served request.
///
/// * `forward_us` — the model forward on the worker's lane (a full
///   forward on an encoder-cache miss, the decoder replay on a hit);
/// * `write_us` — reply serialization (in the echoed breakdown; the
///   `serve.stage.write_us` histogram additionally includes the socket
///   write, which a reply cannot observe about itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Model forward duration.
    pub forward_us: u64,
    /// Reply serialization (plus socket write in the histogram).
    pub write_us: u64,
}

impl StageBreakdown {
    /// The JSON object spliced into traced replies (`"stages":{...}`).
    /// It keeps the five keys, in pipeline order, that clients parse:
    /// `queue_wait_us`, `batch_form_us` and `demux_us` are always 0,
    /// because a prediction never leaves the thread that read its line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue_wait_us\":0,\"batch_form_us\":0,\"forward_us\":{},\"demux_us\":0,\"write_us\":{}}}",
            self.forward_us, self.write_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_consecutive_within_a_connection_and_distinct_across() {
        let mut a = TraceCtx::at_accept();
        let mut b = TraceCtx::at_accept();
        assert_ne!(a.conn_id(), b.conn_id());
        let a1 = a.next_request();
        let a2 = a.next_request();
        assert_eq!(a2, a1 + 1, "pipelined requests get consecutive ids");
        assert_eq!(a1 >> SEQ_BITS, a.conn_id(), "connection recoverable from id");
        let b1 = b.next_request();
        assert_ne!(a1, b1);
        assert_ne!(a2, b1);
    }

    #[test]
    fn sequence_rollover_mints_a_fresh_segment_instead_of_aliasing() {
        let mut ctx = TraceCtx::at_accept();
        ctx.seq = SEQ_MAX - 1;
        let first_conn = ctx.conn_id();
        let a = ctx.next_request(); // seq reaches SEQ_MAX: last id of this segment
        let b = ctx.next_request(); // seq would exceed SEQ_MAX: rollover
        assert_eq!(a, (first_conn << SEQ_BITS) | SEQ_MAX, "last id of the segment");
        assert_eq!(ctx.rollovers(), 1, "rollover must be observable");
        assert_ne!(ctx.conn_id(), first_conn, "rollover mints a fresh segment");
        assert_eq!(b, (ctx.conn_id() << SEQ_BITS) | 1, "fresh segment restarts at seq 1");
        // The buggy masked layout produced (conn << SEQ_BITS) | 1 for
        // request 2^20 + 1 — exactly request 1's id. The rolled id must
        // collide with neither an early id of this connection nor any
        // id of a connection accepted later.
        assert_ne!(b, (first_conn << SEQ_BITS) | 1, "no aliasing with request 1");
        let later = TraceCtx::at_accept();
        assert_ne!(ctx.conn_id(), later.conn_id(), "segment comes from the shared allocator");
    }

    #[test]
    fn breakdown_serializes_five_keys_in_pipeline_order() {
        let s = StageBreakdown { forward_us: 300, write_us: 50 };
        assert_eq!(
            s.to_json(),
            "{\"queue_wait_us\":0,\"batch_form_us\":0,\"forward_us\":300,\"demux_us\":0,\"write_us\":50}"
        );
    }
}
