//! Crash flight recorder: a fixed-size ring buffer of recent events
//! per thread, dumped as JSONL when something goes wrong.
//!
//! Counters tell you *how often* a worker panicked; the flight recorder
//! tells you *what the process was doing* when it happened. Each thread
//! that records owns a fixed ring of [`CAPACITY`] slots; recording is a
//! `fetch_add` on the ring head plus one uncontended slot store, and
//! when the recorder is disabled (the default) it is a single relaxed
//! atomic load with the detail closure never invoked. There is no
//! global serialization on the record path — threads only meet at a
//! registry mutex once, when a thread's ring is first created.
//!
//! [`snapshot`] collects every ring and orders events by timestamp;
//! [`dump_to_file`] writes them as JSONL through
//! [`crate::fsio::write_atomic`] (a crash mid-dump cannot leave a
//! truncated post-mortem) and flushes the span sink so a `--log-json`
//! file is complete at the moment the dump lands.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per recording thread.
pub const CAPACITY: usize = 64;

/// What kind of moment an event captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A closed tracing span (mirrored from [`crate::trace`]).
    Span,
    /// A request-level failure that was replied to and survived.
    Error,
    /// A caught panic (serve worker or evaluation thread).
    Panic,
    /// Trainer epoch progress.
    Epoch,
    /// A served request (recorded at reply time with its trace id).
    Request,
    /// A model hot-swap (a serve-side reload or an online-loop push).
    Reload,
}

impl Kind {
    /// Stable lowercase tag used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Error => "error",
            Kind::Panic => "panic",
            Kind::Epoch => "epoch",
            Kind::Request => "request",
            Kind::Reload => "reload",
        }
    }
}

/// One recorded moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the recorder's own epoch (first enable).
    pub ts_us: u64,
    /// Dense id of the recording thread (1-based).
    pub thread: u64,
    /// Event kind.
    pub kind: Kind,
    /// Static site name (e.g. `"serve.request"`, `"train.epoch"`).
    pub name: &'static str,
    /// Trace id of the request this event belongs to (0 = none).
    pub trace_id: u64,
    /// Free-form detail, built lazily only when recording is enabled.
    pub detail: String,
}

impl Event {
    /// The JSONL representation written by [`dump_to_file`].
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"ts_us\":{},\"thread\":{},\"kind\":\"{}\",\"name\":\"{}\"",
            self.ts_us,
            self.thread,
            self.kind.as_str(),
            self.name
        );
        if self.trace_id != 0 {
            s.push_str(&format!(",\"trace_id\":{}", self.trace_id));
        }
        if !self.detail.is_empty() {
            s.push_str(",\"detail\":\"");
            escape_json_into(&self.detail, &mut s);
            s.push('"');
        }
        s.push('}');
        s
    }
}

/// Escapes `src` as JSON string content (quotes, backslashes, control
/// characters) into `out`.
pub fn escape_json_into(src: &str, out: &mut String) {
    for c in src.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

struct Ring {
    thread: u64,
    head: AtomicU64,
    slots: Box<[Mutex<Option<Event>>]>,
}

impl Ring {
    fn new(thread: u64) -> Self {
        let slots: Vec<Mutex<Option<Event>>> = (0..CAPACITY).map(|_| Mutex::new(None)).collect();
        Self { thread, head: AtomicU64::new(0), slots: slots.into_boxed_slice() }
    }

    fn push(&self, event: Event) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % CAPACITY;
        // Only this thread pushes to its own ring; the mutex exists for
        // snapshot readers and is uncontended on the record path.
        *self.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(event);
    }

    fn events(&self) -> Vec<Event> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Monotonic origin for `ts_us`, fixed at first enable (or first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn this_ring() -> Arc<Ring> {
    RING.with(|r| {
        r.get_or_init(|| {
            let ring = Arc::new(Ring::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
            rings().lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&ring));
            ring
        })
        .clone()
    })
}

/// Turns the recorder on or off. Off (the default) makes [`record`] a
/// single relaxed load; existing ring contents are retained.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the recorder is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event on the calling thread's ring. `detail` is invoked
/// only when the recorder is enabled, so callers can interpolate
/// request context without paying for it in the disabled case.
#[inline]
pub fn record(kind: Kind, name: &'static str, trace_id: u64, detail: impl FnOnce() -> String) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ts_us = epoch().elapsed().as_micros() as u64;
    let ring = this_ring();
    ring.push(Event { ts_us, thread: ring.thread, kind, name, trace_id, detail: detail() });
}

/// All currently retained events across every thread's ring, ordered
/// by timestamp (ties broken by thread id).
pub fn snapshot() -> Vec<Event> {
    let rings = rings().lock().unwrap_or_else(|e| e.into_inner());
    let mut events: Vec<Event> = rings.iter().flat_map(|r| r.events()).collect();
    events.sort_by_key(|e| (e.ts_us, e.thread));
    events
}

/// Renders [`snapshot`] as JSONL (one event per line, trailing
/// newline when non-empty).
pub fn snapshot_jsonl() -> String {
    let mut out = String::new();
    for event in snapshot() {
        out.push_str(&event.to_json_line());
        out.push('\n');
    }
    out
}

/// Dumps the recorder to `path` as JSONL via
/// [`crate::fsio::write_atomic`], after flushing the span sink so the
/// companion `--log-json` file is complete at dump time. Returns the
/// number of events written.
pub fn dump_to_file(path: &str) -> std::io::Result<usize> {
    crate::trace::flush();
    let events = snapshot();
    let mut out = String::new();
    for event in &events {
        out.push_str(&event.to_json_line());
        out.push('\n');
    }
    crate::fsio::write_atomic(std::path::Path::new(path), out.as_bytes())?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process state shared with other tests in this
    // binary, so assertions are containment, not exact counts. Every
    // test that sets the on/off flag holds `FLAG`, so switching the
    // recorder off briefly cannot drop another test's events.
    static FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn hold_flag() -> std::sync::MutexGuard<'static, ()> {
        FLAG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_skips_detail_closure() {
        let _flag = hold_flag();
        // Another test may have enabled the recorder; force off briefly.
        let was = enabled();
        set_enabled(false);
        let mut invoked = false;
        record(Kind::Error, "flight.test.disabled", 7, || {
            invoked = true;
            String::new()
        });
        assert!(!invoked, "detail must not be built while disabled");
        set_enabled(was);
    }

    #[test]
    fn records_wrap_and_survive_in_snapshot() {
        let _flag = hold_flag();
        set_enabled(true);
        for i in 0..(CAPACITY + 5) {
            record(Kind::Request, "flight.test.wrap", 1000 + i as u64, || format!("i={i}"));
        }
        let events = snapshot();
        let mine: Vec<&Event> = events.iter().filter(|e| e.name == "flight.test.wrap").collect();
        assert!(mine.len() <= CAPACITY, "ring must cap retained events");
        // The newest event survives; the oldest was overwritten.
        assert!(mine.iter().any(|e| e.trace_id == 1000 + CAPACITY as u64 + 4));
        assert!(!mine.iter().any(|e| e.trace_id == 1000));
        // Snapshot is time-ordered.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn cross_thread_events_all_land_in_snapshot() {
        let _flag = hold_flag();
        set_enabled(true);
        let handles: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    record(Kind::Epoch, "flight.test.thread", 2000 + t, || format!("t={t}"));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = snapshot();
        for t in 0..3u64 {
            assert!(
                events.iter().any(|e| e.name == "flight.test.thread" && e.trace_id == 2000 + t),
                "thread {t} event missing"
            );
        }
    }

    #[test]
    fn json_lines_escape_and_shape() {
        let e = Event {
            ts_us: 12,
            thread: 3,
            kind: Kind::Panic,
            name: "serve.worker",
            trace_id: 42,
            detail: "boom \"quoted\"\nline2\ttab\u{1}".to_string(),
        };
        let line = e.to_json_line();
        assert_eq!(
            line,
            "{\"ts_us\":12,\"thread\":3,\"kind\":\"panic\",\"name\":\"serve.worker\",\
             \"trace_id\":42,\"detail\":\"boom \\\"quoted\\\"\\nline2\\ttab\\u0001\"}"
        );
        // Zero trace id and empty detail are omitted entirely.
        let bare = Event {
            ts_us: 1,
            thread: 1,
            kind: Kind::Epoch,
            name: "train.epoch",
            trace_id: 0,
            detail: String::new(),
        };
        assert_eq!(
            bare.to_json_line(),
            "{\"ts_us\":1,\"thread\":1,\"kind\":\"epoch\",\"name\":\"train.epoch\"}"
        );
    }

    #[test]
    fn dump_writes_jsonl_file() {
        let _flag = hold_flag();
        set_enabled(true);
        record(Kind::Panic, "flight.test.dump", 555, || "dump me".to_string());
        let path =
            std::env::temp_dir().join(format!("rtp-obs-flight-{}.jsonl", std::process::id()));
        let path_s = path.to_str().unwrap().to_string();
        let n = dump_to_file(&path_s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.lines().count(), n);
        assert!(text.lines().any(|l| l.contains("\"trace_id\":555")), "{text}");
    }
}
