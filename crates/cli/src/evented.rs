//! The serve stack's connection front end: one reactor thread
//! multiplexes every client socket through a raw, hand-rolled `epoll`
//! readiness loop — no `libc` crate, no new deps, the same vendoring
//! policy as the rest of the workspace — and hands connections with
//! complete NDJSON request lines to the worker pool's run queue.
//!
//! # Why a readiness loop
//!
//! A thread per connection would cap the server at "workers"
//! concurrent clients and burn wakeups while they idle. Here the
//! reactor owns *all* sockets: an idle connection costs one `epoll`
//! registration and a ~100-byte [`EvConn`] — no thread, no timer churn
//! — so thousands of open-but-quiet couriers are free, and the worker
//! pool only ever sees connections that have a complete request line
//! ready.
//!
//! # Architecture
//!
//! * **Epoll** (`Epoll`): level-triggered `EPOLLIN | EPOLLRDHUP` on
//!   the nonblocking listener and every accepted socket, via direct
//!   `extern "C"` declarations of `epoll_create1` / `epoll_ctl` /
//!   `epoll_wait`.
//! * **Line assembly** ([`LineBuffer`]): per-connection byte buffers
//!   that survive partial reads — a client may dribble one request
//!   byte-per-write across many readiness events and the line is
//!   assembled exactly once, with UTF-8 validated per completed line.
//!   A line longer than [`MAX_LINE_BYTES`] closes its connection
//!   after one best-effort error line (`EventSink::oversize_line`), so
//!   buffered bytes per connection stay bounded.
//! * **Dispatch** ([`EvConn`]): completed lines are queued on the
//!   connection; the *first* line to land on an unclaimed connection
//!   sends the connection handle to the worker pool, and the claiming
//!   worker drains the queue in FIFO order before releasing its claim.
//!   One worker per connection at a time ⇒ pipelined replies keep
//!   their request order, which is what the byte-identity tests pin.
//! * **Idle reaping** ([`TimerWheel`]): a hashed timer wheel with lazy
//!   cancellation. Activity never touches the wheel (it only bumps the
//!   connection's atomic last-activity stamp); when a deadline fires
//!   the reactor re-checks the stamp and either reaps the connection
//!   (`EventSink::conn_timeout`) or reschedules it from its true idle
//!   start. `epoll_wait`'s timeout is the wheel's next due tick — with
//!   no timers armed the reactor blocks indefinitely and is woken only
//!   by readiness (or the shutdown poke).
//!
//! The reactor itself never parses JSON and never writes replies:
//! workers write directly to the (shared, nonblocking) socket and close
//! it by marking the connection dead + `shutdown(2)`, which surfaces as
//! a readiness event back on the reactor for deregistration — a
//! single-owner cleanup protocol with no fd ownership transfer.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rtp_obs::TraceCtx;

// ---------------------------------------------------------------------------
// Raw epoll bindings (x86-64 / aarch64 Linux ABI, no libc crate)
// ---------------------------------------------------------------------------

/// `struct epoll_event` exactly as the kernel ABI lays it out on
/// x86-64: packed, 12 bytes, `data` carrying our connection token.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;

/// Thin RAII wrapper over an epoll instance. All registrations are
/// level-triggered `EPOLLIN | EPOLLRDHUP` with a caller-chosen `u64`
/// token: level triggering means a socket with unread bytes re-fires
/// on the next `wait`, so the reactor may stop reading a hot
/// connection early (fairness) without losing data.
struct Epoll {
    epfd: i32,
}

impl Epoll {
    fn new() -> std::io::Result<Self> {
        // SAFETY: plain syscall wrapper; no pointers involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self { epfd })
    }

    fn add(&self, fd: RawFd, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLRDHUP, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `add`; a failed DEL (fd already closed) is
        // harmless — the kernel removed the registration with the fd.
        unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks until readiness or `timeout` (None = forever), appending
    /// `(token, events)` pairs to `out`. EINTR retries internally.
    fn wait(&self, out: &mut Vec<(u64, u32)>, timeout: Option<Duration>) -> std::io::Result<()> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 0.4 ms residue does not busy-spin.
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32 + i32::from(!t.is_zero()),
        };
        let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
        loop {
            // SAFETY: `buf` is a valid, writable array of maxevents
            // entries for the duration of the call.
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            for ev in buf.iter().take(n as usize) {
                out.push((ev.data, ev.events));
            }
            return Ok(());
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid fd owned by this wrapper.
        unsafe { close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// SIGHUP (model-reload signal), same no-libc vendoring policy as epoll
// ---------------------------------------------------------------------------

const SIGHUP: i32 = 1;

/// Process-wide count of SIGHUPs received since the handler was
/// installed. The serve layer polls this and reloads `--model` paths
/// when it advances — the handler itself never touches server state.
static SIGHUP_COUNT: AtomicU64 = AtomicU64::new(0);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Async-signal-safe handler: a single lock-free counter bump. All
/// actual reload work happens on a normal thread that watches
/// [`sighup_count`].
extern "C" fn sighup_handler(_signum: i32) {
    SIGHUP_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Installs the SIGHUP handler once per process (idempotent). Without
/// this, SIGHUP keeps its default disposition and terminates the
/// process — so it is only installed when a server actually has model
/// paths to re-read.
pub fn install_sighup_handler() {
    static INSTALLED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    INSTALLED.get_or_init(|| {
        // SAFETY: `sighup_handler` is async-signal-safe (one relaxed
        // atomic add, no allocation, no locks), and `signal` replacing
        // the default disposition is the documented use of the call.
        unsafe { signal(SIGHUP, sighup_handler as *const () as usize) };
    });
}

/// SIGHUPs observed so far (0 until [`install_sighup_handler`] runs
/// and a signal arrives).
pub fn sighup_count() -> u64 {
    SIGHUP_COUNT.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Wheel slot count; deadlines further out than `SLOTS` ticks hash onto
/// a slot they share with nearer deadlines and are skipped (not fired)
/// until their own tick comes up.
const WHEEL_SLOTS: u64 = 64;

/// A hashed timer wheel over coarse ticks. `schedule` is O(1);
/// `expired` advances the cursor one slot per elapsed tick and drains
/// only entries whose deadline tick has actually passed. There is no
/// `cancel`: the serve layer reschedules or drops tokens when they
/// fire (lazy cancellation), which keeps activity — the hot path — off
/// the wheel entirely.
pub struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    tick: Duration,
    origin: Instant,
    /// Next tick index to drain.
    cursor: u64,
    /// Armed entries across all slots.
    len: usize,
}

impl TimerWheel {
    /// Creates a wheel with the given tick granularity, anchored at
    /// `now`.
    pub fn new(tick: Duration, now: Instant) -> Self {
        let tick = tick.max(Duration::from_millis(1));
        Self { slots: vec![Vec::new(); WHEEL_SLOTS as usize], tick, origin: now, cursor: 0, len: 0 }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.origin).as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Arms `token` to fire on the first tick boundary at or after its
    /// deadline (rounding up: a timer never fires early, and fires at
    /// most one tick late).
    pub fn schedule(&mut self, token: u64, deadline: Instant) {
        // Round up, and never schedule into an already-drained tick:
        // late entries go off on the next drain instead of being
        // silently orphaned behind the cursor.
        let t = (self.tick_of(deadline) + 1).max(self.cursor);
        self.slots[(t % WHEEL_SLOTS) as usize].push((token, t));
        self.len += 1;
    }

    /// How long `epoll_wait` may block before the next armed deadline
    /// is due; `None` when nothing is armed.
    pub fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        // Earliest possible due time is the end of the cursor tick;
        // scanning for the true minimum would be O(len) per loop
        // iteration for no gain — a spurious wakeup just drains zero
        // entries and re-blocks. The tick index is a u64 (past
        // `u32::MAX` after ~50 days at the 1 ms floor), so the offset
        // is computed in nanoseconds rather than `Duration * u32`,
        // which would wrap the index and send wakeups into the past.
        let due_ns = (self.cursor as u128 + 1) * self.tick.as_nanos();
        let elapsed_ns = now.saturating_duration_since(self.origin).as_nanos();
        let remaining = due_ns.saturating_sub(elapsed_ns).min(u64::MAX as u128) as u64;
        Some(Duration::from_nanos(remaining))
    }

    /// Advances through every tick up to `now` and returns the tokens
    /// whose deadlines passed, in firing order.
    pub fn expired(&mut self, now: Instant) -> Vec<u64> {
        let now_tick = self.tick_of(now);
        if self.len == 0 {
            // Fast-forward an idle wheel so a long quiet period does
            // not cost one loop iteration per elapsed tick.
            self.cursor = self.cursor.max(now_tick);
            return Vec::new();
        }
        let mut due = Vec::new();
        while self.cursor <= now_tick {
            let slot = (self.cursor % WHEEL_SLOTS) as usize;
            self.slots[slot].retain(|&(token, deadline_tick)| {
                if deadline_tick <= now_tick {
                    due.push(token);
                    false
                } else {
                    true // a later round of this slot
                }
            });
            self.cursor += 1;
        }
        self.len -= due.len();
        due
    }

    /// Number of armed entries.
    pub fn armed(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Per-connection line assembly
// ---------------------------------------------------------------------------

/// The longest request line the reactor buffers, terminator excluded:
/// 1 MiB, about 800× a query line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why a connection's bytes cannot become request lines; either way
/// the connection is closed.
#[derive(Debug, PartialEq, Eq)]
pub enum LineError {
    /// A completed line is not valid UTF-8 (an I/O-class error).
    NotUtf8,
    /// A line grew past [`MAX_LINE_BYTES`] before its `\n` arrived.
    TooLong,
}

/// Accumulates raw socket bytes and yields complete `\n`-terminated
/// lines; a partial trailing line survives until more bytes (or EOF)
/// arrive. UTF-8 is validated per completed line so the error maps to
/// exactly one connection.
#[derive(Default)]
pub struct LineBuffer {
    partial: Vec<u8>,
}

impl LineBuffer {
    /// Feeds one chunk of socket bytes; returns every line completed by
    /// it (without the terminator). On `Err` the connection is to be
    /// closed, and lines completed earlier in the same chunk go with it.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<String>, LineError> {
        let mut lines = Vec::new();
        let mut rest = bytes;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            self.extend(head)?;
            rest = &tail[1..];
            lines.push(Self::decode(std::mem::take(&mut self.partial))?);
        }
        self.extend(rest)?;
        Ok(lines)
    }

    /// Flushes the trailing unterminated line at EOF, if any.
    pub fn take_partial(&mut self) -> Result<Option<String>, LineError> {
        if self.partial.is_empty() {
            return Ok(None);
        }
        Self::decode(std::mem::take(&mut self.partial)).map(Some)
    }

    fn extend(&mut self, bytes: &[u8]) -> Result<(), LineError> {
        if self.partial.len() + bytes.len() > MAX_LINE_BYTES {
            return Err(LineError::TooLong);
        }
        self.partial.extend_from_slice(bytes);
        Ok(())
    }

    fn decode(raw: Vec<u8>) -> Result<String, LineError> {
        String::from_utf8(raw).map_err(|_| LineError::NotUtf8)
    }

    /// Bytes buffered toward an incomplete line.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// The queue side of a connection: completed request lines awaiting a
/// worker, plus the claim that serializes workers per connection.
#[derive(Default)]
struct ConnQueue {
    lines: VecDeque<String>,
    /// A worker is currently draining this queue; new lines must not
    /// dispatch a second one (reply order!).
    claimed: bool,
}

/// One evented connection, shared between the reactor (reads, timers)
/// and at most one worker at a time (line handling, reply writes).
pub struct EvConn {
    stream: TcpStream,
    /// Per-connection trace context; the claiming worker mints request
    /// ids from it, so pipelined ids stay consecutive.
    pub trace: Mutex<TraceCtx>,
    q: Mutex<ConnQueue>,
    /// Set by a worker to close the connection (budget spent, write
    /// failure, panic, shutdown ack). The reactor treats subsequent
    /// readiness on a dead connection as plain cleanup, not an error.
    dead: AtomicBool,
    /// Microseconds since the reactor's origin instant of the last
    /// read or reply write — the idle-reaping stamp.
    last_activity_us: AtomicU64,
    origin: Instant,
}

impl EvConn {
    fn new(stream: TcpStream, trace: TraceCtx, origin: Instant) -> Self {
        let now_us = origin.elapsed().as_micros() as u64;
        Self {
            stream,
            trace: Mutex::new(trace),
            q: Mutex::new(ConnQueue::default()),
            dead: AtomicBool::new(false),
            last_activity_us: AtomicU64::new(now_us),
            origin,
        }
    }

    /// Test-only constructor for the serve layer's unit tests (the
    /// reactor is the sole production construction site).
    #[cfg(test)]
    pub(crate) fn for_test(stream: TcpStream) -> Self {
        Self::new(stream, TraceCtx::at_accept(), Instant::now())
    }

    fn lock_q(&self) -> MutexGuard<'_, ConnQueue> {
        self.q.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Queues completed lines; returns `true` iff the caller must
    /// dispatch this connection to the worker pool (it was unclaimed).
    fn push_lines(&self, lines: Vec<String>) -> bool {
        let mut q = self.lock_q();
        if self.is_dead() {
            return false;
        }
        q.lines.extend(lines);
        if q.claimed || q.lines.is_empty() {
            false
        } else {
            q.claimed = true;
            true
        }
    }

    /// Pops the next queued line for the claiming worker; releases the
    /// claim and returns `None` when the queue is empty (or the
    /// connection died). The pop and the release are one critical
    /// section, so a line pushed concurrently either lands in this
    /// drain or re-dispatches the connection — never neither.
    pub fn pop_line(&self) -> Option<String> {
        let mut q = self.lock_q();
        if self.is_dead() {
            q.lines.clear();
            q.claimed = false;
            return None;
        }
        match q.lines.pop_front() {
            Some(line) => Some(line),
            None => {
                q.claimed = false;
                None
            }
        }
    }

    /// End-of-quantum check for a claiming worker: if queued lines
    /// remain, the claim is *kept* and `true` is returned — the caller
    /// must hand the connection (claim and all) back to the worker
    /// pool's queue. Otherwise the claim is released and `false` comes
    /// back, exactly like a drained [`EvConn::pop_line`]. One critical
    /// section, so a line pushed concurrently either stays for the
    /// re-dispatched drain or re-dispatches the connection itself —
    /// never neither.
    pub fn yield_claim(&self) -> bool {
        let mut q = self.lock_q();
        if self.is_dead() {
            q.lines.clear();
            q.claimed = false;
            return false;
        }
        if q.lines.is_empty() {
            q.claimed = false;
            false
        } else {
            true
        }
    }

    /// Writes one reply, riding out `WouldBlock` on the nonblocking
    /// socket (replies are small; the retry loop only spins when the
    /// client stops draining its receive window).
    pub fn write_reply(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut written = 0;
        while written < bytes.len() {
            match (&self.stream).write(&bytes[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.touch();
        Ok(())
    }

    /// Closes the connection from the reactor with a one-line
    /// explanation. The line is sent with at most one nonblocking write,
    /// and only while no worker holds the claim (a claim holder may be
    /// mid-reply on the same socket); only the reactor sets claims, so
    /// the check cannot go stale under it.
    fn reject(&self, reply: &[u8]) {
        if !self.lock_q().claimed {
            let _ = (&self.stream).write(reply);
        }
        self.close();
    }

    /// Marks the connection dead and shuts the socket down; the
    /// resulting readiness event makes the reactor deregister it. Safe
    /// to call from either side, idempotent.
    pub fn close(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Bumps the idle stamp to now.
    pub fn touch(&self) {
        self.last_activity_us.store(self.origin.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Lazy-cancellation verdict when this connection's idle deadline
    /// fires: `Some(new_deadline)` to rearm (claimed, queued work, or
    /// activity since the deadline was scheduled), `None` to reap.
    fn idle_verdict(&self, idle: Duration, now: Instant) -> Option<Instant> {
        {
            let q = self.lock_q();
            if q.claimed || !q.lines.is_empty() {
                return Some(now + idle);
            }
        }
        let last =
            self.origin + Duration::from_micros(self.last_activity_us.load(Ordering::Relaxed));
        if now.saturating_duration_since(last) >= idle {
            None
        } else {
            Some(last + idle)
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// What the reactor needs from the serve layer: lifecycle accounting
/// and the hand-off into the worker pool. All counting of *client*
/// connections happens through this trait, which is what makes the
/// shutdown poke structurally invisible — the reactor checks the
/// shutdown flag before accepting, so the poke is never accepted,
/// never counted, and never mints a trace context.
pub trait EventSink: Sync {
    /// Observed (or flipped elsewhere) shutdown flag.
    fn shutting_down(&self) -> bool;
    /// A real client connection was accepted and registered.
    fn conn_opened(&self);
    /// A registered connection was deregistered (EOF, error, reap, or
    /// server shutdown with the connection still open).
    fn conn_closed(&self);
    /// A read-side I/O failure on a live connection.
    fn conn_error(&self);
    /// An idle connection was reaped by the timer wheel.
    fn conn_timeout(&self);
    /// A connection was closed for a line over [`MAX_LINE_BYTES`].
    fn oversize_line(&self);
    /// A connection could not be handed to the worker pool (its run
    /// queue already closed); the socket is closed unanswered.
    fn dropped_dispatch(&self);
    /// Hands a connection with queued lines to the worker pool.
    /// Returns `false` when the pool's run queue is closed.
    fn dispatch(&self, conn: Arc<EvConn>) -> bool;
}

/// Reactor-side state for one registered connection.
struct ConnIo {
    conn: Arc<EvConn>,
    lb: LineBuffer,
}

/// Reactor tick granularity: the timer wheel's resolution (idle reaps
/// land within one tick after the deadline).
const TICK: Duration = Duration::from_millis(50);

/// Per-readiness-event read budget before yielding back to the loop
/// (level triggering re-fires the socket if bytes remain), so one
/// firehose client cannot starve the rest of a wait batch.
const READ_CHUNKS_PER_EVENT: usize = 16;

const LISTENER_TOKEN: u64 = 0;

/// Runs the evented accept/read loop until shutdown, blocking the
/// calling thread. Returns `Err` only for reactor-fatal conditions
/// (epoll itself failing), never for per-connection trouble.
pub fn run(
    listener: &TcpListener,
    idle_timeout: Option<Duration>,
    sink: &dyn EventSink,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), LISTENER_TOKEN)?;

    let origin = Instant::now();
    let mut wheel = TimerWheel::new(TICK, origin);
    let mut conns: HashMap<u64, ConnIo> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events: Vec<(u64, u32)> = Vec::new();

    'reactor: loop {
        if sink.shutting_down() {
            break;
        }
        let timeout = wheel.next_wakeup(Instant::now());
        epoll.wait(&mut events, timeout)?;
        if sink.shutting_down() {
            break;
        }
        for &(token, _ev) in &events {
            if token == LISTENER_TOKEN {
                if accept_ready(
                    listener,
                    &epoll,
                    &mut conns,
                    &mut next_token,
                    &mut wheel,
                    idle_timeout,
                    origin,
                    sink,
                ) {
                    break 'reactor;
                }
            } else {
                read_ready(token, &epoll, &mut conns, sink);
            }
        }
        let now = Instant::now();
        for token in wheel.expired(now) {
            let Some(io) = conns.get(&token) else { continue };
            if io.conn.is_dead() {
                // A dead connection's readiness event is already on its
                // way; cleanup happens there.
                continue;
            }
            match io.conn.idle_verdict(idle_timeout.unwrap_or(TICK), now) {
                Some(deadline) => wheel.schedule(token, deadline),
                None => {
                    sink.conn_timeout();
                    remove_conn(token, &epoll, &mut conns, sink);
                }
            }
        }
    }

    // Shutdown: deregister every remaining connection. Workers may
    // still hold claims and finish writing in-flight replies — the
    // socket stays open until the last Arc drops.
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        remove_conn(token, &epoll, &mut conns, sink);
    }
    Ok(())
}

/// Accepts until `WouldBlock`. Returns `true` when shutdown was
/// observed mid-accept (the poke path): the pending socket — which is
/// the poke itself, or a client racing the shutdown — is dropped
/// without being counted or dispatched.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, ConnIo>,
    next_token: &mut u64,
    wheel: &mut TimerWheel,
    idle_timeout: Option<Duration>,
    origin: Instant,
    sink: &dyn EventSink,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if sink.shutting_down() {
                    return true;
                }
                if stream.set_nonblocking(true).is_err() {
                    sink.conn_error();
                    continue;
                }
                // NDJSON replies are small; without this, Nagle +
                // delayed ACK adds ~40 ms per pipelined round trip.
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let fd = stream.as_raw_fd();
                let conn = Arc::new(EvConn::new(stream, TraceCtx::at_accept(), origin));
                if epoll.add(fd, token).is_err() {
                    sink.conn_error();
                    continue;
                }
                sink.conn_opened();
                if let Some(idle) = idle_timeout {
                    wheel.schedule(token, Instant::now() + idle);
                }
                conns.insert(token, ConnIo { conn, lb: LineBuffer::default() });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                sink.conn_error();
                return false;
            }
        }
    }
}

/// Drains readable bytes from one connection (bounded per event),
/// assembling lines and dispatching the connection to the pool when
/// its queue goes non-empty.
fn read_ready(token: u64, epoll: &Epoll, conns: &mut HashMap<u64, ConnIo>, sink: &dyn EventSink) {
    let Some(io) = conns.get_mut(&token) else { return };
    if io.conn.is_dead() {
        // Worker-initiated close: the shutdown(2) woke us for cleanup.
        remove_conn(token, epoll, conns, sink);
        return;
    }
    let mut chunk = [0u8; 4096];
    for _ in 0..READ_CHUNKS_PER_EVENT {
        match (&io.conn.stream).read(&mut chunk) {
            Ok(0) => {
                // EOF: flush a final unterminated line, then retire.
                match io.lb.take_partial() {
                    Ok(Some(line)) => queue_lines(io, vec![line], sink),
                    Ok(None) => {}
                    Err(_) => sink.conn_error(),
                }
                remove_conn(token, epoll, conns, sink);
                return;
            }
            Ok(n) => {
                io.conn.touch();
                match io.lb.push(&chunk[..n]) {
                    Ok(lines) => {
                        if !lines.is_empty() {
                            queue_lines(io, lines, sink);
                            if io.conn.is_dead() {
                                remove_conn(token, epoll, conns, sink);
                                return;
                            }
                        }
                    }
                    Err(LineError::NotUtf8) => {
                        sink.conn_error();
                        io.conn.close();
                        remove_conn(token, epoll, conns, sink);
                        return;
                    }
                    Err(LineError::TooLong) => {
                        sink.oversize_line();
                        io.conn.reject(
                            format!(
                                "{{\"error\":\"request line exceeds {MAX_LINE_BYTES} bytes; \
                                 connection closed\"}}\n"
                            )
                            .as_bytes(),
                        );
                        remove_conn(token, epoll, conns, sink);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                // Client reset mid-stream: a real I/O failure unless a
                // worker already retired the connection.
                if !io.conn.is_dead() {
                    sink.conn_error();
                }
                remove_conn(token, epoll, conns, sink);
                return;
            }
        }
    }
    // Budget exhausted with bytes possibly left: level-triggered epoll
    // re-fires this socket on the next wait.
}

/// Pushes lines onto the connection and dispatches it if it just
/// became claimed. A failed dispatch (worker pool drained mid-run)
/// closes the connection unanswered and counts `dropped_dispatch`.
fn queue_lines(io: &ConnIo, lines: Vec<String>, sink: &dyn EventSink) {
    if io.conn.push_lines(lines) && !sink.dispatch(Arc::clone(&io.conn)) {
        sink.dropped_dispatch();
        io.conn.close();
    }
}

/// Deregisters and drops the reactor's handle on a connection.
fn remove_conn(token: u64, epoll: &Epoll, conns: &mut HashMap<u64, ConnIo>, sink: &dyn EventSink) {
    if let Some(io) = conns.remove(&token) {
        epoll.del(io.conn.stream.as_raw_fd());
        sink.conn_closed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_buffer_assembles_dribbled_bytes_and_preserves_partials() {
        let mut lb = LineBuffer::default();
        let payload = b"{\"a\":1}\n";
        // One byte per push: no line until the terminator lands.
        for &b in &payload[..payload.len() - 1] {
            assert!(lb.push(&[b]).unwrap().is_empty(), "no line before the terminator");
        }
        assert_eq!(lb.pending(), payload.len() - 1);
        let lines = lb.push(b"\n").unwrap();
        assert_eq!(lines, vec!["{\"a\":1}".to_string()]);
        assert_eq!(lb.pending(), 0);

        // Many lines in one chunk, with a trailing partial.
        let lines = lb.push(b"one\ntwo\nthr").unwrap();
        assert_eq!(lines, vec!["one".to_string(), "two".to_string()]);
        assert_eq!(lb.pending(), 3);
        let lines = lb.push(b"ee\n").unwrap();
        assert_eq!(lines, vec!["three".to_string()]);

        // EOF flush of an unterminated final line.
        assert!(lb.push(b"tail").unwrap().is_empty());
        assert_eq!(lb.take_partial().unwrap(), Some("tail".to_string()));
        assert_eq!(lb.take_partial().unwrap(), None);
    }

    #[test]
    fn line_buffer_rejects_invalid_utf8_only_on_completed_lines() {
        let mut lb = LineBuffer::default();
        // An invalid byte is harmless while the line is still partial…
        assert!(lb.push(&[0xFF]).unwrap().is_empty());
        // …and an error the moment the line completes.
        assert!(lb.push(b"\n").is_err());
        // The buffer recovers for the next line.
        assert_eq!(lb.push(b"ok\n").unwrap(), vec!["ok".to_string()]);
    }

    #[test]
    fn line_buffer_refuses_a_line_over_the_cap_without_buffering_it() {
        let mut lb = LineBuffer::default();
        let max = vec![b'x'; MAX_LINE_BYTES];
        // A line of exactly the cap, dribbled in halves, is still a line.
        assert!(lb.push(&max[..MAX_LINE_BYTES / 2]).unwrap().is_empty());
        assert!(lb.push(&max[MAX_LINE_BYTES / 2..]).unwrap().is_empty());
        assert_eq!(lb.push(b"\n").unwrap().len(), 1);
        // One byte more is refused before it is buffered…
        assert!(lb.push(&max).unwrap().is_empty());
        assert_eq!(lb.push(b"y"), Err(LineError::TooLong));
        assert_eq!(lb.pending(), MAX_LINE_BYTES);
        // …also when the whole oversize line arrives in one chunk.
        let mut over = vec![b'x'; MAX_LINE_BYTES + 1];
        over.push(b'\n');
        assert_eq!(LineBuffer::default().push(&over), Err(LineError::TooLong));
    }

    #[test]
    fn timer_wheel_fires_in_order_and_honours_far_deadlines() {
        let t0 = Instant::now();
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(tick, t0);
        wheel.schedule(1, t0 + Duration::from_millis(25));
        wheel.schedule(2, t0 + Duration::from_millis(5));
        // A deadline more than WHEEL_SLOTS ticks out shares a slot with
        // nearer entries but must not fire with them.
        wheel.schedule(3, t0 + tick * (WHEEL_SLOTS as u32 + 2));
        assert_eq!(wheel.armed(), 3);

        assert_eq!(wheel.expired(t0 + Duration::from_millis(1)), Vec::<u64>::new());
        assert_eq!(wheel.expired(t0 + Duration::from_millis(12)), vec![2]);
        assert_eq!(wheel.expired(t0 + Duration::from_millis(40)), vec![1]);
        assert_eq!(wheel.armed(), 1);
        // Far entry: silent through a full rotation…
        assert_eq!(wheel.expired(t0 + tick * (WHEEL_SLOTS as u32)), Vec::<u64>::new());
        // …and due on its own tick.
        assert_eq!(wheel.expired(t0 + tick * (WHEEL_SLOTS as u32 + 3)), vec![3]);
        assert_eq!(wheel.armed(), 0);
        assert!(wheel.next_wakeup(Instant::now()).is_none(), "empty wheel never wakes the loop");
    }

    #[test]
    fn timer_wheel_rescheduling_models_lazy_cancellation() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), t0);
        wheel.schedule(7, t0 + Duration::from_millis(10));
        // Fires; the caller sees recent activity and reschedules —
        // exactly the reactor's lazy-cancellation protocol.
        assert_eq!(wheel.expired(t0 + Duration::from_millis(21)), vec![7]);
        wheel.schedule(7, t0 + Duration::from_millis(50));
        assert_eq!(wheel.expired(t0 + Duration::from_millis(40)), Vec::<u64>::new());
        assert_eq!(wheel.expired(t0 + Duration::from_millis(61)), vec![7]);
    }

    #[test]
    fn late_schedule_into_a_drained_tick_still_fires() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), t0);
        wheel.schedule(1, t0 + Duration::from_millis(5));
        assert_eq!(wheel.expired(t0 + Duration::from_millis(100)), vec![1]);
        // Deadline in the past relative to the cursor: must fire on the
        // next drain, not be orphaned behind the cursor.
        wheel.schedule(2, t0 + Duration::from_millis(50));
        assert_eq!(wheel.expired(t0 + Duration::from_millis(120)), vec![2]);
    }

    #[test]
    fn timer_wheel_survives_cursor_past_u32_max() {
        let t0 = Instant::now();
        let tick = Duration::from_millis(1);
        let mut wheel = TimerWheel::new(tick, t0);
        // ~58 days of simulated uptime at the 1 ms tick floor: the
        // tick index (5·10⁹) no longer fits in u32, which is exactly
        // where the old `tick * (cursor as u32 + 1)` wakeup math
        // wrapped and computed a due time deep in the past.
        let uptime = Duration::from_secs(5_000_000);
        assert!(uptime.as_millis() > u128::from(u32::MAX), "test must cross the u32 tick edge");
        // Fast-forward the idle wheel's cursor across the edge.
        assert!(wheel.expired(t0 + uptime).is_empty());
        wheel.schedule(42, t0 + uptime + Duration::from_millis(30));
        let wake = wheel.next_wakeup(t0 + uptime).expect("one entry armed");
        assert!(
            wake > Duration::ZERO,
            "wakeup must stay in the future past 2^32 ticks (a zero here busy-spins the reactor)"
        );
        assert!(wake <= tick, "earliest due time is the end of the current tick, got {wake:?}");
        // And the entry still fires on its own tick, not a wrapped one.
        assert_eq!(wheel.expired(t0 + uptime + Duration::from_millis(15)), Vec::<u64>::new());
        assert_eq!(wheel.expired(t0 + uptime + Duration::from_millis(40)), vec![42]);
        assert_eq!(wheel.armed(), 0);
    }

    #[test]
    fn conn_claim_protocol_dispatches_once_and_redispatches_after_drain() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = EvConn::new(stream, TraceCtx::at_accept(), Instant::now());

        assert!(conn.push_lines(vec!["a".into()]), "first line claims");
        assert!(!conn.push_lines(vec!["b".into()]), "claimed: no second dispatch");
        assert_eq!(conn.pop_line(), Some("a".into()));
        assert_eq!(conn.pop_line(), Some("b".into()));
        assert_eq!(conn.pop_line(), None, "drained: claim released");
        assert!(conn.push_lines(vec!["c".into()]), "post-drain line re-dispatches");
        assert_eq!(conn.pop_line(), Some("c".into()));
        assert_eq!(conn.pop_line(), None);

        conn.close();
        assert!(!conn.push_lines(vec!["d".into()]), "dead connections accept no work");
        assert_eq!(conn.pop_line(), None);
    }

    #[test]
    fn yield_claim_keeps_the_claim_while_lines_remain_and_releases_when_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let conn = EvConn::new(stream, TraceCtx::at_accept(), Instant::now());

        assert!(conn.push_lines(vec!["a".into(), "b".into()]), "first lines claim");
        assert_eq!(conn.pop_line(), Some("a".into()));
        assert!(conn.yield_claim(), "queued line: claim travels with the re-dispatch");
        assert!(!conn.push_lines(vec!["c".into()]), "still claimed: no double dispatch");
        assert_eq!(conn.pop_line(), Some("b".into()), "re-dispatched drain resumes in order");
        assert_eq!(conn.pop_line(), Some("c".into()));
        assert!(!conn.yield_claim(), "empty queue: claim released like a drained pop");
        assert!(conn.push_lines(vec!["d".into()]), "released claim: next line re-dispatches");

        conn.close();
        assert!(!conn.yield_claim(), "dead connection: claim released, queue cleared");
        assert_eq!(conn.pop_line(), None);
    }
}
