//! The load generator: NDJSON connections to the server and the three
//! ways the workloads drive them. It runs in the benchmark process on
//! at most two threads, one per connection.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::inputs::LineOrder;

/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One request/reply connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to the server.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Reads one reply line (without its newline).
    pub fn recv(&mut self) -> io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// Sends one line and waits for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// One request of a timed phase. Times are offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request number within the run (its line is `order.line(seq)`).
    pub seq: usize,
    /// When the schedule wanted the request sent.
    pub due: Duration,
    /// When the generator could have sent it: the later of `due` and
    /// the moment its connection became free.
    pub ready: Duration,
    /// When it was written.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
    /// The reply, or the I/O error that replaced it.
    pub reply: Result<String, String>,
}

impl Record {
    /// Client-side latency, timed from the intended send time, µs.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e6
    }

    /// How late the generator itself sent the request, µs.
    pub fn lateness_us(&self) -> f64 {
        self.sent.saturating_sub(self.ready).as_secs_f64() * 1e6
    }
}

/// The request lines a phase sends and the order it sends them in.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    /// The pool of request lines.
    pub pool: &'a [String],
    /// Which pool line request `seq` sends.
    pub order: LineOrder,
    /// Request number of the phase's first request.
    pub first_seq: usize,
}

impl<'a> Traffic<'a> {
    /// The line request `seq` sends.
    pub fn line(&self, seq: usize) -> &'a str {
        &self.pool[self.order.line(seq, self.pool.len())]
    }
}

/// Open loop: request `k` is due at `schedule[k]` seconds after the
/// phase starts, whether or not earlier replies have arrived. Each
/// connection takes the next due request as soon as it is free, so a
/// stall makes later requests late, and their latency counts it.
pub fn open_loop(conns: &mut [Conn], traffic: Traffic<'_>, schedule: &[f64]) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(schedule.len()));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, records) = (&next, &records);
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut free = Duration::ZERO;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&at) = schedule.get(k) else { break };
                    let due = Duration::from_secs_f64(at);
                    if let Some(wait) = (t0 + due).checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let seq = traffic.first_seq + k;
                    let record = exchange(conn, traffic.line(seq), seq, t0, due, due.max(free));
                    free = record.done;
                    let failed = record.reply.is_err();
                    mine.push(record);
                    if failed {
                        break;
                    }
                }
                records.lock().expect("no record pusher panics").extend(mine);
            });
        }
    });
    let mut records = records.into_inner().expect("no record pusher panics");
    records.sort_by_key(|r| r.seq);
    records
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply arrives, until `seconds` have passed.
pub fn closed_loop(conns: &mut [Conn], traffic: Traffic<'_>, seconds: f64) -> Vec<Record> {
    let next = AtomicUsize::new(traffic.first_seq);
    let records = Mutex::new(Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, records) = (&next, &records);
            s.spawn(move || {
                let mut mine = Vec::new();
                while t0.elapsed() < window {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let now = t0.elapsed();
                    let record = exchange(conn, traffic.line(seq), seq, t0, now, now);
                    let failed = record.reply.is_err();
                    mine.push(record);
                    if failed {
                        break;
                    }
                }
                records.lock().expect("no record pusher panics").extend(mine);
            });
        }
    });
    let mut records = records.into_inner().expect("no record pusher panics");
    records.sort_by_key(|r| r.seq);
    records
}

/// Pipelined closed loop on one connection: `depth` requests stay in
/// flight; each reply releases the next request, until `seconds` have
/// passed. Replies must come back in request order, which the caller
/// checks by matching each reply against its own request's line.
pub fn pipelined(conn: &mut Conn, traffic: Traffic<'_>, depth: usize, seconds: f64) -> Vec<Record> {
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut in_flight: VecDeque<(usize, Duration)> = VecDeque::with_capacity(depth);
    let mut records = Vec::new();
    let mut seq = traffic.first_seq;
    let mut send = |conn: &mut Conn, in_flight: &mut VecDeque<(usize, Duration)>| {
        let sent = t0.elapsed();
        let result = conn.send(traffic.line(seq));
        in_flight.push_back((seq, sent));
        seq += 1;
        result
    };
    let mut broken = (0..depth).any(|_| send(conn, &mut in_flight).is_err());
    while let Some((s, sent)) = in_flight.pop_front() {
        let reply = if broken { Err("connection broken".to_string()) } else { recv(conn) };
        let done = t0.elapsed();
        broken |= reply.is_err();
        records.push(Record { seq: s, due: sent, ready: sent, sent, done, reply });
        if !broken && done < window {
            broken = send(conn, &mut in_flight).is_err();
        }
    }
    records
}

fn recv(conn: &mut Conn) -> Result<String, String> {
    conn.recv().map_err(|e| e.to_string())
}

fn exchange(
    conn: &mut Conn,
    line: &str,
    seq: usize,
    t0: Instant,
    due: Duration,
    ready: Duration,
) -> Record {
    let sent = t0.elapsed();
    let reply = conn.send(line).map_err(|e| e.to_string()).and_then(|()| recv(conn));
    Record { seq, due, ready, sent, done: t0.elapsed(), reply }
}
