//! The program under test as a child process, and what the benchmark
//! reads about processes and the host from `/proc`.
//!
//! The child is the perfbench executable started as `perfbench program
//! <rtp args…>`, which runs exactly the `rtp` binary's entry points
//! (`rtp_cli::args::parse` + `rtp_cli::commands::run`). Running it as
//! its own process keeps its CPU time and resident memory apart from
//! the load generator's.

use std::io::{self, BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First word of the line a child prints on stderr just before it
/// exits, carrying its own peak resident set (`VmHWM`).
pub const EXIT_MARK: &str = "perfbench.exit";

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every Linux ABI.
const TICK_US: f64 = 10_000.0;

/// Which pipe a child's line came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipe {
    /// Standard output.
    Out,
    /// Standard error.
    Err,
}

/// One line a child printed, stamped when the benchmark read it.
#[derive(Debug, Clone)]
pub struct Line {
    /// When the reader thread received the line.
    pub at: Instant,
    /// The pipe it came from.
    pub pipe: Pipe,
    /// The text, without the newline.
    pub text: String,
}

/// A running child program. Dropping it kills and reaps the process.
pub struct Program {
    child: Child,
    /// When `spawn` was called.
    pub spawned: Instant,
    lines: Receiver<Line>,
    readers: Vec<JoinHandle<()>>,
}

impl Program {
    /// Starts `rtp <args>` as `<exe> program <args>`, where `exe` is
    /// the perfbench executable, with `cwd` as its working directory.
    pub fn spawn(exe: &Path, args: &[&str], cwd: &Path) -> io::Result<Program> {
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .arg("program")
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let (tx, lines) = channel();
        let out = child.stdout.take().expect("stdout is piped");
        let err = child.stderr.take().expect("stderr is piped");
        let readers = vec![read_lines(out, Pipe::Out, tx.clone()), read_lines(err, Pipe::Err, tx)];
        Ok(Program { child, spawned, lines, readers })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next line the child printed, waiting at most `timeout`.
    /// `None` on timeout or once both pipes are closed.
    pub fn next_line(&self, timeout: Duration) -> Option<Line> {
        self.lines.recv_timeout(timeout).ok()
    }

    /// Waits for a stdout line starting with `prefix` and returns it,
    /// skipping the lines before it.
    pub fn wait_for(&self, prefix: &str, timeout: Duration) -> io::Result<Line> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let Some(line) = self.next_line(left) else {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("program printed no line starting with `{prefix}`"),
                ));
            };
            if line.pipe == Pipe::Out && line.text.starts_with(prefix) {
                return Ok(line);
            }
        }
    }

    /// User plus system CPU time the child has used so far, µs.
    pub fn cpu_us(&self) -> io::Result<f64> {
        cpu_us(self.pid())
    }

    /// The child's peak resident set so far, KiB.
    pub fn vm_hwm_kb(&self) -> io::Result<u64> {
        vm_hwm_kb(&format!("/proc/{}/status", self.pid()))
    }

    /// Waits up to `timeout` for the child to exit. On timeout the
    /// child is killed (by `Drop`) and the wait fails.
    pub fn finish(mut self, timeout: Duration) -> io::Result<ExitStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "program did not exit"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

fn read_lines(
    pipe: impl Read + Send + 'static,
    which: Pipe,
    tx: std::sync::mpsc::Sender<Line>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for text in BufReader::new(pipe).lines() {
            let Ok(text) = text else { return };
            if tx.send(Line { at: Instant::now(), pipe: which, text }).is_err() {
                return;
            }
        }
    })
}

/// `utime + stime` of process `pid` from `/proc/<pid>/stat`, µs.
pub fn cpu_us(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short /proc stat line"))
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after field 3.
    Ok((tick(11)? + tick(12)?) as f64 * TICK_US)
}

/// `VmHWM` (peak resident set, KiB) from a `/proc/.../status` file.
pub fn vm_hwm_kb(status_path: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(status_path)?;
    parse_vm_hwm(&status)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Host-wide steal ticks so far (`/proc/stat`, aggregate `cpu` line,
/// 8th value): time this machine's vCPUs waited for the hypervisor.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Bits in the CPU masks passed to the affinity calls; glibc's
/// `cpu_set_t` has as many.
const MASK_WORDS: usize = 1024 / 64;

/// Linux's `SCHED_IDLE` policy: the thread runs only when nothing
/// else wants the CPU, and any other thread that wakes preempts it.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and as large as the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Confines the calling thread, and every thread and process it starts
/// afterwards, to `cpus`.
fn run_on(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        let word = mask.get_mut(c / 64).ok_or_else(|| io::Error::other("CPU number too large"))?;
        *word |= 1 << (c % 64);
    }
    // SAFETY: `mask` is readable and as large as the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// While it lives, the thread that entered it, and every thread and
/// process that thread starts, runs on one CPU. Dropping it lets the
/// thread run on every CPU it could use before.
///
/// On a shared host the second vCPU comes and goes with the
/// neighbours' load, so a server and client spread over two CPUs would
/// measure the neighbours; one CPU's speed holds much steadier.
pub struct OneCpu {
    before: Vec<usize>,
}

impl OneCpu {
    /// Confines the calling thread to the first CPU it may run on.
    pub fn enter() -> io::Result<OneCpu> {
        let before = allowed_cpus()?;
        let first = *before.first().ok_or_else(|| io::Error::other("no CPU allowed"))?;
        run_on(&[first])?;
        Ok(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = run_on(&self.before);
    }
}

/// A thread of the lowest priority (`SCHED_IDLE`) that spins on the
/// caller's CPUs for as long as the value lives.
///
/// An idle vCPU halts and hands its core back to the hypervisor, and
/// how long it then takes to get the core back when a request arrives
/// depends on the neighbours' load. The spinner runs only when nothing
/// else wants the CPU, so the CPU never halts, and every thread of the
/// program and of the load generator preempts it the moment it wakes.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts the spinner.
    pub fn start() -> io::Result<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, started) = channel();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let priority = 0i32;
            // SAFETY: `priority` is a valid `struct sched_param`, which
            // holds a single int.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                let _ = ready.send(Err(io::Error::last_os_error()));
                return;
            }
            let _ = ready.send(Ok(()));
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let spinner = KeepAwake { stop, thread: Some(thread) };
        started.recv().map_err(|_| io::Error::other("spinner thread died"))??;
        Ok(spinner)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Wall time of a fixed, allocation-free integer loop run on
/// `threads` threads at once, ms. Recorded next to each run's metrics
/// so a slow host shows as a slow calibration rather than as a
/// regression; the two-thread time also shows when the two vCPUs share
/// a physical core.
pub fn calibration_ms(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for _ in 0..20_000_000u32 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                std::hint::black_box(x);
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_status_text() {
        let status = "Name:\trtp\nVmPeak:\t  900 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(51234));
        assert_eq!(parse_vm_hwm("Name:\trtp\n"), None);
    }

    #[test]
    fn one_cpu_confines_the_thread_and_its_children_then_restores_it() {
        let before = allowed_cpus().expect("own affinity");
        let guard = OneCpu::enter().expect("confined");
        assert_eq!(allowed_cpus().expect("own affinity"), before[..1]);
        let child = std::thread::spawn(|| allowed_cpus().expect("child affinity"));
        assert_eq!(child.join().expect("child runs"), before[..1]);
        drop(guard);
        assert_eq!(allowed_cpus().expect("own affinity"), before);
    }

    #[test]
    fn reads_own_cpu_time_and_peak_rss() {
        let me = std::process::id();
        assert!(cpu_us(me).expect("own stat") >= 0.0);
        assert!(vm_hwm_kb("/proc/self/status").expect("own status") > 0);
    }
}
