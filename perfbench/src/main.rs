//! `perfbench`: the end-to-end and per-layer benchmark of `rtp serve`
//! and checkpointed `rtp train`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric of the workload;
//! with `--trace 1` it prints every per-layer metric instead. The last
//! line of standard output is always the JSON result object. See
//! README.md for what each workload and metric is for.
//!
//! `perfbench program <rtp args…>` is the child the benchmark starts:
//! exactly the `rtp` binary (`rtp_cli::args::parse` +
//! `rtp_cli::commands::run`), plus one last stderr line with its own
//! peak resident set.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::process::exit;

use perfbench::inputs::{
    self, lines, typical_per_courier, ServeInputs, Workload, DATASET_FILE, MODEL_FILE,
};
use perfbench::oracle::Oracle;
use perfbench::report::{self, Metric, Tally};
use perfbench::session::{self, Outcome, Plan};
use perfbench::stats::{beyond, median, percentile, sorted};
use perfbench::{client, proc, traced, train};

const USAGE: &str =
    "usage: perfbench --workload <serve-cold|serve-warm|serve-pipelined|train-ckpt> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Work files live under this directory of the current directory, one
/// subdirectory per run, removed when the run ends.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("program") {
        program(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let result = WorkDir::create().and_then(|work| {
        let dir = work.path();
        match (args.trace, args.workload) {
            (false, Workload::TrainCkpt) => train_run(&args, dir),
            (false, _) => serve_run(&args, dir),
            (true, _) => traced_run(&args, dir),
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
        exit(1);
    }
}

/// The `rtp` binary's `main`, followed by the exit line.
fn program(argv: &[String]) -> ! {
    let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    let cli = match rtp_cli::args::parse(&refs) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", rtp_cli::args::USAGE);
            exit(2);
        }
    };
    let mut stdout = io::stdout();
    let code = rtp_cli::commands::run(cli.command, &mut stdout).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    });
    let hwm = proc::vm_hwm_kb("/proc/self/status").unwrap_or(0);
    eprintln!("{} vmhwm_kb={hwm}", proc::EXIT_MARK);
    exit(code)
}

/// A run's private work directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir.canonicalize()?))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the root in place if another run still uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Checks every reply of a serve session against the oracle. Returns
/// the tally and the request numbers of the timed requests that passed.
fn check_session(
    oracle: &Oracle,
    out: &Outcome,
    pool: &[String],
    errors: &mut Vec<String>,
) -> (Tally, HashSet<usize>) {
    let mut tally = Tally::default();
    let mut verdict = |line: &str, reply: &Result<String, String>| {
        let result = reply.clone().and_then(|r| oracle.check(line, &r));
        if let Err(e) = &result {
            errors.push(e.clone());
        }
        tally.count(result.is_ok());
        result.is_ok()
    };
    for w in &out.warmup {
        verdict(&w.line, &w.reply);
    }
    let passed = out
        .timed()
        .filter(|r| verdict(&pool[out.order.line(r.seq, pool.len())], &r.reply))
        .map(|r| r.seq)
        .collect();
    (tally, passed)
}

/// The OK replies of `round`, by whether their request number passed.
fn ok_records<'a>(
    round: &'a session::Round,
    passed: &'a HashSet<usize>,
) -> impl Iterator<Item = &'a client::Record> {
    round.records.iter().filter(move |r| passed.contains(&r.seq))
}

/// Median over `rounds` of a per-round value.
fn per_round(rounds: &[session::Round], f: impl Fn(&session::Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn serve_run(args: &Args, dir: &Path) -> io::Result<()> {
    let inputs = ServeInputs::generate(args.workload, args.seed, inputs::FIXTURE_EPOCHS);
    inputs.write(dir)?;
    let oracle = Oracle::new(
        &inputs.model_json,
        &inputs.dataset_json,
        inputs.warmup.iter().chain(&inputs.pool),
    )
    .map_err(io::Error::other)?;
    let calibration = (proc::calibration_ms(1), proc::calibration_ms(2));
    let exe = std::env::current_exe()?;
    let plan = Plan {
        exe: &exe,
        workload: args.workload,
        dir,
        model_file: MODEL_FILE,
        dataset_file: DATASET_FILE,
        warmup: &inputs.warmup,
        pool: &inputs.pool,
        seed: args.seed,
        seconds: args.seconds,
        starts: session::STARTS,
        stats_before: false,
    };
    let out = session::run(&plan)?;
    let mut errors = Vec::new();
    let (tally, passed) = check_session(&oracle, &out, &inputs.pool, &mut errors);
    let latency: Vec<Vec<f64>> = out
        .latency_rounds()
        .iter()
        .map(|r| sorted(ok_records(r, &passed).map(|r| r.latency_us()).collect()))
        .collect();
    // A round whose every reply failed has no latency to report; the
    // failures already make the run incorrect.
    let latency: Vec<Vec<f64>> = latency.into_iter().filter(|l| !l.is_empty()).collect();
    if latency.is_empty() {
        return Err(io::Error::other(format!("no correct replies: {:?}", errors.first())));
    }
    let of_latency = |q: f64| median(&latency.iter().map(|l| percentile(l, q)).collect::<Vec<_>>());
    let in_window = |r: &session::Round| {
        ok_records(r, &passed).filter(|x| x.done.as_secs_f64() <= r.seconds).count()
    };
    // Replies per second over the span up to the round's last in-window
    // reply, so the rate carries the measured time rather than the
    // nominal round length.
    let rate = |r: &session::Round| {
        let last = ok_records(r, &passed).map(|x| x.done.as_secs_f64()).filter(|&d| d <= r.seconds);
        in_window(r) as f64 / last.fold(f64::MIN_POSITIVE, f64::max)
    };
    let capacity = per_round(&out.closed, rate);
    let cpu_us_per_req =
        per_round(&out.closed, |r| r.cpu_us / ok_records(r, &passed).count().max(1) as f64);
    let latency_n = latency.iter().map(Vec::len).sum();
    let capacity_n: usize = out.closed.iter().map(in_window).sum();
    let closed_ok = out.closed.iter().map(|r| ok_records(r, &passed).count()).sum();
    let all_latency = sorted(latency.concat());
    let lateness = sorted(
        out.latency_rounds()
            .iter()
            .flat_map(|r| r.records.iter().map(|x| x.lateness_us()))
            .collect(),
    );
    let loaded_rss_mb =
        median(&out.loaded_hwm_kb.iter().map(|&kb| kb as f64 / 1024.0).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("setup_s", median(&out.setup_s), "s", out.setup_s.len()),
        Metric::new("latency_p50_us", of_latency(0.50), "us", latency_n),
        Metric::new("capacity_req_s", capacity, "req/s", capacity_n),
        Metric::new("cpu_us_per_req", cpu_us_per_req, "us", closed_ok),
        Metric::new("peak_rss_mb", loaded_rss_mb, "MB", out.loaded_hwm_kb.len()),
        Metric::new(
            "epoch_s",
            inputs.pool.len() as f64 / capacity,
            "s",
            capacity_n / inputs.pool.len(),
        ),
    ];
    let diagnostics = [
        ("rounds", session::ROUNDS as f64),
        ("latency_p99_us", percentile(&all_latency, 0.99)),
        ("latency_p99_samples_beyond", beyond(all_latency.len(), 0.99) as f64),
        ("generator_lateness_p50_us", percentile(&lateness, 0.50)),
        ("generator_lateness_p99_us", percentile(&lateness, 0.99)),
        ("steal_ticks", out.steal_ticks as f64),
        ("calibration_ms", calibration.0),
        ("calibration_2t_ms", calibration.1),
        ("cache_hit_rate", hit_rate(&out)),
        ("peak_rss_after_window_mb", out.serving_hwm_kb as f64 / 1024.0),
    ];
    let recorded = [Metric::new("latency_p90_us", of_latency(0.90), "us", latency_n)];
    report::print(args.workload.name(), &metrics, &recorded, tally, &diagnostics, &errors);
    Ok(())
}

/// The encoder-cache hit rate the server counted over its lifetime.
fn hit_rate(out: &Outcome) -> f64 {
    let c = &out.stats_after.counters;
    let (h, m) = (
        c.get("serve.cache.hits").copied().unwrap_or(0),
        c.get("serve.cache.misses").copied().unwrap_or(0),
    );
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

fn train_run(args: &Args, dir: &Path) -> io::Result<()> {
    let dataset_json = inputs::dataset(args.seed).to_json().expect("a dataset always serialises");
    std::fs::write(dir.join(DATASET_FILE), &dataset_json)?;
    let calibration = (proc::calibration_ms(1), proc::calibration_ms(2));
    let steal0 = proc::steal_ticks();
    let children =
        train::run_children(&std::env::current_exe()?, dir, DATASET_FILE, args.seed, args.seconds)?;
    let steal_ticks = proc::steal_ticks() - steal0;

    // What the program saw: the dataset as parsed from its file.
    let dataset = rtp_sim::Dataset::from_json(&dataset_json).map_err(io::Error::other)?;
    let reference = train::reference_model_json(&dataset, args.seed);
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    for child in &children {
        let ok = match train::check_child(child, &reference) {
            Ok(_) => true,
            Err(e) => {
                errors.push(e);
                false
            }
        };
        for _ in 0..train::EPOCHS {
            tally.count(ok);
        }
    }

    let samples = dataset.train.len() as f64;
    let intervals: Vec<f64> =
        children.iter().flat_map(|c| c.epoch_intervals.iter().copied()).collect();
    let epoch_s = median(&intervals);
    let checkpoint =
        sorted(children.iter().flat_map(|c| c.checkpoint_us.iter().copied()).collect());
    let cpu: f64 = children.iter().map(|c| c.cpu_us).sum();
    let trained = intervals.len() as f64 * samples;
    let setups: Vec<f64> = children.iter().map(|c| c.setup_s).collect();
    let rss: Vec<f64> = children.iter().map(|c| c.vm_hwm_kb as f64 / 1024.0).collect();
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("latency_p50_us", percentile(&checkpoint, 0.50), "us", checkpoint.len()),
        Metric::new("capacity_req_s", samples / epoch_s, "req/s", intervals.len()),
        Metric::new("cpu_us_per_req", cpu / trained, "us", trained as usize),
        Metric::new("peak_rss_mb", median(&rss), "MB", rss.len()),
        Metric::new("epoch_s", epoch_s, "s", intervals.len()),
    ];
    let diagnostics = [
        ("train_children", children.len() as f64),
        ("train_samples_per_epoch", samples),
        ("steal_ticks", steal_ticks as f64),
        ("calibration_ms", calibration.0),
        ("calibration_2t_ms", calibration.1),
    ];
    let recorded =
        [Metric::new("latency_p90_us", percentile(&checkpoint, 0.90), "us", checkpoint.len())];
    report::print(args.workload.name(), &metrics, &recorded, tally, &diagnostics, &errors);
    Ok(())
}

fn traced_run(args: &Args, dir: &Path) -> io::Result<()> {
    let dataset = inputs::dataset(args.seed);
    let dataset_json = dataset.to_json().expect("a dataset always serialises");
    std::fs::write(dir.join(DATASET_FILE), &dataset_json)?;
    let parsed = rtp_sim::Dataset::from_json(&dataset_json).map_err(io::Error::other)?;

    // The program side: `rtp train` (its checkpoint is timed below),
    // then `rtp serve` replaying the workload's lines with tracing on.
    // train-ckpt serves the model it just trained, on its own dataset's
    // held-out queries, shaped like serve-cold.
    let exe = std::env::current_exe()?;
    let child = train::run_child(&exe, dir, DATASET_FILE, args.seed, 0)?;
    let (session_workload, model_json, warmup, pool) = if args.workload == Workload::TrainCkpt {
        let held_out: Vec<_> = dataset.test.iter().chain(&dataset.val).cloned().collect();
        let model_json = std::fs::read_to_string(&child.model_path)?;
        (
            Workload::ServeCold,
            model_json,
            lines(&typical_per_courier(&dataset.train)),
            lines(&held_out),
        )
    } else {
        let i = ServeInputs::generate(args.workload, args.seed, inputs::FIXTURE_EPOCHS);
        (args.workload, i.model_json, i.warmup, i.pool)
    };
    std::fs::write(dir.join(MODEL_FILE), &model_json)?;
    let traced_warmup: Vec<String> = warmup.iter().map(|l| inputs::traced(l)).collect();
    let traced_pool: Vec<String> = pool.iter().map(|l| inputs::traced(l)).collect();
    let oracle = Oracle::new(&model_json, &dataset_json, traced_warmup.iter().chain(&traced_pool))
        .map_err(io::Error::other)?;
    let plan = Plan {
        exe: &exe,
        workload: session_workload,
        dir,
        model_file: MODEL_FILE,
        dataset_file: DATASET_FILE,
        warmup: &traced_warmup,
        pool: &traced_pool,
        seed: args.seed,
        seconds: args.seconds,
        starts: 1,
        stats_before: true,
    };
    let out = session::run(&plan)?;
    let mut errors = Vec::new();
    let (mut tally, passed) = check_session(&oracle, &out, &traced_pool, &mut errors);
    // Every correct traced reply, warm-up included, with its client-side
    // latency.
    let warmup = out.warmup.iter().filter_map(|w| {
        let reply = w.reply.as_ref().ok()?;
        oracle.check(&w.line, reply).ok().map(|()| (w.latency_us, reply))
    });
    let timed = out
        .latency_rounds()
        .iter()
        .flat_map(|r| ok_records(r, &passed))
        .filter_map(|r| Some((r.latency_us(), r.reply.as_ref().ok()?)));
    let echoes: Vec<(f64, traced::Echo)> = warmup
        .chain(timed)
        .filter_map(|(client, reply)| Some((client, traced::echo(reply)?)))
        .collect();
    if echoes.is_empty() {
        return Err(io::Error::other(format!("no traced replies: {:?}", errors.first())));
    }
    let before = out.stats_before.as_ref().expect("asked for");
    let mut metrics = traced::server_layers(&echoes, before, &out.stats_after);

    // The in-process side: every layer's public calls on the same inputs.
    let saved: m2g4rtp::SavedModel = serde_json::from_str(&model_json).map_err(io::Error::other)?;
    let model = m2g4rtp::M2G4Rtp::from_saved(saved);
    let (layers, serve_metrics) = traced::serve_layers(&model, &parsed, &pool, args.seed);
    metrics.extend(serve_metrics);
    metrics.extend(traced::startup_layers(&dataset_json, &model_json));
    let (train_metrics, reference) = traced::train_layers(&parsed, args.seed, train::EPOCHS);
    metrics.extend(train_metrics);
    let cp = train::check_child(&child, &reference)
        .map_err(|e| io::Error::other(format!("train check: {e}")))?;
    tally.count(true);
    metrics.extend(traced::checkpoint_layers(&cp, dir));
    let value = |name: &str| metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let residual =
        traced::residual(value("rtp_cli.handle_us"), value("rtp_cli.cache_hit_rate"), &layers);
    metrics.push(Metric::new("rtp_cli.residual_us", residual, "us", echoes.len()));
    let diagnostics = [
        ("steal_ticks", out.steal_ticks as f64),
        ("calibration_ms", proc::calibration_ms(1)),
        ("calibration_2t_ms", proc::calibration_ms(2)),
    ];
    report::print(args.workload.name(), &metrics, &[], tally, &diagnostics, &errors);
    Ok(())
}
