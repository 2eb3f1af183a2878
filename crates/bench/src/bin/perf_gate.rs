//! Performance-regression gate and history for the bench suite.
//!
//! Subcommands (all paths relative to the workspace `results/` dir):
//!
//! * `append`   — extract headline metrics from each present bench
//!   JSON (`tensor_kernels.json`, `training_throughput.json`,
//!   `serve_throughput.json`) and append one line per bench to
//!   `history.jsonl` (timestamped, with the bench's machine metadata).
//! * `check`    — compare the current bench JSONs against the
//!   committed `perf_baseline.json`; exit non-zero if any metric
//!   regressed by more than the tolerance (default 15%). Metrics whose
//!   names end in `_us` or contain `seconds` are lower-is-better;
//!   everything else is higher-is-better. `--only <bench>` restricts
//!   the check (CI runs `--only tensor_kernels`: the kernel sweep is
//!   cheap and deterministic enough to gate on, while end-to-end
//!   throughput numbers are tracked in history without gating).
//!   `--tolerance <pct>` overrides the threshold.
//! * `baseline` — rewrite `perf_baseline.json` from the current bench
//!   JSONs (run after an intentional perf change, commit the result).
//! * `render`   — render `history.jsonl` into the markdown trend page
//!   `PERF_HISTORY.md`.
//! * `swap`     — gate on the serve bench's hot-swap arm: mid-bench
//!   `{"cmd":"reload"}` hot-swaps must not cost more than the
//!   tolerance (default 15%, CI passes 5) of the no-reload twin's
//!   throughput, compared within one run so scheduler noise between
//!   runs cannot fail the gate.
//! * `ckpt`     — gate on the training bench: its runs at every
//!   thread count must have ended on the same loss bits
//!   (`loss_bit_identical_across_threads`), and the per-epoch
//!   checkpoints' wall time must not exceed the tolerance (default 15%,
//!   CI passes 5) of the rest of the same checkpointed run, again a
//!   within-run ratio.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Number, Value};

const BENCHES: [&str; 3] = ["tensor_kernels", "training_throughput", "serve_throughput"];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn load_json(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn get_num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(num)
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Num(n)) => n.as_u64(),
        _ => None,
    }
}

fn f(x: f64) -> Value {
    Value::Num(Number::F64(x))
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Flattens one bench result into `metric name -> value`. Names are
/// stable across runs (keyed by n / threads / workers), so history
/// lines and the baseline are directly comparable.
fn extract_metrics(bench: &str, v: &Value) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    match bench {
        "tensor_kernels" => {
            for row in v.get("matmul_sweep").and_then(Value::as_array).unwrap_or_default() {
                if let Some(n) = get_u64(row, "n") {
                    for key in ["naive_gflops", "blocked_gflops", "grad_a_gflops", "grad_b_gflops"]
                    {
                        if let Some(x) = get_num(row, key) {
                            m.insert(format!("matmul.n{n}.{key}"), x);
                        }
                    }
                }
            }
        }
        "training_throughput" => {
            for row in v.get("rows").and_then(Value::as_array).unwrap_or_default() {
                if let Some(t) = get_u64(row, "threads") {
                    if let Some(x) = get_num(row, "samples_per_sec") {
                        m.insert(format!("threads{t}.samples_per_sec"), x);
                    }
                }
            }
        }
        "serve_throughput" => {
            for row in v.get("rows").and_then(Value::as_array).unwrap_or_default() {
                let Some(w) = get_u64(row, "workers") else {
                    continue;
                };
                // The soak and swap arms measure the same worker counts
                // as the plain arms, so every arm but `plain` is named in
                // its keys; the plain arm keeps the bare keys the
                // baseline was written with. `.exact` names the one
                // numerics tier, keeping the keys of earlier multi-tier
                // runs.
                let tag = match row.get("arm").and_then(Value::as_str).unwrap_or("plain") {
                    "plain" => format!("w{w}.exact"),
                    arm => format!("w{w}.exact.{arm}"),
                };
                for key in ["requests_per_sec", "p50_us", "p99_us"] {
                    if let Some(x) = get_num(row, key) {
                        m.insert(format!("{tag}.{key}"), x);
                    }
                }
            }
        }
        _ => {}
    }
    m
}

/// Lower-is-better metrics: latencies and wall-clock durations.
fn lower_is_better(metric: &str) -> bool {
    metric.ends_with("_us") || metric.contains("seconds")
}

fn now_unix() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// `(bench, metrics, meta)` for every bench JSON present on disk.
fn current_results(dir: &Path) -> Vec<(String, BTreeMap<String, f64>, Value)> {
    BENCHES
        .iter()
        .filter_map(|&bench| {
            let v = load_json(&dir.join(format!("{bench}.json")))?;
            let metrics = extract_metrics(bench, &v);
            if metrics.is_empty() {
                return None;
            }
            let meta = v.get("bench_meta").cloned().unwrap_or(Value::Null);
            Some((bench.to_string(), metrics, meta))
        })
        .collect()
}

fn metrics_value(metrics: &BTreeMap<String, f64>) -> Value {
    Value::Object(metrics.iter().map(|(k, &x)| (k.clone(), f(x))).collect())
}

fn cmd_append(dir: &Path) -> Result<(), String> {
    let results = current_results(dir);
    if results.is_empty() {
        return Err("no bench result JSONs found to append".into());
    }
    let ts = now_unix();
    let mut lines = String::new();
    for (bench, metrics, meta) in &results {
        let line = obj(vec![
            ("ts", Value::Num(Number::U(ts))),
            ("bench", Value::Str(bench.clone())),
            ("metrics", metrics_value(metrics)),
            ("meta", meta.clone()),
        ]);
        lines.push_str(&serde_json::to_string(&line).map_err(|e| e.to_string())?);
        lines.push('\n');
        println!("append: {bench} ({} metrics)", metrics.len());
    }
    let path = dir.join("history.jsonl");
    let mut all = std::fs::read_to_string(&path).unwrap_or_default();
    all.push_str(&lines);
    rtp_obs::fsio::write_atomic_str(&path, &all).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_baseline(dir: &Path) -> Result<(), String> {
    let results = current_results(dir);
    if results.is_empty() {
        return Err("no bench result JSONs found for a baseline".into());
    }
    let mut root: Vec<(String, Value)> =
        vec![("generated_ts".to_string(), Value::Num(Number::U(now_unix())))];
    for (bench, metrics, meta) in &results {
        root.push((
            bench.clone(),
            obj(vec![("metrics", metrics_value(metrics)), ("meta", meta.clone())]),
        ));
    }
    let path = dir.join("perf_baseline.json");
    let text = serde_json::to_string_pretty(&Value::Object(root)).map_err(|e| e.to_string())?;
    rtp_obs::fsio::write_atomic_str(&path, &(text + "\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_check(dir: &Path, only: Option<&str>, tolerance_pct: f64) -> Result<(), String> {
    let baseline = load_json(&dir.join("perf_baseline.json"))
        .ok_or("missing results/perf_baseline.json — run `perf_gate baseline` and commit it")?;
    let results = current_results(dir);
    let mut checked = 0usize;
    let mut regressions = Vec::new();
    for (bench, metrics, _) in &results {
        if only.is_some_and(|o| o != bench) {
            continue;
        }
        let Some(base) = baseline.get(bench).and_then(|b| b.get("metrics")) else {
            println!("check: {bench}: no baseline entry, skipping");
            continue;
        };
        for (metric, &current) in metrics {
            let Some(expected) = get_num(base, metric) else {
                continue; // new metric: tracked from the next baseline on
            };
            if expected == 0.0 {
                continue;
            }
            checked += 1;
            let change = if lower_is_better(metric) {
                (current - expected) / expected // growth in latency = regression
            } else {
                (expected - current) / expected // drop in throughput = regression
            };
            if change * 100.0 > tolerance_pct {
                regressions.push(format!(
                    "{bench}/{metric}: {expected:.3} -> {current:.3} ({:+.1}% vs tolerance {tolerance_pct}%)",
                    if lower_is_better(metric) { change * 100.0 } else { -change * 100.0 },
                ));
            }
        }
    }
    if checked == 0 {
        return Err(format!(
            "check compared 0 metrics (only={}): refusing to pass an empty gate",
            only.unwrap_or("<all>")
        ));
    }
    if regressions.is_empty() {
        println!("perf gate OK: {checked} metric(s) within {tolerance_pct}% of baseline");
        Ok(())
    } else {
        for r in &regressions {
            eprintln!("REGRESSION {r}");
        }
        Err(format!("{} metric(s) regressed beyond {tolerance_pct}%", regressions.len()))
    }
}

/// The hot-swap gate: reads the swap arm out of the current
/// `serve_throughput.json` and fails if the mid-bench reloads cost
/// more than `tolerance_pct` of the no-reload twin's throughput. The
/// twin is measured back-to-back in the same run (the ratio is the
/// row's `ratio_vs_twin`), so the gate is immune to the
/// cross-run scheduler noise that keeps the serve bench out of the
/// baseline gate.
fn cmd_swap(dir: &Path, tolerance_pct: f64) -> Result<(), String> {
    let v = load_json(&dir.join("serve_throughput.json"))
        .ok_or("missing results/serve_throughput.json — run the serve_throughput bench first")?;
    let row = v
        .get("rows")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .find(|r| get_u64(r, "reloads").unwrap_or(0) > 0)
        .ok_or("serve_throughput.json has no hot-swap arm — rerun the bench")?;
    let reloads = get_u64(row, "reloads").unwrap_or(0);
    let ratio = get_num(row, "ratio_vs_twin").ok_or("hot-swap row lacks its intra-run ratio")?;
    let cost_pct = (1.0 - ratio) * 100.0;
    if cost_pct > tolerance_pct {
        return Err(format!(
            "{reloads} mid-bench hot-swaps cost {cost_pct:.1}% throughput \
             (tolerance {tolerance_pct}%)"
        ));
    }
    println!(
        "swap gate OK: {reloads} mid-bench hot-swaps cost {cost_pct:.1}% throughput \
         (tolerance {tolerance_pct}%)"
    );
    Ok(())
}

/// The training gate, on the current `training_throughput.json`. It
/// fails unless the bench's runs at 1, 2 and all cores ended on the
/// same loss bits: the mini-batch step's sample-ordered reduction,
/// checked in an optimised build at the host's real core count. It
/// also fails if the checkpointed run's checkpoints took more than
/// `tolerance_pct` of the rest of that run's wall clock. Both sides of
/// that ratio come from one run, so host speed cancels out.
fn cmd_ckpt(dir: &Path, tolerance_pct: f64) -> Result<(), String> {
    let v = load_json(&dir.join("training_throughput.json")).ok_or(
        "missing results/training_throughput.json — run the training_throughput bench first",
    )?;
    match v.get("loss_bit_identical_across_threads") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => {
            return Err("training ended on different loss bits at different thread counts".into())
        }
        _ => {
            return Err("training_throughput.json lacks `loss_bit_identical_across_threads` — \
                        rerun the bench"
                .into())
        }
    }
    let (Some(frac), Some(ckpt_s)) =
        (get_num(&v, "checkpoint_overhead_frac"), get_num(&v, "checkpoint_seconds"))
    else {
        return Err("training_throughput.json lacks its within-run checkpoint timing — rerun \
                    the bench"
            .into());
    };
    let cost_pct = frac * 100.0;
    let verdict = format!(
        "per-epoch checkpoints ({ckpt_s:.3}s) cost {cost_pct:.1}% of the rest of the run \
         (tolerance {tolerance_pct}%)"
    );
    if cost_pct > tolerance_pct {
        return Err(verdict);
    }
    println!("checkpoint gate OK: loss bit-identical across thread counts; {verdict}");
    Ok(())
}

/// Headline metrics per bench for the trend page (full metric sets
/// live in the JSONL).
fn headline(bench: &str) -> Vec<&'static str> {
    match bench {
        "tensor_kernels" => vec![
            "matmul.n128.blocked_gflops",
            "matmul.n128.grad_a_gflops",
            "matmul.n128.grad_b_gflops",
        ],
        "training_throughput" => vec!["threads1.samples_per_sec", "threads2.samples_per_sec"],
        "serve_throughput" => vec!["w1.exact.requests_per_sec", "w1.exact.p50_us"],
        _ => vec![],
    }
}

fn cmd_render(dir: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(dir.join("history.jsonl"))
        .map_err(|_| "missing results/history.jsonl — run `perf_gate append` first")?;
    let mut by_bench: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad history line: {e}"))?;
        if let Some(bench) = v.get("bench").and_then(Value::as_str) {
            by_bench.entry(bench.to_string()).or_default().push(v);
        }
    }
    let mut md = String::from(
        "# Performance history\n\nAppended by `cargo run --release -p rtp-bench --bin perf_gate -- append` \
         after each bench run; one row per run (most recent last). Headline metrics only — every \
         recorded metric is in `history.jsonl`, and the CI gate compares against \
         `perf_baseline.json`.\n",
    );
    for (bench, entries) in &by_bench {
        let cols = headline(bench);
        let cols: Vec<&str> = if cols.is_empty() {
            entries
                .last()
                .and_then(|e| e.get("metrics"))
                .and_then(Value::as_object)
                .map(|m| m.iter().take(6).map(|(k, _)| k.as_str()).collect())
                .unwrap_or_default()
        } else {
            cols
        };
        let _ = write!(md, "\n## {bench}\n\n| run (unix ts) | nproc |");
        for c in &cols {
            let _ = write!(md, " {c} |");
        }
        md.push('\n');
        md.push_str("|---|---|");
        md.push_str(&"---|".repeat(cols.len()));
        md.push('\n');
        let tail = entries.len().saturating_sub(20);
        for e in &entries[tail..] {
            let ts = get_u64(e, "ts").unwrap_or(0);
            let nproc = e
                .get("meta")
                .and_then(|m| get_u64(m, "nproc"))
                .map(|n| n.to_string())
                .unwrap_or_else(|| "?".into());
            let _ = write!(md, "| {ts} | {nproc} |");
            for c in &cols {
                match e.get("metrics").and_then(|m| get_num(m, c)) {
                    Some(x) => {
                        let _ = write!(md, " {x:.2} |");
                    }
                    None => md.push_str(" – |"),
                }
            }
            md.push('\n');
        }
    }
    let path = dir.join("PERF_HISTORY.md");
    rtp_obs::fsio::write_atomic_str(&path, &md).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = results_dir();
    let mut only: Option<String> = None;
    let mut tolerance = 15.0f64;
    let mut cmd: Option<&str> = None;
    let mut it = args.iter();
    let usage =
        "usage: perf_gate <append|check|baseline|render|swap|ckpt> [--only <bench>] [--tolerance <pct>]";
    while let Some(a) = it.next() {
        match a.as_str() {
            "append" => cmd = Some("append"),
            "check" => cmd = Some("check"),
            "baseline" => cmd = Some("baseline"),
            "render" => cmd = Some("render"),
            "swap" => cmd = Some("swap"),
            "ckpt" => cmd = Some("ckpt"),
            "--only" => only = it.next().cloned(),
            "--tolerance" => {
                tolerance = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let result = match cmd {
        Some("append") => cmd_append(&dir),
        Some("check") => cmd_check(&dir, only.as_deref(), tolerance),
        Some("baseline") => cmd_baseline(&dir),
        Some("render") => cmd_render(&dir),
        Some("swap") => cmd_swap(&dir, tolerance),
        Some("ckpt") => cmd_ckpt(&dir, tolerance),
        _ => Err(usage.to_string()),
    };
    if let Err(e) = result {
        eprintln!("perf_gate: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ckpt` passes only a file whose runs agreed to the bit across
    /// thread counts, and whose checkpoints stayed within budget.
    #[test]
    fn ckpt_gate_requires_loss_bit_identity_across_threads() {
        let dir = std::env::temp_dir().join(format!("perf-gate-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gate = |identity: &str, frac: f64| {
            let json = format!(
                "{{\"bench\": \"training_throughput\",{identity} \
                 \"checkpoint_overhead_frac\": {frac}, \"checkpoint_seconds\": 0.0135}}"
            );
            std::fs::write(dir.join("training_throughput.json"), json).unwrap();
            cmd_ckpt(&dir, 5.0)
        };
        let identical = " \"loss_bit_identical_across_threads\": true,";
        assert_eq!(gate(identical, 0.0376), Ok(()));
        let differing = gate(" \"loss_bit_identical_across_threads\": false,", 0.0376);
        assert!(differing.unwrap_err().contains("different loss bits"));
        let absent = gate("", 0.0376);
        assert!(absent.unwrap_err().contains("lacks `loss_bit_identical_across_threads`"));
        assert!(gate(identical, 0.06).unwrap_err().contains("cost 6.0%"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_serve_arm_has_its_own_keys() {
        // Shaped like a two-core `serve_throughput.json`: plain arms at
        // 1 and 2 workers, the soak pair at 1, the swap pair at 2.
        let row = |arm: &str, workers: u32, rps: f64, p99: u32, reloads: u32| {
            format!(
                "{{\"arm\": \"{arm}\", \"workers\": {workers}, \"requests_per_sec\": {rps}, \
                 \"p50_us\": 600, \"p99_us\": {p99}, \"reloads\": {reloads}}}"
            )
        };
        let rows = [
            row("plain", 1, 1445.3, 1216, 0),
            row("plain", 2, 2737.9, 1216, 0),
            row("soak_twin", 1, 1432.8, 1280, 0),
            row("soak", 1, 1443.4, 1728, 0),
            row("swap_quiet", 2, 2858.1, 1088, 0),
            row("swap", 2, 2824.0, 1088, 4),
        ];
        let v: Value =
            serde_json::from_str(&format!("{{\"rows\": [{}]}}", rows.join(","))).unwrap();
        let m = extract_metrics("serve_throughput", &v);
        assert_eq!(m.len(), 6 * 3, "no row overwrites another: {m:?}");
        assert_eq!(m["w1.exact.requests_per_sec"], 1445.3);
        assert_eq!(m["w1.exact.p99_us"], 1216.0);
        assert_eq!(m["w2.exact.requests_per_sec"], 2737.9);
        assert_eq!(m["w2.exact.p99_us"], 1216.0);
        assert_eq!(m["w1.exact.soak.p99_us"], 1728.0);
        assert_eq!(m["w1.exact.soak_twin.requests_per_sec"], 1432.8);
        assert_eq!(m["w2.exact.swap_quiet.requests_per_sec"], 2858.1);
        assert_eq!(m["w2.exact.swap.requests_per_sec"], 2824.0);
    }
}
