//! Data-parallel training throughput: samples/sec of the M²G4RTP
//! mini-batch loop at 1, 2 and N worker threads (N = all cores).
//!
//! Measures [`TrainReport::train_loop_seconds`] — the forward/backward
//! shard loop plus the ordered gradient reduction and optimizer step —
//! so dataset preparation and validation passes do not dilute the
//! scaling number. Also measures the overhead of per-epoch durable
//! checkpointing inside one checkpointed run: the checkpoint blocks'
//! wall time ([`TrainReport::checkpoint_seconds`]) over the rest of the
//! run (target: < 5% at quick scale, gated by `perf_gate ckpt`). Writes
//! `results/training_throughput.json`.

use m2g4rtp::{CheckpointOptions, M2G4Rtp, ModelConfig, TrainConfig, TrainReport, Trainer};
use rtp_bench::bench_dataset;
use rtp_tensor::parallel::resolve_threads;

const EPOCHS: usize = 2;

struct Row {
    threads: usize,
    samples_per_sec: f64,
    loop_seconds: f64,
    final_loss_bits: u32,
}

fn train(threads: usize, ckpt: Option<&CheckpointOptions>) -> TrainReport {
    let dataset = bench_dataset();
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&dataset), 7);
    let cfg = TrainConfig { epochs: EPOCHS, patience: usize::MAX, threads, ..TrainConfig::quick() };
    Trainer::new(cfg).fit_with_checkpoints(&mut model, &dataset, ckpt).expect("training failed")
}

fn measure(threads: usize) -> Row {
    let dataset = bench_dataset();
    let report = train(threads, None);
    let samples = (report.epochs_run * dataset.train.len()) as f64;
    Row {
        threads,
        samples_per_sec: samples / report.train_loop_seconds.max(1e-9),
        loop_seconds: report.train_loop_seconds,
        final_loss_bits: report
            .history
            .last()
            .expect("ran at least one epoch")
            .train_loss
            .to_bits(),
    }
}

/// Per-epoch checkpoint overhead at a fixed thread count, as a
/// fraction of the rest of the same run's wall clock: both sides come
/// from one run, so host speed cancels out of the ratio. Returns
/// `(fraction, checkpoint seconds, run seconds)`.
fn measure_checkpoint_overhead() -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("rtp-bench-ckpt-{}", std::process::id()));
    let report = train(1, Some(&CheckpointOptions::new(&dir)));
    std::fs::remove_dir_all(&dir).ok();
    let (ckpt_s, run_s) = (report.checkpoint_seconds, report.train_seconds);
    (ckpt_s / (run_s - ckpt_s).max(1e-9), ckpt_s, run_s)
}

fn main() {
    let cores = resolve_threads(0);
    let mut settings = vec![1usize, 2, cores];
    settings.sort_unstable();
    settings.dedup();

    let rows: Vec<Row> = settings.iter().map(|&t| measure(t)).collect();
    let base = rows[0].samples_per_sec;
    for r in &rows {
        println!(
            "threads {:>2}: {:>8.2} samples/sec  ({:.2}x vs 1 thread, loop {:.2}s)",
            r.threads,
            r.samples_per_sec,
            r.samples_per_sec / base,
            r.loop_seconds
        );
    }
    let identical = rows.iter().all(|r| r.final_loss_bits == rows[0].final_loss_bits);
    println!("final-epoch loss bit-identical across thread counts: {identical}");

    let (overhead_frac, ckpt_s, run_s) = measure_checkpoint_overhead();
    println!(
        "checkpointing overhead: {:.1}% of the rest of the run ({ckpt_s:.3}s in checkpoints of a {run_s:.2}s checkpointed run, {EPOCHS} epochs)",
        overhead_frac * 100.0
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"samples_per_sec\": {:.3}, \"loop_seconds\": {:.4}, \"speedup_vs_1\": {:.3}}}",
                r.threads,
                r.samples_per_sec,
                r.loop_seconds,
                r.samples_per_sec / base
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"training_throughput\",\n  \"bench_meta\": {},\n  \"epochs\": {EPOCHS},\n  \"cores_available\": {cores},\n  \"loss_bit_identical_across_threads\": {identical},\n  \"checkpoint_overhead_frac\": {overhead_frac:.4},\n  \"checkpoint_seconds\": {ckpt_s:.4},\n  \"train_seconds_checkpointed\": {run_s:.4},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rtp_bench::bench_meta_json(),
        entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("training_throughput.json");
    rtp_obs::fsio::write_atomic_str(&path, &json).expect("write results JSON");
    println!("wrote {}", path.display());
}
