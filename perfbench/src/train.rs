//! The `train-ckpt` workload: `rtp train` with per-epoch checkpoints,
//! run as a child process until the measuring time is spent, and the
//! in-process retrain its outputs are checked against.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use m2g4rtp::{CheckpointError, M2G4Rtp, ModelConfig, TrainCheckpoint, TrainConfig, Trainer};
use rtp_sim::Dataset;
use serde::Deserialize;

use crate::proc::{self, Pipe, Program, EXIT_MARK};

/// Epochs of every `rtp train` child. With the preset's 34% route
/// warm-up this is one warm-up epoch followed by three joint ones, so
/// the three epoch intervals a child yields are alike, and early
/// stopping (patience 3) cannot cut a child short.
pub const EPOCHS: usize = 4;

/// What one `rtp train` child showed.
pub struct Child {
    /// Spawn until epoch 0 starts, seconds.
    pub setup_s: f64,
    /// Wall time between consecutive epoch progress lines, seconds.
    pub epoch_intervals: Vec<f64>,
    /// Epoch end to durable checkpoint (`train.checkpoint` span), µs.
    pub checkpoint_us: Vec<f64>,
    /// CPU time between the first and last epoch progress lines, µs.
    pub cpu_us: f64,
    /// Peak resident set, KiB.
    pub vm_hwm_kb: u64,
    /// Epochs the child reported having trained.
    pub epochs_run: usize,
    /// Where it wrote its model and checkpoint.
    pub model_path: PathBuf,
    /// Its checkpoint directory.
    pub checkpoint_dir: PathBuf,
}

/// Runs one `rtp train` child of `exe` in `dir`, numbered `k`.
pub fn run_child(
    exe: &Path,
    dir: &Path,
    dataset_file: &str,
    seed: u64,
    k: usize,
) -> io::Result<Child> {
    let (ckpt, model, spans) =
        (format!("ckpt_{k}"), format!("model_{k}.json"), format!("spans_{k}.jsonl"));
    let (epochs, seed_s) = (EPOCHS.to_string(), seed.to_string());
    let args = [
        "train",
        "--dataset",
        dataset_file,
        "--epochs",
        &epochs,
        "--seed",
        &seed_s,
        "--threads",
        "1",
        "--checkpoint-dir",
        &ckpt,
        "--out",
        &model,
        "--log-json",
        &spans,
    ];
    let program = Program::spawn(exe, &args, dir)?;
    let pid = program.pid();
    let mut fit_called = None;
    let mut epoch_lines = Vec::new();
    let mut epoch_cpu = Vec::new();
    let mut vm_hwm_kb = None;
    let mut epochs_run = None;
    while let Some(line) = program.next_line(Duration::from_secs(120)) {
        let text = line.text.as_str();
        match line.pipe {
            Pipe::Out if text.starts_with("writing checkpoints at") => fit_called = Some(line.at),
            Pipe::Out if text.starts_with("trained ") => {
                epochs_run = text.split_whitespace().nth(1).and_then(|n| n.parse().ok());
            }
            Pipe::Err if text.starts_with("epoch ") => {
                epoch_lines.push(line.at);
                epoch_cpu.push(proc::cpu_us(pid)?);
            }
            Pipe::Err if text.starts_with(EXIT_MARK) => {
                vm_hwm_kb = text.split("vmhwm_kb=").nth(1).and_then(|v| v.trim().parse().ok());
            }
            _ => {}
        }
    }
    let spawned = program.spawned;
    let status = program.finish(Duration::from_secs(30))?;
    let bad =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("train child {k}: {what}"));
    if !status.success() {
        return Err(bad(&format!("exited with {status}")));
    }
    let fit_called = fit_called.ok_or_else(|| bad("no checkpoint line"))?;
    if epoch_lines.len() < 2 {
        return Err(bad("fewer than two epoch lines"));
    }
    let spans = Spans::read(&dir.join(&spans))?;
    let setup_s = (fit_called - spawned).as_secs_f64()
        + (spans.first_epoch_start_us.ok_or_else(|| bad("no epoch span"))?
            - spans.fit_start_us.ok_or_else(|| bad("no fit span"))?) as f64
            / 1e6;
    Ok(Child {
        setup_s,
        epoch_intervals: epoch_lines.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect(),
        checkpoint_us: spans.checkpoint_us,
        cpu_us: epoch_cpu[epoch_cpu.len() - 1] - epoch_cpu[0],
        vm_hwm_kb: vm_hwm_kb.ok_or_else(|| bad("no exit line"))?,
        epochs_run: epochs_run.ok_or_else(|| bad("no summary line"))?,
        model_path: dir.join(model),
        checkpoint_dir: dir.join(ckpt),
    })
}

/// Runs `rtp train` children one after another until `seconds` have
/// passed (at least two, so set-up has more than one sample).
pub fn run_children(
    exe: &Path,
    dir: &Path,
    dataset_file: &str,
    seed: u64,
    seconds: f64,
) -> io::Result<Vec<Child>> {
    let start = Instant::now();
    let mut children = Vec::new();
    while children.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        children.push(run_child(exe, dir, dataset_file, seed, children.len())?);
    }
    Ok(children)
}

/// The spans of one `--log-json` file that the benchmark reads.
struct Spans {
    fit_start_us: Option<u64>,
    first_epoch_start_us: Option<u64>,
    checkpoint_us: Vec<f64>,
}

impl Spans {
    fn read(path: &Path) -> io::Result<Spans> {
        let text = std::fs::read_to_string(path)?;
        let mut spans =
            Spans { fit_start_us: None, first_epoch_start_us: None, checkpoint_us: Vec::new() };
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("span: {e}")))?;
            let num = |k: &str| v.get(k).and_then(|n| u64::from_value(n).ok());
            match v.get("name").and_then(|n| n.as_str()) {
                Some("train.fit") => spans.fit_start_us = num("start_us"),
                Some("train.epoch") if num("arg") == Some(0) => {
                    spans.first_epoch_start_us = num("start_us")
                }
                Some("train.checkpoint") => {
                    spans.checkpoint_us.extend(num("dur_us").map(|d| d as f64))
                }
                _ => {}
            }
        }
        Ok(spans)
    }
}

/// The model an `rtp train` child must produce, trained in-process with
/// the same configuration (checkpointing never changes the weights).
pub fn reference_model_json(dataset: &Dataset, seed: u64) -> String {
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(dataset), seed);
    let config = TrainConfig { epochs: EPOCHS, threads: 1, ..TrainConfig::quick() };
    Trainer::new(config).fit(&mut model, dataset);
    serde_json::to_string(&model.to_saved()).expect("a SavedModel always serialises")
}

/// Checks a child's outputs: every epoch ran, its model file is
/// byte-identical to the reference, and its last checkpoint loads and
/// records every epoch.
pub fn check_child(child: &Child, reference: &str) -> Result<TrainCheckpoint, String> {
    if child.epochs_run != EPOCHS {
        return Err(format!("ran {} epochs, want {EPOCHS}", child.epochs_run));
    }
    let model = std::fs::read_to_string(&child.model_path).map_err(|e| e.to_string())?;
    if model != reference {
        return Err("model file differs from the in-process retrain".into());
    }
    let cp =
        TrainCheckpoint::load(&child.checkpoint_dir).map_err(|e: CheckpointError| e.to_string())?;
    if cp.epochs_done != EPOCHS {
        return Err(format!("checkpoint records {} epochs, want {EPOCHS}", cp.epochs_done));
    }
    Ok(cp)
}
