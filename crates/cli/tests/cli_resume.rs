//! Kill-and-resume integration test against the real `rtp` binary:
//! train with `--checkpoint-dir`, SIGKILL the child once it has
//! checkpointed a (seeded-random) number of epochs, `--resume`, and
//! assert the final model file is **byte-identical** to an
//! uninterrupted reference run. Covers `--variant full` (kill inside
//! the route warm-up) and `--variant two-step` (kill inside phase A),
//! plus the missing, garbage and bit-flipped checkpoint failure modes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use m2g4rtp::{TrainCheckpoint, CHECKPOINT_FILE};

const EPOCHS: &str = "3";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtp"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtp-cli-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `rtp train` argument list shared by every run of one scenario.
fn train_args(ds: &str, variant: &str, threads: &str, out: &Path) -> Vec<String> {
    [
        "train",
        "--dataset",
        ds,
        "--epochs",
        EPOCHS,
        "--variant",
        variant,
        "--seed",
        "5",
        "--threads",
        threads,
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([out.to_str().unwrap().to_string()])
    .collect()
}

fn run_ok(args: &[String]) {
    let out = bin().args(args).output().expect("spawn rtp");
    assert!(out.status.success(), "rtp {args:?} failed:\n{}", String::from_utf8_lossy(&out.stderr));
}

/// Polls the checkpoint directory until its checkpoint records at
/// least `min_epochs`. Atomic checkpoint writes guarantee every read
/// sees a complete file, never a partial one.
fn wait_for_epochs(ckpt: &Path, min_epochs: usize, child: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if TrainCheckpoint::load(ckpt).is_ok_and(|cp| cp.epochs_done >= min_epochs) {
            return;
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("training exited before it could be killed: {status:?}");
        }
        assert!(Instant::now() < deadline, "timed out waiting for checkpoint at {ckpt:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn generate_dataset(dir: &Path) -> String {
    let ds = dir.join("d.json").to_str().unwrap().to_string();
    run_ok(
        &["generate", "--scale", "tiny", "--seed", "3", "--out", &ds]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );
    ds
}

/// A kill epoch that varies between runs (so over time the suite
/// exercises every kill point) while staying in-range for 3 epochs.
fn seeded_kill_epoch() -> usize {
    1 + (std::process::id() as usize) % 2
}

fn kill_and_resume_is_byte_identical(variant: &str) {
    let dir = tmpdir(variant);
    let ds = generate_dataset(&dir);

    // Uninterrupted reference, no checkpointing involved at all.
    let reference = dir.join("reference.json");
    run_ok(&train_args(&ds, variant, "1", &reference));

    // Victim: checkpointing on; SIGKILL once >= kill_at epochs are
    // durably checkpointed (i.e. mid-flight through the next epoch).
    let ck = dir.join("ck");
    let victim_out = dir.join("victim.json");
    let mut args = train_args(&ds, variant, "1", &victim_out);
    args.extend(["--checkpoint-dir".to_string(), ck.to_str().unwrap().to_string()]);
    let mut child =
        bin().args(&args).stdout(Stdio::null()).stderr(Stdio::null()).spawn().expect("spawn rtp");
    wait_for_epochs(&ck, seeded_kill_epoch(), &mut child);
    child.kill().expect("kill child");
    child.wait().expect("reap child");
    assert!(!victim_out.exists(), "killed run must not have written a model");

    // Resume (with a different thread count — explicitly allowed) and
    // compare byte-for-byte against the reference.
    let resumed = dir.join("resumed.json");
    let mut args = train_args(&ds, variant, "0", &resumed);
    args.extend([
        "--checkpoint-dir".to_string(),
        ck.to_str().unwrap().to_string(),
        "--resume".to_string(),
    ]);
    run_ok(&args);

    let want = std::fs::read(&reference).unwrap();
    let got = std::fs::read(&resumed).unwrap();
    assert!(!want.is_empty());
    assert_eq!(
        want, got,
        "--variant {variant}: resumed model differs from uninterrupted reference"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_variant_kill_and_resume_is_byte_identical() {
    kill_and_resume_is_byte_identical("full");
}

#[test]
fn two_step_kill_and_resume_is_byte_identical() {
    kill_and_resume_is_byte_identical("two-step");
}

#[test]
fn corrupt_or_missing_checkpoints_fail_loudly() {
    let dir = tmpdir("corrupt");
    let ds = generate_dataset(&dir);
    let try_resume = |ck: &Path| -> String {
        let mut args = train_args(&ds, "full", "1", &dir.join("m.json"));
        args.extend([
            "--checkpoint-dir".to_string(),
            ck.to_str().unwrap().to_string(),
            "--resume".to_string(),
        ]);
        let out = bin().args(&args).output().expect("spawn rtp");
        assert_eq!(out.status.code(), Some(1), "resume must fail, not retrain from scratch");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };

    // missing checkpoint
    let empty = dir.join("empty-ck");
    std::fs::create_dir_all(&empty).unwrap();
    let err = try_resume(&empty);
    assert!(err.contains("nothing to resume from"), "{err}");

    // garbage contents
    let garbage = dir.join("garbage-ck");
    std::fs::create_dir_all(&garbage).unwrap();
    std::fs::write(garbage.join(CHECKPOINT_FILE), "{\"version\": 1, \"trunca").unwrap();
    let err = try_resume(&garbage);
    assert!(err.contains("not a valid checkpoint"), "{err}");

    // one flipped byte in a real checkpoint
    let flipped = dir.join("flipped-ck");
    let mut args = train_args(&ds, "full", "1", &dir.join("m.json"));
    args.extend(["--checkpoint-dir".to_string(), flipped.to_str().unwrap().to_string()]);
    run_ok(&args);
    let file = flipped.join(CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();
    let err = try_resume(&flipped);
    assert!(err.contains("corrupt checkpoint"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
