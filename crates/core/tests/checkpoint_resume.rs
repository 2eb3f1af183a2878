//! Crash/resume exactness: a training run interrupted after any epoch
//! and resumed from its checkpoint must produce a **byte-identical**
//! saved model to an uninterrupted run — including when the kill lands
//! before the route-warm-up boundary (`Variant::Full`) or before the
//! two-step phase-A/phase-B switch (`Variant::TwoStep`).
//!
//! The interruption is simulated in-process with
//! [`CheckpointOptions::stop_after_epoch`], which abandons the run
//! right after the checkpoint write, skipping best-weight restoration
//! and pipeline attachment exactly like a real `SIGKILL` would. The
//! out-of-process variant (a genuinely killed child) lives in
//! `crates/cli/tests/cli_resume.rs`.

use m2g4rtp::{
    CheckpointError, CheckpointOptions, M2G4Rtp, ModelConfig, TrainCheckpoint, TrainConfig,
    Trainer, Variant, CHECKPOINT_FILE,
};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};
use std::path::PathBuf;

fn setup(variant: Variant) -> (Dataset, ModelConfig) {
    let d = DatasetBuilder::new(DatasetConfig::tiny(71)).build();
    let mut cfg = ModelConfig::for_dataset(&d).with_variant(variant);
    cfg.d_loc = 16;
    cfg.d_aoi = 16;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    (d, cfg)
}

fn model_json(m: &M2G4Rtp) -> String {
    serde_json::to_string(&m.to_saved()).expect("serialise model")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtp-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Trains a reference model without checkpointing, then an interrupted
/// + resumed pair, and asserts the two saved models are byte-identical.
fn assert_resume_identical(variant: Variant, tc: &TrainConfig, kill_after: usize, tag: &str) {
    let (d, cfg) = setup(variant);

    let mut reference = M2G4Rtp::new(cfg.clone(), 3);
    let ref_report = Trainer::new(tc.clone()).fit(&mut reference, &d);

    let dir = tmpdir(tag);
    let mut victim = M2G4Rtp::new(cfg.clone(), 3);
    let mut opts = CheckpointOptions::new(&dir);
    opts.stop_after_epoch = Some(kill_after);
    let partial =
        Trainer::new(tc.clone()).fit_with_checkpoints(&mut victim, &d, Some(&opts)).unwrap();
    assert_eq!(partial.epochs_run, kill_after + 1, "simulated kill ran past its epoch");
    assert!(!victim.has_pipeline(), "a killed run must not look finalised");

    // Resume into a fresh model instance, as a new process would.
    let mut resumed = M2G4Rtp::new(cfg, 3);
    let report = Trainer::new(tc.clone())
        .fit_with_checkpoints(&mut resumed, &d, Some(&CheckpointOptions::resume(&dir)))
        .unwrap();

    assert_eq!(report.epochs_run, ref_report.epochs_run, "resumed run trained a different count");
    assert_eq!(
        model_json(&reference),
        model_json(&resumed),
        "{variant:?} killed after epoch {kill_after}: resumed model diverged from uninterrupted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_variant_resume_is_byte_identical_across_warmup_boundary() {
    // epochs=6, route_warmup_frac=0.34 -> warm-up is epochs 0..2: a
    // kill after epoch 1 makes the resumed segment cross warm-up →
    // joint optimisation.
    let tc = TrainConfig { epochs: 6, patience: usize::MAX, ..TrainConfig::quick() };
    assert_resume_identical(Variant::Full, &tc, 1, "full-warmup");
}

#[test]
fn full_variant_resume_is_byte_identical_after_warmup() {
    let tc = TrainConfig { epochs: 6, patience: usize::MAX, ..TrainConfig::quick() };
    assert_resume_identical(Variant::Full, &tc, 3, "full-late");
}

#[test]
fn two_step_resume_is_byte_identical_across_phase_boundary() {
    // epochs=5 -> phase A is epochs 0..3: a kill after epoch 2 makes
    // the resumed segment start exactly at the A→B switch.
    let tc = TrainConfig { epochs: 5, patience: usize::MAX, ..TrainConfig::quick() };
    assert_resume_identical(Variant::TwoStep, &tc, 2, "two-step");
}

#[test]
fn resume_after_early_stop_checkpoint_finalises_identically() {
    // patience=0 forces an early stop; the kill lands right after the
    // checkpoint that recorded it (but before the model file would have
    // been written). Resume must finalise — restore the best weights
    // and return — rather than train further than the uninterrupted
    // run ever did.
    let (d, cfg) = setup(Variant::Full);
    let tc = TrainConfig { epochs: 10, patience: 0, ..TrainConfig::quick() };

    let mut reference = M2G4Rtp::new(cfg.clone(), 3);
    let ref_report = Trainer::new(tc.clone()).fit(&mut reference, &d);
    assert!(ref_report.epochs_run < 10, "test needs an early stop to be meaningful");

    let dir = tmpdir("early-stop");
    let mut victim = M2G4Rtp::new(cfg.clone(), 3);
    let mut opts = CheckpointOptions::new(&dir);
    opts.stop_after_epoch = Some(ref_report.epochs_run - 1);
    Trainer::new(tc.clone()).fit_with_checkpoints(&mut victim, &d, Some(&opts)).unwrap();

    let mut resumed = M2G4Rtp::new(cfg, 3);
    let report = Trainer::new(tc)
        .fit_with_checkpoints(&mut resumed, &d, Some(&CheckpointOptions::resume(&dir)))
        .unwrap();
    assert_eq!(report.epochs_run, ref_report.epochs_run, "resume trained past the early stop");
    assert_eq!(model_json(&reference), model_json(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

/// The trainer encodes each checkpoint straight from its store, best
/// snapshot and optimizer; the owned [`TrainCheckpoint::save`] of the
/// loaded state must write the very same bytes.
#[test]
fn trainer_checkpoint_equals_the_owned_save_of_its_state() {
    let (d, cfg) = setup(Variant::Full);
    let tc = TrainConfig { epochs: 3, patience: usize::MAX, ..TrainConfig::quick() };
    let (dir, resaved) = (tmpdir("borrowed"), tmpdir("owned"));
    let mut model = M2G4Rtp::new(cfg, 3);
    Trainer::new(tc)
        .fit_with_checkpoints(&mut model, &d, Some(&CheckpointOptions::new(&dir)))
        .unwrap();
    let written = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    let cp = TrainCheckpoint::load(&dir).unwrap();
    assert!(cp.adam.t > 0 && !cp.adam.m.is_empty(), "the checkpoint must hold Adam moments");
    cp.save(&resaved).unwrap();
    assert!(written == std::fs::read(resaved.join(CHECKPOINT_FILE)).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&resaved).ok();
}

#[test]
fn resume_rejects_a_different_run() {
    let (d, cfg) = setup(Variant::Full);
    let tc = TrainConfig { epochs: 4, patience: usize::MAX, ..TrainConfig::quick() };
    let dir = tmpdir("mismatch");
    let mut victim = M2G4Rtp::new(cfg.clone(), 3);
    let mut opts = CheckpointOptions::new(&dir);
    opts.stop_after_epoch = Some(1);
    Trainer::new(tc.clone()).fit_with_checkpoints(&mut victim, &d, Some(&opts)).unwrap();

    // different learning rate: the trajectory would silently diverge
    let other_tc = TrainConfig { lr: 1e-4, ..tc.clone() };
    let err = Trainer::new(other_tc)
        .fit_with_checkpoints(
            &mut M2G4Rtp::new(cfg.clone(), 3),
            &d,
            Some(&CheckpointOptions::resume(&dir)),
        )
        .unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert!(err.to_string().contains("lr"), "{err}");

    // different dataset
    let other_d = DatasetBuilder::new(DatasetConfig::tiny(72)).build();
    let err = Trainer::new(tc.clone())
        .fit_with_checkpoints(
            &mut M2G4Rtp::new(cfg.clone(), 3),
            &other_d,
            Some(&CheckpointOptions::resume(&dir)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("dataset fingerprint"), "{err}");

    // different model architecture
    let mut other_cfg = cfg.clone();
    other_cfg.d_loc = 32;
    let err = Trainer::new(tc.clone())
        .fit_with_checkpoints(
            &mut M2G4Rtp::new(other_cfg, 3),
            &d,
            Some(&CheckpointOptions::resume(&dir)),
        )
        .unwrap_err();
    assert!(err.to_string().contains("model config"), "{err}");

    // changing `threads` is explicitly allowed (bit-identical anyway)
    let threaded_tc = TrainConfig { threads: 2, ..tc };
    Trainer::new(threaded_tc)
        .fit_with_checkpoints(&mut M2G4Rtp::new(cfg, 3), &d, Some(&CheckpointOptions::resume(&dir)))
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_a_checkpoint_is_a_clear_error() {
    let (d, cfg) = setup(Variant::Full);
    let tc = TrainConfig { epochs: 2, ..TrainConfig::quick() };
    let dir = tmpdir("empty");
    let err = Trainer::new(tc)
        .fit_with_checkpoints(&mut M2G4Rtp::new(cfg, 3), &d, Some(&CheckpointOptions::resume(&dir)))
        .unwrap_err();
    assert!(err.to_string().contains("nothing to resume from"), "{err}");
}
