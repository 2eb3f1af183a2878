//! Durable, versioned training checkpoints with an exactness
//! guarantee: a run killed at any epoch and resumed from its latest
//! checkpoint produces **byte-identical final weights** to an
//! uninterrupted run.
//!
//! Exact resume needs more than the weights. The training trajectory
//! at epoch `e+1` is a pure function of
//!
//! 1. the weights after epoch `e`,
//! 2. Adam's first/second moments and step count (bias correction
//!    depends on `t`),
//! 3. the shuffle RNG *state* (each epoch permutes the previous
//!    epoch's order, so the state after `e` shuffles is history-
//!    dependent) together with the current `indices` permutation,
//! 4. the early-stopping bookkeeping (best snapshot, best score,
//!    patience counter) and the absolute epoch index, which selects
//!    the warm-up / two-step phase.
//!
//! [`TrainCheckpoint`] captures all of it, and the deterministic
//! data-parallel trainer (bit-identical for every thread count, PR 1)
//! makes the replay exact rather than merely approximate. Scores that
//! drive control flow (`best_score`) are stored as `f64` *bit
//! patterns* so resume decisions can never be perturbed by a lossy
//! float round-trip — and because `best_score` starts at `-inf`,
//! which JSON cannot represent at all.
//!
//! The file is one binary container, `checkpoint.bin`:
//!
//! | bytes | content |
//! |---|---|
//! | 8 | magic bytes `RTPCKPT\0` |
//! | 8 | header length `H`, u64 little-endian |
//! | `H` | JSON header: the tensor shapes, then every other field |
//! | 4 per float | weights, best snapshot, Adam `m`, Adam `v`, raw f32 LE |
//! | 8 | FNV-1a checksum of everything before it, u64 LE |
//!
//! Raw floats keep every bit (`-0.0`, subnormals, infinities, NaN
//! payloads), and writing them costs a copy instead of a decimal
//! rendering per float. [`TrainCheckpoint::load`] checks the magic
//! bytes, the length and the checksum before it parses anything, and
//! the header's shapes against the bytes present before it allocates,
//! so a truncated, bit-flipped or hostile file is
//! [`CheckpointError::Corrupt`], never a panic or a misread.
//!
//! Files are written via [`rtp_obs::fsio::write_atomic`] (write temp →
//! fsync → rename), so a kill at any instant leaves either the
//! previous complete checkpoint or the new complete one on disk,
//! never a truncated hybrid.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use rtp_sim::Dataset;
use rtp_tensor::optim::AdamState;
use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;
use crate::trainer::{EpochStats, TrainConfig};

/// Format version of [`TrainCheckpoint`]. Bumped on any change to the
/// captured state or its file layout; resume refuses other versions
/// rather than guessing.
pub const CHECKPOINT_VERSION: u32 = 2;

/// File name of the latest checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// First bytes of every checkpoint file.
const MAGIC: &[u8; 8] = b"RTPCKPT\0";

/// Bytes of the container around the header and the floats: magic,
/// header length and checksum.
const FRAME: usize = MAGIC.len() + 8 + 8;

/// FNV-1a offset basis and prime, shared by the checkpoint checksum and
/// [`dataset_fingerprint`].
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Where (and whether) [`crate::Trainer`] persists per-epoch state.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding `checkpoint.bin` (created if missing).
    pub dir: PathBuf,
    /// Restore the latest checkpoint in `dir` and continue from it
    /// instead of training from scratch. Fails with a clear error if
    /// no (or a corrupt/mismatched) checkpoint is present.
    pub resume: bool,
    /// Test/bench hook: return right after writing the checkpoint of
    /// this 0-based epoch, *without* best-weight restoration — an
    /// in-process simulated crash for resume-exactness tests and the
    /// checkpoint-overhead benchmark.
    pub stop_after_epoch: Option<usize>,
}

impl CheckpointOptions {
    /// Checkpoint every epoch into `dir`, starting fresh.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), resume: false, stop_after_epoch: None }
    }

    /// Checkpoint into `dir`, resuming from its latest checkpoint.
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), resume: true, stop_after_epoch: None }
    }

    /// Path of the checkpoint file inside [`CheckpointOptions::dir`].
    pub fn file(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }
}

/// Why a checkpoint could not be written, read or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure writing or reading the checkpoint.
    Io(io::Error),
    /// The checkpoint file is missing, truncated or unparseable.
    Corrupt(String),
    /// The checkpoint is valid but belongs to a different run
    /// (config / model / dataset mismatch, or wrong version).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The four tensor sets of a checkpoint in file order — weights, best
/// snapshot, Adam `m`, Adam `v` — borrowed from wherever they live.
pub(crate) type TensorSets<'a> = [Vec<&'a [f32]>; 4];

/// Borrows every tensor of `set`, as one entry of [`TensorSets`].
pub(crate) fn borrow_set(set: &[Vec<f32>]) -> Vec<&[f32]> {
    set.iter().map(Vec::as_slice).collect()
}

/// The complete mid-run training state, serialised once per epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The training configuration of the producing run. Resume
    /// requires trajectory-relevant fields to match (`verbose` and
    /// `threads` are exempt: results are bit-identical for every
    /// thread count, so they may change across the kill boundary).
    pub train_config: TrainConfig,
    /// The model architecture being trained.
    pub model_config: ModelConfig,
    /// Fingerprint of the dataset (config + split sizes), guarding
    /// against resuming onto different data.
    pub dataset_fingerprint: u64,
    /// Epochs fully completed; resume continues at this 0-based index.
    pub epochs_done: usize,
    /// Whether the run already hit its early-stopping patience at
    /// `epochs_done` — resume then finalises instead of training on.
    pub stopped_early: bool,
    /// xoshiro256++ state of the shuffle RNG *after* the completed
    /// epochs' shuffles.
    pub rng_state: [u64; 4],
    /// The sample-index permutation as of the last shuffle (each epoch
    /// shuffles the previous epoch's order in place).
    pub indices: Vec<usize>,
    /// Full Adam state: moments and step count.
    pub adam: AdamState,
    /// Current weights, per parameter in registration order.
    pub weights: Vec<Vec<f32>>,
    /// The best-validation-score weights seen so far.
    pub best_snapshot: Vec<Vec<f32>>,
    /// Bit pattern of the best validation score `f64` (exact, and
    /// representable even for the initial `-inf`).
    pub best_score_bits: u64,
    /// Bit pattern of the best validation KRC.
    pub best_krc_bits: u64,
    /// Bit pattern of the best validation MAE.
    pub best_mae_bits: u64,
    /// Epochs since the best score improved (patience counter).
    pub since_best: usize,
    /// Per-epoch stats of the completed epochs.
    pub history: Vec<EpochStats>,
    /// Wall-clock seconds spent training so far (cumulative across
    /// resumes; reporting only).
    pub train_seconds: f64,
    /// Seconds inside the mini-batch loops so far (reporting only).
    pub train_loop_seconds: f64,
}

impl TrainCheckpoint {
    /// Atomically writes this checkpoint as `dir/checkpoint.bin`,
    /// creating `dir` if needed. Returns the file size in bytes.
    pub fn save(&self, dir: &Path) -> Result<usize, CheckpointError> {
        Self::save_parts(dir, &self.head(), self.tensor_sets().map(|set| borrow_set(set)))
    }

    /// Atomically writes the checkpoint made of `head`, which carries
    /// every field but the tensor sets and leaves those empty, and of
    /// the borrowed `sets`, as `dir/checkpoint.bin`; the bytes equal
    /// [`TrainCheckpoint::save`]'s for the same state. The trainer
    /// writes each epoch's checkpoint this way, straight from its
    /// store, best snapshot and optimizer, without copying them.
    /// Returns the file size in bytes.
    pub(crate) fn save_parts(
        dir: &Path,
        head: &TrainCheckpoint,
        sets: TensorSets<'_>,
    ) -> Result<usize, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let bytes = encode(head, &sets);
        rtp_obs::fsio::write_atomic(&dir.join(CHECKPOINT_FILE), &bytes)?;
        Ok(bytes.len())
    }

    /// Loads and structurally validates `dir/checkpoint.bin`.
    ///
    /// A missing file, a damaged container, a wrong version or
    /// internally inconsistent state all produce a descriptive error —
    /// resume must fail loudly rather than train from garbage.
    pub fn load(dir: &Path) -> Result<Self, CheckpointError> {
        let path = dir.join(CHECKPOINT_FILE);
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                CheckpointError::Corrupt(format!(
                    "no checkpoint found at {} (nothing to resume from)",
                    path.display()
                ))
            } else {
                CheckpointError::Io(e)
            }
        })?;
        let cp = Self::decode(&bytes).map_err(|m| {
            CheckpointError::Corrupt(format!(
                "{}: not a valid checkpoint (truncated or hand-edited?): {m}",
                path.display()
            ))
        })?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "{}: checkpoint version {} but this build reads version {}",
                path.display(),
                cp.version,
                CHECKPOINT_VERSION
            )));
        }
        cp.validate_internal()
            .map_err(|m| CheckpointError::Corrupt(format!("{}: {m}", path.display())))?;
        Ok(cp)
    }

    /// The four tensor sets in file order.
    fn tensor_sets(&self) -> [&Vec<Vec<f32>>; 4] {
        [&self.weights, &self.best_snapshot, &self.adam.m, &self.adam.v]
    }

    /// Every field of this checkpoint but the tensor sets, which stay
    /// empty: what the container's JSON header holds.
    fn head(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            train_config: self.train_config.clone(),
            model_config: self.model_config.clone(),
            indices: self.indices.clone(),
            adam: AdamState { m: Vec::new(), v: Vec::new(), ..self.adam },
            weights: Vec::new(),
            best_snapshot: Vec::new(),
            history: self.history.clone(),
            ..*self
        }
    }

    /// Parses container bytes, checking the frame and checksum before
    /// the header, and the header's shapes against the bytes present
    /// before allocating any tensor.
    fn decode(bytes: &[u8]) -> Result<Self, String> {
        if !bytes.starts_with(MAGIC) {
            return Err("no checkpoint magic bytes".into());
        }
        if bytes.len() < FRAME {
            return Err(format!("{} bytes end inside the container frame", bytes.len()));
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
            return Err("checksum mismatch".into());
        }
        let (len, rest) = body[MAGIC.len()..].split_at(8);
        let len = u64::from_le_bytes(len.try_into().expect("8 bytes"));
        let header_len = usize::try_from(len)
            .ok()
            .filter(|&n| n <= rest.len())
            .ok_or_else(|| format!("header length {len} exceeds the file"))?;
        let (header, payload) = rest.split_at(header_len);
        let header = std::str::from_utf8(header).map_err(|e| format!("header: {e}"))?;
        let (shapes, mut cp): ([Vec<usize>; 4], TrainCheckpoint) =
            serde_json::from_str(header).map_err(|e| format!("header: {e}"))?;
        let floats = shapes.iter().flatten().try_fold(0usize, |total, &n| total.checked_add(n));
        if floats.and_then(|n| n.checked_mul(4)) != Some(payload.len()) {
            return Err(format!(
                "header shapes do not match the {} bytes of tensor data",
                payload.len()
            ));
        }
        let mut unread = payload;
        let [weights, best, m, v] = shapes.map(|lens| {
            lens.iter()
                .map(|&n| {
                    let (tensor, tail) = unread.split_at(4 * n);
                    unread = tail;
                    tensor
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                        .collect()
                })
                .collect::<Vec<Vec<f32>>>()
        });
        (cp.weights, cp.best_snapshot, cp.adam.m, cp.adam.v) = (weights, best, m, v);
        Ok(cp)
    }

    /// Internal-consistency checks independent of any model/dataset.
    fn validate_internal(&self) -> Result<(), String> {
        if self.rng_state == [0, 0, 0, 0] {
            return Err("all-zero RNG state (unreachable from any seed)".into());
        }
        if self.weights.len() != self.best_snapshot.len() {
            return Err(format!(
                "weights hold {} tensors but best snapshot {}",
                self.weights.len(),
                self.best_snapshot.len()
            ));
        }
        for (k, (w, b)) in self.weights.iter().zip(&self.best_snapshot).enumerate() {
            if w.len() != b.len() {
                return Err(format!(
                    "tensor {k}: weights len {} vs best-snapshot len {}",
                    w.len(),
                    b.len()
                ));
            }
        }
        let (m, v) = (&self.adam.m, &self.adam.v);
        if m.len() != v.len() || m.iter().zip(v).any(|(m, v)| m.len() != v.len()) {
            return Err("Adam moment buffers are internally inconsistent".into());
        }
        if self.epochs_done == 0 {
            return Err("checkpoint claims zero completed epochs".into());
        }
        if self.epochs_done > self.train_config.epochs {
            return Err(format!(
                "claims {} completed epochs but config allows {}",
                self.epochs_done, self.train_config.epochs
            ));
        }
        if self.history.len() != self.epochs_done {
            return Err(format!(
                "history holds {} epochs but epochs_done is {}",
                self.history.len(),
                self.epochs_done
            ));
        }
        // indices must be a permutation of 0..n
        let n = self.indices.len();
        let mut seen = vec![false; n];
        for &i in &self.indices {
            if i >= n || seen[i] {
                return Err("shuffle indices are not a permutation".into());
            }
            seen[i] = true;
        }
        Ok(())
    }

    /// Validates this checkpoint against the run about to resume it.
    pub(crate) fn validate_against(
        &self,
        config: &TrainConfig,
        model_config: &ModelConfig,
        store: &rtp_tensor::ParamStore,
        dataset: &Dataset,
    ) -> Result<(), CheckpointError> {
        let want = trajectory_fields(config);
        let have = trajectory_fields(&self.train_config);
        for ((name, w), (_, h)) in want.iter().zip(&have) {
            if w != h {
                return Err(CheckpointError::Mismatch(format!(
                    "train config field `{name}` differs: checkpoint has {h}, this run has {w}"
                )));
            }
        }
        let want_model = serde_json::to_string(model_config).unwrap_or_default();
        let have_model = serde_json::to_string(&self.model_config).unwrap_or_default();
        if want_model != have_model {
            return Err(CheckpointError::Mismatch(
                "model config differs from the checkpointed run (variant / dims / vocab)".into(),
            ));
        }
        let fp = dataset_fingerprint(dataset);
        if fp != self.dataset_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "dataset fingerprint {:#018x} differs from the checkpointed run's {:#018x}",
                fp, self.dataset_fingerprint
            )));
        }
        if self.weights.len() != store.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint holds {} weight tensors but the model has {}",
                self.weights.len(),
                store.len()
            )));
        }
        for id in store.iter_ids() {
            if self.weights[id.index()].len() != store.data(id).len() {
                return Err(CheckpointError::Mismatch(format!(
                    "weight tensor `{}` has {} scalars in the checkpoint but {} in the model",
                    store.name(id),
                    self.weights[id.index()].len(),
                    store.data(id).len()
                )));
            }
        }
        if self.indices.len() != dataset.train.len() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint shuffled {} train samples but the dataset has {}",
                self.indices.len(),
                dataset.train.len()
            )));
        }
        Ok(())
    }
}

/// The `TrainConfig` fields that shape the training trajectory (all of
/// them except `verbose` and `threads`), rendered for comparison.
fn trajectory_fields(c: &TrainConfig) -> Vec<(&'static str, String)> {
    vec![
        ("epochs", c.epochs.to_string()),
        ("lr", c.lr.to_bits().to_string()),
        ("batch_size", c.batch_size.to_string()),
        ("grad_clip", c.grad_clip.to_bits().to_string()),
        ("patience", c.patience.to_string()),
        ("route_warmup_frac", c.route_warmup_frac.to_bits().to_string()),
        ("seed", c.seed.to_string()),
    ]
}

/// The container bytes of a checkpoint (see the module docs): `head`,
/// whose own tensor sets are empty, as the JSON header, then `sets` as
/// raw floats.
fn encode(head: &TrainCheckpoint, sets: &TensorSets<'_>) -> Vec<u8> {
    debug_assert!(head.tensor_sets().iter().all(|set| set.is_empty()), "tensors in the header");
    let shapes = sets.each_ref().map(|set| set.iter().map(|t| t.len()).collect::<Vec<_>>());
    let header =
        serde_json::to_string(&(&shapes, head)).expect("a checkpoint header always serialises");
    let floats: usize = shapes.iter().flatten().sum();
    let mut buf = Vec::with_capacity(FRAME + header.len() + 4 * floats);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(header.len() as u64).to_le_bytes());
    buf.extend_from_slice(header.as_bytes());
    // Fill a zeroed block tensor by tensor: a fixed-size loop the
    // compiler vectorises, unlike one growing push per float.
    let mut at = buf.len();
    buf.resize(at + 4 * floats, 0);
    for tensor in sets.iter().flatten() {
        let end = at + 4 * tensor.len();
        for (b, x) in buf[at..end].chunks_exact_mut(4).zip(tensor.iter()) {
            b.copy_from_slice(&x.to_le_bytes());
        }
        at = end;
    }
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// A stable fingerprint of the training data: FNV-1a over the dataset
/// config JSON, the split sizes and the city/fleet cardinalities.
/// Collisions are astronomically unlikely for the failure mode this
/// guards (accidentally pointing `--resume` at a different dataset).
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(serde_json::to_string(&dataset.config).unwrap_or_default().as_bytes());
    for n in [
        dataset.train.len(),
        dataset.val.len(),
        dataset.test.len(),
        dataset.couriers.len(),
        dataset.city.aois.len(),
    ] {
        eat(&(n as u64).to_le_bytes());
    }
    h
}

/// FNV-1a over `bytes`, fed one little-endian u64 word at a time (the
/// tail byte by byte): eight times fewer multiplies than byte-wise
/// FNV-1a. Each step is a bijection of the running state, so changing
/// any single byte changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV_OFFSET;
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rtp-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn minimal_checkpoint() -> TrainCheckpoint {
        TrainCheckpoint {
            version: CHECKPOINT_VERSION,
            train_config: TrainConfig::quick(),
            model_config: {
                let d = DatasetBuilder::new(DatasetConfig::tiny(71)).build();
                ModelConfig::for_dataset(&d)
            },
            dataset_fingerprint: 1,
            epochs_done: 1,
            stopped_early: false,
            rng_state: [1, 2, 3, 4],
            indices: vec![2, 0, 1],
            adam: rtp_tensor::optim::Adam::new(1e-3).state(),
            weights: vec![vec![1.0, 2.0]],
            best_snapshot: vec![vec![1.0, 2.0]],
            best_score_bits: f64::NEG_INFINITY.to_bits(),
            best_krc_bits: 0.0f64.to_bits(),
            best_mae_bits: f64::MAX.to_bits(),
            since_best: 0,
            history: vec![EpochStats { epoch: 0, train_loss: 1.0, val_krc: 0.1, val_mae: 9.0 }],
            train_seconds: 0.5,
            train_loop_seconds: 0.4,
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_bits() {
        let dir = tmpdir("roundtrip");
        let cp = minimal_checkpoint();
        let bytes = cp.save(&dir).unwrap();
        assert!(bytes > 0);
        let back = TrainCheckpoint::load(&dir).unwrap();
        assert_eq!(back.rng_state, cp.rng_state);
        assert_eq!(back.best_score_bits, cp.best_score_bits);
        assert_eq!(f64::from_bits(back.best_score_bits), f64::NEG_INFINITY);
        assert_eq!(back.weights, cp.weights);
        assert_eq!(back.indices, cp.indices);
        assert_eq!(back.history.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_checkpoint_is_a_clear_error() {
        let dir = tmpdir("missing");
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
        assert!(err.to_string().contains("nothing to resume from"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let dir = tmpdir("truncated");
        let cp = minimal_checkpoint();
        cp.save(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `bytes` as the checkpoint file of `dir` and loads it.
    fn load_bytes(dir: &Path, bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
        std::fs::write(dir.join(CHECKPOINT_FILE), bytes).unwrap();
        TrainCheckpoint::load(dir)
    }

    #[test]
    fn round_trip_keeps_every_float_bit() {
        let dir = tmpdir("bits");
        let specials = [
            -0.0f32,
            f32::from_bits(1), // smallest subnormal
            f32::MIN_POSITIVE / 3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234), // NaN with a payload
            f32::from_bits(0xffc0_0042), // negative NaN with a payload
        ];
        let reversed: Vec<f32> = specials.iter().rev().copied().collect();
        let mut cp = minimal_checkpoint();
        cp.weights = vec![specials.to_vec(), vec![]];
        cp.best_snapshot = vec![reversed.clone(), vec![]];
        cp.adam.m = vec![specials.to_vec(), vec![]];
        cp.adam.v = vec![reversed, vec![]];
        cp.save(&dir).unwrap();
        let back = TrainCheckpoint::load(&dir).unwrap();
        let bits = |cp: &TrainCheckpoint| -> Vec<u32> {
            cp.tensor_sets().into_iter().flatten().flatten().map(|x| x.to_bits()).collect()
        };
        assert_eq!(back.tensor_sets().map(|set| set.len()), [2; 4]);
        assert_eq!(bits(&back), bits(&cp));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_bit_flip_and_truncation_is_corrupt() {
        let dir = tmpdir("flips");
        let bytes = {
            minimal_checkpoint().save(&dir).unwrap();
            std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap()
        };
        let corrupt = |bad: &[u8], what: &str| match load_bytes(&dir, bad) {
            Err(CheckpointError::Corrupt(m)) => {
                assert!(m.contains("not a valid checkpoint"), "{what}: {m}")
            }
            Err(e) => panic!("{what}: {e}"),
            Ok(_) => panic!("{what} was accepted"),
        };
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                corrupt(&bad, &format!("flipping bit {bit} of byte {i}"));
            }
        }
        for len in 0..bytes.len() {
            corrupt(&bytes[..len], &format!("truncating to {len} bytes"));
        }
        assert!(load_bytes(&dir, &bytes).is_ok(), "the intact file must still load");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_shapes_beyond_the_file_are_corrupt_before_allocation() {
        let dir = tmpdir("shapes");
        // A container with a valid checksum around any header.
        let seal = |header: &str, payload: &[u8]| {
            let mut b = MAGIC.to_vec();
            b.extend_from_slice(&(header.len() as u64).to_le_bytes());
            b.extend_from_slice(header.as_bytes());
            b.extend_from_slice(payload);
            let sum = checksum(&b);
            b.extend_from_slice(&sum.to_le_bytes());
            b
        };
        let mut cp = minimal_checkpoint();
        cp.weights.clear();
        cp.best_snapshot.clear();
        let payload = [0u8; 16];
        let honest = [vec![2], vec![2], vec![], vec![]];
        let header = serde_json::to_string(&(&honest, &cp)).unwrap();
        assert!(load_bytes(&dir, &seal(&header, &payload)).is_ok(), "the seal itself is valid");
        for shapes in [
            [vec![1usize << 61], vec![1 << 61], vec![], vec![]], // 2^63 bytes
            [vec![1usize << 62], vec![], vec![], vec![]],        // 4 × floats overflows
            [vec![usize::MAX], vec![1], vec![], vec![]],         // the float count overflows
            [vec![2], vec![2], vec![1], vec![]],                 // 5 floats, 16 bytes
            [vec![2], vec![1], vec![], vec![]],                  // 3 floats, 16 bytes
        ] {
            let header = serde_json::to_string(&(&shapes, &cp)).unwrap();
            let err = load_bytes(&dir, &seal(&header, &payload)).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{shapes:?}: {err}");
            assert!(err.to_string().contains("header shapes"), "{shapes:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_json_checkpoint_is_not_read() {
        let dir = tmpdir("json");
        std::fs::write(dir.join("checkpoint.json"), "{\"version\": 1}").unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(err.to_string().contains("nothing to resume from"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = tmpdir("version");
        let mut cp = minimal_checkpoint();
        cp.version = CHECKPOINT_VERSION + 1;
        cp.save(&dir).unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn internally_inconsistent_checkpoints_are_rejected() {
        let dir = tmpdir("inconsistent");
        let mut cp = minimal_checkpoint();
        cp.indices = vec![0, 0, 1]; // not a permutation
        cp.save(&dir).unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(err.to_string().contains("permutation"), "{err}");

        let mut cp = minimal_checkpoint();
        cp.rng_state = [0; 4];
        cp.save(&dir).unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(err.to_string().contains("RNG state"), "{err}");

        let mut cp = minimal_checkpoint();
        cp.adam.m = vec![vec![0.0; 2]];
        cp.adam.v = vec![vec![0.0; 1]];
        cp.save(&dir).unwrap();
        let err = TrainCheckpoint::load(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("Adam moment"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_fingerprint_separates_datasets() {
        let a = DatasetBuilder::new(DatasetConfig::tiny(71)).build();
        let b = DatasetBuilder::new(DatasetConfig::tiny(72)).build();
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
    }
}
