//! # m2g4rtp
//!
//! A from-scratch Rust implementation of **M²G4RTP** (Cai et al., ICDE
//! 2023): a multi-level, multi-task graph model that jointly predicts a
//! courier's future service **route** and per-location **arrival times**
//! in instant logistics.
//!
//! The model follows the paper §IV exactly:
//!
//! * **Multi-level graph encoder** — discrete features are embedded,
//!   continuous features linearly projected (Eqs. 18–19), then `K`
//!   stacked **GAT-e** layers (graph attention with edge features in the
//!   attention logits and an edge-update pathway, Eqs. 20–25; final
//!   layer head-averaging, Eq. 26) encode the location graph `G^l` and
//!   the AOI graph `G^a` in parallel.
//! * **Multi-task decoder** — per level, an LSTM-state pointer decoder
//!   with masked additive attention picks the next node step by step
//!   (Eqs. 27–31), and a **SortLSTM** consumes node representations
//!   sorted by the route, concatenated with sinusoidal position
//!   encodings, to emit arrival times (Eqs. 32–33). The AOI level's
//!   route position and predicted arrival time are concatenated onto
//!   every location's representation as guidance (Eqs. 34–36) — the
//!   "AOI guiding Location" divide-and-conquer of §IV-C.
//! * **Homoscedastic-uncertainty loss weighting** (Eq. 41, after
//!   Kendall et al. 2018) balances the four heterogeneous losses with
//!   learnable log-variances.
//!
//! The ablation variants of the paper's component analysis (Fig. 5) are
//! first-class: [`Variant::TwoStep`], [`Variant::NoAoi`],
//! [`Variant::NoGraph`] (BiLSTM encoder), [`Variant::NoUncertainty`]
//! (fixed 100:1 weights).
//!
//! ```no_run
//! use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
//! use rtp_sim::{DatasetBuilder, DatasetConfig};
//!
//! let dataset = DatasetBuilder::new(DatasetConfig::quick(7)).build();
//! let mut model = M2G4Rtp::new(ModelConfig::for_dataset(&dataset), 7);
//! let report = Trainer::new(TrainConfig::quick()).fit(&mut model, &dataset);
//! println!("best val KRC {:.3}", report.best_val_krc);
//! ```

mod checkpoint;
mod config;
mod decoder;
mod encoder;
mod model;
mod trainer;

pub use checkpoint::{
    dataset_fingerprint, CheckpointError, CheckpointOptions, TrainCheckpoint, CHECKPOINT_FILE,
    CHECKPOINT_VERSION,
};
pub use config::{ModelConfig, Variant};
pub use decoder::{RouteDecoder, SortLstm};
pub use encoder::{BiLstmEncoder, EdgeEmbedder, Encoder, GatELayer, GatEncoder, NodeEmbedder};
pub use model::{derive_aoi_outputs, EncodedQuery, M2G4Rtp, Prediction, SampleLosses, SavedModel};
pub use trainer::{EpochStats, TrainConfig, TrainReport, Trainer, TrainingGraphs};

/// Arrival-time gaps are regressed in units of `TIME_SCALE` minutes to
/// keep the regression loss on a similar scale to the route
/// cross-entropy early in training (the uncertainty weighting then
/// fine-balances them).
pub const TIME_SCALE: f32 = 10.0;
