//! # rtp-baselines
//!
//! The seven comparison methods of the M²G4RTP paper (§V-B), each built
//! from scratch on the workspace substrates:
//!
//! | Baseline | Implementation |
//! |---|---|
//! | [`TimeGreedy`] | sort by deadline slack; fixed-speed time model |
//! | [`DistanceGreedy`] | step-wise nearest location; fixed-speed time model |
//! | [`OrToolsLike`] | nearest-neighbour + 2-opt shortest-route heuristic (the algorithm class OR-Tools' default routing search uses) |
//! | [`OSquare`] | from-scratch gradient-boosted regression trees ([`Gbdt`]); pointwise next-location scorer decoded step by step + a separately trained GBDT time regressor |
//! | [`DeepBaseline`] with [`DeepKind::DeepRoute`] | Transformer encoder + attention pointer decoder; plugged MLP time head trained separately |
//! | [`DeepBaseline`] with [`DeepKind::Fdnet`] | LSTM (RNN) encoder + pointer decoder; two-step time module consuming the *predicted* route |
//! | [`DeepBaseline`] with [`DeepKind::Graph2Route`] | edge-conditioned GCN encoder (single level) + pointer decoder; plugged MLP time head |
//!
//! All predictors implement [`Baseline`], returning the same
//! [`m2g4rtp::Prediction`] the core model produces, so the evaluation
//! harness treats every method uniformly.

mod deep;
mod gbdt;
mod heuristics;
mod osquare;

pub use deep::{DeepBaseline, DeepConfig, DeepKind};
pub use gbdt::{Gbdt, GbdtConfig};
pub use heuristics::{fixed_speed_times, DistanceGreedy, OrToolsLike, TimeGreedy};
pub use osquare::{OSquare, OSquareConfig};

use rtp_sim::{Dataset, RtpSample};

/// Common interface of every comparison method: given the dataset
/// context (city and fleet) and one sample's query, produce route and
/// time predictions at both levels.
///
/// `Send + Sync` so evaluation harnesses can fan predictors out across
/// threads (all implementations are pure functions of `&self`).
pub trait Baseline: Send + Sync {
    /// Display name used in tables.
    fn name(&self) -> &'static str;

    /// Predicts for one sample (only `sample.query` may be used;
    /// `sample.truth` is the evaluation label).
    fn predict(&self, dataset: &Dataset, sample: &RtpSample) -> m2g4rtp::Prediction;
}
