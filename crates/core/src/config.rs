//! Model hyperparameters and ablation variants.

use rtp_sim::Dataset;
use serde::{Deserialize, Serialize};

/// Ablation variants of the paper's component analysis (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// The complete M²G4RTP model.
    Full,
    /// "two-step": the time modules (SortLSTMs + time heads) get their
    /// own training phase instead of joint multi-task optimisation.
    TwoStep,
    /// "w/o AOI": single-level model — no AOI graph, no guidance.
    NoAoi,
    /// "w/o graph": GAT-e encoders replaced by bidirectional LSTMs.
    NoGraph,
    /// "w/o uncertainty": fixed 100:1 route:time loss weights instead of
    /// learnable homoscedastic-uncertainty weights.
    NoUncertainty,
}

impl Variant {
    /// Human-readable label used by the Fig. 5 harness.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "M2G4RTP",
            Variant::TwoStep => "two-step",
            Variant::NoAoi => "w/o AOI",
            Variant::NoGraph => "w/o graph",
            Variant::NoUncertainty => "w/o uncertainty",
        }
    }

    /// All variants in the order Fig. 5 reports them.
    pub const ALL: [Variant; 5] =
        [Variant::Full, Variant::TwoStep, Variant::NoAoi, Variant::NoGraph, Variant::NoUncertainty];
}

/// Hyperparameters of an [`crate::M2G4Rtp`] instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Hidden width `d_l` of the location level. Must be divisible by
    /// `n_heads`.
    pub d_loc: usize,
    /// Hidden width `d_a` of the AOI level. Must be divisible by
    /// `n_heads`.
    pub d_aoi: usize,
    /// Embedding width of each discrete feature (AOI id/type, weather,
    /// weekday).
    pub d_disc: usize,
    /// Courier-embedding width (part of the decoder query `u`).
    pub d_courier: usize,
    /// Positional-encoding width (Eq. 32).
    pub d_pos: usize,
    /// Number of attention heads `P`.
    pub n_heads: usize,
    /// Number of GAT-e layers `K`.
    pub n_layers: usize,
    /// LeakyReLU negative slope in attention logits (Eq. 20).
    pub leaky_slope: f32,
    /// AOI-id vocabulary size (number of AOIs in the city).
    pub aoi_vocab: usize,
    /// Courier vocabulary size (fleet size).
    pub courier_vocab: usize,
    /// Which ablation variant to build.
    pub variant: Variant,
}

impl ModelConfig {
    /// Default hyperparameters sized for CPU training, with vocabularies
    /// taken from `dataset`.
    pub fn for_dataset(dataset: &Dataset) -> Self {
        Self {
            d_loc: 48,
            d_aoi: 48,
            d_disc: 8,
            d_courier: 8,
            d_pos: 8,
            n_heads: 4,
            n_layers: 2,
            leaky_slope: 0.2,
            aoi_vocab: dataset.city.aois.len() + 1,
            courier_vocab: dataset.couriers.len() + 1,
            variant: Variant::Full,
        }
    }

    /// Same config with a different [`Variant`].
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Validates divisibility and positivity invariants.
    ///
    /// # Panics
    /// Panics with a descriptive message on an invalid configuration
    /// (the message [`ModelConfig::check`] returns).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The invariants of [`ModelConfig::validate`], as a named error
    /// instead of a panic.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.n_heads >= 1, "need at least one attention head"),
            (self.n_layers >= 1, "need at least one encoder layer"),
            (self.d_loc.is_multiple_of(self.n_heads), "d_loc must divide by n_heads"),
            (self.d_aoi.is_multiple_of(self.n_heads), "d_aoi must divide by n_heads"),
            (self.d_pos >= 2 && self.d_pos.is_multiple_of(2), "d_pos must be even and >= 2"),
            (self.aoi_vocab >= 2 && self.courier_vocab >= 2, "vocabularies too small"),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, broken)) => Err(format!("invalid model config: {broken}")),
            None => Ok(()),
        }
    }

    /// Width of the courier representation `u` = courier embedding ++
    /// 3 profile features (work hours, speed, attendance).
    pub fn d_u(&self) -> usize {
        self.d_courier + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    #[test]
    fn for_dataset_sets_vocabs() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(1)).build();
        let c = ModelConfig::for_dataset(&d);
        assert_eq!(c.aoi_vocab, d.city.aois.len() + 1);
        assert_eq!(c.courier_vocab, d.couriers.len() + 1);
        c.validate();
    }

    #[test]
    fn with_variant_round_trips() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(1)).build();
        for v in Variant::ALL {
            let c = ModelConfig::for_dataset(&d).with_variant(v);
            assert_eq!(c.variant, v);
            assert!(!v.label().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "d_loc must divide")]
    fn validate_rejects_bad_heads() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(1)).build();
        let mut c = ModelConfig::for_dataset(&d);
        c.d_loc = 30;
        c.n_heads = 4;
        c.validate();
    }
}
