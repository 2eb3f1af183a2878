//! Feature standardisation fitted on the training split.

use rtp_sim::{Courier, Dataset};
use serde::{Deserialize, Serialize};

use crate::builder::{GraphBuilder, MultiLevelGraph};
use crate::{AOI_CONT_DIM, GLOBAL_CONT_DIM, LOC_CONT_DIM};

/// Per-column mean/std statistics for one feature family.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ColumnStats {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl ColumnStats {
    fn fit(rows: impl Iterator<Item = Vec<f32>>, dim: usize) -> Self {
        let mut sum = vec![0.0f64; dim];
        let mut sq = vec![0.0f64; dim];
        let mut n = 0u64;
        for row in rows {
            debug_assert_eq!(row.len(), dim);
            for (k, v) in row.iter().enumerate() {
                sum[k] += *v as f64;
                sq[k] += (*v as f64) * (*v as f64);
            }
            n += 1;
        }
        let n = n.max(1) as f64;
        let mean: Vec<f32> = sum.iter().map(|s| (s / n) as f32).collect();
        let std: Vec<f32> = sq
            .iter()
            .zip(&mean)
            .map(|(s, m)| {
                let var = (s / n) - (*m as f64) * (*m as f64);
                (var.max(0.0).sqrt() as f32).max(1e-6)
            })
            .collect();
        Self { mean, std }
    }

    fn apply(&self, data: &mut [f32]) {
        let dim = self.mean.len();
        for row in data.chunks_mut(dim) {
            for (k, v) in row.iter_mut().enumerate() {
                *v = (*v - self.mean[k]) / self.std[k];
            }
        }
    }
}

/// Standardises the continuous node/edge/global features of a
/// [`MultiLevelGraph`] to zero mean and unit variance, with statistics
/// fitted exclusively on the training split (no leakage).
///
/// The binary connectivity column of the edge features is left as-is
/// (standardising a {0,1} flag would only rescale it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureScaler {
    loc: ColumnStats,
    aoi: ColumnStats,
    loc_edge: ColumnStats,
    aoi_edge: ColumnStats,
    global: ColumnStats,
}

impl FeatureScaler {
    /// Fits scaler statistics on the training split of `dataset` by
    /// building every training graph once.
    pub fn fit(dataset: &Dataset, builder: &GraphBuilder) -> Self {
        let graphs: Vec<MultiLevelGraph> = dataset
            .train
            .iter()
            .map(|s| {
                let courier: &Courier = &dataset.couriers[s.query.courier_id];
                builder.build(&s.query, &dataset.city, courier)
            })
            .collect();
        Self::fit_graphs(&graphs)
    }

    /// Fits scaler statistics on pre-built graphs.
    ///
    /// # Panics
    /// Panics if `graphs` is empty.
    pub fn fit_graphs(graphs: &[MultiLevelGraph]) -> Self {
        assert!(!graphs.is_empty(), "cannot fit a scaler on zero graphs");
        let loc_dim = graphs[0].locations.cont_dim;
        let aoi_dim = graphs[0].aois.cont_dim;
        let edge_dim = graphs[0].locations.edge_dim;
        let global_dim = graphs[0].global.cont.len();
        let loc = ColumnStats::fit(
            graphs.iter().flat_map(|g| g.locations.cont.chunks(loc_dim).map(|c| c.to_vec())),
            loc_dim,
        );
        let aoi = ColumnStats::fit(
            graphs.iter().flat_map(|g| g.aois.cont.chunks(aoi_dim).map(|c| c.to_vec())),
            aoi_dim,
        );
        // only the first two edge columns (distance, gap) are continuous
        let loc_edge = ColumnStats::fit(
            graphs.iter().flat_map(|g| g.locations.edge.chunks(edge_dim).map(|c| c[..2].to_vec())),
            2,
        );
        let aoi_edge = ColumnStats::fit(
            graphs.iter().flat_map(|g| g.aois.edge.chunks(edge_dim).map(|c| c[..2].to_vec())),
            2,
        );
        let global = ColumnStats::fit(graphs.iter().map(|g| g.global.cont.clone()), global_dim);
        Self { loc, aoi, loc_edge, aoi_edge, global }
    }

    /// Checks that every column family holds one mean and one std per
    /// feature column the graph builder emits, so [`FeatureScaler::apply`]
    /// cannot index past them, and that every mean is finite and every
    /// std finite and positive, so scaled features stay finite (a zero
    /// std turns them into NaN or ±∞, which no decoder can rank).
    /// Fitted scalers clamp each std at 1e-6, so a scaler fitted on
    /// finite features passes. A scaler read from disk must pass this
    /// before it scales a graph.
    pub fn check(&self) -> Result<(), String> {
        let families = [
            ("loc", &self.loc, LOC_CONT_DIM),
            ("aoi", &self.aoi, AOI_CONT_DIM),
            ("loc_edge", &self.loc_edge, 2),
            ("aoi_edge", &self.aoi_edge, 2),
            ("global", &self.global, GLOBAL_CONT_DIM),
        ];
        for (name, stats, want) in families {
            let (mean, std) = (stats.mean.len(), stats.std.len());
            if mean != want || std != want {
                return Err(format!(
                    "feature scaler `{name}` holds {mean} means and {std} stds, want {want} of each"
                ));
            }
            for (k, (&m, &sd)) in stats.mean.iter().zip(&stats.std).enumerate() {
                if !m.is_finite() {
                    return Err(format!(
                        "feature scaler `{name}` column {k}: mean {m} is not finite"
                    ));
                }
                if !(sd.is_finite() && sd > 0.0) {
                    return Err(format!(
                        "feature scaler `{name}` column {k}: std {sd} is not finite and positive"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Standardises a graph in place.
    pub fn apply(&self, g: &mut MultiLevelGraph) {
        self.loc.apply(&mut g.locations.cont);
        self.aoi.apply(&mut g.aois.cont);
        apply_edge(&self.loc_edge, &mut g.locations.edge, g.locations.edge_dim);
        apply_edge(&self.aoi_edge, &mut g.aois.edge, g.aois.edge_dim);
        self.global.apply(&mut g.global.cont);
    }
}

#[allow(clippy::needless_range_loop)] // only the first two columns are scaled
fn apply_edge(stats: &ColumnStats, edge: &mut [f32], edge_dim: usize) {
    for row in edge.chunks_mut(edge_dim) {
        for k in 0..2 {
            row[k] = (row[k] - stats.mean[k]) / stats.std[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphConfig;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    #[test]
    fn scaled_train_features_are_standardised() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(31)).build();
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(&d, &builder);

        // Re-build training graphs, scale them, pool column stats.
        let mut pooled: Vec<Vec<f32>> = Vec::new();
        for s in &d.train {
            let mut g = builder.build(&s.query, &d.city, &d.couriers[s.query.courier_id]);
            scaler.apply(&mut g);
            for row in g.locations.cont.chunks(g.locations.cont_dim) {
                pooled.push(row.to_vec());
            }
        }
        let dim = pooled[0].len();
        for k in 0..dim {
            let vals: Vec<f32> = pooled.iter().map(|r| r[k]).collect();
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 0.05, "column {k} mean {mean} not ~0");
            assert!((var - 1.0).abs() < 0.1, "column {k} var {var} not ~1");
        }
    }

    #[test]
    fn connectivity_column_is_untouched() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(32)).build();
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(&d, &builder);
        let s = &d.train[0];
        let mut g = builder.build(&s.query, &d.city, &d.couriers[s.query.courier_id]);
        let before: Vec<f32> =
            g.locations.edge.chunks(g.locations.edge_dim).map(|c| c[2]).collect();
        scaler.apply(&mut g);
        let after: Vec<f32> = g.locations.edge.chunks(g.locations.edge_dim).map(|c| c[2]).collect();
        assert_eq!(before, after);
        assert!(after.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn check_accepts_fitted_scalers_and_names_short_families() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(34)).build();
        let mut scaler = FeatureScaler::fit(&d, &GraphBuilder::new(GraphConfig::default()));
        assert_eq!(scaler.check(), Ok(()));
        let fitted = scaler.clone();
        scaler.global.std.pop();
        let err = scaler.check().unwrap_err();
        assert!(err.contains("`global` holds 4 means and 3 stds"), "{err}");

        let mut zero_std = fitted.clone();
        zero_std.loc.std[3] = 0.0;
        let err = zero_std.check().unwrap_err();
        assert!(err.contains("`loc` column 3: std 0 is not finite and positive"), "{err}");

        let mut nan_mean = fitted;
        nan_mean.aoi_edge.mean[1] = f32::NAN;
        let err = nan_mean.check().unwrap_err();
        assert!(err.contains("`aoi_edge` column 1: mean NaN is not finite"), "{err}");
    }

    #[test]
    fn apply_is_idempotent_only_once() {
        // Applying twice must change features again (guard against
        // accidentally building a no-op scaler).
        let d = DatasetBuilder::new(DatasetConfig::tiny(33)).build();
        let builder = GraphBuilder::new(GraphConfig::default());
        let scaler = FeatureScaler::fit(&d, &builder);
        let s = &d.train[0];
        let mut g = builder.build(&s.query, &d.city, &d.couriers[s.query.courier_id]);
        let raw = g.locations.cont.clone();
        scaler.apply(&mut g);
        assert_ne!(raw, g.locations.cont, "scaler must transform features");
    }
}
