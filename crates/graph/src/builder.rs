//! Construction of the multi-level graph from a query.

use rtp_sim::{City, Courier, RtpQuery};
use serde::{Deserialize, Serialize};

use crate::{AOI_CONT_DIM, EDGE_DIM, GLOBAL_CONT_DIM, LOC_CONT_DIM};

/// Graph construction knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GraphConfig {
    /// `k` of the k-nearest spatial/temporal connectivity (Eq. 15).
    pub k_neighbors: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self { k_neighbors: 3 }
    }
}

/// One level of the multi-level graph (`G^l` or `G^a`): a dense node
/// feature matrix, per-node discrete ids, dense edge features and the
/// boolean adjacency mask the GAT-e attention is restricted to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelGraph {
    /// Number of nodes.
    pub n: usize,
    /// Continuous node features, row-major `[n, cont_dim]`.
    pub cont: Vec<f32>,
    /// Width of `cont`.
    pub cont_dim: usize,
    /// AOI id per node (the node's own id at AOI level; the containing
    /// AOI's id at location level). Embedded, not treated as numeric.
    pub aoi_ids: Vec<usize>,
    /// AOI type index per node (see `rtp_sim::AoiType::index`).
    pub aoi_types: Vec<usize>,
    /// Edge features, row-major `[n*n, EDGE_DIM]`; entry `i*n+j` is the
    /// directed edge `i -> j`.
    pub edge: Vec<f32>,
    /// Width of each edge feature vector.
    pub edge_dim: usize,
    /// Connectivity mask `[n*n]` (Eq. 15); `adj[i*n+j]` gates attention
    /// from node `i` to node `j`.
    pub adj: Vec<bool>,
}

impl LevelGraph {
    /// Neighbour count of node `i` (including its self-loop).
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i * self.n..(i + 1) * self.n].iter().filter(|&&b| b).count()
    }
}

/// Global context features `x^g` (Eq. 17) plus the courier identity used
/// for the courier embedding `u` in the decoders.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalFeatures {
    /// Continuous features: working hours, speed, attendance,
    /// time-of-day ∈ `[0,1]`.
    pub cont: Vec<f32>,
    /// Weather code (embedding id).
    pub weather: usize,
    /// Weekday 0–6 (embedding id).
    pub weekday: usize,
    /// Courier id (embedding id).
    pub courier_id: usize,
}

/// The full multi-level graph `G = (G^l, G^a, E^{la})` of Definition 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLevelGraph {
    /// Location-level graph `G^l`.
    pub locations: LevelGraph,
    /// AOI-level graph `G^a`.
    pub aois: LevelGraph,
    /// `E^{la}` as a membership map: `loc_to_aoi[i]` is the AOI-node
    /// index containing location node `i`.
    pub loc_to_aoi: Vec<usize>,
    /// Global features.
    pub global: GlobalFeatures,
}

/// Builds [`MultiLevelGraph`]s from queries against a fixed city/fleet.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    config: GraphConfig,
}

impl GraphBuilder {
    /// Creates a builder.
    pub fn new(config: GraphConfig) -> Self {
        Self { config }
    }

    /// The builder's configuration.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Builds the (unnormalised) multi-level graph for one query.
    ///
    /// # Panics
    /// Panics if the query has no orders.
    pub fn build(&self, query: &RtpQuery, city: &City, courier: &Courier) -> MultiLevelGraph {
        assert!(!query.orders.is_empty(), "cannot build a graph for an empty query");
        let n = query.orders.len();
        let aoi_ids = query.distinct_aois();
        let m = aoi_ids.len();
        let loc_to_aoi = query.order_aoi_indices();

        // ---- location level (Eq. 12) ----
        let mut l_cont = Vec::with_capacity(n * LOC_CONT_DIM);
        let mut l_aoi_ids = Vec::with_capacity(n);
        let mut l_types = Vec::with_capacity(n);
        for o in &query.orders {
            let d = o.pos.dist(&query.courier_pos);
            l_cont.extend_from_slice(&[
                o.pos.x,
                o.pos.y,
                d,
                o.deadline - query.time,
                query.time - o.accept_time,
            ]);
            l_aoi_ids.push(o.aoi_id);
            l_types.push(city.aoi(o.aoi_id).kind.index());
        }
        let l_pos: Vec<_> = query.orders.iter().map(|o| o.pos).collect();
        let l_dead: Vec<_> = query.orders.iter().map(|o| o.deadline).collect();
        let (l_edge, l_adj) = build_edges(&l_pos, &l_dead, self.config.k_neighbors);

        // ---- AOI level (Eq. 13) ----
        let mut a_cont = Vec::with_capacity(m * AOI_CONT_DIM);
        let mut a_types = Vec::with_capacity(m);
        let mut a_pos = Vec::with_capacity(m);
        let mut a_dead = Vec::with_capacity(m);
        for (k, &aid) in aoi_ids.iter().enumerate() {
            let aoi = city.aoi(aid);
            let members: Vec<usize> = (0..n).filter(|&i| loc_to_aoi[i] == k).collect();
            let earliest =
                members.iter().map(|&i| query.orders[i].deadline).fold(f32::MAX, f32::min);
            let d = aoi.center.dist(&query.courier_pos);
            a_cont.extend_from_slice(&[
                aoi.center.x,
                aoi.center.y,
                d,
                earliest - query.time,
                members.len() as f32,
            ]);
            a_types.push(aoi.kind.index());
            a_pos.push(aoi.center);
            a_dead.push(earliest);
        }
        let (a_edge, a_adj) = build_edges(&a_pos, &a_dead, self.config.k_neighbors);

        let global = GlobalFeatures {
            cont: vec![
                courier.work_hours,
                courier.speed_kmh,
                courier.attendance,
                (query.time / 1440.0).clamp(0.0, 1.0),
            ],
            weather: query.weather.index(),
            weekday: query.weekday as usize,
            courier_id: courier.id,
        };

        MultiLevelGraph {
            locations: LevelGraph {
                n,
                cont: l_cont,
                cont_dim: LOC_CONT_DIM,
                aoi_ids: l_aoi_ids,
                aoi_types: l_types,
                edge: l_edge,
                edge_dim: EDGE_DIM,
                adj: l_adj,
            },
            aois: LevelGraph {
                n: m,
                cont: a_cont,
                cont_dim: AOI_CONT_DIM,
                aoi_ids,
                aoi_types: a_types,
                edge: a_edge,
                edge_dim: EDGE_DIM,
                adj: a_adj,
            },
            loc_to_aoi,
            global,
        }
    }
}

/// Builds dense edge features (distance, deadline gap, connectivity) and
/// the symmetric connectivity mask of Eq. 15.
fn build_edges(pos: &[rtp_sim::Point], deadline: &[f32], k: usize) -> (Vec<f32>, Vec<bool>) {
    let n = pos.len();
    let mut adj = vec![false; n * n];
    // self-loops
    for i in 0..n {
        adj[i * n + i] = true;
    }
    // k-nearest spatial and temporal neighbours, symmetrised
    for i in 0..n {
        let mut spatial: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        spatial.sort_by(|&a, &b| {
            pos[i].dist(&pos[a]).partial_cmp(&pos[i].dist(&pos[b])).expect("finite")
        });
        for &j in spatial.iter().take(k) {
            adj[i * n + j] = true;
            adj[j * n + i] = true;
        }
        let mut temporal: Vec<usize> = (0..n).filter(|&j| j != i).collect();
        temporal.sort_by(|&a, &b| {
            (deadline[i] - deadline[a])
                .abs()
                .partial_cmp(&(deadline[i] - deadline[b]).abs())
                .expect("finite")
        });
        for &j in temporal.iter().take(k) {
            adj[i * n + j] = true;
            adj[j * n + i] = true;
        }
    }
    let mut edge = Vec::with_capacity(n * n * EDGE_DIM);
    for i in 0..n {
        for j in 0..n {
            edge.push(pos[i].dist(&pos[j]));
            edge.push((deadline[i] - deadline[j]).abs());
            edge.push(if adj[i * n + j] { 1.0 } else { 0.0 });
        }
    }
    (edge, adj)
}

// GLOBAL_CONT_DIM is the length of GlobalFeatures::cont; keep them in sync.
const _: () = assert!(GLOBAL_CONT_DIM == 4);

#[cfg(test)]
mod tests {
    use super::*;
    use rtp_sim::{DatasetBuilder, DatasetConfig};

    fn build_one() -> (rtp_sim::Dataset, MultiLevelGraph) {
        let d = DatasetBuilder::new(DatasetConfig::tiny(21)).build();
        let s = d.train[0].clone();
        let courier = d.couriers[s.query.courier_id].clone();
        let g = GraphBuilder::new(GraphConfig::default()).build(&s.query, &d.city, &courier);
        (d, g)
    }

    #[test]
    fn dimensions_are_consistent() {
        let (d, g) = build_one();
        let s = &d.train[0];
        let n = s.query.num_locations();
        let m = s.query.distinct_aois().len();
        assert_eq!(g.locations.n, n);
        assert_eq!(g.aois.n, m);
        assert_eq!(g.locations.cont.len(), n * LOC_CONT_DIM);
        assert_eq!(g.aois.cont.len(), m * AOI_CONT_DIM);
        assert_eq!(g.locations.edge.len(), n * n * EDGE_DIM);
        assert_eq!(g.aois.edge.len(), m * m * EDGE_DIM);
        assert_eq!(g.loc_to_aoi.len(), n);
        assert!(g.loc_to_aoi.iter().all(|&a| a < m));
        assert_eq!(g.global.cont.len(), GLOBAL_CONT_DIM);
    }

    #[test]
    fn adjacency_has_self_loops_and_is_symmetric() {
        let (_, g) = build_one();
        for level in [&g.locations, &g.aois] {
            let n = level.n;
            for i in 0..n {
                assert!(level.adj[i * n + i], "missing self loop at {i}");
                for j in 0..n {
                    assert_eq!(level.adj[i * n + j], level.adj[j * n + i], "asymmetric ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn degrees_respect_k() {
        let (_, g) = build_one();
        let k = GraphConfig::default().k_neighbors;
        let n = g.locations.n;
        for i in 0..n {
            let deg = g.locations.degree(i);
            // at least self + min(k, n-1) spatial; at most self + 4k
            // (own spatial+temporal plus symmetrised reverse edges)
            assert!(deg > k.min(n - 1), "degree {deg} too small at node {i}");
            assert!(deg <= 1 + 4 * k.min(n - 1), "degree {deg} too large at node {i}");
        }
    }

    #[test]
    fn edge_features_match_geometry() {
        let (d, g) = build_one();
        let s = &d.train[0];
        let n = g.locations.n;
        for i in 0..n {
            for j in 0..n {
                let e = &g.locations.edge[(i * n + j) * EDGE_DIM..(i * n + j + 1) * EDGE_DIM];
                let dist = s.query.orders[i].pos.dist(&s.query.orders[j].pos);
                let gap = (s.query.orders[i].deadline - s.query.orders[j].deadline).abs();
                assert!((e[0] - dist).abs() < 1e-6);
                assert!((e[1] - gap).abs() < 1e-4);
                assert_eq!(e[2], if g.locations.adj[i * n + j] { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn aoi_features_aggregate_members() {
        let (d, g) = build_one();
        let s = &d.train[0];
        let m = g.aois.n;
        let loc_to_aoi = s.query.order_aoi_indices();
        for k in 0..m {
            let members: Vec<usize> =
                (0..s.query.num_locations()).filter(|&i| loc_to_aoi[i] == k).collect();
            let count = g.aois.cont[k * AOI_CONT_DIM + 4];
            assert_eq!(count as usize, members.len());
            let earliest =
                members.iter().map(|&i| s.query.orders[i].deadline).fold(f32::MAX, f32::min);
            assert!((g.aois.cont[k * AOI_CONT_DIM + 3] - (earliest - s.query.time)).abs() < 1e-4);
        }
    }
}
