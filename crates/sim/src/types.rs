//! Core domain types: points, AOIs, locations/orders, couriers, queries
//! and ground-truth labels (paper §III, Definitions 1–5).

use serde::{Deserialize, Serialize};

/// Reference travel pace used by naive baselines: minutes per km at the
/// fleet's nominal speed (12 km/h ⇒ 5 min/km).
pub const MINUTES_PER_KM_BASE: f32 = 5.0;

/// A point in a local planar approximation of the city, in kilometres.
///
/// The paper uses longitude/latitude; at city scale a planar frame is
/// metrically equivalent and keeps distance computations exact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// East-west coordinate, km.
    pub x: f32,
    /// North-south coordinate, km.
    pub y: f32,
}

impl Point {
    /// Euclidean distance in km.
    pub fn dist(&self, other: &Point) -> f32 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// The functional type of an AOI (paper Definition 2: "community, office
/// building, hospital, etc"). Types differ in per-stop service time: an
/// office tower with a front desk is faster to serve than a gated
/// residential compound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AoiType {
    /// Residential quarter / gated community.
    Residential,
    /// Office building.
    Office,
    /// Shopping mall.
    Mall,
    /// Hospital.
    Hospital,
    /// School or campus.
    School,
    /// Industrial park / warehouse zone.
    Industrial,
}

impl AoiType {
    /// All variants, in embedding-index order.
    pub const ALL: [AoiType; 6] = [
        AoiType::Residential,
        AoiType::Office,
        AoiType::Mall,
        AoiType::Hospital,
        AoiType::School,
        AoiType::Industrial,
    ];

    /// Stable small integer index (embedding id).
    pub fn index(self) -> usize {
        match self {
            AoiType::Residential => 0,
            AoiType::Office => 1,
            AoiType::Mall => 2,
            AoiType::Hospital => 3,
            AoiType::School => 4,
            AoiType::Industrial => 5,
        }
    }

    /// Mean per-stop service time in minutes for this AOI type.
    pub fn base_service_min(self) -> f32 {
        match self {
            AoiType::Residential => 5.5,
            AoiType::Office => 3.5,
            AoiType::Mall => 4.5,
            AoiType::Hospital => 6.0,
            AoiType::School => 5.0,
            AoiType::Industrial => 4.0,
        }
    }
}

/// An Area Of Interest (paper Definition 2): `a = (id, type, g^a)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Aoi {
    /// Unique AOI id within the city.
    pub id: usize,
    /// Functional type.
    pub kind: AoiType,
    /// Central coordinate `g^a`.
    pub center: Point,
    /// Radius within which the AOI's locations lie, km.
    pub radius: f32,
}

/// A pick-up order: the location triplet of Definition 1,
/// `l = (g^l, a^l, t_deadline)`, plus the order accept time used as a
/// node feature (Eq. 12).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Order {
    /// Position `g^l`.
    pub pos: Point,
    /// AOI id `a^l` the location belongs to.
    pub aoi_id: usize,
    /// Promised arrival deadline, minutes since day start.
    pub deadline: f32,
    /// Time the platform accepted the order, minutes since day start.
    pub accept_time: f32,
}

/// Weather regime of a day; scales effective courier speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Weather {
    /// Clear day.
    Sunny,
    /// Overcast.
    Cloudy,
    /// Rain: couriers slow down noticeably.
    Rainy,
    /// Storm: strongly reduced speed.
    Storm,
}

impl Weather {
    /// All variants, in embedding-index order.
    pub const ALL: [Weather; 4] = [Weather::Sunny, Weather::Cloudy, Weather::Rainy, Weather::Storm];

    /// Stable small integer index (embedding id / feature code).
    pub fn index(self) -> usize {
        match self {
            Weather::Sunny => 0,
            Weather::Cloudy => 1,
            Weather::Rainy => 2,
            Weather::Storm => 3,
        }
    }

    /// Multiplier on courier speed.
    pub fn speed_factor(self) -> f32 {
        match self {
            Weather::Sunny => 1.0,
            Weather::Cloudy => 0.95,
            Weather::Rainy => 0.80,
            Weather::Storm => 0.65,
        }
    }
}

/// A courier and their profile features `u` (paper Eq. 17): working
/// hours, driving speed, attendance — plus the *habit* machinery that
/// realises the paper's "high-level transfer mode between AOIs".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Courier {
    /// Unique courier id.
    pub id: usize,
    /// Average driving speed, km/h (`x_v^g`).
    pub speed_kmh: f32,
    /// Average working hours per day (`x_T^g`).
    pub work_hours: f32,
    /// Attendance rate over the last two months, in `[0,1]`.
    pub attendance: f32,
    /// AOI ids this courier regularly serves. Habit only makes sense over
    /// a stable territory; real couriers own a fixed beat.
    pub territory: Vec<usize>,
    /// Seed of the courier's private habit function.
    pub habit_seed: u64,
}

impl Courier {
    /// The courier's stable preference score for visiting an AOI early,
    /// in `[0,1)`. Deterministic in `(habit_seed, aoi_id)`: the same
    /// courier prefers the same AOI ordering across days, which is the
    /// learnable high-level pattern of paper §I Figure 1.
    pub fn habit_score(&self, aoi_id: usize) -> f32 {
        let h = splitmix64(self.habit_seed ^ (aoi_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (h >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// One RTP request (paper §III-B): courier `u` at time `t` with the set
/// of unvisited locations and the global context features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RtpQuery {
    /// Which courier.
    pub courier_id: usize,
    /// Current time, minutes since day start.
    pub time: f32,
    /// Courier's current position.
    pub courier_pos: Point,
    /// Unvisited locations `V^l` with their order metadata.
    pub orders: Vec<Order>,
    /// Weather code (`x_weather^g`).
    pub weather: Weather,
    /// Weekday 0–6 (`x_weekday^g`).
    pub weekday: u8,
}

impl RtpQuery {
    /// Number of unvisited locations `n`.
    pub fn num_locations(&self) -> usize {
        self.orders.len()
    }

    /// The distinct AOIs `V^a` of this query, in first-appearance order
    /// over `orders`. Every crate in the workspace uses this ordering, so
    /// AOI index `k` means the same node everywhere.
    pub fn distinct_aois(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for o in &self.orders {
            if !out.contains(&o.aoi_id) {
                out.push(o.aoi_id);
            }
        }
        out
    }

    /// Maps each order to the index of its AOI within
    /// [`RtpQuery::distinct_aois`].
    pub fn order_aoi_indices(&self) -> Vec<usize> {
        let aois = self.distinct_aois();
        self.orders
            .iter()
            .map(|o| aois.iter().position(|&a| a == o.aoi_id).expect("order AOI present"))
            .collect()
    }
}

/// Ground-truth labels for one query (paper Definitions 4–5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Location route: `route[j]` is the order-index visited at step `j`
    /// (a permutation of `0..n`).
    pub route: Vec<usize>,
    /// Arrival-time gaps per location, minutes from query time, aligned
    /// with `query.orders` indexing (`y_i^l`, Eq. 8).
    pub arrival: Vec<f32>,
    /// AOI route: `aoi_route[j]` is the AOI-index (into
    /// `query.distinct_aois()`) first entered at AOI-step `j`.
    pub aoi_route: Vec<usize>,
    /// Arrival-time gap at each AOI (time of first location served in
    /// it), aligned with `query.distinct_aois()` indexing (`y_j^a`, Eq. 9).
    pub aoi_arrival: Vec<f32>,
}

impl GroundTruth {
    /// Position of each order in the route: `ranks()[i] = j` such that
    /// `route[j] == i`. This is the `o_i` of the KRC/LSD metrics.
    pub fn ranks(&self) -> Vec<usize> {
        invert_permutation(&self.route)
    }

    /// Position of each AOI in the AOI route.
    pub fn aoi_ranks(&self) -> Vec<usize> {
        invert_permutation(&self.aoi_route)
    }
}

/// Inverts a permutation given as a visit sequence.
///
/// # Panics
/// Panics if `route` is not a permutation of `0..route.len()`.
pub(crate) fn invert_permutation(route: &[usize]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; route.len()];
    for (j, &i) in route.iter().enumerate() {
        assert!(i < route.len() && ranks[i] == usize::MAX, "not a permutation: {route:?}");
        ranks[i] = j;
    }
    ranks
}

/// A labelled training/evaluation sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RtpSample {
    /// The RTP request.
    pub query: RtpQuery,
    /// Its simulated ground truth.
    pub truth: GroundTruth,
}

/// SplitMix64: tiny, high-quality 64-bit mixer used for stable
/// per-(entity, entity) hashes.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(b.dist(&a), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn aoi_type_indices_are_distinct_and_dense() {
        let mut seen = vec![false; AoiType::ALL.len()];
        for t in AoiType::ALL {
            assert!(!seen[t.index()], "duplicate index");
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weather_slows_couriers_monotonically() {
        assert!(Weather::Sunny.speed_factor() > Weather::Cloudy.speed_factor());
        assert!(Weather::Cloudy.speed_factor() > Weather::Rainy.speed_factor());
        assert!(Weather::Rainy.speed_factor() > Weather::Storm.speed_factor());
    }

    #[test]
    fn habit_score_is_stable_and_courier_specific() {
        let c1 = Courier {
            id: 0,
            speed_kmh: 12.0,
            work_hours: 8.0,
            attendance: 0.95,
            territory: vec![],
            habit_seed: 1,
        };
        let c2 = Courier { habit_seed: 2, ..c1.clone() };
        assert_eq!(c1.habit_score(7), c1.habit_score(7), "habit must be deterministic");
        assert_ne!(c1.habit_score(7), c2.habit_score(7), "habit must differ across couriers");
        for aoi in 0..100 {
            let s = c1.habit_score(aoi);
            assert!((0.0..1.0).contains(&s));
        }
    }

    #[test]
    fn distinct_aois_first_appearance_order() {
        let mk = |aoi_id| Order {
            pos: Point { x: 0.0, y: 0.0 },
            aoi_id,
            deadline: 100.0,
            accept_time: 0.0,
        };
        let q = RtpQuery {
            courier_id: 0,
            time: 0.0,
            courier_pos: Point { x: 0.0, y: 0.0 },
            orders: vec![mk(5), mk(2), mk(5), mk(9), mk(2)],
            weather: Weather::Sunny,
            weekday: 0,
        };
        assert_eq!(q.distinct_aois(), vec![5, 2, 9]);
        assert_eq!(q.order_aoi_indices(), vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn ranks_invert_route() {
        let t = GroundTruth {
            route: vec![2, 0, 1],
            arrival: vec![0.0; 3],
            aoi_route: vec![0],
            aoi_arrival: vec![0.0],
        };
        assert_eq!(t.ranks(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invert_rejects_non_permutation() {
        invert_permutation(&[0, 0, 1]);
    }
}
