//! Dataset generation: turns the city + courier fleet + behaviour
//! simulator into chronologically split train/validation/test samples,
//! following the protocol of paper §V.A (65/17/10-day chronological
//! split, routes filtered to ≤ 20 locations and ≤ 10 AOIs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::behavior::{BehaviorConfig, BehaviorSim};
use crate::city::{City, CityConfig};
use crate::types::{splitmix64, Courier, Order, Point, RtpQuery, RtpSample, Weather};

/// Number of days per split, mirroring the paper's 65/17/10.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SplitSizes {
    /// Training days.
    pub train_days: usize,
    /// Validation days.
    pub val_days: usize,
    /// Test days.
    pub test_days: usize,
}

impl SplitSizes {
    /// Total days simulated.
    pub fn total(&self) -> usize {
        self.train_days + self.val_days + self.test_days
    }
}

/// Full configuration of dataset generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Master seed; every sample derives a private stream from it.
    pub seed: u64,
    /// City layout parameters.
    pub city: CityConfig,
    /// Behaviour simulation knobs.
    pub behavior: BehaviorConfig,
    /// Fleet size.
    pub n_couriers: usize,
    /// AOIs per courier territory.
    pub territory_size: usize,
    /// Chronological split (paper: 65/17/10).
    pub split: SplitSizes,
    /// RTP queries sampled per courier per day.
    pub samples_per_courier_day: usize,
    /// Inclusive range of locations per sample (paper keeps n ≤ 20).
    pub locations_range: (usize, usize),
    /// Maximum distinct AOIs per sample (paper keeps m ≤ 10).
    pub max_aois: usize,
    /// Mean number of AOIs per sample (paper: 4.08) — drives sampling.
    pub mean_aois: f32,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            seed: 2023,
            city: CityConfig::default(),
            behavior: BehaviorConfig::default(),
            n_couriers: 48,
            territory_size: 24,
            split: SplitSizes { train_days: 65, val_days: 17, test_days: 10 },
            samples_per_courier_day: 2,
            locations_range: (4, 20),
            max_aois: 10,
            mean_aois: 4.1,
        }
    }
}

impl DatasetConfig {
    /// A laptop-second-scale config for tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            city: CityConfig { n_aois: 60, n_districts: 5, ..CityConfig::default() },
            n_couriers: 6,
            territory_size: 12,
            split: SplitSizes { train_days: 6, val_days: 2, test_days: 2 },
            samples_per_courier_day: 2,
            ..Self::default()
        }
    }

    /// A CI-scale config: trains real models in seconds-to-minutes.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            city: CityConfig { n_aois: 100, n_districts: 8, ..CityConfig::default() },
            n_couriers: 16,
            territory_size: 16,
            split: SplitSizes { train_days: 20, val_days: 5, test_days: 5 },
            samples_per_courier_day: 2,
            ..Self::default()
        }
    }
}

/// The generated dataset: city, fleet and chronological splits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// The city the samples live in.
    pub city: City,
    /// The courier fleet, indexed by `Courier::id`.
    pub couriers: Vec<Courier>,
    /// Training samples (first `train_days` days).
    pub train: Vec<RtpSample>,
    /// Validation samples.
    pub val: Vec<RtpSample>,
    /// Test samples (last days).
    pub test: Vec<RtpSample>,
    /// The generating configuration (kept for provenance).
    pub config: DatasetConfig,
}

impl Dataset {
    /// All samples of every split, in train→val→test order.
    pub fn all_samples(&self) -> impl Iterator<Item = &RtpSample> {
        self.train.iter().chain(self.val.iter()).chain(self.test.iter())
    }

    /// Serialises the dataset to JSON (replayable experiments).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Restores a dataset serialised with [`Dataset::to_json`].
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }

    /// Checks every cross-reference in the dataset: courier, weekday and
    /// AOI ids in range ([`Dataset::check_query`]), ground-truth routes
    /// that are true permutations, and aligned truth/query lengths. Generated datasets satisfy this by
    /// construction; loaders should call it on anything read from disk
    /// so a hand-edited or corrupted file fails with a message naming
    /// the offending sample instead of an index-out-of-bounds panic
    /// deep inside graph construction.
    pub fn validate(&self) -> Result<(), String> {
        let n_aois = self.city.aois.len();
        for c in &self.couriers {
            if let Some(&bad) = c.territory.iter().find(|&&a| a >= n_aois) {
                return Err(format!(
                    "courier {}: territory references AOI {bad} but the city has {n_aois}",
                    c.id
                ));
            }
        }
        for (split, samples) in [("train", &self.train), ("val", &self.val), ("test", &self.test)] {
            for (i, s) in samples.iter().enumerate() {
                let at = |what: &str| format!("{split} sample {i}: {what}");
                self.check_query(&s.query).map_err(|e| at(&e))?;
                let n = s.query.num_locations();
                if !is_permutation(&s.truth.route, n) {
                    return Err(at(&format!("route is not a permutation of the {n} locations")));
                }
                if s.truth.arrival.len() != n {
                    return Err(at(&format!(
                        "{} arrival times for {n} locations",
                        s.truth.arrival.len()
                    )));
                }
                let m = s.query.distinct_aois().len();
                if !is_permutation(&s.truth.aoi_route, m) {
                    return Err(at(&format!(
                        "AOI route is not a permutation of the {m} visited AOIs"
                    )));
                }
                if s.truth.aoi_arrival.len() != m {
                    return Err(at(&format!(
                        "{} AOI arrival times for {m} visited AOIs",
                        s.truth.aoi_arrival.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks a query's ids against this dataset: the courier is in the
    /// fleet, the weekday is 0–6, and every order's AOI is in the city.
    /// `rtp serve` runs it on every request line and
    /// [`Dataset::validate`] on every sample, so an out-of-range id is
    /// an error naming the field, never a silently clamped embedding
    /// or a panic deep inside graph construction.
    pub fn check_query(&self, q: &RtpQuery) -> Result<(), String> {
        if q.courier_id >= self.couriers.len() {
            return Err(format!(
                "unknown courier_id {} (dataset has {} couriers)",
                q.courier_id,
                self.couriers.len()
            ));
        }
        if q.weekday > 6 {
            return Err(format!("weekday {} out of range (0-6)", q.weekday));
        }
        let n_aois = self.city.aois.len();
        if let Some((i, o)) = q.orders.iter().enumerate().find(|(_, o)| o.aoi_id >= n_aois) {
            return Err(format!(
                "orders[{i}].aoi_id: AOI {} is not in the city ({n_aois} AOIs)",
                o.aoi_id
            ));
        }
        Ok(())
    }
}

/// Whether `xs` is a permutation of `0..n`.
fn is_permutation(xs: &[usize], n: usize) -> bool {
    if xs.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &x in xs {
        if x >= n || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

/// Builds datasets from a [`DatasetConfig`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    config: DatasetConfig,
}

impl DatasetBuilder {
    /// Creates a builder.
    pub fn new(config: DatasetConfig) -> Self {
        Self { config }
    }

    /// Generates the dataset. Deterministic in the config seed;
    /// per-sample RNG streams make generation embarrassingly parallel.
    pub fn build(&self) -> Dataset {
        let cfg = &self.config;
        let city = City::generate(&cfg.city);
        let couriers = city.generate_couriers(cfg.n_couriers, cfg.territory_size, cfg.seed);
        let total_days = cfg.split.total();

        let jobs: Vec<(usize, usize, usize)> = (0..total_days)
            .flat_map(|day| {
                (0..cfg.n_couriers)
                    .flat_map(move |c| (0..cfg.samples_per_courier_day).map(move |k| (day, c, k)))
            })
            .collect();

        let sim = BehaviorSim::new(&city, cfg.behavior.clone());
        let mut day_samples: Vec<(usize, RtpSample)> = jobs
            .par_iter()
            .filter_map(|&(day, c, k)| {
                let stream = splitmix64(
                    cfg.seed ^ splitmix64((day as u64) << 40 | (c as u64) << 16 | k as u64),
                );
                let mut rng = StdRng::seed_from_u64(stream);
                let sample = generate_sample(&city, &sim, &couriers[c], day, &mut rng, cfg)?;
                Some((day, sample))
            })
            .collect();
        // Par iteration order is deterministic for par_iter over a Vec +
        // collect, but sort anyway to make provenance obvious.
        day_samples.sort_by_key(|(day, s)| (*day, s.query.courier_id, s.query.time as i64));

        let mut train = Vec::new();
        let mut val = Vec::new();
        let mut test = Vec::new();
        for (day, s) in day_samples {
            if day < cfg.split.train_days {
                train.push(s);
            } else if day < cfg.split.train_days + cfg.split.val_days {
                val.push(s);
            } else {
                test.push(s);
            }
        }
        Dataset { city, couriers, train, val, test, config: cfg.clone() }
    }
}

/// Weather of a given day (deterministic in the dataset seed).
fn day_weather(seed: u64, day: usize) -> Weather {
    let h = splitmix64(seed ^ 0x5EA7 ^ (day as u64) << 3);
    // ~55% sunny, 25% cloudy, 15% rainy, 5% storm
    match h % 100 {
        0..=54 => Weather::Sunny,
        55..=79 => Weather::Cloudy,
        80..=94 => Weather::Rainy,
        _ => Weather::Storm,
    }
}

/// Generates one RTP sample for a courier on a day, or `None` if the
/// drawn size falls outside the configured filter (mirroring the paper's
/// "selected routes with < 20 locations and < 10 AOIs").
fn generate_sample(
    city: &City,
    sim: &BehaviorSim<'_>,
    courier: &Courier,
    day: usize,
    rng: &mut StdRng,
    cfg: &DatasetConfig,
) -> Option<RtpSample> {
    let weather = day_weather(cfg.seed, day);
    let weekday = (day % 7) as u8;
    // Query times spread over the working day (8:00–18:00).
    let time = rng.gen_range(480.0..1080.0f32);

    // Number of AOIs: 1 + Poisson-ish(mean-1), truncated to the cap.
    let m = (1 + poisson_knuth(rng, (cfg.mean_aois - 1.0).max(0.1))).min(cfg.max_aois);
    let m = m.min(courier.territory.len());

    // Pick m AOIs from the territory, biased toward the courier position.
    let courier_pos = {
        let a = city.aoi(courier.territory[rng.gen_range(0..courier.territory.len())]);
        Point { x: a.center.x + rng.gen_range(-0.3..0.3), y: a.center.y + rng.gen_range(-0.3..0.3) }
    };
    let mut pool = courier.territory.clone();
    let mut chosen = Vec::with_capacity(m);
    for _ in 0..m {
        let idx = rng.gen_range(0..pool.len());
        chosen.push(pool.swap_remove(idx));
    }

    // Locations per AOI: 1 + Geometric, calibrated so n/m ≈ 7.64/4.08.
    let mut orders = Vec::new();
    for &aoi_id in &chosen {
        let aoi = city.aoi(aoi_id);
        let cnt = 1 + geometric(rng, 0.52);
        for _ in 0..cnt {
            let angle = rng.gen_range(0.0..std::f32::consts::TAU);
            let r = aoi.radius * rng.gen_range(0.0f32..1.0).sqrt();
            orders.push(Order {
                pos: Point { x: aoi.center.x + r * angle.cos(), y: aoi.center.y + r * angle.sin() },
                aoi_id,
                deadline: time + rng.gen_range(30.0..180.0),
                accept_time: time - rng.gen_range(5.0..120.0),
            });
        }
    }
    if orders.len() < cfg.locations_range.0 || orders.len() > cfg.locations_range.1 {
        return None;
    }

    let query = RtpQuery { courier_id: courier.id, time, courier_pos, orders, weather, weekday };
    let truth = sim.simulate(&query, courier, rng);
    Some(RtpSample { query, truth })
}

/// Knuth's Poisson sampler (fine for small means).
fn poisson_knuth(rng: &mut StdRng, mean: f32) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f32;
    loop {
        p *= rng.gen_range(0.0..1.0f32);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 64 {
            return k; // numerically impossible for our means; guard anyway
        }
    }
}

/// Geometric number of failures before first success.
fn geometric(rng: &mut StdRng, p: f64) -> usize {
    let mut k = 0usize;
    while !rng.gen_bool(p) {
        k += 1;
        if k > 64 {
            break;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = DatasetBuilder::new(DatasetConfig::tiny(5)).build();
        let b = DatasetBuilder::new(DatasetConfig::tiny(5)).build();
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(
            serde_json::to_string(&a.train[0]).unwrap(),
            serde_json::to_string(&b.train[0]).unwrap()
        );
    }

    #[test]
    fn splits_are_disjoint_and_nonempty() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(1)).build();
        assert!(!d.train.is_empty());
        assert!(!d.val.is_empty());
        assert!(!d.test.is_empty());
        assert!(d.train.len() > d.val.len());
        assert!(d.train.len() > d.test.len());
    }

    #[test]
    fn samples_respect_filters() {
        let cfg = DatasetConfig::tiny(2);
        let d = DatasetBuilder::new(cfg.clone()).build();
        for s in d.all_samples() {
            let n = s.query.num_locations();
            let m = s.query.distinct_aois().len();
            assert!(n >= cfg.locations_range.0 && n <= cfg.locations_range.1, "n={n}");
            assert!(m <= cfg.max_aois, "m={m}");
            assert_eq!(s.truth.route.len(), n);
            assert_eq!(s.truth.arrival.len(), n);
            assert_eq!(s.truth.aoi_route.len(), m);
            assert_eq!(s.truth.aoi_arrival.len(), m);
        }
    }

    #[test]
    fn sample_size_statistics_match_paper_bands() {
        // Paper Fig. 4: mean 7.64 locations and 4.08 AOIs per sample.
        let d = DatasetBuilder::new(DatasetConfig::quick(3)).build();
        let n_mean: f32 = d.train.iter().map(|s| s.query.num_locations() as f32).sum::<f32>()
            / d.train.len() as f32;
        let m_mean: f32 = d.train.iter().map(|s| s.query.distinct_aois().len() as f32).sum::<f32>()
            / d.train.len() as f32;
        assert!((5.5..10.0).contains(&n_mean), "locations/sample {n_mean} out of band");
        assert!((3.0..5.5).contains(&m_mean), "AOIs/sample {m_mean} out of band");
    }

    #[test]
    fn arrival_time_statistics_match_paper_bands() {
        // Paper Fig. 4(a)/(b): mean arrival ≈ 60 min, most < 120 min.
        let d = DatasetBuilder::new(DatasetConfig::quick(4)).build();
        let mut all = Vec::new();
        for s in &d.train {
            all.extend_from_slice(&s.truth.arrival);
        }
        let mean = all.iter().sum::<f32>() / all.len() as f32;
        let under_120 = all.iter().filter(|&&t| t < 120.0).count() as f32 / all.len() as f32;
        assert!((35.0..85.0).contains(&mean), "mean arrival {mean} out of calibration band");
        assert!(under_120 > 0.80, "too many arrivals over 120 min: {under_120}");
    }

    #[test]
    fn validate_accepts_generated_datasets() {
        DatasetBuilder::new(DatasetConfig::tiny(11)).build().validate().unwrap();
    }

    #[test]
    fn validate_names_the_offending_sample() {
        let build = || DatasetBuilder::new(DatasetConfig::tiny(11)).build();

        let mut d = build();
        d.val[1].query.courier_id = 999;
        let err = d.validate().unwrap_err();
        assert!(err.contains("val sample 1") && err.contains("courier_id 999"), "{err}");

        let mut d = build();
        d.train[0].truth.route[0] = d.train[0].truth.route[1];
        let err = d.validate().unwrap_err();
        assert!(err.contains("train sample 0") && err.contains("permutation"), "{err}");

        let mut d = build();
        d.test[2].query.orders[0].aoi_id = 100_000;
        let err = d.validate().unwrap_err();
        assert!(err.contains("test sample 2") && err.contains("AOI 100000"), "{err}");

        let mut d = build();
        d.val[0].query.weekday = 7;
        let err = d.validate().unwrap_err();
        assert!(err.contains("val sample 0") && err.contains("weekday 7"), "{err}");

        let mut d = build();
        d.train[3].truth.arrival.pop();
        let err = d.validate().unwrap_err();
        assert!(err.contains("train sample 3") && err.contains("arrival"), "{err}");

        let mut d = build();
        d.couriers[0].territory.push(100_000);
        let err = d.validate().unwrap_err();
        assert!(err.contains("courier 0") && err.contains("territory"), "{err}");
    }

    #[test]
    fn json_roundtrip() {
        let d = DatasetBuilder::new(DatasetConfig::tiny(9)).build();
        let s = d.to_json().unwrap();
        let d2 = Dataset::from_json(&s).unwrap();
        assert_eq!(d.train.len(), d2.train.len());
        assert_eq!(d.city.aois.len(), d2.city.aois.len());
    }

    #[test]
    fn weather_distribution_is_mostly_clear() {
        let sunny = (0..1000).filter(|&d| day_weather(1, d) == Weather::Sunny).count();
        assert!((400..700).contains(&sunny), "sunny days {sunny}/1000 out of band");
    }
}
