//! Everything a run feeds the program, generated from `--seed` by
//! `rtp-sim`: the tiny dataset, the fixture model, the courier request
//! lines and the open-loop arrival schedule.

use m2g4rtp::{M2G4Rtp, ModelConfig, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig, RtpSample, SplitSizes};

/// The four workloads. Their names are the `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop courier polls whose route state is always new.
    ServeCold,
    /// Open-loop courier polls that repeat an unchanged route state.
    ServeWarm,
    /// One gateway connection keeping 16 warm polls in flight.
    ServePipelined,
    /// `rtp train` with per-epoch checkpoints.
    TrainCkpt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ServeCold, Workload::ServeWarm, Workload::ServePipelined, Workload::TrainCkpt];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ServePipelined => "serve-pipelined",
            Workload::TrainCkpt => "train-ckpt",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the route states repeat, so the encoder cache serves them.
    pub fn warm(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServePipelined)
    }
}

/// Epochs the fixture model is trained for before it is served.
/// Trained weights serve measurably slower than fresh ones, so the
/// benchmark never serves an untrained model.
pub const FIXTURE_EPOCHS: usize = 2;

/// Extra simulated days of courier traffic beyond the served dataset:
/// with 6 couriers this gives about 500 distinct route states, 137–181
/// of them of typical size over seeds 1–10 and 41–45.
const TRAFFIC_DAYS: usize = 48;

/// Samples kept per split of the served dataset: three full training
/// mini-batches, and two validation sweeps of 8. The `tiny` preset
/// keeps 56–63 training samples depending on the seed, which made an
/// epoch's work differ by 12% between seeds.
const TRAIN_SAMPLES: usize = 48;
const HELD_OUT_SAMPLES: usize = 16;

/// The served dataset: the `tiny` preset of `seed`, each split cut to
/// a fixed size so every seed asks the same amount of work.
pub fn dataset(seed: u64) -> Dataset {
    let mut dataset = DatasetBuilder::new(DatasetConfig::tiny(seed)).build();
    dataset.train.truncate(TRAIN_SAMPLES);
    dataset.val.truncate(HELD_OUT_SAMPLES);
    dataset.test.truncate(HELD_OUT_SAMPLES);
    dataset
}

/// The fixture model's SavedModel JSON: the full model trained for
/// `epochs` epochs on one thread (0 epochs attaches the feature
/// pipeline to fresh weights).
pub fn fixture_model_json(dataset: &Dataset, seed: u64, epochs: usize) -> String {
    let mut model = M2G4Rtp::new(ModelConfig::for_dataset(dataset), seed);
    Trainer::new(TrainConfig { epochs, threads: 1, ..TrainConfig::quick() })
        .fit(&mut model, dataset);
    serde_json::to_string(&model.to_saved()).expect("a SavedModel always serialises")
}

/// Later courier-days of the served dataset's city and fleet: the same
/// generator and seed with more days, so courier ids, AOIs and courier
/// profiles mean the same thing to the server. Ordered by day, then
/// courier, then time: each courier advances through its own
/// consecutive route states.
pub fn traffic(seed: u64) -> Vec<RtpSample> {
    let tiny = DatasetConfig::tiny(seed);
    let split = SplitSizes { test_days: tiny.split.test_days + TRAFFIC_DAYS, ..tiny.split };
    DatasetBuilder::new(DatasetConfig { split, ..tiny }).build().test
}

/// Locations of the route states the cold workload serves: the typical
/// size, give or take one. The decoders' work grows with the square of
/// the locations, and each seed's six couriers draw their own mix of
/// sizes, so serving all of the traffic cost up to 10% more per query
/// for one seed than for another.
const COLD_LOCATIONS: std::ops::RangeInclusive<usize> = 7..=9;

/// Route states the cold workload rotates through, the same number for
/// every seed.
pub const COLD_POOL: usize = 120;

/// The cold workload's route states: the first [`COLD_POOL`] states of
/// typical size, in traffic order, so each courier still advances
/// through its own consecutive states.
pub fn cold_traffic(seed: u64) -> Vec<RtpSample> {
    let mut samples = traffic(seed);
    samples.retain(|s| COLD_LOCATIONS.contains(&s.query.num_locations()));
    samples.truncate(COLD_POOL);
    samples
}

/// One request line per sample.
pub fn lines(samples: &[RtpSample]) -> Vec<String> {
    samples
        .iter()
        .map(|s| serde_json::to_string(&s.query).expect("a query always serialises"))
        .collect()
}

/// Locations and AOIs of a typical route state: the paper's means
/// (7.6 locations in 4.1 AOIs per query).
const TYPICAL_SIZE: (usize, usize) = (8, 4);

/// Every courier's route state closest in size to a typical one, in
/// courier order. The decoders' work grows with the number of
/// locations and AOIs, so a pool of one state per courier picked this
/// way costs the same to serve whatever the seed; the first state per
/// courier would make a six-line pool's cost a lottery.
pub fn typical_per_courier(samples: &[RtpSample]) -> Vec<RtpSample> {
    per_courier(samples, |s| {
        let (n, m) = (s.query.num_locations(), s.query.distinct_aois().len());
        n.abs_diff(TYPICAL_SIZE.0) + m.abs_diff(TYPICAL_SIZE.1)
    })
}

/// Per courier, the first sample with the lowest `cost`.
fn per_courier(samples: &[RtpSample], cost: impl Fn(&RtpSample) -> usize) -> Vec<RtpSample> {
    let mut best: Vec<(usize, &RtpSample)> = Vec::new();
    for s in samples {
        let c = cost(s);
        match best.iter_mut().find(|(_, b)| b.query.courier_id == s.query.courier_id) {
            Some(slot) if c < slot.0 => *slot = (c, s),
            Some(_) => {}
            None => best.push((c, s)),
        }
    }
    let mut picked: Vec<RtpSample> = best.into_iter().map(|(_, s)| s.clone()).collect();
    picked.sort_by_key(|s| s.query.courier_id);
    picked
}

/// File names of the generated inputs inside a run's work directory.
pub const DATASET_FILE: &str = "dataset.json";
/// See [`DATASET_FILE`].
pub const MODEL_FILE: &str = "model.json";

/// The generated inputs of a serve workload.
pub struct ServeInputs {
    /// The served dataset, as the program reads it.
    pub dataset_json: String,
    /// The fixture SavedModel, as the program reads it.
    pub model_json: String,
    /// One line per courier, sent after every start-up.
    pub warmup: Vec<String>,
    /// The lines the timed phases draw from.
    pub pool: Vec<String>,
}

impl ServeInputs {
    /// Generates a serve workload's inputs from `seed`, with the fixture
    /// model trained for `fixture_epochs` epochs.
    pub fn generate(workload: Workload, seed: u64, fixture_epochs: usize) -> ServeInputs {
        let dataset = dataset(seed);
        let (warmup, pool) = if workload.warm() {
            // Each courier re-polls one unchanged route state, which the
            // warm-up already put in the encoder cache.
            let warm = lines(&typical_per_courier(&traffic(seed)));
            (warm.clone(), warm)
        } else {
            // Warm-up states come from the training days, so none of
            // them is a route state of the timed traffic.
            (lines(&typical_per_courier(&dataset.train)), lines(&cold_traffic(seed)))
        };
        ServeInputs {
            dataset_json: dataset.to_json().expect("a dataset always serialises"),
            model_json: fixture_model_json(&dataset, seed, fixture_epochs),
            warmup,
            pool,
        }
    }

    /// Writes the dataset and model files into `dir`.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(dir.join(DATASET_FILE), &self.dataset_json)?;
        std::fs::write(dir.join(MODEL_FILE), &self.model_json)
    }
}

/// The same line with `"trace":true` prepended, which makes the server
/// echo the request's stage breakdown.
pub fn traced(line: &str) -> String {
    format!("{{\"trace\":true,{}", &line[1..])
}

/// Which pool line request number `i` of a run sends.
#[derive(Debug, Clone, Copy)]
pub enum LineOrder {
    /// Cycle through the pool in order. Every courier has at least two
    /// distinct lines in the pool, so a courier's next line always
    /// differs from the one it sent before: each request misses the
    /// per-courier encoder cache.
    Rotate,
    /// Each request picks a pool line uniformly at random.
    Random(u64),
}

impl LineOrder {
    /// Pool index of request `i` in a pool of `len` lines.
    pub fn line(self, i: usize, len: usize) -> usize {
        match self {
            LineOrder::Rotate => i % len,
            LineOrder::Random(seed) => {
                (splitmix64(seed ^ splitmix64(i as u64 + 1)) % len as u64) as usize
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Poisson arrival offsets (seconds from phase start) at `rate` per
/// second over `seconds`, drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11_7E5C_4ED0_1E00);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_line_order_repeat_for_a_seed() {
        let a = poisson_schedule(11, 200.0, 5.0);
        assert_eq!(a, poisson_schedule(11, 200.0, 5.0));
        assert_ne!(a, poisson_schedule(12, 200.0, 5.0));
        // About rate × seconds arrivals, strictly increasing, in range.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));

        let order = |o: LineOrder| (0..500).map(|i| o.line(i, 6)).collect::<Vec<_>>();
        assert_eq!(order(LineOrder::Random(3)), order(LineOrder::Random(3)));
        assert_ne!(order(LineOrder::Random(3)), order(LineOrder::Random(4)));
        assert_eq!(order(LineOrder::Rotate)[..8], [0, 1, 2, 3, 4, 5, 0, 1]);
        // Random picks reach every pool line.
        let picks = order(LineOrder::Random(3));
        assert!((0..6).all(|k| picks.contains(&k)));
    }

    #[test]
    fn generated_lines_repeat_for_a_seed() {
        let a = lines(&traffic(5));
        assert_eq!(a, lines(&traffic(5)));
        assert_ne!(a, lines(&traffic(6)));
    }

    #[test]
    fn cold_rotation_never_repeats_a_couriers_previous_line() {
        let samples = cold_traffic(5);
        let pool = lines(&samples);
        let mut last: std::collections::HashMap<usize, usize> = Default::default();
        for i in 0..3 * pool.len() {
            let k = LineOrder::Rotate.line(i, pool.len());
            let courier = samples[k].query.courier_id;
            if let Some(&prev) = last.get(&courier) {
                assert_ne!(pool[prev], pool[k], "courier {courier} repeats its route state");
            }
            last.insert(courier, k);
        }
    }

    #[test]
    fn typical_states_have_the_same_size_for_every_seed() {
        for seed in 1..6 {
            let picked = typical_per_courier(&traffic(seed));
            assert_eq!(picked.len(), DatasetConfig::tiny(seed).n_couriers);
            for s in &picked {
                assert_eq!(
                    (s.query.num_locations(), s.query.distinct_aois().len()),
                    TYPICAL_SIZE,
                    "seed {seed} courier {}",
                    s.query.courier_id
                );
            }
        }
        let picked = typical_per_courier(&traffic(1));
        assert!(picked.windows(2).all(|w| w[0].query.courier_id < w[1].query.courier_id));
    }

    #[test]
    fn every_seed_serves_a_full_cold_pool_of_typical_states() {
        for seed in 1..11 {
            let pool = cold_traffic(seed);
            assert_eq!(pool.len(), COLD_POOL, "seed {seed}");
            assert!(pool.iter().all(|s| COLD_LOCATIONS.contains(&s.query.num_locations())));
        }
    }

    #[test]
    fn every_seed_serves_the_same_split_sizes_and_fleet() {
        for seed in 1..11 {
            let ds = dataset(seed);
            assert_eq!(
                (ds.train.len(), ds.val.len(), ds.test.len()),
                (TRAIN_SAMPLES, HELD_OUT_SAMPLES, HELD_OUT_SAMPLES),
                "seed {seed}"
            );
            assert_eq!(typical_per_courier(&ds.train).len(), ds.couriers.len(), "seed {seed}");
            assert_eq!(ds.validate(), Ok(()));
        }
    }

    #[test]
    fn traffic_stays_in_the_served_fleet_and_city() {
        let ds = dataset(5);
        for s in traffic(5) {
            assert!(s.query.courier_id < ds.couriers.len());
            assert!(s.query.orders.iter().all(|o| o.aoi_id < ds.city.aois.len()));
        }
    }

    #[test]
    fn traced_line_is_valid_json_with_the_trace_flag() {
        let line = &lines(&traffic(5))[0];
        let v: serde::Value = serde_json::from_str(&traced(line)).expect("valid JSON");
        assert!(matches!(v.get("trace"), Some(serde::Value::Bool(true))));
        assert!(v.get("courier_id").is_some());
    }
}
