//! The generated traffic does to the encoder cache what each workload
//! claims: cold route states always miss it, warm ones always hit it.

use std::path::Path;

use perfbench::inputs::{ServeInputs, Workload, DATASET_FILE, MODEL_FILE};
use perfbench::session::{self, Plan};

/// Serves `workload`'s traffic for one second and returns the cache
/// hit rate over the timed phases, with the number of lookups.
fn timed_hit_rate(workload: Workload) -> (f64, u64) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("traffic-{}", workload.name()));
    std::fs::create_dir_all(&dir).expect("work dir");
    // Fresh weights: caching does not depend on training, and the test
    // stays fast in debug builds.
    let inputs = ServeInputs::generate(workload, 9, 0);
    inputs.write(&dir).expect("inputs written");
    let plan = Plan {
        exe: Path::new(env!("CARGO_BIN_EXE_perfbench")),
        workload,
        dir: &dir,
        model_file: MODEL_FILE,
        dataset_file: DATASET_FILE,
        warmup: &inputs.warmup,
        pool: &inputs.pool,
        seed: 9,
        seconds: 1.0,
        starts: 1,
        stats_before: true,
    };
    let out = session::run(&plan).expect("session runs");
    std::fs::remove_dir_all(&dir).ok();
    let before = out.stats_before.expect("asked for");
    let delta = |name: &str| out.stats_after.counters[name] - before.counters[name];
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    (hits as f64 / (hits + misses).max(1) as f64, hits + misses)
}

#[test]
fn cold_traffic_misses_the_encoder_cache() {
    let (rate, lookups) = timed_hit_rate(Workload::ServeCold);
    assert!(lookups >= 20, "only {lookups} lookups");
    assert!(rate <= 0.01, "cold hit rate {rate}");
}

#[test]
fn warm_and_pipelined_traffic_hit_the_encoder_cache() {
    for workload in [Workload::ServeWarm, Workload::ServePipelined] {
        let (rate, lookups) = timed_hit_rate(workload);
        assert!(lookups >= 20, "{}: only {lookups} lookups", workload.name());
        assert!(rate >= 0.99, "{}: hit rate {rate}", workload.name());
    }
}
