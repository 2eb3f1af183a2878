//! The run's output: a human-readable table (each metric with its unit
//! and sample count, then the host diagnostics), and as the last line
//! the JSON result object.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it rests on.
    pub samples: usize,
}

impl Metric {
    /// A metric built from `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// The verdict on a run's outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed or whose output was wrong.
    pub failed: usize,
}

impl Tally {
    /// Counts one operation.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// Prints the table (the result's metrics, then `recorded` ones that
/// stay out of the result), the diagnostics and the final JSON line.
pub fn print(
    workload: &str,
    metrics: &[Metric],
    recorded: &[Metric],
    tally: Tally,
    diagnostics: &[(&str, f64)],
    errors: &[String],
) {
    println!("# {workload}: {} attempted, {} failed", tally.attempted, tally.failed);
    for (m, note) in metrics
        .iter()
        .map(|m| (m, ""))
        .chain(recorded.iter().map(|m| (m, " (recorded, not gated)")))
    {
        println!("# {:<40} {:>16.4} {:<8} n={}{note}", m.name, m.value, m.unit, m.samples);
    }
    let diag: Vec<String> = diagnostics.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
    println!("# host (recorded, never gated): {}", diag.join(" "));
    for e in errors.iter().take(5) {
        println!("# failure: {e}");
    }
    println!("{}", result_json(metrics, tally));
}

/// The result object: `correct`, `attempted`, `failed` and every
/// metric's value and unit.
pub fn result_json(metrics: &[Metric], tally: Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// A JSON number with every digit of the measurement (non-finite
/// values, which JSON cannot hold, print as 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_the_four_keys_and_full_digits() {
        let mut tally = Tally::default();
        tally.count(true);
        tally.count(true);
        let json = result_json(&[Metric::new("setup_s", 0.123456789, "s", 5)], tally);
        assert_eq!(
            json,
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.123456789,\"unit\":\"s\"}}}"
        );
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v.get("metrics").and_then(|m| m.get("setup_s")).is_some());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.count(true);
        tally.count(false);
        assert!(
            result_json(&[], tally).starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1")
        );
        assert!(result_json(&[], Tally::default()).starts_with("{\"correct\":false"));
    }
}
