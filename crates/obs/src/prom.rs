//! Prometheus text exposition: renders a metrics [`Snapshot`] in the
//! text format any scraper (or `watch cat`) understands, and a small
//! validating parser used by tests and CI to check what we emit.
//!
//! Counters and gauges render as single samples. Histograms render the
//! full log2-linear distribution as cumulative `_bucket{le="..."}`
//! samples plus `_sum` and `_count`. Because histogram samples are
//! integers, each bucket's upper bound is exact: bucket `i` covers
//! `bucket_floor(i) ..= bucket_floor(i+1) - 1`, so `le` is the
//! inclusive integer bound rather than a lossy float edge. Empty
//! buckets are skipped (the cumulative count is unchanged there), which
//! keeps a 976-bucket histogram's exposition proportional to the
//! number of *occupied* buckets.
//!
//! Metric names have `.` and `-` mapped to `_`
//! (`serve.stage.forward_us` → `serve_stage_forward_us`).

use crate::metrics::{bucket_floor, Snapshot, NUM_BUCKETS};

/// Maps a registry metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): `.` and `-` become `_`, any other
/// illegal character becomes `_`, and a leading digit is prefixed.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an f64 the way Prometheus expects (`+Inf`/`-Inf`/`NaN`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as Prometheus text exposition format.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*value)));
    }
    for (name, h) in &snap.histograms {
        let n = sanitize(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let counts = h.bucket_counts();
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if i + 1 < NUM_BUCKETS {
                // Samples are integers, so the inclusive integer upper
                // bound of bucket i is exact.
                out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", bucket_floor(i + 1) - 1));
            }
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
        out.push_str(&format!("{n}_sum {}\n", h.sum()));
        out.push_str(&format!("{n}_count {}\n", h.count()));
    }
    out
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Per-histogram-family state accumulated while validating.
#[derive(Default)]
struct Family {
    last_le: Option<f64>,
    last_cum: Option<u64>,
    inf: Option<u64>,
    sum: bool,
    count: Option<u64>,
}

/// Validates Prometheus text exposition: metric-name and label syntax,
/// parseable sample values, per-histogram monotone non-decreasing
/// cumulative bucket counts with strictly increasing `le` bounds, a
/// `+Inf` bucket, and `_count` equal to the `+Inf` bucket. Returns the
/// number of sample lines on success.
pub fn validate(text: &str) -> Result<usize, String> {
    use std::collections::BTreeMap;
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut samples = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: &str| Err(format!("line {}: {msg}: {line}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let words: Vec<&str> = rest.split_whitespace().collect();
            if words.first() == Some(&"TYPE") {
                if words.len() != 3 || !valid_name(words[1]) {
                    return err("malformed TYPE comment");
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&words[2]) {
                    return err("unknown metric type");
                }
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return err("sample line has no value"),
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let Some(body) = rest.strip_suffix('}') else {
                    return err("unterminated label set");
                };
                (n, Some(body))
            }
            None => (name_part, None),
        };
        if !valid_name(name) {
            return err("invalid metric name");
        }
        let mut le: Option<f64> = None;
        if let Some(body) = labels {
            for pair in body.split(',') {
                let Some((k, v)) = pair.split_once('=') else {
                    return err("label without '='");
                };
                if !valid_name(k) {
                    return err("invalid label name");
                }
                let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                    return err("label value not quoted");
                };
                if k == "le" {
                    le = Some(if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        match v.parse::<f64>() {
                            Ok(x) => x,
                            Err(_) => return err("unparseable le bound"),
                        }
                    });
                }
            }
        }
        let value: f64 = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => match v.parse() {
                Ok(x) => x,
                Err(_) => return err("unparseable sample value"),
            },
        };
        samples += 1;
        if let Some(base) = name.strip_suffix("_bucket") {
            let Some(le) = le else {
                return err("_bucket sample without le label");
            };
            let fam = families.entry(base.to_string()).or_default();
            if let Some(prev) = fam.last_le {
                if le <= prev {
                    return err("le bounds not strictly increasing");
                }
            }
            let cum = value as u64;
            if let Some(prev) = fam.last_cum {
                if cum < prev {
                    return err("cumulative bucket count decreased");
                }
            }
            fam.last_le = Some(le);
            fam.last_cum = Some(cum);
            if le == f64::INFINITY {
                fam.inf = Some(cum);
            }
        } else if let Some(base) = name.strip_suffix("_sum") {
            if let Some(fam) = families.get_mut(base) {
                fam.sum = true;
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if let Some(fam) = families.get_mut(base) {
                fam.count = Some(value as u64);
            }
        }
    }
    for (base, fam) in &families {
        let Some(inf) = fam.inf else {
            return Err(format!("histogram {base}: missing le=\"+Inf\" bucket"));
        };
        if !fam.sum {
            return Err(format!("histogram {base}: missing {base}_sum"));
        }
        match fam.count {
            Some(c) if c == inf => {}
            Some(c) => {
                return Err(format!("histogram {base}: _count {c} != +Inf bucket {inf}"));
            }
            None => return Err(format!("histogram {base}: missing {base}_count")),
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("serve.requests").add(17);
        r.gauge("serve.cache.hit_rate").set(0.75);
        let h = r.histogram("serve.stage.forward_us");
        for v in [3u64, 3, 17, 900, 901, 123_456] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn render_output_validates_and_names_are_sanitized() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE serve_requests counter\nserve_requests 17\n"), "{text}");
        assert!(text.contains("serve_cache_hit_rate 0.75\n"), "{text}");
        assert!(text.contains("# TYPE serve_stage_forward_us histogram\n"), "{text}");
        assert!(text.contains("serve_stage_forward_us_bucket{le=\"+Inf\"} 6\n"), "{text}");
        assert!(text.contains("serve_stage_forward_us_count 6\n"), "{text}");
        let samples = validate(&text).expect("rendered text must validate");
        assert!(samples >= 6, "expected several samples, got {samples}");
    }

    #[test]
    fn bucket_bounds_are_exact_inclusive_integers() {
        let text = render(&sample_snapshot());
        // 3 lands in exact bucket 3: le = 3. Two samples there.
        assert!(text.contains("serve_stage_forward_us_bucket{le=\"3\"} 2\n"), "{text}");
        // 17 lands in [16,17]: le = 17, cumulative 3.
        assert!(text.contains("serve_stage_forward_us_bucket{le=\"17\"} 3\n"), "{text}");
        // 900 and 901 share bucket [896,927]: le = 927, cumulative 5.
        assert!(text.contains("serve_stage_forward_us_bucket{le=\"927\"} 5\n"), "{text}");
        // _sum is the exact raw sum, not a bucket approximation.
        let sum: u64 = [3u64, 3, 17, 900, 901, 123_456].iter().sum();
        assert!(text.contains(&format!("serve_stage_forward_us_sum {sum}\n")), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_and_validates() {
        let text = render(&Snapshot::default());
        assert!(text.is_empty());
        assert_eq!(validate(&text), Ok(0));
    }

    #[test]
    fn empty_histogram_still_emits_inf_sum_count() {
        let r = Registry::new();
        r.histogram("empty.h");
        let text = render(&r.snapshot());
        assert!(text.contains("empty_h_bucket{le=\"+Inf\"} 0\n"), "{text}");
        assert!(text.contains("empty_h_sum 0\n"), "{text}");
        assert!(text.contains("empty_h_count 0\n"), "{text}");
        validate(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_text() {
        let bad = [
            "9metric 1\n",                                   // bad name
            "m{le=3} 1\n",                                   // unquoted label
            "m{le\"3\"} 1\n",                                // label without =
            "m 1 2 3\nx\n",                                  // no value on line 2
            "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n",  // cum decreased
            "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n",  // le not increasing
            "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",    // missing +Inf
            "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", // count mismatch
            "h_bucket{le=\"+Inf\"} 2\nh_count 2\n",          // missing sum
            "h_bucket{le=\"+Inf\"} 2\nh_sum 1\n",            // missing count
            "# TYPE h wibble\n",                             // unknown type
        ];
        for text in bad {
            assert!(validate(text).is_err(), "should reject: {text:?}");
        }
    }

    #[test]
    fn sanitize_maps_onto_name_grammar() {
        assert_eq!(sanitize("serve.stage.forward_us"), "serve_stage_forward_us");
        assert_eq!(sanitize("train.val-krc"), "train_val_krc");
        assert_eq!(sanitize("1weird name"), "_1weird_name");
        assert!(valid_name(&sanitize("1weird name")));
    }

    #[test]
    fn special_floats_render_in_prometheus_spelling() {
        let r = Registry::new();
        r.gauge("g.nan").set(f64::NAN);
        r.gauge("g.inf").set(f64::INFINITY);
        let text = render(&r.snapshot());
        assert!(text.contains("g_inf +Inf\n"), "{text}");
        assert!(text.contains("g_nan NaN\n"), "{text}");
        validate(&text).unwrap();
    }
}
