//! Hand-rolled, unit-testable argument parsing for the `rtp` binary.

use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The selected subcommand with its options.
    pub command: Command,
}

/// The `rtp` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset and write it as JSON.
    Generate {
        /// Dataset scale preset: "tiny", "quick" or "full".
        scale: String,
        /// Generation seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// Train an M²G4RTP model on a dataset file.
    Train {
        /// Dataset JSON path.
        dataset: String,
        /// Epochs (0 = preset default).
        epochs: usize,
        /// Model variant label ("full", "two-step", "no-aoi",
        /// "no-graph", "no-uncertainty").
        variant: String,
        /// Training seed.
        seed: u64,
        /// Worker threads for the mini-batch loop (0 = all cores).
        threads: usize,
        /// Output model path.
        out: String,
        /// Optional JSONL span-trace path (empty = tracing off).
        log_json: String,
        /// Directory for durable per-epoch checkpoints (empty = off).
        checkpoint_dir: String,
        /// Resume from the latest checkpoint in `checkpoint_dir`.
        resume: bool,
    },
    /// Predict one test sample and compare with its label.
    Predict {
        /// Model JSON path.
        model: String,
        /// Dataset JSON path.
        dataset: String,
        /// Test-split sample index.
        sample: usize,
        /// Beam width (1 = greedy).
        beam: usize,
    },
    /// Evaluate a model over the dataset's test split.
    Evaluate {
        /// Model JSON path.
        model: String,
        /// Dataset JSON path.
        dataset: String,
    },
    /// Serve one or more model shards over TCP (newline-delimited
    /// JSON).
    Serve {
        /// Hosted model shards as `(name, path)` pairs, in `--model`
        /// order. A single bare `--model PATH` becomes the one shard
        /// `("default", PATH)`; repeated `--model NAME=PATH` flags
        /// host a fleet, with the first shard doubling as the default
        /// for requests without a `"city"` key.
        models: Vec<(String, String)>,
        /// Dataset JSON path (city/fleet context).
        dataset: String,
        /// TCP port (0 = ephemeral).
        port: u16,
        /// Maximum requests to serve before exiting (0 = forever).
        max_requests: usize,
        /// Worker-pool size (0 = all cores).
        workers: usize,
        /// Reap connections idle longer than this, seconds (0 = never).
        idle_timeout_secs: u64,
        /// Honour in-band `{"cmd":"shutdown"}` requests.
        allow_shutdown: bool,
        /// Periodic Prometheus snapshot path (empty = off).
        metrics_file: String,
        /// Snapshot period for `metrics_file`, seconds (0 = 5 s default).
        metrics_interval_secs: u64,
        /// Flight-recorder JSONL dump path on caught panics (empty = off).
        flight_dump: String,
    },
    /// Run an online-training loop: keep fitting a model on fresh
    /// simulated courier-days and hot-swap each round's weights into a
    /// running `rtp serve` instance over its `reload` verb.
    Online {
        /// Warm-start model JSON path.
        model: String,
        /// Dataset JSON path (base config for fresh courier-days).
        dataset: String,
        /// `host:port` of the running server to push reloads to.
        addr: String,
        /// Target shard name (empty = server default shard).
        shard: String,
        /// Training rounds to run.
        rounds: usize,
        /// Epochs per round.
        epochs_per_round: usize,
        /// Base seed for the per-round fresh datasets.
        seed: u64,
        /// Worker threads for the mini-batch loop (0 = all cores).
        threads: usize,
        /// Published model path — rewritten atomically every round.
        out: String,
        /// Directory for durable per-round checkpoints (empty = off).
        checkpoint_dir: String,
    },
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `rtp help`.
pub const USAGE: &str = "\
rtp — M2G4RTP route & time prediction toolkit

USAGE:
  rtp generate --scale <tiny|quick|full> [--seed N] --out <dataset.json>
  rtp train    --dataset <dataset.json> [--epochs N] [--variant V] [--seed N] [--threads N] [--log-json spans.jsonl]
               [--checkpoint-dir DIR] [--resume] --out <model.json>
  rtp predict  --model <model.json> --dataset <dataset.json> --sample <idx> [--beam W]
  rtp evaluate --model <model.json> --dataset <dataset.json>
  rtp serve    --model <model.json> --dataset <dataset.json> [--port P] [--max-requests N]
               [--workers N] [--idle-timeout-secs S] [--allow-shutdown]
               [--metrics-file PATH] [--metrics-interval-secs S] [--flight-dump PATH]
  rtp online   --model <model.json> --dataset <dataset.json> --addr <host:port> --out <model.json>
               [--shard NAME] [--rounds N] [--epochs-per-round N] [--seed N] [--threads N]
               [--checkpoint-dir DIR]
  rtp help

Online training: `rtp online` trains on a fresh simulated courier-day
each round, atomically rewrites --out, and pushes it into the server
at --addr with `{\"cmd\":\"reload\"}` — a zero-downtime hot-swap.

Sharding: `rtp serve` accepts --model repeatedly as NAME=PATH pairs
(e.g. --model city_a=a.json --model city_b=b.json) to host one model
per city; request lines pick a shard with a \"city\" key and fall back
to the first shard without one.
";

fn take_value<'a>(
    flag: &str,
    it: &mut (dyn Iterator<Item = &'a str> + '_),
) -> Result<String, ParseError> {
    it.next().map(str::to_string).ok_or_else(|| ParseError(format!("missing value for {flag}")))
}

/// Resolves the repeated `--model` values of a `serve` invocation into
/// `(shard_name, path)` pairs.
///
/// * one bare `PATH` ⇒ the single shard `("default", PATH)` — the
///   legacy single-model form;
/// * one or more `NAME=PATH` pairs ⇒ one shard each, first = default
///   shard. Names must be non-empty, unique, and metric-safe
///   (alphanumeric plus `_`/`-`), since they become
///   `serve.shard.<name>.*` metric names;
/// * mixing bare and named forms is rejected — a bare path has no
///   name to route on.
fn parse_shard_models(models: &[String]) -> Result<Vec<(String, String)>, ParseError> {
    let (named, bare): (Vec<&String>, Vec<&String>) = models.iter().partition(|m| m.contains('='));
    if !bare.is_empty() && (!named.is_empty() || bare.len() > 1) {
        return Err(ParseError(
            "serve: with multiple shards every --model must be NAME=PATH".into(),
        ));
    }
    if let [path] = bare[..] {
        return Ok(vec![("default".to_string(), path.clone())]);
    }
    let mut shards = Vec::with_capacity(named.len());
    for m in named {
        let (name, path) = m.split_once('=').expect("partitioned on '='");
        if name.is_empty() || path.is_empty() {
            return Err(ParseError(format!("serve: bad --model `{m}`: expected NAME=PATH")));
        }
        if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
            return Err(ParseError(format!(
                "serve: bad shard name `{name}`: use alphanumerics, `_` or `-`"
            )));
        }
        if shards.iter().any(|(n, _)| n == name) {
            return Err(ParseError(format!("serve: duplicate shard name `{name}`")));
        }
        shards.push((name.to_string(), path.to_string()));
    }
    Ok(shards)
}

/// Parses the arguments after the program name.
pub fn parse(args: &[&str]) -> Result<Cli, ParseError> {
    let mut it = args.iter().copied();
    let sub = it.next().ok_or_else(|| ParseError("missing subcommand; try `rtp help`".into()))?;

    let mut scale = "quick".to_string();
    let mut seed = 2023u64;
    let mut out = String::new();
    let mut dataset = String::new();
    let mut models: Vec<String> = Vec::new();
    let mut epochs = 0usize;
    let mut threads = 0usize;
    let mut variant = "full".to_string();
    let mut sample = 0usize;
    let mut beam = 1usize;
    let mut port = 0u16;
    let mut max_requests = 0usize;
    let mut workers = 0usize;
    let mut idle_timeout_secs = 0u64;
    let mut allow_shutdown = false;
    let mut log_json = String::new();
    let mut checkpoint_dir = String::new();
    let mut resume = false;
    let mut metrics_file = String::new();
    let mut metrics_interval_secs = 0u64;
    let mut flight_dump = String::new();
    let mut addr = String::new();
    let mut shard = String::new();
    let mut rounds = 3usize;
    let mut epochs_per_round = 1usize;

    while let Some(flag) = it.next() {
        let v = |it: &mut dyn Iterator<Item = &str>| take_value(flag, it);
        match flag {
            "--scale" => scale = v(&mut it)?,
            "--seed" => seed = v(&mut it)?.parse().map_err(|_| ParseError("bad --seed".into()))?,
            "--out" => out = v(&mut it)?,
            "--dataset" => dataset = v(&mut it)?,
            // Repeatable for `serve` (shards); single-valued commands
            // take the last occurrence, the historical behaviour.
            "--model" => models.push(v(&mut it)?),
            // The epoll reactor is the only front end; `evented` stays
            // accepted as a no-op so existing command lines keep working.
            "--frontend" => match v(&mut it)?.as_str() {
                "evented" => {}
                "threaded" => {
                    return Err(ParseError(
                        "`--frontend threaded` was removed: the evented front end is the only one"
                            .into(),
                    ))
                }
                other => return Err(ParseError(format!("unknown frontend `{other}` (evented)"))),
            },
            "--epochs" => {
                epochs = v(&mut it)?.parse().map_err(|_| ParseError("bad --epochs".into()))?
            }
            "--threads" => {
                threads = v(&mut it)?.parse().map_err(|_| ParseError("bad --threads".into()))?
            }
            "--variant" => variant = v(&mut it)?,
            "--sample" => {
                sample = v(&mut it)?.parse().map_err(|_| ParseError("bad --sample".into()))?
            }
            "--beam" => beam = v(&mut it)?.parse().map_err(|_| ParseError("bad --beam".into()))?,
            "--port" => port = v(&mut it)?.parse().map_err(|_| ParseError("bad --port".into()))?,
            "--max-requests" => {
                max_requests =
                    v(&mut it)?.parse().map_err(|_| ParseError("bad --max-requests".into()))?
            }
            "--workers" => {
                workers = v(&mut it)?.parse().map_err(|_| ParseError("bad --workers".into()))?
            }
            "--idle-timeout-secs" => {
                idle_timeout_secs =
                    v(&mut it)?.parse().map_err(|_| ParseError("bad --idle-timeout-secs".into()))?
            }
            "--allow-shutdown" => allow_shutdown = true,
            // Serve does no cross-request batching (every prediction
            // runs on the worker that read its line); both flags stay
            // accepted and ignored so existing command lines, the
            // benchmark's among them, keep working.
            "--batch-max" | "--batch-window-us" => {
                v(&mut it)?;
            }
            "--log-json" => log_json = v(&mut it)?,
            "--checkpoint-dir" => checkpoint_dir = v(&mut it)?,
            "--resume" => resume = true,
            "--metrics-file" => metrics_file = v(&mut it)?,
            "--metrics-interval-secs" => {
                metrics_interval_secs = v(&mut it)?
                    .parse()
                    .map_err(|_| ParseError("bad --metrics-interval-secs".into()))?
            }
            "--flight-dump" => flight_dump = v(&mut it)?,
            "--addr" => addr = v(&mut it)?,
            "--shard" => shard = v(&mut it)?,
            "--rounds" => {
                rounds = v(&mut it)?.parse().map_err(|_| ParseError("bad --rounds".into()))?
            }
            "--epochs-per-round" => {
                epochs_per_round =
                    v(&mut it)?.parse().map_err(|_| ParseError("bad --epochs-per-round".into()))?
            }
            // Every tape runs the bit-exact kernels; `exact` stays
            // accepted as a no-op so existing command lines, the
            // benchmark's among them, keep working.
            "--numerics" => match v(&mut it)?.as_str() {
                "exact" => {}
                "quantized" => {
                    return Err(ParseError(
                        "`--numerics quantized` was removed: its i8 decoders flipped most \
                         route decisions; exact is the only tier"
                            .into(),
                    ))
                }
                "fast" => {
                    return Err(ParseError(
                        "`--numerics fast` was removed: it served fewer requests per second \
                         than exact; exact is the only tier"
                            .into(),
                    ))
                }
                other => {
                    return Err(ParseError(format!("unknown numerics tier `{other}` (exact)")))
                }
            },
            other => return Err(ParseError(format!("unknown flag `{other}`"))),
        }
    }

    let require = |name: &str, val: &str| -> Result<(), ParseError> {
        if val.is_empty() {
            Err(ParseError(format!("{sub}: missing required --{name}")))
        } else {
            Ok(())
        }
    };
    // Single-model commands take the last --model, as before shards.
    let model = models.last().cloned().unwrap_or_default();

    let command = match sub {
        "generate" => {
            require("out", &out)?;
            if !["tiny", "quick", "full"].contains(&scale.as_str()) {
                return Err(ParseError(format!("unknown scale `{scale}`")));
            }
            Command::Generate { scale, seed, out }
        }
        "train" => {
            require("dataset", &dataset)?;
            require("out", &out)?;
            if !["full", "two-step", "no-aoi", "no-graph", "no-uncertainty"]
                .contains(&variant.as_str())
            {
                return Err(ParseError(format!("unknown variant `{variant}`")));
            }
            if resume && checkpoint_dir.is_empty() {
                return Err(ParseError("--resume requires --checkpoint-dir".into()));
            }
            Command::Train {
                dataset,
                epochs,
                variant,
                seed,
                threads,
                out,
                log_json,
                checkpoint_dir,
                resume,
            }
        }
        "predict" => {
            require("model", &model)?;
            require("dataset", &dataset)?;
            if beam == 0 {
                return Err(ParseError("--beam must be >= 1".into()));
            }
            Command::Predict { model, dataset, sample, beam }
        }
        "evaluate" => {
            require("model", &model)?;
            require("dataset", &dataset)?;
            Command::Evaluate { model, dataset }
        }
        "serve" => {
            require("model", &model)?;
            require("dataset", &dataset)?;
            if metrics_file.is_empty() && metrics_interval_secs != 0 {
                return Err(ParseError("--metrics-interval-secs requires --metrics-file".into()));
            }
            Command::Serve {
                models: parse_shard_models(&models)?,
                dataset,
                port,
                max_requests,
                workers,
                idle_timeout_secs,
                allow_shutdown,
                metrics_file,
                metrics_interval_secs,
                flight_dump,
            }
        }
        "online" => {
            require("model", &model)?;
            require("dataset", &dataset)?;
            require("addr", &addr)?;
            require("out", &out)?;
            if rounds == 0 {
                return Err(ParseError("--rounds must be >= 1".into()));
            }
            if epochs_per_round == 0 {
                return Err(ParseError("--epochs-per-round must be >= 1".into()));
            }
            Command::Online {
                model,
                dataset,
                addr,
                shard,
                rounds,
                epochs_per_round,
                seed,
                threads,
                out,
                checkpoint_dir,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown subcommand `{other}`"))),
    };
    Ok(Cli { command })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_generate() {
        let cli =
            parse(&["generate", "--scale", "tiny", "--seed", "9", "--out", "d.json"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Generate { scale: "tiny".into(), seed: 9, out: "d.json".into() }
        );
    }

    #[test]
    fn parses_train_with_defaults() {
        let cli = parse(&["train", "--dataset", "d.json", "--out", "m.json"]).unwrap();
        match cli.command {
            Command::Train { epochs, variant, seed, threads, log_json, .. } => {
                assert_eq!(epochs, 0);
                assert_eq!(variant, "full");
                assert_eq!(seed, 2023);
                assert_eq!(threads, 0);
                assert!(log_json.is_empty(), "tracing is off by default");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_train_log_json() {
        let cli = parse(&[
            "train",
            "--dataset",
            "d.json",
            "--out",
            "m.json",
            "--log-json",
            "spans.jsonl",
        ])
        .unwrap();
        match cli.command {
            Command::Train { log_json, .. } => assert_eq!(log_json, "spans.jsonl"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["train", "--dataset", "d", "--out", "m", "--log-json"]).is_err());
    }

    #[test]
    fn parses_train_threads() {
        let cli =
            parse(&["train", "--dataset", "d.json", "--out", "m.json", "--threads", "4"]).unwrap();
        assert!(matches!(cli.command, Command::Train { threads: 4, .. }));
        assert!(parse(&["train", "--dataset", "d", "--out", "m", "--threads", "x"]).is_err());
    }

    #[test]
    fn parses_train_checkpoint_flags() {
        let cli = parse(&["train", "--dataset", "d.json", "--out", "m.json"]).unwrap();
        match cli.command {
            Command::Train { checkpoint_dir, resume, .. } => {
                assert!(checkpoint_dir.is_empty(), "checkpointing is off by default");
                assert!(!resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse(&[
            "train",
            "--dataset",
            "d.json",
            "--out",
            "m.json",
            "--checkpoint-dir",
            "ck",
            "--resume",
        ])
        .unwrap();
        match cli.command {
            Command::Train { checkpoint_dir, resume, .. } => {
                assert_eq!(checkpoint_dir, "ck");
                assert!(resume);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(
            parse(&["train", "--dataset", "d", "--out", "m", "--resume"]).is_err(),
            "--resume without --checkpoint-dir must be rejected"
        );
        assert!(parse(&["train", "--dataset", "d", "--out", "m", "--checkpoint-dir"]).is_err());
    }

    #[test]
    fn parses_serve_and_predict() {
        let cli = parse(&[
            "serve",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--port",
            "7878",
            "--max-requests",
            "5",
        ])
        .unwrap();
        match cli.command {
            Command::Serve {
                port,
                max_requests,
                workers,
                idle_timeout_secs,
                allow_shutdown,
                ..
            } => {
                assert_eq!(port, 7878);
                assert_eq!(max_requests, 5);
                assert_eq!(workers, 0, "default worker count is all cores");
                assert_eq!(idle_timeout_secs, 0, "idle reaping off by default");
                assert!(!allow_shutdown, "in-band shutdown off by default");
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse(&[
            "predict",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--sample",
            "3",
            "--beam",
            "4",
        ])
        .unwrap();
        assert!(matches!(cli.command, Command::Predict { sample: 3, beam: 4, .. }));
    }

    #[test]
    fn parses_serve_pool_flags() {
        let cli = parse(&[
            "serve",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--workers",
            "4",
            "--idle-timeout-secs",
            "30",
            "--allow-shutdown",
        ])
        .unwrap();
        assert!(matches!(
            cli.command,
            Command::Serve { workers: 4, idle_timeout_secs: 30, allow_shutdown: true, .. }
        ));
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--workers", "x"]).is_err());
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--idle-timeout-secs", "-1"])
            .is_err());
    }

    #[test]
    fn parses_serve_batch_flags() {
        // Both flags take a value, whatever it is, and change nothing.
        let plain = parse(&["serve", "--model", "m", "--dataset", "d"]).unwrap();
        for (max, window) in [("8", "1500"), ("1", "0"), ("0", "-5"), ("x", "y")] {
            let args = [
                "serve",
                "--model",
                "m",
                "--dataset",
                "d",
                "--batch-max",
                max,
                "--batch-window-us",
                window,
            ];
            assert_eq!(
                parse(&args).unwrap(),
                plain,
                "--batch-max {max} --batch-window-us {window}"
            );
        }
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--batch-max"]).is_err());
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--batch-window-us"]).is_err());
    }

    #[test]
    fn parses_serve_observability_flags() {
        // Defaults: no snapshot writer, no flight dump.
        let cli = parse(&["serve", "--model", "m", "--dataset", "d"]).unwrap();
        match cli.command {
            Command::Serve { metrics_file, metrics_interval_secs, flight_dump, .. } => {
                assert!(metrics_file.is_empty());
                assert_eq!(metrics_interval_secs, 0);
                assert!(flight_dump.is_empty());
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse(&[
            "serve",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--metrics-file",
            "prom.txt",
            "--metrics-interval-secs",
            "2",
            "--flight-dump",
            "flight.jsonl",
        ])
        .unwrap();
        match cli.command {
            Command::Serve { metrics_file, metrics_interval_secs, flight_dump, .. } => {
                assert_eq!(metrics_file, "prom.txt");
                assert_eq!(metrics_interval_secs, 2);
                assert_eq!(flight_dump, "flight.jsonl");
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--metrics-file"]).is_err());
        assert!(parse(&[
            "serve",
            "--model",
            "m",
            "--dataset",
            "d",
            "--metrics-interval-secs",
            "x"
        ])
        .is_err());
        assert!(
            parse(&["serve", "--model", "m", "--dataset", "d", "--metrics-interval-secs", "3"])
                .is_err(),
            "--metrics-interval-secs without --metrics-file must be rejected"
        );
    }

    #[test]
    fn parses_numerics_flag() {
        // `exact` is a no-op on both subcommands; the removed tiers are
        // refused by name, anything else is an unknown tier.
        for sub in ["serve", "evaluate"] {
            let plain = parse(&[sub, "--model", "m", "--dataset", "d"]).unwrap();
            let exact = parse(&[sub, "--model", "m", "--dataset", "d", "--numerics", "exact"]);
            assert_eq!(exact.unwrap(), plain);
            for tier in ["quantized", "fast"] {
                let err = parse(&[sub, "--model", "m", "--dataset", "d", "--numerics", tier])
                    .expect_err("the approximate tiers are gone");
                assert!(err.0.contains(&format!("`--numerics {tier}` was removed: ")), "{err}");
            }
            let err = parse(&[sub, "--model", "m", "--dataset", "d", "--numerics", "f16"])
                .expect_err("unknown tier");
            assert!(err.0.contains("unknown numerics tier `f16`"), "{err}");
            assert!(parse(&[sub, "--model", "m", "--dataset", "d", "--numerics"]).is_err());
        }
    }

    #[test]
    fn serve_single_bare_model_is_the_default_shard() {
        let cli = parse(&["serve", "--model", "m.json", "--dataset", "d.json"]).unwrap();
        match cli.command {
            Command::Serve { models, .. } => {
                assert_eq!(models, vec![("default".to_string(), "m.json".to_string())]);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Single-model commands keep last-one-wins semantics.
        let cli = parse(&["predict", "--model", "a", "--model", "b", "--dataset", "d"]).unwrap();
        assert!(matches!(cli.command, Command::Predict { ref model, .. } if model == "b"));
    }

    #[test]
    fn serve_repeated_named_models_become_shards_in_flag_order() {
        let cli = parse(&[
            "serve",
            "--model",
            "city_a=a.json",
            "--model",
            "city-b=b.json",
            "--dataset",
            "d.json",
        ])
        .unwrap();
        match cli.command {
            Command::Serve { models, .. } => {
                assert_eq!(
                    models,
                    vec![
                        ("city_a".to_string(), "a.json".to_string()),
                        ("city-b".to_string(), "b.json".to_string()),
                    ]
                );
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_malformed_shard_specs() {
        // Two bare paths: no names to route on.
        assert!(parse(&["serve", "--model", "a", "--model", "b", "--dataset", "d"]).is_err());
        // Bare + named mix.
        assert!(parse(&["serve", "--model", "a", "--model", "x=b", "--dataset", "d"]).is_err());
        // Empty name / empty path.
        assert!(parse(&["serve", "--model", "=b", "--dataset", "d"]).is_err());
        assert!(parse(&["serve", "--model", "a=", "--dataset", "d"]).is_err());
        // Metric-unsafe shard name.
        assert!(parse(&["serve", "--model", "a b=c", "--dataset", "d"]).is_err());
        // Duplicate shard name.
        assert!(
            parse(&["serve", "--model", "x=a", "--model", "x=b", "--dataset", "d"]).is_err(),
            "duplicate shard names must be rejected"
        );
    }

    #[test]
    fn parses_frontend_flag() {
        let plain = parse(&["serve", "--model", "m", "--dataset", "d"]).unwrap();
        let evented =
            parse(&["serve", "--model", "m", "--dataset", "d", "--frontend", "evented"]).unwrap();
        assert_eq!(plain, evented);
        let err = parse(&["serve", "--model", "m", "--dataset", "d", "--frontend", "threaded"])
            .expect_err("the threaded front end is gone");
        assert!(err.0.contains("`--frontend threaded` was removed"), "{err}");
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--frontend", "poll"]).is_err());
        assert!(parse(&["serve", "--model", "m", "--dataset", "d", "--frontend"]).is_err());
    }

    /// The benchmark (`perfbench/`) starts `rtp serve` with a fixed flag
    /// set; a parser change that rejects it would break the benchmark,
    /// so the flags are read from its source and parsed here.
    #[test]
    fn parses_the_benchmark_server_flags() {
        let source = include_str!("../../../perfbench/src/session.rs");
        let start = source.find("const SERVER_FLAGS").expect("SERVER_FLAGS is declared");
        let body = &source[start..];
        let body = &body[body.find("= [").expect("array literal")..body.find("];").expect("end")];
        let flags: Vec<&str> = body.split('"').skip(1).step_by(2).collect();
        assert!(flags.contains(&"--frontend") && flags.contains(&"--numerics"), "{flags:?}");
        let mut args = vec!["serve", "--model", "m.json", "--dataset", "d.json"];
        args.extend(&flags);
        match parse(&args).expect("the benchmark's server command line parses").command {
            Command::Serve { workers, allow_shutdown, .. } => {
                assert_eq!(workers, 2);
                assert!(allow_shutdown);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["generate"]).is_err(), "missing --out");
        assert!(parse(&["generate", "--scale", "mega", "--out", "x"]).is_err());
        assert!(parse(&["train", "--dataset", "d", "--out", "m", "--variant", "bogus"]).is_err());
        assert!(parse(&["predict", "--model", "m", "--dataset", "d", "--beam", "0"]).is_err());
        assert!(parse(&["generate", "--seed"]).is_err(), "dangling flag value");
        assert!(parse(&["generate", "--wat", "1", "--out", "x"]).is_err());
    }

    #[test]
    fn parses_online_with_defaults() {
        let cli = parse(&[
            "online",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--addr",
            "127.0.0.1:7878",
            "--out",
            "pub.json",
        ])
        .unwrap();
        match cli.command {
            Command::Online { model, dataset, addr, shard, rounds, epochs_per_round, .. } => {
                assert_eq!(model, "m.json");
                assert_eq!(dataset, "d.json");
                assert_eq!(addr, "127.0.0.1:7878");
                assert!(shard.is_empty(), "default shard is the server's default");
                assert_eq!(rounds, 3);
                assert_eq!(epochs_per_round, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_online_flags() {
        let cli = parse(&[
            "online",
            "--model",
            "m.json",
            "--dataset",
            "d.json",
            "--addr",
            "h:1",
            "--out",
            "p.json",
            "--shard",
            "city_a",
            "--rounds",
            "5",
            "--epochs-per-round",
            "2",
            "--checkpoint-dir",
            "ck",
        ])
        .unwrap();
        match cli.command {
            Command::Online { shard, rounds, epochs_per_round, checkpoint_dir, .. } => {
                assert_eq!(shard, "city_a");
                assert_eq!(rounds, 5);
                assert_eq!(epochs_per_round, 2);
                assert_eq!(checkpoint_dir, "ck");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn online_rejects_bad_input() {
        // Every required flag missing in turn.
        assert!(parse(&["online", "--dataset", "d", "--addr", "a", "--out", "p"]).is_err());
        assert!(parse(&["online", "--model", "m", "--addr", "a", "--out", "p"]).is_err());
        assert!(parse(&["online", "--model", "m", "--dataset", "d", "--out", "p"]).is_err());
        assert!(parse(&["online", "--model", "m", "--dataset", "d", "--addr", "a"]).is_err());
        let base = ["online", "--model", "m", "--dataset", "d", "--addr", "a", "--out", "p"];
        let with = |extra: &[&'static str]| [&base[..], extra].concat();
        assert!(parse(&with(&["--rounds", "0"])).is_err(), "zero rounds is a no-op loop");
        assert!(parse(&with(&["--rounds", "x"])).is_err());
        assert!(parse(&with(&["--epochs-per-round", "0"])).is_err());
        assert!(parse(&with(&["--epochs-per-round", "x"])).is_err());
    }

    #[test]
    fn help_parses() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&[h]).unwrap().command, Command::Help);
        }
    }
}
