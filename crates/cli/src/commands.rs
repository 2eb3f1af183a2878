//! Implementations of the CLI subcommands.

use std::fs;
use std::path::Path;

use m2g4rtp::{CheckpointOptions, M2G4Rtp, ModelConfig, SavedModel, TrainConfig, Trainer, Variant};
use rtp_metrics::{
    acc_at, hr_at_k, krc, lsd, mae, rmse, Bucket, RouteMetricAccumulator, TimeMetricAccumulator,
};
use rtp_obs::fsio::write_atomic_str;
use rtp_sim::{Dataset, DatasetBuilder, DatasetConfig};

use crate::args::Command;
use crate::serve;

/// Runs a parsed command, returning the process exit code. All output
/// goes to `out` (stdout in `main`, a buffer in tests).
pub fn run(command: Command, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    match command {
        Command::Help => {
            writeln!(out, "{}", crate::args::USAGE)?;
            Ok(0)
        }
        Command::Generate { scale, seed, out: path } => {
            let config = match scale.as_str() {
                "tiny" => DatasetConfig::tiny(seed),
                "quick" => DatasetConfig::quick(seed),
                "full" => DatasetConfig { seed, ..DatasetConfig::default() },
                other => unreachable!("parser rejects scale {other}"),
            };
            let dataset = DatasetBuilder::new(config).build();
            write_atomic_str(Path::new(&path), &dataset.to_json().expect("serialise dataset"))?;
            writeln!(
                out,
                "wrote {path}: {} train / {} val / {} test samples, {} AOIs, {} couriers",
                dataset.train.len(),
                dataset.val.len(),
                dataset.test.len(),
                dataset.city.aois.len(),
                dataset.couriers.len()
            )?;
            Ok(0)
        }
        Command::Train {
            dataset: dataset_path,
            epochs,
            variant,
            seed,
            threads,
            out: path,
            log_json,
            checkpoint_dir,
            resume,
        } => {
            let dataset = load_dataset(&dataset_path)?;
            if dataset.train.is_empty() {
                // The feature scaler is fitted on the training graphs.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{dataset_path}: the train split is empty: there is nothing to train on"
                    ),
                ));
            }
            if !log_json.is_empty() {
                rtp_obs::trace::attach_file(&log_json)?;
            }
            // The trainer records epoch progress through the flight
            // recorder, so a crash mid-training has history to dump.
            rtp_obs::flight::set_enabled(true);
            let variant = match variant.as_str() {
                "full" => Variant::Full,
                "two-step" => Variant::TwoStep,
                "no-aoi" => Variant::NoAoi,
                "no-graph" => Variant::NoGraph,
                "no-uncertainty" => Variant::NoUncertainty,
                other => unreachable!("parser rejects variant {other}"),
            };
            let mut train_cfg = TrainConfig { verbose: true, threads, ..TrainConfig::quick() };
            if epochs > 0 {
                train_cfg.epochs = epochs;
            }
            let mut model =
                M2G4Rtp::new(ModelConfig::for_dataset(&dataset).with_variant(variant), seed);
            writeln!(
                out,
                "training {} ({} parameters)...",
                variant.label(),
                model.num_parameters()
            )?;
            let ckpt = (!checkpoint_dir.is_empty()).then(|| {
                if resume {
                    CheckpointOptions::resume(&checkpoint_dir)
                } else {
                    CheckpointOptions::new(&checkpoint_dir)
                }
            });
            if let Some(o) = &ckpt {
                writeln!(
                    out,
                    "{} checkpoints at {}",
                    if resume { "resuming from" } else { "writing" },
                    o.file().display()
                )?;
            }
            let result =
                Trainer::new(train_cfg).fit_with_checkpoints(&mut model, &dataset, ckpt.as_ref());
            // Detach (flush + fsync) the span sink before surfacing a
            // training error: a failed run's --log-json file must still
            // be complete up to the failure point.
            if !log_json.is_empty() {
                rtp_obs::trace::detach();
                writeln!(out, "wrote span trace to {log_json}")?;
            }
            let report = result.map_err(std::io::Error::other)?;
            writeln!(
                out,
                "trained {} epochs in {:.1}s — best val KRC {:.3}, MAE {:.1} min",
                report.epochs_run, report.train_seconds, report.best_val_krc, report.best_val_mae
            )?;
            write_atomic_str(
                Path::new(&path),
                &serde_json::to_string(&model.to_saved()).expect("serialise model"),
            )?;
            writeln!(out, "wrote {path}")?;
            Ok(0)
        }
        Command::Predict { model, dataset, sample, beam } => {
            let dataset = load_dataset(&dataset)?;
            let model = load_model(&model)?;
            let Some(s) = dataset.test.get(sample) else {
                writeln!(
                    out,
                    "sample index {sample} out of range (test has {})",
                    dataset.test.len()
                )?;
                return Ok(2);
            };
            let g =
                model.build_graph(&dataset.city, &dataset.couriers[s.query.courier_id], &s.query);
            let p = if beam > 1 { model.predict_beam(&g, beam) } else { model.predict(&g) };
            writeln!(
                out,
                "query: {} locations across {} AOIs",
                s.query.num_locations(),
                s.query.distinct_aois().len()
            )?;
            writeln!(out, "predicted route: {:?}", p.route)?;
            writeln!(out, "actual route:    {:?}", s.truth.route)?;
            writeln!(
                out,
                "HR@3 {:.1}%  KRC {:.3}  LSD {:.2}  |  RMSE {:.1}  MAE {:.1}  acc@20 {:.0}%",
                hr_at_k(&p.route, &s.truth.route, 3) * 100.0,
                krc(&p.route, &s.truth.route),
                lsd(&p.route, &s.truth.route),
                rmse(&p.times, &s.truth.arrival),
                mae(&p.times, &s.truth.arrival),
                acc_at(&p.times, &s.truth.arrival, 20.0),
            )?;
            Ok(0)
        }
        Command::Evaluate { model, dataset } => {
            let dataset = load_dataset(&dataset)?;
            let model = load_model(&model)?;
            let mut racc = RouteMetricAccumulator::new();
            let mut tacc = TimeMetricAccumulator::new();
            for s in &dataset.test {
                let p = model.predict_sample(&dataset, s);
                racc.add(&p.route, &s.truth.route);
                tacc.add(&p.times, &s.truth.arrival, s.query.num_locations());
            }
            writeln!(out, "test split: {} samples", dataset.test.len())?;
            for b in Bucket::ALL {
                if let (Some(r), Some(t)) = (racc.finish(b), tacc.finish(b)) {
                    writeln!(
                        out,
                        "{:<14} HR@3 {:>6.2}  KRC {:>6.3}  LSD {:>6.2} | RMSE {:>6.2}  MAE {:>6.2}  acc@20 {:>5.1}",
                        b.label(), r.hr3, r.krc, r.lsd, t.rmse, t.mae, t.acc20
                    )?;
                }
            }
            Ok(0)
        }
        Command::Serve {
            models,
            dataset,
            port,
            max_requests,
            workers,
            idle_timeout_secs,
            allow_shutdown,
            metrics_file,
            metrics_interval_secs,
            flight_dump,
        } => {
            let dataset = load_dataset(&dataset)?;
            let mut shards = Vec::with_capacity(models.len());
            for (name, path) in models {
                let model = load_model(&path)?;
                // Keep the source path on the shard: SIGHUP re-reads it
                // through the hot-swap machinery.
                shards.push(serve::ShardSpec::with_path(name, model, path));
            }
            let opts = serve::ServeOptions {
                port,
                max_requests,
                workers,
                idle_timeout: (idle_timeout_secs > 0)
                    .then(|| std::time::Duration::from_secs(idle_timeout_secs)),
                allow_shutdown,
                metrics_file: (!metrics_file.is_empty()).then_some(metrics_file),
                metrics_interval: std::time::Duration::from_secs(metrics_interval_secs),
                flight_dump: (!flight_dump.is_empty()).then_some(flight_dump),
            };
            serve::serve_sharded(shards, dataset, opts, out)
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
            out: path,
            checkpoint_dir,
        } => {
            let base = load_dataset(&dataset)?;
            let model = load_model(&model)?;
            rtp_obs::flight::set_enabled(true);
            let opts = crate::online::OnlineOptions {
                addr,
                shard: (!shard.is_empty()).then_some(shard),
                rounds,
                epochs_per_round,
                seed,
                threads,
                out: path,
                checkpoint_dir: (!checkpoint_dir.is_empty()).then_some(checkpoint_dir),
            };
            writeln!(
                out,
                "online: {} round(s) x {} epoch(s) -> {} via {}",
                opts.rounds, opts.epochs_per_round, opts.out, opts.addr
            )?;
            let reports = crate::online::run_online(model, &base, &opts, out)?;
            let last = reports.last().expect("parser enforces rounds >= 1");
            writeln!(
                out,
                "online loop done: {} round(s), serving model_version {}",
                reports.len(),
                last.model_version
            )?;
            Ok(0)
        }
    }
}

fn load_dataset(path: &str) -> std::io::Result<Dataset> {
    let text = fs::read_to_string(path)?;
    let dataset = Dataset::from_json(&text).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
    })?;
    dataset.validate().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"))
    })?;
    Ok(dataset)
}

/// Reads a SavedModel file and builds it. A file that does not parse,
/// or parses but cannot serve (see [`M2G4Rtp::try_from_saved`]), is an
/// error naming the file (exit 1 in `main`), never a panic.
fn load_model(path: &str) -> std::io::Result<M2G4Rtp> {
    let invalid =
        |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{path}: {e}"));
    let text = fs::read_to_string(path)?;
    let saved: SavedModel = serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    M2G4Rtp::try_from_saved(saved).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_capture(args: &[&str]) -> (i32, String) {
        let cli = parse(args).expect("parse");
        let mut buf = Vec::new();
        let code = run(cli.command, &mut buf).expect("io");
        (code, String::from_utf8(buf).expect("utf8"))
    }

    #[test]
    fn generate_train_predict_evaluate_pipeline() {
        let dir = std::env::temp_dir().join(format!("rtp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.join("d.json");
        let md = dir.join("m.json");
        let (ds_s, md_s) = (ds.to_str().unwrap(), md.to_str().unwrap());

        let (code, out) =
            run_capture(&["generate", "--scale", "tiny", "--seed", "3", "--out", ds_s]);
        assert_eq!(code, 0);
        assert!(out.contains("train"), "{out}");

        let (code, out) = run_capture(&[
            "train",
            "--dataset",
            ds_s,
            "--epochs",
            "1",
            "--out",
            md_s,
            "--seed",
            "5",
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("best val KRC"), "{out}");

        let (code, out) =
            run_capture(&["predict", "--model", md_s, "--dataset", ds_s, "--sample", "0"]);
        assert_eq!(code, 0);
        assert!(out.contains("predicted route"), "{out}");
        assert!(out.contains("KRC"), "{out}");

        let (code, out) = run_capture(&["evaluate", "--model", md_s, "--dataset", ds_s]);
        assert_eq!(code, 0);
        assert!(out.contains("all"), "{out}");

        let (code, out) =
            run_capture(&["predict", "--model", md_s, "--dataset", ds_s, "--sample", "99999"]);
        assert_eq!(code, 2, "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A model file that parses but cannot be built is an error naming
    /// the file (exit 1 in `main`) for every command that loads one:
    /// never a panic, and never a server that starts only to panic on
    /// every query. Each command runs on its own thread under a
    /// deadline, so a command that panics or keeps serving fails the
    /// test instead of hanging it.
    #[test]
    fn unbuildable_model_files_are_named_errors() {
        let dir = std::env::temp_dir().join(format!("rtp-cli-badmodel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (ds, md) = (path("d.json"), path("m.json"));
        assert_eq!(run_capture(&["generate", "--scale", "tiny", "--seed", "3", "--out", &ds]).0, 0);
        let train = ["train", "--dataset", &ds, "--epochs", "1", "--out", &md, "--seed", "5"];
        assert_eq!(run_capture(&train).0, 0);
        let saved: SavedModel =
            serde_json::from_str(&std::fs::read_to_string(&md).unwrap()).unwrap();

        let mut truncated = saved.clone();
        truncated.weights.pop();
        let mut no_pipeline = saved.clone();
        no_pipeline.graph_config = None;
        no_pipeline.scaler = None;
        // The scaler's statistics are private, so edit them through the
        // serialised form: empty one mean vector, or zero every std,
        // which would scale every feature to NaN or ±∞.
        fn field<'a>(v: &'a mut serde::Value, key: &str) -> &'a mut serde::Value {
            let serde::Value::Object(fields) = v else { panic!("`{key}`'s parent") };
            &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
        }
        let short_scaler: SavedModel = {
            let mut v = serde::Serialize::to_value(&saved);
            *field(field(field(&mut v, "scaler"), "loc_edge"), "mean") =
                serde::Value::Array(vec![]);
            serde::Deserialize::from_value(&v).unwrap()
        };
        let zero_std_scaler: SavedModel = {
            let mut v = serde::Serialize::to_value(&saved);
            for family in ["loc", "aoi", "loc_edge", "aoi_edge", "global"] {
                let std = field(field(field(&mut v, "scaler"), family), "std");
                let serde::Value::Array(cols) = std else { panic!("`{family}.std`") };
                cols.iter_mut().for_each(|c| *c = serde::Serialize::to_value(&0.0f32));
            }
            serde::Deserialize::from_value(&v).unwrap()
        };
        let mut bad_config = saved;
        bad_config.config.n_heads = 5;
        let cases = [
            ("truncated.json", truncated, "weight tensors but its architecture has"),
            ("no_pipeline.json", no_pipeline, "model has no feature pipeline"),
            ("bad_config.json", bad_config, "invalid model config: d_loc must divide by n_heads"),
            (
                "short_scaler.json",
                short_scaler,
                "feature scaler `loc_edge` holds 0 means and 2 stds",
            ),
            (
                "zero_std_scaler.json",
                zero_std_scaler,
                "feature scaler `loc` column 0: std 0 is not finite and positive",
            ),
        ];
        for (name, model, want) in cases {
            let bad = path(name);
            std::fs::write(&bad, serde_json::to_string(&model).unwrap()).unwrap();
            let commands: [Vec<&str>; 4] = [
                vec!["predict", "--model", &bad, "--dataset", &ds, "--sample", "0"],
                vec!["evaluate", "--model", &bad, "--dataset", &ds],
                vec!["serve", "--model", &bad, "--dataset", &ds, "--port", "0"],
                vec![
                    "online",
                    "--model",
                    &bad,
                    "--dataset",
                    &ds,
                    "--addr",
                    "127.0.0.1:9",
                    "--out",
                    &md,
                ],
            ];
            for args in commands {
                let cli = parse(&args).expect("parse");
                let (tx, rx) = std::sync::mpsc::channel();
                let command = std::thread::spawn(move || {
                    let _ = tx.send(run(cli.command, &mut Vec::new()).map_err(|e| e.to_string()));
                });
                let result = rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("{args:?} panicked or kept running: {e}"));
                command.join().expect("a command that returned exits its thread");
                match result {
                    Err(e) => {
                        assert!(e.starts_with(&format!("{bad}: ")), "{args:?}: {e}");
                        assert!(e.contains(want), "{args:?}: {e}");
                    }
                    Ok(code) => panic!("{args:?} exited {code} on an unbuildable model"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A dataset whose train split is empty is an error naming the file
    /// (exit 1 in `main`), not a panic in the scaler fit.
    #[test]
    fn empty_train_split_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("rtp-cli-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (ds, md) = (path("d.json"), path("m.json"));
        let mut dataset = DatasetBuilder::new(DatasetConfig::tiny(3)).build();
        dataset.train.clear();
        std::fs::write(&ds, dataset.to_json().unwrap()).unwrap();
        let cli = parse(&["train", "--dataset", &ds, "--epochs", "1", "--out", &md]).unwrap();
        let err = run(cli.command, &mut Vec::new()).expect_err("an empty train split must fail");
        assert_eq!(
            err.to_string(),
            format!("{ds}: the train split is empty: there is nothing to train on")
        );
        assert!(!std::path::Path::new(&md).exists(), "no model is written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_capture(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        assert!(out.contains("rtp serve"));
    }
}
