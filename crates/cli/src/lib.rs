//! # rtp-cli
//!
//! The command-line front end of the M²G4RTP reproduction. One binary,
//! five subcommands:
//!
//! ```text
//! rtp generate --scale quick --seed 7 --out dataset.json
//! rtp train    --dataset dataset.json --epochs 15 --out model.json
//! rtp predict  --model model.json --dataset dataset.json --sample 0
//! rtp evaluate --model model.json --dataset dataset.json
//! rtp serve    --model model.json --dataset dataset.json --port 7878
//! ```
//!
//! `serve` speaks newline-delimited JSON over TCP: each request line is
//! a serialised [`rtp_sim::RtpQuery`]; each response line is a
//! [`serve::ServeResponse`]. See `tests/cli_serve.rs` for a client example.
//!
//! Argument parsing is hand-rolled (the workspace is dependency-free by
//! policy) and lives in [`args`] so it is unit-testable.

pub mod args;
pub mod commands;
pub mod evented;
pub mod online;
pub mod serve;

pub use args::{Cli, Command, ParseError};
