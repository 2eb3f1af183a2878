//! The pieces of the `perfbench` benchmark, as a library so the
//! benchmark's own tests can drive them. `src/main.rs` is the runner;
//! README.md says what each workload and metric is for.

pub mod client;
pub mod inputs;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod session;
pub mod stats;
pub mod traced;
pub mod train;
