//! `zkbench`: the yardstick-calibrated end-to-end + per-layer benchmark that
//! every speed claim about this repository is measured with. See `README.md`
//! beside the manifest for how to run and read it.

pub mod adapter;
pub mod clock;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod repeat;
pub mod run;
pub mod selftest;
pub mod spans;
pub mod workloads;
