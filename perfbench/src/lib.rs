//! Support code for the `perfbench` binary: order statistics, the in-memory
//! span recorder behind `--trace 1`, and the small JSON reader the smoke
//! test uses to check the binary's output against `BENCHMARK.json`.

pub mod json;
pub mod stats;
pub mod trace;
