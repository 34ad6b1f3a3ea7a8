//! # bench — benchmark harness crate
//!
//! - `benches/wallclock.rs` — the wall-clock suite behind
//!   `scripts/bench.sh`: times canonical `iobench` runs and writes
//!   `BENCH_iobench.json`.
//! - `src/bin/figures.rs` — regenerates the paper's illustrative Figures
//!   2–8 as ASCII from the live engines.
//!
//! Full paper-scale tables: `cargo run --release -p iobench -- all`.
