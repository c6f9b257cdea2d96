//! # parflow-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` for the experiment index):
//!
//! * [`experiments::fig2`] — max flow vs QPS, three workloads × three
//!   schedulers (Figure 2 a/b/c);
//! * [`experiments::fig3`] — the Bing and finance work distributions
//!   (Figure 3 a/b);
//! * [`experiments::lower_bound`] — the Lemma 5.1 `Ω(log n)` construction;
//! * [`experiments::theory_fifo`] — Theorem 3.1 (FIFO, `3/ε` ceiling);
//! * [`experiments::theory_ws`] — Theorem 4.1 (steal-k-first, w.h.p.
//!   `O((1/ε²)·max{OPT, ln n})`);
//! * [`experiments::theory_bwf`] — Theorem 7.1 (BWF, `3/ε²` ceiling);
//! * [`experiments::steal_k`] — the k ablation;
//! * [`experiments::intervals`] — the Figure 1 interval decomposition.
//!
//! Run everything with `cargo run --release -p parflow-bench --bin repro`,
//! or name single experiments (`repro fig2-bing steal-k`). The crate also
//! hosts the sweep harness ([`sweep`]) and the streaming runners behind
//! `parflow exec --stream` ([`stream`]). Engine timing lives in
//! `perfbench/` (`BENCHMARK.json`) and in the `repro --bench-json` probe
//! that `scripts/bench_check` gates ([`throughput`]).

#![warn(missing_docs)]

pub mod alloc_probe;
pub mod experiments;
pub mod report;
pub mod stream;
pub mod sweep;
pub mod throughput;

pub use report::Reporter;
