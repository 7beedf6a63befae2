//! # sdfg-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5–§6)
//! against this repository's substitutes (see DESIGN.md):
//!
//! | Experiment | Paper | Harness subcommand |
//! |---|---|---|
//! | Polybench CPU | Fig. 13a | `harness fig13a` |
//! | Polybench GPU | Fig. 13b | `harness fig13b` |
//! | Polybench FPGA | Fig. 13c | `harness fig13c` |
//! | Fundamental kernels CPU | Fig. 14a | `harness fig14a` |
//! | Fundamental kernels GPU | Fig. 14b | `harness fig14b` |
//! | Fundamental kernels FPGA | Fig. 14c | `harness fig14c` |
//! | GEMM transformation chain | Fig. 15 | `harness fig15` |
//! | BFS on five graphs | Fig. 17 | `harness fig17` |
//! | SSE runtimes | Table 2 | `harness tab2` |
//! | SBSMM vs padded batched GEMM | Table 3 | `harness tab3` |
//! | Graph dataset properties | Table 5 | `harness tab5` |
//!
//! `harness all` runs everything; results are recorded in EXPERIMENTS.md.
//!
//! Performance is measured by the hermetic `benchmark/` package
//! (`benchmark/run.sh`), which runs the configuration users run; this
//! crate reproduces the paper's figures and verifies results.
//!
//! Any mode accepts the observability flags (see [`obs`]):
//! `--metrics-out` (Prometheus exposition) and `--ledger` (JSONL run
//! records); `--profile` writes the Chrome traces. `harness obs-check`
//! validates the artifacts — CI's smoke job.

pub mod emit;
pub mod experiments;
pub mod obs;
pub mod targets;

pub use experiments::*;
pub use targets::{targeted, Target};
