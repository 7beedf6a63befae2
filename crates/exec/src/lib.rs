//! # sdfg-exec — the optimizing parallel CPU executor
//!
//! This crate is the Rust analogue of the paper's CPU code-generation path
//! (§4.3 steps ❷–❸): where DaCe emits OpenMP-parallel C++ loop nests that a
//! platform compiler vectorizes, this executor lowers each map scope into a
//! compiled loop nest and runs it on worker threads, choosing one
//! execution tier per map body at plan time ([`lower`]):
//!
//! 1. **JIT** — hot affine nests are emitted as C (`sdfg_codegen::jit`),
//!    compiled by the system compiler and called through one kernel ABI
//!    ([`jit`]): whole state-machine loops, and one kernel per map, called
//!    once per serial launch or scheduler tile (once per outer row where
//!    it covers only the map's inner dimensions).
//! 2. **Native kernels** — when the tasklet matches a canonical form
//!    ([`mod@sdfg_lang::recognize`]) and its memlets are affine, the inner loop
//!    is a tight Rust loop over raw strides that LLVM auto-vectorizes.
//! 3. **Affine VM loops** — otherwise, memlet subsets are pre-solved into
//!    affine functions of the map parameters ([`affine`]) and the bytecode
//!    VM runs once per point with O(1) offset computation.
//! 4. **Symbolic fallback** — non-affine accesses (`t % 2` indexing,
//!    data-dependent ranges) re-evaluate subsets per point.
//!
//! Concurrency follows the SDFG semantics: CPU-multicore maps are tiled
//! over their iteration space and scheduled on a persistent work-stealing
//! pool ([`sched`]) with an adaptive grain size; write-conflict
//! resolution lowers to atomic compare-exchange loops (the analogue of
//! `#pragma omp atomic`); consume scopes drain a shared queue with
//! termination detection. Correctness relies on the IR contract that map
//! iterations only conflict through WCR memlets — the same contract DaCe's
//! generated OpenMP code relies on.
//!
//! [`Session`] is the one way to run an SDFG: a [`SessionBuilder`] fixes
//! every knob once (optimization level, threads, transition cap, JIT,
//! profiling, shared plan cache, buffer pool and scheduler, and device
//! [`Backend`]s), and each [`Session::run`] takes [`Bindings`] and returns
//! [`Outputs`]. With a device backend registered (the simulated GPU or
//! FPGA), the session routes every state to the backend its schedule
//! names and [`Outputs::backends`] reports what each backend did; the
//! results stay bit-exact, since simulators run states on the host engine.
//!
//! The executor is property-tested against the reference interpreter
//! (`sdfg-interp`).

pub mod affine;
pub mod buffer;
mod copy;
mod cpu;
pub mod dispatch;
pub mod engine;
pub mod jit;
pub mod lower;
mod nest;
pub mod plan;
pub mod pool;
pub mod sched;
pub mod session;
pub mod stats;
mod tasklet;

pub use cpu::CpuBackend;
pub use dispatch::{Backend, BackendStats, RunCtx, ScopeStats};
pub use engine::ExecError;
pub use lower::MapLowering;
pub use plan::{CacheStats, PlanCache};
pub use pool::{BufferPool, PoolStats};
pub use sched::{SchedPool, SchedStats};
pub use sdfg_transforms::{OptLevel, OptimizationReport};
pub use session::{shared_scheduler, Bindings, Outputs, Session, SessionBuilder};
pub use stats::Stats;
// Re-export the profiling vocabulary so callers can enable instrumentation
// and consume reports without naming `sdfg-profile` directly.
pub use sdfg_profile::{BackendBytes, InstrumentationReport, Profiling, SchedWorker};
