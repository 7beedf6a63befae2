//! # sdfg-codegen — code generation (paper §4.3 step ❷)
//!
//! "The code generation process of an SDFG is hierarchical, starting from
//! top-level states and traversing into scopes. It begins by emitting
//! external interface code and the top-level state machine. Within each
//! state, nodes are traversed in topological order, and a platform-specific
//! dispatcher is assigned to generate the respective code."
//!
//! This crate emits human-readable source text for three dispatchers:
//!
//! * [`cpu`] — C-like code with OpenMP-style pragmas: maps become parallel
//!   loop nests, WCR memlets become `#pragma omp atomic`, and the state
//!   machine becomes `for`/`if` structures rendered from the
//!   [`statemachine`] region tree, with a `goto` fallback only for a graph
//!   the structurer reports unstructured (§4.3: "emitting for-loops and
//!   branches when detected, or using conditional goto statements as a
//!   fallback").
//! * [`gpu`] — CUDA-style kernels for `GpuDevice` maps (grid from the map
//!   range, `__syncthreads()` on thread-block scopes, `cudaMemcpy` for
//!   host↔device copy states, atomics for WCR).
//! * [`fpga`] — HLS-style module descriptions for `FpgaDevice` maps
//!   (processing elements, `hls::stream` FIFOs, pipeline pragmas, unrolled
//!   PE arrays).
//!
//! The three dispatchers share one control-flow structurer
//! ([`statemachine`], which the executor's loop collapse also consumes)
//! and one tasklet-to-C emitter: every tasklet renders through
//! [`c_expr::vm_expr_to_c`], the VM-exact emitter the JIT's kernels use,
//! with the JIT's helper preamble and the JIT's name resolution
//! (`c_expr::VmScope`); a body the VM would run differently is emitted
//! as an `#error` naming the reason. Compiled with `-ffp-contract=off`,
//! the CPU source of the programs `tests/emitted_c.rs` runs reproduces the
//! interpreter bit for bit. Execution in this repository still goes
//! through `sdfg-exec` (CPU, whose JIT tier compiles [`jit`]'s kernels)
//! and the `gpu-sim`/`fpga-sim` crates, which play the role of the
//! "compiler invocation" step ❸.

pub mod c_expr;
pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod jit;
pub mod statemachine;

pub use cpu::generate_cpu;
pub use fpga::generate_fpga;
pub use gpu::generate_gpu;
