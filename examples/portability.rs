//! Performance portability in one program (the paper's headline claim):
//! the same SDFG source runs on the CPU executor, the GPU model, and the
//! FPGA model — "without modifying the original scientific code".
//!
//! ```text
//! cargo run --release --example portability
//! ```

use dace::fpga_sim::{run_fpga, vcu1525, FpgaMode};
use dace::gpu_sim::{p100, run_gpu};
use dace::transforms::{apply_first, FpgaTransform, GpuTransform, Params};
use dace::workloads::kernels;
use std::time::Instant;

fn main() {
    let n = 128usize;
    // One source: the Jacobi stencil (§6.1), never edited again.
    let w = kernels::jacobi2d(n, 16);
    println!("kernel: {} (N={n}, T=16)\n", w.name);

    // CPU: the optimizing executor.
    let t0 = Instant::now();
    let (cpu_out, stats, _) = w.run_exec().expect("cpu run");
    println!(
        "CPU     : {:>9.2} ms  ({} points, {} compiled)",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.tasklet_points,
        stats.native_points + stats.jit_points
    );

    // GPU: GPUTransform + the P100 model.
    let mut gpu_sdfg = w.sdfg.clone();
    apply_first(&mut gpu_sdfg, &GpuTransform, &Params::new()).expect("gpu transform");
    let (rep, gpu_out) = run_gpu(&gpu_sdfg, &p100(), w.bindings()).expect("gpu model");
    assert_eq!(
        gpu_out.array("A").unwrap(),
        cpu_out["A"],
        "GPU results match CPU"
    );
    println!(
        "GPU P100: {:>9.2} ms modeled  (kernels {}, copies {:.2} ms, {:.1}% peak)",
        rep.time_s * 1e3,
        rep.kernels,
        rep.copy_time_s * 1e3,
        100.0 * rep.peak_fraction(&p100())
    );

    // FPGA: FPGATransform + the VCU1525 model, pipelined vs naive HLS.
    let mut fpga_sdfg = w.sdfg.clone();
    apply_first(&mut fpga_sdfg, &FpgaTransform, &Params::new()).expect("fpga transform");
    let (pipe, fpga_out) =
        run_fpga(&fpga_sdfg, &vcu1525(), FpgaMode::Pipelined, w.bindings()).expect("fpga model");
    assert_eq!(
        fpga_out.array("A").unwrap(),
        cpu_out["A"],
        "FPGA results match CPU"
    );
    let (naive, _) =
        run_fpga(&fpga_sdfg, &vcu1525(), FpgaMode::NaiveHls, w.bindings()).expect("fpga model");
    println!(
        "FPGA    : {:>9.2} ms modeled pipelined vs {:.2} ms naive HLS ({:.0}× from dataflow)",
        pipe.time_s * 1e3,
        naive.time_s * 1e3,
        naive.time_s / pipe.time_s
    );
    println!("\nsame source, three targets — results bit-identical.");
}
