//! The experiment implementations behind the `harness` binary.

use sdfg_fpga_sim::{run_fpga, vcu1525, FpgaMode};
use sdfg_gpu_sim::{p100, run_gpu, v100, DeviceProfile};
use sdfg_transforms::{apply_first, FpgaTransform, GpuTransform, Params};
use sdfg_workloads::workload::Workload;
use sdfg_workloads::{bfs, graphs, kernels, mm_chain, polybench, sse, tuned};
use std::time::Instant;

/// Times a closure (median of `reps` runs).
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn exec_seconds(w: &Workload, reps: usize) -> f64 {
    time_median(reps, || {
        let _ = w.run_exec().expect("exec runs");
    })
}

/// Fig. 13a — Polybench on CPU: naive sequential Rust (the
/// general-purpose-compiler proxy) vs the unoptimized SDFG on the
/// optimizing executor.
pub fn fig13a(scale: usize, reps: usize) {
    println!("# Fig. 13a — Polybench CPU (scale {scale})");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "kernel", "naive[ms]", "sdfg[ms]", "ratio"
    );
    for k in polybench::all() {
        let w = (k.build)(scale);
        // Verify once.
        let reference = (k.reference)(&w);
        let (got, _, _) = w.run_exec().expect("exec");
        sdfg_workloads::workload::assert_allclose(&w.check, &got, &reference, 1e-6);
        let t_ref = time_median(reps, || {
            let _ = (k.reference)(&w);
        });
        let t_sdfg = exec_seconds(&w, reps);
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>8.2}x",
            k.name,
            t_ref * 1e3,
            t_sdfg * 1e3,
            t_ref / t_sdfg
        );
    }
}

/// Fig. 13b — Polybench on the GPU model: GPUTransform'd SDFG vs a
/// PPCG-like baseline that brackets every kernel launch with transfers
/// (the copy-avoidance axis the paper attributes its GPU wins to).
pub fn fig13b(scale: usize) {
    println!("# Fig. 13b — Polybench GPU model (P100, scale {scale})");
    println!(
        "{:<16} {:>12} {:>14} {:>9}",
        "kernel", "sdfg[ms]", "ppcg-like[ms]", "ratio"
    );
    for k in polybench::all() {
        let w = (k.build)(scale);
        let mut sdfg = w.sdfg.clone();
        if !apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap_or(false) {
            println!("{:<16} {:>12}", k.name, "(skip)");
            continue;
        }
        match run_gpu(&sdfg, &p100(), w.bindings()) {
            Ok((rep, out)) => {
                // Correctness against the reference.
                let reference = (k.reference)(&w);
                sdfg_workloads::workload::assert_allclose(&w.check, out.arrays(), &reference, 1e-6);
                // PPCG-like baseline: every kernel pays the boundary
                // transfers (no cross-state copy elision).
                let per_kernel_copies = rep.copy_time_s * rep.kernels.max(1) as f64;
                let ppcg = rep.kernel_time_s + per_kernel_copies;
                println!(
                    "{:<16} {:>12.3} {:>14.3} {:>8.2}x",
                    k.name,
                    rep.time_s * 1e3,
                    ppcg * 1e3,
                    ppcg / rep.time_s.max(1e-12)
                );
            }
            Err(e) => println!("{:<16} error: {e}", k.name),
        }
    }
}

/// Fig. 13c — Polybench on the FPGA model: the complete suite, pipelined
/// SDFG designs vs the naive-HLS baseline.
pub fn fig13c(scale: usize) {
    println!("# Fig. 13c — Polybench FPGA model (VCU1525, scale {scale})");
    println!(
        "{:<16} {:>12} {:>14} {:>10}",
        "kernel", "sdfg[ms]", "naiveHLS[ms]", "speedup"
    );
    for k in polybench::all() {
        let w = (k.build)(scale);
        let mut sdfg = w.sdfg.clone();
        if !apply_first(&mut sdfg, &FpgaTransform, &Params::new()).unwrap_or(false) {
            println!("{:<16} {:>12}", k.name, "(skip)");
            continue;
        }
        let pipelined = run_fpga(&sdfg, &vcu1525(), FpgaMode::Pipelined, w.bindings());
        let naive = run_fpga(&sdfg, &vcu1525(), FpgaMode::NaiveHls, w.bindings());
        match (pipelined, naive) {
            (Ok((pr, out)), Ok((nr, _))) => {
                // Correctness against the reference.
                let reference = (k.reference)(&w);
                sdfg_workloads::workload::assert_allclose(&w.check, out.arrays(), &reference, 1e-6);
                println!(
                    "{:<16} {:>12.3} {:>14.3} {:>9.1}x",
                    k.name,
                    pr.time_s * 1e3,
                    nr.time_s * 1e3,
                    nr.time_s / pr.time_s.max(1e-12)
                );
            }
            _ => println!("{:<16} error", k.name),
        }
    }
}

/// Fig. 14a — the five fundamental kernels on CPU: naive vs SDFG vs the
/// tuned-library proxy.
pub fn fig14a(reps: usize) {
    println!("# Fig. 14a — fundamental kernels, CPU");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "kernel", "naive[ms]", "sdfg[ms]", "tuned[ms]"
    );
    // MM.
    {
        let n = 192usize;
        let w = kernels::mm(n);
        let (a, b) = (w.arrays["A"].clone(), w.arrays["B"].clone());
        let t_naive = time_median(reps, || {
            let mut c = vec![0.0; n * n];
            tuned::gemm_naive(&a, &b, &mut c, n, n, n);
        });
        let t_sdfg = exec_seconds(&w, reps);
        let t_tuned = time_median(reps, || {
            let mut c = vec![0.0; n * n];
            tuned::gemm_tuned(&a, &b, &mut c, n, n, n);
        });
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}",
            "mm",
            t_naive * 1e3,
            t_sdfg * 1e3,
            t_tuned * 1e3
        );
    }
    // Jacobi.
    {
        let (n, t) = (192usize, 24usize);
        let w = kernels::jacobi2d(n, t);
        let init = w.arrays["A"][..n * n].to_vec();
        let t_naive = time_median(reps, || {
            let mut a = init.clone();
            let mut b = vec![0.0; n * n];
            tuned::jacobi2d_naive(&mut a, &mut b, n, t);
        });
        let t_sdfg = exec_seconds(&w, reps);
        let t_tuned = time_median(reps, || {
            let mut a = init.clone();
            let mut b = vec![0.0; n * n];
            tuned::jacobi2d_tuned(&mut a, &mut b, n, t);
        });
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}",
            "jacobi",
            t_naive * 1e3,
            t_sdfg * 1e3,
            t_tuned * 1e3
        );
    }
    // Histogram.
    {
        let n = 512usize;
        let w = kernels::histogram(n);
        let img = w.arrays["img"].clone();
        let t_naive = time_median(reps, || {
            let mut h = vec![0.0; 16];
            tuned::histogram_naive(&img, &mut h, 16);
        });
        let t_sdfg = exec_seconds(&w, reps);
        let t_tuned = time_median(reps, || {
            let mut h = vec![0.0; 16];
            tuned::histogram_tuned(&img, &mut h, 16);
        });
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}",
            "histogram",
            t_naive * 1e3,
            t_sdfg * 1e3,
            t_tuned * 1e3
        );
    }
    // Query.
    {
        let n = 1usize << 20;
        let w = kernels::query(n);
        let col = w.arrays["col"].clone();
        let t_naive = time_median(reps, || {
            let mut out = vec![0.0; col.len()];
            let _ = tuned::query_naive(&col, &mut out, 0.0);
        });
        let t_sdfg = exec_seconds(&w, reps);
        let t_tuned = time_median(reps, || {
            let mut out = vec![0.0; col.len()];
            let _ = tuned::query_tuned(&col, &mut out, 0.0);
        });
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}",
            "query",
            t_naive * 1e3,
            t_sdfg * 1e3,
            t_tuned * 1e3
        );
    }
    // SpMV.
    {
        let (rows, nnz_row) = (4096usize, 16usize);
        let w = kernels::spmv(rows, nnz_row);
        let (rp, ci, v, x) = (
            w.arrays["A_row"].clone(),
            w.arrays["A_col"].clone(),
            w.arrays["A_val"].clone(),
            w.arrays["x"].clone(),
        );
        let t_naive = time_median(reps, || {
            let mut y = vec![0.0; rows];
            tuned::spmv_naive(&rp, &ci, &v, &x, &mut y);
        });
        let t_sdfg = exec_seconds(&w, reps);
        let t_tuned = time_median(reps, || {
            let mut y = vec![0.0; rows];
            tuned::spmv_tuned(&rp, &ci, &v, &x, &mut y);
        });
        println!(
            "{:<10} {:>12.3} {:>12.3} {:>12.3}",
            "spmv",
            t_naive * 1e3,
            t_sdfg * 1e3,
            t_tuned * 1e3
        );
    }
}

fn gpu_kernel_row(name: &str, w: &Workload, dev: &DeviceProfile) {
    let mut sdfg = w.sdfg.clone();
    if !apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap_or(false) {
        println!("{name:<10} (skip)");
        return;
    }
    match run_gpu(&sdfg, dev, w.bindings()) {
        Ok((rep, _)) => println!(
            "{:<10} {:>12.3} {:>12.3} {:>10.1}%",
            name,
            rep.time_s * 1e3,
            rep.copy_time_s * 1e3,
            100.0 * rep.peak_fraction(dev)
        ),
        Err(e) => println!("{name:<10} error: {e}"),
    }
}

/// Fig. 14b — fundamental kernels under the GPU model.
pub fn fig14b() {
    let dev = p100();
    println!("# Fig. 14b — fundamental kernels, GPU model ({})", dev.name);
    println!(
        "{:<10} {:>12} {:>12} {:>11}",
        "kernel", "total[ms]", "copies[ms]", "peak-frac"
    );
    gpu_kernel_row("mm", &kernels::mm(192), &dev);
    gpu_kernel_row("jacobi", &kernels::jacobi2d(192, 8), &dev);
    gpu_kernel_row("histogram", &kernels::histogram(256), &dev);
    gpu_kernel_row("spmv", &kernels::spmv(2048, 16), &dev);
    println!("{:<10} (query uses streams: CPU/FPGA motif)", "query");
}

/// Fig. 14c — fundamental kernels under the FPGA model.
pub fn fig14c() {
    println!("# Fig. 14c — fundamental kernels, FPGA model (VCU1525)");
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "kernel", "pipelined[ms]", "naiveHLS[ms]", "speedup"
    );
    for (name, w) in [
        ("mm", kernels::mm(96)),
        ("jacobi", kernels::jacobi2d(96, 8)),
        ("histogram", kernels::histogram(256)),
        ("spmv", kernels::spmv(2048, 16)),
    ] {
        let mut sdfg = w.sdfg.clone();
        if !apply_first(&mut sdfg, &FpgaTransform, &Params::new()).unwrap_or(false) {
            println!("{name:<10} (skip)");
            continue;
        }
        let p = run_fpga(&sdfg, &vcu1525(), FpgaMode::Pipelined, w.bindings());
        let n = run_fpga(&sdfg, &vcu1525(), FpgaMode::NaiveHls, w.bindings());
        if let (Ok((p, _)), Ok((n, _))) = (p, n) {
            println!(
                "{:<10} {:>14.3} {:>14.3} {:>9.1}x",
                name,
                p.time_s * 1e3,
                n.time_s * 1e3,
                n.time_s / p.time_s.max(1e-12)
            );
        } else {
            println!("{name:<10} error");
        }
    }
}

/// Fig. 15 — the GEMM transformation chain: GFLOP/s after each step,
/// against the naive and tuned-library baselines.
pub fn fig15(sizes: &[usize], reps: usize) {
    println!("# Fig. 15 — GEMM transformation chain (GFLOP/s)");
    print!("{:<18}", "variant");
    for n in sizes {
        print!(" {:>9}", format!("n={n}"));
    }
    println!();
    let gflops = |n: usize, secs: f64| 2.0 * (n as f64).powi(3) / secs / 1e9;
    for step in 0..mm_chain::num_steps() {
        let name = mm_chain::chain_steps()[step].0;
        print!("{name:<18}");
        for &n in sizes {
            let w = mm_chain::build_step(step, n);
            let t = exec_seconds(&w, reps);
            print!(" {:>9.3}", gflops(n, t));
        }
        println!();
    }
    for (label, f) in [
        (
            "naive (gcc proxy)",
            tuned::gemm_naive as fn(&[f64], &[f64], &mut [f64], usize, usize, usize),
        ),
        (
            "tuned (MKL proxy)",
            tuned::gemm_tuned as fn(&[f64], &[f64], &mut [f64], usize, usize, usize),
        ),
    ] {
        print!("{label:<18}");
        for &n in sizes {
            let a = sdfg_workloads::workload::pseudo_random(n * n, 1);
            let b = sdfg_workloads::workload::pseudo_random(n * n, 2);
            let t = time_median(reps, || {
                let mut c = vec![0.0; n * n];
                f(&a, &b, &mut c, n, n, n);
            });
            print!(" {:>9.3}", gflops(n, t));
        }
        println!();
    }
}

/// Fig. 17 — BFS across the five (synthetic) datasets.
pub fn fig17(scale: usize, reps: usize) {
    println!("# Fig. 17 — BFS (scale {scale})");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "graph", "nodes", "edges", "sdfg[ms]", "opt[ms]", "galois*[ms]"
    );
    let base_sdfg = bfs::build_bfs();
    let opt_sdfg = bfs::build_bfs_optimized(64);
    for (name, g) in graphs::paper_datasets(scale) {
        let st = g.stats();
        // Verify once.
        let want = bfs::bfs_baseline(&g, 0);
        let got = bfs::run_bfs(&base_sdfg, &g, 0);
        assert_eq!(got, want, "{name}: SDFG BFS mismatch");
        let t_sdfg = time_median(reps, || {
            let _ = bfs::run_bfs(&base_sdfg, &g, 0);
        });
        let t_opt = time_median(reps, || {
            let _ = bfs::run_bfs(&opt_sdfg, &g, 0);
        });
        let t_base = time_median(reps, || {
            let _ = bfs::bfs_baseline(&g, 0);
        });
        println!(
            "{:<10} {:>10} {:>10} {:>12.3} {:>12.3} {:>12.3}",
            name,
            st.nodes,
            st.edges,
            t_sdfg * 1e3,
            t_opt * 1e3,
            t_base * 1e3
        );
    }
    println!("(*galois = tuned native level-synchronous baseline)");
}

/// Table 2 — SSE runtimes: OMEN-style vs numpy-style vs data-centric.
///
/// Two views. The paper's 32× story is about *GPU under-utilization*:
/// OMEN launches one tiny CUBLAS kernel per (kz, E, qz, ω) block and pays
/// the launch latency millions of times, numpy materializes whole-tensor
/// intermediates, and the fused data-centric kernel does neither — so the
/// headline comparison here is the P100 model, where those costs are
/// explicit. The CPU wall-clock column is also reported; on the CPU our
/// executor *interprets* the fused map, so the per-call-overhead axis
/// mostly vanishes there (see EXPERIMENTS.md).
pub fn tab2(scale: usize, reps: usize) {
    let d = sse::SseDims::small(scale);
    let (dh, g, dd) = sse::inputs(&d);
    println!(
        "# Table 2 — SSE (nk={} ne={} nq={} nw={} n={})",
        d.nk, d.ne, d.nq, d.nw, d.n
    );
    // Verify agreement once (all three implementations, plus the SDFG).
    let want = sse::sse_reference(&d, &dh, &g, &dd);
    let w = sse::build_sse_sdfg(&d);
    let (got, _, _) = w.run_exec().expect("sse sdfg");
    for (a, b) in got["Sigma"].iter().zip(&want) {
        assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
    }
    // CPU wall clock.
    let t_omen = time_median(reps, || {
        let _ = sse::omen_style(&d, &dh, &g, &dd);
    });
    let t_numpy = time_median(reps, || {
        let _ = sse::numpy_style(&d, &dh, &g, &dd);
    });
    let t_dace = exec_seconds(&w, reps);
    // GPU (P100) model: the paper's cost axes made explicit.
    let dev = p100();
    let blocks = (d.nk * d.ne * d.nq * d.nw) as f64;
    let n3 = (d.n * d.n * d.n) as f64;
    let block_bytes = 3.0 * (d.n * d.n) as f64 * 8.0;
    let useful_flops = d.flops();
    // OMEN: two tiny GEMM launches + one elementwise launch per block.
    let per_block = 2.0 * dev.launch_overhead
        + (2.0 * n3 / dev.peak_flops).max(block_bytes / dev.mem_bandwidth);
    let g_omen = blocks * per_block;
    // numpy: the paper's Python implementation loops over (kz, E) blocks in
    // the interpreter, dispatching ~8 numpy operator calls per block (each a
    // host-side dispatch far costlier than a bare kernel launch) and
    // materializing whole-tensor intermediates between them.
    // ~20 operator calls per block (einsum chain + temporaries), ~10 µs each
    // including temporary allocation.
    let py_dispatch = 10e-6;
    let tensor_bytes = blocks * (d.n * d.n) as f64 * 8.0;
    let g_numpy = blocks * 20.0 * py_dispatch + 8.0 * tensor_bytes / dev.mem_bandwidth;
    // DaCe: one fused kernel at the roofline.
    let g_dace = dev.launch_overhead
        + (useful_flops / dev.peak_flops).max(2.0 * tensor_bytes / dev.mem_bandwidth / 4.0);
    println!(
        "{:<22} {:>12} {:>14} {:>16}",
        "variant", "cpu[ms]", "gpu-model[ms]", "gpu speedup"
    );
    println!(
        "{:<22} {:>12.3} {:>14.4} {:>15.2}x",
        "OMEN-style (library)",
        t_omen * 1e3,
        g_omen * 1e3,
        1.0
    );
    println!(
        "{:<22} {:>12.3} {:>14.4} {:>15.2}x",
        "Python-style (numpy)",
        t_numpy * 1e3,
        g_numpy * 1e3,
        g_omen / g_numpy
    );
    println!(
        "{:<22} {:>12.3} {:>14.4} {:>15.2}x",
        "DaCe-style (SDFG)",
        t_dace * 1e3,
        g_dace * 1e3,
        g_omen / g_dace
    );
    println!(
        "(model note: ordering matches the paper — DaCe < OMEN < numpy; the\n \
         factors are launch-to-work-ratio dependent and compress toward the\n \
         paper's ~32x at full nanostructure scale; see EXPERIMENTS.md)"
    );
}

/// Table 3 — SBSMM: specialized batched-strided small GEMM vs the padded
/// library-batched proxy, under the P100 and V100 models.
pub fn tab3(batch: usize) {
    println!("# Table 3 — strided small-matrix multiplication (batch {batch})");
    println!(
        "{:<6} {:<22} {:>10} {:>10} {:>8}",
        "GPU", "variant", "Gflop", "time[ms]", "%peak"
    );
    let n = 4usize;
    let pad = 10usize;
    for dev in [p100(), v100()] {
        for (label, p) in [("padded (CUBLAS proxy)", pad), ("SBSMM (specialized)", n)] {
            let w = sse::build_batched_gemm(batch, n, p);
            let mut sdfg = w.sdfg.clone();
            if !apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap_or(false) {
                continue;
            }
            let (rep, _) = run_gpu(&sdfg, &dev, w.bindings()).expect("gpu model");
            // Useful flops are always the n×n computation.
            let useful = 2.0 * (batch * n * n * n) as f64;
            let executed = 2.0 * (batch * p * p * p) as f64;
            let t = rep.time_s;
            println!(
                "{:<6} {:<22} {:>10.3} {:>10.4} {:>7.2}% (useful {:.2}%)",
                dev.name,
                label,
                executed / 1e9,
                t * 1e3,
                100.0 * (executed / t) / dev.peak_flops,
                100.0 * (useful / t) / dev.peak_flops,
            );
        }
    }
}

/// Table 5 — dataset properties.
pub fn tab5(scale: usize) {
    println!("# Table 5 — graph properties (scale {scale})");
    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>10}",
        "name", "nodes", "edges", "avg-deg", "max-deg"
    );
    for (name, g) in graphs::paper_datasets(scale) {
        let st = g.stats();
        println!(
            "{:<10} {:>10} {:>12} {:>10.2} {:>10}",
            name, st.nodes, st.edges, st.avg_degree, st.max_degree
        );
    }
}

/// Renders the per-map lowering decisions as a table: which tier each
/// map body was compiled to at plan-build time, and — when the JIT tier
/// was considered but declined — the recorded reason.
fn lowering_table(lowerings: &[sdfg_exec::MapLowering]) -> String {
    if lowerings.is_empty() {
        return String::new();
    }
    let mut out = String::from("lowering decisions\n");
    out.push_str(&format!(
        "{:<32} {:>10}  {:<44}  {}\n",
        "map", "tier", "jit fallback reason", "ran serially because"
    ));
    for l in lowerings {
        out.push_str(&format!(
            "{:<32} {:>10}  {:<44}  {}\n",
            format!("s{}/n{} {}", l.state, l.node, l.label),
            l.tier,
            l.jit_reason.as_deref().unwrap_or("-"),
            l.serial_reason.as_deref().unwrap_or("-")
        ));
    }
    out
}

/// A kernel's name and its builder (from a scale).
pub type NamedKernel = (&'static str, fn(usize) -> Workload);

/// The kernels `--profile` and `--opt` accept, as `(name, builder)`: the
/// 30 Polybench kernels, then the §6.1 kernels — the dense `mm` and
/// `jacobi2d` (24 time steps), and the irregular `histogram`, `query`,
/// and `spmv` (16 nonzeros per row).
pub fn profiled_kernels() -> Vec<NamedKernel> {
    let mut ks: Vec<NamedKernel> = polybench::all()
        .into_iter()
        .map(|k| (k.name, k.build))
        .collect();
    ks.push(("mm", kernels::mm));
    ks.push(("jacobi2d", |n| kernels::jacobi2d(n, 24)));
    ks.push(("histogram", kernels::histogram));
    ks.push(("query", kernels::query));
    ks.push(("spmv", |n| kernels::spmv(n, 16)));
    ks
}

/// Writes a profiled run's Chrome trace to `trace-<kernel>.json`.
fn write_trace(name: &str, report: &sdfg_profile::InstrumentationReport) {
    let path = format!("trace-{name}.json");
    match std::fs::write(&path, report.chrome_trace()) {
        Ok(()) => println!("chrome trace written to {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

/// `--profile` mode: runs each kernel of [`profiled_kernels`] once with
/// instrumentation forced on every state and map scope, prints the sorted
/// hot-path table, and writes one Chrome trace-event JSON per kernel (load
/// the file in `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// `only` restricts the run to a single kernel by name (empty = all).
pub fn profiled(only: &str, scale: usize) {
    println!("# Profiled run (scale {scale}, forced timers)");
    let mut matched = false;
    for (name, build) in profiled_kernels() {
        if !only.is_empty() && name != only {
            continue;
        }
        matched = true;
        let w = build(scale);
        let out = match w.run_exec_profiled() {
            Ok(out) => out,
            Err(e) => {
                println!("## {name}: failed: {e}");
                continue;
            }
        };
        let report = out.report().expect("a profiled run reports");
        println!(
            "## {} — wall {:.3} ms, {} workers, map coverage {:.1}%",
            name,
            report.wall.as_secs_f64() * 1e3,
            report.workers,
            report.map_coverage() * 100.0
        );
        print!("{}", report.hot_path_table());
        print!("{}", lowering_table(&out.lowering_report()));
        write_trace(name, report);
        println!();
    }
    if !matched {
        let names: Vec<&str> = profiled_kernels().iter().map(|k| k.0).collect();
        eprintln!(
            "no kernel named `{only}`; known kernels: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
}

/// The `harness <kernels...> --opt` mode: runs each kernel through the
/// automatic optimization pipeline, prints the optimization report (which
/// transformations fired where, what was skipped and why), and verifies
/// the optimized executor bit for bit against the reference interpreter
/// on the untransformed SDFG. With `profile`, also prints the hot-path
/// table of the optimized run under forced timers and writes its Chrome
/// trace to `trace-<kernel>.json`.
pub fn optimized(only: &[String], scale: usize, level: sdfg_exec::OptLevel, profile: bool) {
    println!("# Optimized run (scale {scale}, level {})", level.as_str());
    let mut matched = false;
    for (name, build) in profiled_kernels() {
        if !only.is_empty() && !only.iter().any(|n| n == name) {
            continue;
        }
        matched = true;
        let w = build(scale);
        let want = match w.run_interp() {
            Ok(r) => r,
            Err(e) => {
                println!("## {name}: interpreter failed: {e}");
                continue;
            }
        };
        let mut builder = w.session().opt_level(level);
        if profile {
            builder = builder.profiling(sdfg_exec::Profiling::ForceTimers);
        }
        let session = match builder.build() {
            Ok(s) => s,
            Err(e) => {
                println!("## {name}: session build failed: {e}");
                continue;
            }
        };
        let t0 = Instant::now();
        let out = match session.run(w.bindings()) {
            Ok(out) => out,
            Err(e) => {
                println!("## {name}: optimized run failed: {e}");
                continue;
            }
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        for a in &w.check {
            assert!(
                crate::targets::bits_equal(&out.arrays()[a], &want[a]),
                "{name}: optimized `{a}` differs from the interpreter"
            );
        }
        println!("## {name} — wall {wall_ms:.3} ms, outputs match interpreter");
        match session.opt_report() {
            Some(r) => print!("{r}"),
            None => println!("(no optimization report)"),
        }
        if profile {
            if let Some(report) = out.report() {
                print!("{}", report.hot_path_table());
                write_trace(name, report);
            }
        } else {
            // Cheap counters are tracked even with profiling off; the
            // footer costs nothing beyond a few atomic loads.
            print!("{}", session.counters_footer());
        }
        println!();
    }
    if !matched {
        let names: Vec<&str> = profiled_kernels().iter().map(|k| k.0).collect();
        eprintln!("no kernel matched; known kernels: {}", names.join(", "));
        std::process::exit(2);
    }
}
