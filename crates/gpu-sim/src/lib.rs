//! # sdfg-gpu-sim — the GPU execution target
//!
//! The paper evaluates GPU-transformed SDFGs on a Tesla P100. Without GPU
//! hardware, this crate substitutes an **execution-driven model**: the SDFG
//! runs for real (bit-exact results, via `sdfg-exec`, so functional
//! correctness is always asserted), while timing comes from a per-kernel
//! roofline model over the *measured* structure of the graph:
//!
//! * host↔device copy states → bytes / PCIe bandwidth,
//! * each `GpuDevice` map → `max(flop / peak, bytes / HBM-bandwidth)` plus
//!   a kernel-launch overhead, where flop counts come from the tasklet AST
//!   and byte counts from the propagated memlet volumes,
//! * non-coalesced accesses (stride ≠ 1 in the innermost parameter) pay a
//!   warp-serialization factor; write-conflict resolution pays an atomic
//!   factor,
//! * per-state times are multiplied by the state's *actual* visit count
//!   from execution (so state-machine loops cost what they iterate).
//!
//! Absolute numbers are not the point — the *shape* of comparisons
//! (copy-avoidance wins, atomic costs, coalescing effects, batched-vs-many
//! small kernels) matches the paper's evaluation axes.

use sdfg_core::scope::scope_tree;
use sdfg_core::SdfgError;
use sdfg_core::{Node, Schedule, Sdfg, Storage};
use sdfg_exec::{Backend, BackendStats, Bindings, ExecError, Outputs, RunCtx, ScopeStats, Session};
use sdfg_lang::ast::{ExprAst, Stmt};
use sdfg_symbolic::Env;

/// A modeled GPU.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Peak double-precision throughput (FLOP/s).
    pub peak_flops: f64,
    /// Device memory bandwidth (B/s).
    pub mem_bandwidth: f64,
    /// Host↔device (PCIe) bandwidth (B/s).
    pub pcie_bandwidth: f64,
    /// Fixed kernel launch overhead (s).
    pub launch_overhead: f64,
    /// Multiplier on bytes for non-coalesced (strided) global accesses.
    pub uncoalesced_factor: f64,
    /// Multiplier on bytes for atomically-updated (WCR) outputs.
    pub atomic_factor: f64,
}

/// Tesla P100 (the paper's GPU testbed).
pub fn p100() -> DeviceProfile {
    DeviceProfile {
        name: "P100",
        peak_flops: 4.7e12,
        mem_bandwidth: 732e9,
        pcie_bandwidth: 12e9,
        launch_overhead: 5e-6,
        uncoalesced_factor: 8.0,
        atomic_factor: 4.0,
    }
}

/// Tesla V100 (used in the paper's Table 3).
pub fn v100() -> DeviceProfile {
    DeviceProfile {
        name: "V100",
        peak_flops: 7.8e12,
        mem_bandwidth: 900e9,
        pcie_bandwidth: 12e9,
        launch_overhead: 4e-6,
        uncoalesced_factor: 8.0,
        atomic_factor: 3.0,
    }
}

/// Report from a modeled GPU run.
#[derive(Clone, Debug, Default)]
pub struct GpuReport {
    /// Total modeled time (s).
    pub time_s: f64,
    /// Time in kernels.
    pub kernel_time_s: f64,
    /// Time in host↔device copies.
    pub copy_time_s: f64,
    /// Modeled FLOPs executed.
    pub flops: f64,
    /// Modeled device-memory traffic (bytes).
    pub bytes: f64,
    /// Host↔device traffic (bytes).
    pub pcie_bytes: f64,
    /// Kernel launches.
    pub kernels: u64,
}

impl GpuReport {
    /// Fraction of device peak achieved by the kernel compute.
    pub fn peak_fraction(&self, dev: &DeviceProfile) -> f64 {
        if self.kernel_time_s <= 0.0 {
            return 0.0;
        }
        (self.flops / self.kernel_time_s) / dev.peak_flops
    }
}

/// The GPU execution target behind the session's [`Backend`] trait: states
/// whose top-level scopes carry [`Schedule::GpuDevice`] (or
/// `GpuThreadBlock`) route here. Each state executes for real on the host
/// engine (bit-exact results) and the roofline model prices its kernels;
/// host↔device traffic into `GpuGlobal`/`GpuShared` storage is charged by
/// the session at this device's PCIe bandwidth.
pub struct GpuSimBackend {
    dev: DeviceProfile,
}

impl GpuSimBackend {
    /// A backend modeling `dev`.
    pub fn new(dev: DeviceProfile) -> GpuSimBackend {
        GpuSimBackend { dev }
    }

    /// The modeled device.
    pub fn device(&self) -> &DeviceProfile {
        &self.dev
    }
}

impl Backend for GpuSimBackend {
    fn name(&self) -> &'static str {
        "gpu-sim"
    }

    fn supports(&self, schedule: Schedule) -> bool {
        matches!(schedule, Schedule::GpuDevice | Schedule::GpuThreadBlock)
    }

    fn owns_storage(&self, storage: Storage) -> bool {
        matches!(storage, Storage::GpuGlobal | Storage::GpuShared)
    }

    fn transfer_time(&self, bytes: f64) -> f64 {
        bytes / self.dev.pcie_bandwidth
    }

    fn run_scope(
        &self,
        rcx: &mut RunCtx<'_, '_, '_>,
        sid: sdfg_core::StateId,
    ) -> Result<ScopeStats, ExecError> {
        rcx.run_functional(sid)?;
        let m = model_state(rcx.sdfg(), sid, &self.dev, rcx.env())?;
        Ok(ScopeStats {
            scopes: m.kernels,
            compute_s: m.kernel_t,
            copy_s: m.copy_t,
            flops: m.flops,
            bytes: m.bytes,
            ..ScopeStats::default()
        })
    }
}

impl GpuReport {
    /// Folds an invoke's per-backend totals ([`Outputs::backends`]) into
    /// the GPU view: kernel time covers compute plus device-local copies,
    /// copy time is the modeled PCIe transfer time, and PCIe bytes are the
    /// host↔device byte counters.
    pub fn from_backends(backends: &[BackendStats]) -> GpuReport {
        let Some(g) = backends.iter().find(|b| b.name == "gpu-sim") else {
            return GpuReport::default();
        };
        let kernel_time_s = g.scope.compute_s + g.scope.copy_s;
        let copy_time_s = g.transfer_s;
        GpuReport {
            time_s: kernel_time_s + copy_time_s,
            kernel_time_s,
            copy_time_s,
            flops: g.scope.flops,
            bytes: g.scope.bytes,
            pcie_bytes: g.xfer.total() as f64,
            kernels: g.scope.scopes,
        }
    }
}

/// Runs an SDFG on a session with a [`GpuSimBackend`] registered and folds
/// its per-backend totals into a [`GpuReport`]. Results are bit-exact
/// (states execute on the host engine); only timing is modeled.
pub fn run_gpu(
    sdfg: &Sdfg,
    dev: &DeviceProfile,
    bindings: Bindings,
) -> Result<(GpuReport, Outputs), SdfgError> {
    let out = Session::builder(sdfg.clone())
        .backend(Box::new(GpuSimBackend::new(dev.clone())))
        .build()?
        .run(bindings)?;
    Ok((GpuReport::from_backends(out.backends()), out))
}

/// What the roofline model says one execution of a state costs.
struct StateModel {
    kernel_t: f64,
    copy_t: f64,
    flops: f64,
    bytes: f64,
    kernels: u64,
}

/// Models one state: kernel launches plus *device-local* copies.
/// Host↔device transfers are not modeled here — the session accounts them
/// at schedule boundaries via [`Backend::transfer_time`].
fn model_state(
    sdfg: &Sdfg,
    sid: sdfg_core::StateId,
    dev: &DeviceProfile,
    env: &Env,
) -> Result<StateModel, ExecError> {
    let st = sdfg.state(sid);
    let tree = scope_tree(st).map_err(|e| ExecError::BadGraph(e.to_string()))?;
    let mut m = StateModel {
        kernel_t: 0.0,
        copy_t: 0.0,
        flops: 0.0,
        bytes: 0.0,
        kernels: 0,
    };
    for n in st.graph.node_ids() {
        if tree.scope_of(n).is_some() {
            continue;
        }
        match st.graph.node(n) {
            Node::Access { data } => {
                // Device-local copies (e.g. `gpu_A` → `gpu_B`): read + write
                // through device memory.
                for e in st.graph.out_edges(n) {
                    let dst = st.graph.edge_dst(e);
                    let Node::Access { data: dd } = st.graph.node(dst) else {
                        continue;
                    };
                    let mem = &st.graph.edge(e).memlet;
                    if mem.is_empty() {
                        continue;
                    }
                    let src_dev = sdfg
                        .desc(data)
                        .map(|d| d.storage().is_device())
                        .unwrap_or(false);
                    let dst_dev = sdfg
                        .desc(dd)
                        .map(|d| d.storage().is_device())
                        .unwrap_or(false);
                    if !(src_dev && dst_dev) {
                        continue;
                    }
                    let elems = mem.subset.eval_volume(env).unwrap_or(0) as f64;
                    let elem_bytes = sdfg
                        .desc(mem.data_name())
                        .map(|d| d.dtype().size_bytes() as f64)
                        .unwrap_or(8.0);
                    let moved = elems * elem_bytes;
                    m.bytes += 2.0 * moved;
                    m.copy_t += 2.0 * moved / dev.mem_bandwidth;
                }
            }
            Node::MapEntry(scope) if scope.schedule == Schedule::GpuDevice => {
                m.kernels += 1;
                let (f, b) = model_kernel(sdfg, sid, n, env, dev)?;
                m.flops += f;
                m.bytes += b;
                m.kernel_t += (f / dev.peak_flops).max(b / dev.mem_bandwidth) + dev.launch_overhead;
            }
            _ => {}
        }
    }
    Ok(m)
}

/// Models a kernel: total flops and effective device-memory bytes.
fn model_kernel(
    sdfg: &Sdfg,
    sid: sdfg_core::StateId,
    entry: sdfg_graph::NodeId,
    env: &Env,
    dev: &DeviceProfile,
) -> Result<(f64, f64), ExecError> {
    let st = sdfg.state(sid);
    let tree = scope_tree(st).map_err(|e| ExecError::BadGraph(e.to_string()))?;
    let Node::MapEntry(scope) = st.graph.node(entry) else {
        unreachable!()
    };
    // Iteration count: evaluated symbolically with parameters swept — use
    // the propagated num_iterations. Parameters of outer scopes are not
    // present here because GPU kernels sit at the top level.
    let iters = scope.num_iterations().eval(env).unwrap_or(0).max(0) as f64;
    let innermost = scope.params.last().cloned().unwrap_or_default();
    let mut flops_per_iter = 0.0;
    let mut bytes_per_iter = 0.0;
    for c in sdfg_core::scope::scope_members(st, entry) {
        let node = st.graph.node(c);
        // Nested sequential scopes multiply the inner work.
        let mult: f64 = tree
            .ancestors(c)
            .iter()
            .filter(|&&a| a != entry)
            .map(|&a| match st.graph.node(a) {
                Node::MapEntry(m) => m.num_iterations().eval(env).unwrap_or(1).max(1) as f64,
                _ => 1.0,
            })
            .product();
        if let Node::Tasklet { code, .. } = node {
            if let Ok(body) = sdfg_lang::parse_tasklet(code) {
                flops_per_iter += mult * body.iter().map(flops_of_stmt).sum::<f64>();
            }
            // Memory traffic: tasklet-level memlets.
            for e in st.graph.in_edges(c).chain(st.graph.out_edges(c)) {
                let m = &st.graph.edge(e).memlet;
                if m.is_empty() {
                    continue;
                }
                // Only global-memory containers count.
                let Some(desc) = sdfg.desc(m.data_name()) else {
                    continue;
                };
                if matches!(desc.storage(), Storage::GpuShared | Storage::Register) {
                    continue;
                }
                let elem_bytes = desc.dtype().size_bytes() as f64;
                let mut volume = 1.0; // per iteration: scalar accesses
                if let Ok(v) = m.volume.eval(env) {
                    // Volume of the tasklet-level memlet is per-point
                    // already (no scope params bound ⇒ eval may fail; fall
                    // back to 1).
                    volume = v.max(1) as f64;
                }
                let mut cost = volume * elem_bytes;
                if !is_coalesced(m, &innermost) {
                    cost *= dev.uncoalesced_factor;
                }
                if m.wcr.is_some() {
                    cost *= dev.atomic_factor;
                }
                bytes_per_iter += mult * cost;
            }
        }
    }
    Ok((flops_per_iter * iters, bytes_per_iter * iters))
}

/// Stride-1 (or invariant) access in the innermost parameter?
fn is_coalesced(m: &sdfg_core::Memlet, innermost: &str) -> bool {
    if innermost.is_empty() {
        return true;
    }
    let rank = m.subset.rank();
    for (d, r) in m.subset.dims.iter().enumerate() {
        let uses = r.start.has_symbol(innermost) || r.end.has_symbol(innermost);
        if !uses {
            continue;
        }
        if d + 1 != rank {
            return false; // innermost param indexes a non-contiguous dim
        }
        if !matches!(r.start.stride_in(innermost), Ok(0 | 1)) {
            return false;
        }
    }
    true
}

/// FLOP estimate of one tasklet statement.
fn flops_of_stmt(s: &Stmt) -> f64 {
    match s {
        Stmt::Assign { op, value, .. } => {
            flops_of_expr(value) + if op.is_some() { 1.0 } else { 0.0 }
        }
        Stmt::Push { value, .. } => flops_of_expr(value),
        Stmt::If { cond, then, els } => {
            flops_of_expr(cond)
                + 0.5 * then.iter().map(flops_of_stmt).sum::<f64>()
                + 0.5 * els.iter().map(flops_of_stmt).sum::<f64>()
        }
    }
}

fn flops_of_expr(e: &ExprAst) -> f64 {
    match e {
        ExprAst::Num(_) | ExprAst::Name(_) => 0.0,
        ExprAst::Index(_, idx) => idx.iter().map(flops_of_expr).sum(),
        ExprAst::Bin(_, a, b) | ExprAst::Cmp(_, a, b) | ExprAst::And(a, b) | ExprAst::Or(a, b) => {
            1.0 + flops_of_expr(a) + flops_of_expr(b)
        }
        ExprAst::Neg(a) | ExprAst::Not(a) => 1.0 + flops_of_expr(a),
        ExprAst::Call(_, args) => 1.0 + args.iter().map(flops_of_expr).sum::<f64>(),
        ExprAst::Ternary { cond, then, els } => {
            flops_of_expr(cond) + 0.5 * (flops_of_expr(then) + flops_of_expr(els))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;
    use sdfg_transforms::{apply_first, GpuTransform, Params};

    fn saxpy_gpu(n: i64) -> (Sdfg, Bindings) {
        let mut b = SdfgBuilder::new("saxpy");
        b.symbol("N");
        b.array("X", &["N"], DType::F64);
        b.array("Y", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "ax",
            &[("i", "0:N")],
            &[("x", "X", "i"), ("y", "Y", "i")],
            "o = 2 * x + y",
            &[("o", "Y", "i")],
        );
        let mut sdfg = b.build().unwrap();
        apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap();
        let bindings = Bindings::new()
            .symbol("N", n)
            .array_vec("X", (0..n).map(|x| x as f64).collect())
            .array_vec("Y", vec![1.0; n as usize]);
        (sdfg, bindings)
    }

    #[test]
    fn functional_correctness_preserved() {
        let (sdfg, bindings) = saxpy_gpu(1000);
        let (rep, out) = run_gpu(&sdfg, &p100(), bindings).unwrap();
        let y = out.array("Y").unwrap();
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64 + 1.0);
        }
        assert!(rep.time_s > 0.0);
        assert_eq!(rep.kernels, 1);
        assert!(rep.copy_time_s > 0.0, "H2D/D2H copies modeled");
        assert!(rep.flops > 0.0);
    }

    #[test]
    fn bigger_problems_take_longer() {
        let (s1, a1) = saxpy_gpu(1 << 10);
        let (s2, a2) = saxpy_gpu(1 << 20);
        let (r1, _) = run_gpu(&s1, &p100(), a1).unwrap();
        let (r2, _) = run_gpu(&s2, &p100(), a2).unwrap();
        assert!(r2.time_s > r1.time_s);
        assert!(r2.bytes > r1.bytes);
    }

    #[test]
    fn v100_faster_than_p100_on_compute() {
        let (s, a) = saxpy_gpu(1 << 20);
        let (rp, _) = run_gpu(&s, &p100(), a).unwrap();
        let (rv, _) = run_gpu(&s, &v100(), saxpy_gpu(1 << 20).1).unwrap();
        assert!(rv.kernel_time_s < rp.kernel_time_s);
    }

    #[test]
    fn atomics_cost_more() {
        // Dot product with WCR vs plain elementwise: same footprint, the
        // WCR version pays the atomic factor.
        let mut b = SdfgBuilder::new("dot");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("out", &["1"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet_wcr(
            st,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a",
            &[("o", "out", "0", Some(sdfg_core::Wcr::Sum))],
            Schedule::CpuMulticore,
        );
        let mut wcr_sdfg = b.build().unwrap();
        apply_first(&mut wcr_sdfg, &GpuTransform, &Params::new()).unwrap();

        let mut b2 = SdfgBuilder::new("copy");
        b2.symbol("N");
        b2.array("A", &["N"], DType::F64);
        b2.array("out", &["N"], DType::F64);
        let st2 = b2.state("main");
        b2.mapped_tasklet(
            st2,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a",
            &[("o", "out", "i")],
        );
        let mut plain_sdfg = b2.build().unwrap();
        apply_first(&mut plain_sdfg, &GpuTransform, &Params::new()).unwrap();

        let n = 1 << 18;
        let inputs = |out_len: usize| {
            Bindings::new()
                .symbol("N", n as i64)
                .array_vec("A", vec![1.0; n])
                .array_vec("out", vec![0.0; out_len])
        };
        let (r_wcr, out) = run_gpu(&wcr_sdfg, &p100(), inputs(1)).unwrap();
        let (r_plain, _) = run_gpu(&plain_sdfg, &p100(), inputs(n)).unwrap();
        assert!(r_wcr.bytes > r_plain.bytes * 0.9, "atomic factor applies");
        assert_eq!(out.array("out").unwrap()[0], n as f64, "WCR result correct");
    }

    #[test]
    fn strided_access_pays_uncoalesced_factor() {
        // Column-major access: A[i, 0] over i — innermost param indexes a
        // non-last dim.
        let mut b = SdfgBuilder::new("col");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        b.array("out", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i, 0")],
            "o = a",
            &[("o", "out", "i")],
        );
        let mut col = b.build().unwrap();
        apply_first(&mut col, &GpuTransform, &Params::new()).unwrap();

        let mut b2 = SdfgBuilder::new("row");
        b2.symbol("N");
        b2.array("A", &["N", "N"], DType::F64);
        b2.array("out", &["N"], DType::F64);
        let st2 = b2.state("main");
        b2.mapped_tasklet(
            st2,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "0, i")],
            "o = a",
            &[("o", "out", "i")],
        );
        let mut row = b2.build().unwrap();
        apply_first(&mut row, &GpuTransform, &Params::new()).unwrap();

        let n = 512usize;
        let mk = || {
            Bindings::new()
                .symbol("N", n as i64)
                .array_vec("A", vec![1.0; n * n])
                .array_vec("out", vec![0.0; n])
        };
        let (rc, _) = run_gpu(&col, &p100(), mk()).unwrap();
        let (rr, _) = run_gpu(&row, &p100(), mk()).unwrap();
        assert!(rc.bytes > rr.bytes * 2.0, "column access must cost more");
    }

    /// A session holding a device backend is as shareable as any other:
    /// two threads invoke one at once and get the same bits and the same
    /// modeled accounting.
    #[test]
    fn session_with_a_gpu_backend_is_sync_shareable() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let (sdfg, _) = saxpy_gpu(256);
        let session = Session::builder(sdfg)
            .backend(Box::new(GpuSimBackend::new(p100())))
            .build()
            .unwrap();
        assert_send_sync(&session);
        let (a, b) = std::thread::scope(|s| {
            let run = || s.spawn(|| session.run(saxpy_gpu(256).1).unwrap());
            let (a, b) = (run(), run());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.array("Y").unwrap(), b.array("Y").unwrap());
        let (ga, gb) = (
            GpuReport::from_backends(a.backends()),
            GpuReport::from_backends(b.backends()),
        );
        assert_eq!(
            (ga.kernels, ga.pcie_bytes, ga.time_s),
            (gb.kernels, gb.pcie_bytes, gb.time_s)
        );
    }
}
