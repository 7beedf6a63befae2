//! # sdfg-fpga-sim — the FPGA target model
//!
//! The paper's FPGA results (Xilinx VCU1525, SDAccel) hinge on *dataflow
//! architecture*: naive HLS emits sequential loops whose iterations take
//! the full operation-chain latency, while SDFG-generated designs pipeline
//! every innermost map (initiation interval 1), replicate processing
//! elements for unrolled maps, and stream data through FIFOs (Fig. 7).
//! That architectural gap — not device specifics — produces the orders-of-
//! magnitude differences in Figs. 13c/14c.
//!
//! This crate substitutes a **cycle model** on top of real execution
//! (results are computed by `sdfg-exec`, so correctness is always checked):
//!
//! * pipelined map (the SDFG default): `cycles ≈ pipeline_depth + II·iters
//!   / PEs`, with `PEs` > 1 for unrolled maps;
//! * naive-HLS mode ([`FpgaMode::NaiveHls`]): every iteration pays the full
//!   operation-chain latency (`ops × op_latency`), no overlap — the
//!   baseline the paper compares against;
//! * off-chip transfers: bytes / DDR bandwidth, counted from copy states;
//! * a toy resource model (PEs, FIFOs, pipeline registers) for the
//!   "placed-and-routed" flavor of the report.

use sdfg_core::desc::DataDesc;
use sdfg_core::scope::scope_tree;
use sdfg_core::{Node, Schedule, Sdfg, Storage};
use sdfg_exec::{Backend, ExecError, RunCtx, Runtime, RuntimeReport, ScopeStats};
use sdfg_lang::ast::{ExprAst, Stmt};
use sdfg_symbolic::Env;
use std::collections::HashMap;

/// Synthesis flavor for the cycle model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpgaMode {
    /// SDFG dataflow design: pipelined loops (II=1), unrolled PE arrays,
    /// FIFO streams.
    Pipelined,
    /// Naive HLS baseline: sequential loops, no pipelining — each
    /// iteration takes the full operation-chain latency.
    NaiveHls,
}

/// A modeled FPGA board.
#[derive(Clone, Debug)]
pub struct BoardProfile {
    /// Name.
    pub name: &'static str,
    /// Fabric clock (Hz).
    pub clock_hz: f64,
    /// Off-chip DDR bandwidth (B/s).
    pub ddr_bandwidth: f64,
    /// Pipeline fill depth (cycles) per pipelined loop.
    pub pipeline_depth: u64,
    /// Latency per floating-point operation when unpipelined (cycles).
    pub op_latency: u64,
    /// Available "processing element" budget (toy resource bound).
    pub pe_budget: u64,
}

/// Xilinx VCU1525 (XCVU9P), the paper's board.
pub fn vcu1525() -> BoardProfile {
    BoardProfile {
        name: "VCU1525",
        clock_hz: 300e6,
        ddr_bandwidth: 4.0 * 19.2e9, // four DDR4-2400 banks
        pipeline_depth: 60,
        op_latency: 8,
        pe_budget: 1024,
    }
}

/// Report from a modeled FPGA run.
#[derive(Clone, Debug, Default)]
pub struct FpgaReport {
    /// Total modeled time (s).
    pub time_s: f64,
    /// Compute cycles.
    pub cycles: u64,
    /// Off-chip transfer time (s).
    pub transfer_time_s: f64,
    /// Off-chip bytes.
    pub transfer_bytes: f64,
    /// Processing elements instantiated (resource report).
    pub pes: u64,
    /// FIFO channels instantiated.
    pub fifos: u64,
}

/// The FPGA execution target behind the runtime's [`Backend`] trait:
/// states whose top-level scopes carry [`Schedule::FpgaDevice`] route
/// here. States execute for real on the host engine; the cycle model
/// prices each top-level map as a hardware module, and off-chip traffic
/// into `FpgaGlobal`/`FpgaLocal` storage is charged by the runtime at DDR
/// bandwidth.
pub struct FpgaSimBackend {
    board: BoardProfile,
    mode: FpgaMode,
}

impl FpgaSimBackend {
    /// A backend modeling `board` under the given synthesis flavor.
    pub fn new(board: BoardProfile, mode: FpgaMode) -> FpgaSimBackend {
        FpgaSimBackend { board, mode }
    }

    /// The modeled board.
    pub fn board(&self) -> &BoardProfile {
        &self.board
    }
}

impl Backend for FpgaSimBackend {
    fn name(&self) -> &'static str {
        "fpga-sim"
    }

    fn supports(&self, schedule: Schedule) -> bool {
        matches!(schedule, Schedule::FpgaDevice)
    }

    fn owns_storage(&self, storage: Storage) -> bool {
        matches!(storage, Storage::FpgaGlobal | Storage::FpgaLocal)
    }

    fn transfer_time(&self, bytes: f64) -> f64 {
        bytes / self.board.ddr_bandwidth
    }

    fn run_scope(
        &self,
        rcx: &mut RunCtx<'_, '_, '_>,
        sid: sdfg_core::StateId,
    ) -> Result<ScopeStats, ExecError> {
        rcx.run_functional(sid)?;
        let (cycles, local_bytes, pes, modules) =
            model_state(rcx.sdfg(), sid, &self.board, self.mode, rcx.env())?;
        Ok(ScopeStats {
            scopes: modules,
            compute_s: cycles as f64 / self.board.clock_hz,
            copy_s: local_bytes / self.board.ddr_bandwidth,
            bytes: local_bytes,
            cycles,
            pes,
            ..ScopeStats::default()
        })
    }
}

impl FpgaReport {
    /// Folds a heterogeneous-runtime report into the FPGA view (`fifos`
    /// counts the SDFG's stream containers, supplied by the caller).
    pub fn from_runtime(rep: &RuntimeReport, fifos: u64) -> FpgaReport {
        let Some(f) = rep.backend("fpga-sim") else {
            return FpgaReport {
                fifos,
                ..FpgaReport::default()
            };
        };
        let transfer_bytes = f.xfer.total() as f64 + f.scope.bytes;
        let transfer_time_s = f.transfer_s + f.scope.copy_s;
        FpgaReport {
            time_s: f.scope.compute_s + transfer_time_s,
            cycles: f.scope.cycles,
            transfer_time_s,
            transfer_bytes,
            pes: f.scope.pes,
            fifos,
        }
    }
}

/// Runs an SDFG through the heterogeneous runtime with an
/// [`FpgaSimBackend`] and folds the per-backend report into an
/// [`FpgaReport`]. Results are bit-exact; only timing is modeled.
pub fn run_fpga(
    sdfg: &Sdfg,
    board: &BoardProfile,
    mode: FpgaMode,
    symbols: &[(&str, i64)],
    arrays: &mut HashMap<String, Vec<f64>>,
) -> Result<FpgaReport, ExecError> {
    let mut rt =
        Runtime::new(sdfg).with_backend(Box::new(FpgaSimBackend::new(board.clone(), mode)));
    for (s, v) in symbols {
        rt.executor().set_symbol(s, *v);
    }
    for (n, d) in arrays.iter() {
        rt.executor().set_array(n, d.clone());
    }
    let rep = rt.run()?;
    for (n, d) in rt.executor().arrays.iter() {
        arrays.insert(n.clone(), d.clone());
    }
    let fifos = sdfg
        .data
        .values()
        .filter(|d| matches!(d, DataDesc::Stream(_)))
        .count() as u64;
    Ok(FpgaReport::from_runtime(&rep, fifos))
}

/// Models one state: returns (cycles, device-local copy bytes, PE
/// high-water, module count). Host↔device transfers are accounted by the
/// runtime at schedule boundaries, not here.
fn model_state(
    sdfg: &Sdfg,
    sid: sdfg_core::StateId,
    board: &BoardProfile,
    mode: FpgaMode,
    env: &Env,
) -> Result<(u64, f64, u64, u64), ExecError> {
    let st = sdfg.state(sid);
    let tree = scope_tree(st).map_err(|e| ExecError::BadGraph(e.to_string()))?;
    let mut cycles = 0u64;
    let mut bytes = 0.0f64;
    let mut pes = 0u64;
    let mut modules = 0u64;
    for n in st.graph.node_ids() {
        if tree.scope_of(n).is_some() {
            continue;
        }
        match st.graph.node(n) {
            Node::Access { data } => {
                // Device-local copies stream through the DDR banks.
                for e in st.graph.out_edges(n) {
                    let dst = st.graph.edge_dst(e);
                    let Node::Access { data: dd } = st.graph.node(dst) else {
                        continue;
                    };
                    let m = &st.graph.edge(e).memlet;
                    if m.is_empty() {
                        continue;
                    }
                    let dev = |name: &str| {
                        sdfg.desc(name)
                            .map(|d| d.storage().is_device())
                            .unwrap_or(false)
                    };
                    if !(dev(data) && dev(dd)) {
                        continue;
                    }
                    let elems = m.subset.eval_volume(env).unwrap_or(0) as f64;
                    let eb = sdfg
                        .desc(m.data_name())
                        .map(|d| d.dtype().size_bytes() as f64)
                        .unwrap_or(8.0);
                    bytes += elems * eb;
                }
            }
            Node::MapEntry(scope)
                if matches!(
                    scope.schedule,
                    Schedule::FpgaDevice | Schedule::CpuMulticore
                ) =>
            {
                modules += 1;
                let (c, p) = model_module(sdfg, sid, n, board, mode, env)?;
                // Separate connected components run concurrently
                // (DATAFLOW); serialize conservatively within a state
                // unless streams connect them — approximate with max for
                // stream-coupled graphs, sum otherwise.
                cycles += c;
                pes = pes.max(p);
            }
            _ => {}
        }
    }
    Ok((cycles, bytes, pes, modules))
}

/// Models one top-level map as a hardware module.
fn model_module(
    sdfg: &Sdfg,
    sid: sdfg_core::StateId,
    entry: sdfg_graph::NodeId,
    board: &BoardProfile,
    mode: FpgaMode,
    env: &Env,
) -> Result<(u64, u64), ExecError> {
    let st = sdfg.state(sid);
    let Node::MapEntry(scope) = st.graph.node(entry) else {
        unreachable!()
    };
    let iters = scope.num_iterations().eval(env).unwrap_or(0).max(0) as u64;
    // PE replication: unrolled maps instantiate one PE per iteration of the
    // unrolled dimensions (bounded by the budget).
    let pes = if scope.unroll {
        iters.clamp(1, board.pe_budget)
    } else {
        1
    };
    // Vector width behaves as PE-level SIMD.
    let simd = scope.vector_len.unwrap_or(1) as u64;
    // Operation chain length of the body.
    let mut ops = 0u64;
    let mut inner_iters = 1u64;
    for c in sdfg_core::scope::scope_members(st, entry) {
        match st.graph.node(c) {
            Node::Tasklet { code, .. } => {
                if let Ok(body) = sdfg_lang::parse_tasklet(code) {
                    ops += body.iter().map(ops_of_stmt).sum::<u64>();
                }
            }
            Node::MapEntry(inner) => {
                inner_iters = inner_iters
                    .saturating_mul(inner.num_iterations().eval(env).unwrap_or(1).max(1) as u64);
            }
            _ => {}
        }
    }
    let ops = ops.max(1);
    let total_iters = iters.saturating_mul(inner_iters).max(1);
    let cycles = match mode {
        FpgaMode::Pipelined => {
            // II = 1 per PE; SIMD lanes retire multiple elements per cycle.
            board.pipeline_depth + total_iters / (pes * simd).max(1)
        }
        FpgaMode::NaiveHls => {
            // Sequential: every iteration pays the full chain latency, and
            // off-chip accesses are not burst-coalesced (extra factor folded
            // into op latency).
            total_iters.saturating_mul(ops * board.op_latency)
        }
    };
    Ok((cycles, pes))
}

fn ops_of_stmt(s: &Stmt) -> u64 {
    match s {
        Stmt::Assign { value, .. } | Stmt::Push { value, .. } => ops_of_expr(value),
        Stmt::If { cond, then, els } => {
            ops_of_expr(cond)
                + then.iter().map(ops_of_stmt).sum::<u64>()
                + els.iter().map(ops_of_stmt).sum::<u64>()
        }
    }
}

fn ops_of_expr(e: &ExprAst) -> u64 {
    match e {
        ExprAst::Num(_) | ExprAst::Name(_) => 0,
        ExprAst::Index(_, idx) => idx.iter().map(ops_of_expr).sum(),
        ExprAst::Bin(_, a, b) | ExprAst::Cmp(_, a, b) | ExprAst::And(a, b) | ExprAst::Or(a, b) => {
            1 + ops_of_expr(a) + ops_of_expr(b)
        }
        ExprAst::Neg(a) | ExprAst::Not(a) => 1 + ops_of_expr(a),
        ExprAst::Call(_, args) => 1 + args.iter().map(ops_of_expr).sum::<u64>(),
        ExprAst::Ternary { cond, then, els } => {
            ops_of_expr(cond) + 1 + ops_of_expr(then).max(ops_of_expr(els))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;
    use sdfg_transforms::{apply_first, FpgaTransform, Params};

    fn axpy_fpga(n: i64) -> (Sdfg, HashMap<String, Vec<f64>>) {
        let mut b = SdfgBuilder::new("axpy");
        b.symbol("N");
        b.array("X", &["N"], DType::F64);
        b.array("Y", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "ax",
            &[("i", "0:N")],
            &[("x", "X", "i"), ("y", "Y", "i")],
            "o = 3 * x + y",
            &[("o", "Y", "i")],
        );
        let mut sdfg = b.build().unwrap();
        apply_first(&mut sdfg, &FpgaTransform, &Params::new()).unwrap();
        let mut arrays = HashMap::new();
        arrays.insert("X".to_string(), (0..n).map(|x| x as f64).collect());
        arrays.insert("Y".to_string(), vec![1.0; n as usize]);
        (sdfg, arrays)
    }

    #[test]
    fn functional_and_timed() {
        let (sdfg, mut arrays) = axpy_fpga(1000);
        let rep = run_fpga(
            &sdfg,
            &vcu1525(),
            FpgaMode::Pipelined,
            &[("N", 1000)],
            &mut arrays,
        )
        .unwrap();
        for (i, v) in arrays["Y"].iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64 + 1.0);
        }
        assert!(rep.cycles >= 1000, "at least one cycle per element");
        assert!(rep.transfer_bytes > 0.0);
    }

    #[test]
    fn pipelining_beats_naive_hls_by_orders_of_magnitude() {
        let n = 1 << 16;
        let (sdfg, arrays) = axpy_fpga(n);
        let rp = run_fpga(
            &sdfg,
            &vcu1525(),
            FpgaMode::Pipelined,
            &[("N", n)],
            &mut arrays.clone(),
        )
        .unwrap();
        let rn = run_fpga(
            &sdfg,
            &vcu1525(),
            FpgaMode::NaiveHls,
            &[("N", n)],
            &mut arrays.clone(),
        )
        .unwrap();
        let speedup = rn.cycles as f64 / rp.cycles as f64;
        assert!(
            speedup > 10.0,
            "pipelined must be ≫ naive; got {speedup:.1}×"
        );
    }

    #[test]
    fn unrolled_pe_array_scales() {
        // Same kernel with an unrolled (systolic-style) map.
        let (mut sdfg, arrays) = axpy_fpga(1 << 14);
        // Mark the device map unrolled.
        for sid in sdfg.state_ids() {
            let st = sdfg.state_mut(sid);
            let entries: Vec<_> = st
                .graph
                .node_ids()
                .filter(|&n| matches!(st.graph.node(n), Node::MapEntry(_)))
                .collect();
            for e in entries {
                if let Node::MapEntry(m) = st.graph.node_mut(e) {
                    m.unroll = true;
                }
            }
        }
        let runr = run_fpga(
            &sdfg,
            &vcu1525(),
            FpgaMode::Pipelined,
            &[("N", 1 << 14)],
            &mut arrays.clone(),
        )
        .unwrap();
        assert!(runr.pes > 1, "PE array instantiated");
    }
}
