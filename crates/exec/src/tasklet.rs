//! Tasklet compilation and execution: window planning, the three-tier
//! point path (native kernels, affine VM loops, symbolic fallback).

use crate::affine::{Solved, Solver};
use crate::buffer::SharedBuffer;
use crate::copy::{count_elems, desc_strides, for_each_offset, gather_symbolic, wcr_fn};
use crate::engine::{Ctx, ExecError, Worker};
use sdfg_core::desc::DataDesc;
use sdfg_core::{Node, StateId, Subset, Wcr};
use sdfg_graph::NodeId;
use sdfg_lang::recognize::{apply_binop_kind, Operand, Pattern};
use sdfg_lang::{OutPort, TaskletProgram};
use sdfg_symbolic::Env;
use sdfg_symbolic::EvalError;

// --- compiled tasklet bodies ----------------------------------------------------

/// Pre-solved window of one connector.
#[derive(Clone, Debug)]
pub(crate) enum WindowPlan {
    /// Single element at an affine/const flat offset.
    Scalar(Solved),
    /// The whole (contiguous) container, passed by reference without
    /// copying — the lowering of dynamic full-range memlets such as the
    /// Appendix F indirection reads (`x(1)[:]`).
    Full,
    /// General strided window with pre-solved per-dim bounds.
    Window {
        dims: Vec<(Solved, Solved, Solved)>, // start, end, step
        tile: i64,
        strides: Vec<i64>,
    },
    /// Fallback: symbolic subset.
    Dynamic(Subset),
}

impl WindowPlan {
    pub(crate) fn is_scalar_fast(&self) -> bool {
        matches!(self, WindowPlan::Scalar(s) if s.is_fast())
    }
}

#[derive(Clone, Debug)]
pub(crate) struct InPort {
    pub(crate) data: String,
    /// Slot in `Ctx::bufs` (fast path when the worker has no local
    /// overlays).
    pub(crate) slot: Option<usize>,
    pub(crate) stream: bool,
    pub(crate) window: WindowPlan,
}

#[derive(Clone, Debug)]
pub(crate) struct OutPortPlan {
    pub(crate) data: String,
    /// Slot in `Ctx::bufs`.
    pub(crate) slot: Option<usize>,
    pub(crate) stream: bool,
    pub(crate) wcr: Option<Wcr>,
    pub(crate) window: WindowPlan,
    /// Use the write-log port: sparse WCR writes into a larger window.
    pub(crate) log: bool,
    /// Whether WCR writes must be atomic (set by the worker's race
    /// analysis; `true` is the safe default).
    pub(crate) atomic: bool,
}

/// Native kernel plan for recognized single-statement tasklets with scalar
/// affine ports.
#[derive(Clone, Debug)]
pub(crate) enum NativePlan {
    /// One of the canonical binary/copy/FMA forms.
    Pattern(Pattern),
    /// A linear combination (stencil shape).
    LinComb(sdfg_lang::recognize::LinComb),
    /// A scaled product chain (tensor-contraction shape).
    MulChain(sdfg_lang::recognize::MulChain),
}

pub(crate) struct BodyTasklet {
    pub(crate) prog: TaskletProgram,
    pub(crate) ins: Vec<InPort>,
    pub(crate) outs: Vec<OutPortPlan>,
    pub(crate) native: Option<NativePlan>,
}

#[cfg(test)]
impl BodyTasklet {
    /// Minimal instance for plan-cache unit tests.
    pub(crate) fn test_dummy() -> BodyTasklet {
        BodyTasklet {
            prog: TaskletProgram::compile("o = 1", &[], &["o".to_string()])
                .expect("trivial tasklet compiles"),
            ins: Vec::new(),
            outs: Vec::new(),
            native: None,
        }
    }
}

/// Compiles a tasklet node's ports at a compile site: windows become
/// affine functions of the solver's names, over its launch-invariant
/// bindings.
pub(crate) fn compile_body_tasklet(
    ctx: &Ctx,
    sid: StateId,
    n: NodeId,
    solver: &mut Solver,
) -> Result<BodyTasklet, ExecError> {
    let state = ctx.sdfg.state(sid);
    let Node::Tasklet {
        name, code, lang, ..
    } = state.graph.node(n)
    else {
        unreachable!()
    };
    if *lang != sdfg_core::TaskletLang::Python {
        return Err(ExecError::ExternalTasklet(name.clone()));
    }
    let mut in_conns = Vec::new();
    let mut ins = Vec::new();
    for e in state.graph.in_edges(n) {
        let df = state.graph.edge(e);
        if df.memlet.is_empty() {
            continue;
        }
        let Some(conn) = &df.dst_conn else { continue };
        let data = df.memlet.data_name().to_string();
        let stream = matches!(ctx.sdfg.desc(&data), Some(DataDesc::Stream(_)));
        let window = plan_window(ctx, &data, &df.memlet.subset, solver, stream)?;
        in_conns.push(conn.clone());
        let slot = ctx.buf_index.get(&data).copied();
        ins.push(InPort {
            data,
            slot,
            stream,
            window,
        });
    }
    let mut out_conns: Vec<String> = Vec::new();
    let mut outs = Vec::new();
    for e in state.graph.out_edges(n) {
        let df = state.graph.edge(e);
        if df.memlet.is_empty() {
            continue;
        }
        let Some(conn) = &df.src_conn else { continue };
        if out_conns.contains(conn) {
            return Err(ExecError::BadGraph(format!(
                "executor does not support fan-out from tasklet connector `{conn}`"
            )));
        }
        let data = df.memlet.data_name().to_string();
        let stream = matches!(ctx.sdfg.desc(&data), Some(DataDesc::Stream(_)));
        let window = plan_window(ctx, &data, &df.memlet.subset, solver, stream)?;
        // Sparse WCR: conflict resolution over a multi-element window.
        let window_big = !matches!(window, WindowPlan::Scalar(_));
        let log = df.memlet.wcr.is_some() && window_big;
        out_conns.push(conn.clone());
        let slot = ctx.buf_index.get(&data).copied();
        outs.push(OutPortPlan {
            data,
            slot,
            stream,
            wcr: df.memlet.wcr.clone(),
            window,
            log,
            atomic: true,
        });
    }
    let prog = TaskletProgram::compile(code, &in_conns, &out_conns)?;
    // Native candidate?
    let native = plan_native(&prog, &ins, &outs);
    Ok(BodyTasklet {
        prog,
        ins,
        outs,
        native,
    })
}

pub(crate) fn plan_native(
    prog: &TaskletProgram,
    ins: &[InPort],
    outs: &[OutPortPlan],
) -> Option<NativePlan> {
    if outs.len() != 1 || outs[0].stream || outs[0].log {
        return None;
    }
    if !outs[0].window.is_scalar_fast() {
        return None;
    }
    if outs[0]
        .wcr
        .as_ref()
        .is_some_and(|w| matches!(w, Wcr::Custom(_)))
    {
        return None;
    }
    if !ins.iter().all(|p| !p.stream && p.window.is_scalar_fast()) {
        return None;
    }
    if let Some(pattern) = sdfg_lang::recognize::recognize(&prog.body, &prog.inputs, &prog.outputs)
    {
        return Some(NativePlan::Pattern(pattern));
    }
    if let Some(lc) =
        sdfg_lang::recognize::recognize_lincomb(&prog.body, &prog.inputs, &prog.outputs)
    {
        return Some(NativePlan::LinComb(lc));
    }
    sdfg_lang::recognize::recognize_mulchain(&prog.body, &prog.inputs, &prog.outputs)
        .map(NativePlan::MulChain)
}

/// Pre-solves a memlet subset. Streams use a scalar placeholder.
pub(crate) fn plan_window(
    ctx: &Ctx,
    data: &str,
    subset: &Subset,
    solver: &mut Solver,
    stream: bool,
) -> Result<WindowPlan, ExecError> {
    if stream {
        return Ok(WindowPlan::Scalar(Solved::Const(0)));
    }
    let strides = match desc_strides(ctx, data, solver.env0) {
        Ok(s) => s,
        Err(_) => return Ok(WindowPlan::Dynamic(subset.clone())),
    };
    // Whole-container dynamic window: pass by reference, never copy.
    if let Some(DataDesc::Array(arr)) = ctx.sdfg.desc(data) {
        let is_full = subset.rank() == arr.shape.len()
            && subset.dims.iter().zip(&arr.shape).all(|(r, sh)| {
                r.start.is_zero() && r.step.is_one() && r.tile.is_one() && &r.end == sh
            });
        // Contiguity: canonical row-major strides.
        let contiguous = arr.strides == sdfg_core::desc::row_major_strides(&arr.shape);
        if is_full && contiguous {
            return Ok(WindowPlan::Full);
        }
    }
    // Scalar case: every dim is an index (end = start + 1) and tile 1.
    let assume = sdfg_symbolic::expr::Assumptions::default();
    let is_index = subset.dims.iter().all(|r| {
        r.tile.is_one()
            && r.step.is_one()
            && (r.end.clone() - r.start.clone()).sym_cmp(&sdfg_symbolic::Expr::one(), &assume)
                == Some(std::cmp::Ordering::Equal)
    });
    if is_index && subset.dims.len() == strides.len() {
        // flat = Σ start_d * stride_d — combine solved starts.
        let mut base = 0i64;
        let mut coeffs = vec![0i64; solver.names.len()];
        let mut ok = true;
        for (d, r) in subset.dims.iter().enumerate() {
            match solver.solve(&r.start) {
                Solved::Const(v) => base += v * strides[d],
                Solved::Affine { base: b, coeffs: c } => {
                    base += b * strides[d];
                    for (k, cv) in c.iter().enumerate() {
                        coeffs[k] += cv * strides[d];
                    }
                }
                Solved::Symbolic(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if coeffs.iter().all(|&c| c == 0) {
                return Ok(WindowPlan::Scalar(Solved::Const(base)));
            }
            return Ok(WindowPlan::Scalar(Solved::Affine { base, coeffs }));
        }
        return Ok(WindowPlan::Dynamic(subset.clone()));
    }
    // General window: solve per-dim bounds.
    let mut dims = Vec::with_capacity(subset.dims.len());
    let mut tile = 1i64;
    for r in &subset.dims {
        let s = solver.solve(&r.start);
        let e = solver.solve(&r.end);
        let st = solver.solve(&r.step);
        if !(s.is_fast() && e.is_fast() && st.is_fast()) {
            return Ok(WindowPlan::Dynamic(subset.clone()));
        }
        match solver.solve(&r.tile) {
            Solved::Const(t) => tile = tile.max(t),
            _ => return Ok(WindowPlan::Dynamic(subset.clone())),
        }
        dims.push((s, e, st));
    }
    Ok(WindowPlan::Window {
        dims,
        tile,
        strides,
    })
}

// --- tasklet execution -----------------------------------------------------------

/// Executes a compiled tasklet at one parameter point (or at top level with
/// empty params).
pub(crate) fn run_tasklet_point(
    ctx: &Ctx,
    _sid: StateId,
    body: &BodyTasklet,
    worker: &mut Worker,
    stream_override: Option<(&str, f64)>,
) -> Result<(), ExecError> {
    worker.st_points += 1;
    // Snapshot the parameter point (small, lives on the stack).
    let mut point_buf = [0i64; 24];
    let np = worker.point.len().min(24);
    point_buf[..np].copy_from_slice(&worker.point[..np]);
    let point: &[i64] = &point_buf[..np];
    // Gather inputs into per-port buffers.
    let nin = body.ins.len();
    let mut scalar_ins = [0.0f64; 16];
    let mut window_ins: Vec<Vec<f64>> = Vec::new();
    /// How each input slot resolves at run time.
    enum InRef {
        Scalar(usize),
        Win(usize),
        /// Whole-container passthrough (port index; resolved inside the VM
        /// scope so the borrow ends before outputs are scattered).
        Full(usize),
    }
    let mut in_slices: Vec<InRef> = Vec::with_capacity(nin);
    for (k, port) in body.ins.iter().enumerate() {
        if port.stream {
            let v = match stream_override {
                Some((s, v)) if s == port.data => v,
                _ => ctx
                    .streams
                    .get(&port.data)
                    .ok_or_else(|| ExecError::MissingArray(port.data.clone()))?
                    .lock()
                    .pop_front()
                    .unwrap_or(0.0),
            };
            if k < 16 {
                scalar_ins[k] = v;
                in_slices.push(InRef::Scalar(k));
            } else {
                window_ins.push(vec![v]);
                in_slices.push(InRef::Win(window_ins.len() - 1));
            }
            continue;
        }
        match &port.window {
            WindowPlan::Full if !worker.locals.contains_key(&port.data) => {
                in_slices.push(InRef::Full(k));
            }
            WindowPlan::Full => {
                // Thread-local container: copy (rare; locals are small).
                let w = worker.buf(&port.data)?.as_slice().to_vec();
                window_ins.push(w);
                in_slices.push(InRef::Win(window_ins.len() - 1));
            }
            WindowPlan::Scalar(s) => {
                let off = s.eval(point, &worker.env)?;
                let v = worker.buf(&port.data)?.read(off.max(0) as usize);
                if k < 16 {
                    scalar_ins[k] = v;
                    in_slices.push(InRef::Scalar(k));
                } else {
                    window_ins.push(vec![v]);
                    in_slices.push(InRef::Win(window_ins.len() - 1));
                }
            }
            WindowPlan::Window {
                dims,
                tile,
                strides,
            } => {
                let mut evald = Vec::with_capacity(dims.len());
                for (s, e, st) in dims {
                    evald.push((
                        s.eval(point, &worker.env)?,
                        e.eval(point, &worker.env)?,
                        st.eval(point, &worker.env)?,
                        *tile,
                    ));
                }
                let buf = worker.buf(&port.data)?;
                let mut w = Vec::with_capacity(count_elems(&evald));
                for_each_offset(&evald, strides, |off| w.push(buf.read(off)));
                window_ins.push(w);
                in_slices.push(InRef::Win(window_ins.len() - 1));
            }
            WindowPlan::Dynamic(subset) => {
                let w = gather_symbolic(worker, &port.data, subset)?;
                window_ins.push(w);
                in_slices.push(InRef::Win(window_ins.len() - 1));
            }
        }
    }
    // Prepare outputs.
    enum PreparedOut {
        Mem {
            buf: Vec<f64>,
            dims: Vec<(i64, i64, i64, i64)>,
            strides: Vec<i64>,
            wcr: Option<Wcr>,
            atomic: bool,
            data: String,
        },
        ScalarDirect {
            off: usize,
            wcr: Option<Wcr>,
            atomic: bool,
            data: String,
        },
        Stream {
            data: String,
            buf: Vec<f64>,
        },
        Log {
            data: String,
            wcr: Wcr,
            atomic: bool,
            base_dims: Vec<(i64, i64, i64, i64)>,
            strides: Vec<i64>,
        },
    }
    let mut prepared: Vec<PreparedOut> = Vec::with_capacity(body.outs.len());
    for port in &body.outs {
        if port.stream {
            prepared.push(PreparedOut::Stream {
                data: port.data.clone(),
                buf: Vec::new(),
            });
            continue;
        }
        if port.log {
            let (dims, strides) = window_dims(worker, port, point)?;
            prepared.push(PreparedOut::Log {
                data: port.data.clone(),
                wcr: port.wcr.clone().unwrap(),
                atomic: port.atomic,
                base_dims: dims,
                strides,
            });
            continue;
        }
        match &port.window {
            WindowPlan::Scalar(s) => {
                let off = s.eval(point, &worker.env)?.max(0) as usize;
                prepared.push(PreparedOut::ScalarDirect {
                    off,
                    wcr: port.wcr.clone(),
                    atomic: port.atomic,
                    data: port.data.clone(),
                });
            }
            _ => {
                let (dims, strides) = window_dims(worker, port, point)?;
                let len = count_elems(&dims);
                let buf = if port.wcr.is_some() {
                    let dtype = ctx.sdfg.desc(&port.data).map(|d| d.dtype()).unwrap();
                    let id = port
                        .wcr
                        .as_ref()
                        .and_then(|w| w.identity(dtype))
                        .unwrap_or(0.0);
                    vec![id; len]
                } else {
                    // Prefill with current contents (partial writes).
                    let b = worker.buf(&port.data)?;
                    let mut w = Vec::with_capacity(len);
                    for_each_offset(&dims, &strides, |off| w.push(b.read(off)));
                    w
                };
                prepared.push(PreparedOut::Mem {
                    buf,
                    dims,
                    strides,
                    wcr: port.wcr.clone(),
                    atomic: port.atomic,
                    data: port.data.clone(),
                });
            }
        }
    }
    // Run the VM.
    {
        let ins: Vec<&[f64]> = {
            let mut v = Vec::with_capacity(in_slices.len());
            for r in &in_slices {
                v.push(match r {
                    InRef::Scalar(k) => std::slice::from_ref(&scalar_ins[*k]),
                    InRef::Win(i) => window_ins[*i].as_slice(),
                    InRef::Full(k) => ctx.buf(&body.ins[*k].data)?.as_slice(),
                });
            }
            v
        };
        // Scalar-direct outs need a stack slot.
        let mut scalar_slots: Vec<[f64; 1]> = prepared
            .iter()
            .map(|p| match p {
                PreparedOut::ScalarDirect {
                    off,
                    wcr: None,
                    data,
                    ..
                } => {
                    // Preserve read-modify-write semantics.
                    [worker.buf(data).map(|b| b.read(*off)).unwrap_or(0.0)]
                }
                _ => [0.0],
            })
            .collect();
        let mut logs: Vec<Vec<(u32, f64)>> = prepared
            .iter()
            .map(|p| {
                if matches!(p, PreparedOut::Log { .. }) {
                    std::mem::take(&mut worker.log)
                } else {
                    Vec::new()
                }
            })
            .collect();
        {
            let mut syms = Vec::with_capacity(body.prog.symbols.len());
            for name in &body.prog.symbols {
                let v = worker
                    .env
                    .get(name)
                    .copied()
                    .ok_or_else(|| EvalError::UnboundSymbol(name.clone()))?;
                syms.push(v as f64);
            }
            let mut ports: Vec<OutPort> = Vec::with_capacity(prepared.len());
            let mut slot_iter = scalar_slots.iter_mut();
            let mut log_iter = logs.iter_mut();
            for p in prepared.iter_mut() {
                match p {
                    PreparedOut::Mem { buf, .. } => ports.push(OutPort::Mem(buf)),
                    PreparedOut::ScalarDirect { .. } => {
                        ports.push(OutPort::Mem(slot_iter.next().unwrap()));
                        let _ = log_iter.next();
                        continue;
                    }
                    PreparedOut::Stream { buf, .. } => ports.push(OutPort::Stream(buf)),
                    PreparedOut::Log { .. } => {
                        let l = log_iter.next().unwrap();
                        l.clear();
                        ports.push(OutPort::Log(l));
                        let _ = slot_iter.next();
                        continue;
                    }
                }
                let _ = slot_iter.next();
                let _ = log_iter.next();
            }
            worker
                .vm
                .run_with_syms(&body.prog, &ins, &mut ports, &syms)?;
        }
        // Scatter.
        for (i, p) in prepared.into_iter().enumerate() {
            match p {
                PreparedOut::Mem {
                    buf,
                    dims,
                    strides,
                    wcr,
                    atomic,
                    data,
                } => {
                    let b = worker.buf(&data)?;
                    let mut k = 0usize;
                    match &wcr {
                        None => for_each_offset(&dims, &strides, |off| {
                            b.write(off, buf[k]);
                            k += 1;
                        }),
                        Some(w) => {
                            let f = wcr_fn(w)?;
                            if atomic {
                                for_each_offset(&dims, &strides, |off| {
                                    b.atomic_combine(off, buf[k], f);
                                    k += 1;
                                });
                            } else {
                                for_each_offset(&dims, &strides, |off| {
                                    b.combine_plain(off, buf[k], f);
                                    k += 1;
                                });
                            }
                        }
                    }
                }
                PreparedOut::ScalarDirect {
                    off,
                    wcr,
                    atomic,
                    data,
                } => {
                    let v = scalar_slots[i][0];
                    let b = worker.buf(&data)?;
                    match &wcr {
                        None => b.write(off, v),
                        Some(w) if atomic => b.atomic_combine(off, v, wcr_fn(w)?),
                        Some(w) => b.combine_plain(off, v, wcr_fn(w)?),
                    }
                }
                PreparedOut::Stream { data, buf } => {
                    ctx.streams
                        .get(&data)
                        .ok_or_else(|| ExecError::MissingArray(data.clone()))?
                        .lock()
                        .extend(buf);
                }
                PreparedOut::Log {
                    data,
                    wcr,
                    atomic,
                    base_dims,
                    strides,
                } => {
                    let _ = atomic; // sparse WCR stays atomic (offsets are
                                    // data-dependent; the race analysis
                                    // cannot clear them)
                                    // Map window-relative offsets to global offsets. Fast
                                    // path: contiguous full window (row-major, stride-1
                                    // innermost) — global = base + rel.
                    let f = wcr_fn(&wcr)?;
                    let b = worker.buf(&data)?;
                    let contiguous = is_contiguous(&base_dims, &strides);
                    let log = std::mem::take(&mut logs[i]);
                    if let Some(base) = contiguous {
                        for &(rel, v) in &log {
                            b.atomic_combine(base + rel as usize, v, f);
                        }
                    } else {
                        // Precompute the offset table for this window.
                        let mut table = Vec::with_capacity(count_elems(&base_dims));
                        for_each_offset(&base_dims, &strides, |off| table.push(off));
                        for &(rel, v) in &log {
                            if let Some(&off) = table.get(rel as usize) {
                                b.atomic_combine(off, v, f);
                            }
                        }
                    }
                    worker.log = log; // reuse allocation
                }
            }
        }
    }
    Ok(())
}

/// Per-dimension `(begin, end, step, tile)` bounds plus strides for one
/// output window.
pub(crate) type WindowDims = (Vec<(i64, i64, i64, i64)>, Vec<i64>);

pub(crate) fn window_dims(
    worker: &Worker,
    port: &OutPortPlan,
    point: &[i64],
) -> Result<WindowDims, ExecError> {
    match &port.window {
        WindowPlan::Window {
            dims,
            tile,
            strides,
        } => {
            let mut evald = Vec::with_capacity(dims.len());
            for (s, e, st) in dims {
                evald.push((
                    s.eval(point, &worker.env)?,
                    e.eval(point, &worker.env)?,
                    st.eval(point, &worker.env)?,
                    *tile,
                ));
            }
            Ok((evald, strides.clone()))
        }
        WindowPlan::Scalar(s) => {
            let off = s.eval(point, &worker.env)?;
            Ok((vec![(off, off + 1, 1, 1)], vec![1]))
        }
        WindowPlan::Dynamic(subset) => {
            let dims = subset.eval(&worker.env)?;
            let strides = desc_strides(worker.ctx, &port.data, &worker.env)?;
            Ok((dims, strides))
        }
        WindowPlan::Full => {
            // Whole container (output side): derive dims from the shape.
            let desc = worker
                .ctx
                .sdfg
                .desc(&port.data)
                .ok_or_else(|| ExecError::MissingArray(port.data.clone()))?;
            let mut dims = Vec::new();
            for sh in desc.shape() {
                let n = sh.eval(&worker.env)?;
                dims.push((0, n, 1, 1));
            }
            if dims.is_empty() {
                dims.push((0, 1, 1, 1));
            }
            let strides = desc_strides(worker.ctx, &port.data, &worker.env)?;
            Ok((dims, strides))
        }
    }
}

/// If the window is a dense row-major view (steps 1, strides matching a
/// packed layout), returns the base offset so relative offsets add directly.
pub(crate) fn is_contiguous(dims: &[(i64, i64, i64, i64)], strides: &[i64]) -> Option<usize> {
    let mut expected_stride = 1i64;
    for (d, &(s, e, st, t)) in dims.iter().enumerate().rev() {
        if st != 1 || t > 1 {
            return None;
        }
        if strides.get(d).copied().unwrap_or(1) != expected_stride {
            return None;
        }
        expected_stride *= e - s;
        let _ = s;
    }
    let mut base = 0i64;
    for (d, &(s, ..)) in dims.iter().enumerate() {
        base += s * strides.get(d).copied().unwrap_or(1);
    }
    if base < 0 {
        None
    } else {
        Some(base as usize)
    }
}

// --- native loops -------------------------------------------------------------------

/// Runs the innermost dimension natively when the tasklet matches a
/// recognized pattern with affine scalar ports. Returns `Some(())` when
/// handled.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_native_loop(
    _ctx: &Ctx,
    bt: &BodyTasklet,
    worker: &mut Worker,
    dim: usize, // absolute index into the parameter stack
    s: i64,
    e: i64,
    st: i64,
) -> Result<Option<()>, ExecError> {
    let Some(native) = &bt.native else {
        return Ok(None);
    };
    if st <= 0 || s >= e {
        return Ok(if s >= e { Some(()) } else { None });
    }
    let n = (((e - s) + st - 1) / st) as usize;
    // Resolve base offsets and inner-dim coefficients (stack snapshot of
    // the parameter point — this path runs once per inner-loop launch).
    worker.point[dim] = s;
    let mut point_buf = [0i64; 24];
    let np = worker.point.len().min(24);
    point_buf[..np].copy_from_slice(&worker.point[..np]);
    let point: &[i64] = &point_buf[..np];
    let resolve = |w: &WindowPlan, point: &[i64]| -> Option<(i64, i64)> {
        match w {
            WindowPlan::Scalar(sv) => {
                let base = sv.eval(point, &Env::new()).ok()?;
                let coeff = sv.coeff(dim)?;
                Some((base, coeff * st))
            }
            _ => None,
        }
    };
    let out = &bt.outs[0];
    let Some((out_base, out_step)) = resolve(&out.window, point) else {
        return Ok(None);
    };
    let mut in_bases = Vec::with_capacity(bt.ins.len());
    for p in &bt.ins {
        let Some(b) = resolve(&p.window, point) else {
            return Ok(None);
        };
        in_bases.push(b);
    }
    worker.st_points += n as u64;
    worker.st_native += n as u64;
    let out_buf = worker.buf_slot(out.slot, &out.data)?;
    // Linear combinations and product chains take dedicated loops.
    if let NativePlan::LinComb(lc) = native {
        return run_lincomb(
            lc, n, out_buf, out_base, out_step, &in_bases, bt, worker, out,
        )
        .map(Some);
    }
    if let NativePlan::MulChain(mc) = native {
        return run_mulchain(
            mc, n, out_buf, out_base, out_step, &in_bases, bt, worker, out,
        )
        .map(Some);
    }
    let NativePlan::Pattern(pattern) = native else {
        unreachable!()
    };
    let native = pattern;

    // Operand fetcher.
    let operand = |op: Operand| -> Result<(f64, i64, i64, &SharedBuffer), ExecError> {
        match op {
            Operand::Const(c) => Ok((c, 0, 0, out_buf)),
            Operand::Input(i) => {
                let (b, step) = in_bases[i];
                Ok((0.0, b, step, worker.buf(&bt.ins[i].data)?))
            }
        }
    };

    match (native, &out.wcr) {
        // Reduction into a loop-invariant scalar: accumulate in-register.
        (pat, Some(w)) if out_step == 0 => {
            let f = wcr_fn(w)?;
            let mut acc_init = match w {
                Wcr::Sum => 0.0,
                Wcr::Product => 1.0,
                Wcr::Min => f64::INFINITY,
                Wcr::Max => f64::NEG_INFINITY,
                Wcr::Custom(_) => return Ok(None),
            };
            // Monomorphic fast path for Sum reductions over products (the
            // GEMM/dot inner loop): bounds-checked once, then raw reads.
            if matches!(w, Wcr::Sum) {
                if let Pattern::BinOp {
                    op: sdfg_lang::recognize::BinOpKind::Mul,
                    a: Operand::Input(ia),
                    b: Operand::Input(ib),
                } = pat
                {
                    let (ba, sa) = in_bases[*ia];
                    let (bb, sb) = in_bases[*ib];
                    let bufa = worker.buf_slot(bt.ins[*ia].slot, &bt.ins[*ia].data)?;
                    let bufb = worker.buf_slot(bt.ins[*ib].slot, &bt.ins[*ib].data)?;
                    let xs = bufa.as_slice();
                    let ys = bufb.as_slice();
                    let last_a = ba + (n as i64 - 1) * sa;
                    let last_b = bb + (n as i64 - 1) * sb;
                    let in_bounds = ba >= 0
                        && bb >= 0
                        && last_a >= 0
                        && last_b >= 0
                        && (ba.max(last_a) as usize) < xs.len()
                        && (bb.max(last_b) as usize) < ys.len();
                    if in_bounds {
                        let mut acc = 0.0f64;
                        if sa == 1 && sb == 1 {
                            let xs = &xs[ba as usize..][..n];
                            let ys = &ys[bb as usize..][..n];
                            for (x, y) in xs.iter().zip(ys) {
                                acc += x * y;
                            }
                        } else {
                            let (mut ia2, mut ib2) = (ba, bb);
                            for _ in 0..n {
                                // SAFETY: bounds verified above for the
                                // whole strided range.
                                unsafe {
                                    acc += xs.get_unchecked(ia2 as usize)
                                        * ys.get_unchecked(ib2 as usize);
                                }
                                ia2 += sa;
                                ib2 += sb;
                            }
                        }
                        if out.atomic {
                            out_buf.atomic_combine(out_base.max(0) as usize, acc, f);
                        } else {
                            out_buf.combine_plain(out_base.max(0) as usize, acc, f);
                        }
                        return Ok(Some(()));
                    }
                }
            }
            match pat {
                Pattern::Copy { input } => {
                    let (b, stp) = in_bases[*input];
                    let buf = worker.buf_slot(bt.ins[*input].slot, &bt.ins[*input].data)?;
                    for k in 0..n {
                        let v = buf.read((b + k as i64 * stp).max(0) as usize);
                        acc_init = f(acc_init, v);
                    }
                }
                Pattern::Axpb { input, mul, add } => {
                    let (b, stp) = in_bases[*input];
                    let buf = worker.buf(&bt.ins[*input].data)?;
                    for k in 0..n {
                        let v = mul * buf.read((b + k as i64 * stp).max(0) as usize) + add;
                        acc_init = f(acc_init, v);
                    }
                }
                Pattern::BinOp { op, a, b } => {
                    let (ca, ba, sa, bufa) = operand(*a)?;
                    let (cb, bb, sb, bufb) = operand(*b)?;
                    for k in 0..n {
                        let xa = if sa == 0 && ba == 0 && matches!(a, Operand::Const(_)) {
                            ca
                        } else {
                            bufa.read((ba + k as i64 * sa).max(0) as usize)
                        };
                        let xb = if sb == 0 && bb == 0 && matches!(b, Operand::Const(_)) {
                            cb
                        } else {
                            bufb.read((bb + k as i64 * sb).max(0) as usize)
                        };
                        acc_init = f(acc_init, apply_binop_kind(*op, xa, xb));
                    }
                }
                Pattern::Fma { a, b, c } => {
                    let (ba, sa) = in_bases[*a];
                    let (bb, sb) = in_bases[*b];
                    let (bc, sc) = in_bases[*c];
                    let bufa = worker.buf(&bt.ins[*a].data)?;
                    let bufb = worker.buf(&bt.ins[*b].data)?;
                    let bufc = worker.buf(&bt.ins[*c].data)?;
                    for k in 0..n {
                        let v = bufa.read((ba + k as i64 * sa).max(0) as usize)
                            * bufb.read((bb + k as i64 * sb).max(0) as usize)
                            + bufc.read((bc + k as i64 * sc).max(0) as usize);
                        acc_init = f(acc_init, v);
                    }
                }
            }
            if out.atomic {
                out_buf.atomic_combine(out_base.max(0) as usize, acc_init, f);
            } else {
                out_buf.combine_plain(out_base.max(0) as usize, acc_init, f);
            }
        }
        // Element-wise, no conflicts: plain strided loop.
        (pat, None) => {
            run_elementwise(
                pat, n, out_buf, out_base, out_step, &in_bases, bt, worker, None, true,
            )?;
        }
        // Element-wise with WCR: combine per element (atomic only when the
        // race analysis requires it).
        (pat, Some(w)) => {
            let f = wcr_fn(w)?;
            run_elementwise(
                pat,
                n,
                out_buf,
                out_base,
                out_step,
                &in_bases,
                bt,
                worker,
                Some(f),
                out.atomic,
            )?;
        }
    }
    Ok(Some(()))
}

/// Allocation-free inner loop for unrecognized tasklets whose ports are all
/// affine scalars: the bytecode VM runs per point with stack-resident
/// buffers and pre-resolved offset strides.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_vm_loop(
    ctx: &Ctx,
    bt: &BodyTasklet,
    worker: &mut Worker,
    dim: usize,
    s: i64,
    e: i64,
    st: i64,
) -> Result<Option<()>, ExecError> {
    const MAX_PORTS: usize = 12;
    if bt.ins.len() > MAX_PORTS || bt.outs.len() > MAX_PORTS || bt.outs.is_empty() {
        return Ok(None);
    }
    // Symbol-reading bodies: values must be loop-invariant here (the
    // innermost parameter is not re-inserted into the env by this loop).
    let innermost_name = worker.pstack.get(dim).cloned();
    if bt
        .prog
        .symbols
        .iter()
        .any(|s| Some(s) == innermost_name.as_ref())
    {
        return Ok(None);
    }
    let mut symvals = Vec::with_capacity(bt.prog.symbols.len());
    for name in &bt.prog.symbols {
        let v = worker
            .env
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnboundSymbol(name.clone()))?;
        symvals.push(v as f64);
    }
    if st <= 0 || s >= e {
        return Ok(if s >= e { Some(()) } else { None });
    }
    // Inputs: affine scalars or full-container passthroughs (no streams).
    for p in &bt.ins {
        if p.stream {
            return Ok(None);
        }
        let ok = p.window.is_scalar_fast()
            || (matches!(p.window, WindowPlan::Full) && !worker.locals.contains_key(&p.data));
        if !ok {
            return Ok(None);
        }
    }
    // Outputs: affine scalars, streams (flushed per chunk), or contiguous
    // write-log ports; no custom WCR.
    for o in &bt.outs {
        if matches!(o.wcr, Some(Wcr::Custom(_))) {
            return Ok(None);
        }
        if o.stream {
            continue;
        }
        if o.log {
            // Only whole-container logs (contiguous, base 0).
            if !matches!(o.window, WindowPlan::Full) {
                return Ok(None);
            }
            continue;
        }
        if !o.window.is_scalar_fast() {
            return Ok(None);
        }
    }
    let n = (((e - s) + st - 1) / st) as usize;
    worker.point[dim] = s;
    let mut point_buf = [0i64; 24];
    let np = worker.point.len().min(24);
    point_buf[..np].copy_from_slice(&worker.point[..np]);
    let point: &[i64] = &point_buf[..np];
    let resolve = |w: &WindowPlan| -> Option<(i64, i64)> {
        match w {
            WindowPlan::Scalar(sv) => {
                let base = sv.eval(point, &Env::new()).ok()?;
                let coeff = sv.coeff(dim)?;
                Some((base, coeff * st))
            }
            _ => None,
        }
    };
    let mut in_off = [(0i64, 0i64); MAX_PORTS];
    let mut in_full = [false; MAX_PORTS];
    for (k, p) in bt.ins.iter().enumerate() {
        if matches!(p.window, WindowPlan::Full) {
            in_full[k] = true;
            continue;
        }
        let Some(b) = resolve(&p.window) else {
            return Ok(None);
        };
        in_off[k] = b;
    }
    #[derive(Clone, Copy, PartialEq)]
    enum OutKind {
        Scalar,
        Stream,
        Log,
    }
    let mut out_off = [(0i64, 0i64); MAX_PORTS];
    let mut out_kind = [OutKind::Scalar; MAX_PORTS];
    for (k, o) in bt.outs.iter().enumerate() {
        if o.stream {
            out_kind[k] = OutKind::Stream;
            continue;
        }
        if o.log {
            out_kind[k] = OutKind::Log;
            continue;
        }
        let Some(b) = resolve(&o.window) else {
            return Ok(None);
        };
        out_off[k] = b;
    }
    worker.st_points += n as u64;
    // Split the worker borrow: buffers come from `locals` (or ctx), the VM
    // is borrowed mutably alongside.
    let wk = &mut *worker;
    let locals = &wk.locals;
    let vm = &mut wk.vm;
    let getbuf = |slot: Option<usize>, name: &str| -> Result<&SharedBuffer, ExecError> {
        if locals.is_empty() {
            if let Some(i) = slot {
                return Ok(&ctx.bufs[i]);
            }
        }
        if let Some(b) = locals.get(name) {
            Ok(b)
        } else {
            ctx.buf(name)
        }
    };
    let mut in_bufs: Vec<&SharedBuffer> = Vec::with_capacity(bt.ins.len());
    for p in &bt.ins {
        in_bufs.push(getbuf(p.slot, &p.data)?);
    }
    // (buffer, wcr combiner, atomic?, log?) per output.
    type OutBufRef<'a> = (
        Option<&'a SharedBuffer>,
        Option<fn(f64, f64) -> f64>,
        bool,
        bool,
    );
    let mut out_bufs: Vec<OutBufRef> = Vec::with_capacity(bt.outs.len());
    for (k, o) in bt.outs.iter().enumerate() {
        let f = match &o.wcr {
            None => None,
            Some(w) => Some(wcr_fn(w)?),
        };
        let buf = if out_kind[k] == OutKind::Stream {
            None
        } else {
            Some(getbuf(o.slot, &o.data)?)
        };
        out_bufs.push((buf, f, o.wcr.is_none(), o.atomic));
    }
    let nin = bt.ins.len();
    let nout = bt.outs.len();
    let mut in_vals = [0.0f64; MAX_PORTS];
    let mut out_vals = [[0.0f64; 1]; MAX_PORTS];
    // Stream outputs accumulate locally and flush once per chunk; log
    // outputs drain per point (their offsets alias the container).
    let mut stream_bufs: Vec<Vec<f64>> = vec![Vec::new(); nout];
    let mut log_bufs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nout];
    let prog = &bt.prog;
    for k in 0..n {
        for (i, buf) in in_bufs.iter().enumerate() {
            if in_full[i] {
                continue;
            }
            let (b, stp) = in_off[i];
            in_vals[i] = buf.read((b + k as i64 * stp).max(0) as usize);
        }
        // Plain (non-WCR) scalar outputs keep read-modify-write semantics.
        for (i, (buf, _, plain, _)) in out_bufs.iter().enumerate() {
            if out_kind[i] != OutKind::Scalar {
                continue;
            }
            let (b, stp) = out_off[i];
            out_vals[i][0] = if *plain {
                buf.unwrap().read((b + k as i64 * stp).max(0) as usize)
            } else {
                0.0
            };
        }
        {
            let mut in_refs = [&[][..]; MAX_PORTS];
            for i in 0..nin {
                in_refs[i] = if in_full[i] {
                    in_bufs[i].as_slice()
                } else {
                    std::slice::from_ref(&in_vals[i])
                };
            }
            let mut ports_buf: Vec<OutPort> = Vec::with_capacity(nout);
            let mut sb_iter = stream_bufs.iter_mut();
            let mut lb_iter = log_bufs.iter_mut();
            for (i, ov) in out_vals.iter_mut().enumerate().take(nout) {
                let sb = sb_iter.next().unwrap();
                let lb = lb_iter.next().unwrap();
                match out_kind[i] {
                    OutKind::Scalar => ports_buf.push(OutPort::Mem(&mut ov[..])),
                    OutKind::Stream => ports_buf.push(OutPort::Stream(sb)),
                    OutKind::Log => {
                        lb.clear();
                        ports_buf.push(OutPort::Log(lb));
                    }
                }
            }
            vm.run_with_syms(prog, &in_refs[..nin], &mut ports_buf, &symvals)?;
        }
        for (i, (buf, f, _, atomic)) in out_bufs.iter().enumerate() {
            match out_kind[i] {
                OutKind::Scalar => {
                    let buf = buf.unwrap();
                    let (b, stp) = out_off[i];
                    let off = (b + k as i64 * stp).max(0) as usize;
                    match f {
                        None => buf.write(off, out_vals[i][0]),
                        Some(f) if *atomic => buf.atomic_combine(off, out_vals[i][0], f),
                        Some(f) => buf.combine_plain(off, out_vals[i][0], f),
                    }
                }
                OutKind::Stream => {} // flushed after the loop
                OutKind::Log => {
                    // Whole-container logs: relative == absolute offsets.
                    let buf = buf.unwrap();
                    if let Some(f) = f {
                        for &(rel, v) in &log_bufs[i] {
                            if *atomic {
                                buf.atomic_combine(rel as usize, v, f);
                            } else {
                                buf.combine_plain(rel as usize, v, f);
                            }
                        }
                    }
                }
            }
        }
    }
    // Flush stream outputs once per chunk (order within a map is
    // unspecified by the semantics).
    for (i, sb) in stream_bufs.iter_mut().enumerate() {
        if out_kind[i] == OutKind::Stream && !sb.is_empty() {
            ctx.streams
                .get(&bt.outs[i].data)
                .ok_or_else(|| ExecError::MissingArray(bt.outs[i].data.clone()))?
                .lock()
                .extend(sb.drain(..));
        }
    }
    Ok(Some(()))
}

/// Native loop for product-chain (tensor contraction) tasklets:
/// `out (⊕=) scale · Π inᵢ`. The register-accumulation case
/// (`out_step == 0` with a Sum WCR — the contraction inner loop) keeps the
/// partial sum in a register and combines once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mulchain(
    mc: &sdfg_lang::recognize::MulChain,
    n: usize,
    out_buf: &SharedBuffer,
    out_base: i64,
    out_step: i64,
    in_bases: &[(i64, i64)],
    bt: &BodyTasklet,
    worker: &Worker,
    out: &OutPortPlan,
) -> Result<(), ExecError> {
    const MAX: usize = 8;
    if mc.slots.len() > MAX {
        return Err(ExecError::BadGraph("mulchain arity overflow".into()));
    }
    let nt = mc.slots.len();
    let mut bufs: [&[f64]; MAX] = [&[]; MAX];
    let mut offs = [(0i64, 0i64); MAX];
    let mut bounds_ok = true;
    for (t, &slot) in mc.slots.iter().enumerate() {
        let b = worker.buf_slot(bt.ins[slot].slot, &bt.ins[slot].data)?;
        bufs[t] = b.as_slice();
        offs[t] = in_bases[slot];
        let (base, stp) = in_bases[slot];
        let last = base + (n as i64 - 1) * stp;
        bounds_ok &= base >= 0
            && last >= 0
            && !bufs[t].is_empty()
            && (base.max(last) as usize) < bufs[t].len();
    }
    let scale = mc.scale;
    let fetch = |t: usize, k: usize| -> f64 {
        let (b, stp) = offs[t];
        let idx = (b + k as i64 * stp).max(0) as usize;
        bufs[t].get(idx).copied().unwrap_or(0.0)
    };
    match &out.wcr {
        Some(w) if out_step == 0 => {
            // Contraction inner loop: accumulate in a register.
            let f = wcr_fn(w)?;
            let mut acc = match w {
                Wcr::Sum => 0.0,
                Wcr::Product => 1.0,
                Wcr::Min => f64::INFINITY,
                Wcr::Max => f64::NEG_INFINITY,
                Wcr::Custom(_) => unreachable!("filtered in plan_native"),
            };
            if bounds_ok && matches!(w, Wcr::Sum) {
                for k in 0..n {
                    let mut v = scale;
                    for (t, b) in bufs.iter().enumerate().take(nt) {
                        let (base, stp) = offs[t];
                        // SAFETY: bounds checked for the whole range above.
                        v *= unsafe { b.get_unchecked((base + k as i64 * stp) as usize) };
                    }
                    acc += v;
                }
            } else {
                for k in 0..n {
                    let mut v = scale;
                    for t in 0..nt {
                        v *= fetch(t, k);
                    }
                    acc = f(acc, v);
                }
            }
            if out.atomic {
                out_buf.atomic_combine(out_base.max(0) as usize, acc, f);
            } else {
                out_buf.combine_plain(out_base.max(0) as usize, acc, f);
            }
        }
        wcr => {
            let f = match wcr {
                None => None,
                Some(w) => Some(wcr_fn(w)?),
            };
            for k in 0..n {
                let mut v = scale;
                for t in 0..nt {
                    v *= fetch(t, k);
                }
                let off = (out_base + k as i64 * out_step).max(0) as usize;
                match (&f, out.atomic) {
                    (None, _) => out_buf.write(off, v),
                    (Some(f), true) => out_buf.atomic_combine(off, v, f),
                    (Some(f), false) => out_buf.combine_plain(off, v, f),
                }
            }
        }
    }
    Ok(())
}

/// Native loop for linear-combination (stencil) tasklets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lincomb(
    lc: &sdfg_lang::recognize::LinComb,
    n: usize,
    out_buf: &SharedBuffer,
    out_base: i64,
    out_step: i64,
    in_bases: &[(i64, i64)],
    bt: &BodyTasklet,
    worker: &Worker,
    out: &OutPortPlan,
) -> Result<(), ExecError> {
    const MAX_TERMS: usize = 12;
    if lc.terms.len() > MAX_TERMS {
        return Err(ExecError::BadGraph("lincomb arity overflow".into()));
    }
    let mut bufs: [&[f64]; MAX_TERMS] = [&[]; MAX_TERMS];
    let mut offs = [(0i64, 0i64); MAX_TERMS];
    let mut coef = [0.0f64; MAX_TERMS];
    let nt = lc.terms.len();
    let mut bounds_ok = out_base >= 0;
    for (t, &(slot, c)) in lc.terms.iter().enumerate() {
        let b = worker.buf_slot(bt.ins[slot].slot, &bt.ins[slot].data)?;
        bufs[t] = b.as_slice();
        offs[t] = in_bases[slot];
        coef[t] = c;
        let (base, stp) = in_bases[slot];
        let last = base + (n as i64 - 1) * stp;
        bounds_ok &= base >= 0 && last >= 0 && (base.max(last) as usize) < bufs[t].len().max(1);
        bounds_ok &= !bufs[t].is_empty();
    }
    let out_last = out_base + (n as i64 - 1) * out_step;
    bounds_ok &= out_last >= 0 && (out_base.max(out_last) as usize) < out_buf.len().max(1);
    let bias = lc.bias;
    let wcr = match &out.wcr {
        None => None,
        Some(w) => Some(wcr_fn(w)?),
    };
    if !bounds_ok {
        // Safe fallback with per-element checks.
        for k in 0..n {
            let mut acc = bias;
            for t in 0..nt {
                let (b, stp) = offs[t];
                let idx = (b + k as i64 * stp).max(0) as usize;
                acc += coef[t] * bufs[t].get(idx).copied().unwrap_or(0.0);
            }
            let off = (out_base + k as i64 * out_step).max(0) as usize;
            match (&wcr, out.atomic) {
                (None, _) => out_buf.write(off, acc),
                (Some(f), true) => out_buf.atomic_combine(off, acc, f),
                (Some(f), false) => out_buf.combine_plain(off, acc, f),
            }
        }
        return Ok(());
    }
    // Bounds verified: tight loop (plain writes only; WCR falls back).
    if wcr.is_none() && out_step == 1 {
        let dst = unsafe { &mut out_buf.as_mut_slice()[out_base as usize..][..n] };
        for (k, d) in dst.iter_mut().enumerate() {
            let mut acc = bias;
            for t in 0..nt {
                let (b, stp) = offs[t];
                // SAFETY: whole strided range bounds-checked above.
                acc += coef[t] * unsafe { bufs[t].get_unchecked((b + k as i64 * stp) as usize) };
            }
            *d = acc;
        }
        return Ok(());
    }
    for k in 0..n {
        let mut acc = bias;
        for t in 0..nt {
            let (b, stp) = offs[t];
            acc += coef[t] * unsafe { bufs[t].get_unchecked((b + k as i64 * stp) as usize) };
        }
        let off = (out_base + k as i64 * out_step) as usize;
        match (&wcr, out.atomic) {
            (None, _) => out_buf.write(off, acc),
            (Some(f), true) => out_buf.atomic_combine(off, acc, f),
            (Some(f), false) => out_buf.combine_plain(off, acc, f),
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_elementwise(
    pat: &Pattern,
    n: usize,
    out_buf: &SharedBuffer,
    out_base: i64,
    out_step: i64,
    in_bases: &[(i64, i64)],
    bt: &BodyTasklet,
    worker: &Worker,
    wcr: Option<fn(f64, f64) -> f64>,
    atomic: bool,
) -> Result<(), ExecError> {
    let emit = |k: usize, v: f64| {
        let off = (out_base + k as i64 * out_step).max(0) as usize;
        match wcr {
            None => out_buf.write(off, v),
            Some(f) if atomic => out_buf.atomic_combine(off, v, f),
            Some(f) => out_buf.combine_plain(off, v, f),
        }
    };
    match pat {
        Pattern::Copy { input } => {
            let (b, s) = in_bases[*input];
            let buf = worker.buf(&bt.ins[*input].data)?;
            // Contiguous fast path for LLVM.
            if s == 1 && out_step == 1 && wcr.is_none() && b >= 0 && out_base >= 0 {
                let src = buf.as_slice();
                if (b as usize + n) <= src.len() && (out_base as usize + n) <= out_buf.len() {
                    let dstslice = unsafe { &mut out_buf.as_mut_slice()[out_base as usize..][..n] };
                    dstslice.copy_from_slice(&src[b as usize..][..n]);
                    return Ok(());
                }
            }
            for k in 0..n {
                emit(k, buf.read((b + k as i64 * s).max(0) as usize));
            }
        }
        Pattern::BinOp { op, a, b } => {
            let fetch = |o: &Operand| -> Result<(bool, f64, i64, i64, &SharedBuffer), ExecError> {
                match o {
                    Operand::Const(c) => Ok((true, *c, 0, 0, out_buf)),
                    Operand::Input(i) => {
                        let (bb, ss) = in_bases[*i];
                        Ok((false, 0.0, bb, ss, worker.buf(&bt.ins[*i].data)?))
                    }
                }
            };
            let (ca_const, ca, ba, sa, bufa) = fetch(a)?;
            let (cb_const, cb, bb, sb, bufb) = fetch(b)?;
            // Dense stride-1 fast path (both inputs, output contiguous).
            if !ca_const
                && !cb_const
                && sa == 1
                && sb == 1
                && out_step == 1
                && wcr.is_none()
                && ba >= 0
                && bb >= 0
                && out_base >= 0
            {
                let xs = bufa.as_slice();
                let ys = bufb.as_slice();
                if ba as usize + n <= xs.len()
                    && bb as usize + n <= ys.len()
                    && out_base as usize + n <= out_buf.len()
                {
                    let dst = unsafe { &mut out_buf.as_mut_slice()[out_base as usize..][..n] };
                    let xs = &xs[ba as usize..][..n];
                    let ys = &ys[bb as usize..][..n];
                    let op = *op;
                    for ((d, x), y) in dst.iter_mut().zip(xs).zip(ys) {
                        *d = apply_binop_kind(op, *x, *y);
                    }
                    return Ok(());
                }
            }
            for k in 0..n {
                let xa = if ca_const {
                    ca
                } else {
                    bufa.read((ba + k as i64 * sa).max(0) as usize)
                };
                let xb = if cb_const {
                    cb
                } else {
                    bufb.read((bb + k as i64 * sb).max(0) as usize)
                };
                emit(k, apply_binop_kind(*op, xa, xb));
            }
        }
        Pattern::Fma { a, b, c } => {
            let (ba, sa) = in_bases[*a];
            let (bb, sb) = in_bases[*b];
            let (bc, sc) = in_bases[*c];
            let bufa = worker.buf(&bt.ins[*a].data)?;
            let bufb = worker.buf(&bt.ins[*b].data)?;
            let bufc = worker.buf(&bt.ins[*c].data)?;
            for k in 0..n {
                let v = bufa.read((ba + k as i64 * sa).max(0) as usize)
                    * bufb.read((bb + k as i64 * sb).max(0) as usize)
                    + bufc.read((bc + k as i64 * sc).max(0) as usize);
                emit(k, v);
            }
        }
        Pattern::Axpb { input, mul, add } => {
            let (b, stp) = in_bases[*input];
            let buf = worker.buf(&bt.ins[*input].data)?;
            // Contiguous fast path (autovectorized scale/shift).
            if stp == 1 && out_step == 1 && wcr.is_none() && b >= 0 && out_base >= 0 {
                let src = buf.as_slice();
                if b as usize + n <= src.len() && out_base as usize + n <= out_buf.len() {
                    let dst = unsafe { &mut out_buf.as_mut_slice()[out_base as usize..][..n] };
                    let src = &src[b as usize..][..n];
                    let (m, a0) = (*mul, *add);
                    for (d, x) in dst.iter_mut().zip(src) {
                        *d = m * x + a0;
                    }
                    return Ok(());
                }
            }
            for k in 0..n {
                emit(
                    k,
                    mul * buf.read((b + k as i64 * stp).max(0) as usize) + add,
                );
            }
        }
    }
    Ok(())
}
