//! Memlet copies: access-node copy execution, strided windows, WCR folds.

use crate::engine::{Ctx, ExecError, Worker};
use sdfg_core::desc::DataDesc;
use sdfg_core::{Node, Sdfg, StateId, Subset, Wcr};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_symbolic::Env;
use std::sync::atomic::Ordering;

// --- copies -------------------------------------------------------------------

/// Copies along access→access edges; also array↔stream transfers and
/// copies arriving from scope entries (local-storage tiles).
pub(crate) fn exec_access(
    ctx: &Ctx,
    sid: StateId,
    n: NodeId,
    worker: &mut Worker,
) -> Result<(), ExecError> {
    let state = ctx.sdfg.state(sid);
    let dst_name = state.graph.node(n).access_data().unwrap().to_string();
    // Copies INTO this node from scope entries (local storage pattern):
    // memlet names the *global* container; destination is this container.
    let in_edges: Vec<EdgeId> = state.graph.in_edges(n).collect();
    for e in in_edges {
        let src = state.graph.edge_src(e);
        let src_node = state.graph.node(src);
        if !src_node.is_scope_entry() {
            continue;
        }
        let m = state.graph.edge(e).memlet.clone();
        if m.is_empty() {
            continue;
        }
        let src_data = m.data_name().to_string();
        if src_data == dst_name {
            continue;
        }
        // Copy global window → whole local buffer (or other_subset).
        copy_window(
            ctx,
            worker,
            &src_data,
            &m.subset,
            &dst_name,
            m.other_subset.as_ref(),
        )?;
    }
    // Copies OUT of this node into other access nodes.
    let out_edges: Vec<EdgeId> = state.graph.out_edges(n).collect();
    for e in out_edges {
        let dst = state.graph.edge_dst(e);
        if !matches!(state.graph.node(dst), Node::Access { .. }) {
            continue;
        }
        let dst_data = state.graph.node(dst).access_data().unwrap().to_string();
        let m = state.graph.edge(e).memlet.clone();
        if m.is_empty() {
            continue;
        }
        let src_is_stream = matches!(ctx.sdfg.desc(&dst_name), Some(DataDesc::Stream(_)));
        let dst_is_stream = matches!(ctx.sdfg.desc(&dst_data), Some(DataDesc::Stream(_)));
        match (src_is_stream, dst_is_stream) {
            (false, false) => copy_window(
                ctx,
                worker,
                &dst_name,
                &m.subset,
                &dst_data,
                m.other_subset.as_ref(),
            )?,
            (false, true) => {
                let window = gather_symbolic(worker, &dst_name, &m.subset)?;
                ctx.streams
                    .get(&dst_data)
                    .ok_or_else(|| ExecError::MissingArray(dst_data.clone()))?
                    .lock()
                    .extend(window);
            }
            (true, false) => {
                let dst_subset = m.other_subset.as_ref().unwrap_or(&m.subset);
                let mut q = ctx
                    .streams
                    .get(&dst_name)
                    .ok_or_else(|| ExecError::MissingArray(dst_name.clone()))?
                    .lock();
                drain_stream(worker, &mut q, &dst_data, dst_subset, m.dynamic)?;
            }
            (true, true) => {
                // Stream → stream: drain-append (LocalStream flushes).
                let drained: Vec<f64> = {
                    let mut q = ctx
                        .streams
                        .get(&dst_name)
                        .ok_or_else(|| ExecError::MissingArray(dst_name.clone()))?
                        .lock();
                    q.drain(..).collect()
                };
                if !drained.is_empty() {
                    ctx.streams
                        .get(&dst_data)
                        .ok_or_else(|| ExecError::MissingArray(dst_data.clone()))?
                        .lock()
                        .extend(drained);
                }
            }
        }
    }
    Ok(())
}

/// Drains stream queue `q` into subset `subset` of `data`: the subset's
/// first `count` elements in its iteration order take the queue's first
/// `count` values, where `count` is the subset's size, or, for a
/// `dynamic` memlet, as much of it as the queue holds (a non-dynamic
/// drain past the queue's end writes zeros). Values the drain does not
/// take stay queued. A destination whose elements are contiguous in
/// memory is filled straight from the queue's slices.
fn drain_stream(
    worker: &Worker,
    q: &mut std::collections::VecDeque<f64>,
    data: &str,
    subset: &Subset,
    dynamic: bool,
) -> Result<(), ExecError> {
    let strides = desc_strides(worker.ctx, data, &worker.env)?;
    let dims = subset.eval(&worker.env)?;
    let capacity = count_elems(&dims);
    let count = if dynamic {
        capacity.min(q.len())
    } else {
        capacity
    };
    let taken = count.min(q.len());
    let buf = worker.buf(data)?;
    match crate::tasklet::is_contiguous(&dims, &strides) {
        Some(start) if start.checked_add(count).is_some_and(|end| end <= buf.len()) => {
            let (a, b) = q.as_slices();
            let na = a.len().min(taken);
            buf.write_slice(start, &a[..na]);
            buf.write_slice(start + na, &b[..taken - na]);
            for off in start + taken..start + count {
                buf.write(off, 0.0);
            }
            q.drain(..taken);
        }
        _ => {
            let zeros = std::iter::repeat_n(0.0, count - taken);
            let window: Vec<f64> = q.drain(..taken).chain(zeros).collect();
            scatter_symbolic(worker, data, subset, &window, None)?;
        }
    }
    Ok(())
}

pub(crate) fn copy_window(
    ctx: &Ctx,
    worker: &mut Worker,
    src: &str,
    src_subset: &Subset,
    dst: &str,
    dst_subset: Option<&Subset>,
) -> Result<(), ExecError> {
    let window = gather_symbolic(worker, src, src_subset)?;
    ctx.stats
        .elements_copied
        .fetch_add(window.len() as u64, Ordering::Relaxed);
    if let Some(wp) = worker.prof.as_mut() {
        wp.bytes_moved += window.len() as u64 * std::mem::size_of::<f64>() as u64;
    }
    let full;
    let dsub = match dst_subset {
        Some(s) => s,
        None => {
            // Whole destination, derived from its descriptor.
            let desc = ctx
                .sdfg
                .desc(dst)
                .ok_or_else(|| ExecError::MissingArray(dst.to_string()))?;
            full = Subset::full(desc.shape());
            &full
        }
    };
    scatter_symbolic(worker, dst, dsub, &window, None)
}

// --- symbolic windows (slow/correct path) --------------------------------------

pub(crate) fn desc_strides(ctx: &Ctx, data: &str, env: &Env) -> Result<Vec<i64>, ExecError> {
    match ctx.sdfg.desc(data) {
        Some(DataDesc::Array(a)) => {
            let mut out = Vec::with_capacity(a.strides.len());
            for s in &a.strides {
                out.push(s.eval(env)?);
            }
            Ok(out)
        }
        Some(DataDesc::Scalar(_)) => Ok(vec![]),
        _ => Err(ExecError::BadGraph(format!(
            "windowed access into non-array `{data}`"
        ))),
    }
}

pub(crate) fn gather_symbolic(
    worker: &Worker,
    data: &str,
    subset: &Subset,
) -> Result<Vec<f64>, ExecError> {
    let strides = desc_strides(worker.ctx, data, &worker.env)?;
    let dims = subset.eval(&worker.env)?;
    let buf = worker.buf(data)?;
    let mut out = Vec::with_capacity(count_elems(&dims));
    for_each_offset(&dims, &strides, |off| out.push(buf.read(off)));
    Ok(out)
}

/// Writes (or, under `wcr`, combines) `window` into the first
/// `window.len()` elements of `subset` in its iteration order (all of
/// them, for a full window).
pub(crate) fn scatter_symbolic(
    worker: &Worker,
    data: &str,
    subset: &Subset,
    window: &[f64],
    wcr: Option<&Wcr>,
) -> Result<(), ExecError> {
    let strides = desc_strides(worker.ctx, data, &worker.env)?;
    let dims = subset.eval(&worker.env)?;
    let buf = worker.buf(data)?;
    let mut vals = window.iter();
    match wcr {
        None => for_each_offset(&dims, &strides, |off| {
            if let Some(&v) = vals.next() {
                buf.write(off, v);
            }
        }),
        Some(w) => {
            let f = wcr_fn(w)?;
            for_each_offset(&dims, &strides, |off| {
                if let Some(&v) = vals.next() {
                    buf.atomic_combine(off, v, f);
                }
            });
        }
    }
    Ok(())
}

/// Builtin WCR as a plain function pointer (customs handled separately).
pub(crate) fn wcr_fn(w: &Wcr) -> Result<fn(f64, f64) -> f64, ExecError> {
    Ok(match w {
        Wcr::Sum => |a, b| a + b,
        Wcr::Product => |a, b| a * b,
        Wcr::Min => f64::min,
        Wcr::Max => f64::max,
        Wcr::Custom(_) => {
            return Err(ExecError::BadGraph(
                "custom WCR is not supported by the parallel executor; \
                 use the reference interpreter"
                    .into(),
            ))
        }
    })
}

/// True when every access to `data` in the whole SDFG lies inside the
/// scope of `entry` in state `sid` — only then does the container have
/// scope lifetime (fresh per iteration, thread-private).
pub(crate) fn scope_owns_container(
    sdfg: &Sdfg,
    sid: StateId,
    members: &[NodeId],
    data: &str,
) -> bool {
    for other_sid in sdfg.graph.node_ids() {
        let other = sdfg.graph.node(other_sid);
        for n in other.graph.node_ids() {
            if other.graph.node(n).access_data() == Some(data)
                && !(other_sid == sid && members.contains(&n))
            {
                return false;
            }
        }
    }
    true
}

pub(crate) fn count_elems(dims: &[(i64, i64, i64, i64)]) -> usize {
    let mut n = 1usize;
    for &(s, e, st, t) in dims {
        let len = if st > 0 { ((e - s) + st - 1) / st } else { 0 };
        n = n
            .saturating_mul(len.max(0) as usize)
            .saturating_mul(t.max(1) as usize);
    }
    n
}

pub(crate) fn for_each_offset(
    dims: &[(i64, i64, i64, i64)],
    strides: &[i64],
    mut f: impl FnMut(usize),
) {
    if dims.is_empty() {
        f(0);
        return;
    }
    let mut idx: Vec<i64> = dims.iter().map(|d| d.0).collect();
    if dims.iter().any(|&(s, e, _, _)| s >= e) {
        return;
    }
    loop {
        let mut base = 0i64;
        for (d, _) in dims.iter().enumerate() {
            base += idx[d] * strides.get(d).copied().unwrap_or(1);
        }
        let tile = dims.last().map(|d| d.3.max(1)).unwrap_or(1);
        for t in 0..tile {
            let off = base + t;
            if off >= 0 {
                f(off as usize);
            }
        }
        let mut d = dims.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += dims[d].2;
            if idx[d] < dims[d].1 {
                break;
            }
            idx[d] = dims[d].0;
        }
    }
}
