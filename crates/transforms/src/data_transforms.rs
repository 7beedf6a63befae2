//! Data transformations (Appendix B, "Data transformations") plus the
//! `RedundantArray` strict transformation of Appendix D.

use crate::framework::{CostHint, Params, TMatch, Transformation};
use crate::helpers::{find_pattern, is_access, is_map_entry, is_transient_access, Pattern};
use sdfg_core::desc::{ArrayDesc, DataDesc, StreamDesc};
use sdfg_core::{Memlet, Node, Sdfg, SdfgError, Subset, SymRange};
use sdfg_graph::EdgeId;
use sdfg_symbolic::dependence::same;
use sdfg_symbolic::{Env, Expr};

/// `LocalStorage` — introduces a transient for caching data between two
/// scopes (Fig. 11b): the edge `outer(OUT_x) → consumer` gains an
/// intermediate local array sized to the moved window, and all memlets in
/// the consumer scope are reindexed relative to the window.
///
/// Parameter `data` restricts matching to one container name.
pub struct LocalStorage;

impl Transformation for LocalStorage {
    fn name(&self) -> &'static str {
        "LocalStorage"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let pattern = Pattern {
                roles: vec![("outer", is_map_entry), ("inner", is_map_entry)],
                edges: vec![(0, 1)],
            };
            for m in find_pattern(sdfg, sid, &pattern) {
                out.push(TMatch {
                    state: sid,
                    nodes: m,
                    states: Default::default(),
                });
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError> {
        let outer = m.try_node("outer")?;
        let inner = m.try_node("inner")?;
        let want_data = params.str("data")?;
        // Pick the edge: outer(OUT_x) → inner carrying `data`.
        let (edge, data, window) = {
            let st = sdfg.state(m.state);
            let mut found = None;
            for e in st.graph.out_edges(outer) {
                if st.graph.edge_dst(e) != inner {
                    continue;
                }
                let df = st.graph.edge(e);
                if df.memlet.is_empty() {
                    continue;
                }
                let d = df.memlet.data_name().to_string();
                if let Some(w) = want_data {
                    if d != w {
                        continue;
                    }
                }
                found = Some((e, d, df.memlet.subset.clone()));
                break;
            }
            found.ok_or_else(|| {
                SdfgError::transform("no matching edge between the scopes for LocalStorage")
            })?
        };
        // Local array shaped by a parameter-free upper bound of the window.
        let local_name = sdfg.fresh_data_name(&format!("local_{data}"));
        let dtype = sdfg
            .desc(&data)
            .ok_or_else(|| SdfgError::transform(format!("unknown container `{data}`")))?
            .dtype();
        let inner_params: Vec<String> = {
            let st = sdfg.state(m.state);
            crate::helpers::scope_of(st, inner).params.clone()
        };
        let outer_params: Vec<String> = {
            let st = sdfg.state(m.state);
            crate::helpers::scope_of(st, outer).params.clone()
        };
        let mut shape = Vec::new();
        let mut extents = Vec::new(); // dynamic extents (for partial tiles)
        for r in &window.dims {
            let extent = (r.end.clone() - r.start.clone()).simplify();
            extents.push(extent.clone());
            shape.push(param_free_upper(&extent, &outer_params, &inner_params)?);
        }
        let mut desc = ArrayDesc::new(dtype, shape);
        desc.transient = true;
        sdfg.data.insert(local_name.clone(), DataDesc::Array(desc));
        // Rewrite memlets inside the inner scope to local coordinates.
        let members = sdfg_core::scope::scope_members(sdfg.state(m.state), inner);
        let state = sdfg.state_mut(m.state);
        let mut edges: Vec<EdgeId> = Vec::new();
        for &n in &members {
            edges.extend(state.graph.out_edges(n));
            edges.extend(state.graph.in_edges(n));
        }
        // Also the inner entry's own out-edges (inner side of the scope).
        edges.extend(state.graph.out_edges(inner));
        edges.sort_unstable();
        edges.dedup();
        for e in edges {
            let df = state.graph.edge_mut(e);
            if df.memlet.data.as_deref() == Some(data.as_str()) {
                df.memlet.data = Some(local_name.clone());
                df.memlet.subset = df.memlet.subset.offset_by(&window);
            }
        }
        // Insert the local access node on the crossing edge.
        let df = state.graph.edge(edge).clone();
        state.graph.remove_edge(edge);
        let acc = state.add_access(&local_name);
        // Copy-in: global window → local [0:extent...].
        let dst_sub = Subset::new(
            extents
                .iter()
                .map(|e| SymRange::new(Expr::zero(), e.clone()))
                .collect(),
        );
        state.add_edge(
            outer,
            df.src_conn.as_deref(),
            acc,
            None,
            Memlet::new(&data, window.clone()).with_other_subset(dst_sub.clone()),
        );
        state.add_edge(
            acc,
            None,
            inner,
            df.dst_conn.as_deref(),
            Memlet::new(&local_name, dst_sub),
        );
        Ok(())
    }
}

/// Picks a parameter-free upper bound for a window extent by resolving
/// `min(a, b)` to whichever operand eliminates the scope parameters
/// (`min(t + T, N) - t` → `T`).
fn param_free_upper(
    extent: &Expr,
    outer_params: &[String],
    inner_params: &[String],
) -> Result<Expr, SdfgError> {
    let is_free = |e: &Expr| {
        let syms = e.free_symbols();
        !outer_params
            .iter()
            .chain(inner_params)
            .any(|p| syms.contains(p))
    };
    if is_free(extent) {
        return Ok(extent.clone());
    }
    // Try replacing each Min with one operand (min ≤ both, so either is an
    // upper bound) and each Max with the symbolic max of operand candidates.
    fn candidates(e: &Expr) -> Vec<Expr> {
        match e {
            Expr::Min(a, b) => {
                let mut out = Vec::new();
                for ca in candidates(a) {
                    out.push(ca);
                }
                for cb in candidates(b) {
                    out.push(cb);
                }
                out
            }
            Expr::Max(a, b) => {
                let mut out = vec![e.clone()];
                for ca in candidates(a) {
                    for cb in candidates(b) {
                        out.push(ca.clone().max2(cb.clone()));
                    }
                }
                out
            }
            Expr::Add(v) => {
                // Replace one Min-containing operand at a time.
                let mut out = vec![e.clone()];
                for (i, op) in v.iter().enumerate() {
                    for c in candidates(op) {
                        if &c != op {
                            let mut vv = v.clone();
                            vv[i] = c;
                            out.push(Expr::add(vv));
                        }
                    }
                }
                out
            }
            Expr::Mul(v) => {
                let mut out = vec![e.clone()];
                for (i, op) in v.iter().enumerate() {
                    for c in candidates(op) {
                        if &c != op {
                            let mut vv = v.clone();
                            vv[i] = c;
                            out.push(Expr::mul(vv));
                        }
                    }
                }
                out
            }
            other => vec![other.clone()],
        }
    }
    for cand in candidates(extent) {
        if is_free(&cand) {
            return Ok(cand);
        }
    }
    Err(SdfgError::transform(format!(
        "cannot derive a parameter-free size for extent `{extent}`"
    )))
}

/// `LocalStream` — accumulates stream pushes into a scope-local transient
/// stream that is flushed in bulk at scope exit (used in the BFS case
/// study to batch frontier updates).
pub struct LocalStream;

impl Transformation for LocalStream {
    fn name(&self) -> &'static str {
        "LocalStream"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        // Tasklet inside a map pushing directly to a global stream access.
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            let Ok(tree) = sdfg_core::scope::scope_tree(st) else {
                continue;
            };
            for n in st.graph.node_ids() {
                if !matches!(st.graph.node(n), Node::Tasklet { .. }) {
                    continue;
                }
                if tree.scope_of(n).is_none() {
                    continue;
                }
                for e in st.graph.out_edges(n) {
                    let dst = st.graph.edge_dst(e);
                    // The push edge may lead to the stream's access node
                    // directly or into the scope-exit chain (with the
                    // memlet naming the stream).
                    let m = &st.graph.edge(e).memlet;
                    if m.is_empty() {
                        continue;
                    }
                    let d = m.data_name();
                    if !matches!(sdfg.desc(d), Some(DataDesc::Stream(_))) {
                        continue;
                    }
                    let via_exit = st.graph.node(dst).is_scope_exit();
                    let via_access = st.graph.node(dst).access_data() == Some(d);
                    if !via_exit && !via_access {
                        continue;
                    }
                    // "Global" stream: non-transient, or referenced in more
                    // than one place (e.g. drained in a later state).
                    // An already-localized stream (single access) is
                    // skipped, making the transformation idempotent.
                    let global = !sdfg.desc(d).unwrap().transient()
                        || crate::helpers::access_count(sdfg, d) > 1;
                    if global {
                        out.push(TMatch::in_state(sid).with("tasklet", n).with("target", dst));
                    }
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let tasklet = m.try_node("tasklet")?;
        let target = m.try_node("target")?;
        let (edge, stream_data) = {
            let st = sdfg.state(m.state);
            let edge = st
                .graph
                .out_edges(tasklet)
                .find(|&e| {
                    st.graph.edge_dst(e) == target
                        && !st.graph.edge(e).memlet.is_empty()
                        && matches!(
                            sdfg.desc(st.graph.edge(e).memlet.data_name()),
                            Some(DataDesc::Stream(_))
                        )
                })
                .ok_or_else(|| SdfgError::transform("push edge vanished"))?;
            (
                edge,
                st.graph
                    .edge(e_data_name(st, edge))
                    .memlet
                    .data_name()
                    .to_string(),
            )
        };
        let dtype = sdfg.desc(&stream_data).unwrap().dtype();
        let local_name = sdfg.fresh_data_name(&format!("L{stream_data}"));
        sdfg.data
            .insert(local_name.clone(), DataDesc::Stream(StreamDesc::new(dtype)));
        let state = sdfg.state_mut(m.state);
        let target_is_exit = state.graph.node(target).is_scope_exit();
        if target_is_exit {
            // tasklet →(LS)→ exit(IN_LS); exit(OUT_LS) → localS → next hop
            // with the original stream memlet (the per-scope bulk flush).
            let df = state.graph.edge(edge).clone();
            // Retag the inner edge to the local stream.
            {
                let e = state.graph.edge_mut(edge);
                e.memlet.data = Some(local_name.clone());
                e.dst_conn = Some(format!("IN_{local_name}"));
            }
            // Find the outer continuation edge exit(OUT_S) → Y.
            let out_conn = format!("OUT_{stream_data}");
            let cont = state
                .graph
                .out_edges(target)
                .find(|&e2| state.graph.edge(e2).src_conn.as_deref() == Some(out_conn.as_str()))
                .ok_or_else(|| SdfgError::transform("stream edge not forwarded by exit"))?;
            let cont_df = state.graph.edge(cont).clone();
            let (_, y) = state.graph.edge_endpoints(cont);
            state.graph.remove_edge(cont);
            let local_acc = state.add_access(&local_name);
            state.add_edge(
                target,
                Some(&format!("OUT_{local_name}")),
                local_acc,
                None,
                Memlet::parse(&local_name, "0").dynamic(),
            );
            state.add_edge(
                local_acc,
                None,
                y,
                cont_df.dst_conn.as_deref(),
                cont_df.memlet.clone(),
            );
            let _ = df;
        } else {
            // Direct access target: tasklet → localS → S (drain-append).
            let df = state.graph.edge(edge).clone();
            state.graph.remove_edge(edge);
            let local_acc = state.add_access(&local_name);
            let mut lm = df.memlet.clone();
            lm.data = Some(local_name.clone());
            state.add_edge(tasklet, df.src_conn.as_deref(), local_acc, None, lm);
            state.add_edge(
                local_acc,
                None,
                target,
                None,
                Memlet::parse(&stream_data, "0").dynamic(),
            );
        }
        Ok(())
    }
}

/// Tiny helper keeping borrowck happy when reading an edge's stream name.
fn e_data_name(_st: &sdfg_core::State, e: sdfg_graph::EdgeId) -> sdfg_graph::EdgeId {
    e
}

/// `DoubleBuffering` — pipelines a copied-into transient with two buffers
/// alternating on a loop parameter (`p % 2`), enabling copy/compute overlap
/// on accelerator targets. Parameter `param`: the alternation parameter
/// (default: the innermost parameter of the enclosing map).
pub struct DoubleBuffering;

impl Transformation for DoubleBuffering {
    fn name(&self) -> &'static str {
        "DoubleBuffering"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        // A transient array copied into from a scope entry.
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            for n in st.graph.node_ids() {
                if !is_transient_access(sdfg, st, n) {
                    continue;
                }
                let Some(d) = st.graph.node(n).access_data() else {
                    continue;
                };
                if !matches!(sdfg.desc(d), Some(DataDesc::Array(_))) {
                    continue;
                }
                let from_entry = st
                    .graph
                    .in_edges(n)
                    .any(|e| st.graph.node(st.graph.edge_src(e)).is_scope_entry());
                if from_entry {
                    out.push(TMatch::in_state(sid).with("buffer", n));
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError> {
        let acc = m.try_node("buffer")?;
        let data = {
            let st = sdfg.state(m.state);
            st.graph.node(acc).access_data().unwrap().to_string()
        };
        // Alternation parameter.
        let param = match params.str("param")? {
            Some(p) => p.to_string(),
            None => {
                let st = sdfg.state(m.state);
                let tree = sdfg_core::scope::scope_tree(st)
                    .map_err(|e| SdfgError::transform(e.to_string()))?;
                let entry = tree
                    .scope_of(acc)
                    .ok_or_else(|| SdfgError::transform("buffer not inside a scope"))?;
                crate::helpers::scope_of(st, entry)
                    .params
                    .last()
                    .cloned()
                    .ok_or_else(|| SdfgError::transform("scope has no parameters"))?
            }
        };
        // Extend the shape with a leading [2].
        match sdfg.desc_mut(&data) {
            Some(DataDesc::Array(a)) => {
                a.shape.insert(0, Expr::int(2));
                a.reset_strides();
            }
            _ => return Err(SdfgError::transform("buffer is not an array")),
        }
        // Rewrite every memlet on this container (in this state): prefix
        // subsets with `param % 2`.
        let alternating = SymRange::index(Expr::sym(param).modulo(Expr::int(2)));
        let state = sdfg.state_mut(m.state);
        let edges: Vec<EdgeId> = state.graph.edge_ids().collect();
        for e in edges {
            let df = state.graph.edge_mut(e);
            if df.memlet.data.as_deref() == Some(data.as_str()) {
                df.memlet.subset.dims.insert(0, alternating.clone());
            }
            if let Some(os) = &mut df.memlet.other_subset {
                // Copies INTO the buffer address it through other_subset.
                let points_at_buffer = df.memlet.data.as_deref() != Some(data.as_str());
                let dst_is_buffer = {
                    // The edge destination (or source) references the buffer.
                    true
                };
                if points_at_buffer && dst_is_buffer {
                    // Only adjust when the opposite endpoint is this buffer.
                    let (s, d) = state_endpoints_placeholder();
                    let _ = (s, d);
                }
                let _ = os;
            }
        }
        // Fix other_subset on edges whose *destination* is the buffer.
        let in_edges: Vec<EdgeId> = state.graph.in_edges(acc).collect();
        for e in in_edges {
            let df = state.graph.edge_mut(e);
            if df.memlet.data.as_deref() != Some(data.as_str()) {
                if let Some(os) = &mut df.memlet.other_subset {
                    os.dims.insert(0, alternating.clone());
                } else {
                    // Destination defaulted to the whole buffer: make it
                    // explicit with the alternation prefix.
                    let src_dims = df.memlet.subset.dims.clone();
                    let mut dims = vec![alternating.clone()];
                    dims.extend(
                        src_dims
                            .iter()
                            .map(|r| SymRange::new(Expr::zero(), r.end.clone() - r.start.clone())),
                    );
                    df.memlet.other_subset = Some(Subset::new(dims));
                }
            }
        }
        Ok(())
    }
}

// Placeholder kept out of the hot path; required because the borrow in the
// loop above cannot also inspect endpoints. (Handled by the in_edges pass.)
fn state_endpoints_placeholder() -> (u32, u32) {
    (0, 0)
}

/// `Vectorization` — marks the innermost map dimension with a vector width
/// after checking that accesses are contiguous in that parameter.
/// Execution semantics are unchanged; code generation emits vector types
/// and the accelerator models use the width for coalescing/II modeling.
/// Parameter `width` (default 4).
pub struct Vectorization;

impl Transformation for Vectorization {
    fn name(&self) -> &'static str {
        "Vectorization"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            let Ok(tree) = sdfg_core::scope::scope_tree(st) else {
                continue;
            };
            for n in crate::helpers::map_entries(st) {
                // Already vectorized: skip, so matching is idempotent (the
                // automatic pipeline re-finds until no matches remain).
                if crate::helpers::scope_of(st, n).vector_len.is_some() {
                    continue;
                }
                // Innermost: no nested scope entries among members.
                let members = sdfg_core::scope::scope_members(st, n);
                if members.iter().any(|&c| st.graph.node(c).is_scope_entry()) {
                    continue;
                }
                let _ = &tree;
                out.push(TMatch::in_state(sid).with("map", n));
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError> {
        // A non-integer `width` is a hard error now — the old string API
        // silently fell back to 4 here.
        let width = params.int_or("width", 4)?;
        if width <= 0 {
            return Err(SdfgError::ParamParse {
                param: "width".to_string(),
                text: width.to_string(),
            });
        }
        let width = width as u32;
        let entry = m.try_node("map")?;
        // Contiguity check: the innermost parameter must appear only in the
        // last dimension of each memlet subset, with coefficient 1 (or not
        // at all).
        let (last_param, members) = {
            let st = sdfg.state(m.state);
            let sc = crate::helpers::scope_of(st, entry);
            let lp = sc
                .params
                .last()
                .cloned()
                .ok_or_else(|| SdfgError::transform("empty map"))?;
            (lp, sdfg_core::scope::scope_members(st, entry))
        };
        {
            let st = sdfg.state(m.state);
            let mut edges: Vec<EdgeId> = Vec::new();
            for &n in &members {
                edges.extend(st.graph.in_edges(n));
                edges.extend(st.graph.out_edges(n));
            }
            edges.sort_unstable();
            edges.dedup();
            for e in edges {
                let mlet = &st.graph.edge(e).memlet;
                if mlet.is_empty() {
                    continue;
                }
                let rank = mlet.subset.rank();
                for (d, r) in mlet.subset.dims.iter().enumerate() {
                    let uses = r.start.has_symbol(&last_param) || r.end.has_symbol(&last_param);
                    if uses && d + 1 != rank {
                        return Err(SdfgError::transform(format!(
                            "access `{mlet}` is not contiguous in `{last_param}`"
                        )));
                    }
                    if uses {
                        // Coefficient must be exactly 1.
                        if !matches!(r.start.stride_in(&last_param), Ok(0 | 1)) {
                            return Err(SdfgError::transform(format!(
                                "access `{mlet}` is not unit-stride in `{last_param}`"
                            )));
                        }
                    }
                }
            }
        }
        let st = sdfg.state_mut(m.state);
        crate::helpers::scope_of_mut(st, entry).vector_len = Some(width);
        Ok(())
    }

    fn cost_hint(&self, _sdfg: &Sdfg, _m: &TMatch, _env: &Env) -> CostHint {
        // Metadata-only on this runtime (the CPU engine's inner loops are
        // auto-vectorized regardless); harmless either way.
        CostHint::Neutral
    }
}

/// `RedundantArray` — removes a transient array that is only copied into
/// another array (Appendix D). Strict.
pub struct RedundantArray;

impl Transformation for RedundantArray {
    fn name(&self) -> &'static str {
        "RedundantArray"
    }

    fn strict(&self) -> bool {
        true
    }

    /// Matches a transient `in_array` accessed nowhere else whose only
    /// out-edge copies it into `out_array` of the same storage and shape.
    /// Legal when the copy is the identity over both whole containers: its
    /// source and destination subsets are the [`same`] elements, each is
    /// the [`same`] as its container's full shape, and it has no WCR.
    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        let whole = |d: &DataDesc| match d.shape() {
            [] => Subset::index([Expr::zero()]),
            shape => Subset::full(shape),
        };
        for sid in sdfg.graph.node_ids() {
            let pattern = Pattern {
                roles: vec![("in_array", is_transient_access), ("out_array", is_access)],
                edges: vec![(0, 1)],
            };
            for m in find_pattern(sdfg, sid, &pattern) {
                let st = sdfg.state(sid);
                let a = m["in_array"];
                let b = m["out_array"];
                // Out-degree one (only the copy).
                if st.graph.out_degree(a) != 1 {
                    continue;
                }
                let a_data = st.graph.node(a).access_data().unwrap();
                let b_data = st.graph.node(b).access_data().unwrap();
                if a_data == b_data {
                    continue;
                }
                // Single occurrence anywhere.
                if crate::helpers::access_count(sdfg, a_data) != 1 {
                    continue;
                }
                // Same storage and shape (strict mode of Appendix D).
                let (da, db) = (sdfg.desc(a_data).unwrap(), sdfg.desc(b_data).unwrap());
                if da.storage() != db.storage() || da.shape() != db.shape() {
                    continue;
                }
                let Some(e) = st.graph.out_edges(a).next() else {
                    continue;
                };
                let mm = &st.graph.edge(e).memlet;
                let other = mm.other_subset.as_ref().unwrap_or(&mm.subset);
                let (src, dst) = match mm.data.as_deref() == Some(a_data) {
                    true => (&mm.subset, other),
                    false => (other, &mm.subset),
                };
                let identity = same(src, dst).is_ok()
                    && same(src, &whole(da)).is_ok()
                    && same(dst, &whole(db)).is_ok();
                if !identity || mm.wcr.is_some() {
                    continue;
                }
                out.push(TMatch {
                    state: sid,
                    nodes: m,
                    states: Default::default(),
                });
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let a = m.try_node("in_array")?;
        let b = m.try_node("out_array")?;
        let state = sdfg.state_mut(m.state);
        let a_data = state.graph.node(a).access_data().unwrap().to_string();
        let b_data = state.graph.node(b).access_data().unwrap().to_string();
        // Redirect all incoming edges of `a` to `b`, renaming memlet data.
        let in_edges: Vec<EdgeId> = state.graph.in_edges(a).collect();
        for e in in_edges {
            let mut df = state.graph.edge(e).clone();
            let src = state.graph.edge_src(e);
            if df.memlet.data.as_deref() == Some(a_data.as_str()) {
                df.memlet.data = Some(b_data.clone());
            }
            state.graph.remove_edge(e);
            state.graph.add_edge(src, b, df);
        }
        // Rename remaining memlets referencing `a` anywhere in the state
        // (paths through scope exits).
        let edges: Vec<EdgeId> = state.graph.edge_ids().collect();
        for e in edges {
            let df = state.graph.edge_mut(e);
            if df.memlet.data.as_deref() == Some(a_data.as_str()) {
                df.memlet.data = Some(b_data.clone());
            }
        }
        state.graph.remove_node(a);
        sdfg.data.remove(&a_data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{apply_first, apply_strict, Params};
    use sdfg_core::{DType, Wcr};
    use sdfg_frontend::SdfgBuilder;

    #[test]
    fn redundant_array_removed() {
        // t1 → tmp → B  with tmp transient same-shape: tmp removed.
        let mut b = SdfgBuilder::new("ra");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("tmp", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a + 5",
            &[("o", "tmp", "i")],
        );
        b.copy(st, "tmp", "0:N", "B", "0:N");
        let mut sdfg = b.build().unwrap();
        let applied = apply_strict(&mut sdfg).unwrap();
        assert!(applied >= 1);
        assert!(sdfg.desc("tmp").is_none());
        sdfg.validate().expect("valid after RedundantArray");
        // Semantics: B = A + 5.
        let mut it = sdfg_interp::Interpreter::new(&sdfg);
        it.set_symbol("N", 4);
        it.set_array("A", vec![1.0, 2.0, 3.0, 4.0]);
        it.set_array("B", vec![0.0; 4]);
        it.run().unwrap();
        assert_eq!(it.array("B"), &[6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn local_storage_inserts_tile_buffer() {
        // Tiled copy: outer tile map over i_tile, inner map over i.
        let mut b = SdfgBuilder::new("ls");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "B", "i")],
        );
        let mut sdfg = b.build().unwrap();
        // Tile then expand to create the two-scope structure.
        let tp = Params::new().with("tile_sizes", 8i64);
        apply_first(&mut sdfg, &crate::map_transforms::MapTiling, &tp).unwrap();
        apply_first(
            &mut sdfg,
            &crate::map_transforms::MapExpansion,
            &Params::new(),
        )
        .unwrap();
        sdfg.validate().expect("valid after tiling+expansion");
        let lp = Params::new().with("data", "A");
        apply_first(&mut sdfg, &LocalStorage, &lp).unwrap();
        sdfg.validate().expect("valid after LocalStorage");
        assert!(sdfg.desc("local_A").is_some());
        let desc = sdfg.desc("local_A").unwrap();
        assert_eq!(desc.shape().len(), 1);
        assert_eq!(desc.shape()[0], Expr::int(8)); // tile-sized
                                                   // Semantics preserved (boundary tiles too: N not divisible by 8).
        let mut it = sdfg_interp::Interpreter::new(&sdfg);
        it.set_symbol("N", 21);
        it.set_array("A", (0..21).map(|x| x as f64).collect());
        it.set_array("B", vec![0.0; 21]);
        it.run().unwrap();
        let expect: Vec<f64> = (0..21).map(|x| 2.0 * x as f64).collect();
        assert_eq!(it.array("B"), expect.as_slice());
    }

    #[test]
    fn vectorization_marks_map() {
        let mut b = SdfgBuilder::new("v");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a + 1",
            &[("o", "B", "i")],
        );
        let mut sdfg = b.build().unwrap();
        let p = Params::new().with("width", 8i64);
        assert!(apply_first(&mut sdfg, &Vectorization, &p).unwrap());
        let st = sdfg.state(sdfg.start.unwrap());
        let me = crate::helpers::map_entries(st)[0];
        assert_eq!(crate::helpers::scope_of(st, me).vector_len, Some(8));
    }

    #[test]
    fn vectorization_rejects_strided_access() {
        let mut b = SdfgBuilder::new("v2");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        // Column access: B[i] = A[i, 0] is fine; A[0, i] okay;
        // A[i, i] has the param in a non-last and last dim? Use A[i*2]
        // equivalent: subset "2*i" in last dim → stride 2, rejected.
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "0, 2*i")],
            "o = a",
            &[("o", "B", "i")],
        );
        let mut sdfg = b.build().unwrap();
        assert!(apply_first(&mut sdfg, &Vectorization, &Params::new()).is_err());
    }

    #[test]
    fn vectorization_rejects_a_clamped_access_and_takes_a_flat_row() {
        // `min(i, 50)` has stride 1 only below 50; `j*N + i` is stride 1.
        for (idx, ok) in [
            ("min(i, 50)", false),
            ("max(i, 7) + 1", false),
            ("j*N + i", true),
        ] {
            let mut b = SdfgBuilder::new("v3");
            b.symbol("N");
            b.array("A", &["N*N"], DType::F64);
            b.array("B", &["N", "N"], DType::F64);
            let st = b.state("main");
            b.mapped_tasklet(
                st,
                "t",
                &[("j", "0:N"), ("i", "0:N")],
                &[("a", "A", idx)],
                "o = a",
                &[("o", "B", "j, i")],
            );
            let mut sdfg = b.build().unwrap();
            let applied = apply_first(&mut sdfg, &Vectorization, &Params::new());
            assert_eq!(applied.is_ok(), ok, "`A[{idx}]`: {applied:?}");
        }
    }

    #[test]
    fn double_buffering_preserves_semantics() {
        // Tile copy into transient then compute, inside a sequential map.
        let mut b = SdfgBuilder::new("db");
        b.symbol("N");
        b.array("A", &["N", "4"], DType::F64);
        b.transient("buf", &["4"], DType::F64);
        b.array("B", &["N", "4"], DType::F64);
        let st_id = b.state("main");
        {
            let st = b.sdfg.state_mut(st_id);
            let a = st.add_access("A");
            let (me, mx) = st.add_map(sdfg_core::node::MapScope::new(
                "rows",
                vec!["r".into()],
                vec![SymRange::new(0, "N")],
            ));
            let buf = st.add_access("buf");
            let t = st.add_tasklet("t", &["x"], &["y"], "y = x * 10");
            let (ie, ix) = st.add_map(sdfg_core::node::MapScope::new(
                "cols",
                vec!["c".into()],
                vec![SymRange::new(0, 4)],
            ));
            let out = st.add_access("B");
            st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N, 0:4"));
            st.add_edge(me, Some("OUT_A"), buf, None, Memlet::parse("A", "r, 0:4"));
            st.add_edge(buf, None, ie, Some("IN_buf"), Memlet::parse("buf", "0:4"));
            st.add_edge(ie, Some("OUT_buf"), t, Some("x"), Memlet::parse("buf", "c"));
            st.add_edge(t, Some("y"), ix, Some("IN_B"), Memlet::parse("B", "r, c"));
            st.add_edge(
                ix,
                Some("OUT_B"),
                mx,
                Some("IN_B"),
                Memlet::parse("B", "r, 0:4"),
            );
            st.add_edge(mx, Some("OUT_B"), out, None, Memlet::parse("B", "0:N, 0:4"));
        }
        let mut sdfg = b.build_unvalidated();
        sdfg.validate().expect("valid before");
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("N", 3);
            it.set_array("A", (0..12).map(|x| x as f64).collect());
            it.set_array("B", vec![0.0; 12]);
            it.run().unwrap();
            it.array("B").to_vec()
        };
        let before = run(&sdfg);
        let p = Params::new().with("param", "r");
        assert!(apply_first(&mut sdfg, &DoubleBuffering, &p).unwrap());
        sdfg.validate().expect("valid after double buffering");
        // Shape extended to [2, 4].
        assert_eq!(sdfg.desc("buf").unwrap().shape().len(), 2);
        assert_eq!(run(&sdfg), before);
    }

    #[test]
    fn local_stream_batches_pushes() {
        // Map pushing matches into a global stream → localized.
        let mut sdfg = Sdfg::new("q");
        sdfg.add_symbol("N");
        sdfg.add_array("A", &["N"], DType::F64);
        sdfg.add_stream("S", DType::F64);
        sdfg.add_array("out", &["N"], DType::F64);
        sdfg.add_array("count", &["1"], DType::F64);
        let sid = sdfg.add_state("main");
        let st = sdfg.state_mut(sid);
        let a = st.add_access("A");
        let (me, mx) = st.add_map(sdfg_core::node::MapScope::new(
            "m",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet(
            "filter",
            &["x"],
            &["S_out", "c"],
            "if x > 10:\n    S_out.push(x)\n    c = 1\nelse:\n    c = 0",
        );
        let s_acc = st.add_access("S");
        let cnt = st.add_access("count");
        st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
        st.add_edge(me, Some("OUT_A"), t, Some("x"), Memlet::parse("A", "i"));
        st.add_edge(
            t,
            Some("S_out"),
            s_acc,
            None,
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            t,
            Some("c"),
            mx,
            Some("IN_count"),
            Memlet::parse("count", "0").with_wcr(Wcr::Sum),
        );
        st.add_edge(
            mx,
            Some("OUT_count"),
            cnt,
            None,
            Memlet::parse("count", "0").with_wcr(Wcr::Sum),
        );
        // Drain stream into out.
        let sid2 = sdfg.add_state("drain");
        sdfg.add_transition(sid, sid2, sdfg_core::sdfg::InterstateEdge::always());
        let st2 = sdfg.state_mut(sid2);
        let s2 = st2.add_access("S");
        let o2 = st2.add_access("out");
        st2.add_plain_edge(
            s2,
            o2,
            Memlet::parse("S", "0").with_other_subset(Subset::parse("0:N").unwrap()),
        );
        sdfg.validate().expect("valid before LocalStream");

        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("N", 6);
            it.set_array("A", vec![5.0, 20.0, 7.0, 30.0, 1.0, 40.0]);
            it.set_array("out", vec![0.0; 6]);
            it.set_array("count", vec![0.0]);
            it.run().unwrap();
            (it.array("count")[0], it.array("out").to_vec())
        };
        let (c_before, _) = run(&sdfg);
        assert_eq!(c_before, 3.0);
        assert!(apply_first(&mut sdfg, &LocalStream, &Params::new()).unwrap());
        sdfg.validate().expect("valid after LocalStream");
        let (c_after, out_after) = run(&sdfg);
        assert_eq!(c_after, 3.0);
        // All three filtered values present (order may vary).
        let mut vals: Vec<f64> = out_after.into_iter().filter(|&v| v != 0.0).collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![20.0, 30.0, 40.0]);
    }
}
