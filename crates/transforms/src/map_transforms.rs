//! Map-scope transformations (Appendix B, "Map transformations").

use crate::framework::{CostHint, Params, TMatch, Transformation};
use crate::helpers::{
    find_pattern, is_access, is_map_entry, is_map_exit, is_reduce, is_transient_access,
    redirect_edge_dst, redirect_edge_src, scope_of, scope_of_mut, Pattern,
};
use sdfg_core::sdfg::InterstateEdge;
use sdfg_core::{Memlet, Node, Sdfg, SdfgError, StateId, Subset, SymRange, Wcr};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_symbolic::dependence::same;
use sdfg_symbolic::{Env, Expr};
use std::collections::BTreeMap;

/// `MapTiling` — applies orthogonal tiling to a map.
///
/// Each tiled dimension `i ∈ b:e:s` becomes a pair `i_tile ∈ b:e:(s·T)`,
/// `i ∈ i_tile : min(i_tile + s·T, e) : s`, with tile dimensions placed
/// before the original ones. Parameters: `tile_sizes` (comma list, default
/// `32`), `dims` (comma list of dimension indices, default: all).
pub struct MapTiling;

impl Transformation for MapTiling {
    fn name(&self) -> &'static str {
        "MapTiling"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            for n in st.graph.node_ids() {
                if matches!(st.graph.node(n), Node::MapEntry(_)) {
                    out.push(TMatch::in_state(sid).with("map", n));
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError> {
        let tile_sizes: Vec<i64> = params
            .dims("tile_sizes")?
            .map(|ds| ds.into_iter().map(|d| d as i64).collect())
            .unwrap_or_else(|| vec![32]);
        if tile_sizes.is_empty() {
            return Err(SdfgError::ParamParse {
                param: "tile_sizes".to_string(),
                text: "<empty list>".to_string(),
            });
        }
        let entry = m.try_node("map")?;
        // Fresh tile-parameter names must be chosen against the whole SDFG.
        let ndims = scope_of(sdfg.state(m.state), entry).params.len();
        let dims = params.dims("dims")?.unwrap_or_else(|| (0..ndims).collect());
        let mut new_params = Vec::new();
        let mut new_ranges = Vec::new();
        {
            let scope_params: Vec<String> = scope_of(sdfg.state(m.state), entry).params.clone();
            let scope_ranges: Vec<SymRange> = scope_of(sdfg.state(m.state), entry).ranges.clone();
            for (k, &d) in dims.iter().enumerate() {
                if d >= ndims {
                    return Err(SdfgError::transform(format!("dimension {d} out of range")));
                }
                let t = tile_sizes[k.min(tile_sizes.len() - 1)];
                if t <= 1 {
                    continue;
                }
                let tp = crate::helpers::fresh_param(sdfg, &format!("{}_tile", scope_params[d]));
                let r = &scope_ranges[d];
                let coarse_step = r.step.clone() * Expr::int(t);
                new_params.push((
                    d,
                    tp.clone(),
                    SymRange {
                        start: r.start.clone(),
                        end: r.end.clone(),
                        step: coarse_step.clone(),
                        tile: Expr::one(),
                    },
                ));
                // Inner range: i ∈ tp : min(tp + s*T, e) : s
                new_ranges.push((
                    d,
                    SymRange {
                        start: Expr::sym(tp),
                        end: (Expr::sym(&new_params.last().unwrap().1) + coarse_step)
                            .min2(r.end.clone()),
                        step: r.step.clone(),
                        tile: r.tile.clone(),
                    },
                ));
            }
        }
        let scope = scope_of_mut(sdfg.state_mut(m.state), entry);
        for (d, r) in new_ranges {
            scope.ranges[d] = r;
        }
        // Prepend tile dims in their dimension order.
        for (i, (_, tp, tr)) in new_params.into_iter().enumerate() {
            scope.params.insert(i, tp);
            scope.ranges.insert(i, tr);
        }
        // Re-tiling an already-tiled map can leave a range referencing a
        // parameter bound later in the list (parameters bind left to
        // right); restore a valid binding order.
        crate::helpers::dependency_sort_params(&mut scope.params, &mut scope.ranges);
        Ok(())
    }

    fn cost_hint(&self, _sdfg: &Sdfg, _m: &TMatch, _env: &Env) -> CostHint {
        // This runtime executes maps directly (no cache-blocking codegen
        // behind it), so tiling only adds loop-nest overhead here.
        CostHint::Unprofitable
    }
}

/// `MapInterchange` — permutes map dimensions (within one multi-dimensional
/// map). Parameter `order`: comma list of dimension indices (a permutation).
pub struct MapInterchange;

impl Transformation for MapInterchange {
    fn name(&self) -> &'static str {
        "MapInterchange"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            for n in st.graph.node_ids() {
                if let Node::MapEntry(msc) = st.graph.node(n) {
                    if msc.params.len() >= 2 {
                        out.push(TMatch::in_state(sid).with("map", n));
                    }
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, params: &Params) -> Result<(), SdfgError> {
        let entry = m.try_node("map")?;
        let order = params
            .dims("order")?
            .ok_or_else(|| SdfgError::transform("MapInterchange requires `order`"))?;
        let scope = scope_of_mut(sdfg.state_mut(m.state), entry);
        if order.len() != scope.params.len() {
            return Err(SdfgError::transform("order length mismatch"));
        }
        let mut seen = vec![false; order.len()];
        for &o in &order {
            if o >= order.len() || seen[o] {
                return Err(SdfgError::transform("order must be a permutation"));
            }
            seen[o] = true;
        }
        let old_params = scope.params.clone();
        let old_ranges = scope.ranges.clone();
        // Dependent ranges must only reference earlier (in the new order)
        // parameters.
        for (pos, &o) in order.iter().enumerate() {
            let syms = {
                let mut s = std::collections::BTreeSet::new();
                old_ranges[o].collect_symbols(&mut s);
                s
            };
            for later in order[pos + 1..].iter() {
                if syms.contains(&old_params[*later]) {
                    return Err(SdfgError::transform(format!(
                        "range of `{}` depends on `{}`, which would come later",
                        old_params[o], old_params[*later]
                    )));
                }
            }
        }
        scope.params = order.iter().map(|&o| old_params[o].clone()).collect();
        scope.ranges = order.iter().map(|&o| old_ranges[o].clone()).collect();
        Ok(())
    }
}

/// `MapExpansion` — expands a multi-dimensional map into two nested maps
/// (dimension 0 outside, the rest inside).
pub struct MapExpansion;

impl Transformation for MapExpansion {
    fn name(&self) -> &'static str {
        "MapExpansion"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            for n in st.graph.node_ids() {
                if let Node::MapEntry(msc) = st.graph.node(n) {
                    if msc.params.len() >= 2 {
                        out.push(TMatch::in_state(sid).with("map", n));
                    }
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let entry = m.try_node("map")?;
        let state = sdfg.state_mut(m.state);
        let exit = state
            .exit_of(entry)
            .ok_or_else(|| SdfgError::transform("unpaired map"))?;
        let (outer_label, inner_params, inner_ranges, schedule) = {
            let sc = scope_of(state, entry);
            (
                sc.label.clone(),
                sc.params[1..].to_vec(),
                sc.ranges[1..].to_vec(),
                sc.schedule,
            )
        };
        // Shrink the outer map to dim 0.
        {
            let sc = scope_of_mut(state, entry);
            sc.params.truncate(1);
            sc.ranges.truncate(1);
        }
        // New inner map.
        let mut inner_scope = sdfg_core::node::MapScope::new(
            format!("{outer_label}_inner"),
            inner_params,
            inner_ranges,
        );
        inner_scope.schedule = match schedule {
            sdfg_core::Schedule::GpuDevice => sdfg_core::Schedule::GpuThreadBlock,
            other => other,
        };
        let (ie, ix) = state.add_map(inner_scope);
        // Move the body edges: entry(OUT_x) → consumer becomes
        // inner(OUT_x) → consumer, with a connecting edge entry → inner.
        let out_edges: Vec<EdgeId> = state.graph.out_edges(entry).collect();
        for e in out_edges {
            let df = state.graph.edge(e).clone();
            let dst = state.graph.edge_dst(e);
            if dst == ix {
                continue;
            }
            state.graph.remove_edge(e);
            if let Some(conn) = &df.src_conn {
                // Bridge edge (outer → inner) if not yet present.
                let in_conn = conn.replace("OUT_", "IN_");
                let exists = state
                    .graph
                    .out_edges(entry)
                    .any(|e2| state.graph.edge(e2).dst_conn.as_deref() == Some(in_conn.as_str()));
                if !exists {
                    state.add_edge(entry, Some(conn), ie, Some(&in_conn), df.memlet.clone());
                }
                state.add_edge(ie, Some(conn), dst, df.dst_conn.as_deref(), df.memlet);
            } else {
                state.add_edge(entry, None, ie, None, Memlet::empty());
                state.add_edge(ie, None, dst, df.dst_conn.as_deref(), df.memlet);
            }
        }
        // Mirror for the exit side.
        let in_edges: Vec<EdgeId> = state.graph.in_edges(exit).collect();
        for e in in_edges {
            let df = state.graph.edge(e).clone();
            let src = state.graph.edge_src(e);
            if src == ie {
                continue;
            }
            state.graph.remove_edge(e);
            if let Some(conn) = &df.dst_conn {
                let out_conn = conn.replace("IN_", "OUT_");
                let exists = state
                    .graph
                    .in_edges(exit)
                    .any(|e2| state.graph.edge(e2).src_conn.as_deref() == Some(out_conn.as_str()));
                if !exists {
                    state.add_edge(ix, Some(&out_conn), exit, Some(conn), df.memlet.clone());
                }
                state.add_edge(src, df.src_conn.as_deref(), ix, Some(conn), df.memlet);
            } else {
                state.add_edge(ix, None, exit, None, Memlet::empty());
                state.add_edge(src, df.src_conn.as_deref(), ix, Some("IN__dep"), df.memlet);
            }
        }
        Ok(())
    }
}

/// `MapCollapse` — collapses two directly nested maps into one, whose
/// dimensions are the union.
pub struct MapCollapse;

impl Transformation for MapCollapse {
    fn name(&self) -> &'static str {
        "MapCollapse"
    }

    /// Legality: the outer map's body is exactly the inner map. Every
    /// out-edge of the outer entry enters the inner entry and every in-edge
    /// of the outer exit leaves the inner exit, so nothing runs between the
    /// two scopes on either side (histogram's per-tile write-back of its
    /// local histogram, between the exits, is not collapsed). An inner
    /// range may read the outer parameters: the collapsed map keeps the
    /// outer dimensions first, and a later dimension's range may read the
    /// earlier ones.
    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            let pattern = Pattern {
                roles: vec![("outer", is_map_entry), ("inner", is_map_entry)],
                edges: vec![(0, 1)],
            };
            for m in find_pattern(sdfg, sid, &pattern) {
                let outer = m["outer"];
                let inner = m["inner"];
                let mirrored = match (st.exit_of(outer), st.exit_of(inner)) {
                    (Some(ox), Some(ix)) => {
                        st.graph.in_edges(ox).all(|e| st.graph.edge_src(e) == ix)
                    }
                    _ => false,
                };
                let ok = mirrored
                    && st
                        .graph
                        .out_edges(outer)
                        .all(|e| st.graph.edge_dst(e) == inner);
                if ok {
                    out.push(
                        TMatch::in_state(sid)
                            .with("outer", outer)
                            .with("inner", inner),
                    );
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let outer = m.try_node("outer")?;
        let inner = m.try_node("inner")?;
        let state = sdfg.state_mut(m.state);
        let outer_exit = state
            .exit_of(outer)
            .ok_or_else(|| SdfgError::transform("unpaired outer map"))?;
        let inner_exit = state
            .exit_of(inner)
            .ok_or_else(|| SdfgError::transform("unpaired inner map"))?;
        // Merge dims.
        let (ip, ir) = {
            let isc = scope_of(state, inner);
            (isc.params.clone(), isc.ranges.clone())
        };
        {
            let osc = scope_of_mut(state, outer);
            osc.params.extend(ip);
            osc.ranges.extend(ir);
        }
        // Rewire: inner(OUT_x) → consumer becomes outer(OUT_x) → consumer.
        let inner_out: Vec<EdgeId> = state.graph.out_edges(inner).collect();
        for e in inner_out {
            let conn = state.graph.edge(e).src_conn.clone();
            redirect_edge_src(state, e, outer, conn);
        }
        // Remove bridge edges outer → inner.
        let bridges: Vec<EdgeId> = state
            .graph
            .out_edges(outer)
            .filter(|&e| state.graph.edge_dst(e) == inner)
            .collect();
        for e in bridges {
            state.graph.remove_edge(e);
        }
        // Exit side: producer → inner_exit becomes producer → outer_exit.
        let inner_exit_in: Vec<EdgeId> = state.graph.in_edges(inner_exit).collect();
        for e in inner_exit_in {
            let conn = state.graph.edge(e).dst_conn.clone();
            redirect_edge_dst(state, e, outer_exit, conn);
        }
        let bridges: Vec<EdgeId> = state
            .graph
            .in_edges(outer_exit)
            .filter(|&e| state.graph.edge_src(e) == inner_exit)
            .collect();
        for e in bridges {
            state.graph.remove_edge(e);
        }
        state.graph.remove_node(inner);
        state.graph.remove_node(inner_exit);
        Ok(())
    }

    fn cost_hint(&self, _sdfg: &Sdfg, _m: &TMatch, _env: &Env) -> CostHint {
        // One flat iteration space means one scope setup instead of a
        // nested per-point scope, and more parallelism to split.
        CostHint::Beneficial
    }
}

/// `MapReduceFusion` — fuses a map writing a transient with an immediately
/// following Reduce into a write-conflict-resolution memlet (Fig. 11a). If
/// the reduction has an identity, an initialization state is inserted
/// before the current one.
pub struct MapReduceFusion;

impl Transformation for MapReduceFusion {
    fn name(&self) -> &'static str {
        "MapReduceFusion"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let pattern = Pattern {
                roles: vec![
                    ("exit", is_map_exit),
                    ("tmp", is_transient_access),
                    ("reduce", is_reduce),
                    ("out", is_access),
                ],
                edges: vec![(0, 1), (1, 2), (2, 3)],
            };
            for m in find_pattern(sdfg, sid, &pattern) {
                let st = sdfg.state(sid);
                // The transient must only be used here.
                let data = st.graph.node(m["tmp"]).access_data().unwrap();
                if crate::helpers::access_count(sdfg, data) != 1 {
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
        let (exit, tmp, reduce, outacc) = (
            m.try_node("exit")?,
            m.try_node("tmp")?,
            m.try_node("reduce")?,
            m.try_node("out")?,
        );
        let (wcr, axes, identity, out_data, out_subset, tmp_data) = {
            let st = sdfg.state(m.state);
            let Node::Reduce {
                wcr,
                axes,
                identity,
            } = st.graph.node(reduce)
            else {
                return Err(SdfgError::transform("role `reduce` is not a Reduce"));
            };
            let out_edge = st
                .graph
                .out_edges(reduce)
                .next()
                .ok_or_else(|| SdfgError::transform("reduce without output"))?;
            let out_m = st.graph.edge(out_edge).memlet.clone();
            (
                wcr.clone(),
                axes.clone(),
                *identity,
                out_m.data_name().to_string(),
                out_m.subset.clone(),
                st.graph.node(tmp).access_data().unwrap().to_string(),
            )
        };
        let state = sdfg.state_mut(m.state);
        // Rewrite producer memlets: edges into `exit` carrying tmp become
        // out_data with kept dims + WCR.
        let producer_edges: Vec<EdgeId> = state
            .graph
            .in_edges(exit)
            .filter(|&e| state.graph.edge(e).memlet.data.as_deref() == Some(tmp_data.as_str()))
            .collect();
        let mut kept_subset_example = None;
        for e in producer_edges {
            let df = state.graph.edge_mut(e);
            let rank = df.memlet.subset.rank();
            let reduce_axes: Vec<usize> = match &axes {
                Some(a) => a.clone(),
                None => (0..rank).collect(),
            };
            let kept: Vec<SymRange> = df
                .memlet
                .subset
                .dims
                .iter()
                .enumerate()
                .filter(|(d, _)| !reduce_axes.contains(d))
                .map(|(_, r)| r.clone())
                .collect();
            let new_subset = if kept.is_empty() {
                Subset::index([Expr::zero()])
            } else {
                Subset::new(kept)
            };
            kept_subset_example = Some(new_subset.clone());
            df.memlet = Memlet::new(&out_data, new_subset).with_wcr(wcr.clone());
            // Rename the exit connectors to the new container.
            if let Some(c) = &df.dst_conn {
                let new = c.replace(&format!("IN_{tmp_data}"), &format!("IN_{out_data}"));
                df.dst_conn = Some(new);
            }
        }
        // Exit's outer edge: straight to the output access node.
        let outer_edges: Vec<EdgeId> = state.graph.out_edges(exit).collect();
        for e in outer_edges {
            let df = state.graph.edge(e);
            if df.memlet.data.as_deref() == Some(tmp_data.as_str()) {
                let conn = df
                    .src_conn
                    .clone()
                    .map(|c| c.replace(&format!("OUT_{tmp_data}"), &format!("OUT_{out_data}")));
                let new_m = Memlet::new(&out_data, out_subset.clone()).with_wcr(wcr.clone());
                state.graph.remove_edge(e);
                state.graph.add_edge(
                    exit,
                    outacc,
                    sdfg_core::sdfg::Dataflow {
                        src_conn: conn,
                        dst_conn: None,
                        memlet: new_m,
                    },
                );
            }
        }
        // Remove tmp access and the reduce node.
        state.graph.remove_node(tmp);
        state.graph.remove_node(reduce);
        sdfg.data.remove(&tmp_data);
        let _ = kept_subset_example;
        // Initialization state (identity) before this one.
        if let Some(id) = identity {
            insert_init_state(sdfg, m.state, &out_data, &out_subset, id)?;
        }
        let _ = wcr_is_builtin(&wcr);
        Ok(())
    }
}

fn wcr_is_builtin(w: &Wcr) -> bool {
    !matches!(w, Wcr::Custom(_))
}

/// Builds `out[subset] = identity` in a fresh state inserted before `sid`.
fn insert_init_state(
    sdfg: &mut Sdfg,
    sid: StateId,
    data: &str,
    subset: &Subset,
    identity: f64,
) -> Result<(), SdfgError> {
    let init = sdfg.add_state(format!("init_{data}"));
    // Redirect incoming transitions of `sid` to `init`.
    let incoming: Vec<EdgeId> = sdfg.graph.in_edges(sid).collect();
    for e in incoming {
        let (src, _) = sdfg.graph.edge_endpoints(e);
        let payload = sdfg.graph.edge(e).clone();
        sdfg.graph.remove_edge(e);
        sdfg.graph.add_edge(src, init, payload);
    }
    sdfg.graph.add_transition_helper(init, sid);
    if sdfg.start == Some(sid) {
        sdfg.start = Some(init);
    }
    // Map over the subset writing the identity.
    let params: Vec<String> = (0..subset.rank()).map(|d| format!("__init{d}")).collect();
    let ranges: Vec<SymRange> = subset.dims.clone();
    let st = sdfg.state_mut(init);
    let (me, mx) = st.add_map(sdfg_core::node::MapScope::new(
        format!("init_{data}"),
        params.clone(),
        ranges,
    ));
    let t = st.add_tasklet("init", &[], &["o"], format!("o = {identity}"));
    let acc = st.add_access(data);
    st.add_edge(me, None, t, None, Memlet::empty());
    let idx = Subset::index(params.iter().map(|p| Expr::sym(p.clone())));
    st.add_edge(
        t,
        Some("o"),
        mx,
        Some(&format!("IN_{data}")),
        Memlet::new(data, idx),
    );
    st.add_edge(
        mx,
        Some(&format!("OUT_{data}")),
        acc,
        None,
        Memlet::new(data, subset.clone()),
    );
    Ok(())
}

/// Helper trait impl-free shim: adding unconditional transitions from the
/// transformation module without importing builder.
trait TransitionExt {
    fn add_transition_helper(&mut self, a: StateId, b: StateId);
}

impl TransitionExt for sdfg_graph::MultiGraph<sdfg_core::State, InterstateEdge> {
    fn add_transition_helper(&mut self, a: StateId, b: StateId) {
        self.add_edge(a, b, InterstateEdge::always());
    }
}

/// `MapFusion` — fuses two consecutive maps communicating through a
/// transient array with matching iteration spaces; the intermediate becomes
/// a scalar transient inside the fused scope.
pub struct MapFusion;

/// Map 2's parameters renamed to map 1's, all at once.
fn renaming(st: &sdfg_core::State, entry1: NodeId, entry2: NodeId) -> BTreeMap<String, Expr> {
    let (p1, p2) = (&scope_of(st, entry1).params, &scope_of(st, entry2).params);
    p2.iter()
        .cloned()
        .zip(p1.iter().map(|p| Expr::sym(p.clone())))
        .collect()
}

impl MapFusion {
    /// Every `exit1 → tmp → entry2` candidate, or the reason it is not
    /// legal (see [`MapFusion::find`]).
    fn candidates(&self, sdfg: &Sdfg) -> Vec<Result<TMatch, String>> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let pattern = Pattern {
                roles: vec![
                    ("exit1", is_map_exit),
                    ("tmp", is_transient_access),
                    ("entry2", is_map_entry),
                ],
                edges: vec![(0, 1), (1, 2)],
            };
            for m in find_pattern(sdfg, sid, &pattern) {
                let st = sdfg.state(sid);
                let exit1 = m["exit1"];
                let entry1 = st.graph.node(exit1).exit_entry().unwrap();
                let entry2 = m["entry2"];
                let (s1, s2) = (scope_of(st, entry1), scope_of(st, entry2));
                if s1.ranges.len() != s2.ranges.len() {
                    continue;
                }
                let rename = renaming(st, entry1, entry2);
                let renamed: Vec<SymRange> =
                    s2.ranges.iter().map(|r| r.subs_map(&rename)).collect();
                if renamed != s1.ranges {
                    continue;
                }
                let data = st.graph.node(m["tmp"]).access_data().unwrap();
                if crate::helpers::access_count(sdfg, data) != 1 {
                    continue;
                }
                if st.graph.in_degree(m["tmp"]) != 1 || st.graph.out_degree(m["tmp"]) != 1 {
                    continue;
                }
                let on_tmp = |e: EdgeId| {
                    let mm = &st.graph.edge(e).memlet;
                    (mm.data.as_deref() == Some(data)).then_some(mm)
                };
                let writes: Vec<&Memlet> = st.graph.in_edges(exit1).filter_map(on_tmp).collect();
                // A WCR write into the intermediate means each element
                // accumulates across iterations of the first map and must
                // be complete before the second map reads it — fusing
                // per-point would read partial sums. Reject.
                let tmp_in = st.graph.in_edges(m["tmp"]).next().expect("in-degree 1");
                let wcr = st.graph.edge(tmp_in).memlet.wcr.is_some();
                if wcr || writes.iter().any(|w| w.wcr.is_some()) {
                    continue;
                }
                let why = st.graph.out_edges(entry2).filter_map(on_tmp).find_map(|r| {
                    let r = r.subset.subs_map(&rename);
                    let w = &writes.iter().find(|w| same(&r, &w.subset).is_err())?.subset;
                    Some(format!(
                        "consumer reads {data}[{r}], producer writes {data}[{w}]"
                    ))
                });
                let m = TMatch {
                    state: sid,
                    nodes: m,
                    states: Default::default(),
                };
                out.push(why.map_or(Ok(m), Err));
            }
        }
        out
    }
}

impl Transformation for MapFusion {
    fn name(&self) -> &'static str {
        "MapFusion"
    }

    /// Matches `exit1 → tmp → entry2`: two maps over the same ranges (map
    /// 2's parameters renamed to map 1's) through a transient accessed
    /// nowhere else and written without conflict resolution. Legal when
    /// every memlet out of the intermediate, renamed likewise, names the
    /// [`same`] element map 1 writes at that point: the fused scope hands
    /// each point's value over in a scalar. A candidate that is not legal
    /// is [`declined`](Transformation::declined).
    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        self.candidates(sdfg).into_iter().flatten().collect()
    }

    fn declined(&self, sdfg: &Sdfg) -> Vec<String> {
        let candidates = self.candidates(sdfg).into_iter();
        candidates.filter_map(Result::err).collect()
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let (exit1, tmp, entry2) = (
            m.try_node("exit1")?,
            m.try_node("tmp")?,
            m.try_node("entry2")?,
        );
        let sid = m.state;
        let (entry1, exit2, tmp_data, rename) = {
            let st = sdfg.state(sid);
            let entry1 = st.graph.node(exit1).exit_entry().unwrap();
            let exit2 = st
                .exit_of(entry2)
                .ok_or_else(|| SdfgError::transform("unpaired second map"))?;
            (
                entry1,
                exit2,
                st.graph.node(tmp).access_data().unwrap().to_string(),
                renaming(st, entry1, entry2),
            )
        };
        // Scalar replacement for the intermediate.
        let scalar_name = sdfg.fresh_data_name(&format!("{tmp_data}_s"));
        let dtype = sdfg.desc(&tmp_data).map(|d| d.dtype()).unwrap();
        sdfg.add_scalar(&scalar_name, dtype, true);
        // Rename p2 → p1 in all memlets inside scope 2.
        let members2 = sdfg_core::scope::scope_members(sdfg.state(sid), entry2);
        let state = sdfg.state_mut(sid);
        let mut edges_to_rename: Vec<EdgeId> = Vec::new();
        for &n in &members2 {
            edges_to_rename.extend(state.graph.out_edges(n));
            edges_to_rename.extend(state.graph.in_edges(n));
        }
        edges_to_rename.sort_unstable();
        edges_to_rename.dedup();
        for e in edges_to_rename {
            let mm = &mut state.graph.edge_mut(e).memlet;
            mm.subset = mm.subset.subs_map(&rename);
            mm.other_subset = mm.other_subset.as_ref().map(|os| os.subs_map(&rename));
            mm.volume = mm.volume.subs_map(&rename);
        }
        // Rename params in any nested scopes of scope 2.
        for &n in &members2 {
            if let Node::MapEntry(msc) = state.graph.node_mut(n) {
                for r in msc.ranges.iter_mut() {
                    *r = r.subs_map(&rename);
                }
            }
        }
        // Producer edge: tasklet1 → exit1 (IN_tmp) becomes tasklet1 →
        // scalar access; consumer: entry2 (OUT_tmp) → tasklet2 becomes
        // scalar access → tasklet2.
        let scalar_acc = state.add_access(&scalar_name);
        let prod_edges: Vec<EdgeId> = state
            .graph
            .in_edges(exit1)
            .filter(|&e| state.graph.edge(e).memlet.data.as_deref() == Some(tmp_data.as_str()))
            .collect();
        for e in prod_edges {
            let mut df = state.graph.edge(e).clone();
            let src = state.graph.edge_src(e);
            df.memlet = Memlet::parse(&scalar_name, "0");
            df.dst_conn = None;
            state.graph.remove_edge(e);
            state.graph.add_edge(src, scalar_acc, df);
        }
        let cons_edges: Vec<EdgeId> = state
            .graph
            .out_edges(entry2)
            .filter(|&e| state.graph.edge(e).memlet.data.as_deref() == Some(tmp_data.as_str()))
            .collect();
        for e in cons_edges {
            let mut df = state.graph.edge(e).clone();
            let dst = state.graph.edge_dst(e);
            df.memlet = Memlet::parse(&scalar_name, "0");
            df.src_conn = None;
            state.graph.remove_edge(e);
            state.graph.add_edge(scalar_acc, dst, df);
        }
        // Drop map2's outer input edges; surviving containers are re-wired
        // through entry1 below (when rerouting entry2's inner edges).
        let entry2_in: Vec<EdgeId> = state.graph.in_edges(entry2).collect();
        for e in entry2_in {
            state.graph.remove_edge(e);
        }
        // Inner consumers of entry2's remaining connectors hook to entry1.
        let entry2_out: Vec<EdgeId> = state.graph.out_edges(entry2).collect();
        for e in entry2_out {
            let df = state.graph.edge(e).clone();
            let dst = state.graph.edge_dst(e);
            state.graph.remove_edge(e);
            if let Some(conn) = df.src_conn.clone() {
                // Ensure entry1 receives this container from outside.
                let in_conn = conn.replace("OUT_", "IN_");
                let has_outer = state
                    .graph
                    .in_edges(entry1)
                    .any(|e2| state.graph.edge(e2).dst_conn.as_deref() == Some(in_conn.as_str()));
                if !has_outer {
                    let data = df.memlet.data_name().to_string();
                    let read = crate::helpers::find_read_access(state, &data);
                    state.add_edge(read, None, entry1, Some(&in_conn), df.memlet.clone());
                }
                state.add_edge(entry1, Some(&conn), dst, df.dst_conn.as_deref(), df.memlet);
            } else {
                state.add_edge(entry1, None, dst, df.dst_conn.as_deref(), df.memlet);
            }
        }
        // Outputs of map2 route through exit1... actually exit2 becomes the
        // single exit: move exit1's other outputs onto exit2, then drop
        // exit1. Simpler: producers into exit2 stay; producers into exit1
        // (non-tmp) need rerouting to exit2.
        let exit1_in: Vec<EdgeId> = state.graph.in_edges(exit1).collect();
        for e in exit1_in {
            let conn = state.graph.edge(e).dst_conn.clone();
            redirect_edge_dst(state, e, exit2, conn);
        }
        let exit1_out: Vec<EdgeId> = state.graph.out_edges(exit1).collect();
        for e in exit1_out {
            let conn = state.graph.edge(e).src_conn.clone();
            redirect_edge_src(state, e, exit2, conn);
        }
        // Repair exit pairing: exit2 now closes entry1's scope.
        state.graph.remove_node(exit1);
        state.graph.remove_node(tmp);
        state.graph.remove_node(entry2);
        if let Node::MapExit { entry } = state.graph.node_mut(exit2) {
            *entry = entry1;
        }
        sdfg.data.remove(&tmp_data);
        Ok(())
    }

    fn cost_hint(&self, _sdfg: &Sdfg, _m: &TMatch, _env: &Env) -> CostHint {
        // Removes a full pass over the intermediate array and replaces it
        // with a register-sized scalar — strictly less data movement.
        CostHint::Beneficial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::apply_first;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;

    fn run_both(sdfg: &Sdfg, n: i64, a: Vec<f64>) -> Vec<f64> {
        let mut it = sdfg_interp::Interpreter::new(sdfg);
        it.set_symbol("N", n);
        it.set_array("A", a.clone());
        it.set_array("B", vec![0.0; a.len()]);
        it.run().unwrap();
        it.array("B").to_vec()
    }

    fn double_map_sdfg() -> Sdfg {
        let mut b = SdfgBuilder::new("d");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "B", "i")],
        );
        b.build().unwrap()
    }

    #[test]
    fn tiling_preserves_semantics() {
        let mut sdfg = double_map_sdfg();
        let before = run_both(&sdfg, 37, (0..37).map(|x| x as f64).collect());
        let params = Params::new().with("tile_sizes", 8i64);
        assert!(apply_first(&mut sdfg, &MapTiling, &params).unwrap());
        sdfg.validate().expect("valid after tiling");
        // Map now has 2 dims.
        let st = sdfg.state(sdfg.start.unwrap());
        let me = crate::helpers::map_entries(st)[0];
        assert_eq!(scope_of(st, me).params.len(), 2);
        let after = run_both(&sdfg, 37, (0..37).map(|x| x as f64).collect());
        assert_eq!(before, after);
    }

    #[test]
    fn tiling_twice_keeps_parameter_binding_order() {
        // Re-tiling an already-tiled map must not leave a tile parameter
        // whose range references a parameter bound later in the list.
        let src = "def p(A: dace.float64[N], C: dace.float64[N]):\n    for i in dace.map[0:N]:\n        C[i] = A[i]\n";
        let mut s = sdfg_frontend::parse_program(src).unwrap();
        for _ in 0..2 {
            assert!(crate::framework::apply_first(&mut s, &MapTiling, &Params::new()).unwrap());
        }
        sdfg_core::validate(&s).unwrap();
        let mut it = sdfg_interp::Interpreter::new(&s);
        it.set_symbol("N", 100);
        it.set_array("A", (0..100).map(|x| x as f64).collect());
        it.set_array("C", vec![0.0; 100]);
        it.run().expect("doubly tiled map executes");
        assert_eq!(it.array("C")[99], 99.0);
    }

    #[test]
    fn interchange_requires_permutation() {
        let mut b = SdfgBuilder::new("i");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N"), ("j", "0:N")],
            &[("a", "A", "i, j")],
            "o = a + 1",
            &[("o", "A", "i, j")],
        );
        let mut sdfg = b.build().unwrap();
        let params = Params::new().with("order", vec![1usize, 0]);
        assert!(apply_first(&mut sdfg, &MapInterchange, &params).unwrap());
        let st = sdfg.state(sdfg.start.unwrap());
        let me = crate::helpers::map_entries(st)[0];
        assert_eq!(scope_of(st, me).params, vec!["j", "i"]);
        // Bad permutation rejected.
        let bad = Params::new().with("order", vec![0usize, 0]);
        assert!(apply_first(&mut sdfg, &MapInterchange, &bad).is_err());
    }

    #[test]
    fn interchange_rejects_dependent_reorder() {
        let mut b = SdfgBuilder::new("tri");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N"), ("j", "0:i + 1")],
            &[("a", "A", "i, j")],
            "o = a + 1",
            &[("o", "A", "i, j")],
        );
        let mut sdfg = b.build().unwrap();
        let params = Params::new().with("order", vec![1usize, 0]);
        assert!(apply_first(&mut sdfg, &MapInterchange, &params).is_err());
    }

    #[test]
    fn expansion_then_collapse_roundtrip() {
        let mut b = SdfgBuilder::new("e");
        b.symbol("N");
        b.array("A", &["N", "N"], DType::F64);
        b.array("B", &["N", "N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N"), ("j", "0:N")],
            &[("a", "A", "i, j")],
            "o = a * 3",
            &[("o", "B", "i, j")],
        );
        let mut sdfg = b.build().unwrap();
        let n = 9i64;
        let input: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("N", n);
            it.set_array("A", input.clone());
            it.set_array("B", vec![0.0; (n * n) as usize]);
            it.run().unwrap();
            it.array("B").to_vec()
        };
        let before = run(&sdfg);
        assert!(apply_first(&mut sdfg, &MapExpansion, &Params::new()).unwrap());
        sdfg.validate().expect("valid after expansion");
        // Two nested maps now.
        let st = sdfg.state(sdfg.start.unwrap());
        assert_eq!(crate::helpers::map_entries(st).len(), 2);
        assert_eq!(run(&sdfg), before);
        // Collapse back.
        assert!(apply_first(&mut sdfg, &MapCollapse, &Params::new()).unwrap());
        sdfg.validate().expect("valid after collapse");
        let st = sdfg.state(sdfg.start.unwrap());
        assert_eq!(crate::helpers::map_entries(st).len(), 1);
        assert_eq!(run(&sdfg), before);
    }

    #[test]
    fn map_reduce_fusion_mm_pattern() {
        // Fig. 9b: map-reduce matrix multiplication → Fig. 11a fused WCR.
        let mut b = SdfgBuilder::new("mm");
        b.symbol("M");
        b.symbol("N");
        b.symbol("K");
        b.array("A", &["M", "K"], DType::F64);
        b.array("B", &["K", "N"], DType::F64);
        b.array("C", &["M", "N"], DType::F64);
        b.transient("tmp", &["M", "N", "K"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "mult",
            &[("i", "0:M"), ("j", "0:N"), ("k", "0:K")],
            &[("a", "A", "i, k"), ("bb", "B", "k, j")],
            "o = a * bb",
            &[("o", "tmp", "i, j, k")],
        );
        b.reduce(
            st,
            "tmp",
            "0:M, 0:N, 0:K",
            "C",
            "0:M, 0:N",
            Wcr::Sum,
            Some(vec![2]),
            Some(0.0),
        );
        let mut sdfg = b.build().unwrap();
        let (mm, kk, nn) = (5i64, 7i64, 4i64);
        let a: Vec<f64> = (0..mm * kk).map(|x| (x % 5) as f64).collect();
        let bmat: Vec<f64> = (0..kk * nn).map(|x| (x % 3) as f64 - 1.0).collect();
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("M", mm)
                .set_symbol("K", kk)
                .set_symbol("N", nn);
            it.set_array("A", a.clone());
            it.set_array("B", bmat.clone());
            it.set_array("C", vec![0.0; (mm * nn) as usize]);
            it.run().unwrap();
            it.array("C").to_vec()
        };
        let before = run(&sdfg);
        assert!(apply_first(&mut sdfg, &MapReduceFusion, &Params::new()).unwrap());
        sdfg.validate().expect("valid after fusion");
        // Transient gone; WCR memlet present; init state added.
        assert!(sdfg.desc("tmp").is_none());
        assert_eq!(sdfg.graph.node_count(), 2); // init + main
        let after = run(&sdfg);
        assert_eq!(before, after);
    }

    #[test]
    fn map_fusion_elementwise_chain() {
        // B = A*2 ; C = B+1  →  single map with scalar intermediate.
        let mut b = SdfgBuilder::new("chain");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("T", &["N"], DType::F64);
        b.array("C", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "first",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "T", "i")],
        );
        b.mapped_tasklet(
            st,
            "second",
            &[("j", "0:N")],
            &[("t", "T", "j")],
            "o = t + 1",
            &[("o", "C", "j")],
        );
        let mut sdfg = b.build().unwrap();
        let n = 11i64;
        let a: Vec<f64> = (0..n).map(|x| x as f64).collect();
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("N", n);
            it.set_array("A", a.clone());
            it.set_array("C", vec![0.0; n as usize]);
            it.run().unwrap();
            it.array("C").to_vec()
        };
        let before = run(&sdfg);
        assert!(apply_first(&mut sdfg, &MapFusion, &Params::new()).unwrap());
        sdfg.validate().expect("valid after map fusion");
        assert!(sdfg.desc("T").is_none(), "intermediate array removed");
        let st = sdfg.state(sdfg.start.unwrap());
        assert_eq!(crate::helpers::map_entries(st).len(), 1, "single map");
        let after = run(&sdfg);
        assert_eq!(before, after);
    }
}
