//! Control-flow transformations (Appendix B, "Control-flow
//! transformations").

use crate::framework::{CostHint, Params, TMatch, Transformation};
use sdfg_core::sdfg::Dataflow;
use sdfg_core::{Node, Schedule, Sdfg, SdfgError, StateId};
use sdfg_graph::{EdgeId, NodeId};
use sdfg_symbolic::Env;
use std::collections::HashMap;

/// Iteration-count threshold below which a top-level multicore map is
/// cheaper to run sequentially than to split across worker threads (the
/// per-run cost of spawning a thread scope outweighs the per-point work for
/// small maps; see `MapToForLoop::cost_hint`).
pub const SEQUENTIALIZE_BELOW_POINTS: i64 = 4096;

/// `MapToForLoop` — converts a map to sequential loop semantics. The map's
/// schedule becomes [`Schedule::Sequential`], which every backend lowers to
/// a plain loop nest (the moral equivalent of DaCe's state-machine
/// conversion, without leaving the dataflow representation).
pub struct MapToForLoop;

impl Transformation for MapToForLoop {
    fn name(&self) -> &'static str {
        "MapToForLoop"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            for n in crate::helpers::map_entries(st) {
                if crate::helpers::scope_of(st, n).schedule != Schedule::Sequential {
                    out.push(TMatch::in_state(sid).with("map", n));
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let entry = m.try_node("map")?;
        let st = sdfg.state_mut(m.state);
        crate::helpers::scope_of_mut(st, entry).schedule = Schedule::Sequential;
        Ok(())
    }

    fn cost_hint(&self, sdfg: &Sdfg, m: &TMatch, env: &Env) -> CostHint {
        let Ok(entry) = m.try_node("map") else {
            return CostHint::Unknown;
        };
        let st = sdfg.state(m.state);
        let sc = crate::helpers::scope_of(st, entry);
        // Only top-level CPU-multicore maps spawn worker threads; anything
        // else already runs serially, so sequentializing buys nothing and
        // costs portability metadata.
        if sc.schedule != Schedule::CpuMulticore {
            return CostHint::Unprofitable;
        }
        let Ok(tree) = sdfg_core::scope::scope_tree(st) else {
            return CostHint::Unknown;
        };
        if tree.scope_of(entry).is_some() {
            return CostHint::Unprofitable;
        }
        // With concrete symbol bindings, a small iteration space means the
        // thread-scope spawn dominates the per-point work. The space counts
        // the points of the maps nested in the body too: a few tiles that
        // each sweep a large inner map are not a small map.
        let mut points: i64 = 1;
        let mut at_start = env.clone();
        for (p, r) in sc.params.iter().zip(&sc.ranges) {
            match r.eval_len(env) {
                Ok(l) => points = points.saturating_mul(l.max(0)),
                Err(_) => return CostHint::Unknown,
            }
            if let Ok(first) = r.start.eval(env) {
                at_start.insert(p.clone(), first);
            }
        }
        points = points.saturating_mul(nested_points(st, &tree, entry, &at_start));
        if points < SEQUENTIALIZE_BELOW_POINTS {
            CostHint::Beneficial
        } else {
            CostHint::Unprofitable
        }
    }
}

/// Points per iteration of map `entry` spent in the maps nested in its
/// scope: the largest product of trip counts along a chain of nested
/// maps, each evaluated with the enclosing parameters (bound in `env`) at
/// their first value. A nested range that does not evaluate counts one.
fn nested_points(
    st: &sdfg_core::State,
    tree: &sdfg_core::scope::ScopeTree,
    entry: NodeId,
    env: &Env,
) -> i64 {
    let mut most = 1i64;
    for n in crate::helpers::map_entries(st) {
        if tree.scope_of(n) != Some(entry) {
            continue;
        }
        let sc = crate::helpers::scope_of(st, n);
        let mut inner = env.clone();
        let mut points = 1i64;
        for (p, r) in sc.params.iter().zip(&sc.ranges) {
            let (Ok(l), Ok(first)) = (r.eval_len(&inner), r.start.eval(&inner)) else {
                points = 1;
                break;
            };
            points = points.saturating_mul(l.max(0));
            inner.insert(p.clone(), first);
        }
        most = most.max(points.saturating_mul(nested_points(st, tree, n, &inner)));
    }
    most
}

/// `StateFusion` — fuses two states connected by an unconditional,
/// assignment-free transition into one, sequencing through shared access
/// nodes. Strict.
pub struct StateFusion;

impl Transformation for StateFusion {
    fn name(&self) -> &'static str {
        "StateFusion"
    }

    fn strict(&self) -> bool {
        true
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for e in sdfg.graph.edge_ids() {
            let t = sdfg.graph.edge(e);
            if !t.condition.is_always() || !t.assignments.is_empty() {
                continue;
            }
            let (s1, s2) = sdfg.graph.edge_endpoints(e);
            if s1 == s2 || sdfg.graph.out_degree(s1) != 1 || sdfg.graph.in_degree(s2) != 1 {
                continue;
            }
            // Hazard checks.
            let written1 = written_containers(sdfg, s1);
            let accessed1 = accessed_containers(sdfg, s1);
            let written2 = written_containers(sdfg, s2);
            // s2 writing something s1 touches is only safe when s1 merely
            // produced it (write→write or read-in-s1/write-in-s2 reorder
            // hazards are conservatively rejected).
            let conflict = written2
                .iter()
                .any(|d| accessed1.contains(d) && !written1.contains(d))
                || written2.iter().any(|d| written1.contains(d));
            if conflict {
                continue;
            }
            let mut tm = TMatch::in_state(s1);
            tm.states.insert("first".into(), s1);
            tm.states.insert("second".into(), s2);
            out.push(tm);
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let s1 = *m
            .states
            .get("first")
            .ok_or_else(|| SdfgError::RoleMissing {
                role: "first".to_string(),
            })?;
        let s2 = *m
            .states
            .get("second")
            .ok_or_else(|| SdfgError::RoleMissing {
                role: "second".to_string(),
            })?;
        // Clone s2's graph content into s1.
        let second = sdfg.graph.node(s2).clone();
        let first = sdfg.graph.node_mut(s1);
        let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
        for n in second.graph.node_ids() {
            let node = second.graph.node(n).clone();
            // Merge read access nodes of containers written in s1 onto the
            // s1 write node for sequencing.
            if let Node::Access { data } = &node {
                if second.graph.in_degree(n) == 0 {
                    let existing = first.graph.node_ids().find(|&w| {
                        first.graph.node(w).access_data() == Some(data.as_str())
                            && first.graph.in_degree(w) > 0
                    });
                    if let Some(w) = existing {
                        remap.insert(n, w);
                        continue;
                    }
                }
            }
            let new = first.graph.add_node(node);
            remap.insert(n, new);
        }
        // Fix scope-exit pairings in the cloned nodes.
        for (&old, &new) in remap.clone().iter() {
            if let Node::MapExit { entry } | Node::ConsumeExit { entry } = first.graph.node_mut(new)
            {
                if let Some(&ne) = remap.get(entry) {
                    *entry = ne;
                }
            }
            let _ = old;
        }
        for e in second.graph.edge_ids() {
            let (src, dst) = second.graph.edge_endpoints(e);
            let df: Dataflow = second.graph.edge(e).clone();
            first.graph.add_edge(remap[&src], remap[&dst], df);
        }
        // Rewire transitions: s2's outgoing move to s1; drop s1→s2.
        let out_edges: Vec<EdgeId> = sdfg.graph.out_edges(s2).collect();
        for e in out_edges {
            let dst = sdfg.graph.edge_dst(e);
            let payload = sdfg.graph.edge(e).clone();
            sdfg.graph.remove_edge(e);
            sdfg.graph.add_edge(s1, dst, payload);
        }
        sdfg.graph.remove_node(s2);
        Ok(())
    }
}

fn written_containers(sdfg: &Sdfg, sid: StateId) -> std::collections::BTreeSet<String> {
    let st = sdfg.state(sid);
    let mut out = std::collections::BTreeSet::new();
    for n in st.graph.node_ids() {
        if let Some(d) = st.graph.node(n).access_data() {
            if st.graph.in_degree(n) > 0 {
                out.insert(d.to_string());
            }
        }
    }
    out
}

fn accessed_containers(sdfg: &Sdfg, sid: StateId) -> std::collections::BTreeSet<String> {
    let st = sdfg.state(sid);
    let mut out = std::collections::BTreeSet::new();
    for n in st.graph.node_ids() {
        if let Some(d) = st.graph.node(n).access_data() {
            out.insert(d.to_string());
        }
    }
    out
}

/// `InlineSDFG` — inlines a single-state nested SDFG into the parent state.
/// Restricted to nested nodes at the top scope level whose connector
/// memlets cover whole containers with zero offsets (the common case
/// produced by frontends; the paper's strict-transformation pass has the
/// same flavor).
pub struct InlineSdfg;

impl Transformation for InlineSdfg {
    fn name(&self) -> &'static str {
        "InlineSDFG"
    }

    fn find(&self, sdfg: &Sdfg) -> Vec<TMatch> {
        let mut out = Vec::new();
        for sid in sdfg.graph.node_ids() {
            let st = sdfg.graph.node(sid);
            let Ok(tree) = sdfg_core::scope::scope_tree(st) else {
                continue;
            };
            for n in st.graph.node_ids() {
                let Node::NestedSdfg { sdfg: inner, .. } = st.graph.node(n) else {
                    continue;
                };
                if inner.graph.node_count() != 1 || tree.scope_of(n).is_some() {
                    continue;
                }
                // All memlets must start at zero and cover whole containers.
                let whole = st.graph.in_edges(n).chain(st.graph.out_edges(n)).all(|e| {
                    let mlet = &st.graph.edge(e).memlet;
                    !mlet.is_empty()
                        && mlet
                            .subset
                            .dims
                            .iter()
                            .all(|r| r.start.is_zero() && r.step.is_one())
                });
                if whole {
                    out.push(TMatch::in_state(sid).with("nested", n));
                }
            }
        }
        out
    }

    fn apply(&self, sdfg: &mut Sdfg, m: &TMatch, _params: &Params) -> Result<(), SdfgError> {
        let nid = m.try_node("nested")?;
        let (inner, _symmap, conn_map) = {
            let st = sdfg.state(m.state);
            let Node::NestedSdfg {
                sdfg: inner,
                symbol_mapping,
                ..
            } = st.graph.node(nid)
            else {
                return Err(SdfgError::transform("role `nested` is not a NestedSdfg"));
            };
            // connector (inner container) → outer container name.
            let mut conn_map: HashMap<String, String> = HashMap::new();
            for e in st.graph.in_edges(nid) {
                let df = st.graph.edge(e);
                if let Some(c) = &df.dst_conn {
                    conn_map.insert(c.clone(), df.memlet.data_name().to_string());
                }
            }
            for e in st.graph.out_edges(nid) {
                let df = st.graph.edge(e);
                if let Some(c) = &df.src_conn {
                    conn_map.insert(c.clone(), df.memlet.data_name().to_string());
                }
            }
            (inner.clone(), symbol_mapping.clone(), conn_map)
        };
        // Bring in transients under fresh names.
        let mut rename: HashMap<String, String> = conn_map.clone();
        for (name, desc) in &inner.data {
            if rename.contains_key(name) {
                continue;
            }
            let fresh = sdfg.fresh_data_name(&format!("{}_{name}", inner.name));
            sdfg.data.insert(fresh.clone(), desc.clone());
            rename.insert(name.clone(), fresh);
        }
        let inner_state_id = inner
            .graph
            .node_ids()
            .next()
            .ok_or_else(|| SdfgError::transform("nested SDFG has no states"))?;
        let inner_state = inner.graph.node(inner_state_id).clone();
        let state = sdfg.state_mut(m.state);
        let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
        for n in inner_state.graph.node_ids() {
            let mut node = inner_state.graph.node(n).clone();
            if let Node::Access { data } = &mut node {
                if let Some(r) = rename.get(data) {
                    *data = r.clone();
                }
            }
            remap.insert(n, state.graph.add_node(node));
        }
        for (&_old, &new) in remap.clone().iter() {
            if let Node::MapExit { entry } | Node::ConsumeExit { entry } = state.graph.node_mut(new)
            {
                if let Some(&ne) = remap.get(entry) {
                    *entry = ne;
                }
            }
        }
        for e in inner_state.graph.edge_ids() {
            let (src, dst) = inner_state.graph.edge_endpoints(e);
            let mut df: Dataflow = inner_state.graph.edge(e).clone();
            if let Some(d) = &df.memlet.data {
                if let Some(r) = rename.get(d) {
                    df.memlet.data = Some(r.clone());
                }
            }
            // Rename scope connectors referencing renamed containers.
            df.src_conn = df.src_conn.map(|c| rename_conn(c, &rename));
            df.dst_conn = df.dst_conn.map(|c| rename_conn(c, &rename));
            state.graph.add_edge(remap[&src], remap[&dst], df);
        }
        // Sequencing: outer producers feeding the nested node now feed the
        // cloned read access nodes; likewise consumers read from cloned
        // write nodes. Since the memlets covered whole arrays with the same
        // names, dropping the nested node and its edges suffices when the
        // outer endpoints are plain access nodes of the same container —
        // redirect ordering edges otherwise.
        let in_edges: Vec<EdgeId> = state.graph.in_edges(nid).collect();
        for e in in_edges {
            state.graph.remove_edge(e);
        }
        let out_edges: Vec<EdgeId> = state.graph.out_edges(nid).collect();
        for e in out_edges {
            state.graph.remove_edge(e);
        }
        state.graph.remove_node(nid);
        Ok(())
    }
}

fn rename_conn(c: String, rename: &HashMap<String, String>) -> String {
    for (from, to) in rename {
        if from == to {
            continue;
        }
        if let Some(rest) = c.strip_prefix("IN_") {
            if rest == from {
                return format!("IN_{to}");
            }
        }
        if let Some(rest) = c.strip_prefix("OUT_") {
            if rest == from {
                return format!("OUT_{to}");
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{apply_first, Params};
    use sdfg_core::{DType, Memlet};
    use sdfg_frontend::SdfgBuilder;

    #[test]
    fn map_to_for_loop_sequentializes() {
        let mut b = SdfgBuilder::new("s");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a + 1",
            &[("o", "A", "i")],
        );
        let mut sdfg = b.build().unwrap();
        assert!(apply_first(&mut sdfg, &MapToForLoop, &Params::new()).unwrap());
        let st = sdfg.state(sdfg.start.unwrap());
        let me = crate::helpers::map_entries(st)[0];
        assert_eq!(
            crate::helpers::scope_of(st, me).schedule,
            Schedule::Sequential
        );
        // Idempotent matching: no more non-sequential maps.
        assert!(MapToForLoop.find(&sdfg).is_empty());
    }

    #[test]
    fn state_fusion_sequences_through_access_nodes() {
        let mut b = SdfgBuilder::new("sf");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("T", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        let s1 = b.state("one");
        b.mapped_tasklet(
            s1,
            "t1",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "T", "i")],
        );
        let s2 = b.state("two");
        b.mapped_tasklet(
            s2,
            "t2",
            &[("i", "0:N")],
            &[("t", "T", "i")],
            "o = t + 1",
            &[("o", "B", "i")],
        );
        b.transition(s1, s2);
        let mut sdfg = b.build().unwrap();
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_symbol("N", 5);
            it.set_array("A", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
            it.set_array("B", vec![0.0; 5]);
            it.run().unwrap();
            it.array("B").to_vec()
        };
        let before = run(&sdfg);
        assert!(apply_first(&mut sdfg, &StateFusion, &Params::new()).unwrap());
        assert_eq!(sdfg.graph.node_count(), 1);
        sdfg.validate().expect("valid after fusion");
        assert_eq!(run(&sdfg), before);
        // Reads of T in the fused state flow from the write node: the graph
        // stays acyclic and ordered.
        let st = sdfg.state(sdfg.start.unwrap());
        assert!(!sdfg_graph::algo::has_cycle(&st.graph));
    }

    #[test]
    fn state_fusion_rejects_write_write_hazard() {
        let mut b = SdfgBuilder::new("ww");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        let s1 = b.state("one");
        b.mapped_tasklet(
            s1,
            "t1",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "A", "i")],
        );
        let s2 = b.state("two");
        b.mapped_tasklet(
            s2,
            "t2",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a + 1",
            &[("o", "A", "i")],
        );
        b.transition(s1, s2);
        let sdfg = b.build().unwrap();
        assert!(StateFusion.find(&sdfg).is_empty());
    }

    #[test]
    fn inline_single_state_nested() {
        // Outer state invokes a nested doubling SDFG on the whole array.
        let mut ib = SdfgBuilder::new("inner");
        ib.array("X", &["4"], DType::F64);
        let ist = ib.state("s");
        ib.mapped_tasklet(
            ist,
            "d",
            &[("i", "0:4")],
            &[("x", "X", "i")],
            "o = x * 2",
            &[("o", "X", "i")],
        );
        let inner = ib.build().unwrap();
        let mut sdfg = Sdfg::new("outer");
        sdfg.add_array("A", &["4"], DType::F64);
        let sid = sdfg.add_state("main");
        let st = sdfg.state_mut(sid);
        let a_r = st.add_access("A");
        let a_w = st.add_access("A");
        let n = st.add_node(Node::NestedSdfg {
            sdfg: Box::new(inner),
            symbol_mapping: Default::default(),
            inputs: vec!["X".into()],
            outputs: vec!["X".into()],
        });
        st.add_edge(a_r, None, n, Some("X"), Memlet::parse("A", "0:4"));
        st.add_edge(n, Some("X"), a_w, None, Memlet::parse("A", "0:4"));
        sdfg.validate().expect("valid before inline");
        let run = |sdfg: &Sdfg| {
            let mut it = sdfg_interp::Interpreter::new(sdfg);
            it.set_array("A", vec![1.0, 2.0, 3.0, 4.0]);
            it.run().unwrap();
            it.array("A").to_vec()
        };
        let before = run(&sdfg);
        assert!(apply_first(&mut sdfg, &InlineSdfg, &Params::new()).unwrap());
        sdfg.validate().expect("valid after inline");
        // No nested nodes remain.
        let st = sdfg.state(sdfg.start.unwrap());
        assert!(!st
            .graph
            .node_ids()
            .any(|n| matches!(st.graph.node(n), Node::NestedSdfg { .. })));
        assert_eq!(run(&sdfg), before);
    }
}
