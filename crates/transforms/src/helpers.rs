//! Graph-surgery helpers shared by the transformations, including the
//! VF2-backed pattern finder.

use sdfg_core::sdfg::Dataflow;
use sdfg_core::{Node, Sdfg, State, StateId};
use sdfg_graph::vf2::{find_subgraph_matches, MatchOptions};
use sdfg_graph::{EdgeId, MultiGraph, NodeId};
use std::collections::BTreeMap;

/// A node-kind predicate for pattern roles.
pub type NodePred = fn(&Sdfg, &State, NodeId) -> bool;

/// A declarative pattern: named roles with predicates, plus edges between
/// role indices. Matching runs VF2 subgraph monomorphism over the state
/// multigraph (paper §4.1).
pub struct Pattern {
    /// Role names and predicates, in index order.
    pub roles: Vec<(&'static str, NodePred)>,
    /// Directed edges between role indices.
    pub edges: Vec<(usize, usize)>,
}

/// Finds all occurrences of `pattern` in one state.
pub fn find_pattern(sdfg: &Sdfg, sid: StateId, pattern: &Pattern) -> Vec<BTreeMap<String, NodeId>> {
    let state = sdfg.state(sid);
    // Build the pattern multigraph.
    let mut pg: MultiGraph<usize, ()> = MultiGraph::new();
    let pids: Vec<NodeId> = (0..pattern.roles.len()).map(|i| pg.add_node(i)).collect();
    for &(a, b) in &pattern.edges {
        pg.add_edge(pids[a], pids[b], ());
    }
    let matches = find_subgraph_matches(
        &pg,
        &state.graph,
        &|_pid, role_idx, hid, _n| (pattern.roles[*role_idx].1)(sdfg, state, hid),
        &|_, _| true,
        MatchOptions::default(),
    );
    matches
        .into_iter()
        .map(|m| {
            let mut out = BTreeMap::new();
            for (i, pid) in pids.iter().enumerate() {
                out.insert(pattern.roles[i].0.to_string(), m[pid]);
            }
            out
        })
        .collect()
}

// --- node predicates -----------------------------------------------------------

/// Any map entry.
pub fn is_map_entry(_: &Sdfg, st: &State, n: NodeId) -> bool {
    matches!(st.graph.node(n), Node::MapEntry(_))
}

/// Any map exit.
pub fn is_map_exit(_: &Sdfg, st: &State, n: NodeId) -> bool {
    matches!(st.graph.node(n), Node::MapExit { .. })
}

/// Any access node.
pub fn is_access(_: &Sdfg, st: &State, n: NodeId) -> bool {
    matches!(st.graph.node(n), Node::Access { .. })
}

/// Access node whose container is transient.
pub fn is_transient_access(sdfg: &Sdfg, st: &State, n: NodeId) -> bool {
    st.graph
        .node(n)
        .access_data()
        .and_then(|d| sdfg.desc(d))
        .is_some_and(|d| d.transient())
}

/// Any reduce node.
pub fn is_reduce(_: &Sdfg, st: &State, n: NodeId) -> bool {
    matches!(st.graph.node(n), Node::Reduce { .. })
}

/// Any tasklet.
pub fn is_tasklet(_: &Sdfg, st: &State, n: NodeId) -> bool {
    matches!(st.graph.node(n), Node::Tasklet { .. })
}

// --- surgery ---------------------------------------------------------------------

/// Redirects an edge to a new destination (keeping payload).
pub fn redirect_edge_dst(state: &mut State, e: EdgeId, new_dst: NodeId, new_conn: Option<String>) {
    let (src, _) = state.graph.edge_endpoints(e);
    let mut df: Dataflow = state.graph.edge(e).clone();
    df.dst_conn = new_conn;
    state.graph.remove_edge(e);
    state.graph.add_edge(src, new_dst, df);
}

/// Redirects an edge to a new source (keeping payload).
pub fn redirect_edge_src(state: &mut State, e: EdgeId, new_src: NodeId, new_conn: Option<String>) {
    let (_, dst) = state.graph.edge_endpoints(e);
    let mut df: Dataflow = state.graph.edge(e).clone();
    df.src_conn = new_conn;
    state.graph.remove_edge(e);
    state.graph.add_edge(new_src, dst, df);
}

/// All map entries of a state, with their scopes.
pub fn map_entries(state: &State) -> Vec<NodeId> {
    state
        .graph
        .node_ids()
        .filter(|&n| matches!(state.graph.node(n), Node::MapEntry(_)))
        .collect()
}

/// Returns the `MapScope` of an entry (panics otherwise).
pub fn scope_of(state: &State, entry: NodeId) -> &sdfg_core::node::MapScope {
    match state.graph.node(entry) {
        Node::MapEntry(m) => m,
        _ => panic!("not a map entry"),
    }
}

/// Mutable `MapScope`.
pub fn scope_of_mut(state: &mut State, entry: NodeId) -> &mut sdfg_core::node::MapScope {
    match state.graph.node_mut(entry) {
        Node::MapEntry(m) => m,
        _ => panic!("not a map entry"),
    }
}

/// Number of access nodes (across all states) referring to `data`.
pub fn access_count(sdfg: &Sdfg, data: &str) -> usize {
    sdfg.graph
        .node_ids()
        .map(|sid| {
            sdfg.graph
                .node(sid)
                .graph
                .node_ids()
                .filter(|&n| sdfg.graph.node(sid).graph.node(n).access_data() == Some(data))
                .count()
        })
        .sum()
}

/// Finds a read access node (in-degree 0) for `data`, creating one if
/// absent.
pub fn find_read_access(state: &mut State, data: &str) -> NodeId {
    let found = state.graph.node_ids().find(|&n| {
        state.graph.node(n).access_data() == Some(data) && state.graph.in_degree(n) == 0
    });
    match found {
        Some(n) => n,
        None => state.add_access(data),
    }
}

/// Fresh symbol name not colliding with SDFG symbols or any map parameter.
pub fn fresh_param(sdfg: &Sdfg, base: &str) -> String {
    let mut used: std::collections::BTreeSet<String> = sdfg.symbols.clone();
    for sid in sdfg.graph.node_ids() {
        let st = sdfg.graph.node(sid);
        for n in st.graph.node_ids() {
            if let Node::MapEntry(m) = st.graph.node(n) {
                used.extend(m.params.iter().cloned());
            }
        }
    }
    if !used.contains(base) {
        return base.to_string();
    }
    for i in 0.. {
        let cand = format!("{base}_{i}");
        if !used.contains(&cand) {
            return cand;
        }
    }
    unreachable!()
}

/// Stable dependency sort of map parameters: a parameter whose range
/// references another parameter of the same map must be bound (listed)
/// after it. Order among independent parameters is preserved. Cyclic
/// references (invalid anyway) are left as-is and caught by validation.
pub fn dependency_sort_params(params: &mut Vec<String>, ranges: &mut Vec<sdfg_symbolic::SymRange>) {
    let n = params.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let mut picked = None;
        for (slot, &i) in remaining.iter().enumerate() {
            let mut syms = std::collections::BTreeSet::new();
            ranges[i].collect_symbols(&mut syms);
            let depends = remaining
                .iter()
                .any(|&j| j != i && syms.contains(&params[j]));
            if !depends {
                picked = Some(slot);
                break;
            }
        }
        // A cycle: bail out, keeping the residual order.
        let Some(slot) = picked else {
            order.extend(remaining.iter().copied());
            break;
        };
        order.push(remaining.remove(slot));
    }
    let new_params: Vec<String> = order.iter().map(|&i| params[i].clone()).collect();
    let new_ranges: Vec<sdfg_symbolic::SymRange> =
        order.iter().map(|&i| ranges[i].clone()).collect();
    *params = new_params;
    *ranges = new_ranges;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::node::MapScope;
    use sdfg_core::{DType, Memlet};
    use sdfg_symbolic::SymRange;

    fn simple_sdfg() -> Sdfg {
        let mut s = Sdfg::new("t");
        s.add_symbol("N");
        s.add_array("A", &["N"], DType::F64);
        s.add_transient("tmp", &["N"], DType::F64);
        let sid = s.add_state("main");
        let st = s.state_mut(sid);
        let a = st.add_access("A");
        let (me, mx) = st.add_map(MapScope::new(
            "m",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet("t", &["x"], &["y"], "y = x");
        let tmp = st.add_access("tmp");
        st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
        st.add_edge(me, Some("OUT_A"), t, Some("x"), Memlet::parse("A", "i"));
        st.add_edge(t, Some("y"), mx, Some("IN_tmp"), Memlet::parse("tmp", "i"));
        st.add_edge(mx, Some("OUT_tmp"), tmp, None, Memlet::parse("tmp", "0:N"));
        s
    }

    #[test]
    fn pattern_finds_map_tasklet() {
        let s = simple_sdfg();
        let pattern = Pattern {
            roles: vec![("entry", is_map_entry), ("tasklet", is_tasklet)],
            edges: vec![(0, 1)],
        };
        let sid = s.start.unwrap();
        let found = find_pattern(&s, sid, &pattern);
        assert_eq!(found.len(), 1);
        assert!(matches!(
            s.state(sid).graph.node(found[0]["entry"]),
            Node::MapEntry(_)
        ));
    }

    #[test]
    fn pattern_respects_predicates() {
        let s = simple_sdfg();
        let pattern = Pattern {
            roles: vec![("exit", is_map_exit), ("out", is_transient_access)],
            edges: vec![(0, 1)],
        };
        let found = find_pattern(&s, s.start.unwrap(), &pattern);
        assert_eq!(found.len(), 1);
        // Non-transient access does not match the transient role.
        let pattern2 = Pattern {
            roles: vec![("acc", is_transient_access), ("entry", is_map_entry)],
            edges: vec![(0, 1)],
        };
        assert!(find_pattern(&s, s.start.unwrap(), &pattern2).is_empty());
    }

    #[test]
    fn access_counting() {
        let s = simple_sdfg();
        assert_eq!(access_count(&s, "A"), 1);
        assert_eq!(access_count(&s, "tmp"), 1);
        assert_eq!(access_count(&s, "nope"), 0);
    }

    #[test]
    fn fresh_param_avoids_collisions() {
        let s = simple_sdfg();
        assert_eq!(fresh_param(&s, "i"), "i_0"); // `i` is a map param
        assert_eq!(fresh_param(&s, "q"), "q");
    }
}
