//! The SDFG container: states, interstate edges, and the top-level graph.

use crate::cond::BoolExpr;
use crate::desc::{ArrayDesc, DataDesc, ScalarDesc, StreamDesc};
use crate::dtype::{DType, Storage};
use crate::memlet::Memlet;
use crate::node::Node;
use sdfg_graph::{EdgeId, MultiGraph, NodeId};
use sdfg_symbolic::Expr;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a state in the top-level state machine.
pub type StateId = NodeId;

/// A dataflow edge payload: source/destination connectors plus the memlet.
///
/// Connectors are attachment points on nodes (Appendix A.1): tasklets name
/// their local variables, scope nodes use the `IN_*`/`OUT_*` convention to
/// relate outer and inner memlets, and access nodes use `None`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Dataflow {
    /// Connector on the source node (`None` for access nodes).
    pub src_conn: Option<String>,
    /// Connector on the destination node (`None` for access nodes).
    pub dst_conn: Option<String>,
    /// The data movement descriptor.
    pub memlet: Memlet,
}

/// An SDFG state: a named acyclic dataflow multigraph (paper §3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct State {
    /// State label (unique within the SDFG by construction).
    pub label: String,
    /// The dataflow multigraph.
    pub graph: MultiGraph<Node, Dataflow>,
    /// Instrumentation requested for this state (semantics-neutral; see
    /// [`crate::node::Instrument`]).
    pub instrument: crate::node::Instrument,
}

impl State {
    /// Creates an empty state.
    pub fn new(label: impl Into<String>) -> State {
        State {
            label: label.into(),
            graph: MultiGraph::new(),
            instrument: crate::node::Instrument::default(),
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.graph.add_node(node)
    }

    /// Adds an access node for a container.
    pub fn add_access(&mut self, data: impl Into<String>) -> NodeId {
        self.add_node(Node::access(data))
    }

    /// Adds a tasklet node.
    pub fn add_tasklet(
        &mut self,
        name: impl Into<String>,
        inputs: &[&str],
        outputs: &[&str],
        code: impl Into<String>,
    ) -> NodeId {
        self.add_node(Node::tasklet(name, inputs, outputs, code))
    }

    /// Adds a map scope; returns `(entry, exit)`.
    pub fn add_map(&mut self, scope: crate::node::MapScope) -> (NodeId, NodeId) {
        let entry = self.add_node(Node::MapEntry(scope));
        let exit = self.add_node(Node::MapExit { entry });
        (entry, exit)
    }

    /// Adds a consume scope; returns `(entry, exit)`.
    pub fn add_consume(&mut self, scope: crate::node::ConsumeScope) -> (NodeId, NodeId) {
        let entry = self.add_node(Node::ConsumeEntry(scope));
        let exit = self.add_node(Node::ConsumeExit { entry });
        (entry, exit)
    }

    /// Adds a dataflow edge with connectors.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        src_conn: Option<&str>,
        dst: NodeId,
        dst_conn: Option<&str>,
        memlet: Memlet,
    ) -> EdgeId {
        self.graph.add_edge(
            src,
            dst,
            Dataflow {
                src_conn: src_conn.map(str::to_string),
                dst_conn: dst_conn.map(str::to_string),
                memlet,
            },
        )
    }

    /// Adds a connector-less edge (access node to access node, or ordering).
    pub fn add_plain_edge(&mut self, src: NodeId, dst: NodeId, memlet: Memlet) -> EdgeId {
        self.add_edge(src, None, dst, None, memlet)
    }

    /// The node payload.
    pub fn node(&self, id: NodeId) -> &Node {
        self.graph.node(id)
    }

    /// The edge payload.
    pub fn edge(&self, id: EdgeId) -> &Dataflow {
        self.graph.edge(id)
    }

    /// Finds the scope exit paired with `entry`.
    pub fn exit_of(&self, entry: NodeId) -> Option<NodeId> {
        self.graph
            .node_ids()
            .find(|&n| self.graph.node(n).exit_entry() == Some(entry))
    }

    /// Nodes in deterministic topological order. Panics on cyclic states
    /// (validation rejects them first).
    pub fn topological_order(&self) -> Vec<NodeId> {
        sdfg_graph::algo::topological_sort(&self.graph).expect("state dataflow graph is acyclic")
    }
}

/// A transition in the top-level state machine (paper §3.4).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct InterstateEdge {
    /// Transition guard.
    pub condition: BoolExpr,
    /// Symbol assignments performed on transition, in order.
    pub assignments: Vec<(String, Expr)>,
}

impl InterstateEdge {
    /// Unconditional transition with no assignments.
    pub fn always() -> InterstateEdge {
        InterstateEdge::default()
    }

    /// Transition guarded by a parsed condition string.
    pub fn when(cond: &str) -> InterstateEdge {
        InterstateEdge {
            condition: crate::cond::parse_cond(cond)
                .unwrap_or_else(|e| panic!("invalid condition `{cond}`: {e}")),
            assignments: Vec::new(),
        }
    }

    /// Adds an assignment `sym = expr`.
    pub fn assign(mut self, sym: &str, expr: impl Into<Expr>) -> InterstateEdge {
        self.assignments.push((sym.to_string(), expr.into()));
        self
    }
}

/// A Stateful Dataflow Multigraph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Sdfg {
    /// Program name.
    pub name: String,
    /// Declared free symbols (sizes, parameters); all assumed integer.
    pub symbols: BTreeSet<String>,
    /// Container declarations, keyed by name.
    pub data: BTreeMap<String, DataDesc>,
    /// The state machine.
    pub graph: MultiGraph<State, InterstateEdge>,
    /// Start state (the first added state unless overridden).
    pub start: Option<StateId>,
}

impl PartialEq for Sdfg {
    fn eq(&self, other: &Self) -> bool {
        // Structural identity by name is sufficient for IR equality checks
        // in tests; deep graph comparison is intentionally not implied.
        self.name == other.name
            && self.symbols == other.symbols
            && self.data == other.data
            && self.start == other.start
            && self.graph.node_count() == other.graph.node_count()
            && self.graph.edge_count() == other.graph.edge_count()
    }
}

impl Sdfg {
    /// Creates an empty SDFG.
    pub fn new(name: impl Into<String>) -> Sdfg {
        Sdfg {
            name: name.into(),
            symbols: BTreeSet::new(),
            data: BTreeMap::new(),
            graph: MultiGraph::new(),
            start: None,
        }
    }

    /// Declares a free symbol.
    pub fn add_symbol(&mut self, name: impl Into<String>) {
        self.symbols.insert(name.into());
    }

    /// Declares an N-D array container. Shapes parse as symbolic
    /// expressions (`&["N", "N+1"]`).
    pub fn add_array(&mut self, name: impl Into<String>, shape: &[&str], dtype: DType) {
        let shape: Vec<Expr> = shape.iter().map(|s| Expr::from(*s)).collect();
        self.data
            .insert(name.into(), DataDesc::Array(ArrayDesc::new(dtype, shape)));
    }

    /// Declares a transient N-D array container.
    pub fn add_transient(&mut self, name: impl Into<String>, shape: &[&str], dtype: DType) {
        let shape: Vec<Expr> = shape.iter().map(|s| Expr::from(*s)).collect();
        let mut a = ArrayDesc::new(dtype, shape);
        a.transient = true;
        self.data.insert(name.into(), DataDesc::Array(a));
    }

    /// Declares a (transient) stream container.
    pub fn add_stream(&mut self, name: impl Into<String>, dtype: DType) {
        self.data
            .insert(name.into(), DataDesc::Stream(StreamDesc::new(dtype)));
    }

    /// Declares a scalar container.
    pub fn add_scalar(&mut self, name: impl Into<String>, dtype: DType, transient: bool) {
        self.data.insert(
            name.into(),
            DataDesc::Scalar(ScalarDesc {
                dtype,
                storage: Storage::Default,
                transient,
            }),
        );
    }

    /// Adds a state; the first added state becomes the start state.
    pub fn add_state(&mut self, label: impl Into<String>) -> StateId {
        let id = self.graph.add_node(State::new(label));
        if self.start.is_none() {
            self.start = Some(id);
        }
        id
    }

    /// Adds an interstate transition.
    pub fn add_transition(&mut self, src: StateId, dst: StateId, edge: InterstateEdge) -> EdgeId {
        self.graph.add_edge(src, dst, edge)
    }

    /// State payload.
    pub fn state(&self, id: StateId) -> &State {
        self.graph.node(id)
    }

    /// Mutable state payload.
    pub fn state_mut(&mut self, id: StateId) -> &mut State {
        self.graph.node_mut(id)
    }

    /// All state ids.
    pub fn state_ids(&self) -> Vec<StateId> {
        self.graph.node_ids().collect()
    }

    /// Container descriptor by name.
    pub fn desc(&self, name: &str) -> Option<&DataDesc> {
        self.data.get(name)
    }

    /// Mutable container descriptor by name.
    pub fn desc_mut(&mut self, name: &str) -> Option<&mut DataDesc> {
        self.data.get_mut(name)
    }

    /// The program's runtime arguments: non-transient containers (sorted)
    /// and declared symbols, matching DaCe's calling convention.
    pub fn arglist(&self) -> (Vec<String>, Vec<String>) {
        let arrays = self
            .data
            .iter()
            .filter(|(_, d)| !d.transient())
            .map(|(n, _)| n.clone())
            .collect();
        let symbols = self.symbols.iter().cloned().collect();
        (arrays, symbols)
    }

    /// Generates a fresh container name with the given prefix.
    pub fn fresh_data_name(&self, prefix: &str) -> String {
        if !self.data.contains_key(prefix) {
            return prefix.to_string();
        }
        for i in 0.. {
            let cand = format!("{prefix}_{i}");
            if !self.data.contains_key(&cand) {
                return cand;
            }
        }
        unreachable!()
    }

    /// Validates the SDFG (see [`mod@crate::validate`]).
    pub fn validate(&self) -> Result<(), Vec<crate::validate::ValidationError>> {
        crate::validate::validate(self)
    }

    /// Free symbols used anywhere that are not bound by map/consume scopes.
    pub fn used_symbols(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for sid in self.graph.node_ids() {
            let st = self.graph.node(sid);
            for nid in st.graph.node_ids() {
                match st.graph.node(nid) {
                    Node::MapEntry(m) => {
                        for r in &m.ranges {
                            r.collect_symbols(&mut out);
                        }
                    }
                    Node::ConsumeEntry(c) => {
                        c.num_pes.collect_symbols(&mut out);
                    }
                    Node::NestedSdfg { symbol_mapping, .. } => {
                        for e in symbol_mapping.values() {
                            e.collect_symbols(&mut out);
                        }
                    }
                    _ => {}
                }
            }
            for eid in st.graph.edge_ids() {
                let df = st.graph.edge(eid);
                for r in &df.memlet.subset.dims {
                    r.collect_symbols(&mut out);
                }
                df.memlet.volume.collect_symbols(&mut out);
            }
        }
        for eid in self.graph.edge_ids() {
            let t = self.graph.edge(eid);
            t.condition.collect_into(&mut out);
            for (_, e) in &t.assignments {
                e.collect_symbols(&mut out);
            }
        }
        for d in self.data.values() {
            for s in d.shape() {
                s.collect_symbols(&mut out);
            }
        }
        // Remove scope-bound parameters.
        for sid in self.graph.node_ids() {
            let st = self.graph.node(sid);
            for nid in st.graph.node_ids() {
                match st.graph.node(nid) {
                    Node::MapEntry(m) => {
                        for p in &m.params {
                            out.remove(p);
                        }
                    }
                    Node::ConsumeEntry(c) => {
                        out.remove(&c.pe_param);
                        out.remove(&c.element);
                    }
                    _ => {}
                }
            }
        }
        // Remove symbols assigned by transitions (loop counters).
        for eid in self.graph.edge_ids() {
            for (s, _) in &self.graph.edge(eid).assignments {
                out.remove(s);
            }
        }
        out
    }
}

impl BoolExpr {
    /// Helper mirroring `Expr::collect_symbols` naming for `used_symbols`.
    pub fn collect_into(&self, out: &mut BTreeSet<String>) {
        for s in self.free_symbols() {
            out.insert(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MapScope;
    use sdfg_symbolic::SymRange;

    /// Builds the paper's Fig. 6a: C[i] = A[i] + B[i] in a map.
    pub fn vector_add() -> Sdfg {
        let mut s = Sdfg::new("vadd");
        s.add_symbol("N");
        s.add_array("A", &["N"], DType::F64);
        s.add_array("B", &["N"], DType::F64);
        s.add_array("C", &["N"], DType::F64);
        let st_id = s.add_state("main");
        let st = s.state_mut(st_id);
        let a = st.add_access("A");
        let b = st.add_access("B");
        let c = st.add_access("C");
        let (me, mx) = st.add_map(MapScope::new(
            "m",
            vec!["i".into()],
            vec![SymRange::new(0, "N")],
        ));
        let t = st.add_tasklet("add", &["a", "b"], &["c"], "c = a + b");
        st.add_edge(a, None, me, Some("IN_A"), Memlet::parse("A", "0:N"));
        st.add_edge(b, None, me, Some("IN_B"), Memlet::parse("B", "0:N"));
        st.add_edge(me, Some("OUT_A"), t, Some("a"), Memlet::parse("A", "i"));
        st.add_edge(me, Some("OUT_B"), t, Some("b"), Memlet::parse("B", "i"));
        st.add_edge(t, Some("c"), mx, Some("IN_C"), Memlet::parse("C", "i"));
        st.add_edge(mx, Some("OUT_C"), c, None, Memlet::parse("C", "0:N"));
        s
    }

    #[test]
    fn build_vector_add() {
        let s = vector_add();
        assert_eq!(s.state_ids().len(), 1);
        let st = s.state(s.start.unwrap());
        assert_eq!(st.graph.node_count(), 6);
        assert_eq!(st.graph.edge_count(), 6);
        let order = st.topological_order();
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn exit_pairing() {
        let s = vector_add();
        let st = s.state(s.start.unwrap());
        let entry = st
            .graph
            .node_ids()
            .find(|&n| st.node(n).is_scope_entry())
            .unwrap();
        let exit = st.exit_of(entry).unwrap();
        assert_eq!(st.node(exit).exit_entry(), Some(entry));
    }

    #[test]
    fn arglist_excludes_transients() {
        let mut s = vector_add();
        s.add_transient("tmp", &["N"], DType::F64);
        let (arrays, symbols) = s.arglist();
        assert_eq!(arrays, vec!["A", "B", "C"]);
        assert_eq!(symbols, vec!["N"]);
    }

    #[test]
    fn used_symbols_excludes_map_params() {
        let s = vector_add();
        let used = s.used_symbols();
        assert!(used.contains("N"));
        assert!(!used.contains("i"));
    }

    #[test]
    fn fresh_names() {
        let mut s = Sdfg::new("x");
        s.add_array("tmp", &["4"], DType::F64);
        assert_eq!(s.fresh_data_name("tmp"), "tmp_0");
        assert_eq!(s.fresh_data_name("other"), "other");
    }

    #[test]
    fn transitions_and_start_state() {
        let mut s = Sdfg::new("fsm");
        let a = s.add_state("a");
        let b = s.add_state("b");
        assert_eq!(s.start, Some(a));
        s.add_transition(a, b, InterstateEdge::when("t < T").assign("t", "t + 1"));
        assert_eq!(s.graph.edge_count(), 1);
        let e = s.graph.edge_ids().next().unwrap();
        assert_eq!(s.graph.edge(e).assignments[0].0, "t");
    }
}
