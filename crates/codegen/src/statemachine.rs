//! Control-flow structuring of the interstate graph (§4.3 step ❷: "Between
//! states, transitions are generated by emitting for-loops and branches
//! when detected, or using conditional goto statements as a fallback").
//!
//! This is the one place that walks interstate edges to find loops and
//! branches. [`structure`] turns a whole state machine into a tree of
//! [`Region`]s, or reports the state where it is unstructured;
//! [`loop_at`] recognizes the one loop a guard state heads. The CPU
//! dispatcher renders the tree as `for`/`if` C, and the executor's loop
//! collapse admits loops from the [`Loop`] it gets.
//!
//! The tree keeps every edge assignment, and every edge of a reachable
//! state is accounted for: each is a region's outgoing edge, a loop's
//! guard, body, exit or back edge, or a branch edge, and no two edges
//! enter one state unless they are a loop's entry and back edge or the
//! arms of one branch. Rendering the tree therefore runs exactly the
//! transitions the interpreter takes.

use sdfg_core::{BoolExpr, InterstateEdge, Sdfg, StateId};
use sdfg_graph::algo::{dominates, dominators};
use sdfg_graph::EdgeId;
use sdfg_symbolic::Expr;
use std::collections::{HashMap, HashSet};

/// Symbol assignments of one interstate edge, in order.
pub type Assigns = Vec<(String, Expr)>;

/// One structured piece of a state machine.
#[derive(Clone, Debug)]
pub enum Region {
    /// A plain state, then the assignments on its one unconditional out
    /// edge (none for a terminal state).
    State(StateId, Assigns),
    /// A guarded loop.
    Loop(Loop),
    /// A two-way branch.
    Branch(Branch),
}

/// A guarded loop:
///
/// ```text
///   pred --(var = init)--> guard --(cond)--> body... --(var = update)--> guard
///                          guard --(not cond; exit_assigns)--> exit
/// ```
///
/// The guard is an empty state and the exit edge's condition is exactly
/// `Not(cond)`.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The guard state.
    pub guard: StateId,
    /// Loop variable (assigned last on the back edge).
    pub var: String,
    /// The entry edge's final assignment of `var`, when [`structure`]
    /// entered the loop through a plain state's edge ending in one (moved
    /// here from that state's assignments); `None` from [`loop_at`].
    pub init: Option<Expr>,
    /// Guard condition (the loop continues while it holds).
    pub cond: BoolExpr,
    /// Value the back edge assigns to `var`.
    pub update: Expr,
    /// The body, from the body edge back to the guard. Its last region is
    /// a state whose out edge is the back edge, with that edge's other
    /// assignments (those before the update).
    pub body: Vec<Region>,
    /// State following the loop.
    pub exit: StateId,
    /// Assignments on the exit edge.
    pub exit_assigns: Assigns,
}

/// A two-way branch: `state` runs, then `then` if `cond` holds and `els`
/// otherwise, both arms ending at `merge`.
#[derive(Clone, Debug)]
pub struct Branch {
    /// The branching state.
    pub state: StateId,
    /// Condition of the then-arm.
    pub cond: BoolExpr,
    /// The arm taken when `cond` holds.
    pub then: Arm,
    /// The arm taken otherwise (its body is empty when the edge goes
    /// straight to the merge).
    pub els: Arm,
    /// The state both arms end at.
    pub merge: StateId,
}

/// One arm of a [`Branch`]: its edge's assignments, then its regions.
#[derive(Clone, Debug)]
pub struct Arm(pub Assigns, pub Vec<Region>);

/// Structures the state machine from `sdfg.start`. `Err` names the state
/// at which the graph is unstructured (a loop with two exits, a jump into
/// a loop body, a branch whose arms do not meet, ...).
pub fn structure(sdfg: &Sdfg) -> Result<Vec<Region>, StateId> {
    let Some(start) = sdfg.start else {
        return Ok(Vec::new());
    };
    Walk::new(sdfg)
        .seq(start, Stop::End)
        .map(|(regions, _)| regions)
}

/// The loop `guard` heads (see [`Loop`]), or why it heads none. The body
/// may hold nested loops and branches.
pub fn loop_at(sdfg: &Sdfg, guard: StateId) -> Result<Loop, &'static str> {
    Walk::new(sdfg).try_loop(guard)
}

/// Why [`loop_at`] refuses an empty state with a guard's edge pair but
/// no back edge: the state heads a two-way branch, not a loop.
pub const NO_BACK_EDGE: &str = "guard has no back edge";

/// Where a region sequence ends.
#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// At a terminal state (the whole program).
    End,
    /// On arriving at this state (a loop body, at its guard).
    At(StateId),
    /// On arriving at a state other edges enter too (a branch arm, at its
    /// merge).
    Join,
}

struct Walk<'a> {
    sdfg: &'a Sdfg,
    /// Immediate dominators from `sdfg.start`.
    idom: HashMap<StateId, StateId>,
    /// States already placed in the tree.
    seen: HashSet<StateId>,
}

impl<'a> Walk<'a> {
    fn new(sdfg: &'a Sdfg) -> Self {
        let idom = sdfg
            .start
            .map(|s| dominators(&sdfg.graph, s))
            .unwrap_or_default();
        let seen = HashSet::new();
        Walk { sdfg, idom, seen }
    }

    fn edge(&self, e: EdgeId) -> &InterstateEdge {
        self.sdfg.graph.edge(e)
    }

    fn dst(&self, e: EdgeId) -> StateId {
        self.sdfg.graph.edge_dst(e)
    }

    /// Structures the states from `cur` until `stop`, returning the
    /// regions and the state the sequence stopped at.
    fn seq(&mut self, mut cur: StateId, stop: Stop) -> Result<(Vec<Region>, StateId), StateId> {
        let mut regions: Vec<Region> = Vec::new();
        // Whether `cur` is the merge of a branch this sequence holds: the
        // sequence goes on through it instead of ending there.
        let mut merged = false;
        loop {
            if stop == Stop::At(cur) {
                return Ok((regions, cur));
            }
            let joined = !std::mem::take(&mut merged) && self.sdfg.graph.in_degree(cur) > 1;
            if stop == Stop::Join && joined && self.seen.contains(&cur) {
                return Ok((regions, cur));
            }
            if self.seen.contains(&cur) {
                return Err(cur);
            }
            if let Ok(mut l) = self.try_loop(cur) {
                // A plain state's edge ending in `var = init` enters the
                // loop: the assignment becomes the loop's init.
                if let Some(Region::State(_, assigns)) = regions.last_mut() {
                    if assigns.last().is_some_and(|(v, _)| *v == l.var) {
                        l.init = assigns.pop().map(|(_, x)| x);
                    }
                }
                cur = l.exit;
                regions.push(Region::Loop(l));
                continue;
            }
            if stop == Stop::Join && joined {
                return Ok((regions, cur));
            }
            self.seen.insert(cur);
            let outs: Vec<EdgeId> = self.sdfg.graph.out_edges(cur).collect();
            match outs[..] {
                [] if stop == Stop::End => {
                    regions.push(Region::State(cur, Vec::new()));
                    return Ok((regions, cur));
                }
                [e] if self.edge(e).condition.is_always() => {
                    regions.push(Region::State(cur, self.edge(e).assignments.clone()));
                    cur = self.dst(e);
                }
                [e0, e1] if complementary(&self.edge(e0).condition, &self.edge(e1).condition) => {
                    let (then, m0) = self.seq(self.dst(e0), Stop::Join)?;
                    let (els, m1) = self.seq(self.dst(e1), Stop::Join)?;
                    if m0 != m1 || self.sdfg.graph.in_degree(m0) != 2 {
                        return Err(cur);
                    }
                    regions.push(Region::Branch(Branch {
                        state: cur,
                        cond: self.edge(e0).condition.clone(),
                        then: Arm(self.edge(e0).assignments.clone(), then),
                        els: Arm(self.edge(e1).assignments.clone(), els),
                        merge: m0,
                    }));
                    cur = m0;
                    merged = true;
                }
                _ => return Err(cur),
            }
        }
    }

    /// The loop `guard` heads; on failure, the walk is left as it was.
    fn try_loop(&mut self, guard: StateId) -> Result<Loop, &'static str> {
        if self.sdfg.state(guard).graph.node_count() != 0 {
            return Err("guard state is not empty");
        }
        let outs: Vec<EdgeId> = self.sdfg.graph.out_edges(guard).collect();
        let [e0, e1] = outs[..] else {
            return Err("guard state needs exactly two out edges");
        };
        let negates = |exit: EdgeId, body: EdgeId| {
            self.edge(exit).condition == BoolExpr::Not(Box::new(self.edge(body).condition.clone()))
        };
        let (body_e, exit_e) = if negates(e1, e0) {
            (e0, e1)
        } else if negates(e0, e1) {
            (e1, e0)
        } else {
            return Err("exit edge is not the guard's negation");
        };
        if !self.edge(body_e).assignments.is_empty() {
            return Err("guard's body edge assigns symbols");
        }
        // A loop is entered again from a state the guard dominates. A
        // branch guard has the same edge pair but no such edge, and is
        // refused here, before its arms are walked as a body.
        let g = &self.sdfg.graph;
        if !g
            .in_edges(guard)
            .any(|e| dominates(&self.idom, guard, g.edge_src(e)))
        {
            return Err(NO_BACK_EDGE);
        }
        let saved = self.seen.clone();
        self.seen.insert(guard);
        let Ok((mut body, _)) = self.seq(self.dst(body_e), Stop::At(guard)) else {
            self.seen = saved;
            return Err("loop body is unstructured");
        };
        // The back edge is the last body state's edge; it assigns the
        // loop variable last.
        let step = match body.last_mut() {
            Some(Region::State(_, assigns)) => assigns.pop(),
            _ => None,
        };
        let Some((var, update)) = step else {
            self.seen = saved;
            return Err("back edge must step exactly the loop variable");
        };
        Ok(Loop {
            guard,
            var,
            init: None,
            cond: self.edge(body_e).condition.clone(),
            update,
            body,
            exit: self.dst(exit_e),
            exit_assigns: self.edge(exit_e).assignments.clone(),
        })
    }
}

/// Whether exactly one of two edges taken in order `c0`, `c1` is always
/// taken, `c1` when `c0` fails.
fn complementary(c0: &BoolExpr, c1: &BoolExpr) -> bool {
    let not = |c: &BoolExpr| BoolExpr::Not(Box::new(c.clone()));
    c1.is_always() || *c1 == not(c0) || *c0 == not(c1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::{parse_program, SdfgBuilder};

    fn sym(s: &str) -> Expr {
        sdfg_symbolic::parse_expr(s).unwrap()
    }

    #[test]
    fn detects_builder_loop() {
        let mut b = SdfgBuilder::new("l");
        b.symbol("T");
        b.array("A", &["4"], DType::F64);
        let body = b.state("body");
        b.mapped_tasklet(
            body,
            "t",
            &[("i", "0:4")],
            &[("a", "A", "i")],
            "o = a + 1",
            &[("o", "A", "i")],
        );
        let (init, guard, exit) = b.add_loop(body, "t", "0", "t < T", "1");
        let sdfg = b.build().unwrap();
        let l = loop_at(&sdfg, guard).expect("loop detected");
        assert_eq!(l.var, "t");
        assert_eq!(l.init, None);
        assert_eq!(l.cond.to_string(), "t < T");
        assert_eq!(l.update, sym("t + 1"));
        assert!(matches!(l.body[..], [Region::State(id, ref assigns)]
            if id == body && assigns.is_empty()));
        assert_eq!(l.exit, exit);
        // The whole program: init state, loop (owning the init), exit.
        let tree = structure(&sdfg).unwrap();
        let [Region::State(id, assigns), Region::Loop(l), Region::State(last, _)] = &tree[..]
        else {
            panic!("unexpected tree {tree:?}");
        };
        assert_eq!((*id, *last), (init, exit));
        assert!(assigns.is_empty());
        assert_eq!(l.init, Some(sym("0")));
    }

    #[test]
    fn detects_frontend_branch() {
        let src = r#"
def f(A: dace.float64[4], C: dace.int64):
    if C < 5:
        for i in dace.map[0:4]:
            A[i] = A[i] * 2
    else:
        for i in dace.map[0:4]:
            A[i] = A[i] / 2
"#;
        let sdfg = parse_program(src).unwrap();
        let tree = structure(&sdfg).unwrap();
        let Some(Region::Branch(b)) = tree.first() else {
            panic!("no branch in {tree:?}");
        };
        assert_eq!(b.state, sdfg.start.unwrap());
        assert_eq!(b.then.1.len(), 1);
        assert_eq!(b.els.1.len(), 1);
    }

    #[test]
    fn nested_loops_and_interior_assignments_are_kept() {
        // cholesky: the i-loop's body holds the j-loop and two maps.
        let src = r#"
def f(A: dace.float64[N, N]):
    for i in range(N):
        for j in range(i):
            for k in dace.map[0:j]:
                A[i, j] += -A[i, k] * A[j, k]
            A[i, j] = A[i, j] / A[j, j]
        for k in dace.map[0:i]:
            A[i, i] += -A[i, k] * A[i, k]
        A[i, i] = sqrt(A[i, i])
"#;
        let sdfg = parse_program(src).unwrap();
        let tree = structure(&sdfg).unwrap();
        let outer = tree
            .iter()
            .find_map(|r| match r {
                Region::Loop(l) => Some(l),
                _ => None,
            })
            .expect("outer loop");
        assert_eq!(
            (outer.var.as_str(), outer.init.clone()),
            ("i", Some(sym("0")))
        );
        let inner: Vec<&Loop> = outer
            .body
            .iter()
            .filter_map(|r| match r {
                Region::Loop(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].var, "j");
        assert_eq!(inner[0].init, Some(sym("0")));
        assert_eq!(inner[0].cond.to_string(), "j < i");

        // An assignment on an interior body edge stays on its state.
        let mut b = SdfgBuilder::new("p");
        let init = b.state("init");
        let guard = b.state("guard");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        let exit = b.state("exit");
        let mut edge = |src, dst, e| {
            b.sdfg.add_transition(src, dst, e);
        };
        edge(init, guard, InterstateEdge::always().assign("i", "0"));
        edge(guard, s1, InterstateEdge::when("i < 4"));
        edge(guard, exit, InterstateEdge::when("not (i < 4)"));
        edge(s1, s2, InterstateEdge::always().assign("k", "2*i"));
        edge(s2, guard, InterstateEdge::always().assign("i", "i + 1"));
        let sdfg = b.build().unwrap();
        let l = loop_at(&sdfg, guard).expect("loop");
        let [Region::State(a, k), Region::State(c, none)] = &l.body[..] else {
            panic!("unexpected body {:?}", l.body);
        };
        assert_eq!((*a, *c), (s1, s2));
        assert_eq!(k, &vec![("k".to_string(), sym("2*i"))]);
        assert!(none.is_empty());
    }

    #[test]
    fn unstructured_graphs_are_reported() {
        let mut b = SdfgBuilder::new("x");
        b.array("A", &["4"], DType::F64);
        let s1 = b.state("one");
        let s2 = b.state("two");
        b.transition(s1, s2);
        let sdfg = b.build().unwrap();
        assert_eq!(
            loop_at(&sdfg, s1).unwrap_err(),
            "guard state needs exactly two out edges"
        );
        assert_eq!(structure(&sdfg).unwrap().len(), 2);

        // A loop with a second exit out of its body.
        let mut b = SdfgBuilder::new("y");
        b.symbol("N");
        let body = b.state("body");
        let (_, guard, exit) = b.add_loop(body, "i", "0", "i < N", "1");
        b.sdfg
            .add_transition(body, exit, InterstateEdge::when("i == 2"));
        let sdfg = b.build().unwrap();
        assert_eq!(
            loop_at(&sdfg, guard).unwrap_err(),
            "loop body is unstructured"
        );
        assert!(structure(&sdfg).is_err());
    }

    /// `n` sequential `if`s, each guarding one map.
    fn sequential_ifs(n: usize, indent: &str) -> String {
        let mut src = String::new();
        for k in 0..n {
            src.push_str(&format!(
                "{indent}if C < {k}:\n{indent}    for i in dace.map[0:4]:\n\
                 {indent}        A[i] = A[i] + {k}\n"
            ));
        }
        src
    }

    #[test]
    fn branch_guards_are_not_walked_as_loops() {
        // Each guard's `c` / `not (c)` pair looks like a loop's; without
        // the back-edge check every guard would walk the rest of the
        // program as its body, 2^n walks for n ifs.
        let t0 = std::time::Instant::now();
        let top = format!(
            "def f(A: dace.float64[4], C: dace.int64):\n{}",
            sequential_ifs(30, "    ")
        );
        let looped = format!(
            "def f(A: dace.float64[4], C: dace.int64, T: dace.int64):\n    \
             for t in range(T):\n{}",
            sequential_ifs(30, "        ")
        );
        for src in [top, looped] {
            let sdfg = parse_program(&src).unwrap();
            let tree = structure(&sdfg).unwrap();
            let branches =
                |rs: &[Region]| rs.iter().filter(|r| matches!(r, Region::Branch(_))).count();
            let n = match &tree[..] {
                [.., Region::Loop(l), _] => branches(&l.body),
                _ => branches(&tree),
            };
            assert_eq!(n, 30, "{tree:?}");
            for sid in sdfg.graph.node_ids() {
                if sdfg.state(sid).label == "branch_guard" {
                    assert_eq!(loop_at(&sdfg, sid).unwrap_err(), "guard has no back edge");
                }
            }
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn branches_nest_in_branch_arms() {
        let src = r#"
def f(A: dace.float64[4], B: dace.int64, C: dace.int64):
    if C < 5:
        if B < 2:
            for i in dace.map[0:4]:
                A[i] = A[i] * 2
        else:
            for i in dace.map[0:4]:
                A[i] = A[i] + 1
        for i in dace.map[0:4]:
            A[i] = A[i] - 3
    else:
        for i in dace.map[0:4]:
            A[i] = A[i] / 2
    for i in dace.map[0:4]:
        A[i] = A[i] + 7
"#;
        let sdfg = parse_program(src).unwrap();
        let tree = structure(&sdfg).unwrap();
        let Some(Region::Branch(outer)) = tree.first() else {
            panic!("no branch in {tree:?}");
        };
        // The then-arm holds the inner branch and goes on past its merge.
        let inner = outer
            .then
            .1
            .iter()
            .position(|r| matches!(r, Region::Branch(_)));
        assert!(
            inner.is_some_and(|k| k + 1 < outer.then.1.len()),
            "{tree:?}"
        );
        assert!(matches!(tree.last(), Some(Region::State(..))));
    }
}
