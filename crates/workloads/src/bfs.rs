//! Breadth-first search (§6.3, Fig. 16): the data-driven push algorithm as
//! an SDFG — frontier array, dynamic-range neighbor maps fed through
//! indirection tasklets, a stream accumulating the next frontier, and a
//! state-machine level loop whose trip count comes from the stream length.
//!
//! The optimized variant applies the paper's transformation recipe
//! (❶ `MapTiling` of the frontier map, ❷ `LocalStream` to batch frontier
//! pushes, ❸ thread-local accumulation) via the transformation chain API.

use crate::graphs::Csr;
use sdfg_core::node::MapScope;
use sdfg_core::sdfg::InterstateEdge;
use sdfg_core::{DType, Memlet, Schedule, Sdfg, SymRange, Wcr};
use sdfg_exec::{Bindings, Session};
use sdfg_frontend::builder::{thread_input, thread_input_from, thread_output};
use sdfg_symbolic::Expr;

/// Depth value for unreached vertices.
pub const UNREACHED: f64 = 1.0e18;

/// Builds the data-driven push-BFS SDFG (Fig. 16's main state plus the
/// drain state and level loop).
pub fn build_bfs() -> Sdfg {
    let mut sdfg = Sdfg::new("bfs");
    sdfg.add_symbol("V");
    sdfg.add_symbol("E");
    sdfg.add_array("G_row", &["V + 1"], DType::F64);
    sdfg.add_array("G_col", &["E"], DType::F64);
    sdfg.add_array("depth", &["V"], DType::F64);
    sdfg.add_array("frontier", &["V"], DType::F64);
    sdfg.add_stream("S", DType::F64);
    sdfg.add_scalar("Lb", DType::F64, true);
    sdfg.add_scalar("Le", DType::F64, true);
    sdfg.add_scalar("Ldu", DType::F64, true);

    let seed = sdfg.add_state("seed");
    let body = sdfg.add_state("expand");
    let drain = sdfg.add_state("drain");
    let done = sdfg.add_state("done");
    // Host seeds depth/frontier; the first level has one vertex.
    sdfg.add_transition(seed, body, InterstateEdge::always().assign("fsz", "1"));
    sdfg.add_transition(body, drain, InterstateEdge::always().assign("fsz", "len_S"));
    sdfg.add_transition(drain, body, InterstateEdge::when("fsz > 0"));
    sdfg.add_transition(drain, done, InterstateEdge::when("not (fsz > 0)"));

    // Main expansion state (Fig. 16).
    {
        let st = sdfg.state_mut(body);
        let mut outer = MapScope::new(
            "frontier_map",
            vec!["f".into()],
            vec![SymRange::new(0, "fsz")],
        );
        outer.schedule = Schedule::CpuMulticore;
        let (oe, ox) = st.add_map(outer);
        // Indirection: u = frontier[f]; row bounds and u's depth.
        let t1 = st.add_tasklet(
            "indirection",
            &["fr", "rows", "dg"],
            &["lb", "le", "ldu"],
            "u = int(fr)\nlb = rows[u]\nle = rows[u + 1]\nldu = dg[u]",
        );
        thread_input(
            st,
            "frontier",
            &[oe],
            t1,
            "fr",
            Memlet::parse("frontier", "f"),
        );
        thread_input(
            st,
            "G_row",
            &[oe],
            t1,
            "rows",
            Memlet::parse("G_row", "0:V + 1")
                .with_volume(Expr::int(2))
                .dynamic(),
        );
        thread_input(
            st,
            "depth",
            &[oe],
            t1,
            "dg",
            Memlet::parse("depth", "0:V")
                .with_volume(Expr::one())
                .dynamic(),
        );
        let lb = st.add_access("Lb");
        let le = st.add_access("Le");
        let ldu = st.add_access("Ldu");
        st.add_edge(t1, Some("lb"), lb, None, Memlet::parse("Lb", "0"));
        st.add_edge(t1, Some("le"), le, None, Memlet::parse("Le", "0"));
        st.add_edge(t1, Some("ldu"), ldu, None, Memlet::parse("Ldu", "0"));
        // Dynamic-range neighbor map (Fig. 16's [nid = begin:end]).
        let mut inner = MapScope::new(
            "neighbors",
            vec!["nid".into()],
            vec![SymRange::new(Expr::sym("begin"), Expr::sym("end"))],
        );
        inner.schedule = Schedule::Sequential;
        let (ie, ix) = st.add_map(inner);
        st.add_edge(lb, None, ie, Some("begin"), Memlet::parse("Lb", "0"));
        st.add_edge(le, None, ie, Some("end"), Memlet::parse("Le", "0"));
        // Update-and-push tasklet.
        let t2 = st.add_tasklet(
            "update_and_push",
            &["cv", "du", "dall"],
            &["S_out", "dw"],
            "v = int(cv)\nnd = du + 1\nif dall[v] > nd:\n    S_out.push(v)\n    dw[v] = nd",
        );
        thread_input(
            st,
            "G_col",
            &[oe, ie],
            t2,
            "cv",
            Memlet::parse("G_col", "nid"),
        );
        thread_input_from(st, ldu, "Ldu", &[ie], t2, "du", Memlet::parse("Ldu", "0"));
        thread_input(
            st,
            "depth",
            &[oe, ie],
            t2,
            "dall",
            Memlet::parse("depth", "0:V")
                .with_volume(Expr::one())
                .dynamic(),
        );
        thread_output(
            st,
            "S",
            &[ix, ox],
            t2,
            "S_out",
            Memlet::parse("S", "0").dynamic(),
        );
        thread_output(
            st,
            "depth",
            &[ix, ox],
            t2,
            "dw",
            Memlet::parse("depth", "0:V").with_wcr(Wcr::Min).dynamic(),
        );
    }
    // Drain: next frontier ← stream contents.
    {
        let st = sdfg.state_mut(drain);
        let s_acc = st.add_access("S");
        let fr = st.add_access("frontier");
        st.add_plain_edge(
            s_acc,
            fr,
            Memlet::parse("S", "0")
                .dynamic()
                .with_other_subset(sdfg_symbolic::Subset::parse("0:V").unwrap()),
        );
    }
    sdfg_core::propagate::propagate_sdfg(&mut sdfg);
    sdfg.validate().expect("valid BFS SDFG");
    sdfg
}

/// Runs BFS on the executor; returns the depth array.
pub fn run_bfs(sdfg: &Sdfg, g: &Csr, source: u32) -> Vec<f64> {
    let v = g.nodes();
    let mut depth = vec![UNREACHED; v];
    depth[source as usize] = 0.0;
    let mut frontier = vec![0.0; v];
    frontier[0] = source as f64;
    let session = Session::builder(sdfg.clone())
        .build()
        .expect("valid BFS SDFG");
    let bindings = Bindings::new()
        .symbol("V", v as i64)
        .symbol("E", g.edges() as i64)
        .array_vec("G_row", g.rowptr_f64())
        .array_vec("G_col", g.col_f64())
        .array_vec("depth", depth)
        .array_vec("frontier", frontier);
    let mut out = session.run(bindings).expect("bfs runs");
    out.take_array("depth").expect("depth is bound")
}

/// The §6.3 transformation recipe applied to the BFS SDFG: tile the
/// frontier map and localize the frontier stream.
pub fn build_bfs_optimized(tile: usize) -> Sdfg {
    let mut sdfg = build_bfs();
    let chain = sdfg_transforms::Chain::new()
        .then(
            "MapTiling",
            &[("tile_sizes", &tile.to_string()), ("dims", "0")],
        )
        .then("LocalStream", &[]);
    chain.apply(&mut sdfg).expect("bfs chain applies");
    sdfg.validate().expect("valid optimized BFS");
    sdfg
}

/// Tuned native baseline: level-synchronous push BFS (the Galois/Gluon
/// proxy). Single-threaded levels with tight loops.
pub fn bfs_baseline(g: &Csr, source: u32) -> Vec<f64> {
    let n = g.nodes();
    let mut depth = vec![UNREACHED; n];
    depth[source as usize] = 0.0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut level = 0.0f64;
    while !frontier.is_empty() {
        level += 1.0;
        for &u in &frontier {
            let (b, e) = (
                g.rowptr[u as usize] as usize,
                g.rowptr[u as usize + 1] as usize,
            );
            for &v in &g.col[b..e] {
                if depth[v as usize] > level {
                    depth[v as usize] = level;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs;

    fn check_graph(g: &Csr, source: u32) {
        let want = bfs_baseline(g, source);
        let sdfg = build_bfs();
        let got = run_bfs(&sdfg, g, source);
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a, b, "depth[{i}] differs (sdfg {a} vs baseline {b})");
        }
    }

    #[test]
    fn bfs_on_road_graph() {
        let g = graphs::road(12, 9, 1);
        check_graph(&g, 0);
    }

    #[test]
    fn bfs_on_rmat_graph() {
        let g = graphs::rmat(7, 6, 0.57, 4);
        check_graph(&g, 3);
    }

    #[test]
    fn bfs_on_preferential_graph() {
        let g = graphs::preferential(300, 4, 9);
        check_graph(&g, 7);
    }

    #[test]
    fn bfs_optimized_matches() {
        let g = graphs::road(15, 11, 2);
        let want = bfs_baseline(&g, 0);
        let sdfg = build_bfs_optimized(64);
        let got = run_bfs(&sdfg, &g, 0);
        assert_eq!(got, want);
    }

    #[test]
    fn bfs_interp_oracle_small() {
        // The reference interpreter agrees on a tiny graph.
        let g = graphs::road(5, 4, 8);
        let sdfg = build_bfs();
        let v = g.nodes();
        let mut depth = vec![UNREACHED; v];
        depth[0] = 0.0;
        let mut frontier = vec![0.0; v];
        frontier[0] = 0.0;
        let mut it = sdfg_interp::Interpreter::new(&sdfg);
        it.set_symbol("V", v as i64)
            .set_symbol("E", g.edges() as i64);
        it.set_array("G_row", g.rowptr_f64());
        it.set_array("G_col", g.col_f64());
        it.set_array("depth", depth);
        it.set_array("frontier", frontier);
        it.run().expect("interp bfs");
        assert_eq!(it.array("depth"), bfs_baseline(&g, 0).as_slice());
    }
}
