//! CPU dispatcher: C with OpenMP-style pragmas. The state machine renders
//! from [`structure`]'s region tree as `for`/`if` C, with labeled gotos
//! only for a graph it reports unstructured; tasklets render through
//! [`vm_expr_to_c`](crate::c_expr::vm_expr_to_c), so the source computes
//! the interpreter's arithmetic.

use crate::c_expr::{cond_to_c, emit_preamble, emit_tasklet, map_for, sym_to_c, wcr_to_c, Sink};
use crate::statemachine::{structure, Assigns, Region};
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::scope_tree;
use sdfg_core::{Node, Schedule, Sdfg, StateId, Wcr};
use sdfg_graph::NodeId;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Generates the full C source for an SDFG (CPU dispatcher).
pub fn generate_cpu(sdfg: &Sdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by sdfg-codegen (CPU dispatcher)");
    let _ = writeln!(out, "// SDFG: {}", sdfg.name);
    out.push_str("#include <stdlib.h>\n#include <string.h>\n");
    emit_preamble(&mut out);
    // Nested SDFGs become separate functions, emitted first.
    for sid in sdfg.graph.node_ids() {
        let st = sdfg.graph.node(sid);
        for n in st.graph.node_ids() {
            if let Node::NestedSdfg { sdfg: nested, .. } = st.graph.node(n) {
                out.push_str(&generate_function(nested));
                out.push('\n');
            }
        }
    }
    out.push_str(&generate_function(sdfg));
    out
}

/// Emits one function for an SDFG.
fn generate_function(sdfg: &Sdfg) -> String {
    let mut out = String::new();
    let (arrays, symbols) = sdfg.arglist();
    let mut args: Vec<String> = Vec::new();
    for a in &arrays {
        let desc = sdfg.desc(a).unwrap();
        let c = desc.dtype().ctype();
        match desc {
            DataDesc::Scalar(_) => args.push(format!("{c} {a}")),
            _ => args.push(format!("{c} * __restrict__ {a}")),
        }
    }
    for s in &symbols {
        args.push(format!("long long {s}"));
    }
    let _ = writeln!(out, "void {}({}) {{", sdfg.name, args.join(", "));
    // Transient allocations.
    for (name, desc) in &sdfg.data {
        if !desc.transient() {
            continue;
        }
        match desc {
            DataDesc::Array(a) => {
                let total = a.shape.iter().map(sym_to_c).collect::<Vec<_>>().join(" * ");
                let _ = writeln!(
                    out,
                    "    {} *{name} = ({} *)malloc(sizeof({}) * {total});  // transient, {}",
                    a.dtype.ctype(),
                    a.dtype.ctype(),
                    a.dtype.ctype(),
                    a.storage
                );
            }
            DataDesc::Scalar(s) => {
                let _ = writeln!(out, "    {} {name};", s.dtype.ctype());
            }
            DataDesc::Stream(s) => {
                let _ = writeln!(
                    out,
                    "    fifo<{}> {name};  // stream ({})",
                    s.dtype.ctype(),
                    s.storage
                );
            }
        }
    }
    // Interstate symbols (assigned on transitions).
    let mut assigned: BTreeSet<String> = BTreeSet::new();
    for e in sdfg.graph.edge_ids() {
        for (v, _) in &sdfg.graph.edge(e).assignments {
            if !sdfg.symbols.contains(v) {
                assigned.insert(v.clone());
            }
        }
    }
    for v in &assigned {
        let _ = writeln!(out, "    long long {v};");
    }
    // State machine.
    match structure(sdfg) {
        Ok(tree) => emit_regions(sdfg, &tree, &mut out, 1),
        Err(at) => emit_gotos(sdfg, at, &mut out),
    }
    // Free transients.
    for (name, desc) in &sdfg.data {
        if desc.transient() && matches!(desc, DataDesc::Array(_)) {
            let _ = writeln!(out, "    free({name});");
        }
    }
    out.push_str("}\n");
    out
}

fn emit_assigns(assigns: &Assigns, out: &mut String, depth: usize) {
    let ind = "    ".repeat(depth);
    for (v, x) in assigns {
        let _ = writeln!(out, "{ind}{v} = {};", sym_to_c(x));
    }
}

/// Renders a region tree as structured C.
fn emit_regions(sdfg: &Sdfg, regions: &[Region], out: &mut String, depth: usize) {
    let ind = "    ".repeat(depth);
    for r in regions {
        match r {
            Region::State(id, assigns) => {
                emit_state_body(sdfg, *id, out, depth);
                emit_assigns(assigns, out, depth);
            }
            Region::Loop(l) => {
                let init = l
                    .init
                    .as_ref()
                    .map(|x| format!("{} = {}", l.var, sym_to_c(x)));
                let _ = writeln!(
                    out,
                    "{ind}for ({}; {}; {} = {}) {{",
                    init.unwrap_or_default(),
                    cond_to_c(&l.cond),
                    l.var,
                    sym_to_c(&l.update)
                );
                emit_regions(sdfg, &l.body, out, depth + 1);
                let _ = writeln!(out, "{ind}}}");
                emit_assigns(&l.exit_assigns, out, depth);
            }
            Region::Branch(b) => {
                emit_state_body(sdfg, b.state, out, depth);
                let _ = writeln!(out, "{ind}if ({}) {{", cond_to_c(&b.cond));
                emit_assigns(&b.then.0, out, depth + 1);
                emit_regions(sdfg, &b.then.1, out, depth + 1);
                if !b.els.0.is_empty() || !b.els.1.is_empty() {
                    let _ = writeln!(out, "{ind}}} else {{");
                    emit_assigns(&b.els.0, out, depth + 1);
                    emit_regions(sdfg, &b.els.1, out, depth + 1);
                }
                let _ = writeln!(out, "{ind}}}");
            }
        }
    }
}

/// The fallback for a state machine [`structure`] rejects: one label per
/// state, entered at `sdfg.start`, each followed by its out edges in the
/// interpreter's order (the first edge whose condition holds is taken,
/// and none ends the program).
fn emit_gotos(sdfg: &Sdfg, at: StateId, out: &mut String) {
    let _ = writeln!(
        out,
        "    // unstructured control flow at state `{}`: goto fallback",
        sdfg.state(at).label
    );
    if let Some(start) = sdfg.start {
        let _ = writeln!(out, "    goto __state_{};", start.index());
    }
    for sid in sdfg.graph.node_ids() {
        let _ = writeln!(out, "  __state_{}: ;", sid.index());
        emit_state_body(sdfg, sid, out, 1);
        let mut ends = true;
        for e in sdfg.graph.out_edges(sid) {
            let t = sdfg.graph.edge(e);
            let dst = sdfg.graph.edge_dst(e).index();
            if t.condition.is_always() {
                emit_assigns(&t.assignments, out, 1);
                let _ = writeln!(out, "    goto __state_{dst};");
                ends = false;
                break;
            }
            let _ = writeln!(out, "    if ({}) {{", cond_to_c(&t.condition));
            emit_assigns(&t.assignments, out, 2);
            let _ = writeln!(out, "        goto __state_{dst};\n    }}");
        }
        if ends {
            let _ = writeln!(out, "    goto __end;");
        }
    }
    let _ = writeln!(out, "  __end: ;");
}

/// Emits one state's dataflow.
pub(crate) fn emit_state_body(sdfg: &Sdfg, sid: StateId, out: &mut String, depth: usize) {
    let st = sdfg.state(sid);
    let ind = "    ".repeat(depth);
    let _ = writeln!(out, "{ind}// state: {}", st.label);
    let Ok(tree) = scope_tree(st) else {
        let _ = writeln!(out, "{ind}// (malformed state)");
        return;
    };
    for n in st.topological_order() {
        if tree.scope_of(n).is_none() {
            emit_node(sdfg, sid, n, out, depth, &tree);
        }
    }
}

fn emit_node(
    sdfg: &Sdfg,
    sid: StateId,
    n: NodeId,
    out: &mut String,
    depth: usize,
    tree: &sdfg_core::scope::ScopeTree,
) {
    let st = sdfg.state(sid);
    let ind = "    ".repeat(depth);
    match st.graph.node(n) {
        Node::Access { data } => {
            // Copies to other access nodes.
            for e in st.graph.out_edges(n) {
                let dst = st.graph.edge_dst(e);
                if let Node::Access { data: dd } = st.graph.node(dst) {
                    let m = &st.graph.edge(e).memlet;
                    if m.is_empty() {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "{ind}copy_subset({dd}, {data}, /* {m} */ {});",
                        sym_to_c(&m.subset.volume())
                    );
                }
            }
        }
        Node::MapEntry(scope) => {
            let mut d = depth;
            for (k, (p, r)) in scope.iter_dims().enumerate() {
                let ind2 = "    ".repeat(d);
                if k == 0 {
                    match scope.schedule {
                        Schedule::CpuMulticore => {
                            let _ = writeln!(out, "{ind2}#pragma omp parallel for");
                        }
                        Schedule::Mpi => {
                            let _ =
                                writeln!(out, "{ind2}// MPI: iterations partitioned across ranks");
                            let _ = writeln!(out, "{ind2}#pragma sdfg mpi_distribute({p})");
                        }
                        Schedule::Sequential => {}
                        other => {
                            let _ = writeln!(out, "{ind2}// schedule: {other}");
                        }
                    }
                }
                if k + 1 == scope.params.len() {
                    if let Some(w) = scope.vector_len {
                        let ind2 = "    ".repeat(d);
                        let _ = writeln!(out, "{ind2}#pragma omp simd simdlen({w})");
                    }
                }
                let _ = writeln!(out, "{}{}", "    ".repeat(d), map_for(p, r));
                d += 1;
            }
            // Scope contents.
            let exit = st.exit_of(n);
            for c in st.topological_order() {
                if tree.scope_of(c) == Some(n) && Some(c) != exit {
                    emit_node(sdfg, sid, c, out, d, tree);
                }
            }
            for k in (depth..d).rev() {
                let ind2 = "    ".repeat(k);
                let _ = writeln!(out, "{ind2}}}");
            }
        }
        Node::ConsumeEntry(scope) => {
            let _ = writeln!(
                out,
                "{ind}// consume scope: {} PEs, element `{}`",
                sym_to_c(&scope.num_pes),
                scope.element
            );
            let _ = writeln!(out, "{ind}while (!stream_empty()) {{");
            for c in st.topological_order() {
                if tree.scope_of(c) == Some(n) {
                    emit_node(sdfg, sid, c, out, depth + 1, tree);
                }
            }
            let _ = writeln!(out, "{ind}}}");
        }
        Node::Tasklet { .. } => emit_tasklet(sdfg, st, n, &ind, out, cpu_store),
        Node::Reduce { wcr, axes, .. } => {
            let _ = writeln!(out, "{ind}// reduce ({wcr}, axes {axes:?})");
            let _ = writeln!(out, "{ind}reduce_{wcr}(/* memlets define operands */);");
        }
        Node::NestedSdfg { sdfg: nested, .. } => {
            let (arrays, symbols) = nested.arglist();
            let mut args: Vec<String> = arrays;
            args.extend(symbols);
            let _ = writeln!(out, "{ind}{}({});", nested.name, args.join(", "));
        }
        Node::MapExit { .. } | Node::ConsumeExit { .. } => {}
    }
}

/// Writes one tasklet output: atomics for sums and products, a critical
/// section for any other combine.
fn cpu_store(out: &mut String, ind: &str, sink: &Sink, conn: &str) {
    let _ = match sink {
        Sink::Stream(data) => writeln!(out, "{ind}{data}.push({conn});"),
        Sink::Elem(elem, None) => writeln!(out, "{ind}{elem} = {conn};"),
        Sink::Elem(elem, Some(Wcr::Sum)) => {
            writeln!(out, "{ind}#pragma omp atomic\n{ind}{elem} += {conn};")
        }
        Sink::Elem(elem, Some(Wcr::Product)) => {
            writeln!(out, "{ind}#pragma omp atomic\n{ind}{elem} *= {conn};")
        }
        Sink::Elem(elem, Some(w)) => writeln!(
            out,
            "{ind}#pragma omp critical\n{ind}{elem} = {};",
            wcr_to_c(w, elem, conn)
        ),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::{DType, InterstateEdge};
    use sdfg_frontend::{parse_program, SdfgBuilder};

    #[test]
    fn vector_add_codegen() {
        let mut b = SdfgBuilder::new("vadd");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("B", &["N"], DType::F64);
        b.array("C", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "add",
            &[("i", "0:N")],
            &[("a", "A", "i"), ("b", "B", "i")],
            "c = a + b",
            &[("c", "C", "i")],
        );
        let sdfg = b.build().unwrap();
        let code = generate_cpu(&sdfg);
        assert!(code.contains("void vadd(double * __restrict__ A"));
        assert!(code.contains("#pragma omp parallel for"));
        assert!(code.contains("for (long long i = 0; i < N; i += 1) {"));
        assert!(code.contains("const double a = A[i];"));
        assert!(code.contains("c = (a + b);"));
        assert!(code.contains("C[i] = c;"));
    }

    #[test]
    fn loop_becomes_for() {
        let src = r#"
def laplace(A: dace.float64[2, N], T: dace.int64):
    for t in range(T):
        for i in dace.map[1:N - 1]:
            with dace.tasklet:
                l << A[t % 2, i - 1]
                c << A[t % 2, i]
                r << A[t % 2, i + 1]
                out >> A[(t + 1) % 2, i]
                out = l - 2 * c + r
"#;
        let sdfg = parse_program(src).unwrap();
        let code = generate_cpu(&sdfg);
        assert!(
            code.contains("for (t = 0; t < T; t = t + 1)"),
            "loop detection failed:\n{code}"
        );
        assert!(!code.contains("goto"), "should be structured:\n{code}");
    }

    #[test]
    fn wcr_emits_atomic() {
        let mut b = SdfgBuilder::new("dot");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("out", &["1"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet_wcr(
            st,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * a",
            &[("o", "out", "0", Some(sdfg_core::Wcr::Sum))],
            Schedule::CpuMulticore,
        );
        let sdfg = b.build().unwrap();
        let code = generate_cpu(&sdfg);
        assert!(code.contains("#pragma omp atomic"));
        assert!(code.contains("out[0] += o;"));
    }

    #[test]
    fn transients_allocated_and_freed() {
        let mut b = SdfgBuilder::new("t");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.transient("tmp", &["N", "N"], DType::F64);
        let st = b.state("main");
        b.copy(st, "A", "0:N", "tmp", "0, 0:N");
        let sdfg = b.build().unwrap();
        let code = generate_cpu(&sdfg);
        assert!(code.contains("malloc"));
        assert!(code.contains("free(tmp);"));
    }

    #[test]
    fn vectorized_map_emits_simd() {
        let mut b = SdfgBuilder::new("v");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "t",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a * 2",
            &[("o", "A", "i")],
        );
        let mut sdfg = b.build().unwrap();
        let p = sdfg_transforms::Params::new().with("width", 8i64);
        sdfg_transforms::apply_first(&mut sdfg, &sdfg_transforms::Vectorization, &p).unwrap();
        let code = generate_cpu(&sdfg);
        assert!(code.contains("#pragma omp simd simdlen(8)"));
    }

    #[test]
    fn branch_emits_if_else() {
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
        let code = generate_cpu(&sdfg);
        assert!(code.contains("if (C < 5) {"), "missing branch:\n{code}");
        assert!(code.contains("} else {"));
    }

    /// A loop over `i` whose body `s1 -(edge)-> s2` and exit edge are
    /// given; the loop starts at a state other than state 0.
    fn probe(body_edge: InterstateEdge, second_exit: Option<&str>) -> Sdfg {
        let mut b = SdfgBuilder::new("probe");
        b.array("B", &["8"], DType::F64);
        let s2 = b.state("s2");
        let (init, guard) = (b.state("init"), b.state("guard"));
        let (s1, exit) = (b.state("s1"), b.state("exit"));
        b.sdfg.start = Some(init);
        b.mapped_tasklet(s2, "w", &[("j", "0:1")], &[], "o = i", &[("o", "B", "k")]);
        let mut edge = |src, dst, e| {
            b.sdfg.add_transition(src, dst, e);
        };
        edge(init, guard, InterstateEdge::always().assign("i", "0"));
        edge(guard, s1, InterstateEdge::when("i < 4"));
        edge(guard, exit, InterstateEdge::when("not (i < 4)"));
        edge(s1, s2, body_edge);
        if let Some(c) = second_exit {
            edge(s2, exit, InterstateEdge::when(c));
        }
        edge(s2, guard, InterstateEdge::always().assign("i", "i + 1"));
        b.build().unwrap()
    }

    #[test]
    fn interior_edge_assignments_are_emitted() {
        let code = generate_cpu(&probe(InterstateEdge::always().assign("k", "2*i"), None));
        let (k, s2) = (code.find("k = 2 * i;"), code.find("// state: s2"));
        assert!(k.is_some() && k < s2, "`k` not assigned before s2:\n{code}");
        assert!(code.contains("for (i = 0; i < 4; i = i + 1) {"), "{code}");
        assert!(!code.contains("goto"), "{code}");
    }

    #[test]
    fn goto_fallback_enters_at_the_start_state() {
        let body = InterstateEdge::always().assign("k", "i");
        let code = generate_cpu(&probe(body, Some("i == 2 or not (i < 3)")));
        let first_label = code.find("  __state_").unwrap();
        assert!(
            code.find("    goto __state_1;") < Some(first_label),
            "{code}"
        );
        assert!(code.contains("if ((i == 2) || (!(i < 3))) {"), "{code}");
        assert!(code.contains("if (!(i < 4)) {"), "{code}");
    }

    #[test]
    fn windows_point_into_their_container_only_when_dense() {
        let window = |subset: &str, wcr: Option<Wcr>| {
            let mut b = SdfgBuilder::new("w");
            b.array("A", &["4", "4"], DType::F64);
            b.array("B", &["4"], DType::F64);
            let st = b.state("main");
            b.mapped_tasklet_wcr(
                st,
                "t",
                &[("i", "0:4")],
                &[("a", "A", subset)],
                "o = a[1] + a",
                &[("o", "B", "i", wcr)],
                Schedule::Sequential,
            );
            generate_cpu(&b.build().unwrap())
        };
        let row = window("i, 0:4", None);
        assert!(row.contains("const double *a = &A[4 * i];"), "{row}");
        assert!(row.contains("o = (a[sdfg_i64(1.0)] + a[0]);"), "{row}");
        assert!(row.contains("B[i] = o;"), "{row}");
        let col = window("0:4, i", None);
        assert!(
            col.contains("#error \"tasklet `t` not rendered: window `a` is not dense in `A`\""),
            "{col}"
        );
        assert!(!col.contains("B[i] = o;"), "{col}");
        let sum = window("i, 0:4", Some(Wcr::Sum));
        assert!(
            sum.contains("double o = 0.0;") && sum.contains("B[i] += o;"),
            "{sum}"
        );
    }
}
