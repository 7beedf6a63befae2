//! CPU dispatcher: C with OpenMP-style pragmas.

use crate::c_expr::{sym_to_c, tasklet_to_c};
use crate::statemachine::{detect_branch, detect_loop};
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
    out.push_str("#include <math.h>\n#include <stdlib.h>\n#include <string.h>\n");
    out.push_str("#define min(a, b) (((a) < (b)) ? (a) : (b))\n");
    out.push_str("#define max(a, b) (((a) > (b)) ? (a) : (b))\n");
    out.push_str(
        "static double fmod_floor(double a, double b) { double r = fmod(a, b); \
         return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r; }\n\n",
    );
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
    if let Some(start) = sdfg.start {
        emit_statemachine(sdfg, start, &mut out);
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

/// Structured emission with loop/branch detection; falls back to labeled
/// gotos when the graph shape is not recognized.
fn emit_statemachine(sdfg: &Sdfg, start: StateId, out: &mut String) {
    if structured(sdfg, start, None, out, 0).is_none() {
        // Goto fallback.
        let _ = writeln!(out, "    // unstructured control flow: goto fallback");
        for sid in sdfg.graph.node_ids() {
            let _ = writeln!(out, "  __state_{}:", sid.index());
            emit_state_body(sdfg, sid, out, 1);
            let mut terminal = true;
            for e in sdfg.graph.out_edges(sid) {
                let t = sdfg.graph.edge(e);
                terminal = false;
                for (v, x) in &t.assignments {
                    let _ = writeln!(out, "    {v} = {x};");
                }
                if t.condition.is_always() {
                    let _ = writeln!(out, "    goto __state_{};", sdfg.graph.edge_dst(e).index());
                    break;
                } else {
                    let _ = writeln!(
                        out,
                        "    if ({}) goto __state_{};",
                        t.condition,
                        sdfg.graph.edge_dst(e).index()
                    );
                }
            }
            if terminal {
                let _ = writeln!(out, "    goto __end;");
            }
        }
        let _ = writeln!(out, "  __end: ;");
    }
}

/// Structured walk; returns `None` if an unsupported shape is found, in
/// which case the caller rewinds to the goto fallback. (The probe runs on a
/// scratch buffer first.)
fn structured(
    sdfg: &Sdfg,
    start: StateId,
    stop: Option<StateId>,
    out: &mut String,
    depth: usize,
) -> Option<()> {
    // Probe into a scratch string; commit only on success.
    let mut buf = String::new();
    let mut cur = start;
    loop {
        if Some(cur) == stop {
            break;
        }
        if let Some(l) = detect_loop(sdfg, cur) {
            let ind = "    ".repeat(depth + 1);
            let _ = writeln!(
                buf,
                "{ind}for ({var} = {init}; {cond}; {var} = {update}) {{",
                var = l.var,
                init = l.init,
                cond = l.cond,
                update = l.update
            );
            for b in &l.body {
                emit_state_body(sdfg, *b, &mut buf, depth + 2);
            }
            let _ = writeln!(buf, "{ind}}}");
            cur = l.exit;
            continue;
        }
        if let Some(b) = detect_branch(sdfg, cur) {
            emit_state_body(sdfg, cur, &mut buf, depth + 1);
            let ind = "    ".repeat(depth + 1);
            let _ = writeln!(buf, "{ind}if ({}) {{", b.cond);
            for s in &b.then {
                emit_state_body(sdfg, *s, &mut buf, depth + 2);
            }
            if b.els.is_empty() {
                let _ = writeln!(buf, "{ind}}}");
            } else {
                let _ = writeln!(buf, "{ind}}} else {{");
                for s in &b.els {
                    emit_state_body(sdfg, *s, &mut buf, depth + 2);
                }
                let _ = writeln!(buf, "{ind}}}");
            }
            cur = b.merge;
            continue;
        }
        emit_state_body(sdfg, cur, &mut buf, depth + 1);
        let outs: Vec<_> = sdfg.graph.out_edges(cur).collect();
        match outs.len() {
            0 => break,
            1 if sdfg.graph.edge(outs[0]).condition.is_always() => {
                for (v, x) in &sdfg.graph.edge(outs[0]).assignments {
                    let ind = "    ".repeat(depth + 1);
                    let _ = writeln!(buf, "{ind}{v} = {x};");
                }
                cur = sdfg.graph.edge_dst(outs[0]);
            }
            _ => return None,
        }
    }
    out.push_str(&buf);
    Some(())
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
                let ind2 = "    ".repeat(d);
                let _ = writeln!(
                    out,
                    "{ind2}for (long long {p} = {}; {p} < {}; {p} += {}) {{",
                    sym_to_c(&r.start),
                    sym_to_c(&r.end),
                    sym_to_c(&r.step)
                );
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
        Node::Tasklet {
            name,
            code,
            lang,
            inputs,
            outputs,
        } => {
            let _ = writeln!(out, "{ind}{{  // tasklet: {name}");
            let ind2 = format!("{ind}    ");
            // Input connector declarations.
            for e in st.graph.in_edges(n) {
                let df = st.graph.edge(e);
                let Some(conn) = &df.dst_conn else { continue };
                if df.memlet.is_empty() {
                    continue;
                }
                let data = df.memlet.data_name();
                let dtype = sdfg
                    .desc(data)
                    .map(|d| d.dtype().ctype())
                    .unwrap_or("double");
                let flat = flat_index(sdfg, data, &df.memlet.subset);
                if df.memlet.subset.volume().is_one() {
                    let _ = writeln!(out, "{ind2}const {dtype} {conn} = {data}[{flat}];");
                } else {
                    let _ = writeln!(out, "{ind2}const {dtype} *{conn} = &{data}[{flat}];");
                }
            }
            // Output declarations.
            for o in outputs {
                let dtype = st
                    .graph
                    .out_edges(n)
                    .find(|&e| st.graph.edge(e).src_conn.as_deref() == Some(o.as_str()))
                    .and_then(|e| sdfg.desc(st.graph.edge(e).memlet.data_name()))
                    .map(|d| d.dtype().ctype())
                    .unwrap_or("double");
                let _ = writeln!(out, "{ind2}{dtype} {o};");
            }
            // Body.
            match lang {
                sdfg_core::TaskletLang::Python => match sdfg_lang::parse_tasklet(code) {
                    Ok(body) => out.push_str(&tasklet_to_c(&body, &ind2)),
                    Err(e) => {
                        let _ = writeln!(out, "{ind2}// tasklet parse error: {e}");
                    }
                },
                sdfg_core::TaskletLang::Cpp => {
                    // External code emitted verbatim (paper Fig. 5).
                    for line in code.lines() {
                        let _ = writeln!(out, "{ind2}{line}");
                    }
                }
            }
            // Write-outs.
            for e in st.graph.out_edges(n) {
                let df = st.graph.edge(e);
                let Some(conn) = &df.src_conn else { continue };
                if df.memlet.is_empty() {
                    continue;
                }
                let data = df.memlet.data_name();
                let flat = flat_index(sdfg, data, &df.memlet.subset);
                match &df.memlet.wcr {
                    None => {
                        let _ = writeln!(out, "{ind2}{data}[{flat}] = {conn};");
                    }
                    Some(Wcr::Sum) => {
                        let _ = writeln!(out, "{ind2}#pragma omp atomic");
                        let _ = writeln!(out, "{ind2}{data}[{flat}] += {conn};");
                    }
                    Some(Wcr::Product) => {
                        let _ = writeln!(out, "{ind2}#pragma omp atomic");
                        let _ = writeln!(out, "{ind2}{data}[{flat}] *= {conn};");
                    }
                    Some(w) => {
                        let _ = writeln!(out, "{ind2}#pragma omp critical");
                        let _ = writeln!(
                            out,
                            "{ind2}{data}[{flat}] = wcr_{w:?}({data}[{flat}], {conn});",
                        );
                    }
                }
            }
            let _ = writeln!(out, "{ind}}}");
            let _ = inputs;
        }
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

/// Flattened C index expression for a subset's origin.
pub(crate) fn flat_index(sdfg: &Sdfg, data: &str, subset: &sdfg_symbolic::Subset) -> String {
    let strides = match sdfg.desc(data) {
        Some(DataDesc::Array(a)) => a.strides.clone(),
        _ => vec![],
    };
    if subset.dims.is_empty() {
        return "0".into();
    }
    let mut terms = Vec::new();
    for (d, r) in subset.dims.iter().enumerate() {
        let stride = strides
            .get(d)
            .cloned()
            .unwrap_or_else(sdfg_symbolic::Expr::one);
        let term = r.start.clone() * stride;
        if !term.is_zero() {
            terms.push(sym_to_c(&term));
        }
    }
    if terms.is_empty() {
        "0".into()
    } else {
        terms.join(" + ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
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
}
