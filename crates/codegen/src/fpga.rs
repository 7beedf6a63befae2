//! FPGA dispatcher: HLS-style module descriptions.
//!
//! "For FPGAs, Maps synthesize different hardware modules as processing
//! elements" (§3.3); streams instantiate FIFO interfaces, and Map+Stream
//! combinations compactly represent systolic arrays (Fig. 7). This
//! dispatcher emits one HLS-style function per `FpgaDevice` map (with
//! pipeline pragmas on the innermost loop and full unrolling for PE
//! arrays), declares `hls::stream` channels for stream containers, and a
//! top module wiring everything together.

use crate::c_expr::{emit_preamble, emit_tasklet, map_for, pointer_args, sym_to_c, wcr_to_c, Sink};
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::scope_tree;
use sdfg_core::{Node, Schedule, Sdfg, StateId};
use sdfg_graph::NodeId;
use std::fmt::Write as _;

/// Generates HLS-style source for an SDFG.
pub fn generate_fpga(sdfg: &Sdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by sdfg-codegen (FPGA dispatcher)");
    let _ = writeln!(out, "// SDFG: {}", sdfg.name);
    out.push_str("#include <hls_stream.h>\n");
    emit_preamble(&mut out);
    // Stream channel declarations.
    for (name, desc) in &sdfg.data {
        if let DataDesc::Stream(s) = desc {
            let depth = s
                .buffer_size
                .as_ref()
                .map(sym_to_c)
                .unwrap_or_else(|| "16".into());
            let _ = writeln!(
                out,
                "static hls::stream<{}> {name}(\"{}\");  // FIFO depth {depth}",
                s.dtype.ctype(),
                name
            );
        }
    }
    out.push('\n');
    let mut modules = String::new();
    let mut top = String::new();
    let _ = writeln!(top, "void {}_top({}) {{", sdfg.name, pointer_args(sdfg));
    let _ = writeln!(top, "#pragma HLS DATAFLOW");
    let mut pe_idx = 0usize;
    for sid in sdfg.graph.node_ids() {
        let st = sdfg.state(sid);
        let Ok(tree) = scope_tree(st) else { continue };
        for n in st.topological_order() {
            if tree.scope_of(n).is_some() {
                continue;
            }
            match st.graph.node(n) {
                Node::MapEntry(scope)
                    if matches!(
                        scope.schedule,
                        Schedule::FpgaDevice | Schedule::CpuMulticore
                    ) =>
                {
                    let mname = format!("PE_{}_{}", sdfg.name, pe_idx);
                    pe_idx += 1;
                    emit_module(sdfg, sid, n, &mname, &mut modules, &tree);
                    if scope.unroll {
                        let _ = writeln!(
                            top,
                            "    // unrolled PE array over [{}]",
                            scope
                                .iter_dims()
                                .map(|(p, r)| format!("{p}={r}"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        let _ = writeln!(top, "#pragma HLS UNROLL");
                    }
                    let _ = writeln!(top, "    {mname}(/* wired by dataflow */);");
                }
                Node::Access { data } => {
                    for e in st.graph.out_edges(n) {
                        let dst = st.graph.edge_dst(e);
                        if let Node::Access { data: dd } = st.graph.node(dst) {
                            let m = &st.graph.edge(e).memlet;
                            if m.is_empty() {
                                continue;
                            }
                            let _ = writeln!(
                                top,
                                "    burst_copy({dd}, {data}, {});  // off-chip transfer",
                                sym_to_c(&m.subset.volume())
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let _ = writeln!(top, "}}");
    out.push_str(&modules);
    out.push('\n');
    out.push_str(&top);
    out
}

fn emit_module(
    sdfg: &Sdfg,
    sid: StateId,
    entry: NodeId,
    mname: &str,
    out: &mut String,
    tree: &sdfg_core::scope::ScopeTree,
) {
    let st = sdfg.state(sid);
    let Node::MapEntry(scope) = st.graph.node(entry) else {
        return;
    };
    let _ = writeln!(out, "static void {mname}(/* memlet-derived ports */) {{");
    let mut d = 1usize;
    let ndims = scope.params.len();
    for (k, (p, r)) in scope.iter_dims().enumerate() {
        let ind = "    ".repeat(d);
        if scope.unroll {
            let _ = writeln!(out, "{ind}#pragma HLS UNROLL");
        }
        let _ = writeln!(out, "{ind}{}", map_for(p, r));
        d += 1;
        if k + 1 == ndims {
            let ind = "    ".repeat(d);
            let ii = 1; // initiation interval target
            let _ = writeln!(out, "{ind}#pragma HLS PIPELINE II={ii}");
            if let Some(w) = scope.vector_len {
                let _ = writeln!(out, "{ind}// vector width {w} (wide memory port)");
            }
        }
    }
    let exit = st.exit_of(entry);
    for c in st.topological_order() {
        if tree.scope_of(c) == Some(entry) && Some(c) != exit {
            emit_module_node(sdfg, sid, c, out, d, tree);
        }
    }
    for k in (1..d).rev() {
        let ind = "    ".repeat(k);
        let _ = writeln!(out, "{ind}}}");
    }
    let _ = writeln!(out, "}}\n");
}

fn emit_module_node(
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
        Node::MapEntry(_) => {
            // Nested PE/loop.
            let mname = format!("nested_{}", n.index());
            let _ = writeln!(out, "{ind}// nested module {mname}");
            let exit = st.exit_of(n);
            for c in st.topological_order() {
                if tree.scope_of(c) == Some(n) && Some(c) != exit {
                    emit_module_node(sdfg, sid, c, out, depth + 1, tree);
                }
            }
        }
        Node::Tasklet { .. } => emit_tasklet(sdfg, st, n, &ind, out, fpga_store),
        Node::Access { data } => {
            let _ = writeln!(out, "{ind}// on-chip buffer `{data}` (BRAM)");
        }
        _ => {}
    }
}

/// Writes one tasklet output: FIFO writes for streams, an accumulator
/// module for a combine.
fn fpga_store(out: &mut String, ind: &str, sink: &Sink, conn: &str) {
    let _ = match sink {
        Sink::Stream(data) => writeln!(out, "{ind}{data}.write({conn});"),
        Sink::Elem(elem, None) => writeln!(out, "{ind}{elem} = {conn};"),
        Sink::Elem(elem, Some(w)) => writeln!(
            out,
            "{ind}{elem} = {};  // accumulator module",
            wcr_to_c(w, elem, conn)
        ),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::{DType, Memlet, SymRange, Wcr};
    use sdfg_frontend::SdfgBuilder;
    use sdfg_transforms::{apply_first, FpgaTransform, Params};

    #[test]
    fn fpga_codegen_has_modules_and_pipeline() {
        let mut b = SdfgBuilder::new("axpy");
        b.symbol("N");
        b.array("X", &["N"], DType::F64);
        b.array("Y", &["N"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet(
            st,
            "ax",
            &[("i", "0:N")],
            &[("x", "X", "i"), ("y", "Y", "i")],
            "o = 2 * x + y",
            &[("o", "Y", "i")],
        );
        let mut sdfg = b.build().unwrap();
        apply_first(&mut sdfg, &FpgaTransform, &Params::new()).unwrap();
        let code = generate_fpga(&sdfg);
        assert!(code.contains("static void PE_axpy_0("), "{code}");
        assert!(code.contains("#pragma HLS PIPELINE II=1"));
        assert!(code.contains("#pragma HLS DATAFLOW"));
        assert!(code.contains("burst_copy"));
    }

    #[test]
    fn streams_become_fifos() {
        // Fig. 7-style systolic structure: map + stream.
        let mut sdfg = Sdfg::new("systolic");
        sdfg.add_symbol("P");
        sdfg.add_stream("pipes", DType::F64);
        sdfg.add_array("out", &["P"], DType::F64);
        let sid = sdfg.add_state("main");
        let st = sdfg.state_mut(sid);
        let s_in = st.add_access("pipes");
        let s_out = st.add_access("pipes");
        let mut sc =
            sdfg_core::node::MapScope::new("pes", vec!["p".into()], vec![SymRange::new(0, "P")]);
        sc.schedule = Schedule::FpgaDevice;
        sc.unroll = true;
        let (me, mx) = st.add_map(sc);
        let t = st.add_tasklet("pe", &["v"], &["w", "o"], "w.push(v + 1)\no = v");
        let out_acc = st.add_access("out");
        st.add_edge(
            s_in,
            None,
            me,
            Some("IN_pipes"),
            Memlet::parse("pipes", "0").dynamic(),
        );
        st.add_edge(
            me,
            Some("OUT_pipes"),
            t,
            Some("v"),
            Memlet::parse("pipes", "0").dynamic(),
        );
        st.add_edge(
            t,
            Some("w"),
            s_out,
            None,
            Memlet::parse("pipes", "0").dynamic(),
        );
        st.add_edge(t, Some("o"), mx, Some("IN_out"), Memlet::parse("out", "p"));
        st.add_edge(
            mx,
            Some("OUT_out"),
            out_acc,
            None,
            Memlet::parse("out", "0:P"),
        );
        sdfg.validate().expect("valid systolic sdfg");
        let code = generate_fpga(&sdfg);
        assert!(code.contains("hls::stream<double> pipes"), "{code}");
        assert!(code.contains("pipes.read()"));
        assert!(code.contains("pipes.write((v + 1.0));"), "{code}");
        assert!(code.contains("#pragma HLS UNROLL"));
    }

    #[test]
    fn wcr_becomes_accumulator_module() {
        let mut b = SdfgBuilder::new("acc");
        b.symbol("N");
        b.array("A", &["N"], DType::F64);
        b.array("out", &["1"], DType::F64);
        let st = b.state("main");
        b.mapped_tasklet_wcr(
            st,
            "m",
            &[("i", "0:N")],
            &[("a", "A", "i")],
            "o = a",
            &[("o", "out", "0", Some(Wcr::Sum))],
            Schedule::FpgaDevice,
        );
        let sdfg = b.build().unwrap();
        let code = generate_fpga(&sdfg);
        assert!(code.contains("accumulator module"), "{code}");
    }
}
