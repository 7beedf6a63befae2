//! GPU dispatcher: CUDA-style kernels for `GpuDevice` maps.
//!
//! Each state containing a device-scheduled map becomes a `__global__`
//! kernel whose grid is derived from the map range; thread-block scopes map
//! to `threadIdx` with `__syncthreads()`; copy states between host and
//! device storage become `cudaMemcpy` calls; WCR lowers to `atomicAdd` and
//! friends. Separate connected components land in different CUDA streams
//! (§3.3: "different connected components ... are mapped to ... different
//! CUDA streams on GPUs").

use crate::c_expr::{emit_preamble, emit_tasklet, map_for, pointer_args, sym_to_c, Sink};
use sdfg_core::desc::DataDesc;
use sdfg_core::scope::scope_tree;
use sdfg_core::{Node, Schedule, Sdfg, StateId, Storage, Wcr};
use sdfg_graph::NodeId;
use std::fmt::Write as _;

/// Generates CUDA-style source for an SDFG.
pub fn generate_gpu(sdfg: &Sdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by sdfg-codegen (GPU dispatcher)");
    let _ = writeln!(out, "// SDFG: {}", sdfg.name);
    out.push_str("#include <cuda_runtime.h>\n");
    emit_preamble(&mut out);
    let mut kernels = String::new();
    let mut host = String::new();
    let _ = writeln!(host, "void {}({}) {{", sdfg.name, pointer_args(sdfg));
    // Device allocations for device-storage transients.
    for (name, desc) in &sdfg.data {
        if desc.transient() && desc.storage() == Storage::GpuGlobal {
            if let DataDesc::Array(a) = desc {
                let total = a.shape.iter().map(sym_to_c).collect::<Vec<_>>().join(" * ");
                let _ = writeln!(
                    host,
                    "    {} *{name}; cudaMalloc(&{name}, sizeof({}) * {total});",
                    a.dtype.ctype(),
                    a.dtype.ctype()
                );
            }
        }
    }
    for sid in sdfg.graph.node_ids() {
        emit_gpu_state(sdfg, sid, &mut kernels, &mut host);
    }
    let _ = writeln!(host, "    cudaDeviceSynchronize();");
    let _ = writeln!(host, "}}");
    out.push_str(&kernels);
    out.push('\n');
    out.push_str(&host);
    out
}

fn emit_gpu_state(sdfg: &Sdfg, sid: StateId, kernels: &mut String, host: &mut String) {
    let st = sdfg.state(sid);
    let Ok(tree) = scope_tree(st) else { return };
    let _ = writeln!(host, "    // state: {}", st.label);
    // Connected components → streams.
    let comps = sdfg_graph::algo::weakly_connected_components(&st.graph);
    let multi = comps.len() > 1;
    let mut kernel_idx = 0usize;
    for n in st.topological_order() {
        if tree.scope_of(n).is_some() {
            continue;
        }
        match st.graph.node(n) {
            Node::Access { data } => {
                for e in st.graph.out_edges(n) {
                    let dst = st.graph.edge_dst(e);
                    if let Node::Access { data: dd } = st.graph.node(dst) {
                        let m = &st.graph.edge(e).memlet;
                        if m.is_empty() {
                            continue;
                        }
                        let src_dev = sdfg.desc(data).map(|d| d.storage().is_device());
                        let dst_dev = sdfg.desc(dd).map(|d| d.storage().is_device());
                        let kind = match (src_dev, dst_dev) {
                            (Some(false), Some(true)) => "cudaMemcpyHostToDevice",
                            (Some(true), Some(false)) => "cudaMemcpyDeviceToHost",
                            _ => "cudaMemcpyDeviceToDevice",
                        };
                        let _ = writeln!(
                            host,
                            "    cudaMemcpy({dd}, {data}, sizeof(double) * {}, {kind});",
                            sym_to_c(&m.subset.volume())
                        );
                    }
                }
            }
            Node::MapEntry(scope) if scope.schedule == Schedule::GpuDevice => {
                let kname = format!("{}_kernel_{}_{}", sdfg.name, sid.index(), kernel_idx);
                kernel_idx += 1;
                emit_kernel(sdfg, sid, n, &kname, kernels, &tree);
                // Launch.
                let dims: Vec<String> = scope
                    .ranges
                    .iter()
                    .map(|r| sym_to_c(&r.num_elements()))
                    .collect();
                let grid = match dims.len() {
                    1 => format!("dim3(({} + 255) / 256)", dims[0]),
                    2 => format!("dim3({}, {})", dims[1], dims[0]),
                    _ => format!("dim3({}, {}, {})", dims[2], dims[1], dims[0]),
                };
                let block = if dims.len() == 1 {
                    "dim3(256)"
                } else {
                    "dim3(1)"
                };
                let stream = if multi {
                    let comp = comps.iter().position(|c| c.contains(&n)).unwrap_or(0);
                    format!(", 0, __streams[{comp}]")
                } else {
                    String::new()
                };
                let (arrays, symbols) = sdfg.arglist();
                let mut call_args: Vec<String> = Vec::new();
                // Containers referenced in this state (device names).
                for a in arrays.iter().chain(symbols.iter()) {
                    call_args.push(a.clone());
                }
                let _ = writeln!(
                    host,
                    "    {kname}<<<{grid}, {block}{stream}>>>({});",
                    call_args.join(", ")
                );
            }
            Node::MapEntry(_) => {
                let _ = writeln!(host, "    // non-device map executed on host");
            }
            _ => {}
        }
    }
}

fn emit_kernel(
    sdfg: &Sdfg,
    sid: StateId,
    entry: NodeId,
    kname: &str,
    out: &mut String,
    tree: &sdfg_core::scope::ScopeTree,
) {
    let st = sdfg.state(sid);
    let Node::MapEntry(scope) = st.graph.node(entry) else {
        return;
    };
    let _ = writeln!(out, "__global__ void {kname}({}) {{", pointer_args(sdfg));
    // Map range → thread indices.
    let axes = ["x", "y", "z"];
    for (k, (p, r)) in scope.iter_dims().enumerate().take(3) {
        let ax = axes[k.min(2)];
        if k == 0 && scope.params.len() == 1 {
            let _ = writeln!(
                out,
                "    long long {p} = {} + blockIdx.x * blockDim.x + threadIdx.x;",
                sym_to_c(&r.start)
            );
        } else {
            let _ = writeln!(
                out,
                "    long long {p} = {} + blockIdx.{ax};",
                sym_to_c(&r.start)
            );
        }
        let _ = writeln!(out, "    if ({p} >= {}) return;", sym_to_c(&r.end));
    }
    // Remaining dims become sequential loops inside the kernel.
    for (p, r) in scope.iter_dims().skip(3) {
        let _ = writeln!(out, "    {}", map_for(p, r));
    }
    // Body.
    let exit = st.exit_of(entry);
    for c in st.topological_order() {
        if tree.scope_of(c) == Some(entry) && Some(c) != exit {
            emit_kernel_node(sdfg, sid, c, out, 1, tree);
        }
    }
    for _ in scope.iter_dims().skip(3) {
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "}}\n");
}

fn emit_kernel_node(
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
        Node::MapEntry(scope) => {
            let mut d = depth;
            let is_tb = scope.schedule == Schedule::GpuThreadBlock;
            for (p, r) in scope.iter_dims() {
                let ind2 = "    ".repeat(d);
                if is_tb {
                    let _ = writeln!(
                        out,
                        "{ind2}long long {p} = {} + threadIdx.x;  // thread-block schedule",
                        sym_to_c(&r.start)
                    );
                } else {
                    let _ = writeln!(out, "{ind2}{}", map_for(p, r));
                    d += 1;
                }
            }
            let exit = st.exit_of(n);
            for c in st.topological_order() {
                if tree.scope_of(c) == Some(n) && Some(c) != exit {
                    emit_kernel_node(sdfg, sid, c, out, d, tree);
                }
            }
            for k in (depth..d).rev() {
                let ind2 = "    ".repeat(k);
                let _ = writeln!(out, "{ind2}}}");
            }
            if is_tb {
                let _ = writeln!(out, "{ind}__syncthreads();");
            }
        }
        Node::Tasklet { .. } => emit_tasklet(sdfg, st, n, &ind, out, gpu_store),
        Node::Access { .. } => {
            let _ = writeln!(out, "{ind}// in-kernel local buffer ({:?})", n);
        }
        _ => {}
    }
}

/// Writes one tasklet output: device atomics for every combine.
fn gpu_store(out: &mut String, ind: &str, sink: &Sink, conn: &str) {
    let _ = match sink {
        Sink::Stream(data) => writeln!(out, "{ind}{data}.push({conn});"),
        Sink::Elem(elem, None) => writeln!(out, "{ind}{elem} = {conn};"),
        Sink::Elem(elem, Some(w)) => {
            let f = match w {
                Wcr::Sum => "atomicAdd",
                Wcr::Min => "atomicMin_f64",
                Wcr::Max => "atomicMax_f64",
                _ => "atomic_wcr",
            };
            writeln!(out, "{ind}{f}(&{elem}, {conn});  // WCR {w}")
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::DType;
    use sdfg_frontend::SdfgBuilder;
    use sdfg_transforms::{apply_first, GpuTransform, Params};

    #[test]
    fn gpu_codegen_has_kernel_and_copies() {
        let mut b = SdfgBuilder::new("saxpy");
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
        apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap();
        let code = generate_gpu(&sdfg);
        assert!(code.contains("__global__ void saxpy_kernel_"), "{code}");
        assert!(code.contains("cudaMemcpyHostToDevice"));
        assert!(code.contains("cudaMemcpyDeviceToHost"));
        assert!(code.contains("blockIdx.x * blockDim.x + threadIdx.x"));
        assert!(code.contains("<<<"));
        assert!(code.contains("cudaDeviceSynchronize"));
    }

    #[test]
    fn wcr_becomes_atomic_add() {
        let mut b = SdfgBuilder::new("dotg");
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
            &[("o", "out", "0", Some(Wcr::Sum))],
            Schedule::CpuMulticore,
        );
        let mut sdfg = b.build().unwrap();
        apply_first(&mut sdfg, &GpuTransform, &Params::new()).unwrap();
        let code = generate_gpu(&sdfg);
        assert!(code.contains("atomicAdd("), "{code}");
    }
}
