//! Workspace-level integration tests: the full pipeline from paper
//! programs through frontends, transformations, code generation, both
//! execution engines, and the accelerator models.

use dace::core::{DType, Wcr};
use dace::exec::{Bindings, Session};
use dace::frontend::{parse_program, SdfgBuilder};
use dace::interp::Interpreter;
use dace::transforms::{apply_first, apply_strict, Chain, Params};

/// Runs `sdfg` once on a fresh session and returns array `name`.
fn run(sdfg: &dace::core::Sdfg, bindings: Bindings, name: &str) -> Vec<f64> {
    let session = Session::builder(sdfg.clone()).build().expect("valid SDFG");
    let mut out = session.run(bindings).expect("exec");
    out.take_array(name).expect("output bound")
}

/// The paper's Fig. 2 program end to end: frontend → validation →
/// interpreter and executor agreement → CPU code generation.
#[test]
fn paper_fig2_laplace_pipeline() {
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
    let sdfg = parse_program(src).expect("parses");
    sdfg.validate().expect("valid");
    let n = 128i64;
    let t = 12i64;
    let mut a = vec![0.0; 2 * n as usize];
    for (i, v) in a.iter_mut().enumerate().take(n as usize) {
        *v = ((i % 17) as f64) / 17.0;
    }
    let mut interp = Interpreter::new(&sdfg);
    interp.set_symbol("N", n).set_symbol("T", t);
    interp.set_array("A", a.clone());
    interp.run().expect("interp");
    let got = run(
        &sdfg,
        Bindings::new()
            .symbol("N", n)
            .symbol("T", t)
            .array_vec("A", a),
        "A",
    );
    assert_eq!(interp.array("A"), got);
    // Code generation produces a structured time loop.
    let code = dace::codegen::generate_cpu(&sdfg);
    assert!(code.contains("for (t = 0; t < T; t = t + 1)"));
}

/// Fig. 9b → Fig. 11a: the MapReduceFusion story, executed before and
/// after.
#[test]
fn paper_fig11a_mapreduce_fusion() {
    let mut sdfg = dace::workloads::mm_chain::build_mapreduce_mm();
    let run_c = |sdfg: &dace::core::Sdfg| {
        let inputs = Bindings::new()
            .symbol("M", 9)
            .symbol("K", 7)
            .symbol("N", 8)
            .array_vec("A", (0..63).map(|x| (x % 5) as f64).collect())
            .array_vec("B", (0..56).map(|x| (x % 3) as f64).collect())
            .array_vec("C", vec![0.0; 72]);
        run(sdfg, inputs, "C")
    };
    let before = run_c(&sdfg);
    apply_first(
        &mut sdfg,
        &dace::transforms::MapReduceFusion,
        &Params::new(),
    )
    .unwrap();
    assert_eq!(run_c(&sdfg), before);
}

/// The strict-transformation pass (RedundantArray + StateFusion) matches
/// DaCe's automatic cleanup and preserves results.
#[test]
fn strict_pass_cleans_and_preserves() {
    let mut b = SdfgBuilder::new("cleanup");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.transient("t1", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    let s1 = b.state("one");
    b.mapped_tasklet(
        s1,
        "f",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "o = a * 3 + 1",
        &[("o", "t1", "i")],
    );
    let s2 = b.state("two");
    b.copy(s2, "t1", "0:N", "B", "0:N");
    b.transition(s1, s2);
    let mut sdfg = b.build().unwrap();
    let states_before = sdfg.graph.node_count();
    let applied = apply_strict(&mut sdfg).unwrap();
    assert!(applied >= 1);
    assert!(sdfg.graph.node_count() <= states_before);
    let inputs = Bindings::new()
        .symbol("N", 6)
        .array_vec("A", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        .array_vec("B", vec![0.0; 6]);
    assert_eq!(run(&sdfg, inputs, "B"), &[4.0, 7.0, 10.0, 13.0, 16.0, 19.0]);
}

/// One SDFG, three targets: CPU executor, GPU model, FPGA model all
/// produce identical results (the portability claim).
#[test]
fn one_source_three_targets() {
    let w = dace::workloads::kernels::mm(24);
    let (cpu, _, _) = w.run_exec().unwrap();

    let mut gpu_sdfg = w.sdfg.clone();
    apply_first(
        &mut gpu_sdfg,
        &dace::transforms::GpuTransform,
        &Params::new(),
    )
    .unwrap();
    let (_, gpu) = dace::gpu_sim::run_gpu(&gpu_sdfg, &dace::gpu_sim::p100(), w.bindings()).unwrap();
    assert_eq!(gpu.array("C").unwrap(), cpu["C"]);

    let mut fpga_sdfg = w.sdfg.clone();
    apply_first(
        &mut fpga_sdfg,
        &dace::transforms::FpgaTransform,
        &Params::new(),
    )
    .unwrap();
    let (_, fpga) = dace::fpga_sim::run_fpga(
        &fpga_sdfg,
        &dace::fpga_sim::vcu1525(),
        dace::fpga_sim::FpgaMode::Pipelined,
        w.bindings(),
    )
    .unwrap();
    assert_eq!(fpga.array("C").unwrap(), cpu["C"]);
}

/// Chains serialize, replay, and diverge from mid-points (the DIODE
/// "optimization version control" workflow of §4.2).
#[test]
fn chain_version_control_workflow() {
    let text = "MapTiling tile_sizes=16\nVectorization width=8\n";
    let chain = Chain::from_text(text).unwrap();
    assert_eq!(chain.to_text(), text);
    let mut b = SdfgBuilder::new("vc");
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
    let sdfg0 = b.build().unwrap();
    // Full chain on one copy, prefix on another (divergence point).
    let mut full = sdfg0.clone();
    chain.apply(&mut full).unwrap();
    let mut prefix = sdfg0.clone();
    chain.apply_prefix(&mut prefix, 1).unwrap();
    // Both still compute the same thing.
    for sdfg in [&full, &prefix] {
        let inputs = Bindings::new()
            .symbol("N", 33)
            .array_vec("A", vec![1.0; 33]);
        assert!(run(sdfg, inputs, "A").iter().all(|&v| v == 2.0));
    }
}

/// The Fibonacci consume-scope program of Fig. 8 runs on the executor too.
#[test]
fn paper_fig8_fibonacci_consume() {
    use dace::core::node::ConsumeScope;
    use dace::core::{Memlet, Schedule, Sdfg};
    let mut sdfg = Sdfg::new("fib");
    sdfg.add_stream("S", DType::F64);
    sdfg.add_array("Nv", &["1"], DType::F64);
    sdfg.add_array("out", &["1"], DType::F64);
    let init = sdfg.add_state("init");
    let main = sdfg.add_state("main");
    sdfg.add_transition(init, main, dace::core::sdfg::InterstateEdge::always());
    {
        let st = sdfg.state_mut(init);
        let n = st.add_access("Nv");
        let s = st.add_access("S");
        st.add_plain_edge(n, s, Memlet::parse("Nv", "0"));
    }
    {
        let st = sdfg.state_mut(main);
        let s_in = st.add_access("S");
        let (ce, cx) = st.add_consume(ConsumeScope {
            label: "fib".into(),
            pe_param: "p".into(),
            num_pes: 4.into(),
            element: "val".into(),
            condition: None,
            schedule: Schedule::CpuMulticore,
        });
        let t = st.add_tasklet(
            "fib",
            &["val"],
            &["res", "S_out"],
            "if val < 2:\n    res = val\nelse:\n    S_out.push(val - 1)\n    S_out.push(val - 2)\n    res = 0",
        );
        let s_push = st.add_access("S");
        let out = st.add_access("out");
        st.add_edge(
            s_in,
            None,
            ce,
            Some("IN_stream"),
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            ce,
            Some("OUT_stream"),
            t,
            Some("val"),
            Memlet::parse("S", "0").dynamic(),
        );
        st.add_edge(
            t,
            Some("res"),
            cx,
            Some("IN_out"),
            Memlet::parse("out", "0").with_wcr(Wcr::Sum),
        );
        st.add_edge(
            cx,
            Some("OUT_out"),
            out,
            None,
            Memlet::parse("out", "0").with_wcr(Wcr::Sum),
        );
        st.add_edge(
            t,
            Some("S_out"),
            s_push,
            None,
            Memlet::parse("S", "0").dynamic(),
        );
    }
    sdfg.validate().expect("valid");
    let inputs = Bindings::new()
        .array_vec("Nv", vec![12.0])
        .array_vec("out", vec![0.0]);
    assert_eq!(run(&sdfg, inputs, "out"), &[144.0]); // fib(12)
}

/// All three code generators produce output for a GPU- and FPGA-mapped
/// kernel without panicking, with the expected dispatcher markers.
#[test]
fn codegen_three_dispatchers() {
    let w = dace::workloads::kernels::mm(8);
    let cpu_code = dace::codegen::generate_cpu(&w.sdfg);
    assert!(cpu_code.contains("#pragma omp parallel for"));
    let mut gpu = w.sdfg.clone();
    apply_first(&mut gpu, &dace::transforms::GpuTransform, &Params::new()).unwrap();
    let gpu_code = dace::codegen::generate_gpu(&gpu);
    assert!(gpu_code.contains("__global__"));
    let mut fpga = w.sdfg.clone();
    apply_first(&mut fpga, &dace::transforms::FpgaTransform, &Params::new()).unwrap();
    let fpga_code = dace::codegen::generate_fpga(&fpga);
    assert!(fpga_code.contains("#pragma HLS PIPELINE"));
}

/// JSON and DOT export of a nontrivial SDFG.
#[test]
fn serialization_surfaces() {
    let w = dace::workloads::kernels::spmv(16, 3);
    let json = dace::core::serialize::to_json(&w.sdfg);
    assert!(json.contains("\"type\": \"SDFG\""));
    assert!(json.contains("\"kind\": \"map_entry\""));
    let dot = dace::core::dot::to_dot(&w.sdfg);
    assert!(dot.contains("digraph"));
}
