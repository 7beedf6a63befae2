//! Quickstart: write a data-centric program, look at its SDFG, transform
//! it, and run it — the full §2 workflow on one page.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dace::core::DType;
use dace::exec::{Bindings, Session};
use dace::frontend::parse_program;
use dace::interp::Interpreter;
use dace::transforms::{apply_first, Chain, MapTiling, Params};

fn main() {
    // 1. The domain scientist writes restricted Python (paper §2.1).
    let src = r#"
def saxpy(X: dace.float64[N], Y: dace.float64[N]):
    for i in dace.map[0:N]:
        Y[i] = 2.5 * X[i] + Y[i]
"#;
    let mut sdfg = parse_program(src).expect("program parses");
    println!("== SDFG for `saxpy` ==");
    println!("{}", dace::core::dot::to_dot(&sdfg));

    // 2. The performance engineer transforms the dataflow (§4).
    let params = Params::new().with("tile_sizes", 256i64);
    apply_first(&mut sdfg, &MapTiling, &params).expect("tiling applies");
    println!("== After MapTiling (map dimensions doubled) ==");
    let chain = Chain::new().then("Vectorization", &[("width", "4")]);
    chain.apply(&mut sdfg).expect("vectorization applies");
    println!("{}", dace::codegen::generate_cpu(&sdfg));

    // 3. Run it — reference interpreter and optimizing executor agree.
    let n = 1 << 16;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let y: Vec<f64> = vec![1.0; n];

    let mut interp = Interpreter::new(&sdfg);
    interp.set_symbol("N", n as i64);
    interp.set_array("X", x.clone());
    interp.set_array("Y", y.clone());
    interp.run().expect("interpreter runs");

    let session = Session::builder(sdfg.clone()).build().expect("valid SDFG");
    let inputs = Bindings::new()
        .symbol("N", n as i64)
        .array_vec("X", x)
        .array_vec("Y", y);
    let out = session.run(inputs).expect("executor runs");
    let (got, stats) = (out.array("Y").expect("Y is bound"), out.stats());

    assert_eq!(interp.array("Y"), got, "engines agree");
    println!(
        "ran {} map points ({} through compiled tiers); Y[7] = {}",
        stats.tasklet_points,
        stats.native_points + stats.jit_points,
        got[7]
    );
    let _ = DType::F64;
}
