//! Cross-run caching semantics: warm runs must hit the plan cache, key
//! changes (symbol bindings, structural edits) must miss, and pooled
//! transient buffers must never leak data between runs.

use sdfg_core::serialize::content_hash;
use sdfg_core::{DType, Memlet, Schedule, Wcr};
use sdfg_exec::{Bindings, BufferPool, PlanCache, Session};
use sdfg_frontend::SdfgBuilder;
use sdfg_interp::Interpreter;
use std::sync::Arc;

/// An elementwise kernel: C[i] = A[i] * 2 + B[i].
fn elementwise() -> sdfg_core::Sdfg {
    let mut b = SdfgBuilder::new("ew");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("B", &["N"], DType::F64);
    b.array("C", &["N"], DType::F64);
    let st = b.state("main");
    b.mapped_tasklet(
        st,
        "f",
        &[("i", "0:N")],
        &[("a", "A", "i"), ("b", "B", "i")],
        "c = a * 2 + b",
        &[("c", "C", "i")],
    );
    b.build().unwrap()
}

/// A two-state kernel with a transient intermediate: tmp = A+1, out = Σ tmp².
fn with_transient() -> sdfg_core::Sdfg {
    let mut b = SdfgBuilder::new("tr");
    b.symbol("N");
    b.array("A", &["N"], DType::F64);
    b.array("out", &["1"], DType::F64);
    b.array("tmp", &["N"], DType::F64);
    let s0 = b.state("produce");
    b.mapped_tasklet(
        s0,
        "p",
        &[("i", "0:N")],
        &[("a", "A", "i")],
        "t = a + 1",
        &[("t", "tmp", "i")],
    );
    let s1 = b.state("reduce");
    b.mapped_tasklet_wcr(
        s1,
        "r",
        &[("i", "0:N")],
        &[("t", "tmp", "i")],
        "o = t * t",
        &[("o", "out", "0", Some(Wcr::Sum))],
        Schedule::Sequential,
    );
    b.transition(s0, s1);
    let mut sdfg = b.build().unwrap();
    sdfg.desc_mut("tmp").unwrap().set_transient(true);
    sdfg
}

fn inputs(n: usize) -> (Vec<f64>, Vec<f64>) {
    (
        (0..n).map(|x| x as f64).collect(),
        (0..n).map(|x| (x * 3 % 7) as f64).collect(),
    )
}

/// The elementwise kernel's bindings at size `n`.
fn ew_bindings(n: usize) -> Bindings {
    let (a, b) = inputs(n);
    Bindings::new()
        .symbol("N", n as i64)
        .array_vec("A", a)
        .array_vec("B", b)
        .array_vec("C", vec![0.0; n])
}

#[test]
fn warm_runs_hit_the_plan_cache() {
    let n = 64usize;
    let (a, b) = inputs(n);
    let session = Session::builder(elementwise()).build().unwrap();
    let mut out = session.run(ew_bindings(n)).expect("run");
    for _ in 1..5 {
        out = session.run(out.into_bindings()).expect("run");
    }
    let s = session.cache_stats();
    assert_eq!(s.misses, 1, "only the first run lowers");
    assert_eq!(s.hits, 4, "every repeat hits");
    assert!((s.hit_rate() - 0.8).abs() < 1e-12);
    // The cached plan still computes the right thing.
    let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * 2.0 + y).collect();
    assert_eq!(out.array("C").unwrap(), &want[..]);
}

#[test]
fn different_symbol_bindings_miss() {
    let sdfg = elementwise();
    let cache = Arc::new(PlanCache::new());
    for n in [16usize, 32, 16] {
        let session = Session::builder(sdfg.clone())
            .plan_cache(cache.clone())
            .build()
            .unwrap();
        session.run(ew_bindings(n)).expect("run");
    }
    let s = cache.stats();
    // N=16 and N=32 are distinct keys; the third session re-hits N=16.
    assert_eq!((s.hits, s.misses), (1, 2));
    assert_eq!(cache.len(), 2);
}

#[test]
fn structural_mutation_invalidates_the_key() {
    let sdfg = elementwise();
    let base = content_hash(&sdfg);

    // Adding a node changes the hash.
    let mut plus_node = elementwise();
    let sid = plus_node.graph.node_ids().next().unwrap();
    plus_node.state_mut(sid).add_access("A");
    assert_ne!(content_hash(&plus_node), base, "added node must rekey");

    // Changing a memlet subset changes the hash.
    let mut new_memlet = elementwise();
    let sid = new_memlet.graph.node_ids().next().unwrap();
    let st = new_memlet.state_mut(sid);
    let e = st
        .graph
        .edge_ids()
        .find(|&e| st.graph.edge(e).memlet.to_string() == "A[i]")
        .expect("input memlet");
    st.graph.edge_mut(e).memlet = Memlet::parse("A", "i + 1");
    assert_ne!(content_hash(&new_memlet), base, "changed memlet must rekey");

    // A shared cache treats the mutants as distinct programs.
    let cache = Arc::new(PlanCache::new());
    let n = 8usize;
    for s in [&sdfg, &plus_node, &sdfg] {
        let session = Session::builder(s.clone())
            .plan_cache(cache.clone())
            .build()
            .unwrap();
        session.run(ew_bindings(n)).expect("run");
    }
    let st = cache.stats();
    assert_eq!((st.hits, st.misses), (1, 2), "mutant gets its own plan");
}

#[test]
fn pooled_transients_never_leak_between_runs() {
    let sdfg = with_transient();
    let n = 32usize;
    let a: Vec<f64> = (0..n).map(|x| (x % 5) as f64).collect();
    let want: f64 = a.iter().map(|x| (x + 1.0) * (x + 1.0)).sum();

    // Back-to-back runs on one session: the transient comes back from the
    // pool holding the previous run's values and must be zeroed, so the
    // WCR accumulation into `out` must match a fresh interpreter run every
    // time.
    let session = Session::builder(sdfg.clone()).build().unwrap();
    for i in 0..4 {
        let inputs = Bindings::new()
            .symbol("N", n as i64)
            .array("A", &a)
            .array_vec("out", vec![0.0]);
        let got = session.run(inputs).expect("run").array("out").unwrap()[0];
        assert!(
            (got - want).abs() < 1e-9 * (1.0 + want.abs()),
            "run {i}: got {got}, want {want} — stale transient contents leaked"
        );
    }
    assert_eq!(
        session.pool_stats().reuses,
        3,
        "runs 2-4 recycle the transient"
    );

    // And it agrees with the reference interpreter.
    let mut it = Interpreter::new(&sdfg);
    it.set_symbol("N", n as i64);
    it.set_array("A", a);
    it.set_array("out", vec![0.0]);
    it.run().expect("interp");
    assert!((it.array("out")[0] - want).abs() < 1e-9 * (1.0 + want.abs()));
}

#[test]
fn shared_pool_recycles_across_executors() {
    let sdfg = with_transient();
    let pool = Arc::new(BufferPool::new());
    let n = 128usize;
    let a: Vec<f64> = (0..n).map(|x| x as f64 / 3.0).collect();
    let want: f64 = a.iter().map(|x| (x + 1.0) * (x + 1.0)).sum();
    for _ in 0..3 {
        let session = Session::builder(sdfg.clone())
            .buffer_pool(pool.clone())
            .build()
            .unwrap();
        let inputs = Bindings::new()
            .symbol("N", n as i64)
            .array("A", &a)
            .array_vec("out", vec![0.0]);
        let got = session.run(inputs).expect("run").array("out").unwrap()[0];
        assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()), "got {got}");
        // The end of the run releases the transient back to the pool.
    }
    let s = pool.stats();
    assert_eq!(s.acquires, 3, "one transient per session");
    assert_eq!(
        s.reuses, 2,
        "second and third session recycle the first's buffer"
    );
    assert!(s.bytes_reused >= 2 * n as u64 * 8);
}
