//! Concurrent sessions share one compiled JIT artifact.
//!
//! This lives in its own test binary (its own process) because the JIT
//! compile counters are process-global: here they are touched only by
//! this test, so the "exactly one compilation" assertion is exact.

use sdfg_exec::jit;
use sdfg_workloads::polybench;

#[test]
fn concurrent_invokes_share_one_compiled_artifact() {
    if jit::cc().is_none() {
        return; // no system C compiler: nothing to share
    }
    // A private, empty artifact cache: every kernel this process needs is
    // compiled here, so artifacts on disk count distinct kernels exactly.
    // (Single-threaded at this point; `cache_dir` is read per compile.)
    let cache = std::env::temp_dir().join(format!("sdfg-jit-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::env::set_var("SDFG_JIT_CACHE", &cache);
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == "gemm")
        .unwrap();
    let w = (k.build)(24);
    let session = w.session().build().unwrap();
    let before = jit::stats();
    let outs: Vec<_> = std::thread::scope(|s| {
        (0..8)
            .map(|_| s.spawn(|| session.run(w.bindings()).unwrap()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let after_cold = jit::stats();
    let cold = after_cold.compiles - before.compiles;
    let artifacts = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
        .count() as u64;
    // gemm lowers a handful of map bodies (the beta scale, the
    // contraction); eight concurrent cold invokes must compile each
    // exactly once and share the handle. If the registry failed to dedup,
    // racing threads would compile the same source again (more compiles
    // than artifacts).
    assert!(cold >= 1, "no kernel was JIT-compiled");
    assert_eq!(
        cold, artifacts,
        "concurrent invokes ran {cold} compiles for {artifacts} distinct kernels \
         — registry dedup failed"
    );
    for o in &outs {
        assert!(
            o.stats().jit_points > 0,
            "invoke did not reach the JIT tier"
        );
    }
    // And every invoke saw bit-identical results.
    let first = outs[0].array("C").unwrap();
    for o in &outs[1..] {
        let c = o.array("C").unwrap();
        assert!(
            first.iter().zip(c).all(|(a, b)| a.to_bits() == b.to_bits()),
            "concurrent invokes diverged"
        );
    }

    // A second session (private plan cache) lowers the same maps again:
    // every kernel must hit the in-process registry, compiling nothing.
    let session2 = w.session().build().unwrap();
    let o = session2.run(w.bindings()).unwrap();
    assert!(
        o.stats().jit_points > 0,
        "second session missed the JIT tier"
    );
    assert_eq!(
        jit::stats().compiles,
        after_cold.compiles,
        "a second session recompiled an already-shared artifact"
    );
    let _ = std::fs::remove_dir_all(&cache);
}
