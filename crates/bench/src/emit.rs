//! The `harness emit-sdfg` / `harness emit-invoke` modes: print a
//! Polybench kernel's serialized SDFG, or an invoke-request body with
//! the kernel's input bindings, as JSON on stdout. CI's `serve-smoke`
//! step uses the pair to drive a live `sdfg-serve` instance with plain
//! `curl` — submit the emitted graph, invoke it with the emitted body —
//! so the scraped `/metrics` exposition and run ledger carry a real
//! request before `obs-check` validates them.

use sdfg_workloads::polybench;

/// Serializes the named kernel's SDFG at the given scale.
pub fn emit_sdfg(kernel: &str, scale: usize) -> Result<String, String> {
    let w = build(kernel, scale)?;
    Ok(sdfg_core::serialize::to_json(&w.sdfg))
}

/// Builds an invoke-request body (`{"symbols": {..}, "arrays": {..}}`)
/// carrying the named kernel's input bindings at the given scale.
/// Floats use Rust's shortest round-trip representation, so the server
/// rebuilds bitwise-identical inputs.
pub fn emit_invoke(kernel: &str, scale: usize) -> Result<String, String> {
    let w = build(kernel, scale)?;
    let b = w.bindings();
    let mut out = String::from("{\n  \"symbols\": {");
    let mut symbols: Vec<_> = b.symbols().iter().collect();
    symbols.sort();
    for (i, (name, value)) in symbols.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {value}"));
    }
    out.push_str("},\n  \"arrays\": {");
    let mut arrays: Vec<_> = b.arrays().iter().collect();
    arrays.sort_by(|a, b| a.0.cmp(b.0));
    for (i, (name, data)) in arrays.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": "));
        sdfg_core::serialize::write_f64_array(&mut out, data);
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

fn build(kernel: &str, scale: usize) -> Result<sdfg_workloads::workload::Workload, String> {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == kernel)
        .ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
    Ok((k.build)(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfg_core::serialize::{content_hash, from_json, parse_json};

    /// The emitted graph deserializes to the same content hash the
    /// server will key the program under.
    #[test]
    fn emitted_sdfg_round_trips_with_stable_hash() {
        let src = emit_sdfg("atax", 8).unwrap();
        let sdfg = from_json(&src).expect("emitted graph parses");
        let w = build("atax", 8).unwrap();
        assert_eq!(content_hash(&sdfg), content_hash(&w.sdfg));
    }

    /// The emitted invoke body is valid JSON carrying every input
    /// binding of the kernel.
    #[test]
    fn emitted_invoke_body_carries_all_bindings() {
        let src = emit_invoke("atax", 8).unwrap();
        let doc = parse_json(&src).expect("emitted body parses");
        let w = build("atax", 8).unwrap();
        let b = w.bindings();
        let symbols = doc.obj_field("symbols").expect("symbols object");
        assert_eq!(symbols.len(), b.symbols().len());
        let arrays = doc.obj_field("arrays").expect("arrays object");
        assert_eq!(arrays.len(), b.arrays().len());
        for (name, data) in b.arrays() {
            let (_, v) = arrays
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("array `{name}` missing"));
            let sdfg_core::serialize::Json::Arr(items) = v else {
                panic!("array `{name}` is not a JSON array");
            };
            assert_eq!(items.len(), data.len());
        }
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        assert!(emit_sdfg("nope", 8).is_err());
        assert!(emit_invoke("nope", 8).is_err());
    }
}
