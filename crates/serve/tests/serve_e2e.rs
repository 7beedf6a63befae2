//! End-to-end test of the serving layer over a real TCP socket: two
//! tenants submit and invoke Polybench programs concurrently, sharing
//! one registry (and one plan cache); overflow is shed with 429; a
//! timed-out invoke comes back 504 without poisoning the registry; and
//! the `/metrics` endpoint passes the exposition validator.

use sdfg_core::node::MapScope;
use sdfg_core::sdfg::InterstateEdge;
use sdfg_core::serialize::{parse_json, to_json, Json};
use sdfg_core::{DType, Memlet, Sdfg, SymRange};
use sdfg_exec::{OptLevel, Session};
use sdfg_profile::metrics;
use sdfg_serve::{RegistryConfig, Server, ServerConfig};
use sdfg_workloads::polybench;
use sdfg_workloads::workload::Workload;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const SCALE: usize = 8;
const NTHREADS: usize = 2;

fn kernel(name: &str) -> Workload {
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel `{name}`"));
    (k.build)(SCALE)
}

/// A program that spins through interstate transitions for far longer
/// than any deadline used here: the bound is out of reach, and each
/// transition launches a 1024-point map, so the executor's 10 M
/// transition limit is tens of seconds away however cheap an empty
/// transition becomes. Only the wall-clock deadline stops it in time.
fn spin_sdfg() -> Sdfg {
    let mut s = Sdfg::new("spin");
    s.add_symbol("t");
    s.add_symbol("T");
    s.add_transient("buf", &["1024"], DType::F64);
    let a = s.add_state("body");
    {
        let st = s.state_mut(a);
        let (src, dst) = (st.add_access("buf"), st.add_access("buf"));
        let touch = MapScope::new("touch", vec!["i".into()], vec![SymRange::new(0, 1024)]);
        let (me, mx) = st.add_map(touch);
        let inc = st.add_tasklet("inc", &["x"], &["y"], "y = x + 1");
        st.add_edge(
            src,
            None,
            me,
            Some("IN_buf"),
            Memlet::parse("buf", "0:1024"),
        );
        st.add_edge(
            me,
            Some("OUT_buf"),
            inc,
            Some("x"),
            Memlet::parse("buf", "i"),
        );
        st.add_edge(
            inc,
            Some("y"),
            mx,
            Some("IN_buf"),
            Memlet::parse("buf", "i"),
        );
        st.add_edge(
            mx,
            Some("OUT_buf"),
            dst,
            None,
            Memlet::parse("buf", "0:1024"),
        );
    }
    s.add_transition(a, a, InterstateEdge::when("t < T").assign("t", "t + 1"));
    s
}

// ---------------------------------------------------------------------------
// A tiny blocking HTTP client (connection: close per request).
// ---------------------------------------------------------------------------

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes()).expect("write request");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let (head, resp_body) = text.split_once("\r\n\r\n").expect("header/body split");
    (status, head.to_string(), resp_body.to_string())
}

/// Builds an invoke body from a workload's symbols and arrays. `f64`
/// values are written in Rust's shortest round-trip representation, so
/// the server sees bitwise-identical inputs to a direct session run.
fn invoke_body(symbols: &[(String, i64)], arrays: &HashMap<String, Vec<f64>>) -> String {
    let mut out = String::from("{\"symbols\":{");
    for (i, (name, v)) in symbols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str("},\"arrays\":{");
    for (i, (name, data)) in arrays.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":["));
        for (j, x) in data.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{x}"));
        }
        out.push(']');
    }
    out.push_str("}}");
    out
}

fn submitted_hash(body: &str) -> String {
    let doc = parse_json(body).expect("submit response json");
    let Some(Json::Str(h)) = doc.get("program") else {
        panic!("no program handle in {body}");
    };
    h.clone()
}

fn output_arrays(body: &str) -> HashMap<String, Vec<f64>> {
    let doc = parse_json(body).expect("invoke response json");
    let Some(Json::Obj(outputs)) = doc.get("outputs") else {
        panic!("no outputs in {body}");
    };
    outputs
        .iter()
        .map(|(name, v)| {
            let Json::Arr(items) = v else {
                panic!("output `{name}` is not an array");
            };
            let data = items
                .iter()
                .map(|x| match x {
                    Json::Num(f) => *f,
                    other => panic!("output `{name}` holds {other:?}"),
                })
                .collect();
            (name.clone(), data)
        })
        .collect()
}

fn start_server(max_inflight: usize, queue_depth: usize, tenant_cap: usize) -> Server {
    Server::start(ServerConfig {
        port: 0,
        registry: RegistryConfig {
            opt: OptLevel::Aggressive,
            nthreads: NTHREADS,
            ..RegistryConfig::default()
        },
        max_inflight,
        queue_depth,
        tenant_cap,
        default_timeout_ms: 30_000,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn counter(name: &str) -> u64 {
    metrics::global().counter_value(name, &[]).unwrap_or(0)
}

/// The core multi-tenant flow: two tenants on concurrent threads submit
/// gemm and atax, the second identical submit is a registry hit, shared
/// plan-cache hits accumulate across tenants, and every invoke result is
/// bitwise identical to a direct `Session::run` at the same policy.
#[test]
fn two_tenants_share_one_registry_and_plan_cache() {
    let server = start_server(4, 16, 4);
    let addr = server.addr();

    let direct = |name: &str| -> HashMap<String, Vec<f64>> {
        let w = kernel(name);
        let session = Session::builder(w.sdfg.clone())
            .opt_level(OptLevel::Aggressive)
            .nthreads(NTHREADS)
            .build()
            .expect("direct session");
        let out = session.run(w.bindings()).expect("direct run");
        out.into_arrays()
    };

    let tenant_run = move |name: &'static str, api_key: &'static str| {
        let w = kernel(name);
        let program = to_json(&w.sdfg);
        let (status, _, body) = http(
            addr,
            "POST",
            "/v1/programs",
            &[("x-api-key", api_key)],
            program.as_bytes(),
        );
        assert!(
            status == 200 || status == 201,
            "{api_key} submit {name}: {status} {body}"
        );
        let handle = submitted_hash(&body);
        let invoke = invoke_body(&w.symbols, &w.arrays);
        let mut results = Vec::new();
        for _ in 0..3 {
            let (status, _, body) = http(
                addr,
                "POST",
                &format!("/v1/programs/{handle}/invoke"),
                &[("x-api-key", api_key)],
                invoke.as_bytes(),
            );
            assert_eq!(status, 200, "{api_key} invoke {name}: {body}");
            results.push(output_arrays(&body));
        }
        (handle, results, w.check.clone())
    };

    let plan_hits_before = counter("sdfg_plan_cache_hits_total");

    // Two tenants, two kernels, concurrently.
    let t1 = std::thread::spawn(move || tenant_run("gemm", "tenant-a"));
    let t2 = std::thread::spawn(move || tenant_run("atax", "tenant-b"));
    let (gemm_handle, gemm_results, gemm_check) = t1.join().expect("tenant-a");
    let (_, atax_results, atax_check) = t2.join().expect("tenant-b");

    // Every invoke result matches a direct Session::run bitwise.
    let want_gemm = direct("gemm");
    for got in &gemm_results {
        for name in &gemm_check {
            let (a, b) = (&got[name], &want_gemm[name]);
            assert_eq!(a.len(), b.len(), "gemm `{name}` length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "gemm `{name}`[{i}]: served {x} vs direct {y}"
                );
            }
        }
    }
    let want_atax = direct("atax");
    for got in &atax_results {
        for name in &atax_check {
            let (a, b) = (&got[name], &want_atax[name]);
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "atax `{name}` diverges");
            }
        }
    }

    // Warm invokes on the shared cache produced plan-cache hits.
    let plan_hits_after = counter("sdfg_plan_cache_hits_total");
    assert!(
        plan_hits_after > plan_hits_before,
        "warm invokes must hit the shared plan cache ({plan_hits_before} -> {plan_hits_after})"
    );

    // Tenant B resubmitting tenant A's program byte-identically is a
    // registry hit: same handle, `existing: true`, HTTP 200 (not 201).
    let gemm_again = to_json(&kernel("gemm").sdfg);
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/programs",
        &[("x-api-key", "tenant-b")],
        gemm_again.as_bytes(),
    );
    assert_eq!(status, 200, "identical resubmit must be a hit: {body}");
    assert_eq!(submitted_hash(&body), gemm_handle);
    assert!(body.contains("\"existing\":true"), "{body}");

    // The listing shows both programs with their usage counters.
    let (status, _, body) = http(addr, "GET", "/v1/programs", &[], b"");
    assert_eq!(status, 200);
    assert!(body.contains(&gemm_handle), "{body}");
    assert!(body.contains("\"submit_hits\":1"), "{body}");

    // /metrics passes the exposition validator and carries serve metrics.
    let (status, _, text) = http(addr, "GET", "/metrics", &[], b"");
    assert_eq!(status, 200);
    let families = metrics::validate_exposition(&text).expect("valid exposition");
    assert!(
        families.iter().any(|f| f == "sdfg_serve_requests_total"),
        "serve families missing from exposition"
    );
    assert!(text.contains("sdfg_plan_cache_hits_total"));

    // Both halves of the wire codec were timed for the invokes above.
    for family in ["sdfg_serve_decode_ms", "sdfg_serve_encode_ms"] {
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{family}_count ")))
            .unwrap_or_else(|| panic!("`{family}` missing from exposition"))
            .parse()
            .expect("histogram count");
        assert!(count > 0, "`{family}` observed nothing");
    }
}

/// Overflow and timeout behavior: with one execution slot and no queue,
/// a second invoke is shed with 429 + Retry-After while a slow program
/// holds the slot; the slow invoke itself dies at its deadline with 504;
/// and the registry keeps serving correct results afterwards.
#[test]
fn overflow_gets_429_and_timeout_gets_504_without_poisoning() {
    let server = start_server(1, 0, 4);
    let addr = server.addr();

    // Register the spinner and a real kernel.
    let spin = to_json(&spin_sdfg());
    let (status, _, body) = http(addr, "POST", "/v1/programs", &[], spin.as_bytes());
    assert_eq!(status, 201, "{body}");
    let spin_handle = submitted_hash(&body);

    let w = kernel("atax");
    let program = to_json(&w.sdfg);
    let (status, _, body) = http(addr, "POST", "/v1/programs", &[], program.as_bytes());
    assert_eq!(status, 201, "{body}");
    let atax_handle = submitted_hash(&body);
    let atax_invoke = invoke_body(&w.symbols, &w.arrays);

    // Occupy the only slot with the spinner under a 1.5 s deadline. The
    // loop bound is unreachable, so the deadline is the only way out.
    let spin_body =
        r#"{"symbols":{"t":0,"T":1099511627776},"timeout_ms":1500,"outputs":[]}"#.to_string();
    let slow = std::thread::spawn(move || {
        http(
            addr,
            "POST",
            &format!("/v1/programs/{spin_handle}/invoke"),
            &[("x-api-key", "tenant-slow")],
            spin_body.as_bytes(),
        )
    });

    // Give the slow invoke time to claim the slot, then overflow.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let (status, head, body) = http(
        addr,
        "POST",
        &format!("/v1/programs/{atax_handle}/invoke"),
        &[("x-api-key", "tenant-fast")],
        atax_invoke.as_bytes(),
    );
    assert_eq!(status, 429, "queue overflow must shed: {body}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after"),
        "429 must carry Retry-After: {head}"
    );

    // The slow invoke must come back as a typed 504, not hang or 500.
    let (status, _, body) = slow.join().expect("slow thread");
    assert_eq!(status, 504, "deadline must produce 504: {body}");
    assert!(body.contains("SDFG-X004"), "{body}");

    // The shared registry is not poisoned: the same atax program still
    // executes and matches a direct session bitwise.
    let (status, _, body) = http(
        addr,
        "POST",
        &format!("/v1/programs/{atax_handle}/invoke"),
        &[("x-api-key", "tenant-fast")],
        atax_invoke.as_bytes(),
    );
    assert_eq!(status, 200, "registry poisoned after timeout: {body}");
    let got = output_arrays(&body);
    let session = Session::builder(w.sdfg.clone())
        .opt_level(OptLevel::Aggressive)
        .nthreads(NTHREADS)
        .build()
        .expect("direct session");
    let want = session.run(w.bindings()).expect("direct run").into_arrays();
    for name in &w.check {
        for (x, y) in got[name].iter().zip(&want[name]) {
            assert_eq!(x.to_bits(), y.to_bits(), "`{name}` diverges after 504");
        }
    }
}

/// Malformed and oversized submissions produce typed 4xx errors with
/// position info, and unknown handles 404.
#[test]
fn bad_requests_get_typed_errors() {
    let server = start_server(2, 4, 2);
    let addr = server.addr();

    // Malformed JSON: a 400 whose message carries the byte position.
    let (status, _, body) = http(addr, "POST", "/v1/programs", &[], b"{\"name\": nope}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("SDFG-S002"), "{body}");
    assert!(body.contains("line 1"), "position info missing: {body}");

    // Unknown program handle.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/programs/0123456789abcdef/invoke",
        &[],
        b"{}",
    );
    assert_eq!(status, 404, "{body}");

    // Unknown array binding on a real program: typed SDFG-X002.
    let w = kernel("atax");
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/programs",
        &[],
        to_json(&w.sdfg).as_bytes(),
    );
    assert!(status == 200 || status == 201, "{body}");
    let handle = submitted_hash(&body);
    let (status, _, body) = http(
        addr,
        "POST",
        &format!("/v1/programs/{handle}/invoke"),
        &[],
        br#"{"arrays":{"no_such_container":[1.0]}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("SDFG-X002"), "{body}");

    // A body of nothing but `[`: a typed 400 from a bounded reader, not a
    // connection thread that overflows its stack and takes the server down.
    let deep = "[".repeat(1 << 18);
    for path in [
        "/v1/programs".to_string(),
        format!("/v1/programs/{handle}/invoke"),
    ] {
        let (status, _, body) = http(addr, "POST", &path, &[], deep.as_bytes());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("SDFG-S002"), "{body}");
        assert!(body.contains("nesting deeper than"), "{body}");
    }

    // Health endpoint stays green through all of it.
    let (status, _, body) = http(addr, "GET", "/healthz", &[], b"");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
}

/// A request head that never ends: 1 MiB of `x` with no newline. The
/// server stops reading at the 16 KiB head cap, answers 400 and closes;
/// no admission permit was ever taken.
#[test]
fn newline_less_head_gets_400_and_close() {
    let server = start_server(2, 4, 2);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    // The server closes mid-stream, so the writes may fail: that is the point.
    let flood = std::thread::spawn(move || {
        let chunk = [b'x'; 64 << 10];
        for _ in 0..16 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    // Returns only once the server has closed the connection (EOF, or a
    // reset because it closed with our flood unread).
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset,
            "connection must be closed, not left open: {e}"
        );
    }
    flood.join().expect("flood thread");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "got `{text}`");
    assert_eq!(server.inflight(), 0);

    // The server still answers.
    let (status, _, _) = http(server.addr(), "GET", "/healthz", &[], b"");
    assert_eq!(status, 200);
}
