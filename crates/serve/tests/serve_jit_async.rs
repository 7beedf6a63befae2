//! An invoke never holds its admission permit across a C compile: the
//! first invoke of a hot program answers on the interpreted tiers while
//! its kernels compile, and a later invoke runs them natively.
//!
//! The compiler is probed once per process and this binary's only test
//! sets `CC` first, so it has the binary to itself. Its fake compiler
//! holds every compile until the test opens a gate, then forwards to the
//! system one; without a system compiler the test has nothing to check and
//! returns.
#![cfg(unix)]

use sdfg_core::serialize::to_json;
use sdfg_exec::{jit, OptLevel};
use sdfg_profile::{ledger, metrics};
use sdfg_serve::{RegistryConfig, Server, ServerConfig};
use sdfg_workloads::polybench;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A compiler that sleeps until `gate` exists (30 s at most), then
/// forwards to the first system C compiler on `PATH`; the `--version`
/// probe is forwarded at once.
fn gated_compiler(gate: &std::path::Path) -> String {
    format!(
        "#!/bin/sh\n\
         if [ \"$1\" != --version ]; then\n\
           n=0\n\
           while [ ! -e '{}' ] && [ $n -lt 600 ]; do sleep 0.05; n=$((n + 1)); done\n\
         fi\n\
         for c in cc gcc clang; do\n\
           command -v \"$c\" >/dev/null 2>&1 && exec \"$c\" \"$@\"\n\
         done\n\
         exit 127\n",
        gate.display()
    )
}

/// One request on its own connection: `(status, head, body)`.
fn http(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.split_whitespace().nth(1).expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status.parse().unwrap(), head.to_string(), body.to_string())
}

fn header<'a>(head: &'a str, name: &str) -> &'a str {
    head.lines()
        .find_map(|l| l.strip_prefix(&format!("{name}: ")))
        .unwrap_or_else(|| panic!("no `{name}` header in {head}"))
}

#[test]
fn first_invoke_answers_before_its_compiler_finishes() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("sdfg-serve-jit-async-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("cache")).unwrap();
    let (cc, gate) = (dir.join("gated-cc"), dir.join("gate"));
    std::fs::write(&cc, gated_compiler(&gate)).unwrap();
    std::fs::set_permissions(&cc, std::fs::Permissions::from_mode(0o755)).unwrap();
    std::env::set_var("CC", &cc);
    std::env::set_var("SDFG_JIT_CACHE", dir.join("cache"));
    if !jit::env_enabled() || jit::cc().is_none() {
        return;
    }
    assert_eq!(jit::cc().unwrap().path, cc.to_str().unwrap());
    let ledger_path = dir.join("ledger.jsonl");
    ledger::set_path(Some(&ledger_path));

    let server = Server::start(ServerConfig {
        registry: RegistryConfig {
            opt: OptLevel::Aggressive,
            nthreads: 2,
            ..RegistryConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let k = polybench::all()
        .into_iter()
        .find(|k| k.name == "gemm")
        .unwrap();
    let w = (k.build)(24);
    let (status, _, body) = http(addr, "/v1/programs", to_json(&w.sdfg).as_bytes());
    assert_eq!(status, 201, "{body}");
    let handle = body
        .split("\"program\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("program handle");
    let mut invoke = String::from("{\"symbols\":{");
    let symbols: Vec<String> = w
        .symbols
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect();
    invoke.push_str(&symbols.join(","));
    invoke.push_str("},\"arrays\":{");
    let arrays: Vec<String> = w
        .arrays
        .iter()
        .map(|(n, data)| {
            let items: Vec<String> = data.iter().map(|x| format!("{x}")).collect();
            format!("\"{n}\":[{}]", items.join(","))
        })
        .collect();
    invoke.push_str(&arrays.join(","));
    invoke.push_str("}}");
    let path = format!("/v1/programs/{handle}/invoke");

    // The first invoke requests every kernel and answers without one:
    // no compiler can finish before the gate opens.
    let (status, _, first) = http(addr, &path, invoke.as_bytes());
    assert_eq!(status, 200, "{first}");
    assert_eq!(
        jit::stats().compiles,
        0,
        "the first invoke waited for a compiler"
    );
    assert_eq!(metrics::serve().inflight.get(), 0);
    assert_eq!(server.inflight(), 0);

    // Once the compiles have finished, an invoke runs natively — and
    // computes exactly what the interpreted one did.
    std::fs::write(&gate, b"").unwrap();
    jit::wait_idle();
    assert!(jit::stats().compiles > 0, "nothing compiled");
    let (status, head, later) = http(addr, &path, invoke.as_bytes());
    assert_eq!(status, 200, "{later}");
    let results = |body: &str| body.split(",\"wall_ms\"").next().unwrap().to_string();
    assert_eq!(results(&first), results(&later), "tiers disagree");
    ledger::set_path(None);

    // The ledger's JIT point count is `nest_points` (every JIT point runs
    // inside a nest kernel).
    let request = format!("\"request_id\":\"{}\"", header(&head, "x-request-id"));
    let text = std::fs::read_to_string(&ledger_path).expect("ledger written");
    let record = text
        .lines()
        .find(|l| l.contains(&request))
        .unwrap_or_else(|| panic!("no ledger record for {request}:\n{text}"));
    let rec = sdfg_core::serialize::parse_json(record).unwrap();
    assert!(rec.num_field("nest_points").unwrap() > 0.0, "{record}");
    let _ = std::fs::remove_dir_all(&dir);
}
