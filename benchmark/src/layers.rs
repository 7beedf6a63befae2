//! Per-layer probes that do not depend on the workload's traffic: direct,
//! timed calls into each layer's public functions on the workload's own
//! programs and on a real request for them.

use crate::programs::{Program, Spec};
use crate::serve::{self, Client};
use crate::spans::Recorder;
use crate::stats::median;
use crate::Metrics;
use sdfg_core::serialize::{content_hash, from_json, parse_json_limited, to_json};
use sdfg_exec::OptLevel;
use sdfg_serve::http::{self, Response};
use sdfg_serve::{Admission, Registry, RegistryConfig, Server, ServerConfig};
use std::hint::black_box;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Times of the steps between source and a runnable graph, for one program.
#[derive(Clone, Copy, Default)]
pub struct Chain {
    pub build_ms: f64,
    pub from_json_ms: f64,
    pub validate_ms: f64,
    pub content_hash_ms: f64,
    pub optimize_ms: f64,
    pub passes_applied: f64,
    pub nodes_after: f64,
}

/// A per-layer metric name and the [`Chain`] field it reports.
pub type ChainMetric = (&'static str, fn(&Chain) -> f64);

pub const CHAIN_METRICS: [ChainMetric; 7] = [
    ("frontend.build_ms", |c| c.build_ms),
    ("core.from_json_ms", |c| c.from_json_ms),
    ("core.validate_ms", |c| c.validate_ms),
    ("core.content_hash_ms", |c| c.content_hash_ms),
    ("transforms.optimize_ms", |c| c.optimize_ms),
    ("transforms.passes_applied", |c| c.passes_applied),
    ("transforms.nodes_after", |c| c.nodes_after),
];

/// Builds a program and walks its graph through serialization, validation,
/// hashing and the optimization pipeline (on a clone, under the program's
/// own symbol bindings), one span per step.
pub fn compile_chain(
    spec: Spec,
    seed: u64,
    parent: Option<usize>,
    op: u64,
    rec: &mut Recorder,
) -> Result<(Program, Chain), String> {
    let mut c = Chain::default();
    let (p, ms) = rec.time("frontend.build", parent, op, || Program::build(spec, seed));
    c.build_ms = ms;
    let text = to_json(&p.w.sdfg);
    let (parsed, ms) = rec.time("core.from_json", parent, op, || from_json(&text));
    let parsed = parsed.map_err(|e| format!("{}: from_json: {e}", p.label))?;
    c.from_json_ms = ms;
    let (valid, ms) = rec.time("core.validate", parent, op, || sdfg_core::validate(&parsed));
    valid.map_err(|e| format!("{}: validate: {e:?}", p.label))?;
    c.validate_ms = ms;
    c.content_hash_ms = rec
        .time("core.content_hash", parent, op, || {
            black_box(content_hash(&parsed))
        })
        .1;
    let mut clone = parsed;
    let env = p.w.bindings().symbols().clone();
    let (report, ms) = rec.time("transforms.optimize", parent, op, || {
        sdfg_transforms::optimize_with_env(&mut clone, OptLevel::Aggressive, &env)
    });
    let report = report.map_err(|e| format!("{}: optimize: {e}", p.label))?;
    c.optimize_ms = ms;
    c.passes_applied = (report.strict_applied + report.heuristic_applied) as f64;
    c.nodes_after = report.nodes_after as f64;
    Ok((p, c))
}

/// Sets the chain metrics from samples: per sample the sum over the
/// workload's programs, then the median over samples.
pub fn set_chain_metrics(samples: &[Vec<Chain>], per_op: f64, m: &mut Metrics) {
    for (name, field) in CHAIN_METRICS {
        let sums: Vec<f64> = samples
            .iter()
            .map(|chains| chains.iter().map(field).sum::<f64>() * per_op)
            .collect();
        m.set(name, median(&sums));
    }
}

/// Runs `f` until `seconds` have passed, at least three times, and returns
/// the median of what it reports.
fn repeat(seconds: f64, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        samples.push(f()?);
    }
    Ok(median(&samples))
}

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let near = TcpStream::connect(listener.local_addr()?)?;
    let (far, _) = listener.accept()?;
    Ok((near, far))
}

/// The serve layers on a real request for `p`: HTTP read and write over a
/// loopback socket, JSON decode, registry submit and direct invoke,
/// admission. Returns `(overhead_ms, rejected)` of a few full round trips
/// through a real server: the time over what it reports as its own
/// `wall_ms`, and the 429/504 count.
pub fn serve_probe(p: &Program, seconds: f64, m: &mut Metrics) -> Result<(f64, u64), String> {
    let io = |e: std::io::Error| format!("serve probe: {e}");
    let each = seconds / 6.0;
    let body = serve::encode_request(p);
    let mb = body.len() as f64 / 1e6;
    let mut request = serve::request_head("/v1/programs/0/invoke", "probe", body.len());
    request.extend_from_slice(&body);

    // http::read_request from a socket a feeder thread keeps full.
    let (near, far) = loopback_pair().map_err(io)?;
    let read_mb_s = std::thread::scope(|scope| {
        let feeder = scope.spawn(move || {
            let mut near = near;
            while near.write_all(&request).is_ok() {}
        });
        let mut reader = BufReader::new(far);
        let rate = repeat(each, || {
            let t0 = Instant::now();
            let req = http::read_request(&mut reader, usize::MAX)
                .map_err(|_| "serve probe: read_request failed".to_string())?;
            let dt = t0.elapsed().as_secs_f64();
            black_box(&req.body);
            Ok(mb / dt)
        });
        // Closing our end makes the feeder's next write fail.
        drop(reader);
        feeder.join().expect("feeder thread");
        rate
    })?;
    m.set("serve.http.read_mb_s", read_mb_s);

    // http::write_response into a socket a drain thread keeps empty.
    let (near, mut far) = loopback_pair().map_err(io)?;
    let response = Response::json(200, body.clone());
    let write_mb_s = std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            let mut near = near;
            let mut sink = vec![0u8; 1 << 16];
            while matches!(near.read(&mut sink), Ok(n) if n > 0) {}
        });
        let rate = repeat(each, || {
            let t0 = Instant::now();
            http::write_response(&mut far, &response, true).map_err(io)?;
            Ok(mb / t0.elapsed().as_secs_f64())
        });
        drop(far);
        drain.join().expect("drain thread");
        rate
    })?;
    m.set("serve.http.write_mb_s", write_mb_s);

    let text = std::str::from_utf8(&body).expect("request bodies are UTF-8");
    let parse_mb_s = repeat(each, || {
        let t0 = Instant::now();
        let doc = parse_json_limited(text, usize::MAX)?;
        let dt = t0.elapsed().as_secs_f64();
        black_box(&doc);
        Ok(mb / dt)
    })?;
    m.set("core.parse_json_mb_s", parse_mb_s);

    // Registry: first and repeated submit, then invoke without HTTP.
    let graph = to_json(&p.w.sdfg);
    let mut existing_ms = Vec::new();
    let mut registry = None;
    let new_ms = repeat(each / 2.0, || {
        let r = Registry::new(RegistryConfig::default());
        let t0 = Instant::now();
        r.submit(&graph).map_err(|e| format!("submit: {e}"))?;
        let t1 = Instant::now();
        r.submit(&graph).map_err(|e| format!("submit: {e}"))?;
        existing_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        registry = Some(r);
        Ok((t1 - t0).as_secs_f64() * 1e3)
    })?;
    m.set("serve.registry.submit_new_ms", new_ms);
    m.set("serve.registry.submit_existing_ms", median(&existing_ms));
    let registry = registry.expect("submitted at least once");
    let entry = registry
        .get(content_hash(&p.w.sdfg))
        .ok_or("serve probe: submitted program not resident")?;
    entry
        .invoke(p.w.bindings(), None)
        .map_err(|e| format!("direct invoke: {e}"))?;
    let invoke_ms = repeat(each / 2.0, || {
        let bindings = p.w.bindings();
        let t0 = Instant::now();
        let out = entry
            .invoke(bindings, None)
            .map_err(|e| format!("direct invoke: {e}"))?;
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        black_box(out.arrays());
        Ok(dt)
    })?;
    m.set("serve.registry.direct_invoke_ms", invoke_ms);

    let defaults = ServerConfig::default();
    let admission = Admission::new(
        defaults.max_inflight,
        defaults.queue_depth,
        defaults.tenant_cap,
    );
    let deadline = Instant::now() + Duration::from_secs(3600);
    let admit_ns = repeat(each / 2.0, || {
        const BATCH: u32 = 1000;
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let permit = admission
                .admit("probe", deadline)
                .map_err(|e| format!("admit: {e:?}"))?;
            drop(black_box(permit));
        }
        Ok(t0.elapsed().as_nanos() as f64 / BATCH as f64)
    })?;
    m.set("serve.admission.admit_ns", admit_ns);

    // Round trip through a real server against its own `wall_ms`.
    let mut server = Server::start(defaults).map_err(io)?;
    let mut client = Client::connect(server.addr(), "probe").map_err(io)?;
    let path = format!("/v1/programs/{}/invoke", serve::submit(&mut client, p)?);
    client.post(&path, &body).map_err(io)?;
    let mut rejected = 0u64;
    let overhead_ms = repeat(each, || {
        let t0 = Instant::now();
        let reply = client.post(&path, &body).map_err(io)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rejected += u64::from(reply.status == 429 || reply.status == 504);
        let (_, wall_ms) = serve::split_wall_ms(&reply.body)
            .ok_or_else(|| format!("serve probe: HTTP {}", reply.status))?;
        Ok(ms - wall_ms)
    })?;
    drop(client);
    server.shutdown();
    Ok((overhead_ms, rejected))
}
