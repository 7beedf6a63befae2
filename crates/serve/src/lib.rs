//! # sdfg-serve — SDFG-as-a-service
//!
//! A long-running, multi-tenant execution server over the
//! compile-once/invoke-many [`Session`](sdfg_exec::Session) API. Tenants
//! `POST` a serialized SDFG once and get back a content-hash handle; the
//! program is validated and optimized at submit time, and every
//! subsequent invoke binds inputs, runs, and streams outputs back — no
//! per-request compilation. All resident programs share one plan cache,
//! buffer pool and work-stealing scheduler pool, so
//! tenants transparently benefit from each other's warmed state.
//!
//! The wire protocol is deliberately small (std-only HTTP/1.1 with
//! keep-alive, thread-per-connection):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/programs` | submit a serialized SDFG → `{"program": "<hash>"}` |
//! | `POST /v1/programs/{hash}/invoke` | bind inputs, execute, return outputs |
//! | `GET /v1/programs` | registry listing with per-program usage stats |
//! | `GET /metrics` | Prometheus exposition (the process-global registry) |
//! | `GET /healthz` | liveness probe |
//!
//! Robustness: invokes pass a bounded admission queue (overflow is shed
//! with `429` + `Retry-After`), each tenant (`x-api-key` header) has an
//! in-flight cap, and every invoke carries a wall-clock deadline that
//! cancels the run between SDFG states (`504`, registry unharmed). Every
//! request lands in the run ledger tagged with tenant and request id.

pub mod admission;
pub mod http;
pub mod registry;
mod wire;

pub use admission::{Admission, Permit, Reject};
pub use registry::{ProgramEntry, Registry, RegistryConfig, Submitted};

use http::{ParseError, Request, Response};
use sdfg_core::serialize::json_escape;
use sdfg_core::SdfgError;
use sdfg_profile::{ledger, metrics};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the server needs to start; `Default` is a sane
/// single-machine configuration on an ephemeral port.
pub struct ServerConfig {
    /// Port to bind on `127.0.0.1` (0 = ephemeral, see
    /// [`Server::addr`]).
    pub port: u16,
    /// Execution policy for registered programs.
    pub registry: RegistryConfig,
    /// Maximum concurrently executing invokes.
    pub max_inflight: usize,
    /// Invokes allowed to queue beyond the cap before shedding with 429.
    pub queue_depth: usize,
    /// Per-tenant running + queued invoke cap.
    pub tenant_cap: usize,
    /// Default invoke deadline when the request names none, ms.
    pub default_timeout_ms: u64,
    /// Request body cap for invoke payloads, bytes.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            port: 0,
            registry: RegistryConfig::default(),
            max_inflight: 4,
            queue_depth: 16,
            tenant_cap: 4,
            default_timeout_ms: 30_000,
            max_body_bytes: 64 << 20,
        }
    }
}

/// A running server: accept loop on its own thread, one thread per
/// connection. Dropping it stops accepting new connections.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving. With `port` 0 the OS picks an ephemeral
    /// port; read it back from [`Server::addr`].
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new(config.registry));
        let admission = Admission::new(config.max_inflight, config.queue_depth, config.tenant_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            registry: Arc::clone(&registry),
            admission: Arc::clone(&admission),
            default_timeout_ms: config.default_timeout_ms,
            max_body_bytes: config.max_body_bytes,
            request_seq: AtomicU64::new(0),
        });
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("sdfg-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    let _ = std::thread::Builder::new()
                        .name("sdfg-serve-conn".into())
                        .spawn(move || handle_connection(stream, &shared));
                }
            })?;
        Ok(Server {
            addr,
            registry,
            admission,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved port for ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared program registry (for embedding and tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Running + queued invokes right now.
    pub fn inflight(&self) -> usize {
        self.admission.inflight()
    }

    /// Stops accepting connections and joins the accept thread.
    /// In-flight requests on already-accepted connections complete.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-server state every connection thread sees.
struct Shared {
    registry: Arc<Registry>,
    admission: Arc<Admission>,
    default_timeout_ms: u64,
    max_body_bytes: usize,
    request_seq: AtomicU64,
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut stream = stream;
    loop {
        let req = match http::read_request(&mut reader, shared.max_body_bytes) {
            Ok(req) => req,
            Err(ParseError::Eof) | Err(ParseError::Io(_)) => return,
            Err(ParseError::Bad(msg)) => {
                let resp = error_response(400, "SDFG-H400", &msg);
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
            Err(ParseError::TooLarge { limit, got }) => {
                let err = SdfgError::PayloadTooLarge { limit, got };
                let resp = error_response(413, err.code(), &err.to_string());
                let _ = http::write_response(&mut stream, &resp, false);
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let resp = route(&req, shared);
        match http::write_response(&mut stream, &resp, keep_alive) {
            Ok(true) => continue,
            _ => return,
        }
    }
}

fn route(req: &Request, shared: &Shared) -> Response {
    let m = metrics::serve();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            m.requests_other.inc();
            Response::text(200, "ok\n")
        }
        ("GET", "/metrics") => {
            m.requests_other.inc();
            Response::text(200, metrics::global().render_prometheus())
        }
        ("GET", "/v1/programs") => {
            m.requests_other.inc();
            list_programs(shared)
        }
        ("POST", "/v1/programs") => {
            m.requests_submit.inc();
            submit(req, shared)
        }
        ("POST", path) => match invoke_target(path) {
            Some(hash_str) => {
                m.requests_invoke.inc();
                invoke(req, shared, hash_str)
            }
            None => {
                m.requests_other.inc();
                error_response(404, "SDFG-H404", &format!("no route for `{path}`"))
            }
        },
        (_, path) => {
            m.requests_other.inc();
            error_response(
                405,
                "SDFG-H405",
                &format!("method {} not supported on `{path}`", req.method),
            )
        }
    }
}

/// Matches `/v1/programs/{hash}/invoke` and returns the hash segment.
fn invoke_target(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/v1/programs/")?;
    let (hash, tail) = rest.split_once('/')?;
    (tail == "invoke" && !hash.is_empty()).then_some(hash)
}

fn tenant_of(req: &Request) -> String {
    req.header("x-api-key")
        .filter(|k| !k.is_empty())
        .unwrap_or("anonymous")
        .to_string()
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

fn submit(req: &Request, shared: &Shared) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return error_response(400, "SDFG-S002", "request body is not UTF-8");
    };
    match shared.registry.submit(body) {
        Ok(sub) => {
            let status = if sub.existing { 200 } else { 201 };
            Response::json(
                status,
                format!(
                    "{{\"program\":\"{:016x}\",\"name\":\"{}\",\"existing\":{}}}",
                    sub.hash,
                    json_escape(&sub.name),
                    sub.existing
                ),
            )
        }
        Err(err) => sdfg_error_response(&err),
    }
}

fn list_programs(shared: &Shared) -> Response {
    let mut out = String::from("{\"programs\":[");
    for (i, (hash, name, invokes, errors, submit_hits, avg_ms)) in
        shared.registry.list().into_iter().enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"program\":\"{hash:016x}\",\"name\":\"{}\",\"invokes\":{invokes},\
             \"errors\":{errors},\"submit_hits\":{submit_hits},\"avg_ms\":{avg_ms}}}",
            json_escape(&name),
        ));
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn invoke(req: &Request, shared: &Shared, hash_str: &str) -> Response {
    let m = metrics::serve();
    let Ok(hash) = u64::from_str_radix(hash_str, 16) else {
        return error_response(
            400,
            "SDFG-H400",
            &format!("`{hash_str}` is not a program handle (16 hex digits)"),
        );
    };
    let Some(entry) = shared.registry.get(hash) else {
        return error_response(
            404,
            "SDFG-H404",
            &format!("no program {hash:016x} registered"),
        );
    };
    let t_decode = Instant::now();
    let decoded = wire::decode_invoke_body(&req.body);
    m.decode_ms.observe(t_decode.elapsed().as_secs_f64() * 1e3);
    let (bindings, timeout_ms, outputs_filter) = match decoded {
        Ok(parts) => parts,
        Err(msg) => return error_response(400, "SDFG-S002", &msg),
    };
    let tenant = tenant_of(req);
    let request_id = format!(
        "req-{}",
        shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1
    );
    let timeout = Duration::from_millis(timeout_ms.unwrap_or(shared.default_timeout_ms));
    let deadline = Instant::now() + timeout;

    m.inflight.add(1);
    let t0 = Instant::now();
    let result = (|| {
        let _permit = match shared.admission.admit(&tenant, deadline) {
            Ok(p) => p,
            Err(reject) => return Err(reject_response(reject)),
        };
        // The permit may have been granted with part of the budget spent
        // queueing; the run gets only what remains.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            m.rejected_timeout.inc();
            let err = SdfgError::Timeout {
                ms: timeout.as_millis() as u64,
            };
            return Err(sdfg_error_response(&err));
        }
        let _scope = ledger::request_scope(&tenant, &request_id);
        entry.invoke(bindings, Some(remaining)).map_err(|err| {
            if matches!(err, SdfgError::Timeout { .. }) {
                m.rejected_timeout.inc();
            }
            sdfg_error_response(&err)
        })
    })();
    m.inflight.add(-1);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    m.request_duration_ms.observe(wall_ms);

    let out = match result {
        Ok(out) => out,
        Err(resp) => return resp.with_header("x-request-id", request_id),
    };
    let t_encode = Instant::now();
    let encoded = wire::encode_outputs(hash, &out.into_arrays(), outputs_filter.as_deref());
    m.encode_ms.observe(t_encode.elapsed().as_secs_f64() * 1e3);
    let resp = match encoded {
        Ok(mut body) => {
            body.push_str(&format!(",\"wall_ms\":{wall_ms}}}"));
            Response::json(200, body)
        }
        Err(err) => sdfg_error_response(&err),
    };
    resp.with_header("x-request-id", request_id)
}

fn reject_response(reject: Reject) -> Response {
    let m = metrics::serve();
    match reject {
        Reject::QueueFull => {
            m.rejected_queue.inc();
            error_response(429, "SDFG-H429", "admission queue is full; retry shortly")
                .with_header("retry-after", "1".into())
        }
        Reject::TenantCap => {
            m.rejected_tenant.inc();
            error_response(
                429,
                "SDFG-H429",
                "tenant in-flight cap reached; retry shortly",
            )
            .with_header("retry-after", "1".into())
        }
        Reject::Timeout => {
            m.rejected_timeout.inc();
            error_response(
                504,
                "SDFG-X004",
                "deadline expired while queued for admission",
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Error bodies (the invoke codec is in `wire`)
// ---------------------------------------------------------------------------

fn error_response(status: u16, code: &str, message: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\"}}}}",
            json_escape(code),
            json_escape(message)
        ),
    )
}

/// Maps a typed engine error onto an HTTP status: client-side defects
/// (bad graph, unknown data, shape mismatch, malformed payload) are 4xx,
/// deadline expiry is 504, anything else is the server's fault.
fn sdfg_error_response(err: &SdfgError) -> Response {
    let status = match err {
        SdfgError::PayloadTooLarge { .. } => 413,
        SdfgError::Timeout { .. } => 504,
        SdfgError::Serialize { .. }
        | SdfgError::Validation { .. }
        | SdfgError::UnknownData { .. }
        | SdfgError::ShapeMismatch { .. } => 400,
        _ => 500,
    };
    error_response(status, err.code(), &err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_target_parses() {
        assert_eq!(
            invoke_target("/v1/programs/00ff00ff00ff00ff/invoke"),
            Some("00ff00ff00ff00ff")
        );
        assert_eq!(invoke_target("/v1/programs/abc"), None);
        assert_eq!(invoke_target("/v1/programs//invoke"), None);
        assert_eq!(invoke_target("/v1/other/abc/invoke"), None);
    }
}
