//! The two serve workloads: an in-process `sdfg_serve::Server` driven over
//! loopback HTTP by closed-loop keep-alive clients, one tenant each.

use crate::gen::Rng;
use crate::host;
use crate::json::{parse_json, Json};
use crate::programs::{Program, Spec};
use crate::spans::{now_ns, Recorder};
use crate::sweep::{Phase, Warm};
use sdfg_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Request bodies per program, drawn from by the clients.
const POOL: usize = 4;

/// A keep-alive HTTP/1.1 client, just enough for the server's protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    key: String,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the request had been written in full.
    pub sent_ns: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr, key: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            key: key.to_string(),
        })
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        self.writer
            .write_all(&request_head(path, &self.key, body.len()))?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        let sent_ns = now_ns();
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            sent_ns,
        })
    }
}

pub fn request_head(path: &str, key: &str, length: usize) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\nx-api-key: {key}\r\n\
         content-type: application/json\r\ncontent-length: {length}\r\n\r\n"
    )
    .into_bytes()
}

/// The invoke body for a program's current inputs: every symbol and array,
/// arrays in name order, floats in shortest round-trip form.
pub fn encode_request(p: &Program) -> Vec<u8> {
    let mut out = String::from("{\"symbols\":{");
    for (i, (name, value)) in p.w.symbols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str("},\"arrays\":{");
    let mut names: Vec<&String> = p.w.arrays.keys().collect();
    names.sort();
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":["));
        for (j, x) in p.w.arrays[name].iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{x}"));
        }
        out.push(']');
    }
    out.push_str("}}");
    out.into_bytes()
}

const WALL_KEY: &[u8] = b",\"wall_ms\":";

/// Splits a 200 invoke response into the deterministic part (program and
/// outputs) and the server-side `wall_ms` that follows it.
pub fn split_wall_ms(body: &[u8]) -> Option<(&[u8], f64)> {
    let tail_from = body.len().saturating_sub(64);
    let at = tail_from
        + body[tail_from..]
            .windows(WALL_KEY.len())
            .rposition(|w| w == WALL_KEY)?;
    let number = std::str::from_utf8(&body[at + WALL_KEY.len()..body.len() - 1]).ok()?;
    Some((&body[..at], number.parse().ok()?))
}

/// Word-at-a-time FNV-style hash: cheap enough to check every response.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))).wrapping_mul(0x100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Submits a program over HTTP and returns its handle.
pub fn submit(client: &mut Client, p: &Program) -> Result<String, String> {
    let reply = client
        .post(
            "/v1/programs",
            sdfg_core::serialize::to_json(&p.w.sdfg).as_bytes(),
        )
        .map_err(|e| format!("submit {}: {e}", p.label))?;
    let text = String::from_utf8_lossy(&reply.body).into_owned();
    if reply.status != 200 && reply.status != 201 {
        return Err(format!("submit {}: HTTP {} {text}", p.label, reply.status));
    }
    let doc = parse_json(&text)?;
    Ok(doc.str_field("program")?.to_string())
}

/// Server, programs and clients, warm and verified.
pub struct Serve {
    pub warm: Warm,
    server: Server,
    seed: u64,
    paths: Vec<String>,
    /// `[program][variant]`
    bodies: Vec<Vec<Vec<u8>>>,
    /// Hash of the deterministic part of the first response per body; every
    /// later response must match it.
    expected: Vec<Vec<u64>>,
    /// The first response per body, checked against a direct `Session::run`
    /// after the timed phase.
    saved: Vec<Vec<Vec<u8>>>,
    clients: Vec<Client>,
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientPhase {
    op_ms: Vec<f64>,
    op_end_s: Vec<f64>,
    overhead_ms: Vec<f64>,
    failed: u64,
    rejected: u64,
    rec: Recorder,
}

pub struct ServePhase {
    pub phase: Phase,
    pub rejected: u64,
    /// Round trip minus the response's `wall_ms`, per successful op.
    pub overhead_ms: Vec<f64>,
    /// Of the server's shared plan cache and buffer pool, over the phase.
    pub plan_hit_rate: f64,
    pub pool_reuse_rate: f64,
}

impl Serve {
    /// Direct sessions first (reference check, compile from the empty
    /// cache), then server start, submit, body encoding, client connects,
    /// and one invoke per body and connection.
    pub fn setup(
        specs: &[Spec],
        seed: u64,
        chain: bool,
        rec: &mut Recorder,
    ) -> Result<Serve, String> {
        let mut warm = Warm::setup(specs, seed, host::engine_threads(), chain, rec)?;
        let (server, _) = rec.time("serve.start", None, 0, || {
            Server::start(ServerConfig::default())
        });
        let server = server.map_err(|e| format!("server start: {e}"))?;
        let mut clients = (0..host::client_threads())
            .map(|i| Client::connect(server.addr(), &format!("tenant-{i}")))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let t0 = now_ns();
        let mut paths = Vec::new();
        for p in &warm.programs {
            paths.push(format!(
                "/v1/programs/{}/invoke",
                submit(&mut clients[0], p)?
            ));
        }
        rec.push("serve.submit", t0, now_ns(), None, 0, 0);
        let t0 = now_ns();
        let mut bodies = Vec::new();
        for p in &mut warm.programs {
            let pool: Vec<Vec<u8>> = (0..POOL)
                .map(|variant| {
                    p.seed_inputs(seed, variant);
                    encode_request(p)
                })
                .collect();
            p.seed_inputs(seed, 0);
            bodies.push(pool);
        }
        rec.push("serve.encode_bodies", t0, now_ns(), None, 0, 0);
        let t0 = now_ns();
        let mut expected = vec![vec![0u64; POOL]; bodies.len()];
        let mut saved = vec![vec![Vec::new(); POOL]; bodies.len()];
        for (c, client) in clients.iter_mut().enumerate() {
            for (i, pool) in bodies.iter().enumerate() {
                for (v, body) in pool.iter().enumerate() {
                    let reply = client
                        .post(&paths[i], body)
                        .map_err(|e| format!("first invoke: {e}"))?;
                    let (fixed, _) = split_wall_ms(&reply.body)
                        .filter(|_| reply.status == 200)
                        .ok_or_else(|| {
                            let text = String::from_utf8_lossy(&reply.body);
                            format!("first invoke: HTTP {} {:.200}", reply.status, text)
                        })?;
                    if c == 0 {
                        expected[i][v] = hash_bytes(fixed);
                        saved[i][v] = reply.body;
                    } else if hash_bytes(fixed) != expected[i][v] {
                        return Err(format!(
                            "connection {c} got a different result for body {i}/{v}"
                        ));
                    }
                }
            }
        }
        rec.push("serve.first_invokes", t0, now_ns(), None, 0, 0);
        Ok(Serve {
            warm,
            server,
            seed,
            paths,
            bodies,
            expected,
            saved,
            clients,
        })
    }

    /// Closed loop: every client sends its next request when the previous
    /// reply has arrived. Programs alternate; the body is a seeded draw from
    /// the pool.
    pub fn phase(
        &mut self,
        seconds: f64,
        min_ops: usize,
        phase_id: u64,
        rec: Option<&mut Recorder>,
    ) -> ServePhase {
        let traced = rec.is_some();
        let min_each = min_ops.div_ceil(self.clients.len());
        let (paths, bodies, expected, seed) =
            (&self.paths, &self.bodies, &self.expected, self.seed);
        let registry = self.server.registry();
        let shared = || {
            (
                registry.plan_cache().stats(),
                registry.buffer_pool().stats(),
            )
        };
        let (plan0, pool0) = shared();
        let t0 = Instant::now();
        let results: Vec<ClientPhase> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut out = ClientPhase::default();
                        let mut rng = Rng::new(seed, &format!("client-{c}/phase-{phase_id}"));
                        let mut k = c;
                        loop {
                            let i = k % paths.len();
                            let v = rng.below(POOL as u64) as usize;
                            k += 1;
                            let start = now_ns();
                            let reply = client.post(&paths[i], &bodies[i][v]);
                            let end = now_ns();
                            let ms = (end - start) as f64 / 1e6;
                            out.op_ms.push(ms);
                            out.op_end_s.push(t0.elapsed().as_secs_f64());
                            let ok = match &reply {
                                Ok(r) if r.status == 200 => match split_wall_ms(&r.body) {
                                    Some((fixed, wall_ms)) => {
                                        out.overhead_ms.push(ms - wall_ms);
                                        if traced {
                                            let op = (out.op_ms.len() * 16 + c) as u64;
                                            let tid = c as u32;
                                            let o = out.rec.push("op", start, end, None, op, tid);
                                            out.rec.push(
                                                "serve.http.write",
                                                start,
                                                r.sent_ns,
                                                Some(o),
                                                op,
                                                tid,
                                            );
                                            let rd = out.rec.push(
                                                "serve.http.read",
                                                r.sent_ns,
                                                end,
                                                Some(o),
                                                op,
                                                tid,
                                            );
                                            let wall_ns = (wall_ms * 1e6) as u64;
                                            out.rec.push(
                                                "serve.invoke",
                                                r.sent_ns,
                                                r.sent_ns + wall_ns,
                                                Some(rd),
                                                op,
                                                tid,
                                            );
                                        }
                                        hash_bytes(fixed) == expected[i][v]
                                    }
                                    None => false,
                                },
                                Ok(r) => {
                                    out.rejected += u64::from(r.status == 429 || r.status == 504);
                                    false
                                }
                                Err(_) => false,
                            };
                            out.failed += u64::from(!ok);
                            // A broken connection cannot carry further ops.
                            let done = out.op_ms.len() >= min_each
                                && t0.elapsed().as_secs_f64() >= seconds;
                            if reply.is_err() || done {
                                return out;
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut out = ServePhase {
            phase: Phase::default(),
            rejected: 0,
            overhead_ms: Vec::new(),
            plan_hit_rate: 0.0,
            pool_reuse_rate: 0.0,
        };
        let (plan1, pool1) = shared();
        let lookups = (plan1.hits + plan1.misses) - (plan0.hits + plan0.misses);
        out.plan_hit_rate = (plan1.hits - plan0.hits) as f64 / lookups.max(1) as f64;
        out.pool_reuse_rate =
            (pool1.reuses - pool0.reuses) as f64 / (pool1.acquires - pool0.acquires).max(1) as f64;
        let mut spans = Recorder::default();
        for r in results {
            out.phase.op_ms.extend(r.op_ms);
            out.phase.op_end_s.extend(r.op_end_s);
            out.phase.failed += r.failed;
            out.rejected += r.rejected;
            out.overhead_ms.extend(r.overhead_ms);
            spans.merge(r.rec);
        }
        if let Some(rec) = rec {
            rec.merge(spans);
        }
        out
    }

    /// Parses the saved first responses and compares every returned array,
    /// bit for bit, with a direct `Session::run` on the same inputs. Returns
    /// the bodies that failed as `(program, variant)`.
    pub fn verify_saved(&mut self) -> Vec<(usize, usize)> {
        let mut bad = Vec::new();
        for (i, p) in self.warm.programs.iter_mut().enumerate() {
            for v in 0..POOL {
                p.seed_inputs(self.seed, v);
                let direct = self.warm.sessions[i].run(p.w.bindings()).ok();
                let served = std::str::from_utf8(&self.saved[i][v])
                    .ok()
                    .and_then(|text| parse_json(text).ok());
                let same = match (direct, served) {
                    (Some(direct), Some(doc)) => served_equals(&doc, direct.arrays()),
                    _ => false,
                };
                if !same {
                    bad.push((i, v));
                }
            }
            p.seed_inputs(self.seed, 0);
        }
        bad
    }
}

fn served_equals(doc: &Json, direct: &HashMap<String, Vec<f64>>) -> bool {
    let Ok(outputs) = doc.obj_field("outputs") else {
        return false;
    };
    !outputs.is_empty()
        && outputs.iter().all(|(name, value)| {
            let (Json::Arr(items), Some(want)) = (value, direct.get(name)) else {
                return false;
            };
            items.len() == want.len()
                && items
                    .iter()
                    .zip(want)
                    .all(|(item, w)| matches!(item, Json::Num(x) if x.to_bits() == w.to_bits()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ms_splits_off_the_tail() {
        let body = br#"{"program":"00ff","outputs":{"y":[1,2.5]},"wall_ms":0.125}"#;
        let (fixed, wall) = split_wall_ms(body).unwrap();
        assert_eq!(fixed, br#"{"program":"00ff","outputs":{"y":[1,2.5]}"#);
        assert_eq!(wall, 0.125);
        assert!(split_wall_ms(br#"{"error":{"code":"SDFG-H429"}}"#).is_none());
    }

    #[test]
    fn hash_sees_every_byte_and_the_length() {
        let a = hash_bytes(b"0123456789abcdef-tail");
        assert_eq!(a, hash_bytes(b"0123456789abcdef-tail"));
        assert_ne!(a, hash_bytes(b"0123456789abcdef-tajl"));
        assert_ne!(a, hash_bytes(b"1123456789abcdef-tail"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn request_body_round_trips_bitwise() {
        let p = Program::build(Spec::poly("atax", 8), 2);
        let body = encode_request(&p);
        let doc = parse_json(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("symbols").unwrap().num_field("M").unwrap(), 8.0);
        let arrays = doc.get("arrays").unwrap();
        let sent: HashMap<String, Vec<f64>> = p.w.arrays.clone();
        assert!(served_equals(
            &Json::Obj(vec![("outputs".into(), arrays.clone())]),
            &sent
        ));
        // The same seed encodes to the same bytes.
        assert_eq!(
            body,
            encode_request(&Program::build(Spec::poly("atax", 8), 2))
        );
    }
}
