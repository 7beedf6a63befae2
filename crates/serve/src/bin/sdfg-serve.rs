//! `sdfg-serve` — the multi-tenant SDFG execution server.
//!
//! ```text
//! sdfg-serve --port 8080 --nthreads 4 --opt aggressive
//! ```
//!
//! See the crate docs (`sdfg_serve`) for the wire protocol.

use sdfg_exec::OptLevel;
use sdfg_serve::{Server, ServerConfig};
use std::path::PathBuf;

const USAGE: &str = "\
sdfg-serve: multi-tenant SDFG execution server

USAGE:
  sdfg-serve [--port N] [--nthreads N] [--opt LEVEL] [--max-inflight N]
             [--queue-depth N] [--tenant-cap N] [--timeout-ms N]
             [--ledger PATH]

OPTIONS:
  --port N          TCP port on 127.0.0.1 (default 8080; 0 = ephemeral)
  --nthreads N      worker threads per invoke (default: all cores)
  --opt LEVEL       none | strict | aggressive (default aggressive)
  --max-inflight N  concurrently executing invokes (default 4)
  --queue-depth N   invokes queued beyond the cap before 429 (default 16)
  --tenant-cap N    per-tenant running+queued cap (default 4)
  --timeout-ms N    default invoke deadline (default 30000)
  --ledger PATH     append per-request run records to this JSONL file
";

fn main() {
    let mut config = ServerConfig {
        port: 8080,
        ..ServerConfig::default()
    };
    let mut ledger_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return;
        }
        let Some(value) = args.next() else {
            eprintln!("error: {flag} needs a value\n\n{USAGE}");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--port" => config.port = parse(&flag, &value),
            "--nthreads" => config.registry.nthreads = parse::<usize>(&flag, &value).max(1),
            "--opt" => {
                config.registry.opt = OptLevel::parse(&value).unwrap_or_else(|| {
                    eprintln!("error: unknown --opt level `{value}`\n\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--max-inflight" => config.max_inflight = parse::<usize>(&flag, &value).max(1),
            "--queue-depth" => config.queue_depth = parse(&flag, &value),
            "--tenant-cap" => config.tenant_cap = parse::<usize>(&flag, &value).max(1),
            "--timeout-ms" => config.default_timeout_ms = parse(&flag, &value),
            "--ledger" => ledger_path = Some(PathBuf::from(&value)),
            other => {
                eprintln!("error: unknown flag `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &ledger_path {
        sdfg_profile::ledger::set_path(Some(path));
    }
    // Touch the engine's metric handles up front so `/metrics` exposes
    // every core family from the first scrape, not the first invoke.
    let _ = sdfg_profile::metrics::core();
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            std::process::exit(1);
        }
    };
    println!("sdfg-serve listening on http://{}", server.addr());
    println!(
        "  submit:  curl -X POST --data-binary @program.json http://{}/v1/programs",
        server.addr()
    );
    println!("  metrics: curl http://{}/metrics", server.addr());
    // Serve until killed; `server` stays alive (and accepting) for the
    // process lifetime.
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} got `{value}`, expected a number\n\n{USAGE}");
        std::process::exit(2);
    })
}
