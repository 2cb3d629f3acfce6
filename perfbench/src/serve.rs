//! The `dse` layer drill: the workload's own cells submitted to an
//! in-process sweep server over loopback HTTP, through the public
//! `cwf_dse::Server` and `cwf_dse::http::client_request`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cwf_dse::http::client_request;
use cwf_dse::{config_digest, Json, Server};

use crate::cells::{CellSpec, Workload};
use crate::util::{ns_since, quantile};

/// Pool workers of the drill's server (the host has two CPUs; the load
/// generator is this one client).
const WORKERS: usize = 2;

/// Warm resubmissions after the cold one.
const WARM_ROUNDS: usize = 3;

fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    match client_request(addr, "GET", path, None) {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("GET {path}: HTTP {status}: {}", body.trim())),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// `POST /sweep`; returns the sweep id.
fn post(addr: SocketAddr, body: &str) -> Result<u64, String> {
    match client_request(addr, "POST", "/sweep", Some(body)) {
        Ok((200, text)) => Json::parse(text.trim())
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| format!("POST /sweep: no id in {}", text.trim())),
        Ok((status, text)) => Err(format!("POST /sweep: HTTP {status}: {}", text.trim())),
        Err(e) => Err(format!("POST /sweep: {e}")),
    }
}

/// Start a server and wait for its first healthy `/healthz`.
fn start() -> Server {
    let server = Server::start("127.0.0.1:0", WORKERS).expect("bind a loopback port");
    for _ in 0..10_000 {
        if get(server.addr(), "/healthz").is_ok() {
            return server;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!("sweep server at {} never became healthy", server.addr());
}

/// The 1×1 sweep request for `cell`. Every knob the server would
/// otherwise take from the environment (`verify`, `kernel`) is spelled
/// out; the server derives the cell's seed from `seed` exactly as the
/// benchmark does.
fn body(cell: &CellSpec, seed: u64) -> String {
    format!(
        "{{\"benches\": [\"{}\"], \"kinds\": [\"{}\"], \"reads\": {}, \"quick\": false, \
         \"verify\": {}, \"kernel\": \"event\", \"seed\": {seed}}}",
        cell.bench,
        cell.mem.slug(),
        cell.cfg.target_dram_reads,
        cell.cfg.verify
    )
}

/// Check a finished sweep: done, nothing failed or delivered twice, the
/// cell `ok` (and a cache hit when `hit`), and its digest equal to the
/// one computed offline. A digest mismatch means the server resolved a
/// different configuration (an environment variable leaked in): exit.
/// Returns the status document's size and the failed-check count.
fn check_status(addr: SocketAddr, id: u64, cell: &CellSpec, hit: bool) -> (usize, u64) {
    let text = match get(addr, &format!("/sweep/{id}")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check failed: {e}");
            return (0, 1);
        }
    };
    let Ok(v) = Json::parse(text.trim()) else {
        eprintln!("check failed: sweep {id} status is not JSON");
        return (text.len(), 1);
    };
    let num = |k: &str| v.get(k).and_then(Json::as_u64);
    let c = v.get("cells").and_then(Json::as_arr).and_then(<[Json]>::first);
    let mut cfg = cell.cfg;
    cfg.trace = false; // sweep cells never trace
    let want = format!("{:#018x}", config_digest(cell.bench, &cfg));
    let got = c.and_then(|c| c.get("digest")).and_then(Json::as_str).unwrap_or("");
    if got != want {
        eprintln!(
            "error: the server resolved {} to digest {got}, the benchmark to {want}; \
             an environment variable changed the configuration ({})",
            cell.label(),
            crate::cells::env_summary()
        );
        std::process::exit(3);
    }
    let ok = v.get("state").and_then(Json::as_str) == Some("done")
        && num("failed") == Some(0)
        && num("duplicate_deliveries") == Some(0)
        && (!hit || num("cache_hits") == Some(1))
        && c.and_then(|c| c.get("ok")).and_then(Json::as_bool) == Some(true);
    if !ok {
        eprintln!("check failed: sweep {id} of {}: {}", cell.label(), text.trim());
    }
    (text.len(), u64::from(!ok))
}

/// `dse` layer counters and times.
pub struct DseLayer {
    pub hits: u64,
    pub batched: u64,
    pub misses: u64,
    pub submit_ms_p50: f64,
    pub fetch_ms_p99: f64,
    pub status_bytes: u64,
    pub pool_steals: u64,
    pub digest_ns: f64,
    pub ops: u64,
    pub fails: u64,
}

/// Submit every cell twice back to back (the second batches onto the
/// first), then [`WARM_ROUNDS`] more times (cache hits); wait for each
/// sweep, fetch its cell and compare it byte for byte with `docs` (the
/// offline documents, in cell order); finally read `/stats`.
pub fn drill(w: &Workload, docs: &[&str], seed: u64) -> DseLayer {
    let server = start();
    let addr = server.addr();
    let (mut submit_ns, mut fetch_ns) = (Vec::new(), Vec::new());
    let (mut ops, mut fails, mut status_bytes) = (0u64, 0u64, 0u64);
    for round in 0..=WARM_ROUNDS {
        let mut ids = Vec::new();
        for (cell, &doc) in w.cells.iter().zip(docs) {
            for _ in 0..if round == 0 { 2 } else { 1 } {
                let t = Instant::now();
                let id = post(addr, &body(cell, seed));
                submit_ns.push(ns_since(t));
                ids.push((id, cell, doc));
            }
        }
        for (id, cell, want) in ids {
            ops += 1;
            let fetched = id.and_then(|id| {
                get(addr, &format!("/sweep/{id}/stream"))?;
                let t = Instant::now();
                let doc = get(addr, &format!("/sweep/{id}/cell/0"))?;
                fetch_ns.push(ns_since(t));
                Ok((id, doc))
            });
            match fetched {
                Ok((id, doc)) => {
                    if doc != want {
                        eprintln!(
                            "check failed: served {} differs from the offline document",
                            cell.label()
                        );
                        fails += 1;
                    }
                    let (bytes, f) = check_status(addr, id, cell, round > 0);
                    status_bytes += bytes as u64;
                    fails += f;
                }
                Err(e) => {
                    eprintln!("check failed: {e}");
                    fails += 1;
                }
            }
        }
    }
    let stats = get(addr, "/stats").ok().and_then(|t| Json::parse(t.trim()).ok());
    let field = |a: &str, b: &str| {
        stats.as_ref().and_then(|s| s.get(a)).and_then(|s| s.get(b)).and_then(Json::as_u64)
    };
    ops += 1;
    if stats.is_none() {
        eprintln!("check failed: GET /stats");
        fails += 1;
    }
    server.stop();
    // Digest cost: every cell of the workload, many times over.
    const ROUNDS: u32 = 20_000;
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for c in &w.cells {
            acc ^= config_digest(std::hint::black_box(c.bench), std::hint::black_box(&c.cfg));
        }
    }
    std::hint::black_box(acc);
    let digest_ns = ns_since(t) as f64 / f64::from(ROUNDS) / w.cells.len() as f64;
    DseLayer {
        hits: field("cache", "hits").unwrap_or(0),
        batched: field("cache", "batched").unwrap_or(0),
        misses: field("cache", "misses").unwrap_or(0),
        submit_ms_p50: quantile(&submit_ns, 0.5) as f64 / 1e6,
        fetch_ms_p99: quantile(&fetch_ns, 0.99) as f64 / 1e6,
        status_bytes,
        pool_steals: field("pool", "steals").unwrap_or(0),
        digest_ns,
        ops,
        fails,
    }
}
