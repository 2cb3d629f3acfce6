//! The `cwfmem serve` sweep server.
//!
//! Holds the design-space-exploration state machine behind the HTTP
//! front end: sweeps are submitted as cell grids, each cell is routed
//! through the [`ResultCache`] (hit / batch-onto-in-flight / claim) and
//! claimed cells execute on the work-stealing [`Pool`]. Delivery is
//! exactly-once per `(sweep, cell)` slot by construction — the cache
//! owns the only path from a computed result to its subscribers, and a
//! slot rejects (and counts) a second delivery instead of overwriting.
//!
//! Endpoints (all JSON; see DESIGN.md §16 for the full contract):
//!
//! | method/path                      | behavior                         |
//! |----------------------------------|----------------------------------|
//! | `POST /sweep`                    | submit a grid, returns `{id,...}`|
//! | `GET /sweep/<id>`                | full status + per-cell results   |
//! | `GET /sweep/<id>/stream`         | chunked ndjson progress          |
//! | `GET /sweep/<id>/cell/<n>`       | one cell's raw `cwfmem.run.v1`   |
//! | `GET /sweep/<id>/cell/<n>/trace` | Perfetto trace of a rerun        |
//! | `GET /stats`                     | cache/pool counters              |
//! | `GET /healthz`                   | liveness probe                   |
//! | `POST /shutdown`                 | graceful stop                    |

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cwf_tracelog::json::quote;
use sim_harness::config::MemKind;
use sim_harness::sweep::{grid, Cell, CellResult};
use sim_harness::{Kernel, RunConfig, RunOutcome};

use crate::cache::{CellOutput, ResultCache, Submission};
use crate::http::{self, Chunked};
use crate::pool::Pool;
use crate::Json;

/// Largest cell grid one `POST /sweep` may submit.
pub const MAX_CELLS: usize = 10_000;

/// One submitted sweep: its cell grid and the result slots filling in.
struct SweepJob {
    id: u64,
    cells: Vec<Cell>,
    results: Mutex<Vec<Option<Arc<CellOutput>>>>,
    done: AtomicUsize,
    failed: AtomicUsize,
    /// Deliveries that found their slot already filled. Always zero; a
    /// nonzero value means the exactly-once protocol broke (the soak
    /// test asserts on it).
    duplicates: AtomicUsize,
    /// Cells answered instantly from a finished cache entry.
    cache_hits: AtomicU64,
    /// Cells batched onto another submission's in-flight computation.
    batched: AtomicU64,
}

impl SweepJob {
    fn new(id: u64, cells: Vec<Cell>) -> SweepJob {
        let n = cells.len();
        SweepJob {
            id,
            cells,
            results: Mutex::new(vec![None; n]),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            duplicates: AtomicUsize::new(0),
            cache_hits: AtomicU64::new(0),
            batched: AtomicU64::new(0),
        }
    }

    /// Fill slot `i`. First delivery wins; a second is counted as a
    /// protocol violation and dropped.
    fn deliver(&self, i: usize, out: &Arc<CellOutput>) {
        let mut slots = self.results.lock().expect("sweep results poisoned");
        if slots[i].is_some() {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slots[i] = Some(Arc::clone(out));
        drop(slots);
        if !out.ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.cells.len()
    }

    /// One progress line (the `/stream` ndjson shape; also the prefix of
    /// the full status document).
    fn progress_json(&self) -> String {
        let done = self.done.load(Ordering::Acquire);
        format!(
            "{{\"id\": {}, \"state\": {}, \"total\": {}, \"done\": {done}, \
             \"failed\": {}, \"cache_hits\": {}, \"batched\": {}, \
             \"duplicate_deliveries\": {}}}",
            self.id,
            quote(if done == self.cells.len() { "done" } else { "running" }),
            self.cells.len(),
            self.failed.load(Ordering::Relaxed),
            self.cache_hits.load(Ordering::Relaxed),
            self.batched.load(Ordering::Relaxed),
            self.duplicates.load(Ordering::Relaxed),
        )
    }

    /// The full status document: progress plus every cell's identity,
    /// state, and (when finished) its result document.
    ///
    /// Seeds and digests are emitted as strings — they are full 64-bit
    /// values and would lose precision as JSON numbers.
    fn status_json(&self) -> String {
        let slots = self.results.lock().expect("sweep results poisoned");
        let mut out = self.progress_json();
        out.pop(); // reopen the object to append "cells"
        out.push_str(", \"cells\": [");
        for (i, (cell, slot)) in self.cells.iter().zip(slots.iter()).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let key = cell.key();
            let _ = write!(
                out,
                "{{\"bench\": {}, \"mem\": {}, \"seed\": \"{}\", \"digest\": \"{:#018x}\", ",
                quote(&cell.bench),
                quote(&cell.cfg.mem.slug()),
                cell.cfg.seed,
                key.digest
            );
            match slot {
                Some(r) => {
                    let _ = write!(
                        out,
                        "\"state\": \"done\", \"ok\": {}, \"result\": {}}}",
                        r.ok,
                        r.json.trim_end()
                    );
                }
                None => out.push_str("\"state\": \"pending\", \"ok\": null, \"result\": null}"),
            }
        }
        out.push_str("]}\n");
        out
    }
}

/// Shared server state: the pool, the cache, and every sweep ever
/// submitted (a dev-tool server; sweeps are retained until shutdown).
struct State {
    pool: Pool,
    cache: ResultCache,
    sweeps: Mutex<BTreeMap<u64, Arc<SweepJob>>>,
    next_id: AtomicU64,
    /// Fast-path stop flag, checked by accept and stream loops.
    stop_flag: AtomicBool,
    /// Slow-path stop signal for [`Server::wait`].
    stop: Mutex<bool>,
    stopped: Condvar,
}

impl State {
    fn new(workers: usize) -> State {
        State {
            pool: Pool::new(workers),
            cache: ResultCache::new(),
            sweeps: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            stop_flag: AtomicBool::new(false),
            stop: Mutex::new(false),
            stopped: Condvar::new(),
        }
    }

    fn stopping(&self) -> bool {
        self.stop_flag.load(Ordering::Acquire)
    }

    fn request_stop(&self) {
        self.stop_flag.store(true, Ordering::Release);
        *self.stop.lock().expect("stop poisoned") = true;
        self.stopped.notify_all();
    }
}

/// Execute one cell and render its outcome. Runs on a pool worker;
/// the cell is `ok` unless it fails the sweep verdict
/// ([`CellResult::failure`]: a panic or an unclean oracle report).
/// Failures are delivered to the sweeps waiting on the cell but never
/// memoized (see [`ResultCache::complete`]): a later sweep retries
/// instead of being served a possibly-transient error doc forever.
fn run_cell(cell: &Cell) -> CellOutput {
    let result = cell.run();
    let json = match &result {
        CellResult::Done { outcome, .. } => outcome.to_json(),
        CellResult::Failed { error, .. } => format!(
            "{{\"error\": {}, \"bench\": {}, \"mem\": {}}}\n",
            quote(error),
            quote(&cell.bench),
            quote(&cell.cfg.mem.slug())
        ),
    };
    CellOutput {
        ok: result.failure().is_none(),
        bench: cell.bench.clone(),
        mem: cell.cfg.mem.slug(),
        json,
    }
}

/// Register a sweep and route every cell through the cache: hits deliver
/// immediately, duplicates of in-flight keys batch, and claimed keys
/// spawn a pool job whose completion fans out to every subscriber.
fn submit_sweep(state: &Arc<State>, cells: Vec<Cell>) -> Arc<SweepJob> {
    let id = state.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let job = Arc::new(SweepJob::new(id, cells));
    state.sweeps.lock().expect("sweeps poisoned").insert(id, Arc::clone(&job));
    for (i, cell) in job.cells.iter().enumerate() {
        let key = cell.key();
        let subscriber = {
            let job = Arc::clone(&job);
            Box::new(move |out: Arc<CellOutput>| job.deliver(i, &out))
        };
        match state.cache.submit(key, subscriber) {
            Submission::Hit(out) => {
                job.cache_hits.fetch_add(1, Ordering::Relaxed);
                job.deliver(i, &out);
            }
            Submission::Batched => {
                job.batched.fetch_add(1, Ordering::Relaxed);
            }
            Submission::Claimed => {
                let cell = cell.clone();
                let st = Arc::clone(state);
                state.pool.spawn(Box::new(move || {
                    let out = Arc::new(run_cell(&cell));
                    st.cache.complete(key, &out);
                }));
            }
        }
    }
    job
}

/// Optional field `key` of `v`, converted by `conv`. A key present with
/// the wrong JSON type is an error, never the default.
fn field<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    conv: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(key).map(|x| conv(x).ok_or_else(|| format!("'{key}' must be {what}"))).transpose()
}

/// Parse a `POST /sweep` body into its cell grid.
///
/// Shape: `{"benches": [..], "kinds": [..], "reads": N, "quick": bool,
/// "cores": N, "verify": bool, "kernel": "cycle"|"event", "seed": N}`.
/// Benchmarks, kinds and knobs are validated here ([`RunConfig::validate`])
/// so a typo or an out-of-range knob is a 400, not a panicked cell. The
/// cells come from [`grid`], exactly as `cwfmem sweep` builds them.
/// Tracing is always off in sweep cells (the trace endpoint reruns a cell
/// with it on).
fn parse_sweep_request(body: &[u8]) -> Result<Vec<Cell>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    let v = Json::parse(text)?;
    let str_list = |key: &str| -> Result<Vec<String>, String> {
        v.get(key)
            .and_then(Json::as_arr)
            .filter(|a| !a.is_empty())
            .map(|a| {
                a.iter()
                    .map(|x| x.as_str().map(str::to_owned))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("'{key}' must be an array of strings"))
            })
            .ok_or_else(|| format!("missing or empty '{key}' array"))?
    };
    let benches = str_list("benches")?;
    for b in &benches {
        if workloads::by_name(b).is_none() {
            return Err(format!("unknown benchmark '{b}'"));
        }
    }
    let kinds: Vec<MemKind> = str_list("kinds")?
        .iter()
        .map(|k| MemKind::parse(k).ok_or_else(|| format!("unknown memory kind '{k}'")))
        .collect::<Result<_, _>>()?;
    let integer = "a non-negative integer";
    let reads = field(&v, "reads", integer, Json::as_u64)?.unwrap_or(2_000);
    let quick = field(&v, "quick", "a boolean", Json::as_bool)?.unwrap_or(false);
    // The template's kind is a placeholder: `grid` sets each cell's.
    let mut cfg = if quick {
        RunConfig::quick(MemKind::Ddr3, reads)
    } else {
        RunConfig::paper(MemKind::Ddr3, reads)
    };
    if let Some(c) = field(&v, "cores", integer, Json::as_u64)? {
        cfg.cores = u8::try_from(c).map_err(|_| format!("cores must be in 1..=8, got {c}"))?;
    }
    if let Some(vfy) = field(&v, "verify", "a boolean", Json::as_bool)? {
        cfg.verify = vfy;
    }
    if let Some(k) = field(&v, "kernel", "a string", Json::as_str)? {
        cfg.kernel = Kernel::parse(k).ok_or_else(|| format!("unknown kernel '{k}'"))?;
    }
    if let Some(seed) = field(&v, "seed", integer, Json::as_u64)? {
        cfg.seed = seed;
    }
    cfg.validate()?;
    if benches.len().saturating_mul(kinds.len()) > MAX_CELLS {
        return Err(format!("grid exceeds {MAX_CELLS} cells"));
    }
    let benches: Vec<&str> = benches.iter().map(String::as_str).collect();
    Ok(grid(&benches, &kinds, &cfg))
}

/// Handle one connection (one request; `Connection: close` semantics).
#[allow(clippy::too_many_lines)]
fn handle(state: &Arc<State>, stream: &mut TcpStream) {
    let req = match http::read_request(stream) {
        Ok(Some(r)) => r,
        Ok(None) => return,
        Err(e) => {
            let _ = http::respond_error(stream, 400, &e.to_string());
            return;
        }
    };
    let path = req.path.clone();
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let lookup = |id: &str| -> Result<Arc<SweepJob>, String> {
        let id: u64 = id.parse().map_err(|_| format!("bad sweep id '{id}'"))?;
        state
            .sweeps
            .lock()
            .expect("sweeps poisoned")
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("no such sweep {id}"))
    };
    let result = match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => http::respond_json(stream, "{\"ok\": true}\n"),
        ("GET", ["stats"]) => {
            let (hits, batched, misses) = state.cache.stats();
            let body = format!(
                "{{\"cache\": {{\"keys\": {}, \"hits\": {hits}, \"batched\": {batched}, \
                 \"misses\": {misses}}}, \"pool\": {{\"workers\": {}, \"in_flight\": {}, \
                 \"steals\": {}, \"panicked\": {}}}, \"sweeps\": {}}}\n",
                state.cache.len(),
                state.pool.workers(),
                state.pool.in_flight(),
                state.pool.steals(),
                state.pool.panicked(),
                state.sweeps.lock().expect("sweeps poisoned").len()
            );
            http::respond_json(stream, &body)
        }
        ("POST", ["sweep"]) => match parse_sweep_request(&req.body) {
            Ok(cells) => {
                let unique: std::collections::BTreeSet<_> = cells.iter().map(Cell::key).collect();
                let n_unique = unique.len();
                let job = submit_sweep(state, cells);
                let body = format!(
                    "{{\"id\": {}, \"cells\": {}, \"unique\": {n_unique}}}\n",
                    job.id,
                    job.cells.len()
                );
                http::respond_json(stream, &body)
            }
            Err(e) => http::respond_error(stream, 400, &e),
        },
        ("GET", ["sweep", id]) => match lookup(id) {
            Ok(job) => http::respond_json(stream, &job.status_json()),
            Err(e) => http::respond_error(stream, 404, &e),
        },
        ("GET", ["sweep", id, "stream"]) => match lookup(id) {
            Ok(job) => stream_progress(state, &job, stream),
            Err(e) => http::respond_error(stream, 404, &e),
        },
        ("GET", ["sweep", id, "cell", n]) => match lookup(id) {
            Ok(job) => cell_result(&job, n, stream),
            Err(e) => http::respond_error(stream, 404, &e),
        },
        ("GET", ["sweep", id, "cell", n, "trace"]) => match lookup(id) {
            Ok(job) => cell_trace(&job, n, stream),
            Err(e) => http::respond_error(stream, 404, &e),
        },
        ("POST", ["shutdown"]) => {
            let r = http::respond_json(stream, "{\"stopping\": true}\n");
            state.request_stop();
            r
        }
        (m, _) if m != "GET" && m != "POST" => {
            http::respond_error(stream, 405, &format!("method {m} not allowed"))
        }
        _ => http::respond_error(stream, 404, &format!("no route for {} {path}", req.method)),
    };
    // A write error means the client went away; nothing to clean up.
    drop(result);
}

/// Stream progress lines (ndjson over chunked encoding) until the sweep
/// finishes or the server stops. Each line is [`SweepJob::progress_json`];
/// a line is sent whenever the done-count moves.
fn stream_progress(
    state: &Arc<State>,
    job: &Arc<SweepJob>,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let mut ch = Chunked::start(stream, "application/x-ndjson")?;
    let mut last_sent = usize::MAX; // force an initial line
    loop {
        let done = job.done.load(Ordering::Acquire);
        if done != last_sent {
            last_sent = done;
            let mut line = job.progress_json();
            line.push('\n');
            ch.send(line.as_bytes())?;
        }
        if job.is_done() || state.stopping() {
            return ch.finish();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Look up cell `n` of a sweep, 404/409-style errors as strings.
fn cell_of<'a>(job: &'a SweepJob, n: &str) -> Result<(usize, &'a Cell), (u16, String)> {
    let i: usize = n.parse().map_err(|_| (400, format!("bad cell index '{n}'")))?;
    match job.cells.get(i) {
        Some(c) => Ok((i, c)),
        None => Err((404, format!("sweep {} has {} cells", job.id, job.cells.len()))),
    }
}

/// Serve one finished cell's raw result document (exactly the bytes a
/// `cwfmem run --json` of the same configuration would print, so CI can
/// diff server output against an offline run).
fn cell_result(job: &Arc<SweepJob>, n: &str, stream: &mut TcpStream) -> std::io::Result<()> {
    let (i, _) = match cell_of(job, n) {
        Ok(x) => x,
        Err((status, msg)) => return http::respond_error(stream, status, &msg),
    };
    let slot = job.results.lock().expect("sweep results poisoned")[i].clone();
    match slot {
        Some(out) => http::respond_json(stream, &out.json),
        None => http::respond_error(stream, 404, &format!("cell {i} is still running")),
    }
}

/// Rerun one cell with tracing enabled and serve the Perfetto document.
/// The rerun is deterministic (same config, same seed), so the trace
/// depicts exactly the run whose metrics the sweep returned.
fn cell_trace(job: &Arc<SweepJob>, n: &str, stream: &mut TcpStream) -> std::io::Result<()> {
    let (_, cell) = match cell_of(job, n) {
        Ok(x) => x,
        Err((status, msg)) => return http::respond_error(stream, status, &msg),
    };
    let mut rerun = cell.clone();
    rerun.cfg.trace = true;
    rerun.cfg.verify = false; // the sweep already verified; the trace rerun just records
    match rerun.run() {
        CellResult::Done { outcome: RunOutcome { trace: Some(t), .. }, .. } => {
            http::respond_json(stream, &t.perfetto_json())
        }
        CellResult::Done { .. } => {
            http::respond_error(stream, 500, "trace rerun produced no trace")
        }
        CellResult::Failed { error, .. } => http::respond_error(stream, 500, &error),
    }
}

/// A running sweep server. Dropping (or [`Server::stop`]) shuts it down:
/// the accept loop exits, queued cells finish on the pool, workers join.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// the accept loop plus `workers` pool workers.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(bind: &str, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State::new(workers));
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("cwf-dse-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        Ok(Server { addr, state, accept: Some(accept) })
    }

    /// The bound address (the actual port when bound with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until shutdown is requested (`POST /shutdown` or
    /// [`Server::stop`] from another thread).
    pub fn wait(&self) {
        let mut stopped = self.state.stop.lock().expect("stop poisoned");
        while !*stopped {
            stopped = self.state.stopped.wait(stopped).expect("stop wait");
        }
    }

    /// Request shutdown and join the accept loop. Queued cells finish
    /// (the pool drains before its workers join).
    pub fn stop(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.state.request_stop();
        // Poke the (blocking) accept call so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    for conn in listener.incoming() {
        if state.stopping() {
            return;
        }
        let Ok(mut stream) = conn else { continue };
        let state = Arc::clone(state);
        // Handler threads are detached; they hold the state alive and
        // exit on their own (every endpoint is bounded except /stream,
        // which watches the stop flag).
        let spawned = std::thread::Builder::new()
            .name("cwf-dse-conn".to_owned())
            .spawn(move || handle(&state, &mut stream));
        drop(spawned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;
    use sim_harness::sweep::Variant;

    fn post_sweep(addr: SocketAddr, body: &str) -> Json {
        let (status, text) = client_request(addr, "POST", "/sweep", Some(body)).unwrap();
        assert_eq!(status, 200, "body: {text}");
        Json::parse(text.trim()).unwrap()
    }

    fn wait_done(addr: SocketAddr, id: u64) -> Json {
        loop {
            let (status, text) =
                client_request(addr, "GET", &format!("/sweep/{id}"), None).unwrap();
            assert_eq!(status, 200);
            let v = Json::parse(text.trim()).unwrap();
            if v.get("state").and_then(Json::as_str) == Some("done") {
                return v;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn sweep_lifecycle_end_to_end() {
        let server = Server::start("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();
        let (status, body) = client_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!((status, body.trim()), (200, "{\"ok\": true}"));

        let v = post_sweep(
            addr,
            r#"{"benches": ["mcf"], "kinds": ["rl", "ddr3", "rl"],
                "reads": 80, "quick": true, "verify": false}"#,
        );
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        // "rl" twice: 3 cells, 2 unique — the duplicate batches or hits.
        assert_eq!(v.get("cells").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("unique").and_then(Json::as_u64), Some(2));

        let st = wait_done(addr, id);
        assert_eq!(st.get("done").and_then(Json::as_u64), Some(3));
        assert_eq!(st.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(st.get("duplicate_deliveries").and_then(Json::as_u64), Some(0));
        let dup_served = st.get("cache_hits").and_then(Json::as_u64).unwrap()
            + st.get("batched").and_then(Json::as_u64).unwrap();
        assert_eq!(dup_served, 1);
        let cells = st.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 3);
        // Cells 0 and 2 are the same (bench, kind): identical documents.
        assert_eq!(cells[0].get("result").unwrap(), cells[2].get("result").unwrap());
        assert_ne!(cells[0].get("result").unwrap(), cells[1].get("result").unwrap());

        // The raw cell document parses and matches the embedded result.
        let (status, doc) =
            client_request(addr, "GET", &format!("/sweep/{id}/cell/0"), None).unwrap();
        assert_eq!(status, 200);
        let parsed = Json::parse(doc.trim()).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some("cwfmem.run.v1"));

        // A second identical sweep is served entirely from the cache.
        let v2 = post_sweep(
            addr,
            r#"{"benches": ["mcf"], "kinds": ["rl", "ddr3", "rl"],
                "reads": 80, "quick": true, "verify": false}"#,
        );
        let id2 = v2.get("id").and_then(Json::as_u64).unwrap();
        let st2 = wait_done(addr, id2);
        assert_eq!(st2.get("cache_hits").and_then(Json::as_u64), Some(3));
        server.stop();
    }

    #[test]
    fn streams_progress_and_serves_traces() {
        let server = Server::start("127.0.0.1:0", 2).unwrap();
        let addr = server.addr();
        let v = post_sweep(
            addr,
            r#"{"benches": ["stream"], "kinds": ["rl"], "reads": 80,
                "quick": true, "verify": false}"#,
        );
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        // The stream endpoint blocks until done, then terminates; its
        // last line must report the finished state.
        let (status, body) =
            client_request(addr, "GET", &format!("/sweep/{id}/stream"), None).unwrap();
        assert_eq!(status, 200);
        let last = body.lines().last().unwrap();
        let v = Json::parse(last).unwrap();
        assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(v.get("done").and_then(Json::as_u64), Some(1));

        let (status, trace) =
            client_request(addr, "GET", &format!("/sweep/{id}/cell/0/trace"), None).unwrap();
        assert_eq!(status, 200);
        assert!(cwf_tracelog::json::validate_chrome_trace(&trace).is_ok());
        server.stop();
    }

    #[test]
    fn rejects_bad_requests() {
        let server = Server::start("127.0.0.1:0", 1).unwrap();
        let addr = server.addr();
        for (body, needle) in [
            ("{", "expected"),
            ("{}", "missing or empty 'benches'"),
            (r#"{"benches": ["nope"], "kinds": ["rl"]}"#, "unknown benchmark"),
            (r#"{"benches": ["mcf"], "kinds": ["warp-drive"]}"#, "unknown memory kind"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "kernel": "quantum"}"#, "unknown kernel"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "cores": 0}"#, "cores must be in 1..=8"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "cores": 9}"#, "cores must be in 1..=8"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "cores": 300}"#, "cores must be in 1..=8"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "reads": 0}"#, "reads must be at least 1"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "reads": "abc"}"#, "'reads' must be"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "verify": "yes"}"#, "'verify' must be"),
            (r#"{"benches": ["mcf"], "kinds": ["rl"], "seed": -1}"#, "'seed' must be"),
        ] {
            let (status, text) = client_request(addr, "POST", "/sweep", Some(body)).unwrap();
            assert_eq!(status, 400, "body {body} -> {text}");
            assert!(text.contains(needle), "body {body} -> {text}");
        }
        let (status, _) = client_request(addr, "GET", "/sweep/999", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(addr, "DELETE", "/sweep/1", None).unwrap();
        assert_eq!(status, 405);
        let (status, _) = client_request(addr, "GET", "/no/such/route", None).unwrap();
        assert_eq!(status, 404);
        // Every rejection left the server up and no sweep registered.
        let (status, text) = client_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("\"sweeps\": 0"), "{text}");
        server.stop();
    }

    #[test]
    fn hostile_json_is_a_400_and_the_server_survives() {
        let server = Server::start("127.0.0.1:0", 1).unwrap();
        let addr = server.addr();
        let deep = "[".repeat(100_000);
        let dup = r#"{"benches": ["mcf"], "kinds": ["rl"], "reads": 100, "reads": 900}"#;
        for (body, needle) in [(deep.as_str(), "nesting deeper"), (dup, "duplicate object key")] {
            let (status, text) = client_request(addr, "POST", "/sweep", Some(body)).unwrap();
            assert_eq!(status, 400, "{text}");
            assert!(text.contains(needle), "{text}");
        }
        let (status, text) = client_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200);
        assert!(Json::parse(text.trim()).unwrap().get("cache").is_some(), "{text}");
        server.stop();
    }

    #[test]
    fn failed_cells_count_but_are_not_sticky() {
        // An unknown-benchmark cell can't be built via the HTTP API (400),
        // so exercise the failure path through submit_sweep directly with
        // a bench name bypassing validation (panics in run_cell).
        let state = Arc::new(State::new(2));
        let cfg = RunConfig::quick(MemKind::Rl, 50);
        let cells = vec![
            Cell::new("no-such-bench", cfg, Variant::Preset),
            Cell::new("no-such-bench", cfg, Variant::Preset),
        ];
        let job = submit_sweep(&state, cells);
        while !job.is_done() {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(job.failed.load(Ordering::Relaxed), 2);
        assert_eq!(job.duplicates.load(Ordering::Relaxed), 0);
        // Both cells share a key: one claimed, one batched.
        assert_eq!(job.batched.load(Ordering::Relaxed), 1);
        let slots = job.results.lock().unwrap();
        assert!(slots.iter().all(|s| s.as_ref().is_some_and(|o| !o.ok)));
        assert!(slots[0].as_ref().unwrap().json.contains("unknown benchmark"));
        drop(slots);

        // The error doc must not poison the key: the same cell submitted
        // again is a fresh claim, not a cache hit on the stale failure.
        assert_eq!(state.cache.len(), 0, "failures must not occupy the cache");
        let retry = submit_sweep(&state, vec![Cell::new("no-such-bench", cfg, Variant::Preset)]);
        while !retry.is_done() {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(retry.cache_hits.load(Ordering::Relaxed), 0, "retry must recompute");
        let (_, _, misses) = state.cache.stats();
        assert_eq!(misses, 2, "both attempts claimed the key");
    }

    /// The "failed-then-fixed" regression the serve-mode bugfix is about:
    /// a cell whose first run fails must be recomputed — and can succeed —
    /// on the next submission, rather than replaying the cached error.
    #[test]
    fn failed_then_fixed_cell_recomputes_to_success() {
        let cache = ResultCache::new();
        let k = crate::CellKey { digest: 77, seed: 1, variant: Variant::Preset };
        let noop = || Box::new(|_out: Arc<CellOutput>| {}) as crate::cache::Subscriber;
        assert!(matches!(cache.submit(k, noop()), Submission::Claimed));
        cache.complete(
            k,
            &Arc::new(CellOutput {
                ok: false,
                bench: "stream".into(),
                mem: "rl".into(),
                json: "{\"error\":\"transient\"}".into(),
            }),
        );
        // "Fixed" now: the next submission claims and the success sticks.
        assert!(matches!(cache.submit(k, noop()), Submission::Claimed));
        cache.complete(
            k,
            &Arc::new(CellOutput {
                ok: true,
                bench: "stream".into(),
                mem: "rl".into(),
                json: "{}".into(),
            }),
        );
        match cache.submit(k, noop()) {
            Submission::Hit(out) => assert!(out.ok, "hit must serve the fixed result"),
            _ => panic!("fixed cell must now be cached"),
        }
    }
}
