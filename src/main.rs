#![forbid(unsafe_code)]
//! `cwfmem` — command-line front end for the simulator.
//!
//! ```text
//! cwfmem list                         # benchmarks and memory organizations
//! cwfmem run --mem rl --bench mcf     # one run, key metrics (or --json)
//! cwfmem run --bench mcf --trace t.json  # also export a Perfetto trace
//! cwfmem trace-check t.json           # validate an exported trace
//! cwfmem compare --bench leslie3d     # all organizations side by side
//! cwfmem sweep --json out/            # parallel grid, one JSON per cell
//! cwfmem figures fig6                 # regenerate a paper figure
//! ```

use cwfmem::dram::DeviceSpec;
use cwfmem::power::LpddrIo;
use cwfmem::sim::config::{MemBackend, MemKind};
use cwfmem::sim::experiments::{
    all_benches, default_benches, fig2_power_utilization, fig3_line_profiles,
    fig4_critical_word_distribution, figure,
};
use cwfmem::sim::sweep::{self, Cell, Plan, PlanResults, Variant};
use cwfmem::sim::{run_benchmark_outcome, Kernel, RunConfig, RunOutcome};
use cwfmem::speclint::{lint_specs, scorecard_json, Diagnostic, SpecLintReport};
use cwfmem::workloads::suite;

/// `cwfmem figures` names, in the order `all` prints them.
const FIGURES: [&str; 11] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig9",
    "fig10",
    "ablations",
    "alternatives",
    "dramcache",
    "all",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  cwfmem list\n  cwfmem run --mem <kind> --bench <name>|--replay <file> [--reads N] \
         [--cores N] [--no-prefetch] [--parity-rate P] [--seed S] [--kernel cycle|event] \
         [--verify|--no-verify] [--trace <out.json>] [--json]\n  \
         cwfmem run --spec <id|file.toml> --bench <name> ...   # spec-layer device\n  \
         cwfmem run ... --ckpt-at <cycle> --ckpt-out <file>    # pause + checkpoint\n  \
         cwfmem resume <file.ckpt> [--ckpt-at <cycle> --ckpt-out <file>] \
         [--verify|--no-verify] [--trace <out.json>|--no-trace] [--json]\n  \
         cwfmem serve [--bind <addr:port>] [--workers N]       # sweep HTTP server\n  \
         cwfmem spec-lint <id|file.toml|specs-dir> [--json] [--parse-only]\n  \
         cwfmem trace-check <file.json>\n  \
         cwfmem compare --bench <name> [--reads N]\n  \
         cwfmem sweep [--benches a,b,c|--all-benches] [--kinds k1,k2] [--reads N] [--jobs N] \
         [--verify|--no-verify] [--json DIR]\n  \
         cwfmem figures <{}> [--reads N] [--all-benches] [--csv DIR]\n  \
         cwfmem dump-trace --bench <name> [--core N] [--ops N] [--seed S] --out <file>\n\n\
         memory kinds: {}\n\
         device specs: {} (also fast+slow CWF pairs, e.g. rldram3+ddr5_4800)",
        FIGURES.join("|"),
        MemKind::PAPER.map(MemKind::slug).join(", "),
        DeviceSpec::embedded_ids().join(", ")
    );
    std::process::exit(2)
}

/// Print `msg` and the usage text; exit 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    usage()
}

/// One subcommand's arguments, parsed strictly: an unknown flag, a flag
/// missing its value, a stray operand or a value that does not parse
/// exits 2 naming it — nothing falls back to a default.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    operands: Vec<String>,
}

impl Flags {
    /// Parse `args` against the subcommand's `valued` flags (each takes
    /// the next argument), bare `switches`, and up to `max_operands`
    /// operands (arguments not starting with `--`).
    fn parse(
        args: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
        max_operands: usize,
    ) -> Flags {
        let mut f = Flags { values: Vec::new(), switches: Vec::new(), operands: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(&k) = valued.iter().find(|&&k| k == a) {
                let v = it.next().filter(|v| !v.starts_with("--"));
                f.values
                    .push((k, v.unwrap_or_else(|| fail(&format!("{k} needs a value"))).clone()));
            } else if let Some(&k) = switches.iter().find(|&&k| k == a) {
                f.switches.push(k);
            } else if a.starts_with("--") {
                fail(&format!("unknown flag '{a}'"));
            } else if f.operands.len() < max_operands {
                f.operands.push(a.clone());
            } else {
                fail(&format!("unexpected argument '{a}'"));
            }
        }
        f
    }

    /// The value of `key` (the last one when repeated).
    fn get(&self, key: &str) -> Option<&str> {
        self.values.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// True if switch `key` was given.
    fn has(&self, key: &str) -> bool {
        self.switches.contains(&key)
    }

    /// The value of `key` parsed as a `T`.
    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| fail(&format!("{key}: invalid value '{v}'"))))
    }

    /// The first operand, if any.
    fn operand(&self) -> Option<&str> {
        self.operands.first().map(String::as_str)
    }
}

fn parse_kind(name: &str) -> MemKind {
    MemKind::parse(name).unwrap_or_else(|| fail(&format!("unknown memory kind '{name}'")))
}

/// `name`, if it names a benchmark profile; exit 2 naming it otherwise.
fn parse_bench(name: &str) -> &str {
    if cwfmem::workloads::by_name(name).is_none() {
        fail(&format!("unknown benchmark '{name}'"));
    }
    name
}

/// Exit 2 unless `cfg` passes [`RunConfig::validate`]. Its messages start
/// with the knob's name, which is also the flag's name.
fn check(cfg: RunConfig) -> RunConfig {
    cfg.validate().unwrap_or_else(|e| fail(&format!("--{e}")));
    cfg
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("dump-trace") => cmd_dump_trace(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("spec-lint") => cmd_spec_lint(&args[1..]),
        _ => usage(),
    }
}

fn cmd_list(args: &[String]) {
    Flags::parse(args, &[], &[], 0);
    println!("memory organizations:");
    for kind in MemKind::PAPER {
        println!("  {:<8} {}", kind.slug(), kind.label());
    }
    println!("\ndevice specs (for --spec, --mem, or fast+slow CWF pairs):");
    for id in DeviceSpec::embedded_ids() {
        let spec = DeviceSpec::embedded(id).expect("embedded spec");
        println!(
            "  {id:<12} {} ({} banks x {} groups)",
            spec.config.name, spec.config.geometry.banks, spec.config.geometry.bank_groups
        );
    }
    println!("\nbenchmarks ({}):", suite().len());
    for p in suite() {
        println!(
            "  {:<12} {:?}, {} MiB footprint, gap {} insts",
            p.name, p.suite, p.footprint_mb, p.mem_gap
        );
    }
}

/// True when a `--spec` value names a file on disk rather than an
/// embedded spec id.
fn spec_is_path(value: &str) -> bool {
    value.contains('/') || value.ends_with(".toml")
}

/// Load a `--spec`/`spec-lint` operand: a file path, or an embedded id.
fn load_spec(value: &str) -> DeviceSpec {
    let loaded = if spec_is_path(value) {
        DeviceSpec::from_file(value)
    } else {
        DeviceSpec::embedded(value).ok_or_else(|| cwfmem::dram::SpecError {
            line: 0,
            msg: format!(
                "unknown embedded spec '{value}' (have: {})",
                DeviceSpec::embedded_ids().join(", ")
            ),
        })
    };
    loaded.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn spec_summary_line(spec: &DeviceSpec) -> String {
    let cfg = &spec.config;
    format!(
        "{}: ok — {} ({:?}/{:?}, {} banks x {} groups, {} constraints, tCK {} ps)",
        spec.id,
        cfg.name,
        cfg.addressing,
        cfg.page_policy,
        cfg.geometry.banks,
        cfg.geometry.bank_groups,
        cfg.constraints.len(),
        cfg.timings.t_ck_ps
    )
}

/// Resolve a `spec-lint` operand into the specs to lint: a directory (all
/// `*.toml` inside, sorted), a single file, or an embedded id.
fn spec_lint_targets(value: &str) -> Vec<DeviceSpec> {
    let path = std::path::Path::new(value);
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(path) {
            Ok(entries) => entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "toml"))
                .collect(),
            Err(e) => {
                eprintln!("spec-lint: cannot read `{value}`: {e}");
                std::process::exit(1)
            }
        };
        files.sort();
        if files.is_empty() {
            eprintln!("spec-lint: no .toml files in `{value}`");
            std::process::exit(1);
        }
        files.iter().map(|p| load_spec(&p.to_string_lossy())).collect()
    } else {
        vec![load_spec(value)]
    }
}

/// `spec-lint <id|file.toml|dir> [--json] [--parse-only]` — the spec model
/// checker: reachability, constraint coverage, contradiction detection,
/// cross-spec conformance and checker/oracle rule linkage. `--parse-only`
/// is the fast path (parse + summary, no model checking).
fn cmd_spec_lint(args: &[String]) {
    let f = Flags::parse(args, &[], &["--json", "--parse-only"], 1);
    let (json, parse_only) = (f.has("--json"), f.has("--parse-only"));
    let Some(value) = f.operand() else { usage() };
    let specs = spec_lint_targets(value);
    if parse_only {
        for spec in &specs {
            println!("{}", spec_summary_line(spec));
        }
        return;
    }
    let (reports, conformance) = lint_specs(&specs);
    let mut diags: Vec<Diagnostic> = Vec::new();
    for r in &reports {
        diags.extend(r.diagnostics.iter().cloned());
    }
    diags.extend(conformance);
    let totals = reports.iter().fold([0u64; 5], |mut acc, r: &SpecLintReport| {
        acc[0] += r.summary.constraint;
        acc[1] += r.summary.widened;
        acc[2] += r.summary.builtin;
        acc[3] += r.summary.exempt;
        acc[4] += r.summary.gaps;
        acc
    });
    if json {
        let targets: Vec<String> = reports.iter().map(|r| r.target.clone()).collect();
        let summary = [
            ("specs", reports.len() as u64),
            ("cells_constraint", totals[0]),
            ("cells_widened", totals[1]),
            ("cells_builtin", totals[2]),
            ("cells_exempt", totals[3]),
            ("cells_gap", totals[4]),
        ];
        print!("{}", scorecard_json("spec", &targets, &summary, &diags));
    } else {
        for r in &reports {
            let s = &r.summary;
            println!(
                "{}: {} cells — {} constraint, {} widened, {} builtin, {} exempt, {} gaps",
                r.target,
                s.constraint + s.widened + s.builtin + s.exempt + s.gaps,
                s.constraint,
                s.widened,
                s.builtin,
                s.exempt,
                s.gaps
            );
        }
        for d in &diags {
            println!("{d}");
        }
        println!(
            "spec-lint: {} spec(s), {} diagnostic{}",
            reports.len(),
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
    }
    if !diags.is_empty() {
        std::process::exit(1);
    }
}

/// The one `RunConfig` builder of `run`, `sweep` and `compare`: the
/// paper methodology at `mem`, then every knob flag present (each
/// subcommand's flag list decides which knobs it offers), validated.
fn build_config(f: &Flags, mem: MemKind, default_reads: u64) -> RunConfig {
    let mut cfg = RunConfig::paper(mem, f.num("--reads").unwrap_or(default_reads));
    if let Some(c) = f.num("--cores") {
        cfg.cores = c;
    }
    cfg.prefetch = !f.has("--no-prefetch");
    if let Some(p) = f.num("--parity-rate") {
        cfg.parity_error_rate = p;
    }
    if let Some(s) = f.num("--seed") {
        cfg.seed = s;
    }
    // Both kernels produce bit-identical metrics; the flag exists for
    // performance comparisons and debugging.
    if let Some(k) = f.get("--kernel") {
        cfg.kernel = Kernel::parse(k).unwrap_or_else(|| {
            fail(&format!("--kernel: unknown kernel '{k}' (expected 'cycle' or 'event')"))
        });
    }
    // Verification defaults on in debug builds, off in release.
    if f.has("--verify") {
        cfg.verify = true;
    } else if f.has("--no-verify") {
        cfg.verify = false;
    }
    // `--trace <out.json>` enables trace collection (and exports the
    // Perfetto document).
    cfg.trace = f.get("--trace").is_some();
    check(cfg)
}

/// `run`'s memory: `--spec` takes either an embedded spec id / kind token
/// (same namespace as `--mem`) or a TOML file path; for a file the backend
/// is built from the parsed config in `cmd_run` and the kind label comes
/// from the file's device kind.
fn run_mem(f: &Flags) -> MemKind {
    match f.get("--spec") {
        Some(path) if spec_is_path(path) => {
            let spec = load_spec(path);
            MemKind::parse(&spec.id).unwrap_or(MemKind::Spec(spec.config.kind))
        }
        Some(token) => parse_kind(token),
        None => parse_kind(f.get("--mem").unwrap_or("rl")),
    }
}

/// Print a finished run — `run`, `run --ckpt-at` that finished early,
/// and `resume` alike: the `cwfmem.run.v1` document
/// ([`RunOutcome::to_json`]) under `--json`, so a split run's output is
/// byte-identical to the unsplit run's, else the key-metrics table. An
/// unclean run ([`RunOutcome::is_clean`]) exits 1: CI runs `--verify`
/// and relies on the exit status.
fn emit_run_outcome(json: bool, o: &RunOutcome) {
    let (m, kstats, verify, trace) = (&o.metrics, &o.kernel, &o.verify, &o.trace);
    if json {
        print!("{}", o.to_json());
    } else {
        println!(
            "{} on {} ({} cores, {} reads):",
            m.mem.label(),
            m.bench,
            m.insts_per_core.len(),
            m.dram_reads
        );
        println!("  IPC (aggregate)        {:.3}", m.ipc_total());
        println!("  critical-word latency  {:.1} ns", m.avg_cw_latency_ns());
        println!(
            "  DRAM read latency      {:.1} ns (queue {:.1} + service {:.1})",
            m.avg_read_latency_ns(),
            m.mem_stats.avg_queue_ns(),
            m.mem_stats.avg_service_ns()
        );
        println!("  bus utilization        {:.1}%", m.bus_utilization() * 100.0);
        println!("  row-buffer hit rate    {:.1}%", m.row_hit_rate() * 100.0);
        println!("  DRAM power             {:.2} W", m.dram_power_w(LpddrIo::ServerAdapted));
        let p = m.dram_power_breakdown(LpddrIo::ServerAdapted);
        println!(
            "  DRAM power split       background {:.2} | activate {:.2} | read {:.2} | \
             write {:.2} | refresh {:.2} | termination {:.2} W",
            p.background_w, p.activate_w, p.read_w, p.write_w, p.refresh_w, p.termination_w
        );
        if let Some(c) = m.cwf {
            println!("  critical served fast   {:.1}%", c.served_fast_fraction() * 100.0);
            println!("  fast-part head start   {:.0} CPU cycles", c.avg_head_start());
        }
        println!(
            "  kernel                 {} ({:.1}x cycles per mem tick, {:.1}x per core tick)",
            kstats.kernel.name(),
            kstats.tick_ratio(),
            kstats.core_tick_ratio()
        );
        let spans = kstats.core_span_cycles();
        if spans > 0 {
            let pc = |x: u64| 100.0 * x as f64 / spans as f64;
            println!(
                "  core spans             {spans} cycles batched \
                 (stall {:.0}%, wait {:.0}%, cruise {:.0}%, replay {:.0}%)",
                pc(kstats.core_stall_cycles),
                pc(kstats.core_wait_cycles),
                pc(kstats.core_cruise_cycles),
                pc(kstats.core_replay_cycles)
            );
        }
        if let Some(v) = verify {
            if v.is_clean() {
                println!(
                    "  verify                 clean ({} commands, {} events, {} core spans checked)",
                    v.commands_checked, v.events_checked, v.core_spans
                );
            } else {
                println!(
                    "  verify                 {} violation(s); first: {}",
                    v.total_violations,
                    v.violations.first().map_or_else(String::new, ToString::to_string)
                );
            }
        }
        if let Some(t) = trace {
            println!(
                "  trace                  {} events ({} dropped), {} reads decomposed",
                t.events.len(),
                t.dropped,
                t.summary.reads
            );
        }
    }
    if !o.is_clean() {
        let n = verify.as_ref().map_or(0, |v| v.total_violations);
        eprintln!("verify: {n} violation(s) detected");
        std::process::exit(1);
    }
}

/// Write the run's Perfetto trace to `path` when both are present.
fn write_trace(path: Option<&str>, o: &RunOutcome) {
    if let (Some(path), Some(t)) = (path, &o.trace) {
        if let Err(e) = std::fs::write(path, t.perfetto_json()) {
            eprintln!("cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "wrote Perfetto trace to {path} ({} events, {} dropped); open at ui.perfetto.dev",
            t.events.len(),
            t.dropped
        );
    }
}

/// Handle a [`cwfmem::sim::CkptOutcome`]: write the checkpoint when the
/// run paused, otherwise report the finished run.
fn emit_ckpt_outcome(outcome: cwfmem::sim::CkptOutcome, out_path: &str, at: u64, json: bool) {
    match outcome {
        cwfmem::sim::CkptOutcome::Paused { ckpt } => {
            if let Err(e) = std::fs::write(out_path, &ckpt) {
                eprintln!("cannot write checkpoint {out_path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "checkpoint at cycle {at}: wrote {} bytes (checkpoint format v{}) to {out_path}",
                ckpt.len(),
                cwfmem::sim::system::CKPT_VERSION,
            );
        }
        cwfmem::sim::CkptOutcome::Finished(o) => {
            eprintln!("run finished before cycle {at}; no checkpoint written");
            emit_run_outcome(json, &o);
        }
    }
}

/// `run --ckpt-at <cycle> --ckpt-out <file>` — run until the target
/// cycle, then serialize the whole simulator to a checkpoint file
/// (or finish normally if the run completes first).
fn cmd_run_ckpt(f: &Flags, cfg: &RunConfig, at: u64) {
    let Some(out_path) = f.get("--ckpt-out") else { fail("--ckpt-at needs --ckpt-out <file>") };
    if f.get("--replay").is_some() || f.get("--spec").is_some_and(spec_is_path) {
        eprintln!("--ckpt-at supports built-in benchmarks and embedded specs only");
        std::process::exit(1);
    }
    let bench = f.get("--bench").unwrap_or("leslie3d");
    match cwfmem::sim::run_benchmark_ckpt(cfg, bench, at) {
        Ok(outcome) => emit_ckpt_outcome(outcome, out_path, at, f.has("--json")),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// `resume <file.ckpt>` — restore a checkpointed run and carry it to
/// completion (or to another `--ckpt-at` pause point). The finished
/// metrics are byte-identical to an unpaused run's, and the observers
/// come back with it: a `--verify --trace` checkpoint resumes with the
/// oracle's books and the trace ring intact, so the final verify/trace
/// JSON objects match the unsplit run's.
///
/// `--no-verify`/`--no-trace` suppress the corresponding report on
/// output; `--verify`/`--trace <out.json>` demand one, and fail loudly
/// when the checkpointed run never collected it (observability cannot be
/// conjured mid-run — the first half of the evidence is gone).
fn cmd_resume(args: &[String]) {
    let f = Flags::parse(
        args,
        &["--ckpt-at", "--ckpt-out", "--trace"],
        &["--json", "--verify", "--no-verify", "--no-trace"],
        1,
    );
    let Some(path) = f.operand() else { usage() };
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read checkpoint {path}: {e}");
        std::process::exit(1)
    });
    let json = f.has("--json");
    if let Some(at) = f.num("--ckpt-at") {
        let Some(out_path) = f.get("--ckpt-out") else { fail("--ckpt-at needs --ckpt-out <file>") };
        match cwfmem::sim::resume_benchmark_to_cycle(&bytes, at) {
            Ok(outcome) => emit_ckpt_outcome(outcome, out_path, at, json),
            Err(e) => {
                eprintln!("cannot resume {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut o = match cwfmem::sim::resume_benchmark(&bytes) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot resume {path}: {e}");
            std::process::exit(1);
        }
    };
    if f.has("--verify") && o.verify.is_none() {
        eprintln!(
            "cannot enable verify on resume: the checkpointed run had the oracle off \
             (re-run with --verify from the start)"
        );
        std::process::exit(1);
    }
    if f.has("--no-verify") {
        o.verify = None;
    }
    let trace_out = f.get("--trace");
    if trace_out.is_some() && o.trace.is_none() {
        eprintln!(
            "cannot enable tracing on resume: the checkpointed run had tracing off \
             (re-run with --trace from the start)"
        );
        std::process::exit(1);
    }
    if f.has("--no-trace") {
        o.trace = None;
    }
    write_trace(trace_out, &o);
    emit_run_outcome(json, &o);
}

/// `serve [--bind <addr:port>] [--workers N]` — the sweep HTTP server
/// (DESIGN.md §16). Runs until `POST /shutdown`.
fn cmd_serve(args: &[String]) {
    let f = Flags::parse(args, &["--bind", "--workers"], &[], 0);
    let bind = f.get("--bind").unwrap_or("127.0.0.1:8327");
    let workers =
        f.num("--workers").map_or_else(cwfmem::sim::sweep::jobs, std::num::NonZeroUsize::get);
    let server = cwfmem::dse::Server::start(bind, workers).unwrap_or_else(|e| {
        eprintln!("cannot bind {bind}: {e}");
        std::process::exit(1)
    });
    eprintln!(
        "cwfmem serve: http://{} ({workers} workers) — POST /sweep, GET /sweep/<id>, \
         GET /sweep/<id>/stream, GET /sweep/<id>/cell/<n>[/trace], GET /stats, POST /shutdown",
        server.addr()
    );
    server.wait();
    server.stop();
    eprintln!("cwfmem serve: stopped");
}

fn cmd_run(args: &[String]) {
    let f = Flags::parse(
        args,
        &[
            "--mem",
            "--spec",
            "--bench",
            "--replay",
            "--reads",
            "--cores",
            "--parity-rate",
            "--seed",
            "--kernel",
            "--trace",
            "--ckpt-at",
            "--ckpt-out",
        ],
        &["--no-prefetch", "--verify", "--no-verify", "--json"],
        0,
    );
    let cfg = build_config(&f, run_mem(&f), 10_000);
    if let Some(at) = f.num("--ckpt-at") {
        cmd_run_ckpt(&f, &cfg, at);
        return;
    }
    let o = if let Some(replay) = f.get("--replay") {
        // Replay an external trace, phase-shifted per core (see `dump-trace`).
        use cwfmem::sim::system::BoxedTrace;
        use cwfmem::workloads::FileTraceSource;
        let src = FileTraceSource::open(replay).unwrap_or_else(|e| {
            eprintln!("cannot load trace {replay}: {e}");
            std::process::exit(1)
        });
        let mut cfg = cfg;
        // External traces are finite: keep the warm phases inside one pass.
        cfg.functional_warm_ops = (src.len() as u64 / 4).min(cfg.functional_warm_ops);
        cfg.warmup_dram_reads = 0;
        let n = usize::from(cfg.cores);
        let sources: Vec<BoxedTrace> = (0..n)
            .map(|i| Box::new(src.clone().starting_at(i * src.len() / n)) as BoxedTrace)
            .collect();
        let backend = cfg.mem.build(cfg.parity_error_rate, cfg.seed);
        let mut sys = cwfmem::sim::System::with_trace_sources(&cfg, replay, sources, backend);
        let m = sys.run();
        RunOutcome::collect(m, &sys)
    } else {
        let bench = f.get("--bench").unwrap_or("leslie3d");
        // A file-backed spec: build the homogeneous backend from the
        // parsed config (baseline topology; single-command x9-class parts
        // need only 4 devices per 72-bit access).
        let backend = f.get("--spec").filter(|v| spec_is_path(v)).map(|path| {
            let spec = load_spec(path);
            let chips = match spec.config.addressing {
                cwfmem::dram::AddressingStyle::SingleCommand => 4,
                cwfmem::dram::AddressingStyle::RasCas => 9,
            };
            MemBackend::Homogeneous(cwfmem::memctrl::HomogeneousMemory::new(
                spec.config,
                4,
                1,
                chips,
                cwfmem::memctrl::CtrlParams::default(),
            ))
        });
        run_benchmark_outcome(&cfg, bench, backend)
    };
    write_trace(f.get("--trace"), &o);
    emit_run_outcome(f.has("--json"), &o);
}

fn cmd_trace_check(args: &[String]) {
    let f = Flags::parse(args, &[], &[], 1);
    let Some(path) = f.operand() else { usage() };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1)
    });
    match cwfmem::tracelog::json::validate_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: valid Chrome/Perfetto trace ({} events, {} metadata, {} tracks)",
                check.events, check.metadata, check.tracks
            );
        }
        Err(e) => {
            eprintln!("{path}: INVALID trace: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_sweep(args: &[String]) {
    use cwfmem::sim::Table;
    let f = Flags::parse(
        args,
        &["--benches", "--kinds", "--reads", "--jobs", "--json"],
        &["--all-benches", "--verify", "--no-verify"],
        0,
    );
    // Sweep cells never trace; the template's kind is a placeholder that
    // `grid` replaces per cell.
    let template = build_config(&f, MemKind::Ddr3, 8_000);
    let benches: Vec<&str> = if f.has("--all-benches") {
        all_benches()
    } else if let Some(list) = f.get("--benches") {
        list.split(',').map(parse_bench).collect()
    } else {
        default_benches()
    };
    let kinds: Vec<MemKind> = f.get("--kinds").map_or_else(
        || vec![MemKind::Ddr3, MemKind::Rl, MemKind::RlAdaptive],
        |list| list.split(',').map(parse_kind).collect(),
    );
    let jobs = f.num("--jobs").map_or_else(sweep::jobs, std::num::NonZeroUsize::get);
    let json_dir = f.get("--json").map(std::path::PathBuf::from);

    let cells = sweep::grid(&benches, &kinds, &template);
    eprintln!(
        "sweep: {} cells ({} benches x {} kinds), {jobs} workers",
        cells.len(),
        benches.len(),
        kinds.len()
    );
    let mut plan = Plan::default();
    cells.iter().cloned().for_each(|c| plan.add(c));
    let results = plan.run(jobs, Cell::run);

    let mut cols = vec!["bench".to_owned()];
    for k in &kinds {
        cols.push(format!("{} IPC", k.label()));
        cols.push(format!("{} cw-p99 ns", k.label()));
    }
    let mut table = Table::new(
        "Sweep: IPC and p99 critical-word latency",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let (mut failures, mut written) = (0usize, 0usize);
    for (bench, row) in benches.iter().zip(cells.chunks(kinds.len())) {
        let mut cells_out = vec![(*bench).to_owned()];
        for cell in row {
            let r = results.result(cell).expect("every grid cell is planned");
            if let Some(e) = r.failure() {
                failures += 1;
                eprintln!("{e}");
                cells_out.extend(["failed".to_owned(), "-".to_owned()]);
            } else if let Some(o) = r.outcome() {
                cells_out.push(format!("{:.3}", o.metrics.ipc_total()));
                cells_out.push(format!("{:.1}", o.metrics.cw_latency_ns_quantile(0.99)));
            }
            // An unclean cell's document is written too: it carries the
            // violations.
            if let (Some(o), Some(dir)) = (r.outcome(), &json_dir) {
                let m = &o.metrics;
                let path = dir.join(format!("{}__{}.json", m.bench, m.mem.slug()));
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, o.to_json()))
                {
                    eprintln!("cannot write JSON to {}: {e}", dir.display());
                    std::process::exit(1);
                }
                written += 1;
            }
        }
        table.row(cells_out);
    }
    println!("{table}");
    if let Some(dir) = &json_dir {
        eprintln!("wrote {written} JSON documents to {}", dir.display());
    }
    exit_if_failed(failures);
}

fn cmd_compare(args: &[String]) {
    let f = Flags::parse(args, &["--bench", "--reads"], &[], 0);
    let bench = f.get("--bench").unwrap_or("leslie3d");
    let template = build_config(&f, MemKind::Ddr3, 8_000);
    let cells =
        MemKind::PAPER.map(|mem| Cell::new(bench, RunConfig { mem, ..template }, Variant::Preset));
    let mut plan = Plan::default();
    cells.iter().cloned().for_each(|c| plan.add(c));
    let results = plan.run(sweep::jobs(), Cell::run);
    let failures = report_failures(&results);
    println!(
        "{:<10} {:>8} {:>9} {:>12} {:>9} {:>8}",
        "config", "IPC", "vs DDR3", "cw-lat (ns)", "DRAM W", "cw-fast"
    );
    // `MemKind::PAPER` starts with the DDR3 baseline.
    let base = results.get(&cells[0]).map(|(o, _)| o.metrics.ipc_total());
    for cell in &cells {
        let Some((outcome, _)) = results.get(cell) else { continue };
        let m = &outcome.metrics;
        let ipc = m.ipc_total();
        println!(
            "{:<10} {:>8.2} {:>9} {:>12.1} {:>9.2} {:>8}",
            m.mem.label(),
            ipc,
            base.map_or_else(|| "-".to_owned(), |b| format!("{:.1}%", (ipc / b - 1.0) * 100.0)),
            m.avg_cw_latency_ns(),
            m.dram_power_w(LpddrIo::ServerAdapted),
            m.cwf.map_or_else(
                || "-".to_owned(),
                |c| format!("{:.0}%", c.served_fast_fraction() * 100.0)
            ),
        );
    }
    println!("\n(cw-fast: critical words served by the fast DIMM; '-' for non-CWF designs)");
    exit_if_failed(failures);
}

/// Print every failed cell's line once on stderr; the count.
fn report_failures(results: &PlanResults) -> usize {
    results.failures().inspect(|e| eprintln!("{e}")).count()
}

/// Exit 1 after naming how many cells failed, if any did.
fn exit_if_failed(failures: usize) {
    if failures > 0 {
        eprintln!("{failures} cell(s) failed");
        std::process::exit(1);
    }
}

fn cmd_dump_trace(args: &[String]) {
    let f = Flags::parse(args, &["--bench", "--core", "--ops", "--seed", "--out"], &[], 0);
    let bench = f.get("--bench").unwrap_or("leslie3d");
    let core: u8 = f.num("--core").unwrap_or(0);
    let ops: u64 = f.num("--ops").unwrap_or(100_000);
    let seed: u64 = f.num("--seed").unwrap_or(0xD2A4_0001);
    let Some(out) = f.get("--out") else { fail("dump-trace needs --out <file>") };
    let Some(profile) = cwfmem::workloads::by_name(bench) else {
        eprintln!("unknown benchmark '{bench}'");
        std::process::exit(1)
    };
    let mut gen = cwfmem::workloads::TraceGen::new(profile, core, seed);
    let mut w = std::io::BufWriter::new(std::fs::File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1)
    }));
    cwfmem::workloads::dump(&mut gen, ops, &mut w).expect("trace write");
    println!("wrote {ops} records of {bench} (core {core}) to {out}");
}

/// `figures [<name>] [--reads N] [--all-benches] [--csv DIR]` — the
/// figure drivers at the paper defaults; the name, when given, comes
/// first. The selected simulated figures share one plan: each distinct
/// cell simulates once, then every figure renders in `FIGURES` order.
fn cmd_figures(args: &[String]) {
    let which = args.first().map_or("all", String::as_str);
    if !FIGURES.contains(&which) {
        fail(&format!("unknown figure '{which}'"));
    }
    let f = Flags::parse(
        args.get(1..).unwrap_or_default(),
        &["--reads", "--csv"],
        &["--all-benches"],
        0,
    );
    let reads =
        check(RunConfig::paper(MemKind::Ddr3, f.num("--reads").unwrap_or(8_000))).target_dram_reads;
    let csv_dir = f.get("--csv").map(std::path::PathBuf::from);
    let benches: Vec<&'static str> =
        if f.has("--all-benches") { all_benches() } else { default_benches() };
    let selected: Vec<&str> =
        FIGURES.into_iter().filter(|&f| f != "all" && (which == f || which == "all")).collect();

    let mut plan = Plan::default();
    for fig in selected.iter().filter_map(|name| figure(name)) {
        fig.plan(&mut plan, &benches, reads);
    }
    let (ran, requested) = plan.simulations();
    let results = plan.run(sweep::jobs(), Cell::run);
    eprintln!("figures: ran {ran} simulations of {requested} requested");
    let failures = report_failures(&results);

    for name in selected {
        let tables = match name {
            "fig2" => vec![fig2_power_utilization()],
            "fig3" => vec![fig3_line_profiles((40 * reads).max(200_000))],
            "fig4" => vec![fig4_critical_word_distribution(&benches, 4 * reads)],
            _ => figure(name)
                .expect("every other name is simulated")
                .render(&benches, reads, &results),
        };
        for t in tables {
            println!("{t}");
            if let Some(dir) = &csv_dir {
                match t.write_csv(dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("csv write failed: {e}"),
                }
            }
        }
    }
    exit_if_failed(failures);
}
