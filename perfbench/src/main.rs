//! cwfmem host-speed benchmark: one workload per process.
//!
//! ```text
//! cwfmem-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! cwfmem-perfbench --pins --workload <name> --seed <n>
//! ```
//!
//! A run repeats its workload's cells round-robin until `--seconds` have
//! passed. Each repetition's measured region is timed in fixed units of
//! work, and a cell's host time is the sum of each unit's fastest
//! repetition: on a shared VM the host alternates between quiet and busy
//! phases, so medians measure the neighbours while the fastest
//! repetition measures the program. Every repetition's output is checked. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced; the per-layer metrics traced).
//! See NOTES.md for every metric's definition.

mod cells;
mod layers;
mod serve;
mod sim;
mod spans;
mod util;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cells::{Kind, Workload};
use sim::{CellRef, Counts};
use spans::Spans;
use util::{median, min, quantile, ratio};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        out: None,
        pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pins" {
            a.pins = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|_| format!("{flag}: not a number: {val}"));
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => a.trace = num()? != 0,
            "--out" => a.out = Some(val.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// One cell's repetitions.
#[derive(Default)]
struct Series {
    host_ns: Vec<u64>,
    segs: Vec<Vec<u64>>,
    traced: Vec<bool>,
    roots: Vec<Option<usize>>,
    setup_ns: Vec<u64>,
}

impl Series {
    /// The cell's host time: each segment's fastest repetition, summed.
    fn best(&self, traced: bool) -> u64 {
        let reps: Vec<&Vec<u64>> = self
            .segs
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(s, _)| s)
            .collect();
        let n = reps.iter().map(|s| s.len()).min().unwrap_or(0);
        (0..n).map(|i| reps.iter().map(|s| s[i]).min().unwrap_or(0)).sum()
    }

    fn untraced(&self) -> Vec<u64> {
        self.host_ns.iter().zip(&self.traced).filter(|(_, &t)| !t).map(|(&h, _)| h).collect()
    }
}

/// Output metrics, in declaration order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push('}');
        s
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = cells::workload(&args.workload, args.seed) else {
        eprintln!("error: unknown workload '{}' (one of {:?})", args.workload, cells::NAMES);
        std::process::exit(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("environment {}", cells::env_summary());
    for c in &w.cells {
        println!(
            "cell {} digest {:#018x} config {:?}",
            c.label(),
            cwf_dse::config_digest(c.bench, &c.cfg),
            c.cfg
        );
    }

    let (refs, ref_fails) = sim::references(&w, args.seed);
    if args.pins {
        for (c, r) in w.cells.iter().zip(&refs) {
            println!("pin {} {} {} {:#018x}", w.name, args.seed, c.label(), r.digest);
        }
        std::process::exit(i32::from(ref_fails > 0));
    }
    let mut attempted = w.cells.len() as u64;
    let mut failed = ref_fails;

    // The repetition loop: cells round-robin until the deadline (at least
    // two rounds, so a traced run has both traced and untraced ones).
    let mut series: Vec<Series> = w.cells.iter().map(|_| Series::default()).collect();
    let mut sp = Spans::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0u64;
    let mut peak_rss_mb = 0.0;
    while round < 2 || Instant::now() < deadline {
        if args.trace {
            sp.set_on(round.is_multiple_of(2));
        }
        for (ci, s) in series.iter_mut().enumerate() {
            let rep = match w.kind {
                Kind::Observed => sim::rep_observed(&w.cells[ci], ci, &refs[ci], &mut sp),
                Kind::Sim => sim::rep_sim(&w.cells[ci], ci, &refs[ci], &mut sp),
            };
            s.host_ns.push(rep.host_ns);
            s.segs.push(rep.segs);
            s.traced.push(sp.is_on());
            s.roots.push(rep.root);
            s.setup_ns.push(rep.setup_ns);
            attempted += rep.ops;
            failed += rep.fails;
        }
        if round == 0 {
            // Peak memory of set-up plus one repetition per cell: later
            // repetitions repeat the same allocations, and how much the
            // allocator's free lists grow with their number is noise.
            peak_rss_mb = util::peak_rss_mb();
        }
        round += 1;
    }
    if args.trace {
        sp.set_on(false);
    }

    let reads: u64 = refs.iter().map(|r| r.counts.hier.demand_misses).sum();
    let cycles: u64 = refs.iter().map(|r| r.counts.cycles()).sum();
    let best: u64 = series.iter().map(|s| s.best(false)).sum();
    let setup_ns: u64 = series.iter().map(|s| median(&s.setup_ns)).sum();
    let host_ns_per_read = best as f64 / reads as f64;
    let sim_mcyc_per_s = cycles as f64 / (best as f64 / 1e9) / 1e6;

    // Diagnostics: which host phase the run sat in (not gated).
    let all: Vec<u64> = series.iter().flat_map(Series::untraced).collect();
    println!(
        "host.reps {} host.rep_ms_med {:.3} host.rep_ms_p90 {:.3} host.best_ms {:.3}",
        all.len(),
        median(&all) as f64 / 1e6,
        quantile(&all, 0.9) as f64 / 1e6,
        best as f64 / 1e6
    );
    for ((c, s), r) in w.cells.iter().zip(&series).zip(&refs) {
        let u = s.untraced();
        println!(
            "rep {}: n {} best_ms {:.3} fastest_rep_ms {:.3} med_ms {:.3} setup_med_ms {:.3} \
             reads {} cycles {}",
            c.label(),
            u.len(),
            s.best(false) as f64 / 1e6,
            min(&u) as f64 / 1e6,
            median(&u) as f64 / 1e6,
            median(&s.setup_ns) as f64 / 1e6,
            r.counts.hier.demand_misses,
            r.counts.cycles()
        );
    }
    print_counts(&w, &refs);

    let mut m = Metrics(Vec::new());
    if args.trace {
        let (ops, fails) =
            per_layer(&w, &refs, &series, &sp, reads, host_ns_per_read, args.seed, &mut m);
        attempted += ops;
        failed += fails;
        if let Some(dir) = &args.out {
            let labels: Vec<String> = w.cells.iter().map(cells::CellSpec::label).collect();
            write_file(
                dir,
                &format!("spans-{}-seed{}.jsonl", w.name, args.seed),
                &sp.to_jsonl(&labels),
            );
        }
    } else {
        m.put("host_ns_per_read", host_ns_per_read, "ns");
        m.put("sim_mcyc_per_s", sim_mcyc_per_s, "Mcyc/s");
        m.put("setup_s", setup_ns as f64 / 1e9, "s");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
    }
    if let Some(dir) = &args.out {
        let name =
            format!("series-{}-seed{}-trace{}.json", w.name, args.seed, u8::from(args.trace));
        write_file(dir, &name, &series_json(&w, &series));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        m.json()
    );
}

fn write_file(dir: &str, name: &str, body: &str) {
    let path = std::path::Path::new(dir).join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Every repetition's time, per cell, for the steadiness record.
fn series_json(w: &Workload, series: &[Series]) -> String {
    let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let mut s = format!("{{\"workload\": \"{}\", \"cells\": [", w.name);
    for (i, (c, x)) in w.cells.iter().zip(series).enumerate() {
        let traced: Vec<u64> = x.traced.iter().map(|&t| u64::from(t)).collect();
        let _ = write!(
            s,
            "{}{{\"label\": \"{}\", \"best_ns\": {}, \"host_ns\": [{}], \"traced\": [{}], \
             \"setup_ns\": [{}]}}",
            if i > 0 { ", " } else { "" },
            c.label(),
            x.best(false),
            list(&x.host_ns),
            list(&traced),
            list(&x.setup_ns)
        );
    }
    s.push_str("]}\n");
    s
}

/// The deterministic per-cell counters, printed in every run so traced
/// and untraced runs can be compared line for line.
fn print_counts(w: &Workload, refs: &[CellRef]) {
    for (c, r) in w.cells.iter().zip(refs) {
        let k = &r.counts.kernel;
        let h = &r.counts.hier;
        println!(
            "counts {}: cycles {} steps {} mem_ticks {} core_ticks {} l1_hits {} l2_hits {} \
             demand_misses {} run_v1 {:#018x}",
            c.label(),
            k.simulated_cycles(),
            k.steps,
            k.mem_tick_calls,
            k.core_ticks,
            h.l1_hits,
            h.l2_hits,
            h.demand_misses,
            r.digest
        );
    }
}

/// Sum a counter over the cells.
fn total(refs: &[CellRef], f: impl Fn(&Counts) -> u64) -> u64 {
    refs.iter().map(|r| f(&r.counts)).sum()
}

/// The traced run's per-layer metrics. Returns the drill's `(ops, fails)`.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn per_layer(
    w: &Workload,
    refs: &[CellRef],
    series: &[Series],
    sp: &Spans,
    reads: u64,
    host_ns_per_read: f64,
    seed: u64,
    m: &mut Metrics,
) -> (u64, u64) {
    let layers: Vec<layers::CellLayer> =
        w.cells.iter().zip(refs).map(|(c, r)| layers::drill(c, r)).collect();
    let docs: Vec<&str> = layers.iter().map(|l| l.server_doc.as_str()).collect();
    let dse = serve::drill(w, &docs, seed);
    let sum = |f: &dyn Fn(&layers::CellLayer) -> u64| layers.iter().map(f).sum::<u64>() as f64;

    m.put("workloads.gen_ns_per_op", sum(&|l| l.gen_ns) / sum(&|l| l.gen_calls), "ns");

    let core_ticks = total(refs, |c| c.kernel.core_ticks) as f64;
    let span_cycles = total(refs, |c| c.kernel.core_span_cycles()) as f64;
    m.put("cpu.core_ticks", core_ticks, "count");
    m.put("cpu.core_tick_ratio", ratio(core_ticks + span_cycles, core_ticks), "ratio");
    m.put("cpu.cruise_cycles", total(refs, |c| c.kernel.core_cruise_cycles) as f64, "count");
    m.put("cpu.stall_cycles", total(refs, |c| c.kernel.core_stall_cycles) as f64, "count");

    m.put("cachesim.l1_hits", total(refs, |c| c.hier.l1_hits) as f64, "count");
    m.put("cachesim.l2_hits", total(refs, |c| c.hier.l2_hits) as f64, "count");
    m.put("cachesim.demand_misses", total(refs, |c| c.hier.demand_misses) as f64, "count");
    m.put("cachesim.mshr_secondary", total(refs, |c| c.hier.mshr_secondary) as f64, "count");
    m.put("cachesim.blocked_mshr", total(refs, |c| c.hier.blocked_mshr) as f64, "count");
    m.put("cachesim.blocked_mem", total(refs, |c| c.hier.blocked_mem) as f64, "count");
    let pf = total(refs, |c| c.hier.prefetches_issued) as f64;
    m.put("cachesim.prefetches_issued", pf, "count");
    m.put(
        "cachesim.prefetch_useful_ratio",
        ratio(total(refs, |c| c.hier.prefetches_useful) as f64, pf),
        "ratio",
    );
    m.put("cachesim.warm_ns_per_access", sum(&|l| l.warm_ns) / sum(&|l| l.warm_accesses), "ns");

    let mem_ticks = total(refs, |c| c.kernel.mem_tick_calls) as f64;
    let sim_cycles = total(refs, Counts::cycles) as f64;
    let chan = |f: &dyn Fn(&mem_ctrl::ControllerStats) -> u64| -> f64 {
        refs.iter().flat_map(|r| &r.counts.metrics.mem_stats.controllers).map(f).sum::<u64>() as f64
    };
    let (rd, wr) = (chan(&|c| c.channel.reads), chan(&|c| c.channel.writes));
    m.put("memctrl.mem_tick_calls", mem_ticks, "count");
    m.put("memctrl.tick_ratio", ratio(sim_cycles, mem_ticks), "ratio");
    m.put("memctrl.row_hit_rate", ratio(chan(&|c| c.channel.row_hits), rd + wr), "ratio");
    m.put("memctrl.reads", rd, "count");
    m.put("memctrl.writes", wr, "count");
    m.put(
        "dram.bus_utilization",
        ratio(
            chan(&|c| c.channel.read_bus_cycles + c.channel.write_bus_cycles),
            chan(&|c| c.mem_cycles),
        ),
        "ratio",
    );
    m.put("memctrl.replay_requests", sum(&|l| l.replay_requests), "count");
    m.put("memctrl.replay_ticks", sum(&|l| l.replay_ticks), "count");
    m.put("memctrl.ns_per_tick", sum(&|l| l.replay_ns) / sum(&|l| l.replay_ticks), "ns");

    let cwf = |f: &dyn Fn(&cwf_core::CwfStats) -> u64| -> f64 {
        refs.iter().filter_map(|r| r.counts.metrics.cwf.as_ref()).map(f).sum::<u64>() as f64
    };
    let dc = |f: &dyn Fn(&cwf_core::DramCacheStats) -> u64| -> f64 {
        refs.iter().filter_map(|r| r.counts.dramcache.as_ref()).map(f).sum::<u64>() as f64
    };
    m.put(
        "core.cw_served_fast_frac",
        ratio(cwf(&|c| c.cw_served_fast), cwf(&|c| c.demand_reads)),
        "ratio",
    );
    m.put(
        "core.dramcache_read_hit_rate",
        ratio(dc(&|d| d.read_hits), dc(&|d| d.read_hits + d.read_misses)),
        "ratio",
    );
    m.put("core.dramcache_fills", dc(&|d| d.fills), "count");

    m.put("sim.steps", total(refs, |c| c.kernel.steps) as f64, "count");
    m.put(
        "sim.cycles_skipped_frac",
        ratio(total(refs, |c| c.kernel.cycles_skipped) as f64, sim_cycles),
        "ratio",
    );
    m.put("sim.setup_ms", sum(&|l| l.setup_ns) / 1e6, "ms");
    m.put("sim.run_ms", sum(&|l| l.off_ns) / 1e6, "ms");
    m.put("sim.report_us", sum(&|l| l.report_ns) / 1e3, "us");

    let off = sum(&|l| l.off_ns);
    m.put("verify.commands_checked", sum(&|l| l.verify_commands), "count");
    m.put("verify.events_checked", sum(&|l| l.verify_events), "count");
    m.put("verify.overhead_frac", sum(&|l| l.verify_ns) / off - 1.0, "ratio");
    let events = sum(&|l| l.trace_events);
    let dropped = sum(&|l| l.trace_dropped);
    m.put("tracelog.events", events, "count");
    m.put("tracelog.dropped_frac", ratio(dropped, events + dropped), "ratio");
    m.put("tracelog.export_ms", sum(&|l| l.export_ns) / 1e6, "ms");
    m.put("tracelog.overhead_frac", sum(&|l| l.trace_ns) / off - 1.0, "ratio");
    m.put("ckpt.save_ms", sum(&|l| l.ckpt_save_ns) / 1e6, "ms");
    m.put("ckpt.load_ms", sum(&|l| l.ckpt_load_ns) / 1e6, "ms");
    m.put("ckpt.bytes", sum(&|l| l.ckpt_bytes), "bytes");

    let requests = (dse.hits + dse.batched + dse.misses) as f64;
    m.put("dse.requests", requests, "count");
    m.put("dse.hit_ratio", ratio(dse.hits as f64, requests), "ratio");
    m.put("dse.misses", dse.misses as f64, "count");
    m.put("dse.batched", dse.batched as f64, "count");
    m.put("dse.submit_ms_p50", dse.submit_ms_p50, "ms");
    m.put("dse.fetch_ms_p99", dse.fetch_ms_p99, "ms");
    m.put("dse.status_bytes", dse.status_bytes as f64, "bytes");
    m.put("dse.pool_steals", dse.pool_steals as f64, "count");
    m.put("dse.digest_ns", dse.digest_ns, "ns");

    // Span analysis: each cell's fastest traced whole repetition against
    // its fastest untraced one (spans cover whole repetitions, so the
    // per-unit best-of is not the right comparison here).
    let own = sp.self_times();
    let (mut traced_best, mut untraced_best, mut layer_self, mut root_self, mut root_dur) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in series {
        untraced_best += min(&s.untraced());
        let fastest = s
            .host_ns
            .iter()
            .zip(&s.roots)
            .filter_map(|(&h, r)| r.map(|r| (h, r)))
            .min_by_key(|&(h, _)| h);
        if let Some((h, root)) = fastest {
            traced_best += h;
            root_self += own[root];
            for (name, ns) in sp.subtree_self(root) {
                if name == "rep" {
                    root_dur += ns;
                } else {
                    layer_self += ns;
                    *by_name.entry(name).or_insert(0) += ns;
                }
            }
        }
    }
    root_dur += layer_self;
    let overhead = traced_best as f64 / untraced_best as f64 - 1.0;
    let self_per_read = layer_self as f64 / reads as f64;
    for (name, ns) in &by_name {
        println!(
            "span {name}: self_ms {:.3} ({:.1}% of traced best)",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / traced_best as f64
        );
    }
    println!(
        "spans: layer self {:.1} ns/read vs fastest untraced repetition {:.1} ns/read \
         (per-unit best-of {:.1}); tracing overhead {:+.2}%; unattributed {:.2}%",
        self_per_read,
        untraced_best as f64 / reads as f64,
        host_ns_per_read,
        100.0 * overhead,
        100.0 * ratio(root_self as f64, root_dur as f64)
    );
    m.put("spans.count", sp.len() as f64, "count");
    m.put("spans.overhead_frac", overhead, "ratio");
    m.put("spans.unattributed_frac", ratio(root_self as f64, root_dur as f64), "ratio");
    m.put("spans.self_ns_per_read", self_per_read, "ns");

    let ops = layers.iter().map(|l| l.ops).sum::<u64>() + dse.ops;
    let fails = layers.iter().map(|l| l.fails).sum::<u64>() + dse.fails;
    (ops, fails)
}
