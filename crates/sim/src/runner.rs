//! Benchmark runners: whole runs and checkpoint-bounded segments.

use workloads::by_name;

use crate::config::RunConfig;
use crate::metrics::RunMetrics;
use crate::system::{KernelStats, System};

/// Everything one finished run reports. The metrics are the same
/// whether or not the observers ran: the oracle and the tracer observe,
/// never steer.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// Kernel execution counters (tick-call counts, skipped cycles).
    pub kernel: KernelStats,
    /// The verify oracle's report (`None` when `cfg.verify` is off).
    pub verify: Option<cwf_verify::VerifyReport>,
    /// The collected trace (`None` when `cfg.trace` is off).
    pub trace: Option<crate::trace::TraceReport>,
    /// DRAM-cache statistics (`None` unless the memory is a DRAM cache).
    pub dramcache: Option<cwf_core::DramCacheStats>,
}

impl RunOutcome {
    /// Collect `sys`'s reports for a run that just finished with `metrics`.
    #[must_use]
    pub fn collect(metrics: RunMetrics, sys: &System) -> Self {
        RunOutcome {
            metrics,
            kernel: sys.kernel_stats(),
            verify: sys.verify_report(),
            trace: sys.trace_report(),
            dramcache: sys.hierarchy().memory().dramcache_stats(),
        }
    }

    /// The verdict every front end applies to a finished run: clean
    /// unless the verify oracle ran and found a violation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.verify.as_ref().is_none_or(cwf_verify::VerifyReport::is_clean)
    }

    /// The run's `cwfmem.run.v1` document with the kernel object and,
    /// when present, the verify and trace objects. Every front end
    /// (`run --json`, `resume --json`, serve cells) prints this, so a
    /// split or served run is byte-identical to the plain one.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::report::write_json(
            &self.metrics,
            Some(&self.kernel),
            self.verify.as_ref(),
            self.trace.as_ref(),
        )
    }
}

/// Run one benchmark under `cfg` and collect everything it reports. The
/// memory is `backend` when given (e.g. a `--spec file.toml` homogeneous
/// memory whose device config came from disk), else `cfg.mem`'s preset.
///
/// # Panics
///
/// Panics if `bench` is not one of the 27 suite programs or the
/// `dcsweep`/`dcthrash`/`dcresident` DRAM-cache stressors.
#[must_use]
pub fn run_benchmark_outcome(
    cfg: &RunConfig,
    bench: &str,
    backend: Option<crate::config::MemBackend>,
) -> RunOutcome {
    let profile = by_name(bench)
        .unwrap_or_else(|| panic!("unknown benchmark '{bench}' (see workloads::suite())"));
    let mut sys = match backend {
        Some(backend) => System::with_backend(cfg, profile, backend),
        None => System::new(cfg, profile),
    };
    let metrics = sys.run();
    RunOutcome::collect(metrics, &sys)
}

/// Result of a checkpoint-bounded run segment ([`run_benchmark_ckpt`],
/// [`resume_benchmark_to_cycle`]): either the run completed inside the
/// segment, or it paused and serialized.
#[allow(clippy::large_enum_variant)] // one value per run segment; not stored in bulk
#[derive(Debug)]
pub enum CkptOutcome {
    /// The run finished before reaching the stop cycle, with the same
    /// outcome as an unsegmented run.
    Finished(RunOutcome),
    /// The run paused at the stop cycle; the blob resumes it.
    Paused {
        /// A checkpoint format v3 blob (see [`System::save_ckpt`]).
        ckpt: Vec<u8>,
    },
}

/// Run `bench` under `cfg`, pausing at the first cycle `>= stop_at`. A
/// paused run serializes to a checkpoint format v3 blob that
/// [`resume_benchmark`] continues with bit-identical results — the
/// verify oracle's books and the trace ring both ride the blob.
///
/// # Errors
///
/// Fails when `bench` is unknown or the paused state refuses to
/// serialize.
pub fn run_benchmark_ckpt(
    cfg: &RunConfig,
    bench: &str,
    stop_at: u64,
) -> cwf_ckpt::Result<CkptOutcome> {
    let profile = by_name(bench)
        .ok_or_else(|| cwf_ckpt::CkptError::new(format!("unknown benchmark '{bench}'")))?;
    let mut sys = System::new(cfg, profile);
    segment_outcome(sys.run_to_cycle(stop_at), sys)
}

/// Resume a checkpointed run to completion, returning what the
/// uninterrupted run would have: verify and trace reports are present
/// exactly when the checkpointed run had them enabled.
///
/// # Errors
///
/// Fails when the blob is malformed or disagrees with the workspace's
/// benchmark registry.
pub fn resume_benchmark(bytes: &[u8]) -> cwf_ckpt::Result<RunOutcome> {
    let mut sys = System::from_ckpt(bytes)?;
    let metrics = sys.run();
    Ok(RunOutcome::collect(metrics, &sys))
}

/// Resume a checkpointed run, pausing again at the first cycle
/// `>= stop_at` (segmented execution: a run can hop across any number of
/// processes).
///
/// # Errors
///
/// Fails when the blob is malformed or re-serialization fails.
pub fn resume_benchmark_to_cycle(bytes: &[u8], stop_at: u64) -> cwf_ckpt::Result<CkptOutcome> {
    let mut sys = System::from_ckpt(bytes)?;
    segment_outcome(sys.run_to_cycle(stop_at), sys)
}

/// Package a `run_to_cycle` result: finished runs report, paused runs
/// serialize.
fn segment_outcome(metrics: Option<RunMetrics>, mut sys: System) -> cwf_ckpt::Result<CkptOutcome> {
    match metrics {
        Some(metrics) => Ok(CkptOutcome::Finished(RunOutcome::collect(metrics, &sys))),
        None => Ok(CkptOutcome::Paused { ckpt: sys.save_ckpt()? }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemKind;

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = run_benchmark_outcome(&RunConfig::quick(MemKind::Ddr3, 10), "doom", None);
    }
}
