//! One benchmark run: generate, boot, warm up, measure, check, report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::daemon::{Daemon, TempDir};
use crate::gen;
use crate::layers;
use crate::stats::{median, percentile, resolvable_tail, sorted};
use crate::trace::Tracer;
use crate::workloads::{Driver, Kind, Oracle};

/// End-to-end metrics, reported by every untraced run: name and unit.
/// Bounds and directions live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_floor_ms", "ms"),
    ("daemon_cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("topology.records_gen_ms", "ms"),
    ("deps.boot_load_ms", "ms"),
    ("deps.parse_records_us", "us"),
    ("deps.ingest_us", "us"),
    ("deps.snapshot_ns", "ns"),
    ("deps.shards_touched_per_batch", "count"),
    ("sia.graph_build_us", "us"),
    ("sia.graph_nodes", "count"),
    ("sia.rg_minimal_us", "us"),
    ("sia.rg_minimal_groups", "count"),
    ("sia.rg_sampling_us", "us"),
    ("sia.sampling_rounds_per_s", "1/s"),
    ("sia.sampling_groups_per_kround", "count"),
    ("sia.ranking_us", "us"),
    ("core.audit_sia_us", "us"),
    ("core.stage_cover_ratio", "ratio"),
    ("service.encode_request_us", "us"),
    ("service.decode_response_us", "us"),
    ("service.response_bytes", "bytes"),
    ("service.job_key_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.cache_insert_us", "us"),
    ("service.ping_roundtrip_us", "us"),
    ("service.wire_overhead_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.sched_wait_us_p50", "us"),
    ("service.daemon_threads", "count"),
    ("client.wait_us", "us"),
    ("client.op_p50_ms", "ms"),
    ("client.op_p90_ms", "ms"),
    ("pia.psop_total_ms", "ms"),
    ("pia.rank_deployments_ms", "ms"),
    ("pia.wire_bytes", "bytes"),
    ("crypto.commutative_encrypt_us", "us"),
    ("crypto.hash_to_group_us", "us"),
    ("bigint.modpow_1024_us", "us"),
    ("pia.modexp_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-op timing metrics are read at the sample this share of the
/// run's samples are at least as fast as, and never above the third
/// fastest, so that no single op is the reading (see [`floor`]).
const FLOOR_SHARE: f64 = 1.0 / 200.0;
const FLOOR_MIN_RANK: usize = 3;

/// An untraced run cuts its window into this many segments and boots a
/// throw-away daemon before each one after the first, so `setup_s` is
/// sampled across the run rather than several times in its first
/// seconds.
const BOOTS: usize = 8;

/// Where the benchmark finds the daemon and may write.
pub struct Env {
    /// The `indaas` binary beside this one.
    pub indaas: PathBuf,
    /// The cargo build directory both were built into.
    pub target_dir: PathBuf,
}

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Developer run: one boot, one segment.
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong answer, if any op failed.
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// Untraced runs: the plain statistics of the window, for the
    /// reader. They carry the host's mix of speeds, so nothing compares
    /// them.
    pub whole_window: Option<WholeWindow>,
    /// Every boot's set-up time, s; `setup_s` is their median.
    pub setups_s: Vec<f64>,
    pub trace_file: Option<PathBuf>,
}

pub struct WholeWindow {
    pub p50_ms: f64,
    /// The highest tail percentile the window's samples resolve, and
    /// its value in ms.
    pub tail: Option<(f64, f64)>,
    pub ops_per_s: f64,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line of the benchmark contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The measured stretch of the closed loop, op by op.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Per op, the CPU time the daemon used from the previous op's
    /// answer to this one's. The loop is closed, so the daemon is idle
    /// when the answer is in and all of it belongs to this op.
    daemon_cpu_ms: Vec<f64>,
    /// Per op, whether spans were recorded (traced runs alternate).
    spanned: Vec<bool>,
    response_bytes: Vec<f64>,
    /// Per op, latency minus the daemon's own `elapsed_us`, µs.
    wire_overhead_us: Vec<f64>,
    elapsed: Duration,
    failed: u64,
    first_failure: Option<String>,
}

impl Window {
    /// Runs whole ops for `duration` more.
    fn measure(
        &mut self,
        driver: &mut Driver,
        daemon: &Daemon,
        tracer: &mut Tracer,
        duration: Duration,
        alternate_spans: bool,
    ) -> Result<(), String> {
        let mut cpu_before = daemon.cpu_ms()?;
        let started = Instant::now();
        while started.elapsed() < duration {
            let spanned = alternate_spans && self.spanned.len() % 2 == 1;
            tracer.set_enabled(spanned);
            let outcome = driver.op(tracer).map_err(|e| daemon.failure(&e))?;
            let cpu = daemon.cpu_ms()?;
            self.daemon_cpu_ms.push(cpu - cpu_before);
            cpu_before = cpu;
            let latency_us = outcome.latency.as_secs_f64() * 1e6;
            self.latencies_ms.push(latency_us / 1e3);
            self.spanned.push(spanned);
            self.response_bytes.push(outcome.response_bytes as f64);
            self.wire_overhead_us
                .push(latency_us - outcome.daemon_elapsed_us as f64);
            if let Some(why) = outcome.wrong {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
        self.elapsed += started.elapsed();
        Ok(())
    }

    fn latencies_ms(&self, spanned: bool) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.spanned)
            .filter(|(_, &s)| s == spanned)
            .map(|(&l, _)| l)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// Reads a per-op timing with the host quiet: the value the fastest
/// ops of the window stay within.
///
/// The box this runs on is a guest on a shared host, and its speed
/// moves in steps of about 1.25× (four levels seen, 2× end to end) that
/// last from a fifth of a second to several seconds. How a run's
/// seconds divide among the levels changes from run to run and drifts
/// over tens of minutes, so a median — of ops or of blocks of ops —
/// lands on whichever level held the majority and same-code runs
/// disagree by a quarter. The fastest level is the hardware with the
/// neighbours idle: it is the only one that is the same in every run,
/// nearly every 20 s run visits it, and the ops are constant work, so
/// the low end of the latency distribution is that level and nothing
/// else. The lower the reading, the less of the neighbours is in it.
fn floor(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let rank = ((FLOOR_SHARE * sorted.len() as f64).ceil() as usize).max(FLOOR_MIN_RANK);
    sorted[rank.min(sorted.len()) - 1]
}

pub fn run(env: &Env, config: &RunConfig) -> Result<RunReport, String> {
    let mut tracer = Tracer::new(config.trace);
    let scratch = TempDir::create(&env.target_dir)?;

    // Inputs, before any clock starts.
    let span = tracer.begin("topology.records_gen", None, 0);
    let dataset = gen::dataset();
    tracer.end(span);
    let records_file = scratch.path().join("records.txt");
    std::fs::write(&records_file, &dataset.text)
        .map_err(|e| format!("writing {}: {e}", records_file.display()))?;
    let oracle = Oracle::compute(config.kind, &dataset, config.seed)?;

    // Set-up: spawn → records loaded → Ping answered → sessions open →
    // warm-up done. Every boot replays the same seed, so each is the
    // same work.
    let mut setups = Vec::new();
    let mut boot = || -> Result<(Daemon, Driver), String> {
        let started = Instant::now();
        let daemon = Daemon::spawn(&env.indaas, &records_file, scratch.path())?;
        let driver = Driver::start(config.kind, &daemon.addr, config.seed, oracle)
            .map_err(|e| daemon.failure(&e))?;
        setups.push(started.elapsed().as_secs_f64());
        Ok((daemon, driver))
    };
    let (daemon, mut driver) = boot()?;
    let seconds = Duration::from_secs_f64(config.seconds);

    if config.trace {
        return traced(env, config, &records_file, daemon, driver, tracer, seconds);
    }

    let boots = if config.smoke { 1 } else { BOOTS };
    let mut window = Window::default();
    for segment in 0..boots {
        if segment > 0 {
            // A set-up sample from this part of the run; the measured
            // daemon idles meanwhile.
            drop(boot()?);
        }
        window.measure(
            &mut driver,
            &daemon,
            &mut tracer,
            seconds / boots as u32,
            false,
        )?;
    }
    driver.check_quiet().map_err(|e| daemon.failure(&e))?;

    let values = [
        floor(&window.latencies_ms),
        floor(&window.daemon_cpu_ms),
        median(&sorted(&setups)),
        daemon.peak_rss_mib()?,
    ];
    let latencies = sorted(&window.latencies_ms);
    let whole_window = WholeWindow {
        p50_ms: percentile(&latencies, 50.0),
        tail: resolvable_tail(latencies.len()).map(|pct| (pct, percentile(&latencies, pct))),
        ops_per_s: (window.attempted() - window.failed) as f64 / window.elapsed.as_secs_f64(),
    };
    Ok(RunReport {
        attempted: window.attempted(),
        failed: window.failed,
        first_failure: window.first_failure,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect(),
        whole_window: Some(whole_window),
        setups_s: setups,
        trace_file: None,
    })
}

/// The traced run: the same loop against the same daemon with spans
/// recorded around every other op (the two halves see the same mix of
/// host states, so the ratio of their medians is the tracing overhead),
/// the daemon's own counters, then the in-process replay.
fn traced(
    env: &Env,
    config: &RunConfig,
    records_file: &Path,
    daemon: Daemon,
    mut driver: Driver,
    mut tracer: Tracer,
    seconds: Duration,
) -> Result<RunReport, String> {
    let (hits_before, misses_before) = driver.cache_lookups()?;
    let mut window = Window::default();
    // Two thirds of the window on the wire; the replay takes the rest.
    window.measure(&mut driver, &daemon, &mut tracer, seconds * 2 / 3, true)?;
    tracer.set_enabled(true);
    driver.check_quiet().map_err(|e| daemon.failure(&e))?;
    let (hits, misses) = driver.cache_lookups()?;
    let (hits, lookups) = (
        hits - hits_before,
        (hits - hits_before) + (misses - misses_before),
    );
    driver.pings(&mut tracer, 200)?;
    let sched_wait_us_p50 = driver.daemon_histo_p50_us("sched_wait_us")?;
    let daemon_threads = daemon.threads()?;
    drop((driver, daemon));
    let plain_ms = sorted(&window.latencies_ms(false));
    let plain_p50_ms = percentile(&plain_ms, 50.0);
    let spanned_p50_ms = percentile(&sorted(&window.latencies_ms(true)), 50.0);

    let counts = layers::replay(&mut tracer, records_file, config.kind, config.seed)?;

    let med = |name: &str| median_or_zero(&tracer.durations_ns(name));
    let us = |name: &str| med(name) / 1e3;
    let ms = |name: &str| med(name) / 1e6;
    let sampling_s = med("sia.rg_sampling") / 1e9;
    let (audit_whole, audit_self): (f64, f64) = (
        tracer.durations_ns("core.audit_sia").iter().sum(),
        tracer.self_times_ns("core.audit_sia").iter().sum(),
    );
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.extend([
        ("topology.records_gen_ms", ms("topology.records_gen")),
        ("deps.boot_load_ms", ms("deps.boot_load")),
        ("deps.parse_records_us", us("deps.parse_records")),
        ("deps.ingest_us", us("deps.ingest")),
        ("deps.snapshot_ns", med("deps.snapshot")),
        (
            "deps.shards_touched_per_batch",
            counts.shards_touched as f64,
        ),
        ("sia.graph_build_us", us("sia.graph_build")),
        ("sia.graph_nodes", counts.graph_nodes as f64),
        ("sia.rg_minimal_us", us("sia.rg_minimal")),
        ("sia.rg_minimal_groups", counts.minimal_groups as f64),
        ("sia.rg_sampling_us", us("sia.rg_sampling")),
        (
            "sia.sampling_rounds_per_s",
            gen::SAMPLING_ROUNDS as f64 / sampling_s,
        ),
        (
            "sia.sampling_groups_per_kround",
            counts.sampling_groups as f64 * 1e3 / gen::SAMPLING_ROUNDS as f64,
        ),
        ("sia.ranking_us", us("sia.ranking")),
        ("core.audit_sia_us", us("core.audit_sia")),
        ("core.stage_cover_ratio", 1.0 - audit_self / audit_whole),
        ("service.encode_request_us", us("client.encode")),
        ("service.decode_response_us", us("client.decode")),
        (
            "service.response_bytes",
            median_or_zero(&window.response_bytes),
        ),
        ("service.job_key_us", us("service.job_key")),
        ("service.cache_get_us", us("service.cache_get")),
        ("service.cache_insert_us", us("service.cache_insert")),
        ("service.ping_roundtrip_us", us("service.ping_roundtrip")),
        (
            "service.wire_overhead_us",
            median_or_zero(&window.wire_overhead_us),
        ),
        (
            "service.cache_hit_ratio",
            hits as f64 / (lookups as f64).max(1.0),
        ),
        ("service.sched_wait_us_p50", sched_wait_us_p50 as f64),
        ("service.daemon_threads", daemon_threads as f64),
        (
            "client.wait_us",
            median_or_zero(&waits_per_op_ns(&tracer)) / 1e3,
        ),
        ("client.op_p50_ms", plain_p50_ms),
        ("client.op_p90_ms", percentile(&plain_ms, 90.0)),
        ("pia.psop_total_ms", ms("pia.psop_total")),
        ("pia.rank_deployments_ms", ms("pia.rank_deployments")),
        ("pia.wire_bytes", counts.pia_wire_bytes as f64),
        (
            "crypto.commutative_encrypt_us",
            us("crypto.commutative_encrypt"),
        ),
        ("crypto.hash_to_group_us", us("crypto.hash_to_group")),
        ("bigint.modpow_1024_us", us("bigint.modpow_1024")),
        ("pia.modexp_share", modexp_share(&tracer)),
        ("trace.overhead_ratio", spanned_p50_ms / plain_p50_ms),
    ]);

    let trace_file = env
        .target_dir
        .join(format!("bench_pipeline/trace-{}.json", config.kind.name()));
    std::fs::write(&trace_file, tracer.to_json())
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;

    Ok(RunReport {
        attempted: window.attempted(),
        failed: window.failed,
        first_failure: window.first_failure,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: values[name],
                unit,
            })
            .collect(),
        whole_window: None,
        setups_s: Vec::new(),
        trace_file: Some(trace_file),
    })
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&sorted(values))
    }
}

/// The share of a P-SOP run that is modular exponentiation: per replay
/// repetition, the run's modexp count × that repetition's median
/// encryption time ÷ that repetition's protocol run; then the median.
fn modexp_share(tracer: &Tracer) -> f64 {
    let of = |name: &str, rep: u64| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && s.op == rep)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    };
    let shares: Vec<f64> = (0..)
        .map(|rep| {
            (
                of("crypto.commutative_encrypt", rep),
                of("pia.psop_total", rep),
            )
        })
        .take_while(|(encrypts, runs)| !encrypts.is_empty() && !runs.is_empty())
        .map(|(encrypts, runs)| gen::PIA_MODEXPS as f64 * median(&sorted(&encrypts)) / runs[0])
        .collect();
    median_or_zero(&shares)
}

/// Per op, the time the client spent blocked on the daemon: the sum of
/// the op's `client.wait` spans (`ingest_push` has two — B's answer and
/// A's push).
fn waits_per_op_ns(tracer: &Tracer) -> Vec<f64> {
    let mut per_op: BTreeMap<u32, f64> = BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.name == "client.wait") {
        if let Some(parent) = span.parent {
            *per_op.entry(parent).or_default() += (span.end_ns - span.start_ns) as f64;
        }
    }
    per_op.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_fastest_two_hundredth_and_never_one_op() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(floor(&v), 5.0);
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(floor(&v), 6.0);
        // Few samples: the third fastest, or the slowest there is.
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(floor(&v), 3.0);
        assert_eq!(floor(&[9.0, 7.0]), 9.0);
    }
}
