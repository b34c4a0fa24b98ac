//! `bench_pipeline` — the repo's benchmark. See README.md beside the
//! manifest for the workloads, the metrics and how to read the output.

mod daemon;
mod gen;
mod layers;
mod run;
mod stability;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use run::{Env, RunConfig, RunReport};
use workloads::Kind;

/// The seed runs use when none is given. Claims made with it are
/// re-checked on the held-out seed the README names.
const DEFAULT_SEED: u64 = 2014;

const USAGE: &str = "\
usage: bench_pipeline --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       bench_pipeline --stability <runs-per-set> [--seed <u64>] [--seconds <n>]
       bench_pipeline --smoke [--seed <u64>]
workloads: sia_cold_minimal sia_cold_sampling sia_hot ingest_push pia_psop
run from the repository root (the directory that holds BENCHMARK.json)";

enum Mode {
    Run(Kind),
    Stability(usize),
    Smoke,
}

struct Args {
    mode: Mode,
    seed: u64,
    /// `None`: `run_seconds` of `BENCHMARK.json`.
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut mode, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            mode = Some(Mode::Smoke);
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--workload" => {
                let kind = Kind::from_name(value).ok_or_else(|| bad(&"no such workload"))?;
                mode = Some(Mode::Run(kind));
            }
            "--stability" => match value.parse() {
                Ok(n) if n >= 2 => mode = Some(Mode::Stability(n)),
                Ok(_) => return Err(bad(&"quartiles need at least 2 runs per set")),
                Err(e) => return Err(bad(&e)),
            },
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 60.0 => seconds = Some(s),
                _ => return Err(bad(&"want a number of seconds in (0, 60]")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(bad(&"want 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --stability, --smoke is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds the daemon into the build directory this binary was built
/// into, so the benchmark always drives the checkout it runs in (cargo
/// makes this a no-op when `indaas` is already up to date).
fn prepare() -> Result<Env, String> {
    if !std::path::Path::new("BENCHMARK.json").exists()
        || !std::path::Path::new("Cargo.toml").exists()
    {
        return Err("run from the repository root: no BENCHMARK.json and Cargo.toml here".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target_dir: PathBuf = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("this binary does not sit in a cargo build directory")?
        .into();
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "indaas"])
        .args(["--manifest-path", "Cargo.toml", "--target-dir"])
        .arg(&target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemon failed: {status}"));
    }
    let indaas = target_dir.join("release/indaas");
    if !indaas.exists() {
        return Err(format!("cargo built no {}", indaas.display()));
    }
    Ok(Env { indaas, target_dir })
}

fn print_human(kind: Kind, report: &RunReport) {
    eprintln!("{}:", kind.name());
    for m in &report.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {} ops attempted (one latency sample each), {} failed",
        report.attempted, report.failed
    );
    if let Some(w) = &report.whole_window {
        let tail = w
            .tail
            .map_or("no tail resolvable".to_string(), |(pct, ms)| {
                format!("p{pct} {ms:.4} ms (the highest with ten samples beyond it)")
            });
        eprintln!(
            "  whole window, host's speed mix included, not compared: p50 {:.4} ms, {tail}, {:.2} ops/s",
            w.p50_ms, w.ops_per_s
        );
    }
    if !report.setups_s.is_empty() {
        eprintln!("  set-up of each boot, s: {:.3?}", report.setups_s);
    }
    if let Some(path) = &report.trace_file {
        eprintln!("  spans written to {}", path.display());
    }
    if let Some(why) = &report.first_failure {
        eprintln!("  first failed op: {why}");
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let env = prepare()?;
    let contract = stability::Contract::load()?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    match args.mode {
        Mode::Run(kind) => {
            let report = run::run(
                &env,
                &RunConfig {
                    kind,
                    seed: args.seed,
                    seconds,
                    trace: args.trace,
                    smoke: false,
                },
            )?;
            print_human(kind, &report);
            println!("{}", report.to_json());
            Ok(report.correct())
        }
        Mode::Smoke => {
            let mut ok = true;
            for kind in Kind::ALL {
                let report = run::run(
                    &env,
                    &RunConfig {
                        kind,
                        seed: args.seed,
                        seconds: args.seconds.unwrap_or(1.0),
                        trace: false,
                        smoke: true,
                    },
                )?;
                print_human(kind, &report);
                ok &= report.correct();
            }
            Ok(ok)
        }
        Mode::Stability(runs) => stability::check(&env, &contract, runs, args.seed, seconds),
    }
}

fn main() -> ExitCode {
    // Every daemon and scratch directory is owned by a value inside
    // `real_main`; returning (or unwinding) through it cleans them up,
    // which `process::exit` would not.
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_pipeline: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload ingest_push --seed 7 --seconds 15 --trace 1").unwrap();
        assert!(matches!(a.mode, Mode::Run(Kind::IngestPush)));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), true));
        let a = args("--workload pia_psop").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, None, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload sia_hot --trace 2",
            "--workload sia_hot --seconds 0",
            "--workload sia_hot --seconds 61",
            "--workload sia_hot --seed -1",
            "--stability 1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(args(line).is_err(), "{line:?} parsed");
        }
    }
}
