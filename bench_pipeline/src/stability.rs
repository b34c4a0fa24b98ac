//! `--stability N`: does the benchmark agree with itself?
//!
//! Two sets of N runs per workload of the *same* binary, interleaved
//! (A B A B …) so that drift in the machine lands on both sets, each
//! run with a seed of its own. For every end-to-end metric × workload
//! it prints both medians and quartiles, the spread of set A (the
//! distance between its quartiles as a share of its median) and the
//! gap between the medians in the metric's worse direction, beside the
//! bound from `BENCHMARK.json` — the same arithmetic the acceptance
//! procedure applies. A gap beyond its bound fails the check: a bound a
//! no-op change can trip is no bound.

use serde_json::Value;

use crate::run::{self, Env, RunConfig};
use crate::stats::{median, quartiles, sorted};
use crate::workloads::Kind;

pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// What `BENCHMARK.json` fixes and the code does not repeat.
pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<Bound>,
}

fn array<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match doc.get(key) {
        Value::Array(items) => Ok(items),
        other => Err(format!(
            "BENCHMARK.json: {key} is {}, not an array",
            other.kind()
        )),
    }
}

fn string(item: &Value, key: &str) -> Result<String, String> {
    item.get(key)
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: {key} missing or not a string"))
}

fn number(item: &Value, key: &str) -> Result<f64, String> {
    match item.get(key) {
        Value::Number(n) => Ok(n.as_f64()),
        other => Err(format!(
            "BENCHMARK.json: {key} is {}, not a number",
            other.kind()
        )),
    }
}

impl Contract {
    /// Reads `BENCHMARK.json` from the working directory.
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let end_to_end = array(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bound {
                    name: string(m, "name")?,
                    unit: string(m, "unit")?,
                    lower_is_better: match string(m, "better")?.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                    },
                    bound: number(m, "bound")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Contract {
            run_seconds: number(&doc, "run_seconds")?,
            end_to_end,
        })
    }
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let v = sorted(values);
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median(&v),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Share of `a`'s median by which `b`'s median is worse (negative when
/// it is better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn check(
    env: &Env,
    contract: &Contract,
    runs: usize,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    println!("# bench_pipeline --stability {runs}");
    println!();
    println!(
        "Two interleaved sets (A B A B …) of {runs} runs per workload of one binary, \
         {seconds} s windows, seeds {seed}…{}.",
        seed + (Kind::ALL.len() * runs * 2) as u64 - 1
    );
    println!(
        "`spread` is set A's (q3 − q1) ÷ median; `gap` is how much worse the worse set's \
         median is than the other's, as a share of it. A gap beyond its bound fails."
    );
    println!();
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread | gap | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|");

    let mut next_seed = seed;
    let (mut all_ok, mut failed_ops) = (true, 0);
    for kind in Kind::ALL {
        // sets[set][metric] = values over the runs.
        let mut sets = vec![vec![Vec::new(); contract.end_to_end.len()]; 2];
        for _ in 0..runs {
            for set in &mut sets {
                let report = run::run(
                    env,
                    &RunConfig {
                        kind,
                        seed: next_seed,
                        seconds,
                        trace: false,
                        smoke: false,
                    },
                )?;
                next_seed += 1;
                failed_ops += report.failed;
                for (values, bound) in set.iter_mut().zip(&contract.end_to_end) {
                    values.push(report.metric(&bound.name).ok_or_else(|| {
                        format!("BENCHMARK.json names {}, which no run reports", bound.name)
                    })?);
                }
            }
        }
        for (i, bound) in contract.end_to_end.iter().enumerate() {
            let (a, b) = (Summary::of(&sets[0][i]), Summary::of(&sets[1][i]));
            let gap = worsening(a.median, b.median, bound.lower_is_better).max(worsening(
                b.median,
                a.median,
                bound.lower_is_better,
            ));
            let ok = gap <= bound.bound;
            all_ok &= ok;
            println!(
                "| {} | {} ({}) | {:.4} [{:.4}, {:.4}] | {:.4} [{:.4}, {:.4}] | {:.2}% | {:.2}% | {:.0}% | {} |",
                kind.name(),
                bound.name,
                bound.unit,
                a.median,
                a.q1,
                a.q3,
                b.median,
                b.q1,
                b.q3,
                a.spread() * 100.0,
                gap * 100.0,
                bound.bound * 100.0,
                if ok { "ok" } else { "**beyond bound**" }
            );
        }
    }
    println!();
    println!(
        "{failed_ops} failed ops. {}",
        if all_ok && failed_ops == 0 {
            "Every gap is within its bound."
        } else {
            "NOT stable."
        }
    );
    Ok(all_ok && failed_ops == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{END_TO_END, PER_LAYER};

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!(s.spread(), 1.0);
    }

    /// The code and `BENCHMARK.json` name the same workloads and
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let doc: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            array(&doc, key)
                .unwrap()
                .iter()
                .map(|m| string(m, field).unwrap())
                .collect()
        };
        let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names("workloads", "name"), kinds);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let (code_names, code_units): (Vec<&str>, Vec<&str>) = table.iter().copied().unzip();
            assert_eq!(names(key, "name"), code_names, "{key} names");
            assert_eq!(names(key, "unit"), code_units, "{key} units");
        }
        let contract = Contract::parse(&text).unwrap();
        assert!(contract
            .end_to_end
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(contract.run_seconds >= 1.0 && contract.run_seconds <= 60.0);
    }
}
