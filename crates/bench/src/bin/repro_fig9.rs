//! Regenerates Figure 9: SIA vs PIA computational time for auditing all
//! potential two-way (a) and three-way (b) redundancy deployments among
//! 5–20 cloud providers.
//!
//! Four schemes, as in the paper:
//!
//! * PIA based on KS           (privacy-preserving, homomorphic baseline)
//! * SIA based on minimal RG   (trusted auditor, exact cut sets)
//! * PIA based on P-SOP        (privacy-preserving, commutative encryption)
//! * SIA based on sampling     (trusted auditor, 10⁶ rounds)
//!
//! Every provider holds an n-element component set (paper: 10,000; default
//! here: 1,000 — set `FIG9_N`). Methodology, on a single machine:
//!
//! * protocol runs for different combinations are identical and
//!   independent, so the figure's totals are per-run wall clock ×
//!   C(k, way) (the paper fanned the same runs across 40 workstations);
//! * P-SOP, KS (linear in n) and minimal-RG (~n^way cut-set products) are
//!   measured at a feasible calibration size and scaled by their growth
//!   laws — each printed row says what was measured and what was scaled.
//!   The minimal-RG blow-up is the paper's own point (§4.1.2: NP-hard).
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_fig9`

#![forbid(unsafe_code)]

use indaas_bench::{synthetic_datasets, timed};
use indaas_graph::detail::{component_sets_to_graph, ComponentSet};
use indaas_pia::{run_ks, run_psop, KsConfig, PsopConfig};
use indaas_sia::{failure_sampling, minimal_risk_groups, MinimalConfig, SamplingConfig};
use indaas_simnet::SimNetwork;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn choose(n: usize, k: usize) -> u64 {
    let mut num = 1u64;
    let mut den = 1u64;
    for i in 0..k {
        num *= (n - i) as u64;
        den *= (i + 1) as u64;
    }
    num / den
}

fn graph_of(datasets: &[Vec<String>]) -> indaas_graph::FaultGraph {
    let sets: Vec<ComponentSet> = datasets
        .iter()
        .enumerate()
        .map(|(i, d)| ComponentSet::new(format!("P{i}"), d.clone()))
        .collect();
    component_sets_to_graph(&sets).expect("two-level graph builds")
}

fn main() {
    let n = env_or("FIG9_N", 1_000);
    let sampling_rounds = env_or("FIG9_SAMPLING_ROUNDS", 1_000_000) as u64;
    let providers = [5usize, 10, 15, 20];
    // Calibration sizes keeping single-machine runs tractable.
    let ks_cal = n.min(env_or("FIG9_KS_CAL", 300));
    let psop_cal = n.min(env_or("FIG9_PSOP_CAL", 500));

    for way in [2usize, 3] {
        println!(
            "=== Figure 9({}) — {way}-way redundancy, n = {n} elements/provider ===",
            if way == 2 { "a" } else { "b" }
        );
        let minimal_cal = if way == 2 { n.min(300) } else { n.min(60) };

        // PIA/KS: linear in n, measured at ks_cal.
        let (_, ks_t) = timed(|| {
            let mut net = SimNetwork::new(way + 1);
            run_ks(
                &synthetic_datasets(way, ks_cal, 0.3),
                &KsConfig {
                    key_bits: 1024,
                    bucket_size: 16,
                    seed: 9,
                },
                &mut net,
            )
        });
        let ks_run = ks_t * n as f64 / ks_cal as f64;

        // SIA/minimal-RG: ~ (0.7·n)^way cut-set products.
        let (_, min_t) = timed(|| {
            minimal_risk_groups(
                &graph_of(&synthetic_datasets(way, minimal_cal, 0.3)),
                &MinimalConfig::default(),
            )
        });
        let minimal_run = min_t * (n as f64 / minimal_cal as f64).powi(way as i32);

        // PIA/P-SOP: linear in n, measured at psop_cal.
        let (_, psop_t) = timed(|| {
            let mut net = SimNetwork::new(way + 1);
            run_psop(
                &synthetic_datasets(way, psop_cal, 0.3),
                &PsopConfig::default(),
                &mut net,
            )
        });
        let psop_run = psop_t * n as f64 / psop_cal as f64;

        // SIA/sampling: measured directly at full n (rounds dominate).
        let (_, sampling_run) = timed(|| {
            failure_sampling(
                &graph_of(&synthetic_datasets(way, n, 0.3)),
                &SamplingConfig {
                    rounds: sampling_rounds,
                    fail_prob: 0.5,
                    seed: 9,
                    threads: 1,
                    weighted: false,
                },
            )
        });

        println!(
            "per-run seconds at n={n}: KS={ks_run:.1} (measured n={ks_cal})  \
             minimal-RG={minimal_run:.1} (measured n={minimal_cal}, ~n^{way} scaling)  \
             P-SOP={psop_run:.1} (measured n={psop_cal})  \
             sampling(10^{})={sampling_run:.1} (measured directly)",
            (sampling_rounds as f64).log10() as u32
        );
        println!(
            "{:>10} {:>10} {:>14} {:>16} {:>14} {:>18}",
            "providers",
            "combos",
            "PIA/KS (s)",
            "SIA/minimal (s)",
            "PIA/P-SOP (s)",
            "SIA/sampling (s)"
        );
        for &k in &providers {
            let combos = choose(k, way);
            println!(
                "{:>10} {:>10} {:>14.1} {:>16.1} {:>14.1} {:>18.1}",
                k,
                combos,
                ks_run * combos as f64,
                minimal_run * combos as f64,
                psop_run * combos as f64,
                sampling_run * combos as f64
            );
        }
        println!();
    }
    println!(
        "shape (as in the paper): PIA/KS is the most expensive by orders of\n\
         magnitude; exact minimal-RG enumeration blows up polynomially in the\n\
         component-set size; P-SOP's privacy premium over the trusted-auditor\n\
         sampling scheme stays within a small factor."
    );
}
