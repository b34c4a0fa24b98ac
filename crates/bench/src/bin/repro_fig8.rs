//! Regenerates Figure 8: P-SOP vs Kissner–Song (KS) system overheads.
//!
//! (a) bandwidth overhead — total traffic sent per protocol run, from the
//!     simulated network's byte counters;
//! (b) computational overhead — wall-clock seconds per run.
//!
//! k ∈ {2, 3, 4} providers, n elements per provider. The paper sweeps
//! n = 10³–10⁵; P-SOP here runs the full sweep while KS is measured up to
//! a smaller cap (its homomorphic arithmetic is the point of the
//! comparison — the paper's KS hits 10⁵+ seconds). Both protocols use
//! 1024-bit keys, as in the paper.
//!
//! Scale knobs: `FIG8_PSOP_MAX_N` (default 10000), `FIG8_KS_MAX_N`
//! (default 1000).
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_fig8`

#![forbid(unsafe_code)]

use indaas_bench::{synthetic_datasets, timed};
use indaas_pia::{run_ks, run_psop, KsConfig, PsopConfig};
use indaas_simnet::SimNetwork;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let psop_max = env_or("FIG8_PSOP_MAX_N", 10_000);
    let ks_max = env_or("FIG8_KS_MAX_N", 1_000);
    let sizes = [1_000usize, 3_162, 10_000, 31_623, 100_000];

    println!("=== Figure 8(a,b) — P-SOP ===");
    println!(
        "{:>4} {:>8} {:>16} {:>16} {:>12}",
        "k", "n", "total MB sent", "max MB/provider", "seconds"
    );
    for k in [2usize, 3, 4] {
        for &n in sizes.iter().filter(|&&n| n <= psop_max) {
            let datasets = synthetic_datasets(k, n, 0.3);
            let mut net = SimNetwork::new(k + 1);
            let (out, secs) = timed(|| run_psop(&datasets, &PsopConfig::default(), &mut net));
            println!(
                "{:>4} {:>8} {:>16.2} {:>16.2} {:>12.2}",
                k,
                n,
                out.traffic.total_bytes() as f64 / 1e6,
                out.traffic.max_sent_bytes() as f64 / 1e6,
                secs
            );
        }
    }

    println!("\n=== Figure 8(a,b) — KS baseline ===");
    println!(
        "{:>4} {:>8} {:>16} {:>16} {:>12}",
        "k", "n", "total MB sent", "max MB/provider", "seconds"
    );
    for k in [2usize, 3, 4] {
        for &n in sizes.iter().filter(|&&n| n <= ks_max) {
            let datasets = synthetic_datasets(k, n, 0.3);
            let mut net = SimNetwork::new(k + 1);
            let (out, secs) = timed(|| {
                run_ks(
                    &datasets,
                    &KsConfig {
                        key_bits: 1024,
                        bucket_size: 16,
                        seed: 8,
                    },
                    &mut net,
                )
            });
            println!(
                "{:>4} {:>8} {:>16.2} {:>16.2} {:>12.2}",
                k,
                n,
                out.traffic.total_bytes() as f64 / 1e6,
                out.traffic.max_sent_bytes() as f64 / 1e6,
                secs
            );
        }
    }

    println!(
        "\nshape (as in the paper): both protocols scale ~linearly in n; KS's\n\
         computational overhead sits orders of magnitude above P-SOP's and its\n\
         bandwidth grows faster with the number of providers k."
    );
}
