//! Regenerates the §6.2.1 common network dependency case study (Figure 6a):
//! audits all two-way rack deployments of the Benson-style data center,
//! counts deployments free of unexpected risk groups, and cross-checks the
//! winner under uniform 0.1 device failure probabilities.
//!
//! Paper: 190 deployments, 27 without unexpected RGs (14%); the suggested
//! deployment ({Rack 5, Rack 29} on their topology) is also the one with
//! the lowest failure probability. Our generated wiring preserves the
//! shape: a small minority of deployments is clean, and the size-based and
//! probability-based winners coincide.
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_case_network`

#![forbid(unsafe_code)]

use indaas_bench::timed;
use indaas_core::{AuditSpec, AuditingAgent, CandidateDeployment, RankingMetric, RgAlgorithm};
use indaas_deps::{DepDb, FailureProbModel};
use indaas_topology::BensonDatacenter;

fn main() {
    let dc = BensonDatacenter::new();
    let agent = AuditingAgent::new(DepDb::from_records(dc.network_records()));
    let racks = dc.audited_racks();
    let mut candidates = Vec::new();
    for (i, &a) in racks.iter().enumerate() {
        for &b in &racks[i + 1..] {
            candidates.push(CandidateDeployment::replicated(
                format!("Rack {a} + Rack {b}"),
                [dc.server_name(a), dc.server_name(b)],
            ));
        }
    }

    // Failure sampling (paper: 10^6 rounds) + size-based ranking.
    let spec = AuditSpec {
        algorithm: RgAlgorithm::Sampling {
            rounds: 100_000,
            fail_prob: 0.5,
            seed: 2014,
            threads: 1,
        },
        ..AuditSpec::sia_size_based(candidates.clone())
    };
    let (report, secs) = timed(|| agent.audit_sia(&spec).expect("audit succeeds"));
    let clean = report
        .deployments
        .iter()
        .filter(|d| d.unexpected_rgs == 0)
        .count();

    println!("=== §6.2.1 common network dependency (measured) ===");
    println!("two-way deployments audited : {}", report.deployments.len());
    println!(
        "without unexpected RGs      : {} ({:.0}%)",
        clean,
        100.0 * clean as f64 / report.deployments.len() as f64
    );
    println!(
        "suggested deployment        : {}",
        report.best().unwrap().name
    );
    println!("audit wall-clock            : {secs:.2}s (10^5 sampling rounds)");

    // Probability cross-check: every device fails with probability 0.1.
    let prob_spec = AuditSpec {
        algorithm: RgAlgorithm::Minimal { max_order: Some(4) },
        metric: RankingMetric::Probability { default_prob: 0.1 },
        prob_model: Some(FailureProbModel::new(0.1)),
        ..AuditSpec::sia_size_based(candidates)
    };
    let prob_report = agent.audit_sia(&prob_spec).expect("audit succeeds");
    let prob_best = prob_report.best().unwrap();
    println!(
        "lowest-Pr(outage) deployment: {} (Pr = {:.4})",
        prob_best.name,
        prob_best.failure_probability.unwrap()
    );

    println!("\n=== paper ===");
    println!("190 deployments; 27 (14%) without unexpected RGs;");
    println!("suggested {{Rack 5, Rack 29}} also minimizes failure probability at p=0.1");

    assert_eq!(report.deployments.len(), 190);
    assert!(
        clean * 4 < report.deployments.len(),
        "only a minority of deployments may avoid unexpected RGs"
    );
    assert_eq!(report.best().unwrap().unexpected_rgs, 0);
    assert_eq!(
        prob_best.unexpected_rgs, 0,
        "probability winner must be clean too"
    );
    println!("\nshape matches: clean deployments are a small minority; winners are clean");
}
