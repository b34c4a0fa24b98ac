//! Regenerates Table 2: ranking lists of two- and three-way redundancy
//! deployments across four clouds (Riak, MongoDB, Redis, CouchDB), by
//! Jaccard similarity computed privately via P-SOP.
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_table2`

#![forbid(unsafe_code)]

use indaas_pia::normalize::normalize_set;
use indaas_pia::report::render_ranking;
use indaas_pia::{rank_deployments, PsopConfig};
use indaas_topology::clouds::cloud_stacks;

/// Paper's Table 2 values, for side-by-side comparison.
const PAPER_2WAY: [(&str, f64); 6] = [
    ("Cloud2 & Cloud4", 0.1419),
    ("Cloud2 & Cloud3", 0.1547),
    ("Cloud1 & Cloud4", 0.2081),
    ("Cloud1 & Cloud3", 0.2939),
    ("Cloud3 & Cloud4", 0.3489),
    ("Cloud1 & Cloud2", 0.5059),
];
const PAPER_3WAY: [(&str, f64); 4] = [
    ("Cloud2 & Cloud3 & Cloud4", 0.1128),
    ("Cloud1 & Cloud2 & Cloud4", 0.1207),
    ("Cloud1 & Cloud3 & Cloud4", 0.1353),
    ("Cloud1 & Cloud2 & Cloud3", 0.1536),
];

fn main() {
    let providers: Vec<(String, Vec<String>)> = cloud_stacks()
        .into_iter()
        .map(|s| {
            (
                s.name.clone(),
                normalize_set(s.packages.iter().map(String::as_str)),
            )
        })
        .collect();
    let config = PsopConfig::default();

    println!("=== measured (this reproduction) ===\n");
    let two = rank_deployments(&providers, 2, None, &config);
    println!("{}", render_ranking(2, &two));
    let three = rank_deployments(&providers, 3, None, &config);
    println!("{}", render_ranking(3, &three));

    println!("=== paper (Table 2) ===\n");
    for (i, (name, j)) in PAPER_2WAY.iter().enumerate() {
        println!("{:<5} {:<42} {:.4}", i + 1, name, j);
    }
    println!();
    for (i, (name, j)) in PAPER_3WAY.iter().enumerate() {
        println!("{:<5} {:<42} {:.4}", i + 1, name, j);
    }

    // Shape assertions: the best 2-way and 3-way deployments agree with the
    // paper (absolute Jaccard values depend on the synthesized package
    // closures; the orderings are the reproduction target).
    assert_eq!(two[0].providers, vec!["Cloud2", "Cloud4"]);
    assert_eq!(
        three[0].providers,
        vec!["Cloud2", "Cloud3", "Cloud4"],
        "best 3-way deployment must exclude Riak's Erlang stack"
    );
    assert!(
        two.last()
            .unwrap()
            .providers
            .contains(&"Cloud1".to_string()),
        "Riak must appear in the least independent pair"
    );
    println!("\nshape matches: best 2-way and best 3-way deployments agree with the paper");
}
