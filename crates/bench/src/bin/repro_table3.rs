//! Regenerates Table 3: configurations of the generated fat-tree
//! topologies A, B and C.
//!
//! Run with: `cargo run --release -p indaas-bench --bin repro_table3`

#![forbid(unsafe_code)]

use indaas_topology::{FatTree, FatTreeConfig};

fn main() {
    println!("Table 3: Configurations of the generated topologies.");
    println!(
        "{:<22}{:>12}{:>12}{:>12}",
        "", "Topology A", "Topology B", "Topology C"
    );
    let trees: Vec<FatTree> = [
        FatTreeConfig::topology_a(),
        FatTreeConfig::topology_b(),
        FatTreeConfig::topology_c(),
    ]
    .into_iter()
    .map(FatTree::new)
    .collect();

    let row = |label: &str, f: &dyn Fn(&FatTree) -> usize| {
        println!(
            "{:<22}{:>12}{:>12}{:>12}",
            label,
            f(&trees[0]),
            f(&trees[1]),
            f(&trees[2])
        );
    };
    row("# switch ports", &|t| t.config().ports);
    row("# core routers", &|t| t.num_cores());
    row("# agg switches", &|t| t.num_aggs());
    row("# ToR switches", &|t| t.num_tors());
    row("# servers", &|t| t.num_servers());
    row("Total # devices", &|t| t.total_devices());

    // Paper values, asserted exactly — this table must match bit-for-bit.
    assert_eq!(trees[0].total_devices(), 1_344);
    assert_eq!(trees[1].total_devices(), 4_176);
    assert_eq!(trees[2].total_devices(), 30_528);
    assert_eq!(trees[2].num_servers(), 27_648);
    println!("\nall counts match Table 3 of the paper exactly");
}
