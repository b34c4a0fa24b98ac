//! Benson-style data-center topology for the common network dependency
//! case study (§6.2.1, Figure 6a).
//!
//! The paper models Alice's data center on a real topology from Benson et
//! al. [9]: 33 top-of-rack switches (e1–e33), each serving one rack, and
//! four core routers (b1, b2, c1, c2) connecting the ToRs to the Internet.
//! The exact wiring of the measured network is not published, so this
//! module generates a deterministic wiring with the same published shape
//! and the same *audit-relevant* property: most rack pairs share a
//! single aggregation device (an unexpected risk group), while a minority
//! are cleanly independent. DESIGN.md records this substitution.
//!
//! Wiring:
//! * ToRs `e1..=e18` uplink through aggregation router `b1` only,
//! * ToRs `e19..=e31` uplink through `b2` only,
//! * ToRs `e32, e33` are dual-homed through both `b1` and `b2`,
//! * `b1` and `b2` each reach the Internet via both core routers `c1`
//!   and `c2`.

use indaas_deps::{DependencyRecord, NetworkDep};

/// Number of top-of-rack switches (racks) in the topology.
pub const NUM_RACKS: usize = 33;

/// The generated data-center network.
#[derive(Clone, Debug, Default)]
pub struct BensonDatacenter;

impl BensonDatacenter {
    /// Creates the topology.
    pub fn new() -> Self {
        BensonDatacenter
    }

    /// The server name hosted in rack `r` (1-based, one logical server per
    /// rack as in the case study).
    pub fn server_name(&self, r: usize) -> String {
        assert!((1..=NUM_RACKS).contains(&r), "rack out of range");
        format!("rack{r}-server")
    }

    /// ToR switch name for rack `r` (1-based): `e1..e33` as in Figure 6a.
    pub fn tor_name(&self, r: usize) -> String {
        assert!((1..=NUM_RACKS).contains(&r), "rack out of range");
        format!("e{r}")
    }

    /// Aggregation routers rack `r` is homed to.
    pub fn aggs_for_rack(&self, r: usize) -> Vec<&'static str> {
        assert!((1..=NUM_RACKS).contains(&r), "rack out of range");
        match r {
            1..=18 => vec!["b1"],
            19..=31 => vec!["b2"],
            _ => vec!["b1", "b2"],
        }
    }

    /// Uplink paths for rack `r`: `ToR → b → c` for each homed aggregation
    /// router and each core router.
    pub fn uplink_paths(&self, r: usize) -> Vec<Vec<String>> {
        let tor = self.tor_name(r);
        let mut paths = Vec::new();
        for agg in self.aggs_for_rack(r) {
            for core in ["c1", "c2"] {
                paths.push(vec![tor.clone(), agg.to_string(), core.to_string()]);
            }
        }
        paths
    }

    /// Ground-truth network records for all racks.
    pub fn network_records(&self) -> Vec<DependencyRecord> {
        let mut out = Vec::new();
        for r in 1..=NUM_RACKS {
            let server = self.server_name(r);
            for path in self.uplink_paths(r) {
                out.push(DependencyRecord::Network(NetworkDep {
                    src: server.clone(),
                    dst: "Internet".into(),
                    route: path,
                }));
            }
        }
        out
    }

    /// The racks the auditing client asks about in the case study (the
    /// paper audits 190 = C(20, 2) two-way deployments, i.e. 20 racks).
    pub fn audited_racks(&self) -> Vec<usize> {
        (1..=20).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_shape_matches_figure() {
        let dc = BensonDatacenter::new();
        assert_eq!(NUM_RACKS, 33);
        // 190 audited pairs, as in the paper.
        let racks = dc.audited_racks();
        assert_eq!(racks.len() * (racks.len() - 1) / 2, 190);
    }

    #[test]
    fn single_homed_racks_have_two_paths() {
        let dc = BensonDatacenter::new();
        assert_eq!(dc.uplink_paths(1).len(), 2);
        assert_eq!(dc.uplink_paths(19).len(), 2);
    }

    #[test]
    fn dual_homed_racks_have_four_paths() {
        let dc = BensonDatacenter::new();
        assert_eq!(dc.uplink_paths(32).len(), 4);
        assert_eq!(dc.uplink_paths(33).len(), 4);
    }

    #[test]
    fn same_group_racks_share_aggregation() {
        let dc = BensonDatacenter::new();
        assert_eq!(dc.aggs_for_rack(3), dc.aggs_for_rack(17));
        assert_ne!(dc.aggs_for_rack(3), dc.aggs_for_rack(20));
    }

    #[test]
    fn record_count() {
        let dc = BensonDatacenter::new();
        // 31 single-homed racks × 2 paths + 2 dual-homed × 4 paths = 70.
        assert_eq!(dc.network_records().len(), 70);
    }

    #[test]
    #[should_panic(expected = "rack out of range")]
    fn rack_zero_rejected() {
        let _ = BensonDatacenter::new().tor_name(0);
    }
}
