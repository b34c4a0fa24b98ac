//! The 4-server IaaS lab cloud of the common hardware dependency case
//! study (§6.2.2, Figure 6b).
//!
//! The paper builds a small OpenStack cloud: four servers behind four
//! switches, VMs placed automatically, and a Riak storage service deployed
//! "redundantly" on two VMs — which OpenStack's least-loaded-random
//! placement puts on the *same physical server*, defeating the redundancy.
//! SIA's minimal-RG audit then surfaces the shared server as a size-1 risk
//! group.
//!
//! Topology: `Switch1` connects Server1/Server2, `Switch2` connects
//! Server3/Server4, and both switches are dual-homed to core routers
//! `Core1`/`Core2`.

use indaas_deps::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};
use rand::{Rng, SeedableRng};

/// Number of physical servers.
pub const NUM_SERVERS: usize = 4;
/// Number of VMs managed by the cloud.
pub const NUM_VMS: usize = 8;

/// RAM capacity (GB) per server. Server2 is the big box — which is exactly
/// what makes OpenStack's "least loaded" policy pile VMs onto it.
pub const SERVER_RAM_GB: [usize; NUM_SERVERS] = [16, 32, 16, 16];

/// RAM (GB) requested by every VM flavor in the lab.
pub const VM_RAM_GB: usize = 2;

/// The lab cloud: placement state plus record generation.
#[derive(Clone, Debug)]
pub struct IaasLab {
    /// `placement[v]` = index (0-based) of the server hosting VM `v+1`.
    placement: Vec<usize>,
}

impl IaasLab {
    /// Builds the cloud and places all VMs with the OpenStack-like policy:
    /// each VM goes to a random server among those with the most free RAM
    /// ("randomly selects from the least loaded resources", §6.2.2).
    ///
    /// Because Server2 has twice the RAM of its peers, it stays the least
    /// loaded host for every placement in this lab — including both Riak
    /// VMs (VM7 and VM8), reproducing the paper's pathology for any seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut free = SERVER_RAM_GB;
        let mut placement = Vec::with_capacity(NUM_VMS);
        for _ in 0..NUM_VMS {
            let max_free = *free.iter().max().expect("non-empty");
            let candidates: Vec<usize> =
                (0..NUM_SERVERS).filter(|&s| free[s] == max_free).collect();
            let pick = candidates[(rng.next_u64() % candidates.len() as u64) as usize];
            assert!(free[pick] >= VM_RAM_GB, "lab cloud out of capacity");
            free[pick] -= VM_RAM_GB;
            placement.push(pick);
        }
        IaasLab { placement }
    }

    /// Builds the cloud with an explicit placement (for tests and for
    /// re-deployment after an audit).
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`NUM_VMS`] entries each below [`NUM_SERVERS`].
    pub fn with_placement(placement: Vec<usize>) -> Self {
        assert_eq!(placement.len(), NUM_VMS, "need a slot for every VM");
        assert!(placement.iter().all(|&s| s < NUM_SERVERS));
        IaasLab { placement }
    }

    /// The server (1-based name) hosting `vm` (1-based).
    pub fn host_of_vm(&self, vm: usize) -> String {
        assert!((1..=NUM_VMS).contains(&vm), "vm out of range");
        format!("Server{}", self.placement[vm - 1] + 1)
    }

    /// VM name (1-based).
    pub fn vm_name(&self, vm: usize) -> String {
        assert!((1..=NUM_VMS).contains(&vm), "vm out of range");
        format!("VM{vm}")
    }

    /// The switch a server (1-based) is cabled to.
    pub fn switch_of_server(&self, server: usize) -> &'static str {
        match server {
            1 | 2 => "Switch1",
            3 | 4 => "Switch2",
            _ => panic!("server out of range"),
        }
    }

    /// Ground-truth dependency records, VM-centric: the audited "servers"
    /// are the VMs, each depending on its own instance, its host server,
    /// and the host's network uplinks. This is the dependency view the
    /// paper's SIA audit operates on in §6.2.2 — it is what surfaces the
    /// shared host as a size-1 risk group.
    pub fn records(&self) -> Vec<DependencyRecord> {
        let mut out = Vec::new();
        for v in 1..=NUM_VMS {
            let vm = self.vm_name(v);
            let host = self.host_of_vm(v);
            let server_idx = self.placement[v - 1] + 1;
            let switch = self.switch_of_server(server_idx);
            // The VM instance itself can fail (crash, corruption).
            out.push(DependencyRecord::Hardware(HardwareDep {
                hw: vm.clone(),
                hw_type: "Instance".into(),
                dep: vm.clone(),
            }));
            // The physical host: the hidden shared dependency.
            out.push(DependencyRecord::Hardware(HardwareDep {
                hw: vm.clone(),
                hw_type: "Host".into(),
                dep: host.clone(),
            }));
            // Network: the host's uplinks through its switch to either core.
            for core in ["Core1", "Core2"] {
                out.push(DependencyRecord::Network(NetworkDep {
                    src: vm.clone(),
                    dst: "Internet".into(),
                    route: vec![switch.to_string(), core.to_string()],
                }));
            }
        }
        // Software: the Riak service instances on VM7 and VM8.
        for (inst, vm) in [(1usize, 7usize), (2, 8)] {
            out.push(DependencyRecord::Software(SoftwareDep {
                pgm: format!("Riak{inst}"),
                hw: self.vm_name(vm),
                deps: vec!["erlang-base".into(), "libc6".into(), "libssl1.0.0".into()],
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_pathology_reproduced() {
        // The big server stays least loaded throughout, so the two Riak VMs
        // are co-located regardless of the random tie-break seed.
        for seed in [0u64, 1, 2014, 0xdeadbeef] {
            let lab = IaasLab::new(seed);
            assert_eq!(
                lab.host_of_vm(7),
                lab.host_of_vm(8),
                "expected VM7 and VM8 co-located under seed {seed}; placement: {:?}",
                lab.placement
            );
            assert_eq!(lab.host_of_vm(7), "Server2");
        }
    }

    #[test]
    fn capacity_policy_prefers_big_server() {
        // With Server2 at 32 GB and VMs at 2 GB each, all eight VMs fit on
        // Server2 before its free RAM drops to its peers' level.
        let lab = IaasLab::new(7);
        for v in 1..=NUM_VMS {
            assert_eq!(lab.host_of_vm(v), "Server2");
        }
    }

    #[test]
    fn explicit_placement_roundtrip() {
        let lab = IaasLab::with_placement(vec![0, 1, 2, 3, 0, 1, 1, 1]);
        assert_eq!(lab.host_of_vm(7), "Server2");
        assert_eq!(lab.host_of_vm(8), "Server2");
        assert_eq!(lab.host_of_vm(1), "Server1");
    }

    #[test]
    fn record_inventory() {
        let lab = IaasLab::with_placement(vec![0, 1, 2, 3, 0, 1, 1, 1]);
        let records = lab.records();
        // 8 VMs × (2 hardware + 2 routes) + 2 software = 34.
        assert_eq!(records.len(), 34);
        assert_eq!(records.iter().filter(|r| r.kind() == "network").count(), 16);
        assert_eq!(
            records.iter().filter(|r| r.kind() == "hardware").count(),
            16
        );
        assert_eq!(records.iter().filter(|r| r.kind() == "software").count(), 2);
    }

    #[test]
    fn switch_wiring() {
        let lab = IaasLab::new(0);
        assert_eq!(lab.switch_of_server(1), "Switch1");
        assert_eq!(lab.switch_of_server(2), "Switch1");
        assert_eq!(lab.switch_of_server(3), "Switch2");
        assert_eq!(lab.switch_of_server(4), "Switch2");
    }

    #[test]
    #[should_panic(expected = "vm out of range")]
    fn vm_zero_rejected() {
        let _ = IaasLab::new(0).host_of_vm(0);
    }
}
