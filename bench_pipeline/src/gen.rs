//! Everything the daemon is fed, made from `--seed` and nothing else.
//!
//! The dataset is the same for every workload and every seed: topology
//! A (16 pods, 1,344 devices) with full network/hardware/software
//! records for 4 ToRs × 4 slots per pod — 256 servers × 64 ECMP paths.
//! The seed picks *which* servers each operation names. An SIA
//! candidate is one server per pod, 16-way, `needed_alive = 15`: every
//! such candidate has the same fault graph up to renaming (1,364 nodes,
//! 1,923 minimal risk groups of order ≤ 4), so a fresh candidate is a
//! fresh cache key at constant work, and latency spread measures the
//! system rather than the input mix.

use std::collections::HashSet;

use indaas_core::{AuditSpec, CandidateDeployment, RankingMetric, RgAlgorithm};
use indaas_deps::format::{serialize_record, serialize_records};
use indaas_deps::{shard_index, DependencyRecord, HardwareDep};
use indaas_service::Request;
use indaas_topology::{FatTree, FatTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ToRs and slots per pod that get dependency records.
pub const TORS: usize = 4;
pub const SLOTS: usize = 4;
/// `indaas serve --shards`.
pub const SHARDS: usize = 8;
/// Cut-set order cap of the minimal-RG specs (bounds the RG universe of
/// this deployment shape exactly; see `repro_fig7`).
pub const MAX_ORDER: usize = 4;
/// Failure-sampling budget per audit.
pub const SAMPLING_ROUNDS: u64 = 2000;
/// One sampling seed for every audit: the sampled family's size, and
/// with it the time to minimise and rank it, depends on the seed (56 to
/// 63 ms across seeds 1..3), which would put input mix into the
/// percentiles. The cache key is still fresh per op — the candidate is.
pub const SAMPLING_SEED: u64 = 7;
/// Distinct specs `sia_hot` cycles through.
pub const HOT_SPECS: usize = 64;
/// Subscriptions `ingest_push` holds, one per shard.
pub const SUBSCRIPTIONS: usize = SHARDS;
pub const PIA_PROVIDERS: usize = 3;
/// Elements per provider set.
pub const PIA_ELEMENTS: usize = 10;
/// Modular exponentiations in one P-SOP run: each of the k lists of n
/// elements gets k encryption layers.
pub const PIA_MODEXPS: usize = PIA_PROVIDERS * PIA_ELEMENTS * PIA_PROVIDERS;

pub fn minimal() -> RgAlgorithm {
    RgAlgorithm::Minimal {
        max_order: Some(MAX_ORDER),
    }
}

pub fn sampling() -> RgAlgorithm {
    RgAlgorithm::Sampling {
        rounds: SAMPLING_ROUNDS,
        fail_prob: 0.5,
        seed: SAMPLING_SEED,
        threads: 1,
    }
}

/// The shared dataset: records, and their Table-1 text as written to
/// the daemon's `--records` file.
pub struct Dataset {
    pub records: Vec<DependencyRecord>,
    pub text: String,
}

pub fn dataset() -> Dataset {
    let tree = FatTree::new(FatTreeConfig::topology_a());
    let pods = tree.config().ports;
    let mut coords = Vec::with_capacity(pods * TORS * SLOTS);
    for p in 0..pods {
        for e in 0..TORS {
            for s in 0..SLOTS {
                coords.push((p, e, s));
            }
        }
    }
    let records = tree.deployment_records(&coords);
    let mut text = serialize_records(&records);
    text.push('\n');
    Dataset { records, text }
}

/// An `ingest_push` operation: ingest or retract `record` (one hardware
/// record under a host of subscription `sub`'s candidate).
pub struct Mutation {
    pub sub: usize,
    pub record: String,
    pub retract: bool,
}

/// The provider sets of one `AuditPia` request.
pub struct PiaOp {
    pub providers: Vec<(String, Vec<String>)>,
}

/// The seeded source of every request.
pub struct Gen {
    rng: StdRng,
    tree: FatTree,
    /// `(ToR, slot)` picks per pod of every candidate handed out.
    seen: HashSet<Vec<(u8, u8)>>,
    /// The pending retraction of the last ingested record.
    owed_retract: Option<Mutation>,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        let tree = FatTree::new(FatTreeConfig::topology_a());
        Gen {
            rng: StdRng::seed_from_u64(seed),
            tree,
            seen: HashSet::new(),
            owed_retract: None,
        }
    }

    fn pods(&self) -> usize {
        self.tree.config().ports
    }

    fn below(&mut self, bound: usize) -> usize {
        self.rng.gen_below(bound as u64) as usize
    }

    /// A trace-context header as `Client` puts on every envelope, so
    /// the daemon records its span tree as it does for real clients —
    /// drawn from the seed where `Client` would draw from the clock.
    pub fn trace_header(&mut self) -> String {
        let trace =
            (u128::from(self.rng.next_u64()) << 64 | u128::from(self.rng.next_u64())).max(1);
        let span = self.rng.next_u64().max(1);
        format!("{trace:032x}-{span:016x}-{:016x}", 0)
    }

    fn candidate(&self, picks: &[(u8, u8)]) -> CandidateDeployment {
        CandidateDeployment {
            name: "one-per-pod".into(),
            servers: picks
                .iter()
                .enumerate()
                .map(|(p, &(e, s))| self.tree.server_name(p, e.into(), s.into()))
                .collect(),
            needed_alive: self.pods() - 1,
        }
    }

    /// A candidate this generator has never handed out before.
    pub fn fresh_candidate(&mut self) -> CandidateDeployment {
        loop {
            let picks: Vec<(u8, u8)> = (0..self.pods())
                .map(|_| (self.below(TORS) as u8, self.below(SLOTS) as u8))
                .collect();
            if self.seen.insert(picks.clone()) {
                return self.candidate(&picks);
            }
        }
    }

    /// A never-repeated SIA spec: always a cache miss.
    pub fn fresh_spec(&mut self, algorithm: RgAlgorithm) -> AuditSpec {
        spec_for(self.fresh_candidate(), algorithm)
    }

    /// One spec per shard whose 16 hosts all route to that shard, so a
    /// mutation under one of them owes exactly one subscription an
    /// event. (With 8 shards, FNV routing puts exactly two of each
    /// pod's 16 servers in every shard; the loop would spin forever on
    /// a dataset where some shard misses a pod, so that is checked.)
    pub fn subscription_specs(&mut self) -> Vec<AuditSpec> {
        (0..SUBSCRIPTIONS)
            .map(|shard| {
                let picks: Vec<(u8, u8)> = (0..self.pods())
                    .map(|p| {
                        let in_shard: Vec<(u8, u8)> = (0..TORS)
                            .flat_map(|e| (0..SLOTS).map(move |s| (e, s)))
                            .filter(|&(e, s)| {
                                shard_index(&self.tree.server_name(p, e, s), SHARDS) == shard
                            })
                            .map(|(e, s)| (e as u8, s as u8))
                            .collect();
                        assert!(
                            !in_shard.is_empty(),
                            "no server of pod {p} routes to shard {shard}"
                        );
                        in_shard[self.below(in_shard.len())]
                    })
                    .collect();
                spec_for(self.candidate(&picks), minimal())
            })
            .collect()
    }

    /// The next `ingest_push` mutation: alternately ingests a hardware
    /// record under a random host of a random subscription and retracts
    /// it again, so the store's size is the same before every pair.
    pub fn mutation(&mut self, specs: &[AuditSpec]) -> Mutation {
        if let Some(retract) = self.owed_retract.take() {
            return retract;
        }
        let sub = self.below(specs.len());
        let servers = &specs[sub].candidates[0].servers;
        let host = &servers[self.below(servers.len())];
        let record = serialize_record(&DependencyRecord::Hardware(HardwareDep {
            hw: host.clone(),
            hw_type: "Nic".into(),
            dep: format!("{host}-nic"),
        }));
        self.owed_retract = Some(Mutation {
            sub,
            record: record.clone(),
            retract: true,
        });
        Mutation {
            sub,
            record,
            retract: false,
        }
    }

    /// Provider sets with fresh element names (never a cache hit): each
    /// holds `PIA_ELEMENTS` elements, about half of them common to all.
    pub fn pia(&mut self) -> PiaOp {
        let tag = self.rng.next_u64();
        let shared = PIA_ELEMENTS / 2 - 1 + self.below(3);
        let providers = (0..PIA_PROVIDERS)
            .map(|p| {
                let set = (0..PIA_ELEMENTS)
                    .map(|i| {
                        if i < shared {
                            format!("{tag:016x}-shared-{i}")
                        } else {
                            format!("{tag:016x}-p{p}-{i}")
                        }
                    })
                    .collect();
                (format!("provider-{p}"), set)
            })
            .collect();
        PiaOp { providers }
    }
}

pub fn spec_for(candidate: CandidateDeployment, algorithm: RgAlgorithm) -> AuditSpec {
    AuditSpec {
        candidates: vec![candidate],
        network: true,
        hardware: true,
        software: true,
        algorithm,
        metric: RankingMetric::Size,
        top_n: None,
        prob_model: None,
    }
}

pub fn audit_sia(spec: &AuditSpec) -> Request {
    Request::AuditSia {
        spec: spec.clone(),
        timeout_ms: None,
    }
}

pub fn audit_pia(op: &PiaOp) -> Request {
    Request::AuditPia {
        providers: op.providers.clone(),
        way: PIA_PROVIDERS,
        minhash: None,
        timeout_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_service::proto::{encode_line, Envelope};

    /// The byte stream a workload's first operations put on the wire.
    fn wire_bytes(seed: u64) -> String {
        let mut gen = Gen::new(seed);
        let mut requests = Vec::new();
        let subs = gen.subscription_specs();
        for _ in 0..20 {
            requests.push(audit_sia(&gen.fresh_spec(minimal())));
            requests.push(audit_sia(&gen.fresh_spec(sampling())));
            requests.push(audit_pia(&gen.pia()));
            let m = gen.mutation(&subs);
            requests.push(if m.retract {
                Request::Retract { records: m.record }
            } else {
                Request::Ingest { records: m.record }
            });
        }
        requests
            .into_iter()
            .enumerate()
            .map(|(i, body)| {
                encode_line(&Envelope {
                    id: i as u64 + 1,
                    body,
                    trace: Some(gen.trace_header()),
                })
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn one_seed_one_byte_stream() {
        assert_eq!(wire_bytes(2014), wire_bytes(2014));
        assert_eq!(dataset().text, dataset().text);
    }

    #[test]
    fn two_seeds_differ() {
        assert_ne!(wire_bytes(2014), wire_bytes(2015));
    }

    #[test]
    fn dataset_shape() {
        let d = dataset();
        // 256 servers × (64 paths + CPU + disk + one program).
        assert_eq!(d.records.len(), 256 * 67);
        assert_eq!(d.text.lines().count(), d.records.len());
    }

    #[test]
    fn candidates_never_repeat() {
        let mut gen = Gen::new(1);
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let c = gen.fresh_candidate();
            assert_eq!(c.servers.len(), 16);
            assert!(seen.insert(c.servers));
        }
    }

    #[test]
    fn subscriptions_pin_one_shard_each() {
        let specs = Gen::new(3).subscription_specs();
        assert_eq!(specs.len(), SUBSCRIPTIONS);
        for (shard, spec) in specs.iter().enumerate() {
            for host in &spec.candidates[0].servers {
                assert_eq!(shard_index(host, SHARDS), shard);
            }
        }
    }

    #[test]
    fn mutations_alternate_ingest_and_retract() {
        let mut gen = Gen::new(5);
        let specs = gen.subscription_specs();
        for _ in 0..10 {
            let a = gen.mutation(&specs);
            let b = gen.mutation(&specs);
            assert!(!a.retract && b.retract);
            assert_eq!((a.sub, &a.record), (b.sub, &b.record));
        }
    }
}
