//! The per-layer half of a traced run: the same generated inputs put
//! through each layer's public functions in this process, a span around
//! every call.
//!
//! The daemon is a separate process and is not instrumented by this
//! change (spans inside the program are a later one), so a layer's time
//! is measured where the benchmark can see it — here, single-threaded,
//! on the functions the daemon's request path calls. The wire path's
//! own spans (`client.*`, `service.ping_roundtrip`) are recorded by the
//! workload driver while the daemon is up.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use indaas_bigint::{BigUint, Montgomery};
use indaas_core::{AuditingAgent, CancelToken, RgAlgorithm, StageObserver};
use indaas_crypto::{CommutativeCipher, MODP_1024_HEX};
use indaas_deps::{parse_records, DepDb, ShardedDepDb};
use indaas_pia::{rank_deployments, run_psop, PsopConfig};
use indaas_service::{job_key, AuditCache};
use indaas_sia::{
    build_fault_graph, failure_sampling, minimal_risk_groups, BuildSpec, DeploymentAudit,
    MinimalConfig, SamplingConfig,
};
use indaas_simnet::SimNetwork;
use rand::SeedableRng;

use crate::daemon::CACHE_CAPACITY;
use crate::gen::{self, Gen};
use crate::trace::Tracer;
use crate::workloads::Kind;

/// Counts taken at the same boundaries as the spans.
pub struct Counts {
    pub graph_nodes: usize,
    pub minimal_groups: usize,
    pub sampling_groups: usize,
    pub shards_touched: usize,
    pub pia_wire_bytes: u64,
}

/// Collects `StageObserver` callbacks; they become child spans of the
/// audit once it returns (the tracer is not `Sync`).
#[derive(Default)]
struct Stages(Mutex<Vec<(&'static str, Instant, Duration)>>);

impl StageObserver for Stages {
    fn stage(&self, stage: &'static str, elapsed_us: u64) {
        let name = match stage {
            "graph_build" => "core.stage.graph_build",
            "rg_minimal" => "core.stage.rg_minimal",
            "rg_sampling" => "core.stage.rg_sampling",
            "ranking" => "core.stage.ranking",
            _ => "core.stage.other",
        };
        self.0.lock().expect("no panic while held").push((
            name,
            Instant::now(),
            Duration::from_micros(elapsed_us),
        ));
    }
}

pub fn replay(
    tracer: &mut Tracer,
    records_file: &Path,
    kind: Kind,
    seed: u64,
) -> Result<Counts, String> {
    let mut gen = Gen::new(seed);

    // deps: boot load as `indaas serve --records` does it.
    let mut store = None;
    for rep in 0..3 {
        let span = tracer.begin("deps.boot_load", None, rep);
        let db = DepDb::load(records_file).map_err(|e| format!("loading records: {e}"))?;
        let sharded = ShardedDepDb::new(gen::SHARDS);
        sharded.ingest(db.all_records());
        tracer.end(span);
        store = Some(sharded);
    }
    let store = store.expect("loaded above");

    // deps: the write path of one `ingest_push` mutation pair.
    let subs = gen.subscription_specs();
    let mut shards_touched = 0;
    for rep in 0..200 {
        let text = gen.mutation(&subs).record;
        let _ = gen.mutation(&subs); // its retraction: same record
        let parsed = tracer
            .scope("deps.parse_records", None, rep, || parse_records(&text))
            .map_err(|e| e.to_string())?;
        let report = tracer.scope("deps.ingest", None, rep, || store.ingest(parsed.clone()));
        shards_touched = report.touched.len();
        tracer.scope("deps.retract", None, rep, || store.retract(&parsed));
    }
    for rep in 0..1000 {
        tracer.scope("deps.snapshot", None, rep, || store.snapshot());
    }
    let snapshot = store.snapshot();

    // sia: each engine stage on its own, over fresh candidates.
    let (mut graph_nodes, mut minimal_groups, mut sampling_groups) = (0, 0, 0);
    for rep in 0..20 {
        let candidate = gen.fresh_candidate();
        let build = BuildSpec {
            needed_alive: candidate.needed_alive,
            ..BuildSpec::all(candidate.name.clone(), candidate.servers.clone())
        };
        let graph = tracer
            .scope("sia.graph_build", None, rep, || {
                build_fault_graph(&snapshot, &build)
            })
            .map_err(|e| format!("fault graph: {e}"))?;
        graph_nodes = graph.len();
        let family = tracer.scope("sia.rg_minimal", None, rep, || {
            minimal_risk_groups(&graph, &MinimalConfig::with_max_order(gen::MAX_ORDER))
        });
        minimal_groups = family.len();
        tracer.scope("sia.ranking", None, rep, || {
            DeploymentAudit::size_based(
                candidate.name.clone(),
                &family,
                &graph,
                candidate.servers.len(),
                None,
            )
        });
        if rep < 10 {
            let sampled = tracer.scope("sia.rg_sampling", None, rep, || {
                failure_sampling(
                    &graph,
                    &SamplingConfig {
                        rounds: gen::SAMPLING_ROUNDS,
                        seed: gen::SAMPLING_SEED,
                        ..SamplingConfig::default()
                    },
                )
            });
            sampling_groups = sampled.len();
        }
    }

    // core: the whole audit the workload's ops trigger, stages as
    // children, so the parent's self time is what the stages miss.
    let agent = AuditingAgent::from_snapshot(snapshot.clone());
    let algorithm = kind.algorithm();
    let reps = match algorithm {
        RgAlgorithm::Sampling { .. } => 10,
        _ => 30,
    };
    let mut reports = Vec::new();
    for rep in 0..reps {
        let spec = gen.fresh_spec(algorithm);
        let stages = Stages::default();
        let span = tracer.begin("core.audit_sia", None, rep);
        let report = agent.audit_sia_observed(&spec, &CancelToken::default(), &stages);
        tracer.end(span);
        for (name, end, elapsed) in stages.0.into_inner().expect("no panic while held") {
            tracer.child_ended_at(name, span, rep, end, elapsed);
        }
        reports.push(report.map_err(|e| format!("audit: {e}"))?);
    }

    // service: the cache key and the cache, as `admit_sia` uses them —
    // fresh keys into a full cache, so inserts evict as they do in the
    // daemon's steady state.
    let mut cache = AuditCache::new(CACHE_CAPACITY);
    for rep in 0..200 {
        let spec = gen.fresh_spec(algorithm);
        let hosts = spec.candidates[0].servers.iter().map(String::as_str);
        let pins = snapshot.pins_for_hosts(hosts);
        let key = tracer.scope("service.job_key", None, rep, || {
            job_key(&pins, "sia", &spec)
        });
        let (stored, value) = (key.clone(), reports[rep as usize % reports.len()].clone());
        tracer.scope("service.cache_insert", None, rep, || {
            cache.insert(stored, pins, value)
        });
        tracer.scope("service.cache_get", None, rep, || cache.get(&key));
    }

    // pia / crypto / bigint: the P-SOP cost centre from the top down.
    // Each repetition times the primitives right before the protocol
    // run they are compared with, so both see the same host state.
    let config = PsopConfig::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cipher = CommutativeCipher::generate(&mut rng);
    let modulus = BigUint::from_hex(MODP_1024_HEX).map_err(|e| e.to_string())?;
    let mont = Montgomery::new(&modulus).ok_or("MODP-1024 modulus is odd")?;
    let mut pia_wire_bytes = 0;
    for rep in 0..5 {
        for i in 0..12 {
            let element = format!("element-{rep}-{i}");
            let m = tracer.scope("crypto.hash_to_group", None, rep, || {
                cipher.hash_to_group(element.as_bytes())
            });
            tracer.scope("crypto.commutative_encrypt", None, rep, || {
                cipher.encrypt(&m)
            });
            let exponent = BigUint::random_bits(&mut rng, 1024, false);
            tracer.scope("bigint.modpow_1024", None, rep, || {
                mont.modpow(&m, &exponent)
            });
        }
        let op = gen.pia();
        tracer.scope("pia.rank_deployments", None, rep, || {
            rank_deployments(&op.providers, gen::PIA_PROVIDERS, None, &config)
        });
        let datasets: Vec<Vec<String>> = op.providers.into_iter().map(|(_, set)| set).collect();
        let outcome = tracer.scope("pia.psop_total", None, rep, || {
            run_psop(
                &datasets,
                &config,
                &mut SimNetwork::new(gen::PIA_PROVIDERS + 1),
            )
        });
        pia_wire_bytes = outcome.traffic.total_bytes();
    }

    Ok(Counts {
        graph_nodes,
        minimal_groups,
        sampling_groups,
        shards_touched,
        pia_wire_bytes,
    })
}
