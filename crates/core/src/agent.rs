//! The auditing agent: executes audit specifications against dependency
//! data (Steps 2–6 of the workflow in §2).

use indaas_deps::{collect_all, DamError, DbSnapshot, DepDb, DepView, DependencyAcquisitionModule};
use indaas_graph::{CancelToken, Cancelled};
use indaas_pia::{rank_deployments_cancellable, PiaRanking, PsopConfig};
use indaas_sia::{
    build_fault_graph, failure_sampling_cancellable, minimal_risk_groups_cancellable, AuditReport,
    Bdd, BddError, BuildError, BuildSpec, DeploymentAudit, MinimalConfig, MinimalError,
    SamplingConfig,
};

use crate::spec::{AuditSpec, RankingMetric, RgAlgorithm};

/// Receives per-stage wall-clock timings from an audit as it executes.
///
/// The agent stays free of any metrics dependency: callers that want
/// stage latencies (the `indaas-service` daemon's registry histograms
/// and span store) implement this trait and pass it to
/// [`AuditingAgent::audit_sia_observed`]; everyone else gets the no-op
/// `()` implementation for free. Stage names are stable identifiers:
/// `"graph_build"`, `"rg_minimal"`, `"rg_sampling"`, `"rg_bdd"`,
/// `"ranking"`. A stage is reported once per candidate deployment.
///
/// The daemon's implementation records each reported stage as a child
/// span of the audit's own span, so `indaas trace`, `indaas metrics` and
/// `indaas top` show per-stage timing inside the request tree without
/// this crate knowing anything about tracing.
pub trait StageObserver: Sync {
    /// Called when a stage finishes, with its elapsed microseconds.
    fn stage(&self, stage: &'static str, elapsed_us: u64);
}

/// The no-op observer.
impl StageObserver for () {
    fn stage(&self, _stage: &'static str, _elapsed_us: u64) {}
}

/// Runs `f`, reporting its wall-clock cost to `obs` under `stage`.
fn observed<T>(obs: &dyn StageObserver, stage: &'static str, f: impl FnOnce() -> T) -> T {
    let started = std::time::Instant::now();
    let out = f();
    obs.stage(stage, started.elapsed().as_micros() as u64);
    out
}

/// Errors surfaced to the auditing client.
#[derive(Debug)]
pub enum AuditError {
    /// The spec listed no candidate deployments.
    NoCandidates,
    /// Fault-graph construction failed for a deployment.
    Build(String, BuildError),
    /// Dependency acquisition failed.
    Acquisition(DamError),
    /// The job was cancelled or overran its deadline.
    Cancelled(Cancelled),
    /// A deployment's minimal risk groups outgrew the engine's family cap.
    TooLarge(String, MinimalError),
    /// A deployment's BDD outgrew the spec's `max_nodes` budget.
    BddTooLarge(String, BddError),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::NoCandidates => write!(f, "no candidate deployments specified"),
            AuditError::Build(name, e) => write!(f, "building {name:?} failed: {e}"),
            AuditError::Acquisition(e) => write!(f, "dependency acquisition failed: {e}"),
            AuditError::Cancelled(c) => write!(f, "{c}"),
            AuditError::TooLarge(name, e) => write!(f, "auditing {name:?} failed: {e}"),
            AuditError::BddTooLarge(name, e) => write!(f, "auditing {name:?} failed: {e}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Outcome of a [`AuditingAgent::what_if`] query for one deployment.
#[derive(Clone, Debug)]
pub struct WhatIfOutcome {
    /// Deployment name.
    pub deployment: String,
    /// The hypothetically failed components this deployment depends on.
    pub affected_components: Vec<String>,
    /// Whether the deployment suffers an outage.
    pub outage: bool,
}

/// The auditing agent: owns a read-only view of dependency data and runs
/// audits.
///
/// The view is held behind an [`Arc`](std::sync::Arc) of a [`DepView`]
/// trait object, so agents are cheap to clone and agnostic to *how* the
/// data is stored — a monolithic [`DepDb`], or the multi-`Arc` sharded
/// [`DbSnapshot`] the `indaas-service` daemon pins per audit job at
/// admission time.
#[derive(Clone, Debug)]
pub struct AuditingAgent {
    db: std::sync::Arc<dyn DepView>,
}

impl AuditingAgent {
    /// Creates an agent over an existing dependency database.
    pub fn new(db: DepDb) -> Self {
        Self::from_shared(std::sync::Arc::new(db))
    }

    /// Creates an agent over a shared monolithic snapshot without
    /// copying it.
    pub fn from_shared(db: std::sync::Arc<DepDb>) -> Self {
        AuditingAgent { db }
    }

    /// Creates an agent over any shared read-only dependency view.
    pub fn from_view(db: std::sync::Arc<dyn DepView>) -> Self {
        AuditingAgent { db }
    }

    /// Creates an agent over an epoch-pinned sharded snapshot — the
    /// daemon's per-job entry point.
    pub fn from_snapshot(snapshot: DbSnapshot) -> Self {
        Self::from_view(std::sync::Arc::new(snapshot))
    }

    /// Creates an agent by running every acquisition module against every
    /// host it knows (Step 3 of the workflow).
    ///
    /// # Errors
    ///
    /// Propagates the first collector failure.
    pub fn from_modules(
        modules: &mut [Box<dyn DependencyAcquisitionModule>],
    ) -> Result<Self, AuditError> {
        let records = collect_all(modules).map_err(AuditError::Acquisition)?;
        Ok(Self::new(DepDb::from_records(records)))
    }

    /// The dependency view (for inspection and composition).
    pub fn db(&self) -> &dyn DepView {
        &*self.db
    }

    /// Runs a structural independence audit: for every candidate
    /// deployment, builds the fault graph, determines risk groups with the
    /// requested algorithm, ranks them, and assembles the report.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] if the spec is empty or any deployment's
    /// fault graph cannot be built.
    pub fn audit_sia(&self, spec: &AuditSpec) -> Result<AuditReport, AuditError> {
        self.audit_sia_cancellable(spec, &CancelToken::default())
    }

    /// [`AuditingAgent::audit_sia`] with cooperative cancellation — the
    /// entry point the `indaas-service` scheduler uses to enforce per-job
    /// deadlines. The token is threaded into every risk-group engine.
    ///
    /// # Errors
    ///
    /// As [`AuditingAgent::audit_sia`], plus [`AuditError::Cancelled`]
    /// when the token trips.
    pub fn audit_sia_cancellable(
        &self,
        spec: &AuditSpec,
        token: &CancelToken,
    ) -> Result<AuditReport, AuditError> {
        self.audit_sia_observed(spec, token, &())
    }

    /// [`AuditingAgent::audit_sia_cancellable`] reporting per-stage
    /// timings (fault-graph build, risk-group engine, ranking) to a
    /// [`StageObserver`] — the entry point the daemon's stage recorder
    /// rides.
    ///
    /// # Errors
    ///
    /// As [`AuditingAgent::audit_sia_cancellable`].
    pub fn audit_sia_observed(
        &self,
        spec: &AuditSpec,
        token: &CancelToken,
        obs: &dyn StageObserver,
    ) -> Result<AuditReport, AuditError> {
        if spec.candidates.is_empty() {
            return Err(AuditError::NoCandidates);
        }
        let mut audits = Vec::with_capacity(spec.candidates.len());
        for cand in &spec.candidates {
            let build = BuildSpec {
                name: cand.name.clone(),
                servers: cand.servers.clone(),
                needed_alive: cand.needed_alive,
                network: spec.network,
                hardware: spec.hardware,
                software: spec.software,
                prob_model: spec.prob_model.clone(),
            };
            let graph = observed(obs, "graph_build", || {
                build_fault_graph(self.db.as_ref(), &build)
            })
            .map_err(|e| AuditError::Build(cand.name.clone(), e))?;
            // The BDD engine additionally yields an exact top-event
            // probability; the other engines defer to the ranking module.
            let mut exact_pr: Option<Bdd> = None;
            let family = match spec.algorithm {
                RgAlgorithm::Minimal { max_order } => {
                    let config = MinimalConfig {
                        max_order,
                        ..MinimalConfig::default()
                    };
                    observed(obs, "rg_minimal", || {
                        minimal_risk_groups_cancellable(&graph, &config, token)
                    })
                    .map_err(|e| match e {
                        MinimalError::Cancelled(c) => AuditError::Cancelled(c),
                        too_large => AuditError::TooLarge(cand.name.clone(), too_large),
                    })?
                }
                RgAlgorithm::Sampling {
                    rounds,
                    fail_prob,
                    seed,
                    threads,
                } => {
                    let config = SamplingConfig {
                        rounds,
                        fail_prob,
                        seed,
                        threads,
                        weighted: false,
                    };
                    observed(obs, "rg_sampling", || {
                        failure_sampling_cancellable(&graph, &config, token)
                    })
                    .map_err(AuditError::Cancelled)?
                }
                RgAlgorithm::Bdd { max_nodes } => {
                    let (bdd, family) = observed(obs, "rg_bdd", || {
                        Bdd::compile_cancellable(&graph, max_nodes, token).map(|bdd| {
                            let family = bdd.minimal_cut_sets();
                            (bdd, family)
                        })
                    })
                    .map_err(|e| match e {
                        BddError::Cancelled(c) => AuditError::Cancelled(c),
                        too_large => AuditError::BddTooLarge(cand.name.clone(), too_large),
                    })?;
                    exact_pr = Some(bdd);
                    family
                }
            };
            let replication = cand.servers.len();
            let audit = observed(obs, "ranking", || match &spec.metric {
                RankingMetric::Size => DeploymentAudit::size_based(
                    cand.name.clone(),
                    &family,
                    &graph,
                    replication,
                    spec.top_n,
                ),
                RankingMetric::Probability { default_prob } => {
                    let mut audit = DeploymentAudit::probability_based(
                        cand.name.clone(),
                        &family,
                        &graph,
                        replication,
                        *default_prob,
                        spec.top_n,
                    );
                    if let Some(bdd) = &exact_pr {
                        audit.failure_probability =
                            Some(bdd.top_probability(&graph, *default_prob));
                    }
                    audit
                }
            });
            audits.push(audit);
        }
        Ok(AuditReport::new(audits))
    }

    /// "What-if" analysis: given components assumed failed (say, every
    /// deployment of a package hit by a disclosed CVE — the Heartbleed
    /// scenario of §3), which candidate deployments go down?
    ///
    /// Components a deployment does not depend on are ignored, so one
    /// query can name a fleet-wide blast radius.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] if a deployment's fault graph cannot be
    /// built.
    pub fn what_if(
        &self,
        spec: &AuditSpec,
        failed_components: &[&str],
    ) -> Result<Vec<WhatIfOutcome>, AuditError> {
        let mut out = Vec::with_capacity(spec.candidates.len());
        for cand in &spec.candidates {
            let build = BuildSpec {
                name: cand.name.clone(),
                servers: cand.servers.clone(),
                needed_alive: cand.needed_alive,
                network: spec.network,
                hardware: spec.hardware,
                software: spec.software,
                prob_model: None,
            };
            let graph = build_fault_graph(self.db.as_ref(), &build)
                .map_err(|e| AuditError::Build(cand.name.clone(), e))?;
            let relevant: Vec<&str> = failed_components
                .iter()
                .copied()
                .filter(|c| graph.basic_by_name(c).is_some())
                .collect();
            let fails = graph
                .evaluate_named(&relevant)
                .expect("filtered to known components");
            out.push(WhatIfOutcome {
                deployment: cand.name.clone(),
                affected_components: relevant.iter().map(|s| s.to_string()).collect(),
                outage: fails,
            });
        }
        Ok(out)
    }

    /// Runs a private independence audit across provider component sets:
    /// ranks every `way`-sized provider combination by Jaccard similarity
    /// via P-SOP (optionally MinHash-compressed), without this agent ever
    /// seeing plaintext components.
    pub fn audit_pia(
        &self,
        providers: &[(String, Vec<String>)],
        way: usize,
        minhash: Option<usize>,
    ) -> Vec<PiaRanking> {
        self.audit_pia_cancellable(providers, way, minhash, &CancelToken::default())
            .expect("default token never cancels")
    }

    /// [`AuditingAgent::audit_pia`] with cooperative cancellation between
    /// provider-combination P-SOP runs.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token trips.
    pub fn audit_pia_cancellable(
        &self,
        providers: &[(String, Vec<String>)],
        way: usize,
        minhash: Option<usize>,
        token: &CancelToken,
    ) -> Result<Vec<PiaRanking>, Cancelled> {
        rank_deployments_cancellable(providers, way, minhash, &PsopConfig::default(), token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CandidateDeployment;
    use indaas_deps::{parse_records, FailureProbModel, SimCollector};

    fn db() -> DepDb {
        DepDb::from_records(
            parse_records(
                r#"
                <src="S1" dst="Internet" route="tor1,core1"/>
                <src="S1" dst="Internet" route="tor1,core2"/>
                <src="S2" dst="Internet" route="tor1,core1"/>
                <src="S2" dst="Internet" route="tor1,core2"/>
                <src="S3" dst="Internet" route="tor2,core1"/>
                <src="S3" dst="Internet" route="tor2,core2"/>
                <hw="S1" type="Disk" dep="S1-disk"/>
                <hw="S2" type="Disk" dep="S2-disk"/>
                <hw="S3" type="Disk" dep="S3-disk"/>
            "#,
            )
            .unwrap(),
        )
    }

    fn candidates() -> Vec<CandidateDeployment> {
        vec![
            CandidateDeployment::replicated("S1+S2", ["S1", "S2"]),
            CandidateDeployment::replicated("S1+S3", ["S1", "S3"]),
        ]
    }

    #[test]
    fn sia_size_based_prefers_independent_pair() {
        let agent = AuditingAgent::new(db());
        let report = agent
            .audit_sia(&AuditSpec::sia_size_based(candidates()))
            .unwrap();
        assert_eq!(report.best().unwrap().name, "S1+S3");
        // The shared-ToR pair has exactly one unexpected RG ({tor1}).
        let risky = report
            .deployments
            .iter()
            .find(|d| d.name == "S1+S2")
            .unwrap();
        assert_eq!(risky.unexpected_rgs, 1);
        let clean = report.best().unwrap();
        assert_eq!(clean.unexpected_rgs, 0);
    }

    #[test]
    fn sia_probability_based_orders_by_outage_probability() {
        let agent = AuditingAgent::new(db());
        let spec = AuditSpec::sia_probability_based(candidates(), FailureProbModel::new(0.1), 0.1);
        let report = agent.audit_sia(&spec).unwrap();
        assert_eq!(report.best().unwrap().name, "S1+S3");
        let p_clean = report.deployments[0].failure_probability.unwrap();
        let p_risky = report.deployments[1].failure_probability.unwrap();
        assert!(p_clean < p_risky);
    }

    #[test]
    fn sia_sampling_algorithm_agrees_on_best() {
        let agent = AuditingAgent::new(db());
        let spec = AuditSpec {
            algorithm: RgAlgorithm::Sampling {
                rounds: 5000,
                fail_prob: 0.5,
                seed: 7,
                threads: 1,
            },
            ..AuditSpec::sia_size_based(candidates())
        };
        let report = agent.audit_sia(&spec).unwrap();
        assert_eq!(report.best().unwrap().name, "S1+S3");
    }

    #[test]
    fn bdd_algorithm_agrees_with_minimal_and_gives_exact_pr() {
        let agent = AuditingAgent::new(db());
        let minimal = agent
            .audit_sia(&AuditSpec::sia_size_based(candidates()))
            .unwrap();
        let bdd = agent
            .audit_sia(&AuditSpec {
                algorithm: RgAlgorithm::Bdd { max_nodes: 1 << 20 },
                ..AuditSpec::sia_size_based(candidates())
            })
            .unwrap();
        assert_eq!(bdd.best().unwrap().name, minimal.best().unwrap().name);
        for (a, b) in bdd.deployments.iter().zip(&minimal.deployments) {
            assert_eq!(a.ranked_rgs.len(), b.ranked_rgs.len());
        }
        // Probability metric through the BDD path: exact Pr(T).
        let prob = agent
            .audit_sia(&AuditSpec {
                algorithm: RgAlgorithm::Bdd { max_nodes: 1 << 20 },
                ..AuditSpec::sia_probability_based(candidates(), FailureProbModel::new(0.1), 0.1)
            })
            .unwrap();
        assert_eq!(prob.best().unwrap().name, "S1+S3");
        assert!(prob.best().unwrap().failure_probability.unwrap() > 0.0);
        // A budget the graph outgrows is an audit error, not a panic.
        let err = agent
            .audit_sia(&AuditSpec {
                algorithm: RgAlgorithm::Bdd { max_nodes: 2 },
                ..AuditSpec::sia_size_based(candidates())
            })
            .unwrap_err();
        assert!(
            matches!(
                &err,
                AuditError::BddTooLarge(_, BddError::TooLarge { cap: 2 })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("BDD exceeded 2 nodes"), "{err}");
    }

    #[test]
    fn empty_spec_rejected() {
        let agent = AuditingAgent::new(db());
        assert!(matches!(
            agent.audit_sia(&AuditSpec::sia_size_based(vec![])),
            Err(AuditError::NoCandidates)
        ));
    }

    #[test]
    fn unknown_server_surfaces_build_error() {
        let agent = AuditingAgent::new(db());
        let spec =
            AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("bad", ["S1", "S404"])]);
        assert!(matches!(
            agent.audit_sia(&spec),
            Err(AuditError::Build(name, _)) if name == "bad"
        ));
    }

    #[test]
    fn agent_from_modules() {
        let truth = parse_records(r#"<hw="H1" type="CPU" dep="cpu-a"/>"#).unwrap();
        let mut modules: Vec<Box<dyn DependencyAcquisitionModule>> =
            vec![Box::new(SimCollector::perfect("lshw", truth))];
        let agent = AuditingAgent::from_modules(&mut modules).unwrap();
        assert_eq!(agent.db().hardware_deps("H1").len(), 1);
    }

    #[test]
    fn what_if_cve_scenario() {
        // Two deployments; a "CVE" takes out tor1, which only the
        // same-rack pair depends on as a single point of failure.
        let agent = AuditingAgent::new(db());
        let spec = AuditSpec::sia_size_based(candidates());
        let outcomes = agent.what_if(&spec, &["tor1"]).unwrap();
        let same = outcomes.iter().find(|o| o.deployment == "S1+S2").unwrap();
        let cross = outcomes.iter().find(|o| o.deployment == "S1+S3").unwrap();
        assert!(same.outage, "shared ToR failure must take down S1+S2");
        assert!(!cross.outage, "S1+S3 must survive tor1");
        assert_eq!(same.affected_components, vec!["tor1"]);
        // A component no deployment uses is a no-op.
        let none = agent.what_if(&spec, &["unknown-package"]).unwrap();
        assert!(none.iter().all(|o| !o.outage));
        // Multi-component blast radius: both disks of one pair.
        let disks = agent.what_if(&spec, &["S1-disk", "S2-disk"]).unwrap();
        assert!(
            disks
                .iter()
                .find(|o| o.deployment == "S1+S2")
                .unwrap()
                .outage
        );
    }

    #[test]
    fn pia_ranking_through_agent() {
        let agent = AuditingAgent::new(DepDb::new());
        let providers = vec![
            ("A".to_string(), vec!["x".to_string(), "y".to_string()]),
            ("B".to_string(), vec!["x".to_string(), "z".to_string()]),
            ("C".to_string(), vec!["q".to_string(), "r".to_string()]),
        ];
        let ranking = agent.audit_pia(&providers, 2, None);
        assert_eq!(ranking.len(), 3);
        // A&B share x; the disjoint pairs rank first.
        assert_eq!(ranking[2].providers, vec!["A", "B"]);
    }
}
