//! The auditing agent: executes audit specifications against dependency
//! data (Steps 2–6 of the workflow in §2).

use std::sync::Arc;

use indaas_deps::{DbSnapshot, DepDb, DepView};
use indaas_graph::{CancelToken, Cancelled, FaultGraph};
use indaas_sia::{
    build_fault_graph, compose_minimal, failure_sampling_cancellable, write_report, AuditReport,
    BuildError, BuildSpec, ComposeError, DeploymentAudit, FamilyMemo, MinimalConfig, MinimalError,
    ProbabilityError, Ranking, SamplingConfig,
};

use crate::spec::{AuditSpec, RankingMetric, RgAlgorithm};

/// Receives per-stage wall-clock timings from an audit as it executes.
///
/// The agent stays free of any metrics dependency: callers that want
/// stage latencies (the `indaas-service` daemon's registry histograms
/// and span store) implement this trait and pass it to
/// [`AuditingAgent::audit_sia_observed`]; everyone else gets the no-op
/// `()` implementation for free. Stage names are stable identifiers:
/// `"graph_build"`, `"rg_minimal"`, `"rg_sampling"`, `"ranking"`. A
/// stage is reported once per candidate deployment. An exact audit's
/// `"graph_build"` covers both graphs it builds (its missed servers'
/// and the reduced one) and its `"rg_minimal"` both MOCUS passes;
/// `"ranking"` includes Pr(T) under the probability metric.
/// [`AuditingAgent::audit_sia_text`] reports one more, once per audit:
/// `"report_encode"`, the writer of the report's text.
///
/// The daemon's implementation records each engine stage as a child
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
    /// The job was cancelled or overran its deadline.
    Cancelled(Cancelled),
    /// A deployment's minimal risk groups outgrew the engine's family cap.
    TooLarge(String, MinimalError),
    /// A deployment's Pr(T) outgrew the diagram one audit may hold.
    Probability(String, ProbabilityError),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::NoCandidates => write!(f, "no candidate deployments specified"),
            AuditError::Build(name, e) => write!(f, "building {name:?} failed: {e}"),
            AuditError::Cancelled(c) => write!(f, "{c}"),
            AuditError::TooLarge(name, e) => write!(f, "auditing {name:?} failed: {e}"),
            AuditError::Probability(name, e) => write!(f, "auditing {name:?} failed: {e}"),
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
/// The view is held behind an [`Arc`] of a [`DepView`] trait object, so
/// agents are cheap to clone and agnostic to *how* the data is stored — a
/// monolithic [`DepDb`], or the multi-`Arc` sharded [`DbSnapshot`] the
/// `indaas-service` daemon pins per audit job at admission time.
///
/// Exact (`Minimal`) audits compose each deployment's family from
/// per-server families ([`indaas_sia::compose`]) kept in a
/// [`FamilyMemo`]. An agent starts with a memo of its own, which its
/// clones share; [`AuditingAgent::with_families`] hands it one that
/// outlives it, as the daemon does for every job.
#[derive(Clone, Debug)]
pub struct AuditingAgent {
    db: Arc<dyn DepView>,
    families: Arc<FamilyMemo>,
}

impl AuditingAgent {
    /// Creates an agent over an existing dependency database.
    pub fn new(db: DepDb) -> Self {
        Self::from_view(Arc::new(db))
    }

    /// Creates an agent over any shared read-only dependency view.
    pub fn from_view(db: Arc<dyn DepView>) -> Self {
        AuditingAgent {
            db,
            families: Arc::default(),
        }
    }

    /// Creates an agent over an epoch-pinned sharded snapshot — the
    /// daemon's per-job entry point.
    pub fn from_snapshot(snapshot: DbSnapshot) -> Self {
        Self::from_view(Arc::new(snapshot))
    }

    /// The same agent, keeping per-server families in `memo`.
    pub fn with_families(self, memo: Arc<FamilyMemo>) -> Self {
        AuditingAgent {
            families: memo,
            ..self
        }
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
        self.audit_sia_observed(spec, &CancelToken::default(), &())
    }

    /// [`AuditingAgent::audit_sia`] with cooperative cancellation, reporting
    /// per-stage timings (fault-graph build, risk-group engine, ranking) to
    /// a [`StageObserver`]. The token is threaded into every risk-group
    /// engine, so a per-job deadline stops the audit.
    ///
    /// # Errors
    ///
    /// As [`AuditingAgent::audit_sia`], plus [`AuditError::Cancelled`]
    /// when the token trips.
    pub fn audit_sia_observed(
        &self,
        spec: &AuditSpec,
        token: &CancelToken,
        obs: &dyn StageObserver,
    ) -> Result<AuditReport, AuditError> {
        let audits = self.rank_candidates(spec, token, obs, |name, graph, ranking| {
            DeploymentAudit::from_ranking(name, &graph, &ranking)
        })?;
        Ok(AuditReport::new(audits))
    }

    /// [`AuditingAgent::audit_sia_observed`]'s report as its compact JSON
    /// text — byte for byte `serde_json::to_string` of the typed report —
    /// written straight from the ranked rows by
    /// [`indaas_sia::write_report`]: the entry point the daemon's
    /// scheduler rides, caching the text every answer splices. The
    /// writer's time is reported as the `"report_encode"` stage.
    ///
    /// # Errors
    ///
    /// As [`AuditingAgent::audit_sia_observed`].
    pub fn audit_sia_text(
        &self,
        spec: &AuditSpec,
        token: &CancelToken,
        obs: &dyn StageObserver,
    ) -> Result<String, AuditError> {
        let ranked = self.rank_candidates(spec, token, obs, |name, graph, ranking| {
            (name, graph, ranking)
        })?;
        Ok(observed(obs, "report_encode", || {
            write_report(
                ranked
                    .iter()
                    .map(|(name, graph, ranking)| (name.as_str(), graph, ranking)),
            )
        }))
    }

    /// Runs the spec's engine on every candidate and ranks each family
    /// once, handing the candidate's name, its graph and the ranking to
    /// `finish` inside the `"ranking"` stage.
    fn rank_candidates<T>(
        &self,
        spec: &AuditSpec,
        token: &CancelToken,
        obs: &dyn StageObserver,
        finish: impl Fn(String, FaultGraph, Ranking) -> T,
    ) -> Result<Vec<T>, AuditError> {
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
            let build_error = |e| AuditError::Build(cand.name.clone(), e);
            let (graph, family) = match spec.algorithm {
                RgAlgorithm::Minimal { max_order } => {
                    let config = MinimalConfig { max_order };
                    let composed =
                        compose_minimal(self.db.as_ref(), &build, &config, &self.families, token)
                            .map_err(|e| match e {
                            ComposeError::Build(e) => build_error(e),
                            ComposeError::Minimal(MinimalError::Cancelled(c)) => {
                                AuditError::Cancelled(c)
                            }
                            ComposeError::Minimal(too_large) => {
                                AuditError::TooLarge(cand.name.clone(), too_large)
                            }
                        })?;
                    obs.stage("graph_build", composed.build_us);
                    obs.stage("rg_minimal", composed.minimal_us);
                    (composed.graph, composed.family)
                }
                RgAlgorithm::Sampling {
                    rounds,
                    fail_prob,
                    seed,
                    threads: _,
                } => {
                    let graph = observed(obs, "graph_build", || {
                        build_fault_graph(self.db.as_ref(), &build)
                    })
                    .map_err(build_error)?;
                    let config = SamplingConfig {
                        rounds,
                        fail_prob,
                        seed,
                    };
                    let family = observed(obs, "rg_sampling", || {
                        failure_sampling_cancellable(&graph, &config, token)
                    })
                    .map_err(AuditError::Cancelled)?;
                    (graph, family)
                }
            };
            let replication = cand.servers.len();
            let audit = observed(obs, "ranking", || {
                let ranking = match &spec.metric {
                    RankingMetric::Size => {
                        Ranking::by_size(&family, &graph, replication, spec.top_n)
                    }
                    RankingMetric::Probability { default_prob } => Ranking::by_probability(
                        &family,
                        &graph,
                        replication,
                        *default_prob,
                        spec.top_n,
                        token,
                    )
                    .map_err(|e| match e {
                        ProbabilityError::Cancelled(c) => AuditError::Cancelled(c),
                        too_large => AuditError::Probability(cand.name.clone(), too_large),
                    })?,
                };
                Ok(finish(cand.name.clone(), graph, ranking))
            })?;
            audits.push(audit);
        }
        Ok(audits)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CandidateDeployment;
    use indaas_deps::{parse_records, FailureProbModel};

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
        let spec = AuditSpec {
            metric: RankingMetric::Probability { default_prob: 0.1 },
            prob_model: Some(FailureProbModel::new(0.1)),
            ..AuditSpec::sia_size_based(candidates())
        };
        let report = agent.audit_sia(&spec).unwrap();
        assert_eq!(report.best().unwrap().name, "S1+S3");
        let p_clean = report.deployments[0].failure_probability.unwrap();
        let p_risky = report.deployments[1].failure_probability.unwrap();
        assert!(p_clean < p_risky);
    }

    /// Sampling agrees with the exact engine on the best deployment, and
    /// its answer ignores the spec's `threads`: every round runs on the
    /// calling thread.
    #[test]
    fn sia_sampling_algorithm_agrees_on_best() {
        let agent = AuditingAgent::new(db());
        let spec = |threads| AuditSpec {
            algorithm: RgAlgorithm::Sampling {
                rounds: 5000,
                fail_prob: 0.5,
                seed: 7,
                threads,
            },
            ..AuditSpec::sia_size_based(candidates())
        };
        let report = agent.audit_sia(&spec(1)).unwrap();
        assert_eq!(report.best().unwrap().name, "S1+S3");
        let text = |threads| {
            agent
                .audit_sia_text(&spec(threads), &CancelToken::default(), &())
                .unwrap()
        };
        let one = text(1);
        assert_eq!(text(0), one);
        assert_eq!(text(8), one);
    }

    #[test]
    fn probability_ranking_normalises_by_exact_top_probability() {
        // Two servers with five disks each: 25 two-disk groups, and
        // Pr(T) = Pr(a server loses a disk)².
        let records: String = ["S1", "S2"]
            .iter()
            .flat_map(|s| {
                (0..5).map(move |d| format!("<hw=\"{s}\" type=\"Disk\" dep=\"{s}-d{d}\"/>\n"))
            })
            .collect();
        let agent = AuditingAgent::new(DepDb::from_records(parse_records(&records).unwrap()));
        let spec = AuditSpec {
            metric: RankingMetric::Probability { default_prob: 0.1 },
            prob_model: Some(FailureProbModel::new(0.1)),
            ..AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("pair", ["S1", "S2"])])
        };
        let audit = &agent.audit_sia(&spec).unwrap().deployments[0];
        let pr_top = audit.failure_probability.unwrap();
        assert!((pr_top - (1.0 - 0.9f64.powi(5)).powi(2)).abs() < 1e-12);
        assert_eq!(audit.ranked_rgs.len(), 25);
        for rg in &audit.ranked_rgs {
            let expected = rg.probability.unwrap() / pr_top;
            let got = rg.importance.unwrap();
            assert!(
                (got - expected).abs() <= 1e-9 * expected,
                "{:?}: importance {got}, probability / Pr(T) = {expected}",
                rg.events
            );
        }
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
}
