//! Failure-probability models (§5.1).
//!
//! The paper proposes two practical sources of failure probabilities:
//! Gill et al.'s measurement methodology for network devices (annual
//! failure probability per device type) and CVSS scores for software
//! packages. [`FailureProbModel`] encodes both as longest-prefix rules over
//! component names, with a configurable default for unmatched components.

use serde::{Deserialize, Serialize};

/// Prefix-rule failure-probability model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FailureProbModel {
    /// `(name_prefix, probability)` rules; the *longest* matching prefix
    /// wins, so "core-" can override "co-".
    rules: Vec<(String, f64)>,
    /// Probability for components matching no rule.
    default: f64,
}

impl FailureProbModel {
    /// Creates a model with the given default probability.
    ///
    /// # Panics
    ///
    /// Panics if `default` is outside `[0, 1]`.
    pub fn new(default: f64) -> Self {
        assert!((0.0..=1.0).contains(&default), "default must be in [0,1]");
        FailureProbModel {
            rules: Vec::new(),
            default,
        }
    }

    /// Adds a prefix rule (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is outside `[0, 1]`.
    pub fn with_rule(mut self, prefix: impl Into<String>, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        self.rules.push((prefix.into(), prob));
        self
    }

    /// Checks every probability the model carries is in `[0, 1]` — what
    /// the constructors assert, for a model that arrived through
    /// `Deserialize` (a request's `prob_model`), which bypasses them.
    ///
    /// # Errors
    ///
    /// Names the default or the first rule outside `[0, 1]` (NaN
    /// included).
    pub fn validate(&self) -> Result<(), String> {
        let in_range = |p: f64| (0.0..=1.0).contains(&p);
        if !in_range(self.default) {
            return Err(format!(
                "prob_model default must be in [0, 1] (got {})",
                self.default
            ));
        }
        match self.rules.iter().find(|(_, p)| !in_range(*p)) {
            Some((prefix, p)) => Err(format!(
                "prob_model rule {prefix:?} must be in [0, 1] (got {p})"
            )),
            None => Ok(()),
        }
    }

    /// The annual failure probability for a component name.
    pub fn prob_for(&self, name: &str) -> f64 {
        self.rules
            .iter()
            .filter(|(p, _)| name.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, prob)| prob)
            .unwrap_or(self.default)
    }

    /// A model following the shape of Gill et al.'s data-center device
    /// measurements [22]: ToR switches are the most reliable devices,
    /// aggregation switches fail more, core/load-balancing gear the most;
    /// servers sit in between. Numbers are annualized probabilities.
    pub fn gill_defaults() -> Self {
        Self::new(0.05)
            .with_rule("tor", 0.05)
            .with_rule("agg", 0.10)
            .with_rule("core", 0.12)
            .with_rule("lb", 0.20)
            .with_rule("server", 0.08)
            .with_rule("rack", 0.05)
            .with_rule("switch", 0.09)
            .with_rule("router", 0.12)
    }

    /// Converts a CVSS base score (0–10) into a rough annual
    /// exploitation/failure probability for a software package, linearly
    /// capped at 0.5 — the paper only requires *relative* ranking, so the
    /// scale factor is unimportant.
    pub fn prob_from_cvss(score: f64) -> f64 {
        (score.clamp(0.0, 10.0) / 10.0 * 0.5).min(0.5)
    }
}

/// Component failure observations over a measurement window, implementing
/// Gill et al.'s estimator [22] the paper proposes in §5.1: the failure
/// probability of a device *type* is the number of devices of that type
/// that ever failed during the window divided by the type's population.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FailureObservations {
    /// type → (devices that failed at least once, total population).
    counts: std::collections::BTreeMap<String, (u64, u64)>,
}

impl FailureObservations {
    /// Creates an empty observation log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `population` deployed devices of `device_type`.
    pub fn observe_population(&mut self, device_type: impl Into<String>, population: u64) {
        self.counts.entry(device_type.into()).or_insert((0, 0)).1 += population;
    }

    /// Registers that `failed` distinct devices of `device_type` failed at
    /// least once during the window.
    ///
    /// # Panics
    ///
    /// Panics if more failures than population are recorded.
    pub fn observe_failures(&mut self, device_type: impl Into<String>, failed: u64) {
        let entry = self.counts.entry(device_type.into()).or_insert((0, 0));
        entry.0 += failed;
        assert!(
            entry.0 <= entry.1,
            "more failed devices than population for this type"
        );
    }

    /// The estimated failure probability for one device type, if observed.
    pub fn estimate(&self, device_type: &str) -> Option<f64> {
        self.counts
            .get(device_type)
            .filter(|&&(_, pop)| pop > 0)
            .map(|&(failed, pop)| failed as f64 / pop as f64)
    }

    /// Builds a prefix-rule model from the observations (device type names
    /// double as the name prefixes, matching this crate's topology naming).
    pub fn to_model(&self, default: f64) -> FailureProbModel {
        let mut model = FailureProbModel::new(default);
        for (ty, &(failed, pop)) in &self.counts {
            if pop > 0 {
                model = model.with_rule(ty.clone(), failed as f64 / pop as f64);
            }
        }
        model
    }
}

/// A CVSS v2 base vector (§5.1 points at CVSS as the failure-probability
/// source for software components).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CvssV2 {
    /// Access vector: Local, Adjacent or Network.
    pub access_vector: AccessVector,
    /// Access complexity: High, Medium or Low.
    pub access_complexity: AccessComplexity,
    /// Authentication: Multiple, Single or None.
    pub authentication: Authentication,
    /// Confidentiality / integrity / availability impacts.
    pub impact: [Impact; 3],
}

/// CVSS v2 AV metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessVector {
    /// Local access required.
    Local,
    /// Adjacent network.
    Adjacent,
    /// Remote network.
    Network,
}

/// CVSS v2 AC metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessComplexity {
    /// Specialized conditions required.
    High,
    /// Somewhat specialized.
    Medium,
    /// No specialized conditions.
    Low,
}

/// CVSS v2 Au metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Authentication {
    /// Multiple authentication rounds.
    Multiple,
    /// One authentication round.
    Single,
    /// No authentication needed.
    None,
}

/// CVSS v2 C/I/A impact levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Impact {
    /// No impact.
    None,
    /// Partial impact.
    Partial,
    /// Complete impact.
    Complete,
}

impl CvssV2 {
    /// Computes the CVSS v2 base score (0–10) per the NIST formula.
    pub fn base_score(&self) -> f64 {
        let av = match self.access_vector {
            AccessVector::Local => 0.395,
            AccessVector::Adjacent => 0.646,
            AccessVector::Network => 1.0,
        };
        let ac = match self.access_complexity {
            AccessComplexity::High => 0.35,
            AccessComplexity::Medium => 0.61,
            AccessComplexity::Low => 0.71,
        };
        let au = match self.authentication {
            Authentication::Multiple => 0.45,
            Authentication::Single => 0.56,
            Authentication::None => 0.704,
        };
        let sub = |i: Impact| match i {
            Impact::None => 0.0,
            Impact::Partial => 0.275,
            Impact::Complete => 0.660,
        };
        let impact = 10.41
            * (1.0
                - (1.0 - sub(self.impact[0]))
                    * (1.0 - sub(self.impact[1]))
                    * (1.0 - sub(self.impact[2])));
        let exploitability = 20.0 * av * ac * au;
        let f_impact: f64 = if impact == 0.0 { 0.0 } else { 1.176 };
        let score: f64 = (0.6 * impact + 0.4 * exploitability - 1.5) * f_impact;
        (score.max(0.0) * 10.0).round() / 10.0
    }

    /// The corresponding failure probability for this crate's models.
    pub fn failure_probability(&self) -> f64 {
        FailureProbModel::prob_from_cvss(self.base_score())
    }
}

impl Default for FailureProbModel {
    fn default() -> Self {
        Self::gill_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let m = FailureProbModel::new(0.01)
            .with_rule("co", 0.2)
            .with_rule("core", 0.4);
        assert_eq!(m.prob_for("core-7"), 0.4);
        assert_eq!(m.prob_for("copper"), 0.2);
        assert_eq!(m.prob_for("unknown"), 0.01);
    }

    #[test]
    fn gill_defaults_ordering() {
        let m = FailureProbModel::gill_defaults();
        assert!(m.prob_for("tor-3") < m.prob_for("agg-1"));
        assert!(m.prob_for("agg-1") < m.prob_for("core-1"));
        assert!(m.prob_for("core-1") < m.prob_for("lb-1"));
    }

    #[test]
    fn cvss_conversion_monotone_and_bounded() {
        assert_eq!(FailureProbModel::prob_from_cvss(0.0), 0.0);
        assert!(FailureProbModel::prob_from_cvss(5.0) < FailureProbModel::prob_from_cvss(9.0));
        assert_eq!(FailureProbModel::prob_from_cvss(10.0), 0.5);
        assert_eq!(FailureProbModel::prob_from_cvss(99.0), 0.5);
        assert_eq!(FailureProbModel::prob_from_cvss(-3.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn bad_rule_prob_panics() {
        let _ = FailureProbModel::new(0.1).with_rule("x", 1.5);
    }

    #[test]
    fn gill_estimator_basic() {
        let mut obs = FailureObservations::new();
        obs.observe_population("tor", 200);
        obs.observe_failures("tor", 10);
        obs.observe_population("core", 50);
        obs.observe_failures("core", 6);
        assert_eq!(obs.estimate("tor"), Some(0.05));
        assert_eq!(obs.estimate("core"), Some(0.12));
        assert_eq!(obs.estimate("unknown"), None);
        let model = obs.to_model(0.01);
        assert_eq!(model.prob_for("tor-3-1"), 0.05);
        assert_eq!(model.prob_for("core-9"), 0.12);
        assert_eq!(model.prob_for("agg-1"), 0.01);
    }

    #[test]
    #[should_panic(expected = "more failed devices than population")]
    fn gill_estimator_rejects_impossible_counts() {
        let mut obs = FailureObservations::new();
        obs.observe_population("lb", 2);
        obs.observe_failures("lb", 5);
    }

    #[test]
    fn cvss_v2_heartbleed_score() {
        // CVE-2014-0160 (Heartbleed, the paper's motivating software CVE):
        // AV:N/AC:L/Au:N/C:P/I:N/A:N → base score 5.0.
        let v = CvssV2 {
            access_vector: AccessVector::Network,
            access_complexity: AccessComplexity::Low,
            authentication: Authentication::None,
            impact: [Impact::Partial, Impact::None, Impact::None],
        };
        assert_eq!(v.base_score(), 5.0);
    }

    #[test]
    fn cvss_v2_maximal_vector_is_10() {
        let v = CvssV2 {
            access_vector: AccessVector::Network,
            access_complexity: AccessComplexity::Low,
            authentication: Authentication::None,
            impact: [Impact::Complete, Impact::Complete, Impact::Complete],
        };
        assert_eq!(v.base_score(), 10.0);
    }

    #[test]
    fn cvss_v2_no_impact_is_zero() {
        let v = CvssV2 {
            access_vector: AccessVector::Network,
            access_complexity: AccessComplexity::Low,
            authentication: Authentication::None,
            impact: [Impact::None, Impact::None, Impact::None],
        };
        assert_eq!(v.base_score(), 0.0);
        assert_eq!(v.failure_probability(), 0.0);
    }
}
