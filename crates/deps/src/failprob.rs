//! Failure-probability models (§5.1).
//!
//! The paper proposes two practical sources of failure probabilities:
//! Gill et al.'s measurement methodology for network devices (annual
//! failure probability per device type) and CVSS scores for software
//! packages. [`FailureProbModel`] takes either as longest-prefix rules over
//! component names, with a configurable default for unmatched components;
//! deriving the numbers from scores or observations is left to the caller.

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
    #[should_panic(expected = "probability must be in [0,1]")]
    fn bad_rule_prob_panics() {
        let _ = FailureProbModel::new(0.1).with_rule("x", 1.5);
    }
}
