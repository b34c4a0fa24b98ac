//! Pluggable dependency acquisition modules (DAMs).
//!
//! The paper's prototype wraps NSDMiner (network), `lshw` (hardware) and
//! `apt-rdepends` (software); all three produce records in the Table-1
//! format. This reproduction keeps the pluggable interface
//! ([`DependencyAcquisitionModule`]) and provides [`SimCollector`], a
//! simulated module that serves records from synthetic ground truth with a
//! configurable *miss rate* — NSDMiner-style traffic mining does not see
//! flows that never occur during the observation window, which is why the
//! paper reports identifying "about 90% of relevant dependencies".

use rand::{Rng, SeedableRng};

use crate::record::DependencyRecord;

/// Errors from dependency acquisition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DamError {
    /// The module has no data for the requested host.
    UnknownHost(String),
    /// The underlying collector failed (simulated outage).
    CollectorFailure(String),
}

impl std::fmt::Display for DamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DamError::UnknownHost(h) => write!(f, "no dependency data for host {h:?}"),
            DamError::CollectorFailure(m) => write!(f, "collector failure: {m}"),
        }
    }
}

impl std::error::Error for DamError {}

/// A pluggable dependency acquisition module: collects the dependency
/// records for one target host.
pub trait DependencyAcquisitionModule {
    /// Module name ("nsdminer", "lshw", "apt-rdepends", ...).
    fn name(&self) -> &str;

    /// Collects records for `host`.
    ///
    /// # Errors
    ///
    /// Returns a [`DamError`] when the host is unknown or collection fails.
    fn collect(&mut self, host: &str) -> Result<Vec<DependencyRecord>, DamError>;

    /// All hosts this module can report on.
    fn hosts(&self) -> Vec<String>;
}

/// A simulated collector: ground-truth records filtered through a
/// per-record detection probability.
///
/// With `miss_rate = 0.0` it returns perfect data; with `miss_rate = 0.1`
/// it reproduces the ~90% coverage the paper measured for its
/// NSDMiner-based network module. Sampling is deterministic per
/// `(seed, host, record)` so repeated collections are stable, like a real
/// collector whose observation window is fixed.
pub struct SimCollector {
    name: String,
    truth: Vec<DependencyRecord>,
    miss_rate: f64,
    seed: u64,
}

impl SimCollector {
    /// Wraps `truth` with the given miss rate.
    ///
    /// # Panics
    ///
    /// Panics if `miss_rate` is outside `[0, 1)`.
    pub fn new(
        name: impl Into<String>,
        truth: Vec<DependencyRecord>,
        miss_rate: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&miss_rate),
            "miss_rate must be in [0, 1)"
        );
        SimCollector {
            name: name.into(),
            truth,
            miss_rate,
            seed,
        }
    }

    /// A perfect collector (no misses).
    pub fn perfect(name: impl Into<String>, truth: Vec<DependencyRecord>) -> Self {
        Self::new(name, truth, 0.0, 0)
    }

    /// Stable per-record coin flip.
    fn detects(&self, record: &DependencyRecord) -> bool {
        if self.miss_rate == 0.0 {
            return true;
        }
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.seed.hash(&mut h);
        record.hash(&mut h);
        let mut rng = rand::rngs::StdRng::seed_from_u64(h.finish());
        (rng.next_u64() as f64 / u64::MAX as f64) >= self.miss_rate
    }
}

impl DependencyAcquisitionModule for SimCollector {
    fn name(&self) -> &str {
        &self.name
    }

    fn collect(&mut self, host: &str) -> Result<Vec<DependencyRecord>, DamError> {
        let mut out = Vec::new();
        let mut host_known = false;
        for r in &self.truth {
            if r.host() == host {
                host_known = true;
                if self.detects(r) {
                    out.push(r.clone());
                }
            }
        }
        if !host_known {
            return Err(DamError::UnknownHost(host.to_string()));
        }
        Ok(out)
    }

    fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.truth.iter().map(|r| r.host().to_string()).collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_records;

    fn truth() -> Vec<DependencyRecord> {
        parse_records(
            r#"
            <src="S1" dst="Internet" route="ToR1,Core1"/>
            <src="S1" dst="Internet" route="ToR1,Core2"/>
            <src="S2" dst="Internet" route="ToR2,Core1"/>
            <hw="S1" type="CPU" dep="cpu-1"/>
            <pgm="Riak1" hw="S1" dep="libc6"/>
        "#,
        )
        .unwrap()
    }

    #[test]
    fn perfect_collector_returns_everything() {
        let mut c = SimCollector::perfect("nsdminer", truth());
        let got = c.collect("S1").unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(c.collect("S2").unwrap().len(), 1);
    }

    #[test]
    fn unknown_host_is_error() {
        let mut c = SimCollector::perfect("nsdminer", truth());
        assert_eq!(c.collect("S99"), Err(DamError::UnknownHost("S99".into())));
    }

    #[test]
    fn collection_is_deterministic() {
        let mut c1 = SimCollector::new("lossy", truth(), 0.5, 42);
        let mut c2 = SimCollector::new("lossy", truth(), 0.5, 42);
        assert_eq!(c1.collect("S1").unwrap(), c2.collect("S1").unwrap());
    }

    #[test]
    fn miss_rate_drops_roughly_expected_fraction() {
        // Build a large truth set and verify ~10% misses.
        let mut big = Vec::new();
        for i in 0..2000 {
            big.push(DependencyRecord::Network(crate::record::NetworkDep {
                src: "S1".into(),
                dst: "Internet".into(),
                route: vec![format!("dev-{i}")],
            }));
        }
        let mut c = SimCollector::new("lossy", big, 0.1, 7);
        let got = c.collect("S1").unwrap().len();
        assert!(
            (1700..=1900).contains(&got),
            "expected ~1800 of 2000 detected, got {got}"
        );
    }

    #[test]
    fn hosts_enumerated() {
        let c = SimCollector::perfect("x", truth());
        assert_eq!(c.hosts(), vec!["S1".to_string(), "S2".to_string()]);
    }
}
