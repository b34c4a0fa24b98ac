//! Server-push subscriptions: the registry that turns ingests into
//! [`crate::proto::Response::AuditEvent`] pushes.
//!
//! The [`SubscriptionRegistry`] pins each subscription to the
//! `(shard, epoch)` pairs its spec's hosts route to — the same pins the
//! audit cache keys on — and names its connection by token. The single
//! write path (`server::apply_mutation`) asks it which subscriptions an
//! ingest's epoch vector invalidates; each affected entry has its pins
//! advanced immediately (so concurrent ingests trigger at most one
//! re-audit per batch wave) and its re-audit is scheduled at once onto
//! the shared worker pool — the same pooled SIA audit a request's cache
//! miss runs, posted to the loop as an `AuditEvent` for the subscriber's
//! token instead of an answer. Pushed events are best-effort: past
//! [`MAX_OUTBOX_EVENTS`] held for a connection that stopped reading, the
//! loop sheds the oldest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use indaas_core::AuditSpec;
use indaas_deps::EpochVector;

use crate::cache::EpochPins;

/// Most pushed-event frames the loop holds for one connection; beyond
/// it the oldest held event is shed (answers are never shed).
pub const MAX_OUTBOX_EVENTS: usize = 64;

/// Most live subscriptions one daemon tracks across all connections —
/// each costs a spec clone and a re-audit per relevant ingest, so the
/// total is bounded like every other peer-controlled resource.
pub const MAX_SUBSCRIPTIONS: usize = 1024;

struct SubEntry {
    spec: AuditSpec,
    pins: EpochPins,
    conn: u64,
}

/// A subscription an ingest just invalidated: what the push job needs
/// to re-run the audit and deliver the event.
pub struct Triggered {
    /// The subscription id the pushed event will carry.
    pub subscription: u64,
    /// The spec to re-audit.
    pub spec: AuditSpec,
    /// The token of the connection the event goes to.
    pub conn: u64,
}

/// All live subscriptions across all connections, keyed by id.
#[derive(Default)]
pub struct SubscriptionRegistry {
    inner: Mutex<HashMap<u64, SubEntry>>,
    next_id: AtomicU64,
}

impl SubscriptionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry {
            inner: Mutex::new(HashMap::new()),
            // Subscription ids start at 1; 0 would shadow the reserved
            // push envelope id in log lines and confuse nobody usefully.
            next_id: AtomicU64::new(1),
        }
    }

    /// Registers a subscription owned by connection `conn`, pinned to
    /// `pins`. Returns the new subscription id.
    ///
    /// # Errors
    ///
    /// Rejects registration past [`MAX_SUBSCRIPTIONS`].
    pub fn register(&self, spec: AuditSpec, pins: EpochPins, conn: u64) -> Result<u64, String> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.len() >= MAX_SUBSCRIPTIONS {
            return Err(format!(
                "subscription limit reached ({MAX_SUBSCRIPTIONS} live subscriptions)"
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        inner.insert(id, SubEntry { spec, pins, conn });
        Ok(id)
    }

    /// Cancels subscription `id` if connection `conn` owns it.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown ids and cross-connection
    /// cancellation attempts.
    pub fn unregister(&self, id: u64, conn: u64) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.get(&id) {
            None => Err(format!("no such subscription: {id}")),
            Some(e) if e.conn != conn => {
                Err(format!("subscription {id} belongs to another connection"))
            }
            Some(_) => {
                inner.remove(&id);
                Ok(())
            }
        }
    }

    /// Drops every subscription a closing connection holds.
    pub fn drop_conn(&self, conn: u64) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|_, e| e.conn != conn);
    }

    /// Returns the subscriptions whose pinned shards moved past their
    /// recorded epochs under `current`, advancing each returned entry's
    /// pins to `current` in the same critical section — so a burst of
    /// ingests triggers each subscription once per wave, not once per
    /// batch it already caught up to.
    pub fn affected(&self, current: &EpochVector) -> Vec<Triggered> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = Vec::new();
        for (&id, entry) in inner.iter_mut() {
            let moved = entry
                .pins
                .iter()
                .any(|&(shard, epoch)| current.get(shard as usize) != epoch);
            if !moved {
                continue;
            }
            for (shard, epoch) in entry.pins.iter_mut() {
                *epoch = current.get(*shard as usize);
            }
            out.push(Triggered {
                subscription: id,
                spec: entry.spec.clone(),
                conn: entry.conn,
            });
        }
        out
    }

    /// The token of each distinct connection holding live
    /// subscriptions. The shutdown path posts its `ShuttingDown` push to
    /// these, so a watcher can tell a clean server drain from a dropped
    /// connection.
    pub fn subscribers(&self) -> Vec<u64> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut conns: Vec<u64> = inner.values().map(|e| e.conn).collect();
        conns.sort_unstable();
        conns.dedup();
        conns
    }

    /// Live subscriptions.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no subscriptions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indaas_core::CandidateDeployment;

    fn spec() -> AuditSpec {
        AuditSpec::sia_size_based(vec![CandidateDeployment::replicated("pair", ["S1", "S2"])])
    }

    #[test]
    fn registry_triggers_once_per_epoch_wave() {
        let reg = SubscriptionRegistry::new();
        let id = reg.register(spec(), vec![(0, 1), (2, 4)], 7).unwrap();
        // Pinned shards unchanged: nothing triggers.
        assert!(reg.affected(&EpochVector::from(vec![1, 9, 4])).is_empty());
        // Shard 2 moves: triggered once, pins advance...
        let hit = reg.affected(&EpochVector::from(vec![1, 9, 5]));
        assert_eq!(hit.len(), 1);
        assert_eq!((hit[0].subscription, hit[0].conn), (id, 7));
        // ...so the same vector does not trigger again.
        assert!(reg.affected(&EpochVector::from(vec![1, 9, 5])).is_empty());
    }

    #[test]
    fn unregister_enforces_ownership_and_drop_conn_sweeps() {
        let reg = SubscriptionRegistry::new();
        let a = reg.register(spec(), vec![(0, 0)], 1).unwrap();
        let b = reg.register(spec(), vec![(0, 0)], 2).unwrap();
        assert!(reg.unregister(a, 99).unwrap_err().contains("another"));
        assert!(reg.unregister(a, 1).is_ok());
        assert!(reg.unregister(a, 1).unwrap_err().contains("no such"));
        reg.drop_conn(2);
        assert!(reg.unregister(b, 2).unwrap_err().contains("no such"));
        assert!(reg.is_empty());
    }
}
