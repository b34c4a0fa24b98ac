//! Server-push plumbing: per-connection outboxes and the subscription
//! registry that turns ingests into [`crate::proto::Response::AuditEvent`]
//! pushes.
//!
//! Every protocol-v2 connection owns one [`Outbox`] — a bounded frame
//! queue the readiness loop drains into the socket. Request handlers
//! and push jobs enqueue pre-serialized frames and never touch the
//! socket, so a slow or stalled consumer can never block an ingest,
//! an audit worker, or another connection. Responses are always
//! delivered (their count is bounded by the per-connection in-flight
//! cap); pushed *events* are best-effort: past [`MAX_OUTBOX_EVENTS`]
//! buffered events the oldest event is shed to make room for the
//! newest, because a dashboard that fell behind wants the freshest
//! result, not a replay of every intermediate one.
//!
//! The [`SubscriptionRegistry`] pins each subscription to the
//! `(shard, epoch)` pairs its spec's hosts route to — the same pins the
//! audit cache keys on. The single write path
//! (`server::apply_mutation`) asks it which subscriptions an ingest's
//! epoch vector invalidates; each affected entry has its pins advanced
//! immediately (so concurrent ingests trigger at most one re-audit per
//! batch wave) and its re-audit is scheduled at once onto the shared
//! worker pool — the same pooled SIA audit a request's cache miss runs,
//! framed as an `AuditEvent` into the subscriber's outbox instead of an
//! answer.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use indaas_core::AuditSpec;
use indaas_deps::EpochVector;
use indaas_obs::Counter;

use crate::cache::EpochPins;

/// Most pushed-event frames one connection may have buffered; beyond
/// it the oldest buffered event is shed (responses are never shed).
pub const MAX_OUTBOX_EVENTS: usize = 64;

/// Most live subscriptions one daemon tracks across all connections —
/// each costs a spec clone and a re-audit per relevant ingest, so the
/// total is bounded like every other peer-controlled resource.
pub const MAX_SUBSCRIPTIONS: usize = 1024;

struct OutMsg {
    /// True for a pushed event (sheddable), false for a response.
    event: bool,
    frame: Vec<u8>,
}

struct OutboxInner {
    queue: VecDeque<OutMsg>,
    events: usize,
    shed: u64,
    closed: bool,
}

/// A bounded, closeable frame queue. The readiness loop drains it with
/// [`Outbox::try_pop`] after the [notifier](Outbox::set_notifier) wakes
/// it; nothing ever blocks on it.
pub struct Outbox {
    inner: Mutex<OutboxInner>,
    /// External counters bumped once per shed event, on top of the
    /// outbox's own total — the daemon passes its registry-wide
    /// `outbox_shed_total` plus a per-connection counter, so a slow
    /// subscriber's lost pushes are visible without walking every live
    /// connection.
    shed_counters: Vec<Arc<Counter>>,
    /// Called (outside the queue lock) after every state change a
    /// drainer cares about: a successful enqueue or a close. The
    /// readiness loop installs a hook that flags the connection and
    /// kicks its eventfd waker.
    notifier: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl Default for Outbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Outbox {
    /// An open, empty outbox.
    pub fn new() -> Self {
        Self::with_shed_counters(Vec::new())
    }

    /// An open, empty outbox that also bumps `shed_counters` (e.g. the
    /// daemon-wide and per-connection shed counters) every time it
    /// sheds an event.
    pub fn with_shed_counters(shed_counters: Vec<Arc<Counter>>) -> Self {
        Outbox {
            inner: Mutex::new(OutboxInner {
                queue: VecDeque::new(),
                events: 0,
                shed: 0,
                closed: false,
            }),
            shed_counters,
            notifier: Mutex::new(None),
        }
    }

    /// Installs the wake hook invoked after every successful enqueue
    /// and on close. At most one notifier is live; installing replaces
    /// the previous one.
    pub fn set_notifier(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.notifier.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(hook));
    }

    fn notify(&self) {
        let hook = self
            .notifier
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(Arc::clone);
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Enqueues a response frame. Responses are never shed — their
    /// number in flight is bounded by the connection's in-flight
    /// request cap. Returns false if the outbox is closed (the
    /// connection died; the frame is dropped).
    pub fn push_response(&self, frame: Vec<u8>) -> bool {
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.closed {
                return false;
            }
            inner.queue.push_back(OutMsg {
                event: false,
                frame,
            });
        }
        self.notify();
        true
    }

    /// Enqueues a pushed-event frame, shedding the oldest buffered
    /// event first when [`MAX_OUTBOX_EVENTS`] are already waiting — the
    /// slow consumer loses intermediate results, never the freshest,
    /// and the producer never blocks. Returns false if the outbox is
    /// closed.
    pub fn push_event(&self, frame: Vec<u8>) -> bool {
        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.closed {
                return false;
            }
            if inner.events >= MAX_OUTBOX_EVENTS {
                if let Some(pos) = inner.queue.iter().position(|m| m.event) {
                    inner.queue.remove(pos);
                    inner.events -= 1;
                    inner.shed += 1;
                    for c in &self.shed_counters {
                        c.inc();
                    }
                }
            }
            inner.queue.push_back(OutMsg { event: true, frame });
            inner.events += 1;
        }
        self.notify();
        true
    }

    /// Pops the next queued frame without blocking; `None` means the
    /// queue is (currently) empty.
    pub fn try_pop(&self) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let msg = inner.queue.pop_front()?;
        if msg.event {
            inner.events -= 1;
        }
        Some(msg.frame)
    }

    /// Closes the outbox: producers start dropping frames, and the
    /// drainer exits once the already-queued frames are written.
    pub fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.notify();
    }

    /// Events shed so far (slow-consumer back-pressure made visible).
    pub fn shed(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shed
    }
}

struct SubEntry {
    spec: AuditSpec,
    pins: EpochPins,
    outbox: Arc<Outbox>,
    conn: u64,
}

/// A subscription an ingest just invalidated: what the push job needs
/// to re-run the audit and deliver the event.
pub struct Triggered {
    /// The subscription id the pushed event will carry.
    pub subscription: u64,
    /// The spec to re-audit.
    pub spec: AuditSpec,
    /// Where the event goes.
    pub outbox: Arc<Outbox>,
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
    pub fn register(
        &self,
        spec: AuditSpec,
        pins: EpochPins,
        outbox: Arc<Outbox>,
        conn: u64,
    ) -> Result<u64, String> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.len() >= MAX_SUBSCRIPTIONS {
            return Err(format!(
                "subscription limit reached ({MAX_SUBSCRIPTIONS} live subscriptions)"
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        inner.insert(
            id,
            SubEntry {
                spec,
                pins,
                outbox,
                conn,
            },
        );
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
                outbox: Arc::clone(&entry.outbox),
            });
        }
        out
    }

    /// One outbox per distinct connection holding live subscriptions.
    /// The shutdown path broadcasts its `ShuttingDown` push through
    /// these, so a watcher can tell a clean server drain from a dropped
    /// connection.
    pub fn subscriber_outboxes(&self) -> Vec<Arc<Outbox>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for entry in inner.values() {
            if seen.insert(entry.conn) {
                out.push(Arc::clone(&entry.outbox));
            }
        }
        out
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
    fn outbox_delivers_in_order_and_closes() {
        let ob = Outbox::new();
        assert!(ob.push_response(b"a".to_vec()));
        assert!(ob.push_event(b"b".to_vec()));
        assert_eq!(ob.try_pop().unwrap(), b"a");
        ob.close();
        assert!(!ob.push_response(b"late".to_vec()));
        // Frames queued before the close still drain.
        assert_eq!(ob.try_pop().unwrap(), b"b");
        assert!(ob.try_pop().is_none());
    }

    #[test]
    fn events_shed_oldest_but_responses_never_do() {
        let ob = Outbox::new();
        assert!(ob.push_response(b"resp".to_vec()));
        for i in 0..(MAX_OUTBOX_EVENTS + 10) {
            assert!(ob.push_event(format!("ev{i}").into_bytes()));
        }
        assert_eq!(ob.shed(), 10);
        // The response survives at the front; the oldest 10 events are
        // gone and the newest is still last.
        assert_eq!(ob.try_pop().unwrap(), b"resp");
        assert_eq!(ob.try_pop().unwrap(), b"ev10");
        let mut last = Vec::new();
        for _ in 1..MAX_OUTBOX_EVENTS {
            last = ob.try_pop().unwrap();
        }
        assert_eq!(last, format!("ev{}", MAX_OUTBOX_EVENTS + 9).into_bytes());
    }

    #[test]
    fn try_pop_and_notifier_drive_a_poll_drainer() {
        let ob = Outbox::new();
        let hits = Arc::new(Counter::new());
        let h = Arc::clone(&hits);
        ob.set_notifier(move || h.inc());
        assert!(ob.try_pop().is_none());
        ob.push_response(b"a".to_vec());
        ob.push_event(b"b".to_vec());
        assert_eq!(hits.get(), 2, "one wake per enqueue");
        assert_eq!(ob.try_pop().unwrap(), b"a");
        assert_eq!(ob.try_pop().unwrap(), b"b");
        assert!(ob.try_pop().is_none());
        ob.close();
        assert_eq!(hits.get(), 3, "close wakes the drainer too");
        assert!(!ob.push_response(b"late".to_vec()));
        assert_eq!(hits.get(), 3, "rejected frames do not wake");
    }

    #[test]
    fn shed_counters_track_lost_events() {
        let global = Arc::new(Counter::new());
        let per_conn = Arc::new(Counter::new());
        let ob = Outbox::with_shed_counters(vec![Arc::clone(&global), Arc::clone(&per_conn)]);
        for i in 0..(MAX_OUTBOX_EVENTS + 3) {
            assert!(ob.push_event(format!("ev{i}").into_bytes()));
        }
        assert_eq!(ob.shed(), 3);
        assert_eq!(global.get(), 3);
        assert_eq!(per_conn.get(), 3);
    }

    #[test]
    fn registry_triggers_once_per_epoch_wave() {
        let reg = SubscriptionRegistry::new();
        let ob = Arc::new(Outbox::new());
        let id = reg
            .register(spec(), vec![(0, 1), (2, 4)], Arc::clone(&ob), 7)
            .unwrap();
        // Pinned shards unchanged: nothing triggers.
        assert!(reg.affected(&EpochVector::from(vec![1, 9, 4])).is_empty());
        // Shard 2 moves: triggered once, pins advance...
        let hit = reg.affected(&EpochVector::from(vec![1, 9, 5]));
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].subscription, id);
        // ...so the same vector does not trigger again.
        assert!(reg.affected(&EpochVector::from(vec![1, 9, 5])).is_empty());
    }

    #[test]
    fn unregister_enforces_ownership_and_drop_conn_sweeps() {
        let reg = SubscriptionRegistry::new();
        let ob = Arc::new(Outbox::new());
        let a = reg
            .register(spec(), vec![(0, 0)], Arc::clone(&ob), 1)
            .unwrap();
        let b = reg
            .register(spec(), vec![(0, 0)], Arc::clone(&ob), 2)
            .unwrap();
        assert!(reg.unregister(a, 99).unwrap_err().contains("another"));
        assert!(reg.unregister(a, 1).is_ok());
        assert!(reg.unregister(a, 1).unwrap_err().contains("no such"));
        reg.drop_conn(2);
        assert!(reg.unregister(b, 2).unwrap_err().contains("no such"));
        assert!(reg.is_empty());
    }
}
