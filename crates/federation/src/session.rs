//! Federation session plumbing: per-session frame mailboxes and the
//! registry that routes incoming peer frames to the party waiting on
//! them.
//!
//! A daemon's single listener accepts both client connections and peer
//! sessions; the peer-session read loop (in `indaas-service`) hands every
//! validated round frame to [`SessionRegistry::deliver`]-style
//! routing here. Frames may arrive *before* the coordinator's
//! `FederateStart` reaches this daemon (the ring has no global barrier),
//! so mailboxes are created on first touch and buffer until the party
//! thread starts popping.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use indaas_graph::CancelToken;
use indaas_simnet::TransportError;

/// One routed federation round frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The sender's ring-send ordinal within the session.
    pub round: u32,
    /// Ring index of the sending party.
    pub from: u32,
    /// Decoded ciphertext-list payload.
    pub payload: Vec<u8>,
}

/// Most frames one mailbox will buffer before the peer is told to back
/// off — a P-SOP party only ever has one frame in flight per round, so
/// anything near this bound is a misbehaving peer, not a slow audit.
pub const MAX_BUFFERED_FRAMES: usize = 256;

/// A blocking frame queue for one session on one daemon.
#[derive(Debug, Default)]
pub struct SessionMailbox {
    queue: Mutex<VecDeque<Frame>>,
    available: Condvar,
}

impl SessionMailbox {
    /// Enqueues a frame, waking any party blocked in [`SessionMailbox::pop`].
    ///
    /// # Errors
    ///
    /// Rejects the frame when the buffer is at [`MAX_BUFFERED_FRAMES`].
    pub fn push(&self, frame: Frame) -> Result<(), String> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= MAX_BUFFERED_FRAMES {
            return Err(format!(
                "session mailbox full ({MAX_BUFFERED_FRAMES} frames buffered)"
            ));
        }
        queue.push_back(frame);
        self.available.notify_all();
        Ok(())
    }

    /// Blocks until a frame arrives, the per-round `timeout` elapses, or
    /// `token` trips (the session-wide deadline).
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] in both expiry cases, naming which
    /// deadline fired.
    pub fn pop(&self, token: &CancelToken, timeout: Duration) -> Result<Frame, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(frame) = queue.pop_front() {
                return Ok(frame);
            }
            if token.is_cancelled() {
                return Err(TransportError::Timeout(
                    "federation session deadline exceeded".to_string(),
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout(format!(
                    "no frame within the {}ms round deadline",
                    timeout.as_millis()
                )));
            }
            // Short slices so the session-wide token is observed promptly.
            let wait = (deadline - now).min(Duration::from_millis(50));
            let (q, _) = self
                .available
                .wait_timeout(queue, wait)
                .unwrap_or_else(PoisonError::into_inner);
            queue = q;
        }
    }

    /// Frames currently buffered.
    pub fn pending(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Most concurrently tracked sessions; beyond it the stalest *idle*
/// session is dropped (frames for it start bouncing), bounding memory
/// against session-id churn from misbehaving peers.
pub const MAX_SESSIONS: usize = 64;

/// Routes session ids to mailboxes, creating them on first touch.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    inner: Mutex<SessionTable>,
}

#[derive(Debug, Default)]
struct SessionTable {
    mailboxes: HashMap<u64, Arc<SessionMailbox>>,
    /// Creation order for stale eviction at [`MAX_SESSIONS`].
    order: VecDeque<u64>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mailbox for `session`, created (and capacity-evicting) if
    /// absent. An existing session is always returned, however full the
    /// registry — a party mid-audit must never lose its mailbox.
    ///
    /// Eviction only considers *idle* sessions (nobody outside the
    /// registry holds the mailbox): a flood of throwaway session ids
    /// cannot starve an in-flight audit of its frames.
    ///
    /// # Errors
    ///
    /// Rejects a new session when the registry is full of active ones.
    pub fn mailbox(&self, session: u64) -> Result<Arc<SessionMailbox>, String> {
        let mut table = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mb) = table.mailboxes.get(&session) {
            return Ok(Arc::clone(mb));
        }
        while table.mailboxes.len() >= MAX_SESSIONS {
            // Oldest idle session first; an Arc held outside the table
            // (a party blocked in `pop`) marks the session active.
            let Some(pos) = table.order.iter().position(|s| {
                table
                    .mailboxes
                    .get(s)
                    .is_some_and(|mb| Arc::strong_count(mb) == 1)
            }) else {
                return Err(format!(
                    "session registry full ({MAX_SESSIONS} active sessions)"
                ));
            };
            let stale = table.order.remove(pos).expect("position is in range"); // lint:allow(panic_path) -- pos was just produced by position() over this deque
            table.mailboxes.remove(&stale);
        }
        let mb = Arc::new(SessionMailbox::default());
        table.mailboxes.insert(session, Arc::clone(&mb));
        table.order.push_back(session);
        Ok(mb)
    }

    /// Drops a finished session's mailbox (late frames recreate an empty
    /// one that ages out via the capacity bound).
    pub fn remove(&self, session: u64) {
        let mut table = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        table.mailboxes.remove(&session);
        table.order.retain(|s| *s != session);
    }

    /// Sessions currently tracked.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .mailboxes
            .len()
    }

    /// True when no sessions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(round: u32) -> Frame {
        Frame {
            round,
            from: 0,
            payload: vec![round as u8],
        }
    }

    #[test]
    fn push_pop_fifo() {
        let mb = SessionMailbox::default();
        mb.push(frame(0)).unwrap();
        mb.push(frame(1)).unwrap();
        let token = CancelToken::new();
        assert_eq!(mb.pop(&token, Duration::from_secs(1)).unwrap().round, 0);
        assert_eq!(mb.pop(&token, Duration::from_secs(1)).unwrap().round, 1);
    }

    #[test]
    fn pop_times_out_without_frames() {
        let mb = SessionMailbox::default();
        let token = CancelToken::new();
        let err = mb.pop(&token, Duration::from_millis(30)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout(_)));
    }

    #[test]
    fn pop_observes_cancelled_token() {
        let mb = SessionMailbox::default();
        let token = CancelToken::new();
        token.cancel();
        let err = mb.pop(&token, Duration::from_secs(30)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout(_)));
    }

    #[test]
    fn pop_unblocks_on_cross_thread_push() {
        let mb = Arc::new(SessionMailbox::default());
        let pusher = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            pusher.push(frame(7)).unwrap();
        });
        let token = CancelToken::new();
        assert_eq!(mb.pop(&token, Duration::from_secs(5)).unwrap().round, 7);
        handle.join().unwrap();
    }

    #[test]
    fn mailbox_buffer_is_bounded() {
        let mb = SessionMailbox::default();
        for i in 0..MAX_BUFFERED_FRAMES {
            mb.push(frame(i as u32)).unwrap();
        }
        assert!(mb.push(frame(0)).unwrap_err().contains("full"));
    }

    #[test]
    fn registry_creates_on_demand_and_evicts_only_idle_sessions() {
        let reg = SessionRegistry::new();
        // Holding the Arc marks session 1 active — it must survive any
        // amount of session-id churn.
        let active = reg.mailbox(1).unwrap();
        assert!(
            Arc::ptr_eq(&active, &reg.mailbox(1).unwrap()),
            "same session, same box"
        );
        for s in 2..=(MAX_SESSIONS as u64 + 10) {
            let _ = reg.mailbox(s).unwrap();
        }
        assert_eq!(reg.len(), MAX_SESSIONS);
        assert!(
            Arc::ptr_eq(&active, &reg.mailbox(1).unwrap()),
            "an active session must never be evicted by churn"
        );
        reg.remove(1);
        assert_eq!(reg.len(), MAX_SESSIONS - 1);
    }

    #[test]
    fn registry_full_of_active_sessions_rejects_new_ones() {
        let reg = SessionRegistry::new();
        let held: Vec<_> = (0..MAX_SESSIONS as u64)
            .map(|s| reg.mailbox(s).unwrap())
            .collect();
        let err = reg.mailbox(10_000).unwrap_err();
        assert!(err.contains("full"), "got: {err}");
        // Existing sessions still resolve.
        assert!(Arc::ptr_eq(&held[0], &reg.mailbox(0).unwrap()));
        // Releasing one frees a slot.
        drop(held);
        assert!(reg.mailbox(10_000).is_ok());
    }
}
