//! Fixed-pool job scheduler with a bounded queue and per-job deadlines.
//!
//! Audit jobs are CPU-bound and occasionally explosive (minimal-RG
//! computation is NP-hard), so the daemon never runs them on connection
//! threads. Instead a fixed number of worker threads drain a bounded
//! FIFO queue:
//!
//! * **bounded** — when the queue is full, [`Scheduler::submit`] fails
//!   immediately with [`SubmitError::QueueFull`] and the client gets a
//!   load-shed error instead of unbounded latency;
//! * **deadlines** — every job carries a [`CancelToken`]; the deadline
//!   keeps ticking while the job is *queued*, so an overloaded daemon
//!   sheds expired work the moment a worker picks it up (the audit
//!   engines poll the same token while running).
//!
//! Subscription push audits (protocol v2's `AuditEvent`s) are ordinary
//! jobs on this same pool: an ingest that wakes N subscriptions submits
//! N jobs and moves on, admission control sheds push load exactly like
//! request load, and a shed push costs one event — the subscription
//! stays armed for the next batch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use indaas_core::CancelToken;
use indaas_obs::{Counter, Gauge, Histo};

/// Observability hooks for the pool: queue occupancy, queue-wait
/// latency, and total admissions. The daemon passes handles from its
/// registry to [`Scheduler::new`].
#[derive(Clone)]
pub struct SchedMetrics {
    /// Jobs admitted but not yet picked up (set on every transition).
    pub queue_depth: Arc<Gauge>,
    /// Microseconds each job spent queued before a worker took it.
    pub wait_us: Arc<Histo>,
    /// Jobs admitted since startup.
    pub jobs_total: Arc<Counter>,
}

/// Why a job was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — shed load.
    QueueFull,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "audit queue full, retry later"),
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Job {
    run: Box<dyn FnOnce(&CancelToken) + Send>,
    token: CancelToken,
    enqueued: Instant,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    running: AtomicUsize,
    metrics: SchedMetrics,
}

/// The worker pool. Dropping it drains nothing: queued jobs whose
/// closures were admitted still run before workers exit.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` threads sharing a queue of at most `capacity`
    /// pending jobs. The pool keeps `metrics.queue_depth` current,
    /// records every job's queue wait into `wait_us`, and counts
    /// admissions into `jobs_total`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, capacity: usize, metrics: SchedMetrics) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            shutdown: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            metrics,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("indaas-audit-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn audit worker") // lint:allow(panic_path) -- workers spawn once at startup; a failed spawn is fatal misconfiguration
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Admits a job. The returned token lets the caller cancel it (it is
    /// the same token the job body receives); `deadline` arms the token
    /// to expire that far from *now* — queue wait counts against it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(
        &self,
        deadline: Option<Duration>,
        run: impl FnOnce(&CancelToken) + Send + 'static,
    ) -> Result<CancelToken, SubmitError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        // Chaos hook: `sched.dispatch` makes admission fail exactly like
        // a full queue (error/drop) or a closing pool (disconnect), so
        // callers exercise their shed-load paths on a healthy daemon.
        match indaas_faultinj::point(indaas_faultinj::points::SCHED_DISPATCH) {
            indaas_faultinj::FaultAction::Pass => {}
            indaas_faultinj::FaultAction::Disconnect => return Err(SubmitError::ShuttingDown),
            _ => return Err(SubmitError::QueueFull),
        }
        let token = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let job = Job {
            run: Box::new(run),
            token: token.clone(),
            enqueued: Instant::now(),
        };
        {
            let mut queue = self
                .shared
                .queue
                // lint:allow(blocking_in_loop) -- bounded short critical
                // section; never held across blocking work
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if queue.len() >= self.shared.capacity {
                return Err(SubmitError::QueueFull);
            }
            queue.push_back(job);
            let m = &self.shared.metrics;
            m.jobs_total.inc();
            m.queue_depth.set(queue.len() as u64);
        }
        self.shared.available.notify_one();
        Ok(token)
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// Stops accepting jobs and wakes idle workers; running jobs finish.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
    }

    /// [`Scheduler::shutdown`], then blocks until every worker thread
    /// has exited — queued jobs still run first. The daemon's shutdown
    /// path calls this so `Server::run` returns with zero pool threads
    /// left behind; idempotent (a second call finds no handles).
    pub fn shutdown_and_join(&self) {
        self.shutdown();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.queue_depth.set(queue.len() as u64);
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared
            .metrics
            .wait_us
            .record(job.enqueued.elapsed().as_micros() as u64);
        shared.running.fetch_add(1, Ordering::Relaxed);
        // The job body observes queue-time expiry through its token.
        // A panicking job (bad algorithm parameters tripping an assert
        // deep in an engine) must not kill the worker: catch it, keep
        // the counter honest, and let the submitter observe the dropped
        // result channel.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (job.run)(&job.token);
        }));
        shared.running.fetch_sub(1, Ordering::Relaxed);
        if outcome.is_err() {
            indaas_obs::log::error("scheduler", "audit job panicked (worker recovered)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Handles from a fresh registry, as the daemon's telemetry hands out.
    fn metrics() -> SchedMetrics {
        let registry = indaas_obs::Registry::new();
        SchedMetrics {
            queue_depth: registry.gauge("queue_depth"),
            wait_us: registry.histo("wait_us"),
            jobs_total: registry.counter("jobs_total"),
        }
    }

    #[test]
    fn jobs_run_and_results_flow_back() {
        let s = Scheduler::new(2, 8, metrics());
        let (tx, rx) = mpsc::channel();
        for i in 0..6u32 {
            let tx = tx.clone();
            s.submit(None, move |_| tx.send(i * i).expect("send result"))
                .unwrap();
        }
        let mut got: Vec<u32> = (0..6).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn queue_full_sheds_load() {
        let s = Scheduler::new(1, 1, metrics());
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        s.submit(None, move |_| {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        // ...fill the queue...
        s.submit(None, |_| {}).unwrap();
        // ...and the next submit must shed.
        let err = s.submit(None, |_| {}).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull);
        block_tx.send(()).unwrap();
    }

    #[test]
    fn deadline_expires_while_queued() {
        let s = Scheduler::new(1, 8, metrics());
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        s.submit(None, move |_| {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        let (tx, rx) = mpsc::channel();
        s.submit(Some(Duration::ZERO), move |token| {
            tx.send(token.state().is_some()).unwrap();
        })
        .unwrap();
        block_tx.send(()).unwrap();
        assert!(rx.recv().unwrap(), "deadline must expire during queueing");
    }

    #[test]
    fn caller_can_cancel_via_returned_token() {
        let s = Scheduler::new(1, 8, metrics());
        let (tx, rx) = mpsc::channel();
        let token = s
            .submit(None, move |t: &CancelToken| {
                // Spin until cancelled (bounded by the test timeout).
                while t.state().is_none() {
                    std::thread::yield_now();
                }
                tx.send(true).unwrap();
            })
            .unwrap();
        token.cancel();
        assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let s = Scheduler::new(1, 8, metrics());
        s.submit(None, |_| panic!("boom")).unwrap();
        // The sole worker must survive to run the next job.
        let (tx, rx) = mpsc::channel();
        s.submit(None, move |_| tx.send(7u32).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        // The gauge is decremented *after* the job body returns, so poll
        // briefly rather than racing the worker.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while s.running() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "running gauge must not leak on panic"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn metrics_track_admissions_and_queue_wait() {
        let m = metrics();
        let s = Scheduler::new(1, 8, m.clone());
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            s.submit(None, move |_| tx.send(()).unwrap()).unwrap();
        }
        for _ in 0..3 {
            rx.recv().unwrap();
        }
        assert_eq!(m.jobs_total.get(), 3);
        // Every job's queue wait was recorded once it was picked up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while m.wait_us.snapshot().count != 3 {
            assert!(std::time::Instant::now() < deadline, "waits not recorded");
            std::thread::yield_now();
        }
        assert_eq!(m.queue_depth.get(), 0);
    }

    #[test]
    fn shutdown_and_join_runs_queued_work_first() {
        let s = Scheduler::new(2, 16, metrics());
        let (tx, rx) = mpsc::channel();
        for i in 0..5u32 {
            let tx = tx.clone();
            s.submit(None, move |_| tx.send(i).unwrap()).unwrap();
        }
        s.shutdown_and_join();
        // Join returned, so every admitted job already ran.
        let mut got: Vec<u32> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // Idempotent: a second join finds nothing to do.
        s.shutdown_and_join();
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let s = Scheduler::new(1, 8, metrics());
        s.shutdown();
        assert_eq!(
            s.submit(None, |_| {}).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }
}
