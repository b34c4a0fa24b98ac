//! The five workloads: what each sends, and how each answer is checked.
//!
//! Every workload is one closed loop on one thread: the next request
//! leaves only after the previous answer has been decoded and checked.
//! Why each exists is recorded in `BENCHMARK.json` and the README.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use indaas_core::{AuditSpec, AuditingAgent, RgAlgorithm};
use indaas_deps::{parse_records, DepDb};
use indaas_pia::jaccard_exact;
use indaas_service::proto::{Request, Response, ResponseEnvelope, EVENT_ENVELOPE_ID};
use indaas_sia::AuditReport;

use crate::gen::{self, Dataset, Gen, Mutation};
use crate::trace::{SpanId, Tracer};
use crate::wire::{decode, Session};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SiaColdMinimal,
    SiaColdSampling,
    SiaHot,
    IngestPush,
    PiaPsop,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::SiaColdMinimal,
        Kind::SiaColdSampling,
        Kind::SiaHot,
        Kind::IngestPush,
        Kind::PiaPsop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SiaColdMinimal => "sia_cold_minimal",
            Kind::SiaColdSampling => "sia_cold_sampling",
            Kind::SiaHot => "sia_hot",
            Kind::IngestPush => "ingest_push",
            Kind::PiaPsop => "pia_psop",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Operations sent, checked and discarded before the clock starts —
    /// enough for the daemon's allocator, caches and lazy set-up to
    /// reach the state the window then measures.
    fn warmup_ops(self) -> usize {
        match self {
            Kind::SiaColdMinimal => 32,
            Kind::SiaColdSampling => 6,
            // Fills the cache with the working set, then hits some of it.
            Kind::SiaHot => gen::HOT_SPECS + 16,
            Kind::IngestPush => 16,
            Kind::PiaPsop => 3,
        }
    }

    /// The algorithm of the SIA specs this workload sends.
    pub fn algorithm(self) -> RgAlgorithm {
        match self {
            Kind::SiaColdSampling => gen::sampling(),
            _ => gen::minimal(),
        }
    }
}

/// What an SIA answer must say: the same risk-group count and score as
/// an in-process audit of the same records. One value stands for every
/// candidate of its shape, because they all have the same fault graph
/// up to renaming — and a daemon answer that disagrees with it is a
/// failed op, so the shortcut is itself checked on every op.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expected {
    groups: usize,
    score: f64,
    unexpected: usize,
}

impl Expected {
    fn of(report: &AuditReport) -> Result<Self, String> {
        match report.deployments.as_slice() {
            [d] => Ok(Expected {
                groups: d.ranked_rgs.len(),
                score: d.independence_score,
                unexpected: d.unexpected_rgs,
            }),
            other => Err(format!(
                "{} deployments in a one-candidate report",
                other.len()
            )),
        }
    }

    /// From an in-process audit over `records`.
    fn audit(records: DepDb, spec: &AuditSpec) -> Result<Self, String> {
        let report = AuditingAgent::new(records)
            .audit_sia(spec)
            .map_err(|e| format!("oracle audit: {e}"))?;
        Expected::of(&report)
    }

    fn check(&self, report: &AuditReport) -> Result<(), String> {
        let got = Expected::of(report)?;
        if got == *self {
            Ok(())
        } else {
            Err(format!("answer {got:?}, in-process audit says {self:?}"))
        }
    }
}

/// The in-process answers a workload's ops are held to.
#[derive(Clone, Copy)]
pub struct Oracle {
    /// The workload's spec shape over the dataset as loaded.
    base: Expected,
    /// `ingest_push` only: the same with one more hardware record under
    /// one of the candidate's hosts.
    with_extra_hw: Option<Expected>,
}

impl Oracle {
    pub fn compute(kind: Kind, dataset: &Dataset, seed: u64) -> Result<Self, String> {
        let mut gen = Gen::new(seed);
        let db = || DepDb::from_records(dataset.records.iter().cloned());
        if kind == Kind::IngestPush {
            let specs = gen.subscription_specs();
            let mutation = gen.mutation(&specs);
            let mut extra = db();
            for record in parse_records(&mutation.record).map_err(|e| e.to_string())? {
                extra.insert(record);
            }
            return Ok(Oracle {
                base: Expected::audit(db(), &specs[mutation.sub])?,
                with_extra_hw: Some(Expected::audit(extra, &specs[mutation.sub])?),
            });
        }
        Ok(Oracle {
            base: Expected::audit(db(), &gen.fresh_spec(kind.algorithm()))?,
            with_extra_hw: None,
        })
    }
}

/// One completed operation.
pub struct Outcome {
    pub latency: Duration,
    /// Bytes of the answer frames' payloads.
    pub response_bytes: usize,
    /// The daemon's own account of the op, from its answer's
    /// `elapsed_us`: admission to result (queue wait, engines, cache
    /// insert). What is left of `latency` is the wire's.
    pub daemon_elapsed_us: u64,
    /// Why the answer was wrong, if it was.
    pub wrong: Option<String>,
}

/// A booted daemon's client side: open sessions, warmed up.
pub struct Driver {
    kind: Kind,
    gen: Gen,
    oracle: Oracle,
    /// The request session (`B` of `ingest_push`).
    session: Session,
    /// `ingest_push`: the session holding the subscriptions (`A`).
    watcher: Option<Session>,
    hot: Vec<AuditSpec>,
    subs: Vec<AuditSpec>,
    sub_ids: Vec<u64>,
    ops: u64,
}

impl Driver {
    /// Opens the sessions, answers a `Ping`, and runs the warm-up. All
    /// of it counts as set-up time.
    pub fn start(kind: Kind, addr: &str, seed: u64, oracle: Oracle) -> Result<Self, String> {
        let mut session = Session::connect(addr)?;
        match session.request(Request::Ping, None)? {
            Response::Pong => {}
            other => return Err(format!("Ping answered with {other:?}")),
        }
        let mut driver = Driver {
            kind,
            gen: Gen::new(seed),
            oracle,
            session,
            watcher: None,
            hot: Vec::new(),
            subs: Vec::new(),
            sub_ids: Vec::new(),
            ops: 0,
        };
        match kind {
            Kind::SiaHot => {
                driver.hot = (0..gen::HOT_SPECS)
                    .map(|_| driver.gen.fresh_spec(gen::minimal()))
                    .collect();
            }
            Kind::IngestPush => driver.subscribe(addr)?,
            _ => {}
        }
        let mut off = Tracer::new(false);
        for i in 0..kind.warmup_ops() {
            let outcome = driver.op(&mut off)?;
            // The first pass over the hot set is the fill, not a hit.
            let filling = kind == Kind::SiaHot && i < gen::HOT_SPECS;
            match outcome.wrong {
                Some(why) if !(filling && why == NOT_CACHED) => {
                    return Err(format!("warm-up op {i}: {why}"));
                }
                _ => {}
            }
        }
        Ok(driver)
    }

    fn subscribe(&mut self, addr: &str) -> Result<(), String> {
        let mut watcher = Session::connect(addr)?;
        self.subs = self.gen.subscription_specs();
        for spec in &self.subs {
            let subscribe = Request::Subscribe {
                spec: spec.clone(),
                engine: "sia".into(),
            };
            // The initial event may overtake the `Subscribed` answer.
            let (id, frame) = watcher.encode(subscribe, None);
            watcher.send(&frame)?;
            let (mut subscription, mut initial) = (None, false);
            while subscription.is_none() || !initial {
                let envelope = decode(watcher.receive()?)?;
                match envelope.body {
                    Response::Subscribed { subscription: s } if envelope.id == id => {
                        subscription = Some(s);
                    }
                    Response::AuditEvent { report, .. } => {
                        self.oracle.base.check(&report)?;
                        initial = true;
                    }
                    other => return Err(format!("Subscribe answered with {other:?}")),
                }
            }
            self.sub_ids.extend(subscription);
        }
        self.watcher = Some(watcher);
        Ok(())
    }

    /// Runs one operation. `Err` is a broken transport (the run cannot
    /// go on); a wrong answer is an `Outcome` with `wrong` set.
    pub fn op(&mut self, tracer: &mut Tracer) -> Result<Outcome, String> {
        self.ops += 1;
        let trace = self.gen.trace_header();
        match self.kind {
            Kind::SiaColdMinimal | Kind::SiaColdSampling => {
                let spec = self.gen.fresh_spec(self.kind.algorithm());
                self.audit_sia(tracer, &spec, trace, false)
            }
            Kind::SiaHot => {
                let spec = self.hot[self.ops as usize % self.hot.len()].clone();
                self.audit_sia(tracer, &spec, trace, true)
            }
            Kind::IngestPush => {
                let mutation = self.gen.mutation(&self.subs);
                self.mutate_and_await_push(tracer, mutation, trace)
            }
            Kind::PiaPsop => self.audit_pia(tracer, trace),
        }
    }

    fn audit_sia(
        &mut self,
        tracer: &mut Tracer,
        spec: &AuditSpec,
        trace: String,
        want_cached: bool,
    ) -> Result<Outcome, String> {
        let expected = self.oracle.base;
        let (answer, mut outcome) = self.exchange(tracer, gen::audit_sia(spec), trace)?;
        outcome.wrong = match answer {
            Response::Sia {
                cached,
                elapsed_us,
                report,
                ..
            } => {
                outcome.daemon_elapsed_us = elapsed_us;
                if cached != want_cached {
                    Some(if want_cached { NOT_CACHED } else { CACHED }.to_string())
                } else {
                    expected.check(&report).err()
                }
            }
            other => Some(format!("AuditSia answered with {}", brief(&other))),
        };
        Ok(outcome)
    }

    fn audit_pia(&mut self, tracer: &mut Tracer, trace: String) -> Result<Outcome, String> {
        let op = self.gen.pia();
        let sets: Vec<BTreeSet<&str>> = op
            .providers
            .iter()
            .map(|(_, set)| set.iter().map(String::as_str).collect())
            .collect();
        let expected = jaccard_exact(&sets);
        let (answer, mut outcome) = self.exchange(tracer, gen::audit_pia(&op), trace)?;
        outcome.wrong = match answer {
            Response::Pia {
                elapsed_us,
                rankings,
                ..
            } => {
                outcome.daemon_elapsed_us = elapsed_us;
                match rankings.as_slice() {
                    [r] if (r.jaccard - expected).abs() < 1e-12 => None,
                    [r] => Some(format!(
                        "Jaccard {}, plaintext sets give {expected}",
                        r.jaccard
                    )),
                    other => Some(format!("{} rankings for one 3-way deployment", other.len())),
                }
            }
            other => Some(format!("AuditPia answered with {}", brief(&other))),
        };
        Ok(outcome)
    }

    /// B's send → A holding the one event the mutation owes.
    fn mutate_and_await_push(
        &mut self,
        tracer: &mut Tracer,
        mutation: Mutation,
        trace: String,
    ) -> Result<Outcome, String> {
        let expected = if mutation.retract {
            self.oracle.base
        } else {
            self.oracle.with_extra_hw.expect("computed for ingest_push")
        };
        let owed_to = self.sub_ids[mutation.sub];
        let request = if mutation.retract {
            Request::Retract {
                records: mutation.record,
            }
        } else {
            Request::Ingest {
                records: mutation.record,
            }
        };
        let root = tracer.begin("op", None, self.ops);
        let started = Instant::now();
        let (answer, mut outcome) = self.exchange_under(tracer, root, request, trace)?;
        let watcher = self.watcher.as_mut().expect("opened for ingest_push");
        let (event, bytes) = exchange_frame(watcher, tracer, root, self.ops, None)?;
        if event.id != EVENT_ENVELOPE_ID {
            return Err(format!("answer {} on the subscription session", event.id));
        }
        outcome.latency = started.elapsed();
        tracer.end(root);
        outcome.response_bytes += bytes;
        outcome.wrong = match (answer, event.body) {
            (
                Response::Ingested {
                    changed: 1, epoch, ..
                },
                Response::AuditEvent {
                    subscription,
                    epoch: event_epoch,
                    elapsed_us,
                    report,
                    ..
                },
            ) => {
                outcome.daemon_elapsed_us = elapsed_us;
                if subscription != owed_to {
                    Some(format!(
                        "event for subscription {subscription}, owed to {owed_to}"
                    ))
                } else if event_epoch != epoch {
                    Some(format!(
                        "event at epoch {event_epoch}, mutation made epoch {epoch}"
                    ))
                } else {
                    expected.check(&report).err()
                }
            }
            (answer, event) => Some(format!(
                "mutation answered with {}, push was {}",
                brief(&answer),
                brief(&event)
            )),
        };
        Ok(outcome)
    }

    /// One request/answer exchange on the request session as a whole op.
    fn exchange(
        &mut self,
        tracer: &mut Tracer,
        body: Request,
        trace: String,
    ) -> Result<(Response, Outcome), String> {
        let root = tracer.begin("op", None, self.ops);
        let started = Instant::now();
        let (answer, mut outcome) = self.exchange_under(tracer, root, body, trace)?;
        outcome.latency = started.elapsed();
        tracer.end(root);
        Ok((answer, outcome))
    }

    fn exchange_under(
        &mut self,
        tracer: &mut Tracer,
        root: Option<SpanId>,
        body: Request,
        trace: String,
    ) -> Result<(Response, Outcome), String> {
        let op = self.ops;
        let encode = tracer.begin("client.encode", root, op);
        let (id, frame) = self.session.encode(body, Some(trace));
        tracer.end(encode);
        let (envelope, response_bytes) =
            exchange_frame(&mut self.session, tracer, root, op, Some(&frame))?;
        if envelope.id != id {
            return Err(format!(
                "answer to envelope {} while waiting for {id}",
                envelope.id
            ));
        }
        let outcome = Outcome {
            latency: Duration::ZERO,
            response_bytes,
            daemon_elapsed_us: 0,
            wrong: None,
        };
        Ok((envelope.body, outcome))
    }

    /// After the window: nothing may be left on either session — every
    /// mutation owed exactly one event and each was consumed by its op.
    pub fn check_quiet(&mut self) -> Result<(), String> {
        let wait = Duration::from_millis(50);
        if self.session.frame_pending(wait)? {
            return Err("unrequested frame on the request session".into());
        }
        if let Some(watcher) = &mut self.watcher {
            if watcher.frame_pending(wait)? {
                return Err("the daemon pushed an event no mutation owed".into());
            }
        }
        Ok(())
    }

    /// A `Status` round trip (not an op): the daemon's cache counters.
    pub fn cache_lookups(&mut self) -> Result<(u64, u64), String> {
        match self.session.request(Request::Status, None)? {
            Response::Status {
                cache_hits,
                cache_misses,
                ..
            } => Ok((cache_hits, cache_misses)),
            other => Err(format!("Status answered with {}", brief(&other))),
        }
    }

    /// The `p50` bound of one of the daemon's own histograms, µs.
    pub fn daemon_histo_p50_us(&mut self, name: &str) -> Result<u64, String> {
        match self
            .session
            .request(Request::Metrics { recent: Some(0) }, None)?
        {
            Response::Metrics { histos, .. } => histos
                .iter()
                .find(|h| h.name == name)
                .map(|h| h.p50_us)
                .ok_or_else(|| format!("daemon reports no {name} histogram")),
            other => Err(format!("Metrics answered with {}", brief(&other))),
        }
    }

    /// `n` `Ping` round trips, each in a span: the floor under every op
    /// (frame, loop wake-up, dispatch, write) with no work behind it.
    pub fn pings(&mut self, tracer: &mut Tracer, n: u64) -> Result<(), String> {
        for i in 0..n {
            let span = tracer.begin("service.ping_roundtrip", None, i);
            let answer = self.session.request(Request::Ping, None)?;
            tracer.end(span);
            if !matches!(answer, Response::Pong) {
                return Err(format!("Ping answered with {}", brief(&answer)));
            }
        }
        Ok(())
    }
}

const NOT_CACHED: &str = "answer was computed, expected a cache hit";
const CACHED: &str = "answer came from the cache, expected a fresh audit";

/// Sends `request` (if any), waits for the next frame on `session` and
/// decodes it. The send is inside the wait span: on a busy box the
/// kernel may run the woken daemon before `write` returns, and that
/// time is the daemon's, not the client's.
fn exchange_frame(
    session: &mut Session,
    tracer: &mut Tracer,
    root: Option<SpanId>,
    op: u64,
    request: Option<&[u8]>,
) -> Result<(ResponseEnvelope, usize), String> {
    let wait = tracer.begin("client.wait", root, op);
    if let Some(frame) = request {
        session.send(frame)?;
    }
    let payload = session.receive()?;
    tracer.end(wait);
    let span = tracer.begin("client.decode", root, op);
    let envelope = decode(payload)?;
    tracer.end(span);
    Ok((envelope, payload.len()))
}

/// A response's variant and, for errors, its message — a full report
/// runs to 180 KB and has no place in a failure line.
fn brief(response: &Response) -> String {
    match response {
        Response::Error { message } => format!("Error({message})"),
        other => {
            let debug = format!("{other:?}");
            debug
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or_default()
                .to_string()
        }
    }
}
