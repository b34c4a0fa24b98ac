//! Deterministic fault injection for chaos-hardening the INDaaS stack.
//!
//! The daemon's failure-handling paths — federation retry/backoff,
//! degraded coordinator outcomes, client reconnects, segment quarantine
//! — are only trustworthy if they can be *driven*, repeatably, in tests
//! and in CI rings. This crate provides named failure points that the
//! hot paths consult:
//!
//! ```
//! match indaas_faultinj::point(indaas_faultinj::points::FED_FRAME_SEND) {
//!     indaas_faultinj::FaultAction::Pass => { /* do the real work */ }
//!     indaas_faultinj::FaultAction::Error => { /* return an injected error */ }
//!     indaas_faultinj::FaultAction::Drop => { /* silently skip the operation */ }
//!     indaas_faultinj::FaultAction::Disconnect => { /* tear the connection down */ }
//! }
//! ```
//!
//! Points are armed from `indaas serve --fault <point>=<policy>[:prob][:seed]`
//! (see [`FaultSpec`]'s `FromStr`). Policies: `error`, `delay(MS)`,
//! `drop`, `disconnect`, `crash`. Probability rolls use a per-point
//! seeded splitmix64 stream, so a given `(prob, seed)` pair fires on
//! exactly the same evaluations every run. `delay` sleeps inline and
//! then passes; `crash` aborts the process (simulating a kill -9, so
//! crash-safety paths like temp-file+rename get exercised for real).
//!
//! **Zero cost when off**: with nothing armed, [`point`] is a single
//! relaxed atomic load — no lock, no string hash. The registry is
//! process-global on purpose: the deepest call sites (`persist.rs`, the
//! scheduler's admission, a federation party's successor link) have no
//! configuration plumbing, and a chaos run arms the whole process
//! anyway.

#![forbid(unsafe_code)]

pub mod points;

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Seed used when a spec does not name one. Matches the project-wide
/// deterministic default used by the sampling auditors.
pub const DEFAULT_SEED: u64 = 2014;

/// What an armed point does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPolicy {
    /// The operation fails with an injected error.
    Error,
    /// The operation is delayed by this many milliseconds, then runs.
    Delay(u64),
    /// The operation is silently skipped but reported as successful.
    Drop,
    /// The connection carrying the operation is torn down.
    Disconnect,
    /// The whole process aborts, as if killed.
    Crash,
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPolicy::Error => write!(f, "error"),
            FaultPolicy::Delay(ms) => write!(f, "delay({ms})"),
            FaultPolicy::Drop => write!(f, "drop"),
            FaultPolicy::Disconnect => write!(f, "disconnect"),
            FaultPolicy::Crash => write!(f, "crash"),
        }
    }
}

impl FromStr for FaultPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "error" => Ok(FaultPolicy::Error),
            "drop" => Ok(FaultPolicy::Drop),
            "disconnect" => Ok(FaultPolicy::Disconnect),
            "crash" => Ok(FaultPolicy::Crash),
            other => {
                let ms = other
                    .strip_prefix("delay(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .ok_or_else(|| {
                        format!(
                            "unknown fault policy {other:?} \
                             (want error|delay(MS)|drop|disconnect|crash)"
                        )
                    })?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|e| format!("bad delay milliseconds {ms:?}: {e}"))?;
                Ok(FaultPolicy::Delay(ms))
            }
        }
    }
}

/// One armed failure point: `<point>=<policy>[:prob][:seed]`.
///
/// `prob` defaults to 1.0 (fire on every evaluation); `seed` seeds the
/// per-point splitmix64 stream and defaults to [`DEFAULT_SEED`]. Parsing
/// normalizes: at `prob` 1.0 the stream is never consulted, so the seed
/// is forced back to the default (keeps `Display` round-trips exact).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub point: String,
    pub policy: FaultPolicy,
    pub prob: f64,
    pub seed: u64,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.point, self.policy)?;
        if self.prob < 1.0 {
            write!(f, ":{}:{}", self.prob, self.seed)?;
        }
        Ok(())
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let (point, rest) = s
            .split_once('=')
            .ok_or_else(|| format!("fault spec {s:?} wants <point>=<policy>[:prob][:seed]"))?;
        if point.is_empty() {
            return Err(format!("fault spec {s:?} has an empty point name"));
        }
        if point.contains([':', '=', ' ']) {
            return Err(format!(
                "fault point {point:?} may not contain ':', '=' or spaces"
            ));
        }
        let mut parts = rest.splitn(3, ':');
        let policy: FaultPolicy = parts.next().unwrap_or("").parse()?;
        let prob = match parts.next() {
            None => 1.0,
            Some(p) => {
                let prob: f64 = p
                    .parse()
                    .map_err(|e| format!("bad fault probability {p:?}: {e}"))?;
                if !(prob > 0.0 && prob <= 1.0) {
                    return Err(format!("fault probability {prob} must be in (0, 1]"));
                }
                prob
            }
        };
        let seed = match parts.next() {
            None => DEFAULT_SEED,
            Some(sd) => sd
                .parse()
                .map_err(|e| format!("bad fault seed {sd:?}: {e}"))?,
        };
        // At prob 1.0 the RNG is never consulted; normalize the seed so
        // parse→display→parse is exact.
        let seed = if prob >= 1.0 { DEFAULT_SEED } else { seed };
        Ok(FaultSpec {
            point: point.to_string(),
            policy,
            prob,
            seed,
        })
    }
}

/// What a call site must do after consulting [`point`]. `Delay` has
/// already slept and `Crash` never returns, so only the four actions a
/// call site can meaningfully handle remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an injected fault action must be acted on"]
pub enum FaultAction {
    /// Nothing armed (or the probability roll passed): do the real work.
    Pass,
    /// Fail the operation with an injected error.
    Error,
    /// Skip the operation silently, reporting success.
    Drop,
    /// Tear down the connection carrying the operation.
    Disconnect,
}

struct PointState {
    policy: FaultPolicy,
    prob: f64,
    rng: u64,
    triggers: u64,
}

/// Count of armed points; the [`point`] fast path loads only this.
static ARMED: AtomicUsize = AtomicUsize::new(0);

type Observer = Arc<dyn Fn(&str) + Send + Sync>;

struct Registry {
    points: Mutex<HashMap<String, PointState>>,
    observer: Mutex<Option<Observer>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        points: Mutex::new(HashMap::new()),
        observer: Mutex::new(None),
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arms one failure point from its textual spec. Re-arming a point
/// replaces its policy and resets its RNG stream and trigger count.
pub fn arm(spec: &str) -> Result<(), String> {
    arm_spec(spec.parse()?);
    Ok(())
}

/// Arms one failure point from a parsed [`FaultSpec`].
pub fn arm_spec(spec: FaultSpec) {
    let mut points = registry().points.lock().unwrap();
    let state = PointState {
        policy: spec.policy,
        prob: spec.prob,
        rng: spec.seed,
        triggers: 0,
    };
    if points.insert(spec.point, state).is_none() {
        ARMED.fetch_add(1, Ordering::Release);
    }
}

/// Disarms one point. Returns whether it was armed.
pub fn disarm(point: &str) -> bool {
    let mut points = registry().points.lock().unwrap();
    let removed = points.remove(point).is_some();
    if removed {
        ARMED.fetch_sub(1, Ordering::Release);
    }
    removed
}

/// Disarms every point (used between chaos tests).
pub fn disarm_all() {
    let mut points = registry().points.lock().unwrap();
    let n = points.len();
    points.clear();
    ARMED.fetch_sub(n, Ordering::Release);
}

/// Names of the currently armed points, sorted.
pub fn armed() -> Vec<String> {
    let points = registry().points.lock().unwrap();
    let mut names: Vec<String> = points.keys().cloned().collect();
    names.sort();
    names
}

/// How many times `point` has fired since it was (re-)armed. Zero for
/// unarmed points. Chaos tests assert on this to prove the fault was
/// actually exercised.
pub fn triggered(point: &str) -> u64 {
    let points = registry().points.lock().unwrap();
    points.get(point).map_or(0, |s| s.triggers)
}

/// Installs a hook called with the point name each time any fault
/// fires. The daemon uses this to bump its `faults_injected_total`
/// counter without this crate depending on the metrics registry.
pub fn set_observer(observer: impl Fn(&str) + Send + Sync + 'static) {
    *registry().observer.lock().unwrap() = Some(Arc::new(observer));
}

/// Removes the observer hook.
pub fn clear_observer() {
    *registry().observer.lock().unwrap() = None;
}

/// Consults the failure point `name`.
///
/// With nothing armed anywhere this is one relaxed atomic load. When
/// the point is armed and its probability roll fires: `delay` sleeps
/// here and returns [`FaultAction::Pass`]; `crash` aborts the process;
/// the other policies return the action the call site must take.
pub fn point(name: &str) -> FaultAction {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return FaultAction::Pass;
    }
    point_slow(name)
}

#[cold]
fn point_slow(name: &str) -> FaultAction {
    let reg = registry();
    let policy = {
        let mut points = reg.points.lock().unwrap();
        let Some(state) = points.get_mut(name) else {
            return FaultAction::Pass;
        };
        if state.prob < 1.0 {
            let roll = (splitmix64(&mut state.rng) >> 11) as f64 / (1u64 << 53) as f64;
            if roll >= state.prob {
                return FaultAction::Pass;
            }
        }
        state.triggers += 1;
        state.policy.clone()
    };
    let observer = reg.observer.lock().unwrap().clone();
    if let Some(observer) = observer {
        observer(name);
    }
    match policy {
        FaultPolicy::Error => FaultAction::Error,
        FaultPolicy::Drop => FaultAction::Drop,
        FaultPolicy::Disconnect => FaultAction::Disconnect,
        FaultPolicy::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms)); // lint:allow(blocking_in_loop) -- fault injection deliberately stalls the loop when a Delay policy is armed
            FaultAction::Pass
        }
        FaultPolicy::Crash => std::process::abort(),
    }
}

/// Convenience for I/O call sites: maps the point's action onto an
/// `io::Result`, with `Drop` reported separately so the caller can skip
/// the real operation while still reporting success.
pub fn io_point(name: &str) -> Result<bool, std::io::Error> {
    match point(name) {
        FaultAction::Pass => Ok(false),
        FaultAction::Drop => Ok(true),
        FaultAction::Error => Err(std::io::Error::other(format!("injected fault at {name}"))),
        FaultAction::Disconnect => Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            format!("injected disconnect at {name}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests that arm points must not
    // interleave; they serialize on this lock (poisoning tolerated so
    // one failed test does not cascade).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn spec_parsing_round_trips() {
        for text in [
            "fed.frame.send=error",
            "svc.frame.read=delay(250)",
            "db.save=drop",
            "fed.dial=disconnect",
            "sched.dispatch=crash",
            "fed.frame.send=error:0.5:42",
            "fed.frame.send=drop:0.25:2014",
        ] {
            let spec: FaultSpec = text.parse().unwrap();
            let reparsed: FaultSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, reparsed, "{text}");
        }
        // prob 1.0 normalizes the seed away entirely.
        let spec: FaultSpec = "p=error:1:999".parse().unwrap();
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.to_string(), "p=error");
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        for bad in [
            "",
            "noequals",
            "=error",
            "p=",
            "p=explode",
            "p=delay",
            "p=delay(",
            "p=delay(abc)",
            "p=error:0",
            "p=error:-0.5",
            "p=error:1.5",
            "p=error:nan",
            "p=error:0.5:notanumber",
            "a b=error",
        ] {
            assert!(
                bad.parse::<FaultSpec>().is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn unarmed_points_pass() {
        let _guard = serial();
        disarm_all();
        assert_eq!(point("nothing.armed"), FaultAction::Pass);
        assert_eq!(triggered("nothing.armed"), 0);
    }

    #[test]
    fn armed_points_fire_and_count() {
        let _guard = serial();
        disarm_all();
        arm("t.err=error").unwrap();
        arm("t.drop=drop").unwrap();
        arm("t.disc=disconnect").unwrap();
        assert_eq!(point("t.err"), FaultAction::Error);
        assert_eq!(point("t.err"), FaultAction::Error);
        assert_eq!(point("t.drop"), FaultAction::Drop);
        assert_eq!(point("t.disc"), FaultAction::Disconnect);
        assert_eq!(point("t.other"), FaultAction::Pass);
        assert_eq!(triggered("t.err"), 2);
        assert_eq!(triggered("t.drop"), 1);
        assert_eq!(armed(), vec!["t.disc", "t.drop", "t.err"]);
        assert!(disarm("t.err"));
        assert!(!disarm("t.err"));
        assert_eq!(point("t.err"), FaultAction::Pass);
        disarm_all();
        assert_eq!(point("t.drop"), FaultAction::Pass);
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let _guard = serial();
        disarm_all();
        let run = || {
            arm("t.prob=error:0.5:7").unwrap();
            let fired: Vec<bool> = (0..64)
                .map(|_| point("t.prob") == FaultAction::Error)
                .collect();
            disarm_all();
            fired
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "same seed, same firing pattern");
        let fired = first.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fired),
            "prob 0.5 over 64 rolls fired {fired} times"
        );
        // A different seed gives a different pattern.
        arm("t.prob=error:0.5:8").unwrap();
        let third: Vec<bool> = (0..64)
            .map(|_| point("t.prob") == FaultAction::Error)
            .collect();
        disarm_all();
        assert_ne!(first, third, "different seed, different pattern");
    }

    #[test]
    fn delay_sleeps_then_passes() {
        let _guard = serial();
        disarm_all();
        arm("t.delay=delay(30)").unwrap();
        let start = std::time::Instant::now();
        assert_eq!(point("t.delay"), FaultAction::Pass);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(triggered("t.delay"), 1);
        disarm_all();
    }

    #[test]
    fn observer_sees_every_firing() {
        let _guard = serial();
        disarm_all();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        set_observer(move |name| sink.lock().unwrap().push(name.to_string()));
        arm("t.obs=drop").unwrap();
        let _ = point("t.obs");
        let _ = point("t.obs");
        let _ = point("t.unarmed");
        clear_observer();
        let _ = point("t.obs");
        disarm_all();
        assert_eq!(*seen.lock().unwrap(), vec!["t.obs", "t.obs"]);
    }

    #[test]
    fn io_point_maps_actions() {
        let _guard = serial();
        disarm_all();
        assert!(!io_point("t.io").unwrap(), "unarmed = do the real work");
        arm("t.io=drop").unwrap();
        assert!(io_point("t.io").unwrap(), "drop = skip silently");
        arm("t.io=error").unwrap();
        assert!(io_point("t.io").is_err());
        arm("t.io=disconnect").unwrap();
        let err = io_point("t.io").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        disarm_all();
    }
}
