//! The fault-point registry: every named injection point in the
//! workspace, declared exactly once.
//!
//! Arming code (`--fault <point>=<policy>`), firing sites
//! (`point(..)` calls) and help text all reference
//! these consts; `indaas-lint`'s registry-consistency rule flags any
//! other non-test code that spells a point name out, so a point cannot
//! drift between the chaos harness and the code it is supposed to
//! break.

/// Service binary/line frame reads off the readiness loop.
pub const SVC_FRAME_READ: &str = "svc.frame.read";
/// Service frame writes (write-queue drain onto the socket).
pub const SVC_FRAME_WRITE: &str = "svc.frame.write";
/// Federation successor dial.
pub const FED_DIAL: &str = "fed.dial";
/// Federation ring frame send.
pub const FED_FRAME_SEND: &str = "fed.frame.send";
/// Scheduler job dispatch (queue → worker handoff).
pub const SCHED_DISPATCH: &str = "sched.dispatch";
/// Dirty-shard segment save.
pub const DB_SAVE: &str = "db.save";
/// Segment load at boot.
pub const DB_LOAD: &str = "db.load";

/// Every point with a one-line description — the `--fault` help text
/// and docs render from this, so the advertised list can never drift
/// from the declared one.
pub const ALL: &[(&str, &str)] = &[
    (
        SVC_FRAME_READ,
        "service frame/line reads off the readiness loop",
    ),
    (
        SVC_FRAME_WRITE,
        "service write-queue drains onto the socket",
    ),
    (FED_DIAL, "federation successor dials"),
    (FED_FRAME_SEND, "federation ring frame sends"),
    (SCHED_DISPATCH, "scheduler queue->worker job handoff"),
    (DB_SAVE, "dirty-shard segment saves"),
    (DB_LOAD, "segment loads at boot"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_point_once() {
        let mut names: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate point in ALL");
        for n in [
            SVC_FRAME_READ,
            SVC_FRAME_WRITE,
            FED_DIAL,
            FED_FRAME_SEND,
            SCHED_DISPATCH,
            DB_SAVE,
            DB_LOAD,
        ] {
            assert!(names.contains(&n), "{n} missing from ALL");
        }
    }
}
