//! Golden-fixture self-tests: every rule demonstrably fires on a
//! seeded violation, and stays silent on the annotated (or
//! discipline-following) equivalent.
//!
//! The fixture trees under `fixtures/` mirror the real workspace
//! layout (`crates/service/src/...`, `crates/faultinj/src/...`) so the
//! default [`LintConfig::workspace`] applies unchanged — the same
//! configuration that gates the real workspace is the one under test.

use indaas_lint::{
    run, Finding, LintConfig, RULE_BLOCKING, RULE_LOCK_ORDER, RULE_PANIC, RULE_REGISTRY,
};

fn lint_fixture(tree: &str) -> Vec<Finding> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree);
    run(&LintConfig::workspace(root)).expect("fixture tree lexes")
}

fn rule_hits<'a>(findings: &'a [Finding], rule: &str, file: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.file.ends_with(file))
        .collect()
}

#[test]
fn blocking_in_loop_fires_on_seeded_violation() {
    let findings = lint_fixture("violations");
    let hits = rule_hits(&findings, RULE_BLOCKING, "crates/service/src/netloop.rs");
    assert!(
        hits.iter().any(|f| f.message.contains("sleep")),
        "sleep reachable from the loop must be flagged: {findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("service::queue")),
        "denied lock class on the loop thread must be flagged: {findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("to_socket_addrs")),
        "a resolver lookup reachable from the loop must be flagged: {findings:?}"
    );
}

#[test]
fn lock_order_fires_on_seeded_violation() {
    let findings = lint_fixture("violations");
    let hits = rule_hits(&findings, RULE_LOCK_ORDER, "crates/service/src/locks.rs");
    assert!(
        hits.iter()
            .any(|f| f.message.contains("while already holding it")),
        "unordered same-class nesting must be flagged: {findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("lock-order cycle")),
        "the alpha/beta cycle must be flagged: {findings:?}"
    );
}

#[test]
fn registry_consistency_fires_on_seeded_violation() {
    let findings = lint_fixture("violations");
    assert!(
        rule_hits(&findings, RULE_REGISTRY, "crates/faultinj/src/points.rs")
            .iter()
            .any(|f| f.message.contains("already declared")),
        "the duplicate declaration must be flagged: {findings:?}"
    );
    let uses = rule_hits(&findings, RULE_REGISTRY, "crates/service/src/server.rs");
    assert!(
        uses.iter().any(|f| f.message.contains("use the const")),
        "a raw spelling of a declared name must be flagged: {findings:?}"
    );
    assert!(
        uses.iter().any(|f| f.message.contains("takes a raw name")),
        "a raw name fed to a sink must be flagged: {findings:?}"
    );
    assert!(
        uses.iter().any(|f| f.message.contains("not declared")),
        "an undeclared fault-point-shaped literal must be flagged: {findings:?}"
    );
}

#[test]
fn panic_path_fires_on_every_seeded_shape() {
    let findings = lint_fixture("violations");
    let hits = rule_hits(&findings, RULE_PANIC, "crates/service/src/panics.rs");
    for shape in ["`unwrap()`", "`expect()`", "`panic!`", "`[index]`"] {
        assert!(
            hits.iter().any(|f| f.message.contains(shape)),
            "{shape} must be flagged: {findings:?}"
        );
    }
}

#[test]
fn annotated_equivalents_lint_clean() {
    let findings = lint_fixture("clean");
    assert!(
        findings.is_empty(),
        "the clean tree must produce zero findings, got: {findings:?}"
    );
}
