//! Tier-1 gate: the workspace must lint clean.
//!
//! `indaas-lint` enforces five structural invariants — no blocking
//! calls reachable from the readiness loop, disciplined lock nesting,
//! every fault point and metric name declared once in its registry, no
//! unannotated panic paths in daemon code, and no library `pub` item
//! that only unit tests reach. A finding here is a real regression (or,
//! for the first four, a missing reasoned `// lint:allow(..)`
//! annotation), so the whole suite fails on one.

use indaas_lint::{run, LintConfig};

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = run(&LintConfig::workspace(root)).expect("lint walks the workspace");
    assert!(
        findings.is_empty(),
        "indaas-lint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
