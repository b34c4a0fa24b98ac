//! The seeded items. Each of the first four is named somewhere, but
//! never by code a user of the crate runs.

/// Called only by this file's own unit test.
pub fn own_test_only(x: u32) -> u32 {
    x + 1
}

/// Called only by a unit test in another crate (`crates/sia`).
pub fn other_crate_test_only(x: u32) -> u32 {
    x * 2
}

/// Named only by the `pub use` in `lib.rs`; the allow does not rescue it.
// lint:allow(test_only_pub) -- fixture: this rule takes no allow
pub fn reexported_only() -> u32 {
    7
}

/// Mentioned only inside its own impl.
pub struct SelfContained {
    n: u32,
}

impl SelfContained {
    fn bumped(&self) -> SelfContained {
        SelfContained { n: self.n + 1 }
    }
}

/// Called from the fixture's integration tests: silent.
pub fn driven_by_integration_test() -> u32 {
    11
}

/// Called from the fixture's example: silent.
pub fn driven_by_example() -> u32 {
    13
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps() {
        assert_eq!(own_test_only(1), 2);
        assert_eq!(SelfContained { n: 0 }.bumped().n, 1);
    }
}
