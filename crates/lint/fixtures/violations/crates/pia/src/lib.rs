//! Seeded test_only_pub violations: four ways a `pub` item can look used
//! while only tests reach it, and two callers that do count.

pub mod oracle;

pub use oracle::reexported_only;
