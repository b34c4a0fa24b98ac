//! An integration test drives the public API by design, so its caller
//! counts.

#[test]
fn integration_caller() {
    assert_eq!(pia::oracle::driven_by_integration_test(), 11);
}
