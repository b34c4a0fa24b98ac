//! Another crate whose unit test is the only caller of a `pia` item —
//! which does not count.

#[cfg(test)]
mod tests {
    #[test]
    fn doubles() {
        assert_eq!(pia::oracle::other_crate_test_only(2), 4);
    }
}
