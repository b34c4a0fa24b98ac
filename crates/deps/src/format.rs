//! Parser and serializer for the XML-ish wire format of Table 1.
//!
//! Records look like `<src="S1" dst="Internet" route="ToR1,Core1"/>`. This
//! is not real XML (bare `key="value"` pairs, no element name), so we
//! implement the small grammar directly:
//!
//! ```text
//! record  := '<' attr (ws attr)* '/'? '>'
//! attr    := key '=' '"' value '"'
//! ```
//!
//! The leading attribute key dispatches the record kind: `src` → network,
//! `hw` → hardware, `pgm` → software.

use crate::record::{DependencyRecord, HardwareDep, NetworkDep, SoftwareDep};

/// Errors from parsing the Table-1 wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// Input was not shaped like `<.../>`.
    Malformed(String),
    /// A required attribute is missing.
    MissingAttr(&'static str, String),
    /// The leading attribute does not identify a known record kind.
    UnknownKind(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Malformed(s) => write!(f, "malformed record: {s}"),
            FormatError::MissingAttr(a, s) => write!(f, "missing attribute {a:?} in {s}"),
            FormatError::UnknownKind(s) => write!(f, "unknown record kind: {s}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Parses one record line.
///
/// # Errors
///
/// Returns a [`FormatError`] describing the first problem found.
pub fn parse_record(line: &str) -> Result<DependencyRecord, FormatError> {
    let attrs = parse_attrs(line)?;
    let get = |key: &'static str| -> Result<&str, FormatError> {
        attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| FormatError::MissingAttr(key, line.trim().to_string()))
    };
    match attrs.first().map(|(k, _)| k.as_str()) {
        Some("src") => Ok(DependencyRecord::Network(NetworkDep {
            src: get("src")?.to_string(),
            dst: get("dst")?.to_string(),
            route: split_list(get("route")?),
        })),
        Some("hw") => Ok(DependencyRecord::Hardware(HardwareDep {
            hw: get("hw")?.to_string(),
            hw_type: get("type")?.to_string(),
            dep: get("dep")?.to_string(),
        })),
        Some("pgm") => Ok(DependencyRecord::Software(SoftwareDep {
            pgm: get("pgm")?.to_string(),
            hw: get("hw")?.to_string(),
            deps: split_list(get("dep")?),
        })),
        Some(other) => Err(FormatError::UnknownKind(other.to_string())),
        None => Err(FormatError::Malformed(line.trim().to_string())),
    }
}

/// Parses a whole document: one record per non-empty line; `#` comments and
/// `---` separators (as in the paper's Figure 3) are skipped.
///
/// # Errors
///
/// Fails on the first malformed record, reporting its content.
pub fn parse_records(text: &str) -> Result<Vec<DependencyRecord>, FormatError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('-'))
        .map(parse_record)
        .collect()
}

/// Serializes a record back to its Table-1 line form.
pub fn serialize_record(rec: &DependencyRecord) -> String {
    serialize_record_ref(match rec {
        DependencyRecord::Network(n) => crate::depdb::DepRecordRef::Network(n),
        DependencyRecord::Hardware(h) => crate::depdb::DepRecordRef::Hardware(h),
        DependencyRecord::Software(s) => crate::depdb::DepRecordRef::Software(s),
    })
}

/// [`serialize_record`] over a borrowed record view — lets full-database
/// passes (segment saves) stream straight from
/// [`crate::DepDb::records_iter`] without cloning every record first.
pub fn serialize_record_ref(rec: crate::depdb::DepRecordRef<'_>) -> String {
    use crate::depdb::DepRecordRef;
    match rec {
        DepRecordRef::Network(n) => format!(
            "<src=\"{}\" dst=\"{}\" route=\"{}\"/>",
            n.src,
            n.dst,
            n.route.join(",")
        ),
        DepRecordRef::Hardware(h) => {
            format!(
                "<hw=\"{}\" type=\"{}\" dep=\"{}\"/>",
                h.hw, h.hw_type, h.dep
            )
        }
        DepRecordRef::Software(s) => format!(
            "<pgm=\"{}\" hw=\"{}\" dep=\"{}\"/>",
            s.pgm,
            s.hw,
            s.deps.join(",")
        ),
    }
}

/// Serializes many records, one per line.
pub fn serialize_records(recs: &[DependencyRecord]) -> String {
    recs.iter()
        .map(serialize_record)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Splits a comma-separated value list, dropping empty items.
fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Tokenizes `<k1="v1" k2="v2"/>` into ordered attribute pairs.
fn parse_attrs(line: &str) -> Result<Vec<(String, String)>, FormatError> {
    let s = line.trim();
    let malformed = || FormatError::Malformed(s.to_string());
    let inner = s
        .strip_prefix('<')
        .and_then(|t| t.strip_suffix('>'))
        .ok_or_else(malformed)?;
    let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
    let mut attrs = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(malformed)?;
        let key = rest[..eq].trim();
        if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return Err(malformed());
        }
        let after = &rest[eq + 1..];
        let after = after.strip_prefix('"').ok_or_else(malformed)?;
        let close = after.find('"').ok_or_else(malformed)?;
        attrs.push((key.to_string(), after[..close].to_string()));
        rest = after[close + 1..].trim_start();
    }
    if attrs.is_empty() {
        return Err(malformed());
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_network_record() {
        let r = parse_record(r#"<src="S1" dst="Internet" route="ToR1,Core1"/>"#).unwrap();
        match r {
            DependencyRecord::Network(n) => {
                assert_eq!(n.src, "S1");
                assert_eq!(n.dst, "Internet");
                assert_eq!(n.route, vec!["ToR1", "Core1"]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_hardware_record() {
        let r = parse_record(r#"<hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>"#).unwrap();
        match r {
            DependencyRecord::Hardware(h) => {
                assert_eq!(h.hw, "S1");
                assert_eq!(h.hw_type, "CPU");
                assert_eq!(h.dep, "S1-Intel(R)X5550@2.6GHz");
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_software_record_without_self_closing_slash() {
        // Figure 3 of the paper writes software records as <...> without /.
        let r = parse_record(r#"<pgm="Riak1" hw="S1" dep="libc6,libsvn1">"#).unwrap();
        match r {
            DependencyRecord::Software(s) => {
                assert_eq!(s.pgm, "Riak1");
                assert_eq!(s.hw, "S1");
                assert_eq!(s.deps, vec!["libc6", "libsvn1"]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parses_figure3_document() {
        let doc = r#"
            # Network dependencies of S1 and S2:
            <src="S1" dst="Internet" route="ToR1,Core1"/>
            <src="S1" dst="Internet" route="ToR1,Core2"/>
            <src="S2" dst="Internet" route="ToR1,Core1"/>
            <src="S2" dst="Internet" route="ToR1,Core2"/>
            ------------------------------------
            <hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>
            <hw="S1" type="Disk" dep="S1-SED900"/>
            <hw="S2" type="CPU" dep="S2-Intel(R)X5550@2.6GHz"/>
            <hw="S2" type="Disk" dep="S2-SED900"/>
            ------------------------------------
            <pgm="QueryEngine1" hw="S1" dep="libc6,libgccl">
            <pgm="Riak1" hw="S1" dep="libc6,libsvn1">
            <pgm="QueryEngine2" hw="S2" dep="libc6,libgccl">
            <pgm="Riak2" hw="S2" dep="libc6,libsvn1">
        "#;
        let records = parse_records(doc).unwrap();
        assert_eq!(records.len(), 12);
        assert_eq!(records.iter().filter(|r| r.kind() == "network").count(), 4);
        assert_eq!(records.iter().filter(|r| r.kind() == "hardware").count(), 4);
        assert_eq!(records.iter().filter(|r| r.kind() == "software").count(), 4);
    }

    #[test]
    fn roundtrip_through_serializer() {
        let doc = concat!(
            "<src=\"S1\" dst=\"Internet\" route=\"ToR1,Core1\"/>\n",
            "<hw=\"S1\" type=\"Disk\" dep=\"S1-SED900\"/>\n",
            "<pgm=\"Riak1\" hw=\"S1\" dep=\"libc6,libsvn1\"/>"
        );
        let records = parse_records(doc).unwrap();
        let text = serialize_records(&records);
        assert_eq!(parse_records(&text).unwrap(), records);
    }

    #[test]
    fn missing_attr_reported() {
        let err = parse_record(r#"<src="S1" route="x"/>"#).unwrap_err();
        assert!(matches!(err, FormatError::MissingAttr("dst", _)));
    }

    #[test]
    fn unknown_kind_reported() {
        let err = parse_record(r#"<foo="bar"/>"#).unwrap_err();
        assert_eq!(err, FormatError::UnknownKind("foo".into()));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "src=\"S1\"",
            "<src=S1/>",
            "<src=\"S1/>",
            "<=\"x\"/>",
            "<>",
        ] {
            assert!(parse_record(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_route_items_dropped() {
        let r = parse_record(r#"<src="S1" dst="D" route="a,,b,"/>"#).unwrap();
        match r {
            DependencyRecord::Network(n) => assert_eq!(n.route, vec!["a", "b"]),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
