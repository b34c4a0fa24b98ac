//! Property-based tests on the observability core: log₂ histogram
//! invariants (bucket placement, merge, quantile bounds), trace-context
//! wire forms, span-tree assembly, and the span ring's recent-audits
//! query.

use indaas::obs::{bucket_index, bucket_upper_bound, Histo, HistoSnapshot, HISTO_BUCKETS};
use proptest::prelude::*;

/// Strategy: values spread across the full log₂ range, not just the low
/// buckets a uniform `any::<u64>()` would oversample.
fn spread_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 1..64usize).prop_map(|raws| {
        raws.into_iter()
            // The value's low bits pick how far to shift it down, so the
            // samples cover every bucket order of magnitude.
            .map(|raw| raw >> (raw % 64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every value lands in exactly the bucket whose half-open range
    /// contains it, and the bucket upper bounds are monotone.
    #[test]
    fn bucket_placement_and_monotonicity(values in spread_values()) {
        for v in values {
            let i = bucket_index(v);
            prop_assert!(i < HISTO_BUCKETS);
            prop_assert!(v <= bucket_upper_bound(i), "value above its bucket bound");
            if i > 0 {
                prop_assert!(
                    v > bucket_upper_bound(i - 1),
                    "value {} also fits the previous bucket {}",
                    v,
                    i - 1
                );
            }
        }
        for i in 1..HISTO_BUCKETS {
            prop_assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
    }

    /// Merging two snapshots is indistinguishable from having recorded
    /// both value streams interleaved into one histogram. Values are
    /// masked below 2^56 so the sum cannot overflow (128 × 2^56 < 2^64)
    /// — `record` is wrapping, `merge` saturating; they only agree while
    /// the sum stays in range, which real microsecond latencies do.
    #[test]
    fn merge_equals_interleaved_record(a in spread_values(), b in spread_values()) {
        let mask = (1u64 << 56) - 1;
        let a: Vec<u64> = a.into_iter().map(|v| v & mask).collect();
        let b: Vec<u64> = b.into_iter().map(|v| v & mask).collect();
        let left = Histo::new();
        let right = Histo::new();
        let combined = Histo::new();
        for &v in &a {
            left.record(v);
            combined.record(v);
        }
        for &v in &b {
            right.record(v);
            combined.record(v);
        }
        let mut merged: HistoSnapshot = left.snapshot();
        merged.merge(&right.snapshot());
        let expected = combined.snapshot();
        prop_assert_eq!(merged.count, expected.count);
        prop_assert_eq!(merged.sum, expected.sum);
        prop_assert_eq!(merged.buckets.to_vec(), expected.buckets.to_vec());
    }

    /// The reported quantile bound is sound: at least a `q` fraction of
    /// recorded values are `<=` it, and it never exceeds twice the true
    /// maximum (the log₂ bucket guarantee `v <= bound < 2v + 1`).
    #[test]
    fn quantile_bounds_are_sound(values in spread_values(), q in 1u32..101) {
        let q = f64::from(q) / 100.0;
        let histo = Histo::new();
        for &v in &values {
            histo.record(v);
        }
        let snap = histo.snapshot();
        let bound = snap.quantile(q);
        let at_or_below = values.iter().filter(|&&v| v <= bound).count();
        let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
        prop_assert!(
            at_or_below >= rank.min(values.len()),
            "quantile({}) = {} covers only {}/{} values",
            q,
            bound,
            at_or_below,
            values.len()
        );
        let max = *values.iter().max().unwrap();
        prop_assert!(bound <= max.saturating_mul(2).saturating_add(1));
    }
}

mod trace_props {
    use indaas::obs::{build_span_tree, SpanNode, SpanRecord, TraceContext};
    use indaas::service::proto::{decode_traced_round_frame, encode_traced_round_frame};
    use proptest::prelude::*;

    /// A valid wire context from raw draws — ids nonzero where the
    /// encoding requires (zero is the "absent" sentinel).
    fn ctx_from(hi: u64, lo: u64, span: u64, parent: u64) -> TraceContext {
        TraceContext {
            trace_id: ((hi as u128) << 64 | lo as u128).max(1),
            span_id: span.max(1),
            parent_span_id: parent,
        }
    }

    /// Flattens a span forest back into records, any order.
    fn flatten(nodes: &[SpanNode], out: &mut Vec<SpanRecord>) {
        for node in nodes {
            out.push(node.span.clone());
            flatten(&node.children, out);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both wire forms of the context — the envelope header string
        /// and the 32-byte frame extension — roundtrip exactly.
        #[test]
        fn context_wire_forms_roundtrip(
            hi in any::<u64>(),
            lo in any::<u64>(),
            span in any::<u64>(),
            parent in any::<u64>(),
        ) {
            let ctx = ctx_from(hi, lo, span, parent);
            let header = ctx.encode_header();
            prop_assert_eq!(TraceContext::parse_header(&header), Some(ctx));
            prop_assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), Some(ctx));
        }

        /// Arbitrary byte soup never panics the header parser, and
        /// anything it does accept re-encodes to a header that parses
        /// to the same context.
        #[test]
        fn garbage_headers_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
            let s = String::from_utf8_lossy(&bytes);
            if let Some(ctx) = TraceContext::parse_header(&s) {
                prop_assert_eq!(TraceContext::parse_header(&ctx.encode_header()), Some(ctx));
            }
        }

        /// Arbitrary bytes never panic the binary round-frame reader,
        /// and a frame roundtrips payload and context — an all-zero
        /// context decoding as absent.
        #[test]
        fn frame_reader_survives_garbage_and_roundtrips(
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            session in any::<u64>(),
            round in 0u32..64,
            from in 0u32..64,
            payload in proptest::collection::vec(any::<u8>(), 0..128),
            traced in any::<bool>(),
            hi in any::<u64>(),
            lo in any::<u64>(),
        ) {
            // Garbage: any outcome but a panic is acceptable.
            let _ = decode_traced_round_frame(&garbage);

            let ctx = if traced {
                ctx_from(hi, lo, hi ^ lo, lo)
            } else {
                TraceContext { trace_id: 0, span_id: 0, parent_span_id: 0 }
            };
            let frame = encode_traced_round_frame(session, round, from, &payload, &ctx);
            let (s, r, f, p, c) = decode_traced_round_frame(&frame).expect("own encoding decodes");
            prop_assert_eq!(s, session);
            prop_assert_eq!(r, round);
            prop_assert_eq!(f, from);
            prop_assert_eq!(p, payload.as_slice());
            prop_assert_eq!(c, traced.then_some(ctx));
        }

        /// Span-tree assembly is insertion-order independent: any
        /// permutation of the records builds the same tree, holding
        /// every record exactly once.
        #[test]
        fn span_tree_is_order_independent(
            // spans[i]'s parent is an earlier span (or the virtual root
            // when the draw lands on i itself).
            parents in proptest::collection::vec(any::<u64>(), 1..24),
            seed in any::<u64>(),
        ) {
            let trace_id = 0xfeedu128;
            let mut spans: Vec<SpanRecord> = Vec::new();
            for (i, pick) in parents.iter().enumerate() {
                let parent = (pick % (i as u64 + 1)) as usize; // in 0..=i
                spans.push(SpanRecord {
                    trace_id,
                    span_id: i as u64 + 1,
                    parent_span_id: if parent == i { 0 } else { parent as u64 + 1 },
                    name: format!("span{i}"),
                    detail: String::new(),
                    node: String::new(),
                    start_us: (i as u64) * 10,
                    elapsed_us: 5,
                    attrs: Vec::new(),
                });
            }
            let baseline = build_span_tree(spans.clone());

            // A cheap deterministic Fisher–Yates shuffle.
            let mut shuffled = spans.clone();
            let mut state = seed | 1;
            for i in (1..shuffled.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            let permuted = build_span_tree(shuffled);
            prop_assert_eq!(&baseline, &permuted);

            let mut flat = Vec::new();
            flatten(&baseline, &mut flat);
            prop_assert_eq!(flat.len(), spans.len());
            let mut ids: Vec<u64> = flat.iter().map(|s| s.span_id).collect();
            ids.sort_unstable();
            let mut expected: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
            expected.sort_unstable();
            prop_assert_eq!(ids, expected);
        }
    }
}

mod ring_props {
    use indaas::obs::{SpanRecord, SpanStore, TraceContext};
    use proptest::prelude::*;

    /// Pushes one span; `elapsed_us` carries the push sequence number
    /// so the test can check ring order on what comes back.
    fn push(store: &SpanStore, seq: &mut u64, trace_id: u128, parent: u64, name: &str) -> u64 {
        *seq += 1;
        let ctx = TraceContext {
            trace_id,
            span_id: *seq,
            parent_span_id: parent,
        };
        store.push(SpanRecord::finished(ctx, name, String::new(), *seq));
        *seq
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `recent_named` over a ring of audits — each an `audit` span
        /// with stage children before it, a late child after it, its
        /// request span, and foreign-trace noise that reuses the
        /// audit's span id as parent: newest first, never more audits
        /// than asked, than stored or than capacity, every returned
        /// child beside its returned parent, every stored child of a
        /// returned audit present, and nothing else — not the noise,
        /// not request spans, not orphans whose audit was evicted.
        #[test]
        fn recent_audits_query_is_bounded_ordered_and_closed(
            capacity in 1usize..24,
            n in 0usize..12,
            // Per audit: stage children, foreign-trace noise spans and
            // whether a child lands after the audit span, drawn from
            // separate bytes of one raw value.
            shapes in proptest::collection::vec(any::<u64>(), 0..12),
        ) {
            let store = SpanStore::new(capacity);
            let mut seq = 0u64;
            // (trace id, audit span id, audit push seq, its children's span ids).
            let mut audits: Vec<(u128, u64, u64, Vec<u64>)> = Vec::new();
            for (i, raw) in shapes.iter().enumerate() {
                let (stages, noise, late_child) =
                    ((raw % 4) as usize, ((raw >> 8) % 3) as usize, (raw >> 16) & 1 == 1);
                let trace_id = i as u128 + 1;
                let request_id = 1_000_000 + i as u64;
                let audit_id = 2_000_000 + i as u64;
                let mut children = Vec::new();
                for k in 0..stages.max(noise) {
                    if k < stages {
                        children.push(push(&store, &mut seq, trace_id, audit_id, "stage"));
                    }
                    if k < noise {
                        push(&store, &mut seq, trace_id + 1_000, audit_id, "noise");
                    }
                }
                seq += 1;
                store.push(SpanRecord::finished(
                    TraceContext { trace_id, span_id: audit_id, parent_span_id: request_id },
                    "audit",
                    String::new(),
                    seq,
                ));
                let audit_seq = seq;
                if late_child {
                    children.push(push(&store, &mut seq, trace_id, audit_id, "stage"));
                }
                seq += 1;
                store.push(SpanRecord::finished(
                    TraceContext { trace_id, span_id: request_id, parent_span_id: 0 },
                    "request",
                    String::new(),
                    seq,
                ));
                audits.push((trace_id, audit_id, audit_seq, children));
            }
            // The ring holds exactly the newest `capacity` pushes.
            let oldest_kept = seq.saturating_sub(capacity as u64) + 1;
            let stored_audits = audits.iter().filter(|a| a.2 >= oldest_kept).count();

            let recent = store.recent_named("audit", n);
            prop_assert!(recent.len() <= capacity);
            prop_assert!(
                recent.windows(2).all(|w| w[0].elapsed_us > w[1].elapsed_us),
                "newest first"
            );
            let returned: Vec<&SpanRecord> = recent.iter().filter(|s| s.name == "audit").collect();
            prop_assert_eq!(returned.len(), n.min(stored_audits));
            for span in &recent {
                prop_assert!(span.elapsed_us >= oldest_kept, "evicted span returned");
                if span.name == "audit" {
                    continue;
                }
                prop_assert_eq!(span.name.as_str(), "stage");
                prop_assert!(
                    returned.iter().any(|a| {
                        a.span_id == span.parent_span_id && a.trace_id == span.trace_id
                    }),
                    "child without its parent"
                );
            }
            for audit in &returned {
                let (_, _, _, children) = audits
                    .iter()
                    .find(|(trace_id, id, ..)| *trace_id == audit.trace_id && *id == audit.span_id)
                    .expect("returned audit was pushed");
                for child in children.iter().filter(|id| **id >= oldest_kept) {
                    prop_assert!(
                        recent.iter().any(|s| s.span_id == *child),
                        "stored child of a returned audit is missing"
                    );
                }
            }
        }
    }
}
