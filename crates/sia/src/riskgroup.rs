//! Risk groups and subsumption-minimized families of risk groups.
//!
//! A risk group (RG) is a set of basic failure events whose simultaneous
//! occurrence fails the top event (§4.1.2). A *minimal* RG stays an RG
//! under no proper subset. [`RiskGroup`] is the value at the boundary: the
//! sorted ids handed in and out. [`RgFamily`] is the antichain the engines
//! build: inserting a superset of a held group is a no-op, inserting a
//! subset evicts the supersets.
//!
//! A family stores each group as one fixed-stride row of `u64` words in a
//! single flat buffer. Bit `d` of a row stands for the `d`-th basic event
//! of the family's event index — a dense numbering of the basic events,
//! not of the graph's nodes, so the benchmark's 259 basics of 1,364 nodes
//! take 5 words a row. Subset, union and equality are word AND/OR/compare.
//! Once a family outgrows a linear scan it keeps one posting list per
//! event (the rows that contain it): a subset of a candidate is on the
//! list of one of the candidate's members and is not larger than it, a
//! superset is on the list of every member — so the shortest one is
//! searched — and is larger. Row order is a function of the insert
//! sequence alone.

use std::sync::Arc;

use indaas_graph::{FaultGraph, NodeId};

/// One risk group: a sorted, deduplicated set of basic-event node ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RiskGroup {
    ids: Box<[NodeId]>,
}

impl RiskGroup {
    /// Builds a risk group from event ids (sorted and deduplicated).
    pub fn new(mut ids: Vec<NodeId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        RiskGroup {
            ids: ids.into_boxed_slice(),
        }
    }

    /// The member event ids, sorted ascending.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of member events.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for the (degenerate) empty group.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True if `self ⊆ other` (sorted-merge subset test). No family code
    /// calls this: it is the reference the differential tests hold the
    /// rows' word arithmetic to.
    pub fn is_subset_of(&self, other: &RiskGroup) -> bool {
        if self.ids.len() > other.ids.len() {
            return false;
        }
        let mut oi = 0;
        'outer: for &x in self.ids.iter() {
            while oi < other.ids.len() {
                match other.ids[oi].cmp(&x) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Union of two risk groups (sorted merge).
    pub fn union(&self, other: &RiskGroup) -> RiskGroup {
        let mut out = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        RiskGroup {
            ids: out.into_boxed_slice(),
        }
    }

    /// Resolves member ids to component names.
    pub fn names(&self, graph: &FaultGraph) -> Vec<String> {
        self.ids
            .iter()
            .map(|&id| graph.node(id).name.clone())
            .collect()
    }
}

/// A family builds its posting lists when it first holds more rows than
/// this; below it, scanning every row costs less than maintaining them.
const INDEX_ABOVE_ROWS: usize = 16;

/// The dense numbering of basic events that a family's rows range over.
/// Ids are table indices, so the tables are as long as the largest id seen.
#[derive(Clone, Debug, Default)]
struct EventIndex {
    /// Node id → bit position, `UNSEEN` for ids no row has named.
    bit_of: Vec<u32>,
    /// Bit position → node id.
    node_of: Vec<NodeId>,
}

const UNSEEN: u32 = u32::MAX;

impl EventIndex {
    fn bit(&self, id: NodeId) -> Option<usize> {
        match self.bit_of.get(id as usize) {
            Some(&bit) if bit != UNSEEN => Some(bit as usize),
            _ => None,
        }
    }

    fn add(&mut self, id: NodeId) {
        if self.bit_of.len() <= id as usize {
            self.bit_of.resize(id as usize + 1, UNSEEN);
        }
        self.bit_of[id as usize] = self.node_of.len() as u32;
        self.node_of.push(id);
    }
}

/// One group of a family: its row of words and its member count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Row<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) len: u32,
}

/// Writes `a ∪ b` into `out` and returns its member count.
pub(crate) fn union_into(a: Row<'_>, b: Row<'_>, out: &mut [u64]) -> u32 {
    let mut len = 0;
    for ((o, &x), &y) in out.iter_mut().zip(a.words).zip(b.words) {
        *o = x | y;
        len += o.count_ones();
    }
    len
}

fn is_subset(small: &[u64], big: &[u64]) -> bool {
    small.iter().zip(big).all(|(&s, &b)| s & !b == 0)
}

/// The bit positions set in a row, ascending.
fn members(words: &[u64]) -> Members<'_> {
    Members {
        words,
        at: 0,
        rest: words.first().copied().unwrap_or(0),
    }
}

struct Members<'a> {
    words: &'a [u64],
    /// The word being read, and its bits not yet reported.
    at: usize,
    rest: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.at += 1;
            self.rest = *self.words.get(self.at)?;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some(self.at * 64 + bit)
    }
}

/// The rows that have one bit set.
#[derive(Clone, Debug)]
struct Posting {
    rows: Vec<u32>,
    /// No listed row has fewer members. A bound, not the minimum: an
    /// eviction leaves it where it is.
    min_len: u32,
}

impl Default for Posting {
    fn default() -> Self {
        Posting {
            rows: Vec::new(),
            min_len: u32::MAX,
        }
    }
}

/// A subsumption-minimized family of risk groups (see the module header
/// for the row layout).
#[derive(Clone, Debug, Default)]
pub struct RgFamily {
    events: Arc<EventIndex>,
    /// Words per row.
    stride: usize,
    /// Row `r` is `words[r * stride..][..stride]`.
    words: Vec<u64>,
    /// Member count of each row.
    lens: Vec<u32>,
    /// One list per bit position; empty (no lists at all) until the
    /// family outgrows `INDEX_ABOVE_ROWS`.
    postings: Vec<Posting>,
    /// Reused by `insert_ids` (the encoded candidate) and by eviction.
    scratch_row: Vec<u64>,
    scratch_evicted: Vec<usize>,
}

impl RgFamily {
    /// An empty family that numbers events as it first sees them.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty family over `graph`'s basic events. Clones of it share one
    /// event index, which is what lets the engines combine their rows word
    /// by word.
    pub fn for_graph(graph: &FaultGraph) -> Self {
        let mut events = EventIndex::default();
        for id in graph.basic_ids() {
            events.add(id);
        }
        RgFamily {
            stride: events.node_of.len().div_ceil(64),
            events: Arc::new(events),
            ..Self::default()
        }
    }

    /// Builds a family from raw groups, minimizing as it goes.
    pub fn from_groups(groups: impl IntoIterator<Item = RiskGroup>) -> Self {
        let mut fam = Self::new();
        for g in groups {
            fam.insert(g);
        }
        fam
    }

    /// The minimized groups, in row order.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = RiskGroup> + '_ {
        (0..self.len()).map(|r| {
            let row = self.row(r);
            let mut ids = Vec::with_capacity(row.len as usize);
            ids.extend(members(row.words).map(|bit| self.events.node_of[bit]));
            RiskGroup::new(ids)
        })
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True if no groups are present.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Inserts `g`, keeping the family minimal. Returns true if `g` was
    /// retained (i.e., no existing group subsumes it).
    pub fn insert(&mut self, g: RiskGroup) -> bool {
        self.insert_ids(g.ids())
    }

    /// [`RgFamily::insert`] of the group with these members, in any order.
    pub fn insert_ids(&mut self, ids: &[NodeId]) -> bool {
        for &id in ids {
            if self.events.bit(id).is_none() {
                Arc::make_mut(&mut self.events).add(id);
            }
        }
        self.widen(self.events.node_of.len().div_ceil(64));
        let mut words = std::mem::take(&mut self.scratch_row);
        let len = self.encode(ids, &mut words).expect("numbered above");
        let kept = self.insert_row(Row { words: &words, len });
        self.scratch_row = words;
        kept
    }

    /// Writes the row of the group with these members into `words` and
    /// returns its member count; `None` if one of them has no bit yet.
    fn encode(&self, ids: &[NodeId], words: &mut Vec<u64>) -> Option<u32> {
        words.clear();
        words.resize(self.stride, 0);
        for &id in ids {
            let bit = self.events.bit(id)?;
            words[bit / 64] |= 1 << (bit % 64);
        }
        Some(words.iter().map(|w| w.count_ones()).sum())
    }

    /// Re-lays the rows out `stride` words wide, if that is wider.
    fn widen(&mut self, stride: usize) {
        if stride <= self.stride {
            return;
        }
        let mut words = Vec::with_capacity(self.len() * stride);
        for r in 0..self.len() {
            words.extend_from_slice(self.row(r).words);
            words.resize((r + 1) * stride, 0);
        }
        self.words = words;
        self.stride = stride;
        if !self.postings.is_empty() {
            self.postings.resize(stride * 64, Posting::default());
        }
    }

    /// Row `r`. Rows of families cloned from one [`RgFamily::for_graph`]
    /// are interchangeable; rows of any other two families are not.
    pub(crate) fn row(&self, r: usize) -> Row<'_> {
        Row {
            words: &self.words[r * self.stride..][..self.stride],
            len: self.lens[r],
        }
    }

    /// Words per row.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The rows that have every bit of `cand`, read off the list of its
    /// rarest bit — or off every row, for a family that keeps no lists or
    /// a `cand` that has no bits.
    fn supersets<'a>(&'a self, cand: Row<'a>) -> impl Iterator<Item = usize> + 'a {
        let rarest = members(cand.words)
            .filter(|_| !self.postings.is_empty())
            .min_by_key(|&bit| self.postings[bit].rows.len());
        let (listed, unlisted) = match rarest {
            Some(bit) => (&self.postings[bit].rows[..], 0),
            None => (&[][..], self.len()),
        };
        // Most listed rows lack some other bit of `cand`: one probe tells,
        // where comparing whole rows would run to that bit's word.
        let other = members(cand.words).find(|&bit| Some(bit) != rarest);
        let rows = listed.iter().map(|&r| r as usize).chain(0..unlisted);
        rows.filter(move |&r| {
            let row = self.row(r);
            row.len >= cand.len
                && other.is_none_or(|bit| row.words[bit / 64] >> (bit % 64) & 1 == 1)
                && is_subset(cand.words, row.words)
        })
    }

    /// True if some held group is a subset of (or equal to) `cand`.
    pub(crate) fn subsumes(&self, cand: Row<'_>) -> bool {
        if self.postings.is_empty() {
            // One pass where the two searches below would each be one.
            return (0..self.len())
                .any(|r| self.lens[r] <= cand.len && is_subset(self.row(r).words, cand.words));
        }
        self.holds_smaller(cand) || self.supersets(cand).any(|r| self.lens[r] == cand.len)
    }

    /// True if some held group is a subset of `cand` with fewer members.
    fn holds_smaller(&self, cand: Row<'_>) -> bool {
        let smaller =
            |r: usize| self.lens[r] < cand.len && is_subset(self.row(r).words, cand.words);
        if self.postings.is_empty() {
            return (0..self.len()).any(smaller);
        }
        // A subset is listed under each of its own bits, all of them bits
        // of `cand`; the empty group is listed nowhere and is then the
        // only row.
        (self.lens.first() == Some(&0) && cand.len > 0)
            || members(cand.words).any(|bit| {
                let listed = &self.postings[bit];
                listed.min_len < cand.len && listed.rows.iter().any(|&r| smaller(r as usize))
            })
    }

    /// [`RgFamily::insert`] of a row of this family's event index.
    pub(crate) fn insert_row(&mut self, cand: Row<'_>) -> bool {
        debug_assert_eq!(cand.words.len(), self.stride);
        if self.holds_smaller(cand) {
            return false;
        }
        let mut evicted = std::mem::take(&mut self.scratch_evicted);
        evicted.extend(self.supersets(cand));
        // A held group equal to `cand` is, in an antichain, its only
        // superset; any other superset goes.
        let held = evicted.first().is_some_and(|&r| self.lens[r] == cand.len);
        if !held {
            // Largest first: a removal moves only the last row.
            evicted.sort_unstable_by(|a, b| b.cmp(a));
            for &r in &evicted {
                self.remove_row(r);
            }
        }
        evicted.clear();
        self.scratch_evicted = evicted;
        if held {
            return false;
        }

        self.words.extend_from_slice(cand.words);
        self.lens.push(cand.len);
        if !self.postings.is_empty() {
            self.list_row(self.len() - 1);
        } else if self.len() > INDEX_ABOVE_ROWS {
            self.postings.resize(self.stride * 64, Posting::default());
            for r in 0..self.len() {
                self.list_row(r);
            }
        }
        true
    }

    /// Enters row `r` on the list of each of its bits.
    fn list_row(&mut self, r: usize) {
        let len = self.lens[r];
        for bit in members(&self.words[r * self.stride..][..self.stride]) {
            let listed = &mut self.postings[bit];
            listed.rows.push(r as u32);
            listed.min_len = listed.min_len.min(len);
        }
    }

    /// Removes row `r` by moving the last row into its place.
    fn remove_row(&mut self, r: usize) {
        let last = self.len() - 1;
        let stride = self.stride;
        if !self.postings.is_empty() {
            for bit in members(&self.words[r * stride..][..stride]) {
                self.postings[bit].rows.retain(|&x| x as usize != r);
            }
            if r != last {
                for bit in members(&self.words[last * stride..][..stride]) {
                    for x in &mut self.postings[bit].rows {
                        if *x as usize == last {
                            *x = r as u32;
                        }
                    }
                }
            }
        }
        self.words
            .copy_within(last * stride..(last + 1) * stride, r * stride);
        self.words.truncate(last * stride);
        self.lens.swap_remove(r);
    }

    /// Merges another family in.
    pub fn merge(&mut self, other: RgFamily) {
        for g in other.groups() {
            self.insert(g);
        }
    }

    /// Whether the family contains exactly this group.
    pub fn contains(&self, g: &RiskGroup) -> bool {
        let mut words = Vec::new();
        let Some(len) = self.encode(g.ids(), &mut words) else {
            return false;
        };
        let cand = Row { words: &words, len };
        let found = self.supersets(cand).any(|r| self.lens[r] == len);
        found
    }

    /// Groups resolved to sorted component-name lists (sorted family order:
    /// by size then names), convenient for assertions and reports.
    pub fn to_named(&self, graph: &FaultGraph) -> Vec<Vec<String>> {
        let mut named: Vec<Vec<String>> = self.groups().map(|g| g.names(graph)).collect();
        named.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        named
    }

    /// Smallest group size, if any groups exist.
    pub fn min_size(&self) -> Option<usize> {
        self.lens.iter().min().map(|&len| len as usize)
    }

    /// Drops groups larger than `max_order`.
    pub fn truncate_order(&mut self, max_order: usize) {
        // Descending, so the row a removal moves has been looked at.
        for r in (0..self.len()).rev() {
            if self.lens[r] as usize > max_order {
                self.remove_row(r);
            }
        }
    }
}

impl FromIterator<RiskGroup> for RgFamily {
    fn from_iter<T: IntoIterator<Item = RiskGroup>>(iter: T) -> Self {
        Self::from_groups(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rg(ids: &[NodeId]) -> RiskGroup {
        RiskGroup::new(ids.to_vec())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let g = rg(&[3, 1, 2, 1]);
        assert_eq!(g.ids(), &[1, 2, 3]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn subset_tests() {
        assert!(rg(&[2]).is_subset_of(&rg(&[1, 2, 3])));
        assert!(rg(&[1, 3]).is_subset_of(&rg(&[1, 2, 3])));
        assert!(!rg(&[1, 4]).is_subset_of(&rg(&[1, 2, 3])));
        assert!(rg(&[]).is_subset_of(&rg(&[1])));
        assert!(!rg(&[1, 2, 3]).is_subset_of(&rg(&[1, 2])));
    }

    #[test]
    fn union_merges_sorted() {
        assert_eq!(rg(&[1, 3]).union(&rg(&[2, 3, 5])).ids(), &[1, 2, 3, 5]);
    }

    #[test]
    fn family_rejects_supersets() {
        let mut fam = RgFamily::new();
        assert!(fam.insert(rg(&[2])));
        assert!(
            !fam.insert(rg(&[1, 2])),
            "superset of {{2}} must be rejected"
        );
        assert_eq!(fam.len(), 1);
    }

    #[test]
    fn family_evicts_supersets_on_smaller_insert() {
        let mut fam = RgFamily::new();
        fam.insert(rg(&[1, 2]));
        fam.insert(rg(&[2, 3]));
        assert!(fam.insert(rg(&[2])));
        assert_eq!(fam.len(), 1);
        assert!(fam.contains(&rg(&[2])));
    }

    #[test]
    fn family_keeps_incomparable_groups() {
        let mut fam = RgFamily::new();
        fam.insert(rg(&[1, 3]));
        fam.insert(rg(&[2]));
        assert_eq!(fam.len(), 2);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut fam = RgFamily::new();
        assert!(fam.insert(rg(&[1, 2])));
        assert!(!fam.insert(rg(&[1, 2])));
        assert_eq!(fam.len(), 1);
    }

    #[test]
    fn truncate_order_drops_large() {
        let mut fam = RgFamily::from_groups([rg(&[1]), rg(&[2, 3]), rg(&[4, 5, 6])]);
        fam.truncate_order(2);
        assert_eq!(fam.len(), 2);
        assert_eq!(fam.min_size(), Some(1));
    }
}
