//! Reduced ordered binary decision diagrams, the one exact form of
//! Pr(T): [`crate::ranking::top_event_probability`] ORs a family's rows
//! into one diagram and reads its probability in one pass.
//!
//! Variables are basic-event node ids, ordered as the ids are. A node is
//! made only after its two children, so every node's id is above its
//! children's.

use std::collections::HashMap;

use crate::ranking::ProbabilityError;

/// Most nodes one diagram may hold, terminals included; one more is
/// [`ProbabilityError::TooLarge`]. It bounds one audit's memory.
pub(crate) const MAX_NODES: usize = 1 << 24;

/// Id of a diagram node; 0 and 1 are the terminals.
pub(crate) type BddId = u32;

/// The constant-false terminal: no row fails.
pub(crate) const FALSE: BddId = 0;
/// The constant-true terminal.
pub(crate) const TRUE: BddId = 1;

/// A diagram's nodes, hash-consed, with the memo of [`Bdd::or`].
pub(crate) struct Bdd {
    /// `(var, lo, hi)`; entries 0 and 1 are the terminals.
    nodes: Vec<(u32, BddId, BddId)>,
    unique: HashMap<(u32, BddId, BddId), BddId>,
    or_cache: HashMap<(BddId, BddId), BddId>,
    /// [`Bdd::mk`] refuses to grow `nodes` past it.
    cap: usize,
}

impl Bdd {
    /// An empty diagram that may grow to `cap` nodes.
    pub(crate) fn new(cap: usize) -> Self {
        Bdd {
            nodes: vec![(u32::MAX, FALSE, FALSE), (u32::MAX, TRUE, TRUE)],
            unique: HashMap::new(),
            or_cache: HashMap::new(),
            cap,
        }
    }

    /// The node "if `var` then `hi` else `lo`", with the reduction rule;
    /// `var` must be below every variable of `lo` and `hi`. The one
    /// place the diagram grows, so the one place the cap is checked.
    pub(crate) fn mk(&mut self, var: u32, lo: BddId, hi: BddId) -> Result<BddId, ProbabilityError> {
        if lo == hi {
            return Ok(lo);
        }
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return Ok(id);
        }
        if self.nodes.len() >= self.cap {
            return Err(ProbabilityError::TooLarge);
        }
        let id = self.nodes.len() as BddId;
        self.nodes.push((var, lo, hi));
        self.unique.insert((var, lo, hi), id);
        Ok(id)
    }

    /// The disjunction of `a` and `b`.
    pub(crate) fn or(&mut self, a: BddId, b: BddId) -> Result<BddId, ProbabilityError> {
        match (a, b) {
            (TRUE, _) | (_, TRUE) => return Ok(TRUE),
            (FALSE, x) | (x, FALSE) => return Ok(x),
            _ if a == b => return Ok(a),
            _ => {}
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&r) = self.or_cache.get(&key) {
            return Ok(r);
        }
        let top = self.nodes[a as usize].0.min(self.nodes[b as usize].0);
        let (a_lo, a_hi) = self.cofactors(a, top);
        let (b_lo, b_hi) = self.cofactors(b, top);
        let lo = self.or(a_lo, b_lo)?;
        let hi = self.or(a_hi, b_hi)?;
        let r = self.mk(top, lo, hi)?;
        self.or_cache.insert(key, r);
        Ok(r)
    }

    /// Shannon cofactors of `f` with respect to variable `v`.
    fn cofactors(&self, f: BddId, v: u32) -> (BddId, BddId) {
        match self.nodes[f as usize] {
            (var, lo, hi) if var == v => (lo, hi),
            _ => (f, f),
        }
    }

    /// The probability that `root` is true when each variable `v` is,
    /// independently, with probability `prob(v)`: one pass up the ids,
    /// children before parents.
    pub(crate) fn top_probability(&self, root: BddId, prob: impl Fn(u32) -> f64) -> f64 {
        let mut p = vec![0.0, 1.0];
        for &(var, lo, hi) in self.nodes.iter().take(root as usize + 1).skip(2) {
            let q = prob(var);
            p.push((1.0 - q) * p[lo as usize] + q * p[hi as usize]);
        }
        p[root as usize]
    }
}
