//! Stratum literals and `order` declarations.
//!
//! JStar programs declare a partial order over the capitalised literal names
//! used in orderby lists, e.g. `order Req < PvWatts < SumMonth` (Fig. 4).
//! The Delta set needs a *total* order on the stratum component of a key
//! (the paper's tree keeps its named branches in "a linear array of
//! subtrees, indexed by a total ordering of the order relationship"), so
//! we linearise the declared partial order topologically. Causality *proofs*, however, must use only the declared
//! partial order — `A < B` is provable only if the programmer actually
//! declared a chain from `A` to `B` (otherwise Fig. 4's stratification error
//! must fire).

use std::collections::HashMap;
use std::fmt;

/// Identifies an interned stratum literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StratId(pub u32);

impl StratId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Error returned when `order` declarations are cyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrataCycle {
    /// One literal participating in the cycle.
    pub literal: String,
}

impl fmt::Display for StrataCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "order declarations form a cycle through literal {}",
            self.literal
        )
    }
}

impl std::error::Error for StrataCycle {}

/// Collects literals and `order` chains while a program is being built.
#[derive(Debug, Default, Clone)]
pub struct StrataBuilder {
    names: Vec<String>,
    index: HashMap<String, StratId>,
    edges: Vec<(StratId, StratId)>,
}

impl StrataBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a literal name, returning its id.
    pub fn intern(&mut self, name: &str) -> StratId {
        if let Some(id) = self.index.get(name) {
            return *id;
        }
        let id = StratId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Records an `order a < b < c < ...` chain.
    pub fn order_chain(&mut self, chain: &[&str]) {
        for pair in chain.windows(2) {
            let a = self.intern(pair[0]);
            let b = self.intern(pair[1]);
            self.edges.push((a, b));
        }
    }

    /// Finalises into a [`StrataOrder`]: computes transitive reachability
    /// (the provable partial order) and a deterministic topological
    /// linearisation (the executable total order). Fails on cycles.
    pub fn build(self) -> Result<StrataOrder, StrataCycle> {
        let n = self.names.len();
        // Transitive closure by repeated relaxation (n is small: the number
        // of distinct literals in a program, typically < 20).
        let mut reach = vec![false; n * n];
        for &(a, b) in &self.edges {
            reach[a.index() * n + b.index()] = true;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for j in 0..n {
                    if reach[i * n + j] {
                        for k in 0..n {
                            if reach[j * n + k] && !reach[i * n + k] {
                                reach[i * n + k] = true;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        for i in 0..n {
            if reach[i * n + i] {
                return Err(StrataCycle {
                    literal: self.names[i].clone(),
                });
            }
        }
        // Kahn topological sort; ties broken by interning order so ranks are
        // deterministic run to run.
        // Count each edge once even if declared twice.
        let mut seen_edges: Vec<(StratId, StratId)> = self.edges.clone();
        seen_edges.sort();
        seen_edges.dedup();
        let mut indeg = vec![0usize; n];
        for &(_, b) in &seen_edges {
            indeg[b.index()] += 1;
        }
        let mut ranks = vec![0u32; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut next_rank = 0u32;
        let mut emitted = 0usize;
        while let Some(i) = queue.first().copied() {
            queue.remove(0);
            ranks[i] = next_rank;
            next_rank += 1;
            emitted += 1;
            for &(a, b) in &seen_edges {
                if a.index() == i {
                    indeg[b.index()] -= 1;
                    if indeg[b.index()] == 0 {
                        queue.push(b.index());
                    }
                }
            }
            queue.sort();
        }
        debug_assert_eq!(emitted, n, "cycle detection above makes Kahn total");
        Ok(StrataOrder {
            names: self.names,
            index: self.index,
            reach,
            ranks,
        })
    }
}

/// The finalised stratum ordering of a program.
#[derive(Debug, Clone)]
pub struct StrataOrder {
    names: Vec<String>,
    index: HashMap<String, StratId>,
    /// Row-major `n×n` reachability matrix of the declared partial order.
    reach: Vec<bool>,
    /// Topological total ranks (a linearisation of `reach`).
    ranks: Vec<u32>,
}

impl StrataOrder {
    /// An order over no literals (programs without strat components).
    pub fn empty() -> Self {
        StrataBuilder::new()
            .build()
            .expect("empty order is acyclic")
    }

    /// Number of interned literals.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no literals were interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks up a literal by name.
    pub fn lookup(&self, name: &str) -> Option<StratId> {
        self.index.get(name).copied()
    }

    /// The literal's name.
    pub fn name(&self, id: StratId) -> &str {
        &self.names[id.index()]
    }

    /// The executable total rank (linearised order) of a literal.
    pub fn rank(&self, id: StratId) -> u32 {
        self.ranks[id.index()]
    }

    /// True iff `a < b` is *provable* from the declared `order` chains
    /// (transitively). This is what the causality checker uses: an
    /// undeclared relation must yield a stratification warning even though
    /// the linearisation happens to place the literals somewhere.
    pub fn declared_lt(&self, a: StratId, b: StratId) -> bool {
        let n = self.names.len();
        self.reach[a.index() * n + b.index()]
    }

    /// True iff the two literals are related (in either direction) by the
    /// declared partial order.
    pub fn comparable(&self, a: StratId, b: StratId) -> bool {
        a == b || self.declared_lt(a, b) || self.declared_lt(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut b = StrataBuilder::new();
        let a1 = b.intern("Req");
        let a2 = b.intern("Req");
        assert_eq!(a1, a2);
        assert_eq!(b.build().unwrap().len(), 1);
    }

    #[test]
    fn chain_declares_transitive_order() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["Req", "PvWatts", "SumMonth"]);
        let order = b.build().unwrap();
        let req = order.lookup("Req").unwrap();
        let pv = order.lookup("PvWatts").unwrap();
        let sm = order.lookup("SumMonth").unwrap();
        assert!(order.declared_lt(req, pv));
        assert!(order.declared_lt(pv, sm));
        assert!(order.declared_lt(req, sm), "transitivity");
        assert!(!order.declared_lt(sm, req));
        // Ranks must respect the declared order.
        assert!(order.rank(req) < order.rank(pv));
        assert!(order.rank(pv) < order.rank(sm));
    }

    #[test]
    fn unrelated_literals_are_incomparable_but_ranked() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["A", "B"]);
        let c = b.intern("C");
        let order = b.build().unwrap();
        let a = order.lookup("A").unwrap();
        assert!(!order.comparable(a, c));
        // The linearisation still assigns distinct ranks to all three.
        let mut ranks = vec![
            order.rank(a),
            order.rank(order.lookup("B").unwrap()),
            order.rank(c),
        ];
        ranks.sort();
        ranks.dedup();
        assert_eq!(ranks.len(), 3);
    }

    #[test]
    fn cycle_is_detected() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["X", "Y"]);
        b.order_chain(&["Y", "Z"]);
        b.order_chain(&["Z", "X"]);
        let err = b.build().unwrap_err();
        assert!(["X", "Y", "Z"].contains(&err.literal.as_str()));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["X", "X"]);
        assert!(b.build().is_err());
    }

    #[test]
    fn diamond_order_is_fine() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["A", "B", "D"]);
        b.order_chain(&["A", "C", "D"]);
        let order = b.build().unwrap();
        let a = order.lookup("A").unwrap();
        let d = order.lookup("D").unwrap();
        assert!(order.declared_lt(a, d));
    }

    #[test]
    fn duplicate_edges_do_not_break_topo_sort() {
        let mut b = StrataBuilder::new();
        b.order_chain(&["A", "B"]);
        b.order_chain(&["A", "B"]);
        let order = b.build().unwrap();
        let a = order.lookup("A").unwrap();
        let bb = order.lookup("B").unwrap();
        assert!(order.rank(a) < order.rank(bb));
    }

    #[test]
    fn dijkstra_example_orders() {
        // order Vertex < Edge < Int; order Estimate < Done (Fig. 5)
        let mut b = StrataBuilder::new();
        b.order_chain(&["Vertex", "Edge", "Int"]);
        b.order_chain(&["Estimate", "Done"]);
        let order = b.build().unwrap();
        let est = order.lookup("Estimate").unwrap();
        let done = order.lookup("Done").unwrap();
        let vertex = order.lookup("Vertex").unwrap();
        let int = order.lookup("Int").unwrap();
        assert!(order.declared_lt(est, done));
        assert!(order.declared_lt(vertex, int));
        assert!(!order.comparable(est, int));
    }

    #[test]
    fn empty_order_builds() {
        let order = StrataOrder::empty();
        assert!(order.is_empty());
        assert_eq!(order.lookup("Anything"), None);
    }
}
