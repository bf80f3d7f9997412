//! # jstar-apps — the paper's case-study programs (§3, §6)
//!
//! Each case study provides (a) the JStar program exactly as the paper
//! sketches it (tables, `order` declarations, rules, per-app optimisation
//! flags), (b) the hand-coded "Java-equivalent" baseline the paper compares
//! against in Fig. 6, and (c) small helpers the benches use to sweep
//! parameters.
//!
//! | Module | Paper | Program |
//! |---|---|---|
//! | [`ship`] | §3, Fig. 2 | Space-Invaders ship movement (the tutorial example) |
//! | [`pvwatts`] | §6.2–6.3, Figs. 4/7/8/9/10, Table 1 | map-reduce monthly solar statistics, plus the Disruptor redesign |
//! | [`matmul`] | §6.4, Fig. 11 | naive N×N matrix multiplication, one task per output row |
//! | [`shortest_path`] | §6.5, Fig. 5/12 | Dijkstra over a random graph, Delta tree as priority queue |
//! | [`median`] | §6.6, Fig. 13 | iterative pivot-partition median of a large double array |
//! | [`triangles`] | — | triangle counting via a two-stage join rule, the multi-way-join showcase |
//!
//! The paper's 192 MB `large1000.csv` input and its testbed hardware are
//! not available; [`pvwatts::generate_csv`] synthesises equivalent data at
//! any scale (see DESIGN.md for the substitution argument).

pub mod matmul;
pub mod median;
pub mod pvwatts;
pub mod ship;
pub mod shortest_path;
pub mod triangles;
