//! The execution engine — JStar's improved incremental pseudo-naive
//! bottom-up evaluator (§3, §5), structured as an explicit **phase
//! pipeline**.
//!
//! The tuple lifecycle (Fig. 3): a rule `put`s a tuple → it waits in the
//! Delta set → it is taken out "in an order that respects the causality
//! ordering", inserted into Gamma, and triggers applicable rules → later
//! rules may query it → (optionally) it is discarded via lifetime hints.
//!
//! Two modes mirror the paper's compiler flags. They differ in the pool
//! only — both build the same Gamma stores:
//!
//! * **sequential** (`-sequential`): one thread, no pool;
//! * **parallel** (default): the *all-minimums strategy* — every tuple of
//!   the minimal Delta equivalence class is executed as a fork/join task on
//!   a [`jstar_pool::ThreadPool`] sized by `--threads=N`.
//!
//! Per-table optimisation flags are faithful to §5.1: `-noDelta T` sends
//! `T`'s tuples straight to Gamma and fires their rules on the putting
//! thread — a staged batch at a time, always within the step (see the
//! `runtime` module); `-noGamma T` skips storing `T`'s tuples (they act
//! as pure triggers).
//!
//! ## The step machine
//!
//! The step loop (the `coordinator` module) is a four-phase state
//! machine. Staged tuples enter the Delta tree at one place only: the
//! absorb at the step boundary, once the previous class has joined.
//!
//! ```text
//!            workers: put → ShardedInbox (epoch E+1, binned by key prefix)
//!                                │
//!   ┌──── ABSORB ────┐   ┌─── EXTRACT ───┐   ┌──── EXECUTE ─────┐
//!   │ swap the epoch │ → │ pop_min_class │ → │ inline, or class │
//!   │ out, merge it  │   └───────────────┘   │ chunks on the    │
//!   │ into the tree  │                       │ pool             │
//!   └────────────────┘                       └──────────────────┘
//!            ▲                ┌── MAINTAIN ──┐          │
//!            └────────────────│ hints,       │◀─────────┘
//!                             │ compaction,  │
//!                             │ checkpoint   │
//!                             └──────────────┘
//! ```
//!
//! * **Absorb** (`coordinator::Absorb`) — the coordinator swaps
//!   everything staged out of the [`crate::delta::ShardedInbox`]
//!   ([`crate::delta::ShardedInbox::swap_epoch`]) and merges it with
//!   [`crate::delta::DeltaTree::merge_partitioned`]: one class map per
//!   key-prefix partition on the pool once the batch reaches
//!   [`EngineConfig::parallel_merge_threshold`], the sequential insert
//!   loop below it. The inbox is then empty
//!   ([`crate::delta::ShardedInbox::assert_quiescent`]). The Law of
//!   Causality puts every staged tuple in a later step than the class
//!   that staged it, so absorbing once the class has joined is exact.
//! * **Extract** — `pop_min_class`: the unit of parallelism of the
//!   all-minimums strategy. The extract must reflect *every* tuple
//!   staged by earlier steps (a staged key may order before the current
//!   minimum) — which is why absorb completes first.
//! * **Execute** (`schedule::Scheduler` decides the shape) — a
//!   one-tuple class runs inline on the coordinator; wider classes are
//!   chunked by measured width and pool occupancy into up to 4·T tasks
//!   (balance by stealing: see `schedule`) and submitted as one batch
//!   ([`jstar_pool::Scope::spawn_batch`], a single wakeup), and the
//!   scope's join helps execute them; a class whose table triggers a
//!   join rule runs inline, its walk fanned over the pool. Either
//!   way every tuple goes through the one insert-and-fire function
//!   (`runtime::insert_and_fire`), which also flushes the `-noDelta`
//!   puts its firings staged; the coordinator flushes what helper
//!   threads staged once the class has joined.
//!
//!   Since the Delta tree is a canonical set keyed by position, the
//!   partitioned merge reproduces exactly the state sequential inserts
//!   would have: the pop sequence — and therefore the run — is
//!   bit-identical to the sequential engine's (property-tested in
//!   `tests/prop_engine.rs::sharded_parallel_matches_sequential`).
//! * **Maintain** — the coordinator's single-threaded quiescent point:
//!   tuple-lifetime hints run (§5 step 4), hinted stores that are more
//!   than half tombstones (`COMPACT_TOMBSTONES_ABOVE`) are
//!   compacted ([`crate::gamma::TableStore::maybe_compact`]), and —
//!   every [`EngineConfig::checkpoint_every`] steps — a checkpoint is
//!   written atomically (the Delta tree is forced fully current
//!   first; see [`crate::persist`] and [`Engine::restore_latest`]).
//!   One [`crate::persist::CheckpointWriter`] serves the whole run and
//!   keeps each table's encoded rows, so a checkpoint encodes what was
//!   claimed since the previous one, not all of Gamma.
//!
//! **Reading the metrics.** With [`EngineConfig::record_steps`] set,
//! [`RunReport::drain_time`] (= partition + merge) is the absorb's
//! coordinator time and [`RunReport::drain_fraction`] its share of the
//! accounted step time. [`RunReport::overlap_time`] and
//! [`RunReport::overlap_fraction`] always read zero: no drain work runs
//! while a class executes.
//!
//! ## How a class meets Gamma
//!
//! Every run of fresh tuples — a class, a chunk of one, or a flushed
//! `-noDelta` batch — is inserted into Gamma before any rule fires,
//! then fires each rule on its table one way, by the rule's kind
//! ([`crate::rule::RuleKind`]):
//!
//! * an **opaque** closure fires once per fresh tuple;
//! * a **join rule** — registered through
//!   `ProgramBuilder::rule_rel_join` from the same `join`/`join3` value
//!   a read takes, so it is an inspectable [`crate::rule::JoinPlan`] —
//!   treats the run as the semi-naive *delta*: the fresh tuples are
//!   cut into a view on their stage-0 key and become the root of the
//!   one N-ary leapfrog walk (`gamma::leapfrog`, which the read-side
//!   `Engine::join_rel` and its pool-backed `join_fold` call too),
//!   which drops a trigger failing the root checks, seeks one shared
//!   Gamma column view per stage and drops a row at the first stage
//!   whose inequalities it fails; each full row combination is
//!   emitted. A class with a table that triggers a join rule runs on
//!   the coordinator, grouped by table, so each table's share is one
//!   run and one walk. The root view, then each stage view an open
//!   must build (`Gamma::open_views`), is built on the pool, one view
//!   per build, and the walk then fans the root view's rows across the
//!   pool like class chunks. A run flushed from a staging slot, or a
//!   chunk of a forked class, is walked without a pool: its builds are
//!   one piece each.
//!
//! The walk emits the tuple set a nested loop firing per tuple would:
//! the run is in Gamma before either fires, and set semantics plus the
//! Law of Causality leave the staged set — and therefore the pop
//! schedule — bit-identical (property-tested against hand-written
//! nested-loop twins in `tests/prop_engine.rs`, for classes of every
//! width, mixed-table classes and `-noDelta` triggers).
//! [`RunReport::delta_join_classes`], [`RunReport::gamma_probes`] and
//! [`RunReport::join_seeks`] put the search-count reduction on record.
//! Two `jstar-apps` tests guard it: `triangles.rs`'s
//! `delta_join_and_per_tuple_agree_and_counters_move` checks at 1, 2 and
//! 4 threads that the walk searches less than an opaque nested-loop
//! twin of its rule, and `apps_integration.rs`'s
//! `join_free_apps_never_batch_a_class` that join-free programs never
//! walk.
//!
//! ## The column-view lifecycle
//!
//! Leapfrog join walks open sorted per-column views
//! ([`crate::gamma::Gamma::open_cursor`]), and keep none between opens,
//! as a semi-naive loop joins over all facts again every round. Column
//! 0 of a write-once table is its sealed view; a column the same walk
//! opened before shares that view; any other open builds the view off
//! the claim journal, from position 0 up to the store's
//! [`crate::gamma::IndexStamp`] generation, cut into pieces on the
//! pool. Custom stores, which keep no claim journal, build over
//! `for_each`. [`RunReport::index_cache_hits`] counts the opens served
//! a built view, [`RunReport::index_cache_misses`] the builds and
//! [`RunReport::index_build_tuples`] the rows they sorted; the journal
//! builds are property-tested against an engine whose custom store
//! builds every view over `for_each`
//! (`tests/prop_engine.rs::cached_index_matches_cold_build`).
//!
//! ## Hot-path architecture
//!
//! The put→Delta→Gamma pipeline adds **zero coordinator-side contention**
//! per tuple:
//!
//! 1. **Partition-aware sharded staging** — a worker `put` appends
//!    `(OrderKey, Tuple)` to its own [`crate::delta::ShardedInbox`]
//!    shard (routed by the pool's stable
//!    [`jstar_pool::ThreadPool::current_worker_index`]), binned by a
//!    hash of the key's leading components at push time.
//! 2. **Partitioned parallel absorb** — at the step boundary, pool
//!    workers build one independent class map per key-prefix partition;
//!    the coordinator moves each class into the queue whole when its key
//!    is new there, and inserts its tuples one by one otherwise.
//! 3. **Reservation-based, batched Gamma inserts** — the parallel store
//!    ([`crate::gamma::HashStore`], chained on column 0 by default)
//!    publishes tuples via CAS slot reservation; no lock remains on the tuple hot path, and readers
//!    never observe partial state. Tuples arrive in batches (class
//!    chunks, flushed `-noDelta` staging slots), so the stores' shared
//!    `len` and journal counters are written once per 32 tuples, and
//!    the per-table statistics ([`crate::stats::TableStripe`]) live in
//!    the counting worker's own padded stripe.
//! 4. **Borrowed keys** — `runtime::insert_and_fire` and [`RuleCtx`]
//!    borrow the equivalence class's `OrderKey`, and a table whose
//!    orderby is tuple-independent lends its interned key to every put;
//!    triggering a rule clones nothing, and a put clones a key only
//!    when it is actually staged for the Delta set.
//! 5. **Per-table query plans and bind-slot prepared queries** — orderby
//!    extraction is cached once per table in a [`QueryPlan`]; a
//!    prepared query's per-call values reach the store borrowed from
//!    its binder ([`RuleCtx::for_each_rel`]).
//! 6. **Adaptive all-minimums scheduling** — see the `schedule` module.
//!
//! The module family: `config` (the paper's flags), `runtime` (the
//! shared put/trigger core), `ctx` (the rule window onto the
//! database), `schedule` (class execution planning),
//! `report` (run results), and `coordinator` (the step loop itself,
//! with its absorb). The public API
//! — [`Engine`], [`EngineConfig`], [`RuleCtx`], [`RunReport`],
//! [`QueryPlan`], [`LifetimeHint`] — is re-exported here unchanged
//! from its single-file predecessor.

mod config;
mod coordinator;
mod ctx;
mod report;
mod runtime;
mod schedule;
#[cfg(test)]
mod tests;

pub use config::{EngineConfig, LifetimeHint};
pub use coordinator::{Engine, RestoreOutcome};
pub use ctx::RuleCtx;
pub use report::RunReport;
pub use runtime::QueryPlan;
