//! Lock-free reservation-based tuple storage — the shared engine under
//! the concurrent Gamma stores.
//!
//! The paper's parallel defaults (`ConcurrentSkipListSet`,
//! `ConcurrentHashMap`) let every worker insert without a table-wide
//! lock. The previous Rust realisation approximated that with sharded
//! reader-writer locks, which left one writer lock acquisition on every
//! tuple of the put→Delta→Gamma hot path. [`ReservationTable`] removes
//! it with a **claim-slots-then-publish** scheme:
//!
//! 1. **Probe** — a deterministic linear-probe walk over a chain of
//!    geometrically growing segments, positioned by the tuple's
//!    *primary hash* (key fields for keyed tables, the whole tuple
//!    otherwise). Equal tuples — and, for keyed tables, key-conflicting
//!    tuples — always walk the same slot sequence, so duplicate and
//!    `->` violations are found on the walk itself. Each slot's state
//!    and hash are packed into one **tag word** in a contiguous array,
//!    so a probe step is a single cache-friendly atomic load; the slot
//!    payload (the tuple) is only touched on a tag match.
//! 2. **Claim** — the first `EMPTY` slot on the walk is reserved with a
//!    single CAS (`EMPTY → hash|RESERVED`). Losing the race just means
//!    re-examining what the winner put there.
//! 3. **Publish** — the tuple is written into the claimed slot's
//!    payload, then the tag is flipped to `hash|PUBLISHED` with a
//!    release store. Readers only dereference payloads whose tag they
//!    observed as `PUBLISHED` (acquire), so **no reader ever sees
//!    partial state**; a concurrent inserter that must know what a
//!    matching `RESERVED` slot holds spins for the handful of
//!    instructions between claim and publish.
//!
//! **A slot is 24 bytes in two arrays**: the 8-byte tag, and a 16-byte
//! [`Payload`] — the tuple (one thin pointer to the row's one allocation,
//! see [`crate::tuple`]), the high half of its secondary hash and its
//! chain link — so a probe that matches reaches the row's fields in two
//! cache lines beyond the tag's.
//!
//! **Batches.** Tuples arrive in batches ([`ReservationTable::insert_batch`];
//! `insert` is the batch of one), and a batch runs the three steps above
//! per tuple, unchanged, in blocks of 32. What a block does once instead
//! of 32 times is what two inserting threads would otherwise fight over:
//! it hashes all its tuples first and prefetches each one's first tag
//! line in segment 0 and first tag and payload line in the newest
//! segment, so the probes' cache misses overlap; and after its last
//! publish it adds its fresh count to `len` once and appends its fresh
//! slots to the claim journal with one ranged reservation per segment
//! (`Segment::journal_append`) — contiguous cells, reserved only for
//! tuples that turned out fresh, each filled with a Release store after
//! its tag is PUBLISHED. `len`, `dead` and each segment's journal
//! `cursor` — the words inserts write — sit on cache lines of their own
//! ([`Padded`]), away from the pointers and masks every probe reads: a
//! stand-alone 140,160-tuple insert loop cost 116 ns/tuple on one thread
//! and 383 ns per thread on two with those writes per tuple on shared
//! lines, 76 ns/tuple on two threads without them. A batch of fewer than
//! [`SMALL_BATCH`] tuples has nothing to overlap or amortise and takes
//! the block of one per tuple instead (Fig. 5's rule puts one `Done` and
//! then queries, so every `Done` is flushed alone).
//!
//! An optional **secondary chain index** gives the stores their query
//! narrowing — the hash store's index-key buckets and the concurrent
//! store's first-column narrowing — without reintroducing a lock: a
//! chain push is one CAS, and a chain link always points at a fully
//! published slot. The chains are **per segment, sized with it**: each
//! segment of an indexed table owns one 4-byte head per slot, a slot is
//! linked (after publication) into the bucket of *its own* segment, and
//! links are slot offsets within that segment. A scan walks segment 0's
//! bucket for its hash, then segment 1's, and so on. With as many heads
//! as slots, a bucket holds little more than the tuples that share the
//! scanned key, whatever the table has grown to; with fewer heads than
//! the table has distinct index keys, every scan is a walk over
//! strangers (a head array capped at 16,384 for a table of 40,000
//! distinct index keys: seven hops for two matches).
//!
//! **Import** (snapshot restore, [`SwappableTable::begin_import`]) is
//! that same batch insert into a fresh table built beside the live one:
//! there is one way a tuple enters a table, checks included, so a restored
//! file that repeats a row or breaks a `->` key is found out — counted,
//! and the restore refused — rather than loaded into a table whose probe
//! walks then no longer meet. The live table is replaced only when the
//! caller commits, after every other table of the snapshot has passed.
//!
//! Slots are never reused: `retain` flips rejected slots to `TOMBSTONE`
//! (readers skip them; probes walk past them) and the tuple memory is
//! reclaimed when the table drops. That keeps the claim invariant — the
//! set of `EMPTY` slots only shrinks, so "first empty on the walk" is a
//! stable meeting point for racing equal inserts — at the cost of
//! leaving discarded tuples physically allocated until the store goes
//! away, which is the right trade for lifetime hints that run a handful
//! of times per run.

use super::{pk_conflict, InsertOutcome};
use crate::schema::TableDef;
use crate::tuple::Tuple;
// Synchronisation comes from the jstar-check shim: real std/parking_lot
// types in production, instrumented model-checked types under
// `--features model-check` (see crates/jstar-check and CONCURRENCY.md).
use jstar_check::sync::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// Tag states, packed into the low 2 bits of the tag word; the high 62
/// bits hold the primary hash. Transitions: `EMPTY → RESERVED →
/// PUBLISHED → TOMBSTONE`; nothing ever moves backwards, and only the
/// claimant writes the payload. `EMPTY` is the all-zero tag.
const EMPTY_TAG: u64 = 0;
const RESERVED: u64 = 1;
const PUBLISHED: u64 = 2;
const TOMBSTONE: u64 = 3;
const STATE_MASK: u64 = 0b11;
const HASH_MASK: u64 = !STATE_MASK;

/// Probes attempted per segment before the walk moves to the next
/// (larger) segment. Two pressures set it: a *full* early segment costs
/// a whole window of (contiguous) tag loads on every later probe, so it
/// must stay small; but a window that gives up too easily spills into a
/// sparse next segment long before the current one is usefully full —
/// and a 4×-larger, barely-used segment is pure scan overhead for
/// teardown and `for_each`. 64 keeps a segment usable to ~85 % load
/// while a full-window miss still reads only eight cache lines.
const PROBE_LIMIT: usize = 64;

/// Maximum number of ×4-growth segments; far beyond addressable memory.
const MAX_SEGMENTS: usize = 16;

/// Tuples per inner round of [`ReservationTable::insert_batch`]: enough
/// to put a block's first-probe cache misses in flight together and to
/// divide the shared-counter writes by, small enough that the prefetched
/// lines (two per tuple) are still in L1 when the claim loop reaches them.
const BATCH_BLOCK: usize = 32;

/// Batches shorter than this go through the block of one, tuple by
/// tuple: the 32-wide block's scratch arrays, prefetch pass and ranged
/// journal claim cost more than they save on one to three tuples.
const SMALL_BATCH: usize = 4;

/// Floor for segment 0's capacity. Production keeps it generous (see
/// [`ReservationTable::new`]); under `model-check` the floor drops to a
/// handful of slots so each of the checker's thousands of explored
/// executions allocates a toy table instead of megabytes.
#[cfg(not(feature = "model-check"))]
const MIN_INITIAL: usize = 1 << 17;
#[cfg(feature = "model-check")]
const MIN_INITIAL: usize = 1 << 4;

/// Sentinel for "no entry" in a chain head, a chain link or a journal
/// cell. Zero — so heads, payloads and journals are valid in their
/// all-zero state and segments can be allocated with `alloc_zeroed`,
/// which hands back untouched (virtually zero) pages instead of
/// memsetting megabytes per store. Real entries are a slot's offset in
/// its segment plus one (see [`link_of`]).
const NIL: u32 = 0;

/// The chain-link / journal form of slot `idx` of a segment.
#[inline]
fn link_of(idx: usize) -> u32 {
    // Segment capacities stay below 2^32 (asserted where a segment is
    // allocated), so neither the cast nor the `+ 1` can wrap.
    idx as u32 + 1
}

/// Per-slot payload, parallel to the tag array: 16 bytes. Written only
/// by the slot's claimant between claim and publish (`next`: at link
/// time, before the head CAS that makes it reachable).
struct Payload {
    /// The tuple; initialised iff the tag is `PUBLISHED` or `TOMBSTONE`.
    tuple: UnsafeCell<MaybeUninit<Tuple>>,
    /// High 32 bits of the secondary (index) hash — the low bits chose
    /// the bucket. A filter only: it spares a scan the row's cache line
    /// for most strangers in its bucket, and every caller re-checks a
    /// visited tuple against its query.
    secondary: UnsafeCell<u32>,
    /// Next slot in this bucket's chain, as [`link_of`] of its offset in
    /// the same segment; [`NIL`] ends the chain.
    next: AtomicU32,
}

/// What a slot stores of its secondary hash.
#[inline]
fn secondary_filter(secondary: u64) -> u32 {
    (secondary >> 32) as u32
}

struct Segment {
    /// state|hash tag per slot — the only memory a probe step touches.
    tags: Box<[AtomicU64]>,
    payload: Box<[Payload]>,
    /// Claim journal: [`link_of`] each claimed slot, appended at
    /// publish time. Full scans (`for_each`, `retain`, drop) walk the
    /// journal's `cursor` prefix instead of the whole slot array — a
    /// generously-sized segment holding a handful of tuples is iterated
    /// in O(live), not O(capacity). Entry 0 means "append in flight":
    /// readers skip it (the insert has not returned yet).
    journal: Box<[AtomicU32]>,
    /// Secondary chain heads, one per slot — `None` when the owner never
    /// scans by secondary hash. A head holds [`link_of`] the bucket's
    /// newest slot. Zeroed with the segment, so a table that stores
    /// nothing, and a store at engine construction, pay nothing for them.
    heads: Option<Box<[AtomicU32]>>,
    /// Journal cells reserved so far. On its own cache lines: the
    /// headers around it are read by every probe of every thread, and
    /// inserts write it.
    cursor: Padded<AtomicUsize>,
    mask: usize,
}

/// A counter that inserts write, on cache lines of its own — away from
/// the read-mostly headers every probe loads (128 bytes: the adjacent-line
/// prefetcher pairs lines, as for [`crate::delta::ShardedInbox`]'s shards).
#[repr(align(128))]
struct Padded<T>(T);

/// A zeroed `AtomicU64` slice via the calloc fast path: the kernel's
/// zero pages back the allocation until a slot is actually claimed, so
/// a generously-sized empty segment costs virtual address space, not
/// resident memory or a memset. The shim owns the reinterpret (its
/// model atomics are wider than a `u64`, so only it knows when the
/// in-place cast is legal).
fn zeroed_atomics(n: usize) -> Box<[AtomicU64]> {
    jstar_check::sync::zeroed_atomic_u64_slice(n)
}

/// [`zeroed_atomics`] for the 4-byte chain heads and journal cells.
fn zeroed_links(n: usize) -> Box<[AtomicU32]> {
    jstar_check::sync::zeroed_atomic_u32_slice(n)
}

fn zeroed_payload(n: usize) -> Box<[Payload]> {
    // lint: allow(expect): capacity is bounded by MAX_SEGMENTS growth —
    // the layout cannot overflow before addressable memory runs out.
    let layout = std::alloc::Layout::array::<Payload>(n).expect("payload layout");
    // SAFETY: the all-zero bit pattern is a valid Payload (filter 0,
    // next NIL, tuple uninitialised — only read once the tag says
    // PUBLISHED; the jstar-check shim types guarantee zero-validity as
    // part of their contract), and alloc_zeroed returns zeroed memory
    // of exactly this layout.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout) as *mut Payload;
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n))
    }
}

impl Segment {
    fn new(capacity: usize, with_index: bool) -> Segment {
        Segment {
            tags: zeroed_atomics(capacity),
            payload: zeroed_payload(capacity),
            journal: zeroed_links(capacity),
            heads: with_index.then(|| zeroed_links(capacity)),
            cursor: Padded(AtomicUsize::new(0)),
            mask: capacity - 1,
        }
    }

    /// Records freshly published slots in the claim journal: one ranged
    /// reservation for all `m` of them, then `m` contiguous cells filled
    /// in the order given. Called only with slots whose tags are already
    /// `PUBLISHED`, and only for tuples that turned out fresh — so no
    /// reserved cell stays zero once this returns.
    fn journal_append(&self, m: usize, offsets: impl Iterator<Item = usize>) {
        // ord: Relaxed — the cursor only reserves a unique run of journal
        // cells; visibility of each entry rides on its Release store below.
        let j = self.cursor.0.fetch_add(m, Ordering::Relaxed);
        // Every claim takes a distinct slot, so at most `capacity`
        // entries are ever appended.
        for (cell, idx) in self.journal[j..j + m].iter().zip(offsets) {
            // ord: Release — orders the slot's publication (its tag
            // store, earlier in program order) before the entry becomes
            // readable to journal walkers that acquire it.
            cell.store(link_of(idx), Ordering::Release);
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // Walk the claim journal, not the slot array: the journal holds
        // exactly the occupied slots (so a sparse segment costs O(live))
        // *in claim order*, which tracks tuple allocation order — and
        // freeing 100k heap objects in allocation order is several times
        // cheaper than freeing them in (randomised) hash order.
        //
        // SAFETY: a journal entry is only written after publication and
        // tombstoning never touches the payload, so every journaled slot
        // holds an initialised tuple; drop has exclusive access.
        let n = (*self.cursor.0.get_mut()).min(self.journal.len());
        for j in 0..n {
            let entry = *self.journal[j].get_mut();
            if entry == 0 {
                continue;
            }
            let idx = (entry - 1) as usize;
            // SAFETY: see the block comment above — journaled ⇒ published
            // ⇒ initialised, and `&mut self` gives exclusive access.
            unsafe { self.payload[idx].tuple.get_mut().assume_init_drop() };
        }
    }
}

/// The lock-free claim-then-publish tuple table behind
/// [`super::HashStore`].
pub(crate) struct ReservationTable {
    /// Lazily allocated segments; segment `k` has `initial << (2k)`
    /// slots (×4 growth keeps the chain short, since every probe walks
    /// the full paths of the filled earlier segments).
    segments: [AtomicPtr<Segment>; MAX_SEGMENTS],
    /// Capacity of segment 0 (a power of two).
    initial: usize,
    /// Published minus tombstoned tuples. Padded like the segments'
    /// cursors: written by inserts, next to headers every probe reads.
    len: Padded<AtomicUsize>,
    /// Tombstoned slots — dead tuples still physically allocated
    /// (slots are never reused). The stores' quiescent-point compaction
    /// watches this against `len` to decide when a rebuild pays.
    dead: Padded<AtomicUsize>,
    /// Whether segments carry secondary chain heads.
    with_index: bool,
}

/// What a slot of [`ReservationTable::segments`] holds while one thread
/// allocates that segment: not null (so nobody else allocates it too),
/// not a segment (never dereferenced — every load goes through
/// [`installed`]).
const ALLOCATING: *mut Segment = std::ptr::without_provenance_mut(1);

/// The segment behind a loaded `segments` pointer, if one is installed.
#[inline]
fn installed<'a>(ptr: *mut Segment) -> Option<&'a Segment> {
    if ptr == ALLOCATING {
        return None;
    }
    // SAFETY: null aside (`as_ref` maps it to None), a pointer that is not
    // the sentinel was installed by `segment_or_alloc` from a live Box and
    // is freed only when the table drops; callers bound `'a` by their
    // borrow of the table.
    unsafe { ptr.as_ref() }
}

// SAFETY: all shared mutation goes through the atomics; the UnsafeCells
// are written only by the slot's unique claimant (guaranteed by the
// EMPTY→RESERVED tag CAS) and read only after an acquire load observes
// a PUBLISHED tag, which the claimant's release store ordered after the
// writes. Tuple itself is Send + Sync.
unsafe impl Send for ReservationTable {}
unsafe impl Sync for ReservationTable {}

/// Hashes a sequence of values for probe placement and index chains.
pub(crate) fn hash_values<'a>(values: impl IntoIterator<Item = &'a crate::value::Value>) -> u64 {
    crate::fxhash::hash_seq(values)
}

/// Best-effort cache prefetch of the line holding `p`. A hint only —
/// any address is allowed, nothing is dereferenced.
#[inline(always)]
fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory effects; invalid addresses are
    // silently ignored by the hardware.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One turn of waiting for another thread's few instructions (a slot's
/// claim→publish window, a segment's allocation): spin, and once that
/// has not been enough — the other thread was preempted — yield rather
/// than burn the core.
#[inline]
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        jstar_check::sync::spin_loop();
    } else {
        jstar_check::sync::yield_now();
    }
}

/// Links published slot `idx` of `seg` into its bucket of `seg`'s own
/// chain heads. The link CAS is a release, so a reader that acquires the
/// head sees the slot fully published.
fn link_index(seg: &Segment, heads: &[AtomicU32], secondary: u64, idx: usize) {
    let head = &heads[(secondary as usize) & seg.mask];
    let payload = &seg.payload[idx];
    // ord: Acquire — the predecessor slot we link in front of must be
    // fully published before chain walkers can reach it via us.
    let mut current = head.load(Ordering::Acquire);
    loop {
        // ord: Relaxed — `next` only becomes reachable through the head
        // CAS below, whose Release publishes it.
        payload.next.store(current, Ordering::Relaxed);
        // ord: AcqRel/Acquire — Release publishes our `next` write (and
        // our already-published slot) to scanners' Acquire head loads;
        // Acquire re-reads the new predecessor on retry.
        match head.compare_exchange_weak(current, link_of(idx), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl ReservationTable {
    /// Creates a table with `capacity_hint` rounded up to a power of two
    /// (minimum 2^17 slots) as the first segment size. The floor is
    /// deliberately generous: every probe through a *grown* table pays a
    /// full-path walk in each filled earlier segment, so staying in one
    /// segment is worth the ~5 MB of lazily-mapped (`alloc_zeroed`, so
    /// untouched pages stay virtual) address space per table that
    /// actually stores tuples. `with_index` gives every segment its
    /// secondary chain heads — one per slot, because a chain is only as
    /// short as its key's multiplicity while the table has no more
    /// distinct index keys than heads (module docs).
    pub fn new(capacity_hint: usize, with_index: bool) -> ReservationTable {
        let initial = capacity_hint
            .clamp(MIN_INITIAL, 1 << 22)
            .next_power_of_two();
        ReservationTable {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            initial,
            len: Padded(AtomicUsize::new(0)),
            dead: Padded(AtomicUsize::new(0)),
            with_index,
        }
    }

    /// A table whose first segment has exactly `slots` slots (a power of
    /// two) — far below the production floor, so a test crosses segment
    /// boundaries with a handful of tuples.
    #[cfg(test)]
    pub fn with_first_segment(slots: usize, with_index: bool) -> ReservationTable {
        assert!(slots.is_power_of_two());
        let mut table = ReservationTable::new(slots, with_index);
        table.initial = slots; // no segment is allocated yet
        table
    }

    /// Whether segments carry secondary chain heads.
    #[cfg(test)]
    pub fn has_chain_heads(&self) -> bool {
        self.with_index
    }

    fn capacity_of(&self, k: usize) -> usize {
        self.initial << (2 * k).min(48)
    }

    fn segment(&self, k: usize) -> Option<&Segment> {
        // ord: Acquire — pairs with the allocator's Release install so the
        // segment's freshly allocated arrays are visible before use.
        installed(self.segments[k].load(Ordering::Acquire))
    }

    /// Returns segment `k`, allocating it if missing. **One allocator per
    /// segment**: the thread whose CAS turns the null slot into
    /// [`ALLOCATING`] allocates and installs; every other thread that
    /// finds the segment missing waits for that install instead of
    /// allocating (and zeroing, and freeing) megabytes of its own.
    fn segment_or_alloc(&self, k: usize) -> &Segment {
        let slot = &self.segments[k];
        let mut spins = 0u32;
        loop {
            // ord: Acquire — as in `segment`.
            let ptr = slot.load(Ordering::Acquire);
            if let Some(seg) = installed(ptr) {
                return seg;
            }
            if ptr.is_null() {
                let capacity = self.capacity_of(k);
                // Offsets travel as `u32` links (`link_of`). Checked before
                // the claim: a claim that never installs would strand the
                // waiters.
                assert!(
                    capacity < 1 << 32,
                    "segment {k} of {capacity} slots exceeds the 32-bit link space"
                );
                // ord: Relaxed/Relaxed — the claim publishes nothing (the
                // sentinel is never dereferenced) and a lost claim just
                // re-reads the slot with Acquire on the next turn.
                let claim = slot.compare_exchange(
                    std::ptr::null_mut(),
                    ALLOCATING,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                if claim.is_ok() {
                    #[cfg(test)]
                    SEGMENT_ALLOCS.with(|n| n.set(n.get() + 1));
                    let fresh = Box::into_raw(Box::new(Segment::new(capacity, self.with_index)));
                    // ord: Release — publishes the segment's arrays to
                    // the Acquire loads above and in `segment`.
                    slot.store(fresh, Ordering::Release);
                    // SAFETY: installed just now from a live Box; freed
                    // only when the table drops.
                    return unsafe { &*fresh };
                }
                continue;
            }
            // ALLOCATING: the claimant is inside `Segment::new`.
            backoff(&mut spins);
        }
    }

    /// Reads the tuple of a slot whose tag was observed `PUBLISHED` (or
    /// `TOMBSTONE`).
    ///
    /// SAFETY (caller): an acquire load of the slot's tag must have
    /// shown state `PUBLISHED` or `TOMBSTONE`.
    unsafe fn tuple_of(payload: &Payload) -> &Tuple {
        payload.tuple.with(|p| {
            // SAFETY: per the caller contract the claimant's release
            // store of the tag happened-before our acquire load, so the
            // MaybeUninit was fully written and is never written again.
            unsafe { (*p).assume_init_ref() }
        })
    }

    /// Waits out the claim→publish window of a reserved slot, returning
    /// the tag it settled into.
    fn await_published(tag: &AtomicU64) -> u64 {
        let mut spins = 0u32;
        loop {
            // ord: Acquire — once the claimant's Release publish is
            // observed, the payload writes it ordered are visible too.
            let t = tag.load(Ordering::Acquire);
            if t & STATE_MASK != RESERVED {
                return t;
            }
            backoff(&mut spins);
        }
    }

    /// Inserts `t`, detecting duplicates (and, for keyed tables, `->`
    /// conflicts) along the primary probe walk. `primary` must be the
    /// hash of `t`'s key fields under `def` ([`hash_values`] over
    /// [`Tuple::key_fields`]); `secondary` is the owner's index hash
    /// (ignored unless the table was built `with_index`). The batch of
    /// one: the same block routine as [`ReservationTable::insert_batch`].
    pub fn insert(&self, def: &TableDef, primary: u64, secondary: u64, t: Tuple) -> InsertOutcome {
        let mut outcome = [InsertOutcome::Duplicate];
        let hashes = |_: &Tuple| (primary, secondary);
        self.insert_block::<1>(def, std::slice::from_ref(&t), hashes, &mut outcome);
        outcome[0]
    }

    /// Inserts `tuples` in order, writing one outcome per tuple —
    /// duplicates and `->` conflicts *within* the batch included, exactly
    /// as a loop over [`ReservationTable::insert`] would report them.
    /// `hashes(t)` returns the `(primary, secondary)` pair `insert` takes.
    ///
    /// What the batch buys over the loop: per block of [`BATCH_BLOCK`]
    /// tuples the first-probe cache misses are issued together instead
    /// of one after another, and the two counters every insert shares
    /// with every other thread — `len` and the segment's journal
    /// `cursor` — are written once instead of once per tuple, with the
    /// block's journal cells contiguous (see the module docs). A batch
    /// of fewer than [`SMALL_BATCH`] tuples buys none of that and *is*
    /// the loop.
    pub fn insert_batch(
        &self,
        def: &TableDef,
        tuples: &[Tuple],
        mut hashes: impl FnMut(&Tuple) -> (u64, u64),
        outcomes: &mut [InsertOutcome],
    ) {
        assert_eq!(tuples.len(), outcomes.len(), "one outcome per tuple");
        if tuples.len() < SMALL_BATCH {
            for (t, out) in tuples.iter().zip(outcomes) {
                let one = std::slice::from_ref(t);
                self.insert_block::<1>(def, one, &mut hashes, std::slice::from_mut(out));
            }
            return;
        }
        let blocks = tuples.chunks(BATCH_BLOCK);
        for (block, outs) in blocks.zip(outcomes.chunks_mut(BATCH_BLOCK)) {
            self.insert_block::<BATCH_BLOCK>(def, block, &mut hashes, outs);
        }
    }

    /// One block (at most `N` tuples) of the batch protocol: hash and
    /// prefetch (skipped for the block of one, whose probe follows at
    /// once), claim → write → publish per tuple, then one `len` add, one
    /// ranged journal append per segment touched, and the index links.
    fn insert_block<const N: usize>(
        &self,
        def: &TableDef,
        block: &[Tuple],
        mut hashes: impl FnMut(&Tuple) -> (u64, u64),
        outcomes: &mut [InsertOutcome],
    ) {
        let mut hashed = [(0u64, 0u64); N];
        for (h, t) in hashed.iter_mut().zip(block) {
            *h = hashes(t);
        }
        if N > 1 {
            // Every probe walk starts in segment 0 (that is where a
            // duplicate would be met first); claims land in the newest
            // segment once the earlier ones are full. Those are the lines
            // worth having early. (The block of one probes at once.)
            let seg0 = self.segment_or_alloc(0);
            let newest = (1..MAX_SEGMENTS).map_while(|k| self.segment(k)).last();
            let newest = newest.unwrap_or(seg0);
            for &(primary, _) in &hashed[..block.len()] {
                let at = primary as usize;
                prefetch(std::ptr::addr_of!(seg0.tags[at & seg0.mask]) as *const u8);
                prefetch(std::ptr::addr_of!(newest.tags[at & newest.mask]) as *const u8);
                prefetch(std::ptr::addr_of!(newest.payload[at & newest.mask]) as *const u8);
            }
        }

        // Where each fresh tuple was published: its segment (`NOT_FRESH`
        // for the others) and its slot's offset there.
        const NOT_FRESH: u8 = u8::MAX;
        let mut placed = [(NOT_FRESH, 0u32); N];
        let (mut fresh, mut touched) = (0usize, 0u32);
        for (i, t) in block.iter().enumerate() {
            let (primary, secondary) = hashed[i];
            outcomes[i] = match self.claim_publish(def, primary, secondary, t) {
                Ok((k, idx)) => {
                    placed[i] = (k as u8, idx as u32);
                    fresh += 1;
                    touched |= 1 << k;
                    InsertOutcome::Fresh
                }
                Err(outcome) => outcome,
            };
        }
        if fresh == 0 {
            return;
        }

        // ord: Relaxed — len is a statistic, not a synchronisation edge.
        self.len.0.fetch_add(fresh, Ordering::Relaxed);
        // Journal cells are reserved only now — every tag above is
        // PUBLISHED and the fresh count is known — so no cell is ever
        // reserved for a tuple that turns out a duplicate (a cell left
        // zero would stop `journal_stable_prefix` short for good).
        while touched != 0 {
            let k = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            // lint: allow(expect): a slot was just published in segment k.
            let seg = self.segment(k).expect("published slot's segment exists");
            let here = |at: &&(u8, u32)| at.0 as usize == k;
            seg.journal_append(
                placed.iter().filter(here).count(),
                placed.iter().filter(here).map(|at| at.1 as usize),
            );
            if let Some(heads) = &seg.heads {
                for (at, &(_, secondary)) in placed.iter().zip(&hashed) {
                    if here(&at) {
                        link_index(seg, heads, secondary, at.1 as usize);
                    }
                }
            }
        }
    }

    /// The claim → write → publish protocol for one tuple: walks
    /// `primary`'s probe sequence, and either publishes a clone of `t`
    /// into the first `EMPTY` slot (returning its segment and offset —
    /// the caller journals and links it) or reports the duplicate / key
    /// conflict met on the way.
    fn claim_publish(
        &self,
        def: &TableDef,
        primary: u64,
        secondary: u64,
        t: &Tuple,
    ) -> Result<(usize, usize), InsertOutcome> {
        let keyed = def.key_arity.is_some();
        let my_hash = primary & HASH_MASK;
        for k in 0..MAX_SEGMENTS {
            let seg = self.segment_or_alloc(k);
            let start = primary as usize;
            for i in 0..PROBE_LIMIT.min(seg.tags.len()) {
                let idx = (start + i) & seg.mask;
                let tag = &seg.tags[idx];
                // ord: Acquire — a PUBLISHED tag must make the payload
                // visible before `tuple_of` dereferences it.
                let mut current = tag.load(Ordering::Acquire);
                loop {
                    if current == EMPTY_TAG {
                        // ord: Acquire/Acquire — claiming publishes
                        // nothing (the payload is written *after* the
                        // CAS), so no Release is needed; both outcomes
                        // take Acquire because a lost race may leave a
                        // published slot whose payload we go on to read.
                        match tag.compare_exchange(
                            EMPTY_TAG,
                            my_hash | RESERVED,
                            Ordering::Acquire,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                // Cloned out here: the count bump is an
                                // atomic of its own and must not run
                                // inside the cell accesses below.
                                let (filter, row) = (secondary_filter(secondary), t.clone());
                                let payload = &seg.payload[idx];
                                // SAFETY: the claim CAS makes this thread
                                // the slot's unique writer; no reader
                                // dereferences the payload until the
                                // Release store below.
                                payload.secondary.with_mut(|p| unsafe { *p = filter });
                                payload.tuple.with_mut(|p| unsafe { (*p).write(row) });
                                // ord: Release — publishes the payload
                                // writes above; pairs with every reader's
                                // Acquire load of this tag.
                                tag.store(my_hash | PUBLISHED, Ordering::Release);
                                return Ok((k, idx));
                            }
                            Err(actual) => {
                                // Lost the claim race: re-examine what
                                // the winner is publishing.
                                current = actual;
                                continue;
                            }
                        }
                    }
                    // Occupied. Only tuples whose tag hash matches ours
                    // can be duplicates or key conflicts — anything else
                    // is just a slot to walk past.
                    if current & HASH_MASK != my_hash {
                        break;
                    }
                    match current & STATE_MASK {
                        RESERVED => {
                            // A matching tuple is mid-publish: must know
                            // what lands here before deciding.
                            current = Self::await_published(tag);
                            continue;
                        }
                        TOMBSTONE => break,
                        _ => {
                            // PUBLISHED with a matching hash. SAFETY:
                            // acquire-observed published tag.
                            let existing = unsafe { Self::tuple_of(&seg.payload[idx]) };
                            if existing == t {
                                return Err(InsertOutcome::Duplicate);
                            }
                            if keyed && pk_conflict(def, existing, t) {
                                return Err(InsertOutcome::KeyConflict);
                            }
                            break;
                        }
                    }
                }
            }
        }
        unreachable!("reservation table exhausted {MAX_SEGMENTS} segments");
    }

    /// True if an identical tuple is published. `primary` as in
    /// [`ReservationTable::insert`].
    pub fn contains(&self, primary: u64, t: &Tuple) -> bool {
        let mut found = false;
        self.probe_primary(primary, &mut |existing| {
            if existing == t {
                found = true;
                return false;
            }
            true
        });
        found
    }

    /// Visits every published tuple on `primary`'s probe walk whose tag
    /// hash matches; stop early by returning `false`.
    ///
    /// Because inserts claim the first empty slot of the same walk, all
    /// matching tuples lie before the walk's first currently-empty slot
    /// — so this terminates at the first `EMPTY` without missing
    /// anything, exactly like the insert-side scan.
    pub fn probe_primary(&self, primary: u64, f: &mut dyn FnMut(&Tuple) -> bool) {
        let my_hash = primary & HASH_MASK;
        for k in 0..MAX_SEGMENTS {
            let Some(seg) = self.segment(k) else { return };
            let start = primary as usize;
            for i in 0..PROBE_LIMIT.min(seg.tags.len()) {
                let idx = (start + i) & seg.mask;
                // ord: Acquire — pairs with the claimant's Release
                // publish so `tuple_of` sees the full payload.
                let tag = seg.tags[idx].load(Ordering::Acquire);
                if tag == EMPTY_TAG {
                    return;
                }
                // Reserved-but-matching ⇒ not yet published ⇒ not yet
                // visible; tombstoned ⇒ no longer visible.
                if tag & HASH_MASK == my_hash && tag & STATE_MASK == PUBLISHED {
                    // SAFETY: acquire-observed published tag.
                    if !f(unsafe { Self::tuple_of(&seg.payload[idx]) }) {
                        return;
                    }
                }
            }
        }
    }

    /// Walks the chains of `secondary`'s bucket — segment 0's, then
    /// segment 1's, … — visiting published tuples whose stored filter
    /// matches; stop early by returning `false`. The filter is half the
    /// hash: callers re-check what they are handed against their query.
    /// Panics if the table was built without an index.
    pub fn scan_index(&self, secondary: u64, f: &mut dyn FnMut(&Tuple) -> bool) {
        assert!(
            self.with_index,
            "scan_index on a table built without an index"
        );
        let filter = secondary_filter(secondary);
        for k in 0..MAX_SEGMENTS {
            let Some(seg) = self.segment(k) else { return };
            // (Every segment of an indexed table has heads.)
            let Some(heads) = &seg.heads else { return };
            // ord: Acquire — pairs with link_index's Release CAS: the head
            // entry's slot and its `next` write are visible.
            let mut link = heads[(secondary as usize) & seg.mask].load(Ordering::Acquire);
            while link != NIL {
                #[cfg(test)]
                CHAIN_HOPS.with(|n| n.set(n.get() + 1));
                let idx = (link - 1) as usize;
                // Linked ⇒ published (links happen after publication); the
                // tag read only distinguishes live from tombstoned.
                // ord: Acquire — as in probe_primary.
                let tag = seg.tags[idx].load(Ordering::Acquire);
                let payload = &seg.payload[idx];
                if tag & STATE_MASK == PUBLISHED
                    // SAFETY: acquire-observed published tag (both reads).
                    && payload.secondary.with(|p| unsafe { *p }) == filter
                    && !f(unsafe { Self::tuple_of(payload) })
                {
                    return;
                }
                // ord: Acquire — chain traversal: the next entry's slot
                // must be visible before we dereference it.
                link = payload.next.load(Ordering::Acquire);
            }
        }
    }

    /// Number of live (published, not tombstoned) tuples.
    pub fn len(&self) -> usize {
        // ord: Relaxed — statistic only.
        self.len.0.load(Ordering::Relaxed)
    }

    /// Visits every live tuple (in claim order within each segment);
    /// stop early by returning `false`. Walks the claim journal, so the
    /// cost scales with tuples ever published, not slot capacity.
    pub fn for_each(&self, f: &mut dyn FnMut(&Tuple) -> bool) {
        for k in 0..MAX_SEGMENTS {
            let Some(seg) = self.segment(k) else { return };
            // ord: Acquire — cursor only bounds the walk; each entry's
            // visibility rides on its own Release store (0 ⇒ skip).
            let n = seg.cursor.0.load(Ordering::Acquire).min(seg.journal.len());
            for j in 0..n {
                // ord: Acquire — pairs with journal_push's Release, so
                // the published slot behind the entry is visible.
                let entry = seg.journal[j].load(Ordering::Acquire);
                if entry == 0 {
                    continue; // append in flight — not yet visible
                }
                let idx = (entry - 1) as usize;
                // ord: Acquire — as in probe_primary.
                if seg.tags[idx].load(Ordering::Acquire) & STATE_MASK == PUBLISHED {
                    // SAFETY: acquire-observed published tag.
                    if !f(unsafe { Self::tuple_of(&seg.payload[idx]) }) {
                        return;
                    }
                }
            }
        }
    }

    /// The number of claim-journal entries across all segments — the
    /// position space [`ReservationTable::for_each_journal_range`]
    /// partitions, in-flight and tombstoned entries included (the range
    /// walk skips them) — and, from the same read of each cursor, the
    /// [`IndexStamp::interior`] word: the entries of every
    /// segment but the newest, under that segment's number. Positions
    /// count through the segments in order and a probe claims the first
    /// empty slot it meets — in an old segment too, long after a newer
    /// one exists — so an entry can appear ahead of positions a reader
    /// already holds. It cannot without moving this word: the count only
    /// grows, and a new segment raises the number.
    pub fn journal_shape(&self) -> (usize, u64) {
        let (mut entries, mut newest, mut in_newest) = (0, 0, 0);
        for k in 0..MAX_SEGMENTS {
            let Some(seg) = self.segment(k) else { break };
            // ord: Acquire — as in for_each.
            in_newest = seg.cursor.0.load(Ordering::Acquire).min(seg.journal.len());
            entries += in_newest;
            newest = k as u64;
        }
        (entries, newest << 56 | (entries - in_newest) as u64)
    }

    /// Visits the live tuples at global claim-journal positions
    /// `lo..hi` (segments concatenated in order — the same enumeration
    /// [`ReservationTable::for_each`] walks). Covering a partition of
    /// `0..journal_shape().0` chunk by chunk yields exactly the
    /// `for_each` sequence, which is what lets snapshot export encode
    /// chunks on separate threads yet still produce a byte-identical
    /// image. Callers must hold the quiescence the snapshot path
    /// already guarantees: concurrent inserts would move the cursor
    /// between the caller's partitioning and this walk.
    ///
    /// Unlike `for_each`, this walk prefetches a lookahead window:
    /// each visit chases a journal → tag/payload → row chain of
    /// dependent cache misses over hash-scattered slots, and that
    /// latency — not the encode arithmetic — is what dominates a
    /// snapshot of a large table. Issuing the chain's loads a few
    /// entries ahead (the deeper level at the shorter distance, so the
    /// slot's prefetch has landed before the row pointer is read
    /// through it) overlaps the misses with the current tuple's encode
    /// work. A row is one allocation — header and fields together — so
    /// its one prefetch is the last level.
    pub fn for_each_journal_range(&self, lo: usize, hi: usize, f: &mut dyn FnMut(&Tuple)) {
        // Lookahead distances: tag/payload cells first, then the row.
        const PF_SLOT: usize = 32;
        const PF_TUPLE: usize = 16;
        let mut base = 0usize;
        for k in 0..MAX_SEGMENTS {
            if base >= hi {
                return;
            }
            let Some(seg) = self.segment(k) else { return };
            // ord: Acquire — as in for_each.
            let n = seg.cursor.0.load(Ordering::Acquire).min(seg.journal.len());
            let start = lo.saturating_sub(base).min(n);
            let end = hi.saturating_sub(base).min(n);
            // Published tuple (if any) at journal position `j`.
            let tuple_at = |j: usize| -> Option<&Tuple> {
                // ord: Acquire ×2 — as in for_each.
                let entry = seg.journal[j].load(Ordering::Acquire);
                if entry == 0 {
                    return None; // append in flight — not yet visible
                }
                let idx = (entry - 1) as usize;
                if seg.tags[idx].load(Ordering::Acquire) & STATE_MASK == PUBLISHED {
                    // SAFETY: acquire-observed published tag.
                    Some(unsafe { Self::tuple_of(&seg.payload[idx]) })
                } else {
                    None
                }
            };
            // Software pipeline: each position is resolved exactly once
            // — PF_TUPLE entries ahead of its visit, right after its
            // slot prefetch has landed — and parked in a ring the visit
            // reads back, instead of re-chasing the journal → tag →
            // payload loads. The ring holds the `PF_TUPLE` in-flight
            // positions.
            let mut ring: [Option<&Tuple>; PF_TUPLE] = [None; PF_TUPLE];
            for j in start..(start + PF_TUPLE).min(end) {
                let t = tuple_at(j);
                if let Some(t) = t {
                    prefetch(t.heap_ptr());
                }
                ring[j % PF_TUPLE] = t;
            }
            for j in start..end {
                if j + PF_SLOT < end {
                    // ord: Relaxed — prefetch hint only; the real read
                    // happens in tuple_at with Acquire.
                    let entry = seg.journal[j + PF_SLOT].load(Ordering::Relaxed);
                    if entry != 0 {
                        let idx = (entry - 1) as usize;
                        prefetch(std::ptr::addr_of!(seg.tags[idx]) as *const u8);
                        prefetch(std::ptr::addr_of!(seg.payload[idx]) as *const u8);
                    }
                }
                // Take this visit's tuple before its ring slot is
                // recycled for the position PF_TUPLE ahead.
                let cur = ring[j % PF_TUPLE];
                if j + PF_TUPLE < end {
                    let t = tuple_at(j + PF_TUPLE);
                    if let Some(t) = t {
                        prefetch(t.heap_ptr());
                    }
                    ring[j % PF_TUPLE] = t;
                }
                if let Some(t) = cur {
                    f(t);
                }
            }
            base += n;
        }
    }

    /// Tombstones every live tuple `keep` rejects. Rejected tuples stay
    /// allocated (slots are never reused) but disappear from all reads.
    pub fn retain(&self, keep: &dyn Fn(&Tuple) -> bool) {
        for k in 0..MAX_SEGMENTS {
            let Some(seg) = self.segment(k) else { return };
            // ord: Acquire ×3 — as in for_each.
            let n = seg.cursor.0.load(Ordering::Acquire).min(seg.journal.len());
            for j in 0..n {
                let entry = seg.journal[j].load(Ordering::Acquire);
                if entry == 0 {
                    continue;
                }
                let idx = (entry - 1) as usize;
                let tag = &seg.tags[idx];
                let current = tag.load(Ordering::Acquire);
                if current & STATE_MASK == PUBLISHED {
                    // SAFETY: acquire-observed published tag; tombstoning
                    // never touches the payload, so concurrent readers'
                    // references stay valid.
                    let t = unsafe { Self::tuple_of(&seg.payload[idx]) };
                    // ord: AcqRel/Relaxed — success keeps the tombstone
                    // ordered after our payload read; on failure another
                    // thread already tombstoned this slot and there is
                    // nothing new to observe.
                    if !keep(t)
                        && tag
                            .compare_exchange(
                                current,
                                (current & HASH_MASK) | TOMBSTONE,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        // ord: Relaxed ×2 — statistics only.
                        self.len.0.fetch_sub(1, Ordering::Relaxed);
                        self.dead.0.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Number of tombstoned (dead but still allocated) slots.
    pub fn tombstones(&self) -> usize {
        // ord: Relaxed — statistic only.
        self.dead.0.load(Ordering::Relaxed)
    }

    /// Clamps `hi` to the longest in-order journal prefix of `lo..hi`
    /// with no append still in flight: the returned bound `s` satisfies
    /// `lo <= s <= hi` and every journal entry in `lo..s` is non-zero —
    /// i.e. its tuple's publish ([`Segment::journal_push`] runs *after*
    /// the tag's Release store) is visible to this thread. A column-view
    /// build stops at such a bound, and the snapshot writer stamps what
    /// it read with one, so a tuple whose journal entry was mid-append
    /// then is read by the next walk (the next open's build, the
    /// writer's next append), never skipped.
    pub fn journal_stable_prefix(&self, lo: usize, hi: usize) -> usize {
        let mut base = 0usize;
        for k in 0..MAX_SEGMENTS {
            if base >= hi {
                return hi;
            }
            let Some(seg) = self.segment(k) else {
                return hi.min(base);
            };
            // ord: Acquire — as in for_each.
            let n = seg.cursor.0.load(Ordering::Acquire).min(seg.journal.len());
            let start = lo.saturating_sub(base).min(n);
            let end = hi.saturating_sub(base).min(n);
            for j in start..end {
                // ord: Acquire — pairs with journal_push's Release; a
                // non-zero entry proves the slot behind it is published.
                if seg.journal[j].load(Ordering::Acquire) == 0 {
                    return base + j; // append in flight — stop here
                }
            }
            base += n;
        }
        hi.min(base)
    }
}

/// Where a store's claim journal stands
/// ([`crate::gamma::TableStore::index_stamp`]): a column-view build walks
/// the journal up to its `generation`, and the snapshot writer
/// ([`crate::persist::CheckpointWriter`]) reuses what it encoded under an
/// earlier stamp when [`IndexStamp::extends`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStamp {
    /// Quiescent-replacement count of the backing table: compaction and
    /// snapshot import.
    pub epoch: u64,
    /// Claim-journal length (an entry *count*; in-flight appends make
    /// the usable bound smaller — a journal walk returns the bound it
    /// covered).
    pub generation: usize,
    /// Tombstoned-slot count of the backing table: a lifetime-hint
    /// `retain` kills tuples without touching the journal.
    pub tombstones: usize,
    /// Journal entries ahead of the newest segment's, with that
    /// segment's number above them (bits 56..): unchanged means no entry
    /// was claimed before a position already handed out (see
    /// `ReservationTable::journal_shape`).
    pub interior: u64,
}

impl IndexStamp {
    /// True when everything stamped `earlier` still sits at the journal
    /// positions it had then, so what was read from `[0,
    /// earlier.generation)` stands and the walk of `[earlier.generation,
    /// self.generation)` is exactly what is new — the snapshot writer's
    /// rule for appending to the sections it encoded.
    pub fn extends(&self, earlier: &IndexStamp) -> bool {
        self.epoch == earlier.epoch
            && self.tombstones == earlier.tombstones
            && self.interior == earlier.interior
            && self.generation >= earlier.generation
    }
}

/// A [`ReservationTable`] slot that supports **quiescent replacement** —
/// the stores' compaction hook.
///
/// Normal operation is one acquire load away from the plain table: every
/// reader/writer goes through [`SwappableTable::get`]. Compaction
/// ([`SwappableTable::replace_quiescent`]) swaps in a freshly rebuilt
/// table and frees the old one immediately, which is only sound under
/// the engine's quiescence contract (see
/// [`crate::gamma::TableStore::maybe_compact`]): no other thread may be
/// inside the store — or hold a reference obtained from it — for the
/// duration of the call. The engine guarantees that by compacting only
/// at the coordinator's maintain phase, after the step's fork/join
/// scope has joined.
pub(crate) struct SwappableTable {
    ptr: AtomicPtr<ReservationTable>,
    /// Bumped by every [`SwappableTable::replace_quiescent`] — both
    /// compaction and snapshot import. The snapshot writer records the
    /// epoch it encoded a section under; a mismatch means journal
    /// positions no longer line up and the section is encoded whole.
    epoch: AtomicU64,
}

impl SwappableTable {
    pub fn new(table: ReservationTable) -> SwappableTable {
        SwappableTable {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(table))),
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of wholesale replacements so far (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        // ord: Acquire — pairs with replace_quiescent's Release bump so
        // an observer that sees the new epoch also sees the swap that
        // caused it (belt and braces under the quiescence contract).
        self.epoch.load(Ordering::Acquire)
    }

    /// The current table.
    #[inline]
    pub fn get(&self) -> &ReservationTable {
        // ord: Acquire — pairs with replace_quiescent's AcqRel swap so
        // the fresh table's contents are visible even to threads whose
        // only edge to the swap is this load (belt and braces: the
        // quiescence contract already orders replacement).
        //
        // SAFETY: the pointer is always a live Box installed by `new` or
        // `replace_quiescent`; replacement only happens when no reference
        // is outstanding (the quiescence contract), so dereferencing for
        // `&self`'s lifetime is sound.
        unsafe { &*self.ptr.load(Ordering::Acquire) }
    }

    /// Replaces the table, dropping the old one. Quiescent-point only —
    /// see the type docs.
    pub fn replace_quiescent(&self, fresh: ReservationTable) {
        // ord: AcqRel — Release publishes the fresh table's contents to
        // readers' Acquire loads; Acquire orders the old table's teardown
        // after every prior access to it.
        let old = self
            .ptr
            .swap(Box::into_raw(Box::new(fresh)), Ordering::AcqRel);
        // ord: Release — the epoch bump is ordered after the swap above,
        // so a reader that observes the new epoch (Acquire in `epoch`)
        // cannot still resolve journal positions against the old table.
        self.epoch.fetch_add(1, Ordering::Release);
        // SAFETY: `old` was the installed Box; the quiescence contract
        // says no reader holds a reference into it.
        drop(unsafe { Box::from_raw(old) });
    }

    /// The shared body of the stores'
    /// [`crate::gamma::TableStore::insert_batch`]: appends one outcome
    /// per tuple, filled in by [`ReservationTable::insert_batch`].
    pub fn insert_batch(
        &self,
        def: &TableDef,
        tuples: &[Tuple],
        hashes: impl FnMut(&Tuple) -> (u64, u64),
        outcomes: &mut Vec<InsertOutcome>,
    ) {
        let at = outcomes.len();
        outcomes.resize(at + tuples.len(), InsertOutcome::Duplicate);
        self.get()
            .insert_batch(def, tuples, hashes, &mut outcomes[at..]);
    }

    /// The current [`IndexStamp`] of this table — the shared body of the
    /// stores' [`crate::gamma::TableStore::index_stamp`].
    pub fn index_stamp(&self) -> IndexStamp {
        let t = self.get();
        let (generation, interior) = t.journal_shape();
        IndexStamp {
            epoch: self.epoch(),
            generation,
            tombstones: t.tombstones(),
            interior,
        }
    }

    /// The shared body of the stores'
    /// [`crate::gamma::TableStore::for_each_journal_suffix`]: clamps
    /// `hi` to the stable journal prefix (no in-flight append skipped),
    /// walks the live tuples of `[lo, clamped)` in journal order, and
    /// returns the clamped bound.
    pub fn for_each_journal_suffix(
        &self,
        lo: usize,
        hi: usize,
        f: &mut dyn FnMut(&Tuple),
    ) -> usize {
        let t = self.get();
        let stable = t.journal_stable_prefix(lo, hi);
        t.for_each_journal_range(lo, stable, f);
        stable
    }

    /// True when more than `max_fraction` of the ever-occupied slots are
    /// tombstones (and at least one is).
    pub fn needs_compaction(&self, max_fraction: f64) -> bool {
        let t = self.get();
        let dead = t.tombstones();
        let live = t.len();
        dead > 0 && (dead as f64) > max_fraction * ((dead + live) as f64)
    }

    /// The shared quiescent-rebuild protocol behind the stores'
    /// [`crate::gamma::TableStore::maybe_compact`]: if the tombstone
    /// fraction exceeds `max_fraction`, re-place every live tuple into
    /// a fresh table sized for the live count and swap it in —
    /// tombstoned slots, their probe shadows and their stale chain
    /// links all vanish at once. Returns true when a rebuild ran.
    ///
    /// `hashes(t)` must return the `(primary, secondary)` pair the
    /// owning store passes to [`ReservationTable::insert`] — the store
    /// recomputes them because the table itself cannot (the tag words
    /// only keep the high primary-hash bits). Quiescent-point only: see
    /// the type docs for the exclusivity contract.
    pub fn compact_quiescent(
        &self,
        def: &TableDef,
        max_fraction: f64,
        with_index: bool,
        mut hashes: impl FnMut(&Tuple) -> (u64, u64),
    ) -> bool {
        if !self.needs_compaction(max_fraction) {
            return false;
        }
        let old = self.get();
        let fresh = ReservationTable::new(old.len().max(1), with_index);
        old.for_each(&mut |t| {
            let (primary, secondary) = hashes(t);
            fresh.insert(def, primary, secondary, t.clone());
            true
        });
        self.replace_quiescent(fresh);
        true
    }

    /// The shared body of the stores'
    /// [`crate::gamma::TableStore::begin_import`] — see [`TableImport`].
    /// `rows` sizes the fresh table; `hashes` as in
    /// [`SwappableTable::compact_quiescent`].
    pub fn begin_import<'a>(
        &'a self,
        def: &'a TableDef,
        with_index: bool,
        rows: usize,
        hashes: impl FnMut(&Tuple) -> (u64, u64) + 'a,
    ) -> Box<dyn super::StagedImport + 'a> {
        Box::new(TableImport {
            table: self,
            def,
            fresh: ReservationTable::new(rows.max(1), with_index),
            hashes,
        })
    }
}

/// A snapshot restore into a [`SwappableTable`], in two moves.
/// **Build**: a fresh table sized for the incoming count takes the rows
/// batch by batch as the reader decodes them — so each row is inserted
/// while it is still in cache, and the table's arrays are allocated ahead
/// of the rows they will hold — through the one insert path there is,
/// [`ReservationTable::insert_batch`] — 32-wide blocks, probe lines
/// prefetched, one `len` add and one journal claim per block — with the
/// duplicate and `->` checks on, and the rows that came out anything but
/// `Fresh` are counted: a snapshot is a set, so a repeated row or two
/// rows under one key mean the file is corrupt, checksum or not. Nothing
/// of the live table is touched, so the restore can still be called off
/// (another table's rows may be the bad ones). **Commit**:
/// [`SwappableTable::replace_quiescent`] swaps the fresh table in,
/// bumping the epoch — quiescent-point only (see that type's docs).
/// Import is O(incoming) whatever the old table held.
struct TableImport<'a, H> {
    table: &'a SwappableTable,
    def: &'a TableDef,
    fresh: ReservationTable,
    hashes: H,
}

impl<H: FnMut(&Tuple) -> (u64, u64)> super::StagedImport for TableImport<'_, H> {
    fn push(&mut self, rows: &mut Vec<Tuple>) -> usize {
        let mut outcomes = [InsertOutcome::Fresh; 32 * BATCH_BLOCK];
        let mut rejected = 0;
        for run in rows.chunks(outcomes.len()) {
            let outcomes = &mut outcomes[..run.len()];
            self.fresh
                .insert_batch(self.def, run, &mut self.hashes, outcomes);
            rejected += outcomes
                .iter()
                .filter(|o| **o != InsertOutcome::Fresh)
                .count();
        }
        rows.clear();
        rejected
    }

    fn commit(self: Box<Self>) -> usize {
        self.table.replace_quiescent(self.fresh);
        0
    }
}

impl Drop for SwappableTable {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the pointer is the installed Box.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

// SAFETY: the inner table is Send + Sync; the pointer is only mutated
// under the quiescence contract documented above.
unsafe impl Send for SwappableTable {}
unsafe impl Sync for SwappableTable {}

impl Drop for ReservationTable {
    fn drop(&mut self) {
        for seg in &mut self.segments {
            let ptr = *seg.get_mut();
            // (A slot left ALLOCATING — its claimant died inside
            // `Segment::new` — owns nothing.)
            if installed(ptr).is_some() {
                // SAFETY: installed via Box::into_raw, dropped exactly
                // once here.
                drop(unsafe { Box::from_raw(ptr) });
            }
        }
    }
}

// Test-side counters, per thread (the test harness runs tests on threads
// of their own, and the model checker's racers report theirs when they
// finish): chain hops `scan_index` made, segments `segment_or_alloc`
// allocated.
#[cfg(test)]
thread_local! {
    static CHAIN_HOPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static SEGMENT_ALLOCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The chain links this thread's `scan_index` calls have followed.
#[cfg(test)]
pub(crate) fn chain_hops() -> usize {
    CHAIN_HOPS.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::testutil::{keyed_def, kt, set_def};
    use crate::schema::TableId;
    use crate::value::Value;
    use std::sync::Arc;

    fn primary_of(def: &TableDef, t: &Tuple) -> u64 {
        hash_values(t.key_fields(def))
    }

    #[test]
    fn claim_publish_roundtrip() {
        let def = keyed_def();
        let table = ReservationTable::new(16, false);
        let t = kt(1, 10, "x");
        let p = primary_of(&def, &t);
        assert_eq!(table.insert(&def, p, 0, t.clone()), InsertOutcome::Fresh);
        assert_eq!(
            table.insert(&def, p, 0, t.clone()),
            InsertOutcome::Duplicate
        );
        assert!(table.contains(p, &t));
        assert_eq!(table.len(), 1);
        let conflict = kt(1, 11, "x");
        assert_eq!(
            table.insert(&def, primary_of(&def, &conflict), 0, conflict),
            InsertOutcome::KeyConflict
        );
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn grows_past_the_first_segment() {
        let def = set_def();
        let table = ReservationTable::new(1, false);
        // Far more tuples than the floor-sized first segment (2^17
        // slots) holds, so the walk crosses segment boundaries.
        let n = 200_000i64;
        for i in 0..n {
            let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
            let p = primary_of(&def, &t);
            assert_eq!(table.insert(&def, p, 0, t), InsertOutcome::Fresh);
        }
        assert_eq!(table.len(), n as usize);
        let mut seen = 0;
        table.for_each(&mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, n);
        // Every tuple still findable (dedup across segments).
        for i in (0..n).step_by(971) {
            let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
            assert_eq!(
                table.insert(&def, primary_of(&def, &t), 0, t),
                InsertOutcome::Duplicate
            );
        }
    }

    #[test]
    fn secondary_chain_narrows_scans() {
        let def = set_def();
        let table = ReservationTable::new(64, true);
        for i in 0..500i64 {
            let t = Tuple::new(TableId(0), vec![Value::Int(i % 5), Value::Int(i)]);
            let p = primary_of(&def, &t);
            let s = hash_values([t.get(0)]);
            table.insert(&def, p, s, t);
        }
        let want = hash_values([&Value::Int(3)]);
        let mut got = 0;
        table.scan_index(want, &mut |t| {
            if t.get(0) == &Value::Int(3) {
                got += 1;
            }
            true
        });
        assert_eq!(got, 100);
    }

    /// Chain length must follow the key's multiplicity, not the table's
    /// size: 100,000 distinct index keys of two tuples each, and a scan
    /// meets its own two tuples plus the few strangers that collide at
    /// the segment's load. (A head array capped at 16,384 for the whole
    /// table puts a dozen entries in every bucket here.)
    #[test]
    fn chains_stay_as_short_as_their_keys_multiplicity() {
        let def = set_def();
        let table = ReservationTable::new(1 << 17, true);
        let keys = 100_000i64;
        let row = |key: i64, n: i64| Tuple::new(TableId(0), vec![Value::Int(key), Value::Int(n)]);
        for key in 0..keys {
            for n in 0..2 {
                let t = row(key, n);
                let s = hash_values([t.get(0)]);
                table.insert(&def, primary_of(&def, &t), s, t);
            }
        }
        assert!(
            table.segment(1).is_some() && table.segment(2).is_none(),
            "200k tuples overflow the 2^17-slot first segment into the second"
        );
        CHAIN_HOPS.with(|n| n.set(0));
        let probes = (0..keys).step_by(7);
        let scans = probes.clone().count();
        for key in probes {
            // Exactly this key's tuples, wherever growth put them (the
            // filter is half a hash: count by the field, as queries do).
            let mut own = Vec::new();
            table.scan_index(hash_values([&Value::Int(key)]), &mut |t| {
                if t.int(0) == key {
                    own.push(t.int(1));
                }
                true
            });
            own.sort();
            assert_eq!(own, vec![0, 1], "key {key}");
        }
        let hops = CHAIN_HOPS.with(|n| n.get()) as f64 / scans as f64;
        assert!(
            hops <= 4.0,
            "{hops:.2} hops per scan: chains hold other keys' tuples"
        );
    }

    /// A key whose tuples straddle a growth boundary is scanned whole:
    /// segment 0's chain, then segment 1's.
    #[test]
    fn a_scan_follows_its_key_across_segments() {
        let def = set_def();
        let table = ReservationTable::with_first_segment(16, true);
        let row = |n: i64| Tuple::new(TableId(0), vec![Value::Int(n % 3), Value::Int(n)]);
        for n in 0..90 {
            let t = row(n);
            let s = hash_values([t.get(0)]);
            table.insert(&def, primary_of(&def, &t), s, t);
        }
        assert!(table.segment(2).is_some(), "90 tuples fill 16 + 64 slots");
        for key in 0..3 {
            let mut got = Vec::new();
            table.scan_index(hash_values([&Value::Int(key)]), &mut |t| {
                if t.int(0) == key {
                    got.push(t.int(1));
                }
                true
            });
            got.sort();
            let want: Vec<i64> = (0..90).filter(|n| n % 3 == key).collect();
            assert_eq!(got, want);
        }
    }

    /// The slot layout the module docs promise (production types; the
    /// model checker's instrumented cells are wider).
    #[cfg(not(feature = "model-check"))]
    #[test]
    fn a_slot_payload_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Payload>(), 16);
        assert_eq!(std::mem::size_of::<Tuple>(), 8);
    }

    #[test]
    fn retain_tombstones_are_invisible_everywhere() {
        let def = set_def();
        let table = ReservationTable::new(64, true);
        for i in 0..100i64 {
            let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
            let p = primary_of(&def, &t);
            table.insert(&def, p, hash_values([t.get(0)]), t);
        }
        table.retain(&|t| t.int(0) < 10);
        assert_eq!(table.len(), 10);
        let mut seen = 0;
        table.for_each(&mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 10);
        let gone = Tuple::new(TableId(0), vec![Value::Int(50), Value::Int(50)]);
        assert!(!table.contains(primary_of(&def, &gone), &gone));
        let mut chain_hits = 0;
        table.scan_index(hash_values([gone.get(0)]), &mut |_| {
            chain_hits += 1;
            true
        });
        assert_eq!(chain_hits, 0);
    }

    #[test]
    fn racing_equal_inserts_yield_one_fresh() {
        let def = Arc::new(keyed_def());
        let table = Arc::new(ReservationTable::new(64, false));
        let pool = jstar_pool::ThreadPool::new(4);
        let fresh = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let table = Arc::clone(&table);
                let def = Arc::clone(&def);
                let fresh = &fresh;
                s.spawn(move |_| {
                    for a in 0..500 {
                        let t = kt(a, a, "v");
                        let p = primary_of(&def, &t);
                        if table.insert(&def, p, 0, t) == InsertOutcome::Fresh {
                            fresh.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(fresh.load(Ordering::Relaxed), 500);
        assert_eq!(table.len(), 500);
    }

    #[test]
    fn id_encoding_roundtrips() {
        // A link is the slot's offset plus one: never NIL, and back again
        // — up to the last offset of the largest segment allowed.
        for off in [0usize, 17, (1 << 32) - 2] {
            let link = link_of(off);
            assert_ne!(link, NIL);
            assert_eq!((link - 1) as usize, off);
        }
    }

    #[test]
    fn retain_counts_tombstones() {
        let def = set_def();
        let table = ReservationTable::new(64, false);
        for i in 0..100i64 {
            let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
            let p = primary_of(&def, &t);
            table.insert(&def, p, 0, t);
        }
        assert_eq!(table.tombstones(), 0);
        table.retain(&|t| t.int(0) < 25);
        assert_eq!(table.tombstones(), 75);
        assert_eq!(table.len(), 25);
        // Idempotent: already-dead slots are not re-counted.
        table.retain(&|t| t.int(0) < 25);
        assert_eq!(table.tombstones(), 75);
    }

    #[test]
    fn swappable_table_replacement_drops_the_old_table() {
        let def = set_def();
        let swap = SwappableTable::new(ReservationTable::new(16, false));
        for i in 0..50i64 {
            let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
            let p = primary_of(&def, &t);
            swap.get().insert(&def, p, 0, t);
        }
        swap.get().retain(&|t| t.int(0) < 10);
        assert!(swap.needs_compaction(0.5));
        assert!(!swap.needs_compaction(0.9));

        // Rebuild by hand, as the stores do.
        let fresh = ReservationTable::new(16, false);
        swap.get().for_each(&mut |t| {
            fresh.insert(&def, primary_of(&def, t), 0, t.clone());
            true
        });
        swap.replace_quiescent(fresh);
        assert_eq!(swap.get().len(), 10);
        assert_eq!(swap.get().tombstones(), 0);
        assert!(!swap.needs_compaction(0.0));
        let t = Tuple::new(TableId(0), vec![Value::Int(3), Value::Int(3)]);
        assert!(swap.get().contains(primary_of(&def, &t), &t));
    }

    #[test]
    fn import_builds_aside_through_the_checked_batch() {
        let def = set_def();
        let hashes = |t: &Tuple| (hash_values(t.key_fields(&def)), hash_values([t.get(0)]));
        let row = |a: i64, b: i64| Tuple::new(TableId(0), vec![Value::Int(a), Value::Int(b)]);
        let swap = SwappableTable::new(ReservationTable::new(16, true));
        // Pre-import contents (including tombstones) must vanish.
        for i in 0..20i64 {
            let (p, s) = hashes(&row(i, i));
            swap.get().insert(&def, p, s, row(i, i));
        }
        swap.get().retain(&|t| t.int(0) < 5);

        // Rows arrive in batches of any size: several 32-wide blocks
        // with a short last one, a batch of one, an empty one.
        let incoming: Vec<Tuple> = (100..250i64).map(|i| row(i % 7, i)).collect();
        let mut import = swap.begin_import(&def, true, incoming.len(), hashes);
        for batch in [&incoming[..100], &incoming[100..101], &[], &incoming[101..]] {
            let mut batch = batch.to_vec();
            assert_eq!(import.push(&mut batch), 0);
            assert!(batch.is_empty());
        }
        // Built aside: until the commit the old table is what readers see.
        assert_eq!((swap.get().len(), swap.epoch()), (5, 0));
        assert_eq!(import.commit(), 0);
        assert_eq!((swap.get().len(), swap.epoch()), (150, 1));

        assert_eq!(swap.get().tombstones(), 0);
        assert!(!swap.get().contains(hashes(&row(3, 3)).0, &row(3, 3)));
        assert!(swap.get().contains(hashes(&row(2, 100)).0, &row(2, 100)));
        // The journal is whole (one ranged claim per block, every cell
        // filled) and the secondary chains were rebuilt too.
        assert_eq!(swap.get().journal_stable_prefix(0, 150), 150);
        let mut chain_hits = 0;
        swap.get()
            .scan_index(hash_values([&Value::Int(3)]), &mut |t| {
                if t.get(0) == &Value::Int(3) {
                    chain_hits += 1;
                }
                true
            });
        assert_eq!(chain_hits, (100..250).filter(|i| i % 7 == 3).count());
        // Later inserts dedup against the imported rows.
        let (p, s) = hashes(&row(3, 101));
        assert_eq!(
            swap.get().insert(&def, p, s, row(3, 101)),
            InsertOutcome::Duplicate
        );

        // A repeated row is counted, wherever its twin sits — the same
        // block, a later one, an earlier batch — and a dropped import
        // changes nothing.
        for twin_of in [100, 249] {
            let mut import = swap.begin_import(&def, true, 151, hashes);
            let mut repeated = incoming.clone();
            repeated.insert(40, row(twin_of % 7, twin_of));
            assert_eq!(import.push(&mut repeated), 1);
            assert_eq!(import.push(&mut vec![row(0, 105), row(9, 9)]), 1);
            drop(import);
            assert_eq!((swap.get().len(), swap.epoch()), (150, 1));
        }
        // So are two rows under one `->` key.
        let keyed = keyed_def();
        let by_key = |t: &Tuple| (hash_values(t.key_fields(&keyed)), 0);
        let swap = SwappableTable::new(ReservationTable::new(16, false));
        let mut rows = vec![kt(1, 10, "x"), kt(2, 20, "y"), kt(1, 11, "x")];
        let mut import = swap.begin_import(&keyed, false, 3, by_key);
        assert_eq!(import.push(&mut rows), 1);
    }
}

/// Exhaustive interleaving checks for the claim→publish protocol,
/// explored by the jstar-check scheduler. Run with
/// `cargo test -p jstar-core --features model-check`; CONCURRENCY.md
/// has the happens-before argument these tests pin down.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;
    use crate::gamma::testutil::{keyed_def, kt, set_def};
    use crate::schema::TableId;
    use crate::value::Value;
    use jstar_check::{thread, Checker};
    use std::sync::Arc;

    fn primary_of(def: &TableDef, t: &Tuple) -> u64 {
        hash_values(t.key_fields(def))
    }

    /// Two threads race to insert the same keyed tuple: the
    /// EMPTY → RESERVED claim CAS must elect exactly one winner in
    /// every interleaving, and the loser must come back with
    /// `Duplicate` after awaiting the winner's publish.
    #[test]
    fn claim_has_exactly_one_winner() {
        let report = Checker::new().check(|| {
            let def = Arc::new(keyed_def());
            let table = Arc::new(ReservationTable::new(2, false));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let def = Arc::clone(&def);
                    let table = Arc::clone(&table);
                    thread::spawn(move || {
                        let t = kt(1, 10, "x");
                        let p = primary_of(&def, &t);
                        table.insert(&def, p, 0, t)
                    })
                })
                .collect();
            let outcomes: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            let fresh = outcomes
                .iter()
                .filter(|o| **o == InsertOutcome::Fresh)
                .count();
            assert_eq!(fresh, 1, "outcomes: {outcomes:?}");
            assert!(outcomes
                .iter()
                .all(|o| matches!(o, InsertOutcome::Fresh | InsertOutcome::Duplicate)));
            assert_eq!(table.len(), 1);
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// A probe racing a publish must either miss the tuple or see it
    /// fully formed — never torn. The shim's race detector additionally
    /// fails the run if the probe ever touches the payload cell without
    /// the publish edge, so this pins the Acquire-tag / Release-publish
    /// pairing, not just the assertion below.
    #[test]
    fn readers_never_observe_partial_tuples() {
        let report = Checker::new().check(|| {
            let def = Arc::new(keyed_def());
            let table = Arc::new(ReservationTable::new(2, false));
            let writer = {
                let def = Arc::clone(&def);
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let t = kt(3, 30, "v");
                    table.insert(&def, primary_of(&def, &t), 0, t);
                })
            };
            let reader = {
                let def = Arc::clone(&def);
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let probe = kt(3, 30, "v");
                    let p = primary_of(&def, &probe);
                    let mut seen = 0u32;
                    table.probe_primary(p, &mut |t| {
                        assert_eq!((t.int(0), t.int(1)), (3, 30));
                        seen += 1;
                        true
                    });
                    seen
                })
            };
            writer.join();
            assert!(reader.join() <= 1);
            // join gave us the publish edge: the tuple is visible now.
            let t = kt(3, 30, "v");
            assert!(table.contains(primary_of(&def, &t), &t));
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// The batched journal append (protocol 6's `(j)` edge as a run of
    /// Release stores after one ranged `fetch_add`): one writer publishes
    /// a batch of three slots and then reserves and fills three journal
    /// cells, racing a second writer's single insert and a reader that
    /// clamps to the stable prefix and walks it. In every interleaving
    /// the reader never dereferences an unpublished slot (the race
    /// detector watches the payload cells), every position below the
    /// bound it was given yields a fully formed tuple (none skipped),
    /// and the two writers' cells never overlap: afterwards the journal
    /// holds exactly the four tuples, no cell zero.
    #[test]
    fn batched_journal_append_is_gap_free_for_readers() {
        let row = |i: i64| Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i * 10)]);
        let report = Checker::new().check(|| {
            let def = Arc::new(set_def());
            let table = Arc::new(ReservationTable::new(2, false));
            let batch_writer = {
                let (def, table) = (Arc::clone(&def), Arc::clone(&table));
                thread::spawn(move || {
                    let batch = [row(1), row(2), row(3)];
                    let mut outcomes = [InsertOutcome::Duplicate; 3];
                    let hashes = |t: &Tuple| (primary_of(&def, t), 0);
                    table.insert_batch(&def, &batch, hashes, &mut outcomes);
                    assert_eq!(outcomes, [InsertOutcome::Fresh; 3]);
                })
            };
            let single_writer = {
                let (def, table) = (Arc::clone(&def), Arc::clone(&table));
                thread::spawn(move || {
                    let t = row(4);
                    let outcome = table.insert(&def, primary_of(&def, &t), 0, t);
                    assert_eq!(outcome, InsertOutcome::Fresh);
                })
            };
            let reader = {
                let table = Arc::clone(&table);
                thread::spawn(move || {
                    let stable = table.journal_stable_prefix(0, table.journal_shape().0);
                    let mut seen = 0;
                    table.for_each_journal_range(0, stable, &mut |t| {
                        assert_eq!(t.int(1), t.int(0) * 10, "torn tuple");
                        seen += 1;
                    });
                    assert_eq!(
                        seen, stable,
                        "a published entry below the bound was skipped"
                    );
                })
            };
            batch_writer.join();
            single_writer.join();
            reader.join();
            assert_eq!((table.len(), table.journal_shape().0), (4, 4));
            assert_eq!(table.journal_stable_prefix(0, 4), 4, "a cell was left zero");
            let mut journaled = Vec::new();
            table.for_each_journal_range(0, 4, &mut |t| journaled.push(t.int(0)));
            journaled.sort();
            assert_eq!(journaled, vec![1, 2, 3, 4], "two cells overlapped");
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// One allocator per segment: two inserters find the table empty at
    /// once. In every interleaving exactly one of them allocates segment
    /// 0 — the other waits out the `ALLOCATING` claim instead of building
    /// (and freeing) a segment of its own — and both publish into that
    /// one segment, which the install's Release edge must carry to the
    /// waiter (the race detector watches the slots it goes on to write).
    #[test]
    fn a_missing_segment_is_allocated_exactly_once() {
        let row = |i: i64| Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i * 10)]);
        let report = Checker::new().check(|| {
            let def = Arc::new(set_def());
            let table = Arc::new(ReservationTable::new(2, false));
            let racers: Vec<_> = (1..=2)
                .map(|i| {
                    let (def, table) = (Arc::clone(&def), Arc::clone(&table));
                    thread::spawn(move || {
                        let t = row(i);
                        let outcome = table.insert(&def, primary_of(&def, &t), 0, t);
                        assert_eq!(outcome, InsertOutcome::Fresh);
                        let seg = table.segment(0).expect("installed before insert returns");
                        (
                            seg as *const Segment as usize,
                            SEGMENT_ALLOCS.with(|n| n.get()),
                        )
                    })
                })
                .collect();
            let seen: Vec<(usize, usize)> = racers.into_iter().map(|r| r.join()).collect();
            assert_eq!(seen.iter().map(|s| s.1).sum::<usize>(), 1, "{seen:?}");
            assert!(seen.iter().all(|s| s.0 == seen[0].0), "{seen:?}");
            assert_eq!(table.len(), 2);
            for i in 1..=2 {
                let t = row(i);
                assert!(table.contains(primary_of(&def, &t), &t));
            }
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }

    /// Compaction swap under the engine's quiescence contract: the
    /// maintain thread rebuilds + swaps, then releases a worker through
    /// a flag (modelling the coordinator's phase barrier). The worker
    /// must see the fresh table fully built through that edge — pinning
    /// that SwappableTable's AcqRel swap + Acquire get suffice and the
    /// rebuild leaks no tombstones.
    #[test]
    fn quiescent_swap_publishes_the_fresh_table() {
        let report = Checker::new().check(|| {
            let def = Arc::new(set_def());
            let swap = Arc::new(SwappableTable::new(ReservationTable::new(2, false)));
            // Seed two tuples and tombstone one, as compaction finds it.
            for i in 0..2i64 {
                let t = Tuple::new(TableId(0), vec![Value::Int(i), Value::Int(i)]);
                let p = primary_of(&def, &t);
                swap.get().insert(&def, p, 0, t);
            }
            swap.get().retain(&|t| t.int(0) == 0);
            let phase = Arc::new(AtomicUsize::new(0));
            let maintainer = {
                let def = Arc::clone(&def);
                let swap = Arc::clone(&swap);
                let phase = Arc::clone(&phase);
                thread::spawn(move || {
                    let ran = swap.compact_quiescent(&def, 0.25, false, |t| {
                        (hash_values(t.key_fields(&def)), 0)
                    });
                    assert!(ran);
                    phase.store(1, Ordering::Release);
                })
            };
            let worker = {
                let def = Arc::clone(&def);
                let swap = Arc::clone(&swap);
                let phase = Arc::clone(&phase);
                thread::spawn(move || {
                    while phase.load(Ordering::Acquire) == 0 {
                        jstar_check::sync::spin_loop();
                    }
                    let table = swap.get();
                    assert_eq!(table.len(), 1);
                    assert_eq!(table.tombstones(), 0);
                    let live = Tuple::new(TableId(0), vec![Value::Int(0), Value::Int(0)]);
                    assert!(table.contains(primary_of(&def, &live), &live));
                })
            };
            maintainer.join();
            worker.join();
        });
        report.assert_ok();
        assert!(report.complete, "exploration hit a budget cap");
    }
}
