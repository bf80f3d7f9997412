//! Instrumented variant of the shim. Every type carries a lazily
//! registered location id (`loc == 0` ⇒ unregistered, so all-zero memory
//! stays valid) and routes accesses through the current execution; with
//! no execution bound to the thread it falls back to the real operation,
//! so non-model tests still run correctly with the feature enabled.

use std::panic::Location;
use std::sync::atomic::AtomicUsize as StdAtomicUsize;
use std::sync::atomic::Ordering as StdOrdering;

pub use std::sync::atomic::Ordering;

use crate::exec::{current, AtomicKind, Execution};
use std::sync::Arc;

/// The execution an atomic, fence, cell or spin-hint access is routed
/// through: [`current`], except on a thread that is already unwinding.
/// Destructors run there (a `Tuple` giving up its reference count), and a
/// scheduling point in a torn-down execution panics — a second panic,
/// which would abort the test process and lose the failure report. An
/// unwinding thread's accesses run the real operation instead; the
/// execution it belonged to is failing either way.
fn scheduled() -> Option<(Arc<Execution>, usize)> {
    if std::thread::panicking() {
        None
    } else {
        current()
    }
}

/// See [`std::sync::atomic::fence`].
#[track_caller]
pub fn fence(order: Ordering) {
    match scheduled() {
        Some((e, me)) => e.fence(me, order),
        None => std::sync::atomic::fence(order),
    }
}

/// Spin-wait hint: a voluntary-yield schedule point under the model.
#[track_caller]
pub fn spin_loop() {
    match scheduled() {
        Some((e, me)) => e.yield_op(me),
        None => std::hint::spin_loop(),
    }
}

/// Yield hint: a voluntary-yield schedule point under the model.
#[track_caller]
pub fn yield_now() {
    match scheduled() {
        Some((e, me)) => e.yield_op(me),
        None => std::thread::yield_now(),
    }
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $prim:ty) => {
        $(#[$doc])*
        pub struct $name {
            v: std::sync::atomic::$std,
            loc: StdAtomicUsize,
        }

        impl $name {
            pub const fn new(v: $prim) -> $name {
                $name { v: std::sync::atomic::$std::new(v), loc: StdAtomicUsize::new(0) }
            }

            #[track_caller]
            pub fn load(&self, order: Ordering) -> $prim {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        (self.v.load(StdOrdering::Relaxed), AtomicKind::Load(order))
                    }),
                    None => self.v.load(order),
                }
            }

            #[track_caller]
            pub fn store(&self, val: $prim, order: Ordering) {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        self.v.store(val, StdOrdering::Relaxed);
                        ((), AtomicKind::Store(order))
                    }),
                    None => self.v.store(val, order),
                }
            }

            #[track_caller]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        (self.v.swap(val, StdOrdering::Relaxed), AtomicKind::Rmw(order))
                    }),
                    None => self.v.swap(val, order),
                }
            }

            #[track_caller]
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        (self.v.fetch_add(val, StdOrdering::Relaxed), AtomicKind::Rmw(order))
                    }),
                    None => self.v.fetch_add(val, order),
                }
            }

            #[track_caller]
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        (self.v.fetch_sub(val, StdOrdering::Relaxed), AtomicKind::Rmw(order))
                    }),
                    None => self.v.fetch_sub(val, order),
                }
            }

            #[track_caller]
            pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        (self.v.fetch_max(val, StdOrdering::Relaxed), AtomicKind::Rmw(order))
                    }),
                    None => self.v.fetch_max(val, order),
                }
            }

            #[track_caller]
            pub fn compare_exchange(
                &self,
                currentv: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match scheduled() {
                    Some((e, me)) => e.atomic_op(me, &self.loc, || {
                        let r = self.v.compare_exchange(
                            currentv,
                            new,
                            StdOrdering::Relaxed,
                            StdOrdering::Relaxed,
                        );
                        let kind = match r {
                            Ok(_) => AtomicKind::Rmw(success),
                            // A failed CAS is a load with the failure ordering.
                            Err(_) => AtomicKind::Load(failure),
                        };
                        (r, kind)
                    }),
                    None => self.v.compare_exchange(currentv, new, success, failure),
                }
            }

            /// Modelled as the strong variant: the model's serialised
            /// executions have no spurious failures to explore.
            #[track_caller]
            pub fn compare_exchange_weak(
                &self,
                currentv: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(currentv, new, success, failure)
            }

            pub fn get_mut(&mut self) -> &mut $prim {
                self.v.get_mut()
            }

            pub fn into_inner(self) -> $prim {
                self.v.into_inner()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.v.load(StdOrdering::Relaxed))
                    .finish()
            }
        }

        impl Default for $name {
            fn default() -> $name {
                $name::new(Default::default())
            }
        }
    };
}

int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicUsize`].
    AtomicUsize, AtomicUsize, usize
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU32`].
    AtomicU32, AtomicU32, u32
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicU64`].
    AtomicU64, AtomicU64, u64
);
int_atomic!(
    /// Instrumented [`std::sync::atomic::AtomicI64`].
    AtomicI64, AtomicI64, i64
);

/// Instrumented [`std::sync::atomic::AtomicBool`]. Hand-written (the
/// integer macro leans on `fetch_add`/`fetch_sub`, which bools lack) with
/// the operations the kernels use: load/store/swap.
pub struct AtomicBool {
    v: std::sync::atomic::AtomicBool,
    loc: StdAtomicUsize,
}

impl AtomicBool {
    pub const fn new(v: bool) -> AtomicBool {
        AtomicBool {
            v: std::sync::atomic::AtomicBool::new(v),
            loc: StdAtomicUsize::new(0),
        }
    }

    #[track_caller]
    pub fn load(&self, order: Ordering) -> bool {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                (self.v.load(StdOrdering::Relaxed), AtomicKind::Load(order))
            }),
            None => self.v.load(order),
        }
    }

    #[track_caller]
    pub fn store(&self, val: bool, order: Ordering) {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                self.v.store(val, StdOrdering::Relaxed);
                ((), AtomicKind::Store(order))
            }),
            None => self.v.store(val, order),
        }
    }

    #[track_caller]
    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                (
                    self.v.swap(val, StdOrdering::Relaxed),
                    AtomicKind::Rmw(order),
                )
            }),
            None => self.v.swap(val, order),
        }
    }

    pub fn get_mut(&mut self) -> &mut bool {
        self.v.get_mut()
    }

    pub fn into_inner(self) -> bool {
        self.v.into_inner()
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool")
            .field(&self.v.load(StdOrdering::Relaxed))
            .finish()
    }
}

impl Default for AtomicBool {
    fn default() -> AtomicBool {
        AtomicBool::new(false)
    }
}

/// Instrumented [`std::sync::atomic::AtomicPtr`].
pub struct AtomicPtr<T> {
    v: std::sync::atomic::AtomicPtr<T>,
    loc: StdAtomicUsize,
}

impl<T> AtomicPtr<T> {
    pub const fn new(p: *mut T) -> AtomicPtr<T> {
        AtomicPtr {
            v: std::sync::atomic::AtomicPtr::new(p),
            loc: StdAtomicUsize::new(0),
        }
    }

    #[track_caller]
    pub fn load(&self, order: Ordering) -> *mut T {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                (self.v.load(StdOrdering::Relaxed), AtomicKind::Load(order))
            }),
            None => self.v.load(order),
        }
    }

    #[track_caller]
    pub fn store(&self, p: *mut T, order: Ordering) {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                self.v.store(p, StdOrdering::Relaxed);
                ((), AtomicKind::Store(order))
            }),
            None => self.v.store(p, order),
        }
    }

    #[track_caller]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                (self.v.swap(p, StdOrdering::Relaxed), AtomicKind::Rmw(order))
            }),
            None => self.v.swap(p, order),
        }
    }

    #[track_caller]
    pub fn compare_exchange(
        &self,
        currentv: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match scheduled() {
            Some((e, me)) => e.atomic_op(me, &self.loc, || {
                let r = self.v.compare_exchange(
                    currentv,
                    new,
                    StdOrdering::Relaxed,
                    StdOrdering::Relaxed,
                );
                let kind = match r {
                    Ok(_) => AtomicKind::Rmw(success),
                    Err(_) => AtomicKind::Load(failure),
                };
                (r, kind)
            }),
            None => self.v.compare_exchange(currentv, new, success, failure),
        }
    }

    pub fn get_mut(&mut self) -> &mut *mut T {
        self.v.get_mut()
    }
}

impl<T> std::fmt::Debug for AtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicPtr")
            .field(&self.v.load(StdOrdering::Relaxed))
            .finish()
    }
}

/// Instrumented plain-memory cell: accesses are race-checked against the
/// happens-before order when a model execution is active.
pub struct UnsafeCell<T: ?Sized> {
    loc: StdAtomicUsize,
    v: std::cell::UnsafeCell<T>,
}

impl<T> UnsafeCell<T> {
    pub const fn new(value: T) -> UnsafeCell<T> {
        UnsafeCell {
            loc: StdAtomicUsize::new(0),
            v: std::cell::UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.v.into_inner()
    }
}

impl<T: ?Sized> UnsafeCell<T> {
    /// Shared access, recorded as a read of this location. The closure
    /// runs under the execution lock and must not call back into the
    /// shim (the kernels' closures are single dereferences).
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        match scheduled() {
            Some((e, me)) => {
                e.cell_op(me, &self.loc, false, Location::caller(), || f(self.v.get()))
            }
            None => f(self.v.get()),
        }
    }

    /// Exclusive access, recorded as a write of this location.
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        match scheduled() {
            Some((e, me)) => e.cell_op(me, &self.loc, true, Location::caller(), || f(self.v.get())),
            None => f(self.v.get()),
        }
    }

    /// Statically-exclusive access: `&mut self` proves no concurrency,
    /// so this is never a schedule point (mirrors loom).
    pub fn get_mut(&mut self) -> &mut T {
        self.v.get_mut()
    }
}

// SAFETY: mirrors std's UnsafeCell — Send when T is Send. The extra `loc`
// word is an ordinary atomic. Sync is left to the containing type's own
// `unsafe impl`, exactly as with the real cell.
unsafe impl<T: ?Sized + Send> Send for UnsafeCell<T> {}

/// A `Box<[AtomicU64]>` of zeros; element-wise under the model because
/// the instrumented atomic is wider than a `u64` (see the real variant
/// for the production fast path).
pub fn zeroed_atomic_u64_slice(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// A `Box<[AtomicU32]>` of zeros, element-wise like its `u64` twin.
pub fn zeroed_atomic_u32_slice(n: usize) -> Box<[AtomicU32]> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

/// Instrumented mutex with the `parking_lot` API surface the kernels
/// use. Inside a model execution the lock is purely logical (held-by
/// state in the scheduler; contended lockers are descheduled); outside
/// one it falls back to a real `std` mutex guarding the same data.
pub struct Mutex<T: ?Sized> {
    loc: StdAtomicUsize,
    raw: std::sync::Mutex<()>,
    v: std::cell::UnsafeCell<T>,
}

// SAFETY: standard mutex bounds — the lock serialises all access to the
// cell, in-model via the scheduler's held-by state, out-of-model via
// `raw`, so sharing requires only T: Send.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above; `&Mutex<T>` only yields `&T`/`&mut T` under the lock.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`]. `raw` is Some outside a model execution.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    raw: Option<std::sync::MutexGuard<'a, ()>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            loc: StdAtomicUsize::new(0),
            raw: std::sync::Mutex::new(()),
            v: std::cell::UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.v.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match current() {
            Some((e, me)) => {
                e.mutex_lock(me, &self.loc);
                MutexGuard {
                    lock: self,
                    raw: None,
                }
            }
            None => MutexGuard {
                lock: self,
                raw: Some(self.raw.lock().unwrap_or_else(|p| p.into_inner())),
            },
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.v.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held (logically in-model,
        // via `raw` otherwise), so no other thread accesses the cell.
        unsafe { &*self.lock.v.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in Deref, plus the guard is unique per lock tenure.
        unsafe { &mut *self.lock.v.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.raw.is_none() {
            if let Some((e, me)) = current() {
                e.mutex_unlock(me, &self.lock.loc);
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Avoid taking the (possibly model) lock inside Debug.
        f.write_str("Mutex { .. }")
    }
}

/// Result of [`Condvar::wait_for`], mirroring `parking_lot`.
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condvar. In-model a wait is release-yield-reacquire —
/// i.e. it behaves like a spurious wakeup, which is sound for all users
/// because condvar waits sit in re-check loops; notifications carry no
/// extra ordering beyond the mutex.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    #[track_caller]
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        match current() {
            Some((e, me)) => {
                e.mutex_unlock(me, &guard.lock.loc);
                e.yield_op(me);
                e.mutex_lock(me, &guard.lock.loc);
            }
            None => {
                let raw = guard
                    .raw
                    .take()
                    .expect("real condvar wait without raw guard");
                let raw = self.inner.wait(raw).unwrap_or_else(|p| p.into_inner());
                guard.raw = Some(raw);
            }
        }
    }

    #[track_caller]
    pub fn wait_for<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        dur: std::time::Duration,
    ) -> WaitTimeoutResult {
        match current() {
            Some((e, me)) => {
                e.mutex_unlock(me, &guard.lock.loc);
                e.yield_op(me);
                e.mutex_lock(me, &guard.lock.loc);
                // Timeouts are not modelled; report "timed out" so
                // callers re-check their predicate.
                WaitTimeoutResult(true)
            }
            None => {
                let raw = guard
                    .raw
                    .take()
                    .expect("real condvar wait without raw guard");
                let (raw, r) = match self.inner.wait_timeout(raw, dur) {
                    Ok((g, r)) => (g, r.timed_out()),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        (g, r.timed_out())
                    }
                };
                guard.raw = Some(raw);
                WaitTimeoutResult(r)
            }
        }
    }

    pub fn notify_one(&self) {
        if current().is_none() {
            self.inner.notify_one();
        }
        // In-model: waits are spurious-wakeup loops, nothing to signal.
    }

    pub fn notify_all(&self) {
        if current().is_none() {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}
