//! Production variant of the shim: straight re-exports plus transparent
//! wrappers that compile to nothing.

pub use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

pub use parking_lot::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// See [`std::hint::spin_loop`]; a model schedule point under `model-check`.
#[inline(always)]
pub fn spin_loop() {
    std::hint::spin_loop();
}

/// See [`std::thread::yield_now`]; a model schedule point under `model-check`.
#[inline(always)]
pub fn yield_now() {
    std::thread::yield_now();
}

/// `std::cell::UnsafeCell` behind a closure-based API so that, under
/// `model-check`, every access can be attributed to a thread and
/// race-checked. Here it is a `#[repr(transparent)]` wrapper and every
/// method is `#[inline(always)]` — identical codegen to the raw cell.
#[repr(transparent)]
pub struct UnsafeCell<T: ?Sized>(std::cell::UnsafeCell<T>);

impl<T> UnsafeCell<T> {
    #[inline(always)]
    pub const fn new(value: T) -> UnsafeCell<T> {
        UnsafeCell(std::cell::UnsafeCell::new(value))
    }

    #[inline(always)]
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

impl<T: ?Sized> UnsafeCell<T> {
    /// Shared access: hands the closure a `*const T` valid for the call.
    /// The caller's protocol (not this wrapper) must ensure no concurrent
    /// mutation; under `model-check` that claim is verified.
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Exclusive access: hands the closure a `*mut T` valid for the call.
    #[inline(always)]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }

    /// Statically-exclusive access (`&mut self`): never a schedule point.
    #[inline(always)]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

// SAFETY: same bounds as std's UnsafeCell — Send when T is, never Sync on
// its own; callers opt into sharing via their own `unsafe impl Sync` with
// a protocol argument (which `model-check` then verifies dynamically).
unsafe impl<T: ?Sized + Send> Send for UnsafeCell<T> {}

/// A `Box<[AtomicU64]>` of zeros. With the feature off this is a single
/// `alloc_zeroed` (`vec![0u64; n]`) reinterpreted in place — the fast
/// path the reservation table's tag/journal arrays depend on; the model
/// variant initialises element-wise because its atomics are wider.
pub fn zeroed_atomic_u64_slice(n: usize) -> Box<[AtomicU64]> {
    let plain: Box<[u64]> = vec![0u64; n].into_boxed_slice();
    // SAFETY: AtomicU64 has the same size and alignment as u64 and any
    // bit pattern (zero included) is a valid AtomicU64, so the slice may
    // be reinterpreted in place; Box ownership transfers via the raw
    // pointer round-trip without double-free.
    unsafe { Box::from_raw(Box::into_raw(plain) as *mut [AtomicU64]) }
}

/// [`zeroed_atomic_u64_slice`] for `AtomicU32` — the reservation table's
/// 4-byte chain heads and journal cells.
pub fn zeroed_atomic_u32_slice(n: usize) -> Box<[AtomicU32]> {
    let plain: Box<[u32]> = vec![0u32; n].into_boxed_slice();
    // SAFETY: as above — AtomicU32 has the size and alignment of u32 and
    // every bit pattern is valid, so the slice is reinterpreted in place.
    unsafe { Box::from_raw(Box::into_raw(plain) as *mut [AtomicU32]) }
}
