//! Counting global allocator: every allocation of the `perf` process —
//! harness, engine, worker threads — goes through [`Counting`], which keeps
//! the call count, the bytes requested, the live bytes and their high-water
//! mark.
//!
//! The engine allocates a `Vec<Scalar>` per row, so the counters sit on the
//! hottest path there is: three shared atomics per call, fought over by the
//! worker threads, made a `tpch_power` pass 40 % slower than with the system
//! allocator alone. Each thread therefore counts into its own thread-local
//! cells and folds them into the shared atomics every [`FLUSH_CALLS`] calls
//! or [`FLUSH_BYTES`] of net growth. A reading is off by at most that much
//! per other live thread, and a thread that exits loses at most that much
//! (the cells have no destructor: a destructor could run after the
//! allocator's last use of them, and registering one may allocate).
//! The counters are statistics that publish no other data, so every atomic
//! is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator `main.rs` installs with `#[global_allocator]`.
pub struct Counting;

/// A thread folds its counts into the shared ones after this many calls …
const FLUSH_CALLS: u64 = 64;
/// … or once its net live bytes moved this far either way.
const FLUSH_BYTES: i64 = 16 << 10;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: one thread may fold its frees before another folds the matching
// allocations.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

struct Local {
    calls: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates and never finds it torn down.
    static LOCAL: Local = const {
        Local { calls: Cell::new(0), bytes: Cell::new(0), live: Cell::new(0) }
    };
}

fn flush(l: &Local) {
    CALLS.fetch_add(l.calls.replace(0), Relaxed);
    BYTES.fetch_add(l.bytes.replace(0), Relaxed);
    let delta = l.live.replace(0);
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    if delta > 0 {
        PEAK.fetch_max(live, Relaxed);
    }
}

/// Count one allocator call that requested `grew` new bytes and moved this
/// thread's live bytes by `delta`.
fn note(calls: u64, grew: u64, delta: i64) {
    LOCAL.with(|l| {
        l.calls.set(l.calls.get() + calls);
        l.bytes.set(l.bytes.get() + grew);
        l.live.set(l.live.get() + delta);
        if l.calls.get() >= FLUSH_CALLS || l.live.get().abs() >= FLUSH_BYTES {
            flush(l);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(1, layout.size() as u64, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(1, layout.size() as u64, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // forwarded both to `System`.
        unsafe { System.dealloc(ptr, layout) };
        note(0, 0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One allocator call; only the growth counts as new bytes.
            note(
                1,
                (new_size as u64).saturating_sub(layout.size() as u64),
                new_size as i64 - layout.size() as i64,
            );
        }
        p
    }
}

/// A reading of the monotonic counters (pair two with [`Snapshot::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls (growth only for `realloc`).
    pub bytes: u64,
}

impl Snapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Current call and byte counters (this thread's counts folded in first).
pub fn snapshot() -> Snapshot {
    LOCAL.with(flush);
    Snapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LOCAL.with(flush);
    LIVE.load(Relaxed).max(0) as u64
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    LOCAL.with(flush);
    PEAK.load(Relaxed).max(0) as u64
}

/// Restart the high-water mark from the current live bytes (the harness
/// takes one high-water mark per pass).
pub fn reset_peak() {
    LOCAL.with(flush);
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (see `main.rs`), and cargo
    // runs tests on parallel threads, so other tests allocate while this
    // one measures: the assertions are lower bounds plus a generous cap.
    #[test]
    fn known_vec_moves_count_live_and_peak() {
        const N: usize = 8 << 20;
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(N);
        let during = snapshot().since(&before);
        assert!(during.calls >= 1, "one allocator call at least");
        assert!(during.bytes >= N as u64, "the vec's bytes are counted");
        assert!(live_bytes() >= N as u64, "the vec is live");
        assert!(peak_bytes() >= N as u64, "peak covers the live vec");
        let peak_with_vec = peak_bytes();
        drop(std::hint::black_box(v));
        assert!(peak_bytes() >= peak_with_vec, "peak never falls");
        assert!(
            live_bytes() < peak_with_vec,
            "freeing the vec lowers live bytes below the peak"
        );
    }

    #[test]
    fn realloc_counts_one_call_and_the_growth() {
        let mut v: Vec<u64> = Vec::with_capacity(1 << 16);
        v.push(1);
        let before = snapshot();
        v.reserve_exact((1 << 17) - 1);
        let d = snapshot().since(&before);
        assert!(d.calls >= 1);
        assert!(d.bytes >= (1 << 16) * 8, "growth of at least the old size");
        std::hint::black_box(&v);
    }
}
