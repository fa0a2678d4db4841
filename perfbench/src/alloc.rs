//! A counting global allocator: live heap bytes and their high-water
//! mark, so the benchmark can report the peak heap one solve needs.
//!
//! Each thread adds its allocations to a thread-local balance and moves
//! it to the shared count only once it passes [`FLUSH_BYTES`], so the
//! threads do not contend on one counter for every small allocation (a
//! shared atomic per allocation cost the allocation-heavy divide about a
//! fifth more CPU time). The shared count is therefore exact to within
//! `FLUSH_BYTES` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Forwards to [`System`] and keeps two statistics. Both are plain
/// counters that publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

/// Largest unshared balance one thread may hold.
const FLUSH_BYTES: isize = 64 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static BALANCE: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and only updates counters besides, so `System`'s
// guarantees carry over as they are. The counters never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, hence
        // from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s size requirements.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

fn count(bytes: isize) {
    let flushed = BALANCE.try_with(|b| {
        let balance = b.get() + bytes;
        if balance.abs() < FLUSH_BYTES {
            b.set(balance);
            None
        } else {
            b.set(0);
            Some(balance)
        }
    });
    // a thread being torn down has no balance left: count directly
    if let Some(delta) = flushed.unwrap_or(Some(bytes)) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Live heap bytes now.
pub fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.load(Ordering::Relaxed)
}
