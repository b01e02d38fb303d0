//! A counting global allocator for the allocation regression tests of
//! this crate and of `crates/chiplet` (which includes this file by
//! path). Counts are per thread: the test harness and other tests
//! allocate on their own threads while one test counts, so the work
//! under test must run on the counting thread
//! (`rayon::with_worker_cap(1, ..)`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the armed thread's
/// allocation calls. `realloc` counts too (it may move); `dealloc` is
/// free.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without destructors: touching these from
    // inside the allocator neither allocates nor registers a dtor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: defers entirely to `System` with unchanged arguments; the
// only added behaviour is bumping a thread-local counter, which
// allocates nothing and cannot panic or recurse into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; the counter bump has
    // no allocator-visible effect.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: `layout` is the caller's layout, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` was produced by `Self::alloc`/`Self::realloc`,
    // which delegate to `System`, so returning it to `System` with
    // the same layout is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; see the method-level comment.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same `ptr`/`layout` contract as `dealloc`; `new_size`
    // is forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; see the method-level comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocation counter armed, returning how
/// many allocator calls it made.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), r)
}

/// Runs `f` with the counter paused, for a stretch inside
/// [`count_allocs`] that is not under test.
#[allow(dead_code)]
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = ARMED.with(|a| a.replace(false));
    let r = f();
    ARMED.with(|a| a.set(was));
    r
}
