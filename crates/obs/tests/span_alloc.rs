//! Allocation discipline of the span machinery, pinned by a counting
//! global allocator (same technique as `ppms-bigint`'s `alloc_free`):
//! with the runtime switch off a [`Span`] is a pure context
//! passthrough — zero heap allocations to create, query and drop — and
//! with it on a *warmed* span (name already interned) records into
//! the ring without allocating. The `#![forbid(unsafe_code)]`
//! in the library crate does not extend to this test binary, which
//! needs `unsafe` only for the `GlobalAlloc` shim.

use ppms_obs::{Span, SpanContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed by `f` on this thread (growth only).
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(|a| a.get())
}

/// Serialises the tests: one of them switches spans off process-wide,
/// which would otherwise let the other warm up with spans dark (names
/// never interned) and then count the interning as span allocations.
static SWITCH: Mutex<()> = Mutex::new(());

fn span_tree_once(trace: u64) {
    let root = Span::root("alloc.root", trace);
    let child = Span::child("alloc.child", root.ctx());
    black_box(child.ctx());
    drop(child);
    drop(root);
}

#[test]
fn live_spans_do_not_allocate_once_warmed() {
    let _switch = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    // First use interns the names and lazily builds the ring.
    span_tree_once(0x6000);
    let n = allocs_in(|| {
        for i in 0..64u64 {
            span_tree_once(0x6001 + i);
        }
    });
    assert_eq!(n, 0, "a warmed span records into the ring allocation-free");
}

#[test]
fn disabled_spans_do_not_allocate() {
    let _switch = SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    ppms_obs::set_enabled(false);
    let n = allocs_in(|| {
        for i in 0..64u64 {
            span_tree_once(0x7000 + i);
        }
    });
    let parent = SpanContext {
        trace_id: 42,
        span_id: 9,
        parent_id: 3,
    };
    let child = Span::child("alloc.off", parent).ctx();
    let root = Span::root("alloc.off", 42).ctx();
    ppms_obs::set_enabled(true);
    assert_eq!(n, 0, "runtime-disabled spans are context passthroughs");
    assert_eq!(child, parent, "a disabled child mints no span");
    assert_eq!(root, SpanContext::from_trace(42));
}
