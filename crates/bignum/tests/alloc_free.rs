//! Proves the Montgomery kernels are allocation-free per operation: a
//! counting global allocator observes zero allocations across thousands
//! of `mont_mul` calls (products and squares) on pre-allocated buffers at the
//! 32-limb n² width, and a small constant per call across repeated
//! `pow_with` calls on a warmed [`MontScratch`].
//!
//! This file holds exactly one `#[test]`: the counter is process-global,
//! so a concurrently running second test would pollute it.

use cryptdb_bignum::{MontScratch, Montgomery, Ubig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn wide_odd(limbs: usize, seed: u64) -> Ubig {
    let mut v: Vec<u64> = (0..limbs as u64)
        .map(|i| {
            0x9e37_79b9_7f4a_7c15u64
                .wrapping_mul(i + 1 + seed)
                .wrapping_add(0x1234_5678_9abc_def1)
        })
        .collect();
    v[0] |= 1;
    v[limbs - 1] |= 1 << 63;
    Ubig::from_limbs(v)
}

#[test]
fn kernels_allocate_nothing_per_operation() {
    // 32 limbs = the 2048-bit mod-n² width.
    let n = wide_odd(32, 0);
    let mont = Montgomery::new(n.clone());
    let am = mont.to_mont(&wide_odd(32, 3).rem(&n));
    let bm = mont.to_mont(&wide_odd(32, 5).rem(&n));
    let mut out = vec![0u64; mont.width()];
    let mut scratch = mont.scratch();

    // The counter is process-global, so ambient allocations (test
    // harness bookkeeping) can land inside a window. Take the minimum
    // over a few windows: an actually-allocating kernel shows >= 2000
    // allocations in EVERY window, while ambient noise is sporadic.
    let kernel_allocs = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..2_000 {
                mont.mont_mul(&am, &bm, &mut out, &mut scratch);
                mont.mont_mul(&am, &am, &mut out, &mut scratch);
            }
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap();
    assert_eq!(kernel_allocs, 0, "mont_mul must not allocate per operation");

    // pow_with on a warmed scratch: after the first call sizes the
    // buffers, repeated exponentiations allocate only for the Ubig
    // results and conversion remainders they return — bound the steady
    // state to a small constant per call instead of the O(window-steps)
    // a fresh-buffer implementation would pay.
    let base = wide_odd(32, 7).rem(&n);
    let exp = wide_odd(16, 9);
    let mut ws = MontScratch::new();
    let warm = mont.pow_with(&base, &exp, &mut ws);
    const POWS: usize = 20;
    let per_pow = (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..POWS {
                assert_eq!(mont.pow_with(&base, &exp, &mut ws), warm);
            }
            (ALLOCATIONS.load(Ordering::SeqCst) - before) / POWS
        })
        .min()
        .unwrap();
    assert!(
        per_pow <= 8,
        "pow_with on a warmed scratch should allocate only at the \
         conversion boundary, saw {per_pow} allocations per pow"
    );
}
