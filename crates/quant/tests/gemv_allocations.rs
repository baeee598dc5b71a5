//! A decode-sized GEMV allocates nothing but its outputs: on the sim
//! model's projection shapes, `mant_gemv` makes one heap allocation (the
//! output vector) and `mant_gemv_batch` of up to four members makes one
//! per member plus the outer vector, once the calling thread's scratch has
//! grown. Every tier's row sweep holds its working set in that scratch or
//! on the stack, the scalar arm's decoded group included. Counted by a
//! global allocator that tallies each thread's allocations, so the test
//! harness's other threads do not interfere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mant_quant::{mant_gemv, mant_gemv_batch, quantize_vector_int8, MantWeightQuantizer};
use mant_tensor::TensorGenerator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread's last frees may run after its locals are gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// tally touches a const-initialised thread-local `Cell`, which allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn decode_sized_gemv_allocates_only_its_outputs() {
    let mut gen = TensorGenerator::new(81);
    for (n, k) in [(256usize, 256usize), (512, 256), (256, 512)] {
        let w = gen.group_diverse_matrix(n, k, 64, 0.02);
        let wq = MantWeightQuantizer::new(64).quantize(&w).unwrap();
        let xs: Vec<_> = (0..4)
            .map(|_| {
                let x: Vec<f32> = (0..k).map(|_| gen.standard_normal()).collect();
                quantize_vector_int8(&x, 64).unwrap()
            })
            .collect();
        // The first call grows this thread's scratch.
        mant_gemv_batch(&xs, &wq).unwrap();
        let (count, y) = allocations(|| mant_gemv(&xs[0], &wq).unwrap());
        assert_eq!(count, 1, "{n}x{k} GEMV");
        drop(y);
        for m in 1..=xs.len() {
            let (count, ys) = allocations(|| mant_gemv_batch(&xs[..m], &wq).unwrap());
            assert_eq!(count, m + 1, "{n}x{k} batch of {m}");
            drop(ys);
        }
    }
}
