//! Heap-allocation guard for views and view kernels.
//!
//! A counting global allocator tallies allocations per thread. With a
//! warm [`ScratchPool`], creating and slicing views of rank ≤ 4 and
//! running every `viewed` kernel on rank-2 broadcast and strided
//! operands must not call the allocator at all: shapes and strides live
//! inline, and output buffers come from the pool.

use sf_tensor::ops::{viewed, BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, ScratchPool, Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter is a const-initialised `Cell` without a
// destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::random(Shape::new(dims.to_vec()), DType::F32, seed)
}

#[test]
fn views_and_slices_up_to_rank_4_do_not_allocate() {
    for rank in 0..=4 {
        let dims: Vec<usize> = (0..rank).map(|ax| 3 + ax).collect();
        let ranges: Vec<(usize, usize)> = dims.iter().map(|&d| (1, d)).collect();
        let inner: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d - 2)).collect();
        let t = tensor(&dims, rank as u64);
        let (n, volume) = allocations(|| {
            let v = t.view();
            let s = t.slice(&ranges).unwrap();
            let w = s.slice(&inner).unwrap();
            let r = t.view_reshaped(t.shape().clone()).unwrap();
            v.volume() + s.clone().volume() + w.volume() + r.volume()
        });
        assert!(volume > 0);
        assert_eq!(n, 0, "rank-{rank} view/slice allocated {n} time(s)");
    }
}

#[test]
fn viewed_kernels_on_warm_pool_do_not_allocate() {
    let x = tensor(&[6, 10], 1);
    let col = tensor(&[6, 1], 2);
    let row = tensor(&[1, 10], 3);
    let y = tensor(&[10, 6], 4);
    // Strided operands: interior tiles of wider tensors.
    let xs = x.slice(&[(1, 5), (2, 9)]).unwrap();
    let cs = col.slice(&[(1, 5), (0, 1)]).unwrap();
    let rs = row.slice(&[(0, 1), (2, 9)]).unwrap();
    let ys = y.slice(&[(2, 9), (1, 5)]).unwrap();
    let yt = x.slice(&[(0, 3), (1, 8)]).unwrap();

    type Kernel<'k> = Box<dyn Fn(&mut ScratchPool) -> Tensor + 'k>;
    let kernels: Vec<(&str, Kernel)> = vec![
        ("unary", Box::new(|p| viewed::unary(UnaryOp::Gelu, &xs, p))),
        (
            "binary_scalar",
            Box::new(|p| viewed::binary_scalar(BinaryOp::Mul, &xs, 0.5, p)),
        ),
        (
            "binary dense",
            Box::new(|p| viewed::binary(BinaryOp::Add, &x.view(), &x.view(), p).unwrap()),
        ),
        (
            "binary strided",
            Box::new(|p| viewed::binary(BinaryOp::Sub, &xs, &xs, p).unwrap()),
        ),
        (
            "binary broadcast right",
            Box::new(|p| viewed::binary(BinaryOp::Sub, &xs, &cs, p).unwrap()),
        ),
        (
            "binary broadcast left",
            Box::new(|p| viewed::binary(BinaryOp::Div, &rs, &xs, p).unwrap()),
        ),
        (
            "binary broadcast both",
            Box::new(|p| viewed::binary(BinaryOp::Max, &cs, &rs, p).unwrap()),
        ),
        (
            "reduce last",
            Box::new(|p| viewed::reduce(ReduceOp::Sum, &xs, 1, p).unwrap()),
        ),
        (
            "reduce first",
            Box::new(|p| viewed::reduce(ReduceOp::Mean, &xs, 0, p).unwrap()),
        ),
        (
            "broadcast_to",
            Box::new(|p| viewed::broadcast_to(&cs, 1, 7, p).unwrap()),
        ),
        (
            "matmul",
            Box::new(|p| viewed::matmul(&xs, &ys, false, p).unwrap()),
        ),
        (
            "matmul transposed",
            Box::new(|p| viewed::matmul(&xs, &yt, true, p).unwrap()),
        ),
    ];

    let mut pool = ScratchPool::new();
    for (_, k) in &kernels {
        let t = k(&mut pool);
        pool.recycle_tensor(t);
    }
    for (name, k) in &kernels {
        let (n, ()) = allocations(|| {
            let t = k(&mut pool);
            pool.recycle_tensor(t);
        });
        assert_eq!(n, 0, "{name} allocated {n} time(s) with a warm pool");
    }
}
