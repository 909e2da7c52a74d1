//! View-based operator kernels with scratch-buffer reuse.
//!
//! These are the reference semantics of every operator — the plain
//! `&Tensor` operators in this module's siblings delegate here — over
//! zero-copy [`TensorView`] operands, with output buffers drawn from a
//! [`ScratchPool`], so the kernel interpreter evaluates a block tile
//! without cloning inputs or allocating outputs.
//!
//! # One walker
//!
//! Every element-wise kernel (`unary`, `binary_scalar`, `binary`,
//! `broadcast_to`) and the outer loop of `reduce` run on one row walker,
//! `Walk`. It visits the dense row-major output one *row* (run along
//! the innermost axis) at a time, stepping the outer axes like an
//! odometer and carrying each operand's base offset, so no element pays
//! an index decode. Before walking it drops extent-1 axes and merges
//! adjacent axes that every operand steps through as one, so a dense
//! operand pair — or a dense tile of a wider tensor — is a single run.
//! Each row's inner loop is specialised for operand steps (1, 1), (1, 0)
//! (right operand broadcast along the row), (0, 1) and general strides,
//! and the operator is matched once, outside the walk, so every
//! `UnaryOp`/`BinaryOp` runs its own monomorphised loop.
//!
//! # Bit identity
//!
//! Which rows exist and in which order the walker visits them is
//! unobservable in the results: every element-wise output element is
//! still `op.eval` of exactly the operands the row-major index maps to,
//! and nothing accumulates across elements. `reduce` keeps its combine
//! chain along the reduced axis — sequential left to right, 4-wide
//! unrolled on stride-1 runs — and the three `matmul` loop orders
//! (row-dot, `i/k/j`, generic `i/j/k`) add in ascending-`k` order from
//! zero, so no accumulation order depends on layout or path. Pooled,
//! viewed and dense execution are therefore bit-identical
//! (`tests/viewed_bitwise.rs` pins every kernel against a naive
//! per-element reference).
//!
//! Shapes and strides are inline up to rank 4 ([`crate::Dims`]), so with
//! a warm pool a kernel call performs no heap allocation.

use super::{BinaryOp, ReduceOp, UnaryOp};
use crate::error::{Result, TensorError};
use crate::inline::InlineVec;
use crate::scratch::ScratchPool;
use crate::shape::{Dims, Shape};
use crate::tensor::Tensor;
use crate::view::TensorView;

/// A row-major walk over a dense output, reading two strided operands.
///
/// Kernels with one operand pass its strides twice.
pub(crate) struct Walk {
    /// Outer axes, outermost first: `[extent, stride_a, stride_b]`.
    outer: InlineVec<[usize; 3], 4>,
    /// Elements per row (the innermost, possibly merged, axis).
    len: usize,
    /// Each operand's stride along a row.
    step: [usize; 2],
    /// Whether some extent is zero (nothing to visit).
    empty: bool,
}

impl Walk {
    /// The walk over output `dims` with operand strides `a` and `b`
    /// (stride 0 on an axis an operand is broadcast along).
    pub(crate) fn new(dims: &[usize], a: &[usize], b: &[usize]) -> Walk {
        let mut outer: InlineVec<[usize; 3], 4> = InlineVec::new();
        for ((&d, &sa), &sb) in dims.iter().zip(a).zip(b) {
            if d == 1 {
                continue;
            }
            if let Some(prev) = outer.last_mut() {
                // The output is dense, so the axes merge when each
                // operand's outer stride spans exactly the inner axis.
                if prev[1] == sa * d && prev[2] == sb * d {
                    *prev = [prev[0] * d, sa, sb];
                    continue;
                }
            }
            outer.push([d, sa, sb]);
        }
        let [len, sa, sb] = outer.pop().unwrap_or([1, 0, 0]);
        Walk {
            outer,
            len,
            step: [sa, sb],
            empty: dims.contains(&0),
        }
    }

    /// Elements per row.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Each operand's stride along a row.
    pub(crate) fn step(&self) -> [usize; 2] {
        self.step
    }

    /// Calls `row(start, off_a, off_b)` for every row in row-major
    /// order: the row covers output elements `start..start + len()`, and
    /// operand `k`'s element `j` of it sits at `off_k + j * step()[k]`.
    pub(crate) fn rows(&self, mut row: impl FnMut(usize, usize, usize)) {
        if self.empty {
            return;
        }
        let n_rows: usize = self.outer.iter().map(|ax| ax[0]).product();
        let mut idx: Dims = self.outer.iter().map(|_| 0).collect();
        let (mut oa, mut ob) = (0, 0);
        for r in 0..n_rows {
            row(r * self.len, oa, ob);
            for (ax, i) in self.outer.iter().zip(idx.iter_mut()).rev() {
                *i += 1;
                oa += ax[1];
                ob += ax[2];
                if *i < ax[0] {
                    break;
                }
                *i = 0;
                oa -= ax[0] * ax[1];
                ob -= ax[0] * ax[2];
            }
        }
    }
}

/// Runs `$body` with `$f` bound to the unary operator's scalar
/// function, one match arm per operator, so each arm's row loops are
/// monomorphised for a constant operator.
macro_rules! per_unary_op {
    ($op:expr, $f:ident => $body:expr) => {
        per_unary_op!(@ $op, $f, $body,
            Exp, Neg, Sqrt, Sqr, Recip, Relu, Gelu, Tanh, Sigmoid, Silu, Log, Abs, Identity)
    };
    (@ $op:expr, $f:ident, $body:expr, $($v:ident),*) => {
        match $op {
            $(UnaryOp::$v => {
                let $f = |x: f32| UnaryOp::$v.eval(x);
                $body
            })*
        }
    };
}

/// [`per_unary_op`] for binary operators.
macro_rules! per_binary_op {
    ($op:expr, $f:ident => $body:expr) => {
        per_binary_op!(@ $op, $f, $body, Add, Sub, Mul, Div, Max, Min)
    };
    (@ $op:expr, $f:ident, $body:expr, $($v:ident),*) => {
        match $op {
            $(BinaryOp::$v => {
                let $f = |x: f32, y: f32| BinaryOp::$v.eval(x, y);
                $body
            })*
        }
    };
}

/// `out[i] = f(x[i])` over the walk.
fn map_rows(f: impl Fn(f32) -> f32, out: &mut [f32], w: &Walk, x: &[f32]) {
    let n = w.len();
    match w.step()[0] {
        1 => w.rows(|o, ox, _| {
            for (y, &v) in out[o..o + n].iter_mut().zip(&x[ox..ox + n]) {
                *y = f(v);
            }
        }),
        s => w.rows(|o, ox, _| {
            for (j, y) in out[o..o + n].iter_mut().enumerate() {
                *y = f(x[ox + j * s]);
            }
        }),
    }
}

/// `out[i] = f(a[i], b[i])` over the walk.
fn zip_rows(f: impl Fn(f32, f32) -> f32, out: &mut [f32], w: &Walk, a: &[f32], b: &[f32]) {
    let n = w.len();
    match w.step() {
        [1, 1] => w.rows(|o, oa, ob| {
            for ((y, &u), &v) in out[o..o + n]
                .iter_mut()
                .zip(&a[oa..oa + n])
                .zip(&b[ob..ob + n])
            {
                *y = f(u, v);
            }
        }),
        [1, 0] => w.rows(|o, oa, ob| {
            let v = b[ob];
            for (y, &u) in out[o..o + n].iter_mut().zip(&a[oa..oa + n]) {
                *y = f(u, v);
            }
        }),
        [0, 1] => w.rows(|o, oa, ob| {
            let u = a[oa];
            for (y, &v) in out[o..o + n].iter_mut().zip(&b[ob..ob + n]) {
                *y = f(u, v);
            }
        }),
        [sa, sb] => w.rows(|o, oa, ob| {
            for (j, y) in out[o..o + n].iter_mut().enumerate() {
                *y = f(a[oa + j * sa], b[ob + j * sb]);
            }
        }),
    }
}

/// Applies a unary operator element-wise.
pub fn unary(op: UnaryOp, x: &TensorView, pool: &mut ScratchPool) -> Tensor {
    let mut out = pool.take(x.volume());
    let w = Walk::new(x.dims(), x.strides(), x.strides());
    per_unary_op!(op, f => map_rows(f, &mut out, &w, x.data()));
    Tensor::from_data(x.shape().clone(), x.dtype(), out).expect("unary preserves volume")
}

/// Applies `op(x, scalar)` element-wise.
pub fn binary_scalar(op: BinaryOp, x: &TensorView, scalar: f32, pool: &mut ScratchPool) -> Tensor {
    let mut out = pool.take(x.volume());
    let w = Walk::new(x.dims(), x.strides(), x.strides());
    per_binary_op!(op, f => map_rows(|v| f(v, scalar), &mut out, &w, x.data()));
    Tensor::from_data(x.shape().clone(), x.dtype(), out).expect("binary_scalar preserves volume")
}

/// Applies a binary operator element-wise with limited broadcasting
/// (either operand may have extent 1 where the other is larger; ranks
/// must match).
pub fn binary(
    op: BinaryOp,
    a: &TensorView,
    b: &TensorView,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let out_shape = a.shape().broadcast_with(b.shape())?;
    let mut out = pool.take(out_shape.volume());
    let w = Walk::new(
        out_shape.dims(),
        &masked_strides(a, &out_shape),
        &masked_strides(b, &out_shape),
    );
    per_binary_op!(op, f => zip_rows(f, &mut out, &w, a.data(), b.data()));
    Ok(Tensor::from_data(out_shape, a.dtype(), out).expect("volume matches"))
}

/// Reduces along dimension `dim`, keeping it with extent 1.
pub fn reduce(op: ReduceOp, x: &TensorView, dim: usize, pool: &mut ScratchPool) -> Result<Tensor> {
    let rank = x.rank();
    if dim >= rank {
        return Err(TensorError::DimOutOfRange { dim, rank });
    }
    let extent = x.shape().dim(dim)?;
    let out_shape = x.shape().with_dim(dim, 1)?;
    let xd = x.data();
    let red = x.strides()[dim];
    let mut out = pool.take(out_shape.volume());
    // The reduced axis has output extent 1, so the walk runs over the
    // kept axes only; each output element then folds its input run.
    let w = Walk::new(out_shape.dims(), x.strides(), x.strides());
    let (n, step) = (w.len(), w.step()[0]);
    w.rows(|o, ox, _| {
        for (j, slot) in out[o..o + n].iter_mut().enumerate() {
            let base = ox + j * step;
            let mut acc = op.identity();
            if red == 1 {
                // Stride-1 fast path: fold over the contiguous run, 4-wide
                // unrolled. The combine chain is sequential left-to-right —
                // identical order to the strided loop below, so the result
                // is bit-identical.
                let run = &xd[base..base + extent];
                let mut chunks = run.chunks_exact(4);
                for c in &mut chunks {
                    acc = op.combine(acc, c[0]);
                    acc = op.combine(acc, c[1]);
                    acc = op.combine(acc, c[2]);
                    acc = op.combine(acc, c[3]);
                }
                for &v in chunks.remainder() {
                    acc = op.combine(acc, v);
                }
            } else {
                for r in 0..extent {
                    acc = op.combine(acc, xd[base + r * red]);
                }
            }
            *slot = op.finalize(acc, extent);
        }
    });
    Tensor::from_data(out_shape, x.dtype(), out)
}

/// Broadcasts a view with extent 1 in `dim` to extent `extent`.
pub fn broadcast_to(
    x: &TensorView,
    dim: usize,
    extent: usize,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    let rank = x.rank();
    if dim >= rank {
        return Err(TensorError::DimOutOfRange { dim, rank });
    }
    if x.shape().dim(dim)? != 1 {
        return Err(TensorError::InvalidShape(format!(
            "broadcast_to requires extent 1 in dim {dim}, got shape {}",
            x.shape()
        )));
    }
    let out_shape = x.shape().with_dim(dim, extent)?;
    let mut strides: Dims = x.strides().into();
    strides[dim] = 0;
    let xd = x.data();
    let mut out = pool.take(out_shape.volume());
    let w = Walk::new(out_shape.dims(), &strides, &strides);
    let n = w.len();
    match w.step()[0] {
        1 => w.rows(|o, ox, _| out[o..o + n].copy_from_slice(&xd[ox..ox + n])),
        0 => w.rows(|o, ox, _| out[o..o + n].fill(xd[ox])),
        s => w.rows(|o, ox, _| {
            for (j, y) in out[o..o + n].iter_mut().enumerate() {
                *y = xd[ox + j * s];
            }
        }),
    }
    Tensor::from_data(out_shape, x.dtype(), out)
}

/// 2-D matrix multiplication `C[M,N] = A · B` over views.
///
/// When `transpose_b` is false, `B` has shape `[K, N]`; when true, `B`
/// has shape `[N, K]`.
pub fn matmul(
    a: &TensorView,
    b: &TensorView,
    transpose_b: bool,
    pool: &mut ScratchPool,
) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul(rank)",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }
    let (m, k) = (a.shape().dim(0)?, a.shape().dim(1)?);
    let (n, bk) = if transpose_b {
        (b.shape().dim(0)?, b.shape().dim(1)?)
    } else {
        (b.shape().dim(1)?, b.shape().dim(0)?)
    };
    if k != bk {
        return Err(TensorError::ShapeMismatch {
            op: "matmul(inner)",
            lhs: a.shape().clone(),
            rhs: b.shape().clone(),
        });
    }

    let (as0, as1) = (a.strides()[0], a.strides()[1]);
    let (bs0, bs1) = (b.strides()[0], b.strides()[1]);
    let ad = a.data();
    let bd = b.data();
    let mut out = pool.take(m * n);
    if transpose_b && as1 == 1 && bs1 == 1 && k > 0 {
        // Row-dot fast path: both operand rows are stride-1 slices, so
        // each output is a bounds-check-free dot product, 4-wide
        // unrolled with a single sequential accumulator (same add order
        // as the generic loop).
        for i in 0..m {
            let arow = &ad[i * as0..i * as0 + k];
            for j in 0..n {
                let brow = &bd[j * bs0..j * bs0 + k];
                let mut acc = 0.0f32;
                let mut ac = arow.chunks_exact(4);
                let mut bc = brow.chunks_exact(4);
                for (ca, cb) in (&mut ac).zip(&mut bc) {
                    acc += ca[0] * cb[0];
                    acc += ca[1] * cb[1];
                    acc += ca[2] * cb[2];
                    acc += ca[3] * cb[3];
                }
                for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
                    acc += x * y;
                }
                out[i * n + j] = acc;
            }
        }
    } else if !transpose_b && bs1 == 1 && n > 0 {
        // `i/k/j` fast path: walk B by stride-1 rows, accumulating into
        // the (zero-initialized) output row. For a fixed (i, j) the
        // additions still happen in ascending-k order starting from
        // zero — exactly the generic loop's order — so results are
        // bit-identical while B is now read cache-friendly.
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let av = ad[i * as0 + kk * as1];
                let brow = &bd[kk * bs0..kk * bs0 + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    } else {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let bv = if transpose_b {
                        bd[j * bs0 + kk * bs1]
                    } else {
                        bd[kk * bs0 + j * bs1]
                    };
                    acc += ad[i * as0 + kk * as1] * bv;
                }
                out[i * n + j] = acc;
            }
        }
    }
    Tensor::from_data(Shape::from(&[m, n][..]), a.dtype(), out)
}

/// Strides of `v` viewed in `out` shape: broadcast dims get stride 0.
fn masked_strides(v: &TensorView, out: &Shape) -> Dims {
    v.dims()
        .iter()
        .zip(out.dims().iter())
        .zip(v.strides())
        .map(|((&td, &od), &s)| if td == od { s } else { 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DType;

    fn t(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_data(Shape::new(dims), DType::F32, data).unwrap()
    }

    #[test]
    fn strided_operands_match_materialized() {
        let x = t(vec![4, 4], (0..16).map(|i| i as f32).collect());
        let v = x.slice(&[(1, 3), (1, 4)]).unwrap();
        let dense = v.to_tensor();
        let mut pool = ScratchPool::new();

        assert_eq!(
            unary(UnaryOp::Sqr, &v, &mut pool),
            unary(UnaryOp::Sqr, &dense.view(), &mut pool)
        );
        assert_eq!(
            reduce(ReduceOp::Sum, &v, 1, &mut pool).unwrap(),
            reduce(ReduceOp::Sum, &dense.view(), 1, &mut pool).unwrap()
        );
        let col = x.slice(&[(1, 3), (0, 1)]).unwrap();
        assert_eq!(
            binary(BinaryOp::Sub, &v, &col, &mut pool).unwrap(),
            binary(
                BinaryOp::Sub,
                &dense.view(),
                &col.to_tensor().view(),
                &mut pool
            )
            .unwrap()
        );
    }

    #[test]
    fn strided_matmul_matches_dense() {
        let x = t(vec![3, 4], (0..12).map(|i| i as f32).collect());
        let y = t(vec![4, 4], (0..16).map(|i| (i as f32) * 0.5).collect());
        let a = x.slice(&[(0, 3), (1, 4)]).unwrap();
        let b = y.slice(&[(0, 3), (1, 4)]).unwrap();
        let mut pool = ScratchPool::new();
        let c = matmul(&a, &b, false, &mut pool).unwrap();
        let c_dense = matmul(
            &a.to_tensor().view(),
            &b.to_tensor().view(),
            false,
            &mut pool,
        )
        .unwrap();
        assert_eq!(c, c_dense);
        // transpose_b path as well
        let ct = matmul(&a, &b, true, &mut pool).unwrap();
        let ct_dense = matmul(
            &a.to_tensor().view(),
            &b.to_tensor().view(),
            true,
            &mut pool,
        )
        .unwrap();
        assert_eq!(ct, ct_dense);
    }

    #[test]
    fn pooled_results_are_bit_identical_to_fresh() {
        let x = Tensor::random(Shape::new(vec![8, 8]), DType::F32, 11);
        let mut pool = ScratchPool::new();
        let mut fresh = ScratchPool::disabled();
        // Warm the pool so the second round reuses buffers.
        let w = unary(UnaryOp::Gelu, &x.view(), &mut pool);
        pool.recycle_tensor(w);
        let pooled = unary(UnaryOp::Gelu, &x.view(), &mut pool);
        let direct = unary(UnaryOp::Gelu, &x.view(), &mut fresh);
        assert!(pool.hits() > 0);
        assert_eq!(pooled, direct);
    }
}
