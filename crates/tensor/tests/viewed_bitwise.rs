//! Bit-exact pins of the view kernels in `sf_tensor::ops::viewed`.
//!
//! Every element-wise, broadcast and reduction kernel is compared, by
//! `f32::to_bits`, against a naive reference written here: one loop over
//! the row-major output index, decoded into a multi-index with one `/`
//! and one `%` per axis, and mapped through the operand's strides. The
//! reference calls the same scalar `op.eval` / `combine` / `finalize` in
//! the same order, so any kernel that reorders an accumulation or reads
//! the wrong element fails here.
//!
//! Operands are drawn from a seeded [`XorShiftRng`] and cover ranks 0–5,
//! dense views, non-contiguous `slice`s, `view_reshaped` views (sliced
//! and not), and broadcasting on the left, the right and both sides.

use sf_tensor::ops::{viewed, BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::rng::XorShiftRng;
use sf_tensor::{DType, ScratchPool, Shape, Tensor, TensorView};

const UNARY: [UnaryOp; 13] = [
    UnaryOp::Exp,
    UnaryOp::Neg,
    UnaryOp::Sqrt,
    UnaryOp::Sqr,
    UnaryOp::Recip,
    UnaryOp::Relu,
    UnaryOp::Gelu,
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Silu,
    UnaryOp::Log,
    UnaryOp::Abs,
    UnaryOp::Identity,
];

const BINARY: [BinaryOp; 6] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Max,
    BinaryOp::Min,
];

const REDUCE: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Mean];

/// Random cases drawn per rank.
const CASES: usize = 24;

/// How an operand's view is derived from its owning tensor.
enum Layout {
    /// The whole tensor.
    Dense,
    /// A `slice` of a larger tensor (non-contiguous unless degenerate).
    Sliced(Vec<(usize, usize)>),
    /// A flat tensor viewed under the operand's dims.
    Reshaped(Shape),
    /// A flat tensor viewed under a larger shape, then sliced.
    ReshapedSliced(Shape, Vec<(usize, usize)>),
}

/// One kernel operand: an owning tensor plus how to view it.
struct Operand {
    owner: Tensor,
    layout: Layout,
}

impl Operand {
    fn view(&self) -> TensorView<'_> {
        match &self.layout {
            Layout::Dense => self.owner.view(),
            Layout::Sliced(r) => self.owner.slice(r).unwrap(),
            Layout::Reshaped(s) => self.owner.view_reshaped(s.clone()).unwrap(),
            Layout::ReshapedSliced(s, r) => self
                .owner
                .view_reshaped(s.clone())
                .unwrap()
                .slice(r)
                .unwrap(),
        }
    }
}

/// Values spanning signs, magnitudes, zeros and the odd special value,
/// so `Log`/`Sqrt`/`Recip`/`Max`/`Min` see their edge cases.
fn value(rng: &mut XorShiftRng) -> f32 {
    match rng.below(16) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NAN,
        4 => rng.uniform(-1e4, 1e4),
        _ => rng.uniform(-3.0, 3.0),
    }
}

fn tensor(rng: &mut XorShiftRng, dims: &[usize]) -> Tensor {
    let shape = Shape::new(dims.to_vec());
    let data = (0..shape.volume()).map(|_| value(rng)).collect();
    Tensor::from_data(shape, DType::F32, data).unwrap()
}

/// Random operand dims of `rank`: small outer extents, a last axis long
/// enough to cross the 4-wide unrolled chunks, the odd zero extent.
fn dims(rng: &mut XorShiftRng, rank: usize) -> Vec<usize> {
    (0..rank)
        .map(|ax| {
            if rng.below(20) == 0 {
                0
            } else if ax + 1 == rank && rank <= 3 {
                1 + rng.below(13) as usize
            } else {
                1 + rng.below(4) as usize
            }
        })
        .collect()
}

/// An operand whose view has exactly `dims`, in a random layout.
fn operand(rng: &mut XorShiftRng, dims: &[usize]) -> Operand {
    let pad = |rng: &mut XorShiftRng| -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut parent = Vec::with_capacity(dims.len());
        let mut ranges = Vec::with_capacity(dims.len());
        for &d in dims {
            let lo = rng.below(3) as usize;
            let hi = rng.below(3) as usize;
            parent.push(lo + d + hi);
            ranges.push((lo, lo + d));
        }
        (parent, ranges)
    };
    match rng.below(4) {
        0 => Operand {
            owner: tensor(rng, dims),
            layout: Layout::Dense,
        },
        1 => {
            let (parent, ranges) = pad(rng);
            Operand {
                owner: tensor(rng, &parent),
                layout: Layout::Sliced(ranges),
            }
        }
        2 => {
            let volume = dims.iter().product();
            Operand {
                owner: tensor(rng, &[volume]),
                layout: Layout::Reshaped(Shape::new(dims.to_vec())),
            }
        }
        _ => {
            let (parent, ranges) = pad(rng);
            let volume = parent.iter().product();
            Operand {
                owner: tensor(rng, &[volume]),
                layout: Layout::ReshapedSliced(Shape::new(parent), ranges),
            }
        }
    }
}

/// Storage offset of row-major position `lin` of `dims`, under
/// `strides`: the per-element div/mod decode.
fn offset(lin: usize, dims: &[usize], strides: &[usize]) -> usize {
    let dec = Shape::new(dims.to_vec()).strides();
    let mut rem = lin;
    let mut off = 0;
    for d in 0..dims.len() {
        let idx = rem / dec[d].max(1);
        rem %= dec[d].max(1);
        off += idx * strides[d];
    }
    off
}

/// `v`'s strides with axes broadcast into `out` set to 0.
fn masked(v: &TensorView, out: &[usize]) -> Vec<usize> {
    v.dims()
        .iter()
        .zip(out)
        .zip(v.strides())
        .map(|((&vd, &od), &s)| if vd == od { s } else { 0 })
        .collect()
}

fn ref_unary(op: UnaryOp, x: &TensorView) -> Vec<f32> {
    (0..x.volume())
        .map(|lin| op.eval(x.data()[offset(lin, x.dims(), x.strides())]))
        .collect()
}

fn ref_binary_scalar(op: BinaryOp, x: &TensorView, s: f32) -> Vec<f32> {
    (0..x.volume())
        .map(|lin| op.eval(x.data()[offset(lin, x.dims(), x.strides())], s))
        .collect()
}

fn ref_binary(op: BinaryOp, a: &TensorView, b: &TensorView, out: &[usize]) -> Vec<f32> {
    let (sa, sb) = (masked(a, out), masked(b, out));
    let volume: usize = out.iter().product();
    (0..volume)
        .map(|lin| {
            op.eval(
                a.data()[offset(lin, out, &sa)],
                b.data()[offset(lin, out, &sb)],
            )
        })
        .collect()
}

fn ref_broadcast_to(x: &TensorView, dim: usize, extent: usize) -> Vec<f32> {
    let mut out = x.dims().to_vec();
    out[dim] = extent;
    let mut strides = x.strides().to_vec();
    strides[dim] = 0;
    let volume: usize = out.iter().product();
    (0..volume)
        .map(|lin| x.data()[offset(lin, &out, &strides)])
        .collect()
}

fn ref_reduce(op: ReduceOp, x: &TensorView, dim: usize) -> Vec<f32> {
    let extent = x.dims()[dim];
    let mut out = x.dims().to_vec();
    out[dim] = 1;
    let volume: usize = out.iter().product();
    (0..volume)
        .map(|lin| {
            let base = offset(lin, &out, x.strides());
            let mut acc = op.identity();
            for r in 0..extent {
                acc = op.combine(acc, x.data()[base + r * x.strides()[dim]]);
            }
            op.finalize(acc, extent)
        })
        .collect()
}

#[track_caller]
fn assert_bits(what: &str, got: &Tensor, dims: &[usize], want: &[f32]) {
    assert_eq!(got.shape().dims(), dims, "{what}: shape");
    let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "{what}: bits");
}

#[test]
fn unary_and_scalar_match_reference_bits() {
    let mut rng = XorShiftRng::seed_from_u64(0xb175_0001);
    let mut pool = ScratchPool::new();
    for rank in 0..=5 {
        for case in 0..CASES {
            let d = dims(&mut rng, rank);
            let x = operand(&mut rng, &d);
            let v = x.view();
            for op in UNARY {
                let got = viewed::unary(op, &v, &mut pool);
                let what = format!("unary {op:?} rank {rank} case {case} {d:?}");
                assert_bits(&what, &got, &d, &ref_unary(op, &v));
                pool.recycle_tensor(got);
            }
            let s = value(&mut rng);
            for op in BINARY {
                let got = viewed::binary_scalar(op, &v, s, &mut pool);
                let what = format!("binary_scalar {op:?} rank {rank} case {case} {d:?}");
                assert_bits(&what, &got, &d, &ref_binary_scalar(op, &v, s));
                pool.recycle_tensor(got);
            }
        }
    }
}

#[test]
fn binary_broadcasts_match_reference_bits() {
    let mut rng = XorShiftRng::seed_from_u64(0xb175_0002);
    let mut pool = ScratchPool::new();
    for rank in 0..=5 {
        for case in 0..CASES {
            let out = dims(&mut rng, rank);
            // 0: no broadcast, 1: left operand broadcasts, 2: right,
            // 3: both (each axis independently).
            let side = case % 4;
            let mut da = out.clone();
            let mut db = out.clone();
            for ax in 0..rank {
                match (side, rng.below(2)) {
                    (1, 0) => da[ax] = 1,
                    (2, 0) => db[ax] = 1,
                    (3, 0) => da[ax] = 1,
                    (3, _) if rng.below(2) == 0 => db[ax] = 1,
                    _ => {}
                }
            }
            let want_dims = Shape::new(da.clone())
                .broadcast_with(&Shape::new(db.clone()))
                .unwrap();
            let a = operand(&mut rng, &da);
            let b = operand(&mut rng, &db);
            let (va, vb) = (a.view(), b.view());
            for op in BINARY {
                let got = viewed::binary(op, &va, &vb, &mut pool).unwrap();
                let what = format!("binary {op:?} rank {rank} case {case} {da:?} x {db:?}");
                assert_bits(
                    &what,
                    &got,
                    want_dims.dims(),
                    &ref_binary(op, &va, &vb, want_dims.dims()),
                );
                pool.recycle_tensor(got);
            }
        }
    }
}

#[test]
fn broadcast_to_matches_reference_bits() {
    let mut rng = XorShiftRng::seed_from_u64(0xb175_0003);
    let mut pool = ScratchPool::new();
    for rank in 1..=5 {
        for case in 0..CASES {
            let mut d = dims(&mut rng, rank);
            for dim in 0..rank {
                let keep = d[dim];
                d[dim] = 1;
                let x = operand(&mut rng, &d);
                let v = x.view();
                let extent = rng.below(6) as usize;
                let got = viewed::broadcast_to(&v, dim, extent, &mut pool).unwrap();
                let mut want_dims = d.clone();
                want_dims[dim] = extent;
                let what = format!("broadcast_to dim {dim} -> {extent} rank {rank} case {case}");
                assert_bits(&what, &got, &want_dims, &ref_broadcast_to(&v, dim, extent));
                pool.recycle_tensor(got);
                d[dim] = keep;
            }
        }
    }
}

#[test]
fn reduce_every_axis_matches_reference_bits() {
    let mut rng = XorShiftRng::seed_from_u64(0xb175_0004);
    let mut pool = ScratchPool::new();
    for rank in 1..=5 {
        for case in 0..CASES {
            let d = dims(&mut rng, rank);
            let x = operand(&mut rng, &d);
            let v = x.view();
            for dim in 0..rank {
                let mut want_dims = d.clone();
                want_dims[dim] = 1;
                for op in REDUCE {
                    let got = viewed::reduce(op, &v, dim, &mut pool).unwrap();
                    let what = format!("reduce {op:?} dim {dim} rank {rank} case {case} {d:?}");
                    assert_bits(&what, &got, &want_dims, &ref_reduce(op, &v, dim));
                    pool.recycle_tensor(got);
                }
            }
        }
    }
}

#[test]
fn out_of_range_and_mismatched_operands_are_errors() {
    let mut pool = ScratchPool::new();
    let x = Tensor::zeros(Shape::new(vec![2, 3]), DType::F32);
    let y = Tensor::zeros(Shape::new(vec![2, 2]), DType::F32);
    let z = Tensor::zeros(Shape::new(vec![2, 3, 1]), DType::F32);
    assert!(viewed::binary(BinaryOp::Add, &x.view(), &y.view(), &mut pool).is_err());
    assert!(viewed::binary(BinaryOp::Add, &x.view(), &z.view(), &mut pool).is_err());
    assert!(viewed::reduce(ReduceOp::Sum, &x.view(), 2, &mut pool).is_err());
    assert!(viewed::broadcast_to(&x.view(), 0, 4, &mut pool).is_err());
    assert!(viewed::broadcast_to(&x.view(), 2, 4, &mut pool).is_err());
}
