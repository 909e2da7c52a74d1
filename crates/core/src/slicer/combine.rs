//! Split-K combine algebra: folding per-partition partial aggregates.
//!
//! A split-K schedule evaluates the temporal loop of a sliced reduction
//! in `P` independent partitions — each partition runs the ordinary
//! intra-block loop over its own tile range and produces the same kind
//! of partial state the serial loop carries between tiles (a running
//! sum, a running max, or a UTA-rescaled pair such as the online-softmax
//! `(max, rescaled sum, rescaled output)`). A *combine phase* then folds
//! the `P` partial states pairwise in fixed partition order.
//!
//! The fold reuses the existing UTA machinery: combining partitions `a`
//! and `b` applies each sliced reduction's update factors to **both**
//! sides (the serial loop only rescales the old side because the new
//! tile is already expressed against the current factor values — a
//! partition's state is not, so both need rescaling onto the combined
//! factor values) and then merges with the reduction's combine operator.
//! For attention this is exactly the FlashDecoding fixup:
//! `o = o_a·(s_a/s)·exp(m_a−m) + o_b·(s_b/s)·exp(m_b−m)`.
//!
//! [`derive_combine`] decides, per sliced reduction of a temporal plan,
//! whether a legal combine exists and what it looks like. A plan where
//! any sliced reduction has no combinable algebra cannot be split.

use crate::slicer::temporal::{AggKind, TemporalPlan};
use sf_ir::{Graph, OpKind};
use sf_tensor::ops::{BinaryOp, ReduceOp};

/// How one sliced reduction's per-partition partial states fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineSpec {
    /// Associative merge of two partial states (applied after any
    /// rescaling): `Max` for max-reductions, `Add` for sums, means
    /// (which accumulate raw sums and finalize once at the end), and
    /// GEMM partial products.
    pub op: BinaryOp,
    /// Whether both sides must be rescaled by the reduction's UTA
    /// update factors before merging (the (max, rescaled-sum)
    /// softmax/attention algebra). `false` for Simple aggregates.
    pub rescale: bool,
}

/// Derives the combine phase for every sliced reduction of `plan`, in
/// [`TemporalPlan::sliced`] order. Returns `None` when any sliced
/// reduction has no associative partial-state algebra — such plans must
/// stay serial.
pub fn derive_combine(graph: &Graph, plan: &TemporalPlan) -> Option<Vec<CombineSpec>> {
    plan.sliced
        .iter()
        .map(|s| {
            Some(CombineSpec {
                op: merge_op(&graph.ops()[s.op.0].kind)?,
                rescale: matches!(s.agg, AggKind::Uta(_)),
            })
        })
        .collect()
}

/// The associative merge of two partial states of a sliced reduction of
/// kind `kind` — shared by the running aggregation of the serial tile
/// loop and the split-K combine. `None` when the op has no known
/// partial-state algebra.
pub fn merge_op(kind: &OpKind) -> Option<BinaryOp> {
    match kind {
        // Max partials fold with max; Sum partials add. Mean accumulates
        // raw sums in the loop (finalized by one division after it), so
        // its partials also add.
        OpKind::Reduce {
            op: ReduceOp::Max, ..
        } => Some(BinaryOp::Max),
        OpKind::Reduce {
            op: ReduceOp::Sum | ReduceOp::Mean,
            ..
        } => Some(BinaryOp::Add),
        // A K-sliced GEMM accumulates partial dot products.
        OpKind::Gemm { .. } => Some(BinaryOp::Add),
        // Anything else sliced along the temporal dim has no known
        // partial-state algebra.
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::slicer::{eligible_spatial_dims, pick_temporal_dim, plan_temporal};
    use crate::smg::build_smg;
    use sf_ir::Graph;
    use sf_tensor::ops::{BinaryOp as B, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    fn plan_of(g: &Graph) -> (TemporalPlan, Graph) {
        let smg = build_smg(g).unwrap();
        let spatial = eligible_spatial_dims(g, &smg);
        let dim = pick_temporal_dim(g, &smg, &spatial).unwrap();
        (plan_temporal(g, &smg, dim).unwrap(), g.clone())
    }

    #[test]
    fn softmax_combines_max_then_rescaled_add() {
        let mut g = Graph::new("sm", DType::F32);
        let x = g.input("x", Shape::new(vec![8, 64]));
        let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(B::Sub, x, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(B::Div, e, z).unwrap();
        g.mark_output(d);
        let (plan, g) = plan_of(&g);
        let specs = derive_combine(&g, &plan).unwrap();
        assert_eq!(specs.len(), 2);
        // Running max: Simple aggregate, folds with max, no rescale.
        assert_eq!(
            specs[0],
            CombineSpec {
                op: B::Max,
                rescale: false
            }
        );
        // Rescaled sum: UTA partial, folds with add after rescaling.
        assert_eq!(
            specs[1],
            CombineSpec {
                op: B::Add,
                rescale: true
            }
        );
    }

    #[test]
    fn mean_partials_fold_with_add() {
        let mut g = Graph::new("mean", DType::F32);
        let x = g.input("x", Shape::new(vec![8, 64]));
        let m = g.reduce(ReduceOp::Mean, x, 1).unwrap();
        g.mark_output(m);
        let (plan, g) = plan_of(&g);
        let specs = derive_combine(&g, &plan).unwrap();
        assert_eq!(
            specs,
            vec![CombineSpec {
                op: B::Add,
                rescale: false
            }]
        );
    }

    #[test]
    fn attention_output_gemm_is_rescaled_add() {
        let mut g = Graph::new("attn", DType::F32);
        let q = g.input("q", Shape::new(vec![1, 16]));
        let k = g.input("k", Shape::new(vec![128, 16]));
        let v = g.input("v", Shape::new(vec![128, 16]));
        let qk = g.gemm(q, k, true).unwrap();
        let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
        let s = g.binary(B::Sub, qk, mx).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(B::Div, e, z).unwrap();
        let o = g.gemm(d, v, false).unwrap();
        g.mark_output(o);
        let (plan, g) = plan_of(&g);
        let specs = derive_combine(&g, &plan).unwrap();
        // max, sum, out-GEMM along the kv dim.
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().any(|s| s.op == B::Max && !s.rescale));
        // The output GEMM carries UTA factors -> rescaled add
        // (the FlashDecoding combine).
        assert_eq!(
            *specs.last().unwrap(),
            CombineSpec {
                op: B::Add,
                rescale: true
            }
        );
    }
}
