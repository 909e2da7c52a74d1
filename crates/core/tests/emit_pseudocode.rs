//! Golden-shape tests of the pseudo-code printer: the rendering of the
//! paper's Fig. 7 attention kernel, flat kernels, split-K partition
//! loops with their combine fold, and two-phase re-streaming.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
use sf_tensor::{DType, Shape};
use spacefusion::codegen::emit_pseudocode;
use spacefusion::compiler::{Compiler, FusionPolicy};

fn mha(l: usize) -> Graph {
    let mut g = Graph::new("mha", DType::F16);
    let q = g.input("Q", Shape::new(vec![256, 64]));
    let k = g.input("K", Shape::new(vec![l, 64]));
    let v = g.input("V", Shape::new(vec![l, 64]));
    let qk = g.gemm(q, k, true).unwrap();
    g.rename_value(qk, "QK");
    let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
    g.rename_value(mx, "Max");
    let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
    g.rename_value(sub, "Sub");
    let e = g.unary(UnaryOp::Exp, sub).unwrap();
    g.rename_value(e, "Exp");
    let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    g.rename_value(s, "Sum");
    let d = g.binary(BinaryOp::Div, e, s).unwrap();
    g.rename_value(d, "Div");
    let out = g.gemm(d, v, false).unwrap();
    g.rename_value(out, "Out");
    g.mark_output(out);
    g
}

#[test]
fn mha_pseudocode_matches_figure_7_structure() {
    let g = mha(8192);
    // Pin the paper's serial Fig. 7 rendering: split-K would
    // legitimately partition this deep-KV loop, which the split
    // pseudo-code test covers instead.
    let mut opts = spacefusion::compiler::CompileOptions::default();
    opts.slicing.enable_split = false;
    let p = Compiler::new(Arch::Volta, opts).compile(&g).unwrap();
    let code = emit_pseudocode(&p.kernels[0]);
    // The paper's Fig. 7 structure: parallel blocks, an intra-block
    // loop, UTA update functions for Sum and Out.
    assert!(code.contains("parallel_for block"));
    assert!(code.contains("for intra_block in Block"));
    assert!(code.contains("Max = aggr(Max_old, max(QK"));
    assert!(code.contains("Sum = aggr(Sum_old * exp(Max_old - Max)"));
    assert!(code.contains("Out = aggr(Out_old * exp(Max_old - Max) * Sum_old/Sum"));
    assert!(code.contains("store(Out)"));
}

#[test]
fn flat_kernel_pseudocode_has_no_loop() {
    let g = mha(64);
    let p = Compiler::with_policy(Arch::Hopper, FusionPolicy::SpaceFusion)
        .compile(&g)
        .unwrap();
    let kp = &p.kernels[0];
    if kp.schedule.temporal.is_none() {
        let code = emit_pseudocode(kp);
        assert!(!code.contains("intra_block"));
        assert!(code.contains("gemm(Q, K)"));
    }
}

#[test]
fn split_pseudocode_shows_partitions_and_combine_fold() {
    // Decode shape: one query row, deep KV — the tuner picks split-K.
    let mut g = Graph::new("decode", DType::F16);
    let q = g.input("Q", Shape::new(vec![1, 32]));
    let k = g.input("K", Shape::new(vec![1024, 32]));
    let v = g.input("V", Shape::new(vec![1024, 32]));
    let qk = g.gemm(q, k, true).unwrap();
    let mx = g.reduce(ReduceOp::Max, qk, 1).unwrap();
    g.rename_value(mx, "Max");
    let sub = g.binary(BinaryOp::Sub, qk, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, sub).unwrap();
    let s = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    g.rename_value(s, "Sum");
    let d = g.binary(BinaryOp::Div, e, s).unwrap();
    let out = g.gemm(d, v, false).unwrap();
    g.rename_value(out, "Out");
    g.mark_output(out);
    let p = Compiler::with_policy(Arch::Ampere, FusionPolicy::SpaceFusion)
        .compile(&g)
        .unwrap();
    let kp = &p.kernels[0];
    let parts = kp
        .schedule
        .temporal
        .as_ref()
        .and_then(|t| t.split.as_ref())
        .map(|sp| sp.partitions)
        .expect("decode shape must split");
    let code = emit_pseudocode(kp);
    assert!(code.contains(&format!("split-K: {parts} parallel partitions")));
    assert!(code.contains("parallel_for p: for intra_block in partition(p)"));
    assert!(code.contains("park_partial(Max)"));
    // Simple max fold for the running max; rescaled adds for the
    // UTA sum and output (the FlashDecoding fixup).
    assert!(code.contains(&format!("Max = combine_max(Max[0..{parts}])")));
    assert!(code.contains(&format!("Sum = combine_add(Sum[0..{parts}], rescaled)")));
    assert!(code.contains(&format!("Out = combine_add(Out[0..{parts}], rescaled)")));
}

#[test]
fn two_phase_pseudocode_shows_second_pass() {
    let mut g = Graph::new("softmax", DType::F16);
    let x = g.input("X", Shape::new(vec![64, 65536]));
    let mx = g.reduce(ReduceOp::Max, x, 1).unwrap();
    let s = g.binary(BinaryOp::Sub, x, mx).unwrap();
    let e = g.unary(UnaryOp::Exp, s).unwrap();
    let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
    let d = g.binary(BinaryOp::Div, e, z).unwrap();
    g.mark_output(d);
    let p = Compiler::with_policy(Arch::Volta, FusionPolicy::SpaceFusion)
        .compile(&g)
        .unwrap();
    let kp = &p.kernels[0];
    assert!(kp
        .schedule
        .temporal
        .as_ref()
        .is_some_and(|t| t.plan.two_phase));
    let code = emit_pseudocode(kp);
    assert!(code.contains("phase 2"));
    assert!(code.contains("store_tile"));
}
