//! The interpreter runs the stored instruction stream it is given.
//!
//! Each test clones a compiled kernel, drops one instruction from its
//! `instrs`, and executes the mutilated kernel: a dropped compute leaves
//! a value unread-able, a dropped store leaves output elements unwritten.
//! Either way execution must fail with a typed error — never silently
//! return the reference output.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::Tensor;
use spacefusion::codegen::{ExecEngine, ExecOptions, Instr, KernelProgram};
use spacefusion::compiler::{CompileOptions, Compiler};
use spacefusion::SfError;
use std::collections::HashMap;

/// Single-kernel zoo graphs covering a flat kernel, a two-phase
/// temporal kernel, a UTA attention kernel and a split-K decode kernel.
fn kernels() -> Vec<(Graph, KernelProgram)> {
    let compiler = Compiler::new(Arch::Ampere, CompileOptions::default());
    let mut out = Vec::new();
    for g in [
        subgraphs::mlp_stack(1, 64, 32),
        subgraphs::softmax(64, 128),
        subgraphs::layernorm(64, 128),
        subgraphs::mha(1, 2, 64, 32),
        subgraphs::mha_decode(1, 2, 1024, 32),
    ] {
        let p = compiler.compile(&g).unwrap();
        assert_eq!(
            p.kernels.len(),
            1,
            "{} should fuse into one kernel",
            g.name()
        );
        let kp = p.kernels.into_iter().next().unwrap();
        out.push((g, kp));
    }
    assert!(
        out.iter().any(|(_, k)| k
            .schedule
            .temporal
            .as_ref()
            .is_some_and(|t| t.split.is_some())),
        "the set must include a split-K kernel"
    );
    out
}

fn run(kp: &KernelProgram, g: &Graph, threads: usize) -> Result<Vec<Tensor>, SfError> {
    let mut env: HashMap<String, Tensor> = g.random_bindings(3);
    ExecEngine::shared().execute_kernel(kp, &mut env, &ExecOptions::with_threads(threads), None)?;
    Ok(g.outputs()
        .iter()
        .map(|&o| env[&g.value(o).name].clone())
        .collect())
}

/// Drops every instruction matching `pick`, one at a time, and asserts
/// execution fails with an error accepted by `typed`.
fn drop_each(pick: fn(&Instr) -> bool, typed: fn(&SfError) -> bool) {
    for (g, kp) in kernels() {
        let reference = run(&kp, &g, 1).unwrap();
        let sites: Vec<usize> = (0..kp.instrs.len())
            .filter(|&i| pick(&kp.instrs[i]))
            .collect();
        assert!(!sites.is_empty(), "{}: nothing to drop", kp.name);
        for i in sites {
            let mut broken = kp.clone();
            let dropped = broken.instrs.remove(i);
            for threads in [1, 2] {
                match run(&broken, &g, threads) {
                    Err(e) => assert!(typed(&e), "{}: dropping {dropped:?}: {e:?}", kp.name),
                    Ok(out) => panic!(
                        "{}: dropping {dropped:?} still executed (reference output: {})",
                        kp.name,
                        out == reference
                    ),
                }
            }
        }
    }
}

#[test]
fn dropped_compute_is_a_typed_error() {
    drop_each(
        |i| matches!(i, Instr::Compute { .. }),
        |e| matches!(e, SfError::Codegen(_) | SfError::Internal { .. }),
    );
}

#[test]
fn dropped_store_leaves_a_gap_reported_as_internal() {
    drop_each(
        |i| matches!(i, Instr::Store { .. }),
        |e| matches!(e, SfError::Internal { .. }),
    );
}
