//! The lowered kernel representation.

use super::instr::{lower_instructions, Instr};
use crate::sched::{op_roles, FusedSchedule, OpRole};
use crate::verify::races::{prove_disjoint, DisjointProof};
use sf_ir::Graph;

/// A fused kernel: graph + schedule + its lowered instruction stream.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    /// Kernel name (for reports).
    pub name: String,
    /// The fused subgraph this kernel computes. Its inputs are the cut
    /// values / program inputs, its outputs the values materialized to
    /// global memory.
    pub graph: Graph,
    /// The concrete schedule.
    pub schedule: FusedSchedule,
    /// Role of each operator under the schedule.
    pub roles: Vec<OpRole>,
    /// The lowered instruction stream ([`super::instr`]), built once at
    /// construction. The interpreter, the profiler replay, the cost
    /// model, the pseudo-code printer and the verifier all read it, so
    /// what the proofs cover is exactly what executes.
    pub instrs: Vec<Instr>,
    /// Verdict of the static disjoint-write prover
    /// ([`crate::verify::races`]) over `instrs`: only `Proven` kernels
    /// may take the lock-free parallel executor path. Computed at
    /// construction so the gate holds even when the verifier pass is
    /// off (release builds).
    pub disjoint: DisjointProof,
}

impl KernelProgram {
    /// Lowers a scheduled graph into a kernel program.
    pub fn new(name: impl Into<String>, graph: Graph, schedule: FusedSchedule) -> Self {
        let roles = op_roles(&graph, &schedule);
        let mut kp = KernelProgram {
            name: name.into(),
            graph,
            schedule,
            roles,
            instrs: Vec::new(),
            disjoint: DisjointProof::Proven,
        };
        kp.instrs = lower_instructions(&kp);
        kp.disjoint = prove_disjoint(&kp);
        kp
    }

    /// Whether this kernel fuses more than one operator.
    pub fn is_fused(&self) -> bool {
        self.graph.ops().len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{assign_memory, TemporalSchedule};
    use crate::slicer::plan_temporal;
    use crate::smg::build_smg;
    use sf_tensor::ops::{BinaryOp, ReduceOp, UnaryOp};
    use sf_tensor::{DType, Shape};

    #[test]
    fn needed_sets_for_softmax() {
        let mut g = Graph::new("softmax", DType::F16);
        let x = g.input("x", Shape::new(vec![32, 128]));
        let m = g.reduce(ReduceOp::Max, x, 1).unwrap();
        let s = g.binary(BinaryOp::Sub, x, m).unwrap();
        let e = g.unary(UnaryOp::Exp, s).unwrap();
        let z = g.reduce(ReduceOp::Sum, e, 1).unwrap();
        let d = g.binary(BinaryOp::Div, e, z).unwrap();
        g.mark_output(d);
        let smg = build_smg(&g).unwrap();
        let m_dim = smg.value_axes[0][0];
        let n_dim = smg.value_axes[0][1];
        let plan = plan_temporal(&g, &smg, n_dim).unwrap();
        let spatial = vec![(m_dim, 16)];
        let temporal = Some(TemporalSchedule {
            plan,
            block: 32,
            split: None,
        });
        let mem = assign_memory(&g, &smg, &spatial, temporal.as_ref(), 32 << 10);
        let kp = KernelProgram::new(
            "softmax",
            g.clone(),
            FusedSchedule {
                smg,
                spatial,
                temporal,
                mem,
            },
        );
        let computed = |phase: u8| -> Vec<usize> {
            let begin = kp
                .instrs
                .iter()
                .position(|i| *i == Instr::LoopBegin { phase })
                .unwrap();
            let end = crate::codegen::instr::loop_end(&kp.instrs, begin).unwrap();
            kp.instrs[begin..end]
                .iter()
                .filter_map(|i| match i {
                    Instr::Compute { op, .. } => Some(op.0),
                    _ => None,
                })
                .collect()
        };
        // Phase 1 needs max, sub, exp, sum but not div; phase 2 re-streams
        // sub, exp and the output div.
        assert_eq!(computed(1), vec![0, 1, 2, 3]);
        assert_eq!(computed(2), vec![1, 2, 4]);
        assert!(kp.is_fused());
    }
}
