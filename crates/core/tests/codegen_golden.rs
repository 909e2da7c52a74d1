//! Golden pins of the code generator's observable behaviour.
//!
//! For every graph of the execution zoo on every architecture this pins
//! FNV-1a digests of three things: the output bit patterns (identical
//! at 1 and 2 exec threads), the `Debug` text of the cache-simulating
//! profile (`ProgramStats` and every `KernelCost` of `profile(2)`), and
//! the `Debug` text of every kernel's analytic `estimate_cost`. Any
//! refactor of lowering, interpretation, replay or cost estimation must
//! leave all three unchanged.
//!
//! To re-derive the table after an intended behaviour change, run
//! `cargo test -q -p spacefusion --test codegen_golden -- --nocapture`
//! and copy the printed rows.

use sf_gpu_sim::Arch;
use sf_ir::Graph;
use sf_models::subgraphs;
use sf_tensor::Tensor;
use spacefusion::codegen::{estimate_cost, ExecOptions};
use spacefusion::compiler::{CompileOptions, Compiler};
use spacefusion::serve::protocol::{fnv1a64, tensor_checksum};

/// The ten execution-zoo graphs (the exec benchmark's workload set).
fn zoo() -> Vec<Graph> {
    vec![
        subgraphs::mlp_stack(4, 256, 64),
        subgraphs::lstm_cell(64, 64),
        subgraphs::softmax(256, 128),
        subgraphs::layernorm(256, 128),
        subgraphs::rmsnorm(256, 128),
        subgraphs::mha(1, 4, 64, 32),
        subgraphs::masked_mha(1, 4, 64, 32),
        subgraphs::mha_decode(1, 4, 128, 32),
        subgraphs::mha_decode(1, 4, 1024, 32),
        subgraphs::deep_reduce(64, 4096),
    ]
}

fn output_digest(outs: &[Tensor]) -> u64 {
    let mut bytes = Vec::new();
    for t in outs {
        bytes.extend_from_slice(&tensor_checksum(t.shape().dims(), t.data()).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// (graph, arch, outputs, profile, estimate) digests.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("mlp4x64", "Volta", 0x190061666c05c500, 0x5685b847481ddca3, 0x247a0893bd510b7a),
    ("lstm64", "Volta", 0x7dec532f82d137ca, 0x0d10f21a91015baf, 0xb7e5b924668ec01a),
    ("softmax256x128", "Volta", 0xf9c895999716a8f3, 0xc84aeecb7ddd8802, 0x80a6aa738b55225d),
    ("layernorm256x128", "Volta", 0xb1977773d1b82225, 0x37051e0c52b9b615, 0xd0f760a29e81e5cb),
    ("rmsnorm256x128", "Volta", 0x1551bc834dee520a, 0xd0ca54ed30e05a53, 0x80ae5c553f1b9b50),
    ("mha_b1h4s64d32", "Volta", 0xd1a6de4bcca57d8b, 0x31274e52c64f147c, 0x64dcce9ae97a4780),
    ("masked_mha_b1h4s64d32", "Volta", 0xe82ac5999dfa9ffe, 0x7590ccfeda4c1d3e, 0xbe1fecc4886b2c9a),
    ("mha_decode_b1h4kv128d32", "Volta", 0x261919e6fdbf24ea, 0x75c28a788456f41b, 0xe3c753f1147340cf),
    ("mha_decode_b1h4kv1024d32", "Volta", 0x0bddd635dd6bc63d, 0x7b039ddedde1c820, 0xc5cb1aab9a42c916),
    ("reduce4096x64", "Volta", 0xc1055018adf9315c, 0xb03fbe5a1d778fbe, 0xb4c71d52d8581148),
    ("mlp4x64", "Ampere", 0x190061666c05c500, 0x5685b847481ddca3, 0x247a0893bd510b7a),
    ("lstm64", "Ampere", 0x1544edab1f9fe4ee, 0xc176e13131116e78, 0x4cd8f21dbda877f0),
    ("softmax256x128", "Ampere", 0xf9c895999716a8f3, 0xc84aeecb7ddd8802, 0x80a6aa738b55225d),
    ("layernorm256x128", "Ampere", 0xb1977773d1b82225, 0x37051e0c52b9b615, 0xd0f760a29e81e5cb),
    ("rmsnorm256x128", "Ampere", 0x1551bc834dee520a, 0xd0ca54ed30e05a53, 0x80ae5c553f1b9b50),
    ("mha_b1h4s64d32", "Ampere", 0xd1a6de4bcca57d8b, 0x31274e52c64f147c, 0x64dcce9ae97a4780),
    ("masked_mha_b1h4s64d32", "Ampere", 0xe82ac5999dfa9ffe, 0x7590ccfeda4c1d3e, 0xbe1fecc4886b2c9a),
    ("mha_decode_b1h4kv128d32", "Ampere", 0x261919e6fdbf24ea, 0x75c28a788456f41b, 0xe3c753f1147340cf),
    ("mha_decode_b1h4kv1024d32", "Ampere", 0x0bddd635dd6bc63d, 0x7b039ddedde1c820, 0xc5cb1aab9a42c916),
    ("reduce4096x64", "Ampere", 0xc1055018adf9315c, 0xb03fbe5a1d778fbe, 0xb4c71d52d8581148),
    ("mlp4x64", "Hopper", 0x190061666c05c500, 0x5685b847481ddca3, 0x247a0893bd510b7a),
    ("lstm64", "Hopper", 0x1544edab1f9fe4ee, 0xc176e13131116e78, 0x4cd8f21dbda877f0),
    ("softmax256x128", "Hopper", 0xf9c895999716a8f3, 0xdb7247fb5b3d63aa, 0x9cd975e1d6622711),
    ("layernorm256x128", "Hopper", 0xb1977773d1b82225, 0x38a47765ba9eae44, 0x37ae2f7cbc1b95a0),
    ("rmsnorm256x128", "Hopper", 0x1551bc834dee520a, 0xfacd53e8eccdadd6, 0x77674c73f120d74d),
    ("mha_b1h4s64d32", "Hopper", 0x420bdb0924f6d4c0, 0xb57c0eace0871058, 0x6e10c2cacfd3e7ac),
    ("masked_mha_b1h4s64d32", "Hopper", 0x646848e31684016c, 0xcd454e2c12eef291, 0x75cfd02c0d87d60a),
    ("mha_decode_b1h4kv128d32", "Hopper", 0x261919e6fdbf24ea, 0x75c28a788456f41b, 0xe3c753f1147340cf),
    ("mha_decode_b1h4kv1024d32", "Hopper", 0x0bddd635dd6bc63d, 0x7b039ddedde1c820, 0xc5cb1aab9a42c916),
    ("reduce4096x64", "Hopper", 0xc1055018adf9315c, 0xb03fbe5a1d778fbe, 0xb4c71d52d8581148),
];

#[test]
fn codegen_behaviour_matches_golden_digests() {
    let mut rows = Vec::new();
    for arch in [Arch::Volta, Arch::Ampere, Arch::Hopper] {
        let compiler = Compiler::new(arch, CompileOptions::default());
        for g in zoo() {
            let p = compiler.compile(&g).unwrap();
            let bindings = g.random_bindings(7);
            let one = p
                .execute_with(&bindings, &ExecOptions::with_threads(1))
                .unwrap();
            let two = p
                .execute_with(&bindings, &ExecOptions::with_threads(2))
                .unwrap();
            let outputs = output_digest(&one);
            assert_eq!(
                outputs,
                output_digest(&two),
                "{} on {arch:?}: 1- and 2-thread outputs differ",
                g.name()
            );
            let report = p.profile(2);
            let profile = fnv1a64(format!("{:?}{:?}", report.stats, report.kernels).as_bytes());
            let costs: Vec<_> = p
                .kernels
                .iter()
                .map(|k| estimate_cost(k, p.instances as u64))
                .collect();
            let estimate = fnv1a64(format!("{costs:?}").as_bytes());
            rows.push((
                g.name().to_string(),
                format!("{arch:?}"),
                outputs,
                profile,
                estimate,
            ));
        }
    }
    for (g, a, o, p, e) in &rows {
        println!("    (\"{g}\", \"{a}\", 0x{o:016x}, 0x{p:016x}, 0x{e:016x}),");
    }
    assert_eq!(rows.len(), GOLDEN.len(), "golden table size");
    for (row, want) in rows.iter().zip(GOLDEN) {
        let got = (row.0.as_str(), row.1.as_str(), row.2, row.3, row.4);
        assert_eq!(got, *want, "golden mismatch (outputs, profile, estimate)");
    }
}
