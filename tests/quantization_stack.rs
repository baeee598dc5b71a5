//! Integration tests of the quantization stack against the numeric layer:
//! the fused integer GEMM, the KV engines inside a real attention loop,
//! and storage accounting consistency across crates.

use mant::model::{ActMode, KvMode, ModelConfig, TransformerModel};
use mant::numerics::Mant;
use mant::quant::{
    mant_gemm, quantize_activations_int8, CandidateSet, KvCachePool, MantWeightQuantizer,
    PagedKvCache, PoolConfig, VarianceMap,
};
use mant::tensor::{gemm, TensorGenerator};

#[test]
fn fused_gemm_tracks_fp32_through_the_whole_stack() {
    let mut gen = TensorGenerator::new(404);
    let x = gen.activation_matrix(6, 512, 1.0, 0.01, 12.0);
    let w = gen.group_diverse_matrix(32, 512, 64, 0.05);
    let xq = quantize_activations_int8(&x, 64).expect("group divides width");
    let wq = MantWeightQuantizer::new(64)
        .quantize(&w)
        .expect("group divides width");
    let fused = mant_gemm(&xq, &wq).expect("shapes agree");
    let exact = gemm(&x, &w.transpose());
    let norm: f64 = exact
        .as_slice()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    let rel = exact.distance(&fused) / norm;
    assert!(rel < 0.12, "W4A8 relative error {rel}");
}

#[test]
fn kv_engines_inside_attention_preserve_logit_quality() {
    let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 88);
    let tokens: Vec<usize> = (0..64).map(|i| (i * 101) % model.config.vocab).collect();
    let fp = mant::model::layers::run_sequence(&model, ActMode::None, KvMode::Fp16, &tokens);
    let kv4 = mant::model::layers::run_sequence(
        &model,
        ActMode::None,
        KvMode::Mant4 { group: 64 },
        &tokens,
    );
    let norm: f64 = fp
        .as_slice()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    assert!(fp.distance(&kv4) / norm < 0.6);
}

#[test]
fn storage_accounting_is_consistent() {
    // 4 bits + 24/group from numerics → quant → model-level weight sizes.
    let mut gen = TensorGenerator::new(123);
    let w = gen.group_diverse_matrix(16, 256, 64, 0.02);
    let wq = MantWeightQuantizer::new(64)
        .quantize(&w)
        .expect("valid group");
    let expected_bits = 16 * 256 * 4 + 16 * 4 * 24;
    assert_eq!(wq.storage_bits(), expected_bits);

    let vmap = VarianceMap::analytic(&CandidateSet::paper()).expect("non-empty");
    let mut pool = KvCachePool::new(PoolConfig {
        kv_dim: 256,
        group_size: 64,
        block_tokens: 64,
        blocks: 1,
    })
    .expect("valid");
    let mut kv = PagedKvCache::new(&pool, vmap.clone(), vmap);
    for _ in 0..64 {
        kv.push(&mut pool, &[0.5; 256], &[0.5; 256]).expect("room");
    }
    // 64 K rows: 4-bit codes + a scale/coefficient per spatial group; one
    // committed V window: 4-bit codes + per-channel metadata.
    let k_bits = 64 * 256 * 4 + 64 * 4 * 24;
    let v_bits = 64 * 256 * 4 + 256 * 24;
    assert_eq!(kv.used_bits(), k_bits + v_bits);
    // The one block is exactly full, so live bits are the reserved bits.
    assert_eq!(pool.used_bits(), k_bits + v_bits);
}

#[test]
fn every_paper_coefficient_runs_the_full_path() {
    // Each candidate in the paper set must encode, decode, and fuse.
    for &a in &mant::quant::search::PAPER_A_SET {
        let m = Mant::new(a).expect("paper set is valid");
        let code = m.encode(-37.5);
        let v = m.decode(code);
        assert!(v < 0, "a={a}");
        let fused = m.combine_psums(
            5 * i64::from(Mant::psum1_operand(code)),
            5 * i64::from(Mant::psum2_operand(code)),
        );
        assert_eq!(fused, 5 * i64::from(v), "a={a}");
    }
}
