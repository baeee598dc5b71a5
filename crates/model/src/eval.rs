//! Evaluation proxies: perplexity and generation fidelity.
//!
//! With synthetic weights there is no WikiText ground truth, so we measure
//! what PTQ perplexity deltas actually measure — *output distortion caused
//! by quantization* — directly against the FP32 reference model:
//!
//! `PPL_proxy(q) = exp( mean_t  CE( softmax(ref_logits_t), softmax(q_logits_t) ) )`
//!
//! For the reference itself this reduces to `exp(mean entropy)`, the floor
//! playing FP16's role in the tables; every quantization error strictly
//! increases it. Ordering and rough ratios between methods transfer; the
//! absolute values are not WikiText PPLs (see DESIGN.md substitutions).

use mant_numerics::kernels;
use mant_tensor::ops::cross_entropy;
use mant_tensor::{Matrix, TensorGenerator};

use crate::backend::PackedWeights;
use crate::layers::{run_sequence, run_sequence_packed, ActMode, KvMode, TransformerModel};

/// Perplexity-proxy numbers for one configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PplReport {
    /// The quantized model's proxy perplexity (lower is better).
    pub ppl: f64,
    /// The FP reference floor (`exp(mean entropy)`).
    pub ppl_fp: f64,
}

impl PplReport {
    /// The loss over the FP floor, the quantity Fig. 2 plots.
    pub fn loss(&self) -> f64 {
        self.ppl - self.ppl_fp
    }
}

/// Deterministic evaluation token stream.
pub fn eval_tokens(vocab: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut gen = TensorGenerator::new(seed);
    (0..n).map(|_| gen.token(vocab)).collect()
}

/// Computes the perplexity proxy of `quantized` (with runtime modes `act`,
/// `kv`) against the FP `reference` on `tokens`.
///
/// # Panics
///
/// Panics if the models have different vocabularies or `tokens` is empty.
pub fn perplexity_proxy(
    reference: &TransformerModel,
    quantized: &TransformerModel,
    act: ActMode,
    kv: KvMode,
    tokens: &[usize],
) -> PplReport {
    assert_eq!(
        reference.config.vocab, quantized.config.vocab,
        "vocabulary mismatch"
    );
    assert!(!tokens.is_empty(), "evaluation needs at least one token");
    let q_logits = run_sequence(quantized, act, kv, tokens);
    ppl_from_logits(reference, &q_logits, tokens)
}

/// [`perplexity_proxy`] for the quantized execution backend: the measured
/// logits come from running `reference`'s non-linear structure over
/// `packed` groups end to end (fused integer GEMVs, incremental KV
/// attention) — the configuration a MANT accelerator would actually
/// execute.
///
/// # Panics
///
/// Panics if `tokens` is empty, or on any shape/mode mismatch
/// [`TransformerModel::packed_runner`] rejects.
pub fn perplexity_proxy_packed(
    reference: &TransformerModel,
    packed: &PackedWeights,
    act: ActMode,
    kv: KvMode,
    tokens: &[usize],
) -> PplReport {
    assert!(!tokens.is_empty(), "evaluation needs at least one token");
    let q_logits = run_sequence_packed(reference, packed, act, kv, tokens);
    ppl_from_logits(reference, &q_logits, tokens)
}

fn ppl_from_logits(reference: &TransformerModel, q_logits: &Matrix, tokens: &[usize]) -> PplReport {
    let ref_logits = run_sequence(reference, ActMode::None, KvMode::Fp16, tokens);
    let mut ce_sum = 0.0f64;
    let mut h_sum = 0.0f64;
    for t in 0..tokens.len() {
        let mut p = ref_logits.row(t).to_vec();
        kernels().softmax(&mut p);
        let mut q = q_logits.row(t).to_vec();
        kernels().softmax(&mut q);
        ce_sum += cross_entropy(&p, &q);
        h_sum += cross_entropy(&p, &p);
    }
    let n = tokens.len() as f64;
    PplReport {
        ppl: (ce_sum / n).exp(),
        ppl_fp: (h_sum / n).exp(),
    }
}

/// Generation-fidelity proxy for the KV-cache experiments (Tbl. III):
/// teacher-forced greedy agreement over a held-out continuation. Both
/// models consume `prompt` and then the same `gen_len` continuation tokens
/// (derived deterministically from the prompt); at every decode step we
/// compare the quantized model's argmax against the FP reference's. Plays
/// the role of BLEU/F1: 1.0 = identical greedy behaviour.
///
/// (Free-running self-generation is deliberately avoided: greedy decode of
/// a synthetic LM collapses into short token cycles, where an infinitesimal
/// perturbation phase-shifts the cycle and scores 0 despite near-identical
/// logits.)
///
/// # Panics
///
/// Panics if `prompt` is empty or `gen_len` is zero.
pub fn generation_fidelity(
    reference: &TransformerModel,
    quantized: &TransformerModel,
    act: ActMode,
    kv: KvMode,
    prompt: &[usize],
    gen_len: usize,
) -> f64 {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    assert!(gen_len > 0, "generation length must be positive");

    let continuation_seed = prompt.iter().fold(0x51_7cc1u64, |h, &t| {
        h.wrapping_mul(31).wrapping_add(t as u64)
    });
    let continuation = eval_tokens(reference.config.vocab, gen_len, continuation_seed);

    let mut ref_runner = reference.runner(ActMode::None, KvMode::Fp16);
    let mut q_runner = quantized.runner(act, kv);
    for &t in prompt {
        ref_runner.step(t);
        q_runner.step(t);
    }
    let mut matches = 0usize;
    for &t in &continuation {
        let ref_logits = ref_runner.step(t);
        let q_logits = q_runner.step(t);
        if argmax(&ref_logits) == argmax(&q_logits) {
            matches += 1;
        }
    }
    matches as f64 / gen_len as f64
}

/// Greedy token choice over a logit vector. Ties break toward the
/// **lowest index** (the first maximum wins, via a strict `>` sweep).
///
/// This is the one argmax every greedy consumer shares — the serving
/// engine's plain and speculative-verify rows, its draft pass, the
/// sequential baseline and the fidelity proxy. A
/// private copy with a different tie rule would silently break the
/// byte-identity contracts between them.
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > best_v {
            best_v = x;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use mant_quant::MantWeightQuantizer;

    fn model() -> TransformerModel {
        TransformerModel::synthesize(&ModelConfig::sim_llama(), 7)
    }

    #[test]
    fn reference_achieves_the_floor() {
        let m = model();
        let tokens = eval_tokens(m.config.vocab, 12, 1);
        let rep = perplexity_proxy(&m, &m, ActMode::None, KvMode::Fp16, &tokens);
        assert!((rep.ppl - rep.ppl_fp).abs() < 1e-9);
        assert!(rep.ppl_fp >= 1.0);
    }

    #[test]
    fn quantization_increases_ppl() {
        let m = model();
        let tokens = eval_tokens(m.config.vocab, 16, 2);
        let q = m.quantize_weights(&MantWeightQuantizer::new(64));
        let rep = perplexity_proxy(&m, &q, ActMode::None, KvMode::Fp16, &tokens);
        assert!(rep.loss() > 0.0, "loss {}", rep.loss());
        // W4 MANT keeps the proxy within a small multiple of the FP floor
        // (the catastrophic configurations blow out to 100×+).
        assert!(
            rep.ppl < rep.ppl_fp * 8.0,
            "ppl {} vs floor {}",
            rep.ppl,
            rep.ppl_fp
        );
    }

    #[test]
    fn cruder_quantization_hurts_more() {
        let m = model();
        let tokens = eval_tokens(m.config.vocab, 16, 3);
        let w4 = m.quantize_weights(&MantWeightQuantizer::new(64));
        let rep_w4 = perplexity_proxy(&m, &w4, ActMode::None, KvMode::Fp16, &tokens);
        let rep_a4 = perplexity_proxy(
            &m,
            &w4,
            ActMode::IntTensor { bits: 4 },
            KvMode::Fp16,
            &tokens,
        );
        assert!(
            rep_a4.loss() > rep_w4.loss() * 2.0,
            "W4A4-tensor {} vs W4 {}",
            rep_a4.loss(),
            rep_w4.loss()
        );
    }

    #[test]
    fn generation_fidelity_bounds() {
        let m = model();
        let prompt = eval_tokens(m.config.vocab, 8, 4);
        let perfect = generation_fidelity(&m, &m, ActMode::None, KvMode::Fp16, &prompt, 10);
        assert_eq!(perfect, 1.0);
        let q = m.quantize_weights(&MantWeightQuantizer::new(64));
        let f = generation_fidelity(
            &m,
            &q,
            ActMode::IntGroup { bits: 8, group: 64 },
            KvMode::Mant4 { group: 64 },
            &prompt,
            10,
        );
        assert!((0.0..=1.0).contains(&f));
        // Fully quantized (W4A8 + 4-bit KV) argmax agreement on a 512-way
        // vocabulary: well above chance (~0.002), below perfect.
        assert!(f > 0.2, "fidelity collapsed: {f}");
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_tokens_panics() {
        let m = model();
        let _ = perplexity_proxy(&m, &m, ActMode::None, KvMode::Fp16, &[]);
    }
}
