//! Packed-weight storage: the model's linear layers as 4-bit groups.
//!
//! The paper's central hardware claim (Sec. IV) is that MANT executes
//! *without dequantization*: Eq. (5) splits every group dot product into a
//! multiply-accumulate and a shift-accumulate lane, recombined once per
//! group. [`PackedWeights`] mirrors the model's layer structure with each
//! projection a [`MantQuantizedMatrix`] (embedding, norms, and LM head
//! stay f32, matching the paper's "linear layer" quantization scope); the
//! runners apply a projection by calling the fused integer GEMV
//! (`mant_quant::fused`) on the matrix itself — [`mant_quant::mant_gemv`]
//! for one token ([`crate::ModelRunner`] over
//! [`TransformerModel::packed_runner`]), [`mant_quant::mant_gemv_batch`]
//! for a batch of rows ([`crate::BatchRunner`]).

use mant_numerics::TiledF32;
use mant_quant::{MantQuantizedMatrix, MantWeightQuantizer, QuantError};
use mant_tensor::Matrix;

use crate::config::FfnKind;
use crate::layers::{Proj, TransformerModel};

/// Packed projections of one transformer layer.
#[derive(Clone, Debug)]
pub struct PackedLayer {
    /// Query projection.
    pub wq: MantQuantizedMatrix,
    /// Key projection.
    pub wk: MantQuantizedMatrix,
    /// Value projection.
    pub wv: MantQuantizedMatrix,
    /// Attention output projection.
    pub wo: MantQuantizedMatrix,
    /// FFN gate (absent for [`FfnKind::PlainGelu`] models).
    pub w_gate: Option<MantQuantizedMatrix>,
    /// FFN up projection.
    pub w_up: MantQuantizedMatrix,
    /// FFN down projection.
    pub w_down: MantQuantizedMatrix,
}

impl PackedLayer {
    /// The packed matrix of `proj`.
    ///
    /// # Panics
    ///
    /// Panics on [`Proj::Gate`] for a [`FfnKind::PlainGelu`] layer, which
    /// packs no gate.
    pub(crate) fn proj(&self, proj: Proj) -> &MantQuantizedMatrix {
        match proj {
            Proj::Q => &self.wq,
            Proj::K => &self.wk,
            Proj::V => &self.wv,
            Proj::O => &self.wo,
            Proj::Gate => self.w_gate.as_ref().expect("a gated layer packs a gate"),
            Proj::Up => &self.w_up,
            Proj::Down => &self.w_down,
        }
    }
}

/// All linear-layer weights of a model in packed form — what the quantized
/// execution backend holds instead of dense f32 matrices — plus the f32 LM
/// head in the tiled layout the serving runner reads it in.
#[derive(Clone, Debug)]
pub struct PackedWeights {
    layers: Vec<PackedLayer>,
    group_size: usize,
    lm_head: TiledF32,
}

impl PackedWeights {
    /// Per-layer packed projections.
    pub fn layers(&self) -> &[PackedLayer] {
        &self.layers
    }

    /// The quantization group size shared by every projection.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The model's f32 LM head, copied once at packing time into eight-row
    /// tiles for [`mant_numerics::KernelDispatch::matvec_tiled_f32`] — the
    /// layout [`crate::BatchRunner`] computes logits from. Still f32 and
    /// not counted by [`PackedWeights::storage_bits`]: the head is outside
    /// the quantized linear layers.
    pub fn lm_head(&self) -> &TiledF32 {
        &self.lm_head
    }

    /// Total packed storage in bits across all projections.
    pub fn storage_bits(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.wq.storage_bits()
                    + l.wk.storage_bits()
                    + l.wv.storage_bits()
                    + l.wo.storage_bits()
                    + l.w_gate
                        .as_ref()
                        .map_or(0, MantQuantizedMatrix::storage_bits)
                    + l.w_up.storage_bits()
                    + l.w_down.storage_bits()
            })
            .sum()
    }

    /// The fake-quantize twin: a dense model whose linear weights are the
    /// dequantized packed groups. Running it on the reference backend is
    /// mathematically the same computation as the quantized backend (same
    /// quantized values, f32 instead of integer accumulation) — the anchor
    /// for the backend-equivalence tests.
    pub fn to_model(&self, reference: &TransformerModel) -> TransformerModel {
        assert_eq!(
            self.layers.len(),
            reference.config.layers,
            "packed weights and reference model disagree on depth"
        );
        let mut out = reference.clone();
        for (dst, src) in out.weights.layers.iter_mut().zip(self.layers.iter()) {
            dst.wq = src.wq.dequantize();
            dst.wk = src.wk.dequantize();
            dst.wv = src.wv.dequantize();
            dst.wo = src.wo.dequantize();
            if let Some(g) = &src.w_gate {
                dst.w_gate = g.dequantize();
            }
            dst.w_up = src.w_up.dequantize();
            dst.w_down = src.w_down.dequantize();
        }
        out
    }
}

impl TransformerModel {
    /// Packs every linear projection into 4-bit MANT/INT4 groups with the
    /// plain (weight-MSE) coefficient search.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` does not
    /// divide every projection's inner dimension.
    pub fn pack_weights(&self, group_size: usize) -> Result<PackedWeights, QuantError> {
        self.pack_weights_with(group_size, |_, _| MantWeightQuantizer::new(group_size))
    }

    /// Packs every linear projection, constructing the quantizer per
    /// `(layer, projection)` — the hook through which the pipeline threads
    /// per-layer, per-projection calibration moments into the search.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` does not
    /// divide every projection's inner dimension, or any error the
    /// supplied quantizers produce.
    pub fn pack_weights_with<F>(
        &self,
        group_size: usize,
        make: F,
    ) -> Result<PackedWeights, QuantError>
    where
        F: Fn(usize, Proj) -> MantWeightQuantizer,
    {
        let pack = |li: usize, proj: Proj, w: &Matrix| {
            let q = make(li, proj);
            debug_assert_eq!(q.group_size(), group_size, "quantizer group size drift");
            q.par_quantize(w)
        };
        let mut layers = Vec::with_capacity(self.config.layers);
        for (li, l) in self.weights.layers.iter().enumerate() {
            layers.push(PackedLayer {
                wq: pack(li, Proj::Q, &l.wq)?,
                wk: pack(li, Proj::K, &l.wk)?,
                wv: pack(li, Proj::V, &l.wv)?,
                wo: pack(li, Proj::O, &l.wo)?,
                w_gate: if self.config.ffn_kind == FfnKind::GatedSilu {
                    Some(pack(li, Proj::Gate, &l.w_gate)?)
                } else {
                    None
                },
                w_up: pack(li, Proj::Up, &l.w_up)?,
                w_down: pack(li, Proj::Down, &l.w_down)?,
            });
        }
        let head = &self.weights.lm_head;
        Ok(PackedWeights {
            layers,
            group_size,
            lm_head: TiledF32::from_row_major(head.as_slice(), head.rows(), head.cols()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn pack_roundtrip_shapes_and_storage() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 21);
        let packed = m.pack_weights(64).unwrap();
        assert_eq!(packed.layers().len(), 2);
        assert_eq!(packed.group_size(), 64);
        let l0 = &packed.layers()[0];
        assert_eq!(l0.wq.rows(), 256);
        assert_eq!(l0.wq.cols(), 256);
        assert!(l0.w_gate.is_some());
        assert_eq!(l0.w_down.cols(), 512);
        // ~4.375 bits/element across all linear params.
        let params = m.config.linear_params();
        let bpe = packed.storage_bits() as f64 / params as f64;
        assert!((4.3..4.5).contains(&bpe), "bits/element {bpe}");
    }

    #[test]
    fn packed_twin_equals_fake_quantized_model() {
        // Dequantizing the packed weights reproduces exactly what the
        // fake-quantize path computes with the same (plain) quantizer.
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 22);
        let packed = m.pack_weights(64).unwrap();
        let twin = packed.to_model(&m);
        let fake = m.quantize_weights(&MantWeightQuantizer::new(64));
        for (a, b) in twin.weights.layers.iter().zip(fake.weights.layers.iter()) {
            assert_eq!(a.wq.as_slice(), b.wq.as_slice());
            assert_eq!(a.w_down.as_slice(), b.w_down.as_slice());
        }
        // Embedding and head stay untouched.
        assert_eq!(
            twin.weights.embedding.as_slice(),
            m.weights.embedding.as_slice()
        );
        assert_eq!(
            twin.weights.lm_head.as_slice(),
            m.weights.lm_head.as_slice()
        );
    }

    #[test]
    fn plain_gelu_models_have_no_gate() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_opt(), 23);
        let packed = m.pack_weights(64).unwrap();
        assert!(packed.layers()[0].w_gate.is_none());
    }

    #[test]
    fn bad_group_size_rejected() {
        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 24);
        assert!(m.pack_weights(96).is_err());
    }

    /// FNV-1a, 64 bit.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn eat_dtype(&mut self, dtype: mant_quant::GroupDtype) {
            self.eat(dtype.label().as_bytes());
        }
    }

    /// Everything the encode search decided about one projection: packed
    /// bytes, per-group type and scale bits, and the type histogram.
    fn projection_hash(q: &MantQuantizedMatrix) -> u64 {
        let mut h = Fnv::new();
        for r in 0..q.rows() {
            h.eat(q.packed_row(r));
            for m in q.meta_row(r) {
                h.eat_dtype(m.dtype);
                h.eat(&m.scale.to_bits().to_le_bytes());
            }
        }
        for (label, count) in q.dtype_histogram() {
            h.eat(label.as_bytes());
            h.eat(&(count as u64).to_le_bytes());
        }
        h.0
    }

    #[test]
    fn golden_pin_sim_llama_seed7_encode_selections() {
        // The benchmark's model (`sim_llama`, seed 7, group 64): every
        // selection the offline search and the KV calibration make is
        // pinned to the values the per-element scalar path produced before
        // any group-encode kernel existed. A kernel change that moves one
        // type, one scale bit or one packed nibble fails here by name, on
        // every tier (`MANT_FORCE_SCALAR=1` included).
        const PROJECTIONS: [(&str, u64); 14] = [
            ("layer0.wq", 0xf267_3fb3_bf6f_7921),
            ("layer0.wk", 0x78b7_f708_5e86_5af1),
            ("layer0.wv", 0x8b11_25b8_c2d9_6c3a),
            ("layer0.wo", 0x807c_1d39_cb18_0e8a),
            ("layer0.w_gate", 0x86da_7b0f_004b_9ab4),
            ("layer0.w_up", 0xbf0f_f7df_e457_ba30),
            ("layer0.w_down", 0xe273_b692_bbe0_0213),
            ("layer1.wq", 0x5897_ef39_126c_0814),
            ("layer1.wk", 0x7384_5b8d_9c31_122f),
            ("layer1.wv", 0x96f0_f3d0_6daa_98ad),
            ("layer1.wo", 0xd676_57d2_2175_60d2),
            ("layer1.w_gate", 0xdba1_60a5_e4be_5584),
            ("layer1.w_up", 0xf018_50e2_6abd_030a),
            ("layer1.w_down", 0xeafc_4b90_de06_5687),
        ];
        const K_MAP: u64 = 0x11e9_2d8c_85f0_d386;
        const V_MAP: u64 = 0xb5cf_6895_ef8d_e6f7;

        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 7);
        let packed = m.pack_weights(64).unwrap();
        let got: Vec<u64> = packed
            .layers()
            .iter()
            .flat_map(|l| {
                let gate = l.w_gate.as_ref().expect("sim_llama is gated");
                [&l.wq, &l.wk, &l.wv, &l.wo, gate, &l.w_up, &l.w_down]
            })
            .map(projection_hash)
            .collect();
        assert_eq!(got.len(), PROJECTIONS.len());
        for ((name, want), got) in PROJECTIONS.iter().zip(&got) {
            assert_eq!(got, want, "{name}: encode selections moved ({got:#018x})");
        }

        let (kmap, vmap) = m.kv_maps(64);
        for (name, map, want) in [("K map", &kmap, K_MAP), ("V map", &vmap, V_MAP)] {
            let mut h = Fnv::new();
            for &dtype in map.buckets() {
                h.eat_dtype(dtype);
            }
            assert_eq!(h.0, want, "{name}: variance buckets moved ({:#018x})", h.0);
        }
    }

    #[test]
    fn golden_pin_sim_llama_seed7_reference_forward() {
        // The f32 reference backend — the forward the KV calibration and
        // the synthesizer's probes run — pinned bit for bit: every field of
        // both variance maps (buckets and the f64 calibration anchors) and
        // eight logit rows of an FP16-cache reference runner. A change to
        // that backend's matvec, attention or softmax that moves one bit
        // anywhere in the calibration fails here, on every tier.
        const K_MAP: u64 = 0x855a_abdb_2554_db47;
        const V_MAP: u64 = 0xf107_9431_6d84_ec5d;
        const LOGITS: [u64; 8] = [
            0x93f1_6cb1_fdf1_ba77,
            0xb8af_dd53_0ad0_2f2e,
            0x616f_73bc_277c_cc58,
            0xfbe3_96c8_fcf3_2bb3,
            0x0980_9a35_dcc7_a2eb,
            0x74b3_e4d6_d872_96a0,
            0x3e18_e848_c121_3b97,
            0x447b_f12a_db0a_83b1,
        ];

        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 7);
        let (kmap, vmap) = m.kv_maps(64);
        let map_hash = |map: &mant_quant::VarianceMap| {
            let mut h = Fnv::new();
            for &dtype in map.buckets() {
                h.eat_dtype(dtype);
            }
            for &(variance, dtype) in map.entries() {
                h.eat(&variance.to_bits().to_le_bytes());
                h.eat_dtype(dtype);
            }
            h.0
        };
        let mut runner = m.runner(crate::ActMode::None, crate::KvMode::Fp16);
        let rows: Vec<u64> = [3usize, 141, 59, 265, 358, 97, 93, 238]
            .into_iter()
            .map(|token| {
                let mut h = Fnv::new();
                for v in runner.step(token) {
                    h.eat(&v.to_bits().to_le_bytes());
                }
                h.0
            })
            .collect();
        let got = (map_hash(&kmap), map_hash(&vmap), rows);
        assert_eq!(
            got,
            (K_MAP, V_MAP, LOGITS.to_vec()),
            "the reference forward moved: (K map, V map, logit rows) = {got:#018x?}"
        );
    }

    #[test]
    fn golden_pin_sim_llama_seed7_packed_forward() {
        // The packed forward — fused integer GEMVs over the packed weights,
        // Mant4 KV, the serving path's kernels — pinned bit for bit: eight
        // logit rows of a packed runner (one-member GEMVs over a growing
        // context) and one batch-runner tick of two one-token runs (the
        // two-member GEMV). Every equivalence suite compares two paths
        // that share these kernels; this pin is the one that fails when a
        // kernel change moves all of them the same way, on every tier.
        const LOGITS: [u64; 8] = [
            0x6742_2ba2_2898_3bb0,
            0x3650_6013_c324_5f57,
            0xf561_fcf3_65cf_2bec,
            0x30fe_1346_0674_4cac,
            0xe667_ff49_7822_6298,
            0xf6d9_fa69_76d7_894c,
            0x705d_1e6e_8ca3_7941,
            0xc72f_b308_3929_db33,
        ];
        // Row 0 is token 3 on an empty cache, as `LOGITS[0]` is.
        const TICK: [u64; 2] = [0x6742_2ba2_2898_3bb0, 0x012d_30b5_6446_8007];

        let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), 7);
        let packed = m.pack_weights(64).unwrap();
        let kv = crate::KvMode::Mant4 { group: 64 };
        let row_hash = |logits: &[f32]| {
            let mut h = Fnv::new();
            for v in logits {
                h.eat(&v.to_bits().to_le_bytes());
            }
            h.0
        };
        let tokens = [3usize, 141, 59, 265, 358, 97, 93, 238];
        let mut runner = m.packed_runner(&packed, crate::ActMode::None, kv);
        let rows: Vec<u64> = tokens.iter().map(|&t| row_hash(&runner.step(t))).collect();
        let mut br = m.batch_runner(&packed, crate::ActMode::None, kv, 8, 64);
        let ids = [br.create_session(), br.create_session()];
        let runs: Vec<crate::Run<'_>> = ids
            .iter()
            .zip(&tokens)
            .map(|(&id, t)| crate::Run {
                id,
                tokens: std::slice::from_ref(t),
                logit_rows: 1,
            })
            .collect();
        let tick: Vec<u64> = br.step_runs(&runs).iter().map(|l| row_hash(l)).collect();
        let got = (rows, tick);
        assert_eq!(
            got,
            (LOGITS.to_vec(), TICK.to_vec()),
            "the packed forward moved: (logit rows, tick rows) = {got:#018x?}"
        );
    }
}
