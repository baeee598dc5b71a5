//! The transformer model, its step-wise runner, and quantized execution.

use mant_numerics::fp16::quantize_fp16;
use mant_numerics::int::quantize_symmetric_int;
use mant_numerics::{kernels, TiledF32};
use mant_quant::{
    attention_f32, attention_incremental_paged, quantize_vector_int8, CandidateSet, FakeQuantizer,
    KvCachePool, PagedKvCache, PoolConfig, VarianceMap,
};
use mant_tensor::ops::{gelu, rmsnorm, silu};
use mant_tensor::par::par_map_slice;
use mant_tensor::{abs_max, matvec, Matrix};

use crate::backend::{ExecutionBackend, PackedWeights};
use crate::config::{FfnKind, ModelConfig};
use crate::synth;

/// Weights of one transformer layer. All linear weights are stored
/// `out × in` (rows are output channels, the accumulation dimension is
/// contiguous — the layout every quantizer in this workspace expects).
#[derive(Clone, Debug)]
pub struct LayerWeights {
    /// Attention-block RMSNorm gain.
    pub attn_norm: Vec<f32>,
    /// FFN-block RMSNorm gain.
    pub ffn_norm: Vec<f32>,
    /// Query projection (`hidden × hidden`).
    pub wq: Matrix,
    /// Key projection.
    pub wk: Matrix,
    /// Value projection.
    pub wv: Matrix,
    /// Output projection.
    pub wo: Matrix,
    /// FFN gate projection (`ffn × hidden`; unused for [`FfnKind::PlainGelu`]).
    pub w_gate: Matrix,
    /// FFN up projection (`ffn × hidden`).
    pub w_up: Matrix,
    /// FFN down projection (`hidden × ffn`).
    pub w_down: Matrix,
}

/// All model weights.
#[derive(Clone, Debug)]
pub struct TransformerWeights {
    /// Token embedding (`vocab × hidden`).
    pub embedding: Matrix,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Final RMSNorm gain.
    pub final_norm: Vec<f32>,
    /// LM head (`vocab × hidden`).
    pub lm_head: Matrix,
}

/// Lazily built calibrated KV variance maps `(K map, V map)`, keyed by
/// group size.
type KvMapCache = std::sync::Mutex<std::collections::HashMap<usize, (VarianceMap, VarianceMap)>>;

/// A complete model: configuration plus weights.
#[derive(Debug)]
pub struct TransformerModel {
    /// Shape description.
    pub config: ModelConfig,
    /// Weights.
    pub weights: TransformerWeights,
    /// Per-instance cache of self-calibrated KV variance maps (the maps
    /// are a pure function of the weights and the group size, so each
    /// model computes them at most once per group size).
    pub(crate) kv_map_cache: KvMapCache,
}

impl Clone for TransformerModel {
    fn clone(&self) -> Self {
        // The cache is deliberately NOT cloned: callers clone precisely to
        // mutate weights (quantize_weights), which invalidates the maps.
        TransformerModel {
            config: self.config.clone(),
            weights: self.weights.clone(),
            kv_map_cache: KvMapCache::default(),
        }
    }
}

/// Identifies a linear projection for observers and calibration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Proj {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// FFN gate.
    Gate,
    /// FFN up.
    Up,
    /// FFN down.
    Down,
}

/// Hook into the forward pass (used by calibration).
pub trait ForwardObserver {
    /// Called with the input vector of every linear projection.
    fn on_linear_input(&mut self, _layer: usize, _proj: Proj, _x: &[f32]) {}
    /// Called with the new K and V vectors of every layer, every step.
    fn on_kv_vectors(&mut self, _layer: usize, _k: &[f32], _v: &[f32]) {}
    /// Called with the query vector of every layer, every step (used to
    /// gather `E[q_j²]` for score-weighted K-cache calibration, Eq. (6)).
    fn on_query_vector(&mut self, _layer: usize, _q: &[f32]) {}
    /// Called after each residual block with the L2 norms of the incoming
    /// residual stream and of the block's contribution (`proj` is
    /// [`Proj::O`] for attention, [`Proj::Down`] for the FFN).
    fn on_block_contribution(
        &mut self,
        _layer: usize,
        _proj: Proj,
        _residual_norm: f32,
        _block_norm: f32,
    ) {
    }
}

/// A no-op observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl ForwardObserver for NullObserver {}

/// Runtime activation quantization applied before every linear projection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActMode {
    /// FP32/FP16 activations (the W-only configurations).
    None,
    /// Group-wise symmetric INT along the vector (MANT's A8 mode).
    IntGroup {
        /// Bit width (4 or 8).
        bits: u8,
        /// Group size.
        group: usize,
    },
    /// One scale for the whole activation vector (ANT/OliVe's tensor-wise
    /// activations — this is what outlier channels break).
    IntTensor {
        /// Bit width (4 or 8).
        bits: u8,
    },
    /// OliVe's runtime activation handling: tensor-wise INT with
    /// outlier-victim pairs (outliers survive in `abfloat`, their
    /// neighbors are sacrificed).
    OliveTensor {
        /// Bit width (4 or 8).
        bits: u8,
    },
    /// Tender's runtime activation handling: channels are reordered by
    /// magnitude into chunks so outliers share scales with each other
    /// (modeled by sorting the vector by |x| before grouping).
    SortedGroup {
        /// Bit width (4 or 8).
        bits: u8,
        /// Group (chunk) size after reordering.
        group: usize,
    },
    /// MXFP4 activations: E2M1 elements under an E8M0 (power-of-two)
    /// block scale.
    MxfpGroup {
        /// Block size (32 in the OCP spec).
        group: usize,
    },
}

/// KV-cache handling during inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvMode {
    /// Full-precision cache (baselines' unquantized attention).
    Fp16,
    /// Real-time group-wise INT4 (K spatial, V two-phase temporal).
    Int4 {
        /// Group size.
        group: usize,
    },
    /// Real-time group-wise 4-bit MANT via variance selection.
    Mant4 {
        /// Group size.
        group: usize,
    },
}

/// A runner's KV store, every layer's cache.
enum RunnerKv {
    /// Full-precision `(K, V)` rows per layer.
    Fp(Vec<(Matrix, Matrix)>),
    /// A private pool — the store the serving engine runs — and one view
    /// per layer. The runner cannot know its sequence length, so the pool
    /// starts at one block a layer and [`KvCachePool::grow`]s; a block is
    /// always one V window, the smallest legal block.
    Quant {
        pool: KvCachePool,
        caches: Vec<PagedKvCache>,
    },
}

/// Step-wise (token-at-a-time) executor with a per-layer KV cache.
///
/// # Example
///
/// ```
/// use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
///
/// let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 7);
/// let mut runner = model.runner(ActMode::None, KvMode::Fp16);
/// let logits = runner.step(42);
/// assert_eq!(logits.len(), model.config.vocab);
/// ```
pub struct ModelRunner<'m> {
    model: &'m TransformerModel,
    act: ActMode,
    kv: RunnerKv,
    seq_len: usize,
    /// Packed linear weights when driving [`ExecutionBackend::Quantized`];
    /// `None` selects the f32 reference backend over the model's dense
    /// weights.
    packed: Option<&'m PackedWeights>,
    /// The reference backend's copy of the model's dense weights, tiled for
    /// [`mant_numerics::KernelDispatch::matvec_tiled_f32`]; built on the
    /// first reference step. The runner borrows the model, so the copy
    /// cannot go stale.
    tiled: Option<TiledWeights>,
}

/// Every f32 matrix of the reference forward in the row tiles of
/// [`TiledF32`]: per layer the projections (the gate only for
/// [`FfnKind::GatedSilu`]), then the LM head. `matvec_tiled_f32` over these
/// carries exactly the bits of `mant_tensor::matvec` over the row-major
/// originals.
struct TiledWeights {
    layers: Vec<TiledLayer>,
    lm_head: TiledF32,
}

/// One layer of [`TiledWeights`].
struct TiledLayer {
    wq: TiledF32,
    wk: TiledF32,
    wv: TiledF32,
    wo: TiledF32,
    w_gate: Option<TiledF32>,
    w_up: TiledF32,
    w_down: TiledF32,
}

impl TiledWeights {
    fn of(model: &TransformerModel) -> Self {
        let tile = |m: &Matrix| TiledF32::from_row_major(m.as_slice(), m.rows(), m.cols());
        let gated = model.config.ffn_kind == FfnKind::GatedSilu;
        let layers = model
            .weights
            .layers
            .iter()
            .map(|l| TiledLayer {
                wq: tile(&l.wq),
                wk: tile(&l.wk),
                wv: tile(&l.wv),
                wo: tile(&l.wo),
                w_gate: gated.then(|| tile(&l.w_gate)),
                w_up: tile(&l.w_up),
                w_down: tile(&l.w_down),
            })
            .collect();
        TiledWeights {
            layers,
            lm_head: tile(&model.weights.lm_head),
        }
    }
}

/// `W · x` over a tiled copy — the reference backend's one matvec.
fn matvec_tiled(w: &TiledF32, x: &[f32]) -> Vec<f32> {
    kernels()
        .matvec_tiled_f32(w, &[x])
        .pop()
        .expect("one input, one output")
}

impl TransformerModel {
    /// Synthesizes a model with LLM-like statistics (see [`crate::synth`]).
    pub fn synthesize(config: &ModelConfig, seed: u64) -> Self {
        synth::synthesize(config, seed)
    }

    /// Returns a copy whose linear-layer weights are fake-quantized with
    /// `q` (embedding, norms, and LM head stay full precision, matching the
    /// paper's "linear layer" quantization scope).
    ///
    /// The projections are quantized in parallel (scoped threads, one work
    /// item per projection), on top of whatever row-level parallelism the
    /// quantizer itself runs; results are written back in a fixed order,
    /// so output is deterministic for any deterministic quantizer.
    pub fn quantize_weights(&self, q: &(dyn FakeQuantizer + Sync)) -> TransformerModel {
        let gated = self.config.ffn_kind == FfnKind::GatedSilu;
        let jobs: Vec<&Matrix> = self
            .weights
            .layers
            .iter()
            .flat_map(|l| {
                let mut v = vec![&l.wq, &l.wk, &l.wv, &l.wo];
                if gated {
                    v.push(&l.w_gate);
                }
                v.push(&l.w_up);
                v.push(&l.w_down);
                v
            })
            .collect();
        let mut quantized = par_map_slice(&jobs, |w| q.fake_quantize(w)).into_iter();
        let mut out = self.clone();
        let mut next = || quantized.next().expect("job list covers every projection");
        for l in &mut out.weights.layers {
            l.wq = next();
            l.wk = next();
            l.wv = next();
            l.wo = next();
            if gated {
                l.w_gate = next();
            }
            l.w_up = next();
            l.w_down = next();
        }
        out
    }

    /// The self-calibrated KV variance maps `(K map, V map)` for `group`,
    /// built on first use and cached per model instance.
    ///
    /// For the adaptive MANT KV mode the variance→`a` tables are
    /// calibrated on this model's own K/V tensors (paper Sec. V-C:
    /// "sample the K and V tensors through a calibration dataset") with
    /// one short FP16 stream at the *same* group size the runtime
    /// quantizers will use — separate maps for the spatially-grouped K
    /// cache and the temporally-grouped V cache, whose group statistics
    /// differ fundamentally.
    pub(crate) fn kv_maps(&self, group: usize) -> (VarianceMap, VarianceMap) {
        let mut cache = self.kv_map_cache.lock().expect("KV map cache poisoned");
        if let Some(maps) = cache.get(&group) {
            return maps.clone();
        }
        let set = CandidateSet::paper();
        // One V window (`group` tokens) plus a few extra for K coverage.
        let calib = crate::calib::calibrate_with_group(self, group + 8, 0xca11b, group);
        let maps = (
            calib
                .k_variance_map_weighted(&set)
                .expect("paper set is non-empty"),
            calib.v_variance_map(&set).expect("paper set is non-empty"),
        );
        cache.insert(group, maps.clone());
        maps
    }

    /// Creates a fresh runner with the given runtime quantization modes.
    pub fn runner(&self, act: ActMode, kv: KvMode) -> ModelRunner<'_> {
        let kv_dim = self.config.kv_dim();
        let layers = self.config.layers;
        let packed_kv = |group: usize, (kmap, vmap): (VarianceMap, VarianceMap)| {
            let pool = KvCachePool::new(PoolConfig {
                kv_dim,
                group_size: group,
                block_tokens: group,
                blocks: layers,
            })
            .expect("group divides the KV width");
            let caches = (0..layers)
                .map(|_| PagedKvCache::new(&pool, kmap.clone(), vmap.clone()))
                .collect();
            RunnerKv::Quant { pool, caches }
        };
        let kv = match kv {
            KvMode::Fp16 => RunnerKv::Fp(
                (0..layers)
                    .map(|_| (Matrix::zeros(0, kv_dim), Matrix::zeros(0, kv_dim)))
                    .collect(),
            ),
            KvMode::Int4 { group } => packed_kv(group, (int4_kv_map(), int4_kv_map())),
            KvMode::Mant4 { group } => packed_kv(group, self.kv_maps(group)),
        };
        ModelRunner {
            model: self,
            act,
            kv,
            seq_len: 0,
            packed: None,
            tiled: None,
        }
    }

    /// Creates a runner on the **quantized execution backend**: every
    /// linear projection dispatches to the fused integer GEMV over
    /// `packed`, and quantized KV caches are consumed group-wise (fused
    /// `Q·Kᵀ` dots, psum-based `P·V`) — the forward pass never
    /// dequantizes a weight matrix or a cache.
    ///
    /// The integer datapath inherently runs INT8 activations at the packed
    /// group size (the paper's A8), so `act` must be [`ActMode::None`] or
    /// the matching [`ActMode::IntGroup`]; both execute identically.
    ///
    /// # Panics
    ///
    /// Panics if `packed` does not match the model's shape, if `act` is an
    /// unsupported mode, or if a quantized `kv` mode's group size does not
    /// divide the head dimension (the alignment the fused attention needs).
    pub fn packed_runner<'m>(
        &'m self,
        packed: &'m PackedWeights,
        act: ActMode,
        kv: KvMode,
    ) -> ModelRunner<'m> {
        self.validate_packed_setup(packed, act, kv);
        let mut runner = self.runner(act, kv);
        runner.packed = Some(packed);
        runner
    }

    /// The shape/mode validation shared by [`TransformerModel::packed_runner`]
    /// and the batch runner; panics with the messages both document.
    pub(crate) fn validate_packed_setup(&self, packed: &PackedWeights, act: ActMode, kv: KvMode) {
        assert_eq!(
            packed.layers().len(),
            self.config.layers,
            "packed weights and model disagree on layer count"
        );
        assert_eq!(
            (packed.lm_head().rows(), packed.lm_head().cols()),
            (self.config.vocab, self.config.hidden),
            "packed LM head shape mismatch"
        );
        for l in packed.layers() {
            assert_eq!(
                (l.wq.rows(), l.wq.cols()),
                (self.config.hidden, self.config.hidden),
                "packed Q projection shape mismatch"
            );
            // K/V rows depend on the GQA factor, so a packed set from a
            // model with different kv_heads must be rejected here rather
            // than deep inside the cache engines.
            assert_eq!(
                (l.wk.rows(), l.wv.rows()),
                (self.config.kv_dim(), self.config.kv_dim()),
                "packed K/V projection shape mismatch (GQA factor differs?)"
            );
            assert_eq!(
                (l.w_down.rows(), l.w_down.cols()),
                (self.config.hidden, self.config.ffn),
                "packed down projection shape mismatch"
            );
        }
        match act {
            ActMode::None => {}
            ActMode::IntGroup { bits: 8, group } if group == packed.group_size() => {}
            _ => panic!(
                "the quantized backend runs INT8 activations at the packed group size \
                 ({}); pass ActMode::None or the matching ActMode::IntGroup",
                packed.group_size()
            ),
        }
        if let KvMode::Int4 { group } | KvMode::Mant4 { group } = kv {
            assert!(
                self.config.head_dim().is_multiple_of(group),
                "fused attention needs the KV group size ({group}) to divide the head \
                 dimension ({})",
                self.config.head_dim()
            );
        }
    }
}

impl ModelRunner<'_> {
    /// Number of tokens processed so far.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The execution backend this runner drives.
    pub fn backend(&self) -> ExecutionBackend {
        if self.packed.is_some() {
            ExecutionBackend::Quantized
        } else {
            ExecutionBackend::Reference
        }
    }

    /// Processes one token, returning the next-token logits.
    pub fn step(&mut self, token: usize) -> Vec<f32> {
        self.step_observed(token, &mut NullObserver)
    }

    /// Processes one token with a forward observer attached.
    ///
    /// # Panics
    ///
    /// Panics if `token >= vocab`.
    pub fn step_observed(&mut self, token: usize, obs: &mut dyn ForwardObserver) -> Vec<f32> {
        let cfg = &self.model.config;
        assert!(token < cfg.vocab, "token {token} out of vocabulary");
        let w = &self.model.weights;
        if self.packed.is_none() && self.tiled.is_none() {
            self.tiled = Some(TiledWeights::of(self.model));
        }
        let mut x: Vec<f32> = w.embedding.row(token).to_vec();
        if let RunnerKv::Quant { pool, caches } = &mut self.kv {
            // Every layer pushes one row this step; cover them all at once.
            let needed: usize = caches.iter().map(|c| c.blocks_needed_for_push(pool)).sum();
            pool.grow(needed.saturating_sub(pool.free_blocks()));
        }

        for (li, layer) in w.layers.iter().enumerate() {
            // `self.packed` is a Copy reference with the runner's lifetime,
            // so the per-layer handle stays independent of later `self`
            // borrows.
            let packed_layer = self.packed.map(|p| (&p.layers()[li], p.group_size()));
            let tiled = self.tiled.as_ref().map(|t| &t.layers[li]);

            // --- Attention block ---
            let xn = rmsnorm(&x, &layer.attn_norm, 1e-5);
            obs.on_linear_input(li, Proj::Q, &xn);
            obs.on_linear_input(li, Proj::K, &xn);
            obs.on_linear_input(li, Proj::V, &xn);
            let (q, k, v) = match packed_layer {
                None => {
                    let xq = self.quantize_act(&xn);
                    let t = tiled.expect("the reference backend tiles its weights");
                    (
                        matvec_tiled(&t.wq, &xq),
                        matvec_tiled(&t.wk, &xq),
                        matvec_tiled(&t.wv, &xq),
                    )
                }
                Some((pl, g)) => {
                    let xq = quantize_vector_int8(&xn, g).expect("group size divides hidden");
                    (pl.wq.matvec(&xq), pl.wk.matvec(&xq), pl.wv.matvec(&xq))
                }
            };
            obs.on_query_vector(li, &q);
            obs.on_kv_vectors(li, &k, &v);

            let (heads, kv_heads, hd) = (cfg.heads, cfg.kv_heads, cfg.head_dim());
            let attn = match &mut self.kv {
                RunnerKv::Fp(layers) => {
                    let (kc, vc) = &mut layers[li];
                    kc.push_row(&k);
                    vc.push_row(&v);
                    attention_f32(&q, kc, vc, heads, kv_heads, hd)
                }
                RunnerKv::Quant { pool, caches } => {
                    let cache = &mut caches[li];
                    // No plan may be installed around an oracle, so a
                    // refusal after the growth above is a bug.
                    cache
                        .push(pool, &k, &v)
                        .expect("the pool was grown to cover this step");
                    if packed_layer.is_some() {
                        // Quantized backend: consume packed cache groups in
                        // place — no per-step full-cache dequantization.
                        attention_incremental_paged(&q, cache, pool, heads, kv_heads, hd)
                    } else {
                        // Reference backend: materialize the dequantized
                        // cache (the path the decode bench measures against).
                        let (k_all, v_all) = (cache.dequantize_k(pool), cache.dequantize_v(pool));
                        attention_f32(&q, &k_all, &v_all, heads, kv_heads, hd)
                    }
                }
            };
            obs.on_linear_input(li, Proj::O, &attn);
            let o = match packed_layer {
                None => {
                    let attn_q = self.quantize_act(&attn);
                    matvec_tiled(
                        &tiled.expect("the reference backend tiles its weights").wo,
                        &attn_q,
                    )
                }
                Some((pl, _)) => pl.wo.matvec_f32(&attn),
            };
            obs.on_block_contribution(li, Proj::O, l2(&x), l2(&o));
            for (xi, oi) in x.iter_mut().zip(o.iter()) {
                *xi += oi;
            }

            // --- FFN block ---
            let xn = rmsnorm(&x, &layer.ffn_norm, 1e-5);
            let ff = match cfg.ffn_kind {
                FfnKind::GatedSilu => {
                    obs.on_linear_input(li, Proj::Gate, &xn);
                    obs.on_linear_input(li, Proj::Up, &xn);
                    let (gate, up) = match packed_layer {
                        None => {
                            let xnq = self.quantize_act(&xn);
                            let t = tiled.expect("the reference backend tiles its weights");
                            let gate = t.w_gate.as_ref().expect("a gated model tiles its gate");
                            (matvec_tiled(gate, &xnq), matvec_tiled(&t.w_up, &xnq))
                        }
                        Some((pl, g)) => {
                            let xnq =
                                quantize_vector_int8(&xn, g).expect("group size divides hidden");
                            let gate_w = pl.w_gate.as_ref().expect("gated model packs a gate");
                            (gate_w.matvec(&xnq), pl.w_up.matvec(&xnq))
                        }
                    };
                    let h: Vec<f32> = gate
                        .iter()
                        .zip(up.iter())
                        .map(|(&g, &u)| silu(g) * u)
                        .collect();
                    obs.on_linear_input(li, Proj::Down, &h);
                    match packed_layer {
                        None => {
                            let hq = self.quantize_act(&h);
                            matvec_tiled(
                                &tiled
                                    .expect("the reference backend tiles its weights")
                                    .w_down,
                                &hq,
                            )
                        }
                        Some((pl, _)) => pl.w_down.matvec_f32(&h),
                    }
                }
                FfnKind::PlainGelu => {
                    obs.on_linear_input(li, Proj::Up, &xn);
                    let up = match packed_layer {
                        None => {
                            let xnq = self.quantize_act(&xn);
                            matvec_tiled(
                                &tiled.expect("the reference backend tiles its weights").w_up,
                                &xnq,
                            )
                        }
                        Some((pl, g)) => {
                            let xnq =
                                quantize_vector_int8(&xn, g).expect("group size divides hidden");
                            pl.w_up.matvec(&xnq)
                        }
                    };
                    let h: Vec<f32> = up.iter().map(|&u| gelu(u)).collect();
                    obs.on_linear_input(li, Proj::Down, &h);
                    match packed_layer {
                        None => {
                            let hq = self.quantize_act(&h);
                            matvec_tiled(
                                &tiled
                                    .expect("the reference backend tiles its weights")
                                    .w_down,
                                &hq,
                            )
                        }
                        Some((pl, _)) => pl.w_down.matvec_f32(&h),
                    }
                }
            };
            obs.on_block_contribution(li, Proj::Down, l2(&x), l2(&ff));
            for (xi, fi) in x.iter_mut().zip(ff.iter()) {
                *xi += fi;
            }
        }

        self.seq_len += 1;
        let xn = rmsnorm(&x, &w.final_norm, 1e-5);
        match &self.tiled {
            Some(t) => matvec_tiled(&t.lm_head, &xn),
            // The packed runner is the serving engine's oracle: its head
            // stays on the row-major `matvec`, independent of the tiled
            // head `BatchRunner` reads.
            None => matvec(&w.lm_head, &xn),
        }
    }

    /// Applies the runtime activation quantization mode.
    fn quantize_act(&self, x: &[f32]) -> Vec<f32> {
        match self.act {
            ActMode::None => x.to_vec(),
            ActMode::IntTensor { bits } => fake_int_quantize(x, bits, x.len()),
            ActMode::IntGroup { bits, group } => fake_int_quantize(x, bits, group),
            ActMode::OliveTensor { bits } => {
                use mant_baselines::OliveQuantizer;
                use mant_quant::{FakeQuantizer, Granularity};
                let q = if bits == 8 {
                    OliveQuantizer::w8(Granularity::Channel)
                } else {
                    OliveQuantizer::w4(Granularity::Channel)
                };
                q.fake_quantize(&Matrix::from_vec(1, x.len(), x.to_vec()))
                    .into_vec()
            }
            ActMode::MxfpGroup { group } => {
                use mant_numerics::{e8m0_quantize_scale, fp4_e2m1_grid};
                let grid = fp4_e2m1_grid();
                let elem_max = grid.max_abs();
                let mut out = Vec::with_capacity(x.len());
                for chunk in x.chunks(group.max(1)) {
                    let amax = abs_max(chunk);
                    if amax == 0.0 {
                        out.extend(chunk.iter().copied());
                        continue;
                    }
                    let scale = e8m0_quantize_scale(amax / elem_max);
                    for &v in chunk {
                        out.push(grid.quantize(v / scale) * scale);
                    }
                }
                out
            }
            ActMode::SortedGroup { bits, group } => {
                // Sort indices by magnitude, quantize in that order, undo.
                let mut order: Vec<usize> = (0..x.len()).collect();
                order.sort_by(|&a, &b| x[b].abs().partial_cmp(&x[a].abs()).expect("finite acts"));
                let sorted: Vec<f32> = order.iter().map(|&i| x[i]).collect();
                let quantized = fake_int_quantize(&sorted, bits, group);
                let mut out = vec![0.0f32; x.len()];
                for (pos, &i) in order.iter().enumerate() {
                    out[i] = quantized[pos];
                }
                out
            }
        }
    }
}

/// The analytic INT-only variance map of the [`KvMode::Int4`] cache mode
/// — one definition shared by the sequential runner and the batch runner,
/// so both engines quantize Int4 caches identically.
pub(crate) fn int4_kv_map() -> VarianceMap {
    let set = CandidateSet::custom(&[], true).expect("INT-only set is valid");
    VarianceMap::analytic(&set).expect("set is non-empty")
}

/// L2 norm of a vector.
fn l2(x: &[f32]) -> f32 {
    x.iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt() as f32
}

/// Symmetric INT fake quantization of a vector in groups of `group`. The
/// scale is FP16-rounded like every stored scale in the quant crate
/// (Eq. (4)), so this is bit-compatible with the INT8 codes the quantized
/// execution backend feeds its integer kernels.
fn fake_int_quantize(x: &[f32], bits: u8, group: usize) -> Vec<f32> {
    let imax = ((1i32 << (bits - 1)) - 1) as f32;
    let mut out = Vec::with_capacity(x.len());
    for chunk in x.chunks(group.max(1)) {
        let amax = abs_max(chunk);
        if amax == 0.0 {
            out.extend(chunk.iter().copied());
            continue;
        }
        let scale = quantize_fp16(amax / imax).max(f32::MIN_POSITIVE);
        for &v in chunk {
            out.push(quantize_symmetric_int(v / scale, imax as i32) as f32 * scale);
        }
    }
    out
}

/// Convenience: run a full token sequence, returning logits per position.
pub fn run_sequence(
    model: &TransformerModel,
    act: ActMode,
    kv: KvMode,
    tokens: &[usize],
) -> Matrix {
    collect_logits(model.runner(act, kv), tokens)
}

/// [`run_sequence`] on the quantized execution backend: the forward pass
/// consumes `packed` groups end to end (see
/// [`TransformerModel::packed_runner`]).
pub fn run_sequence_packed(
    model: &TransformerModel,
    packed: &PackedWeights,
    act: ActMode,
    kv: KvMode,
    tokens: &[usize],
) -> Matrix {
    collect_logits(model.packed_runner(packed, act, kv), tokens)
}

fn collect_logits(mut runner: ModelRunner<'_>, tokens: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(0, runner.model.config.vocab);
    for &t in tokens {
        let logits = runner.step(t);
        out.push_row(&logits);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mant_quant::MantWeightQuantizer;

    fn model() -> TransformerModel {
        TransformerModel::synthesize(&ModelConfig::sim_llama(), 3)
    }

    #[test]
    fn step_produces_finite_logits() {
        let m = model();
        let mut r = m.runner(ActMode::None, KvMode::Fp16);
        for t in [1usize, 5, 9, 200] {
            let logits = r.step(t);
            assert_eq!(logits.len(), m.config.vocab);
            assert!(logits.iter().all(|v| v.is_finite()));
        }
        assert_eq!(r.seq_len(), 4);
    }

    #[test]
    fn logits_depend_on_history() {
        let m = model();
        let mut a = m.runner(ActMode::None, KvMode::Fp16);
        let mut b = m.runner(ActMode::None, KvMode::Fp16);
        a.step(1);
        b.step(2);
        let la = a.step(3);
        let lb = b.step(3);
        assert_ne!(la, lb, "attention must consult the cache");
    }

    #[test]
    fn quantized_kv_close_to_fp() {
        let m = model();
        let tokens: Vec<usize> = (0..40).map(|i| (i * 37) % 512).collect();
        let fp = run_sequence(&m, ActMode::None, KvMode::Fp16, &tokens);
        let mant = run_sequence(&m, ActMode::None, KvMode::Mant4 { group: 64 }, &tokens);
        let rel = fp.distance(&mant)
            / fp.as_slice()
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
        // 4-bit KV perturbs attention scores through the softmax; the
        // logit-level distortion stays bounded well below sign-flipping.
        assert!(rel < 0.6, "relative logit distortion {rel}");
    }

    #[test]
    fn mant_kv_beats_int_kv() {
        // A single trajectory's distance to the FP run is dominated by
        // accumulated feedback drift (each cached K/V vector was computed
        // from earlier quantized attention outputs), making a one-model
        // comparison a coin flip even when per-step cache fidelity differs
        // by 2–4×. Aggregate across models so the mechanism — adaptive
        // per-group types beating fixed INT4 — dominates the noise.
        let tokens: Vec<usize> = (0..48).map(|i| (i * 53) % 512).collect();
        let (mut d_mant, mut d_int) = (0.0f64, 0.0f64);
        for seed in [1u64, 3, 5] {
            let m = TransformerModel::synthesize(&ModelConfig::sim_llama(), seed);
            let fp = run_sequence(&m, ActMode::None, KvMode::Fp16, &tokens);
            let mant = run_sequence(&m, ActMode::None, KvMode::Mant4 { group: 64 }, &tokens);
            let int4 = run_sequence(&m, ActMode::None, KvMode::Int4 { group: 64 }, &tokens);
            d_mant += fp.distance(&mant);
            d_int += fp.distance(&int4);
        }
        assert!(
            d_mant < d_int * 1.1,
            "MANT KV {d_mant} should not lose to INT KV {d_int}"
        );
    }

    #[test]
    fn weight_quantization_perturbs_but_preserves() {
        let m = model();
        let q = m.quantize_weights(&MantWeightQuantizer::new(64));
        let tokens: Vec<usize> = (0..16).map(|i| (i * 31) % 512).collect();
        let fp = run_sequence(&m, ActMode::None, KvMode::Fp16, &tokens);
        let qd = run_sequence(&q, ActMode::None, KvMode::Fp16, &tokens);
        assert_ne!(fp.as_slice(), qd.as_slice());
        let rel = fp.distance(&qd)
            / fp.as_slice()
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
        assert!(rel < 0.5, "W4 distortion too large: {rel}");
    }

    #[test]
    fn tensor_act_int4_much_worse_than_group_int8() {
        // The outlier-channel mechanism: per-vector INT4 activations are
        // badly hurt; group-wise INT8 is near-lossless (Tbl. II's story).
        let m = model();
        let tokens: Vec<usize> = (0..16).map(|i| (i * 29) % 512).collect();
        let fp = run_sequence(&m, ActMode::None, KvMode::Fp16, &tokens);
        let a4 = run_sequence(&m, ActMode::IntTensor { bits: 4 }, KvMode::Fp16, &tokens);
        let a8 = run_sequence(
            &m,
            ActMode::IntGroup { bits: 8, group: 64 },
            KvMode::Fp16,
            &tokens,
        );
        let d4 = fp.distance(&a4);
        let d8 = fp.distance(&a8);
        assert!(d4 > d8 * 5.0, "tensor-A4 {d4} vs group-A8 {d8}");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn bad_token_panics() {
        let m = model();
        let mut r = m.runner(ActMode::None, KvMode::Fp16);
        let _ = r.step(100_000);
    }

    #[test]
    fn gqa_runs_and_shrinks_kv() {
        let cfg = ModelConfig::sim_llama().with_gqa(2);
        assert_eq!(cfg.kv_dim(), 128);
        let m = TransformerModel::synthesize(&cfg, 17);
        assert_eq!(m.weights.layers[0].wk.shape(), (128, 256));
        let tokens: Vec<usize> = (0..12).map(|i| (i * 41) % 512).collect();
        let fp = run_sequence(&m, ActMode::None, KvMode::Fp16, &tokens);
        assert!(fp.as_slice().iter().all(|v| v.is_finite()));
        // GQA composes with real-time MANT KV quantization.
        let kv4 = run_sequence(&m, ActMode::None, KvMode::Mant4 { group: 64 }, &tokens);
        let norm: f64 = fp
            .as_slice()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        assert!(fp.distance(&kv4) / norm < 0.6);
    }

    #[test]
    fn mqa_single_kv_head() {
        let cfg = ModelConfig::sim_llama().with_gqa(1);
        let m = TransformerModel::synthesize(&cfg, 18);
        let mut r = m.runner(ActMode::None, KvMode::Fp16);
        let logits = r.step(3);
        assert_eq!(logits.len(), 512);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "must divide heads")]
    fn gqa_validation() {
        let _ = ModelConfig::sim_llama().with_gqa(3);
    }

    #[test]
    fn quantized_backend_matches_reference_twin() {
        // The quantized backend (integer GEMVs over packed groups) must
        // reproduce the reference backend run over the dequantized twin
        // with the bit-compatible A8 fake quantization — the two paths
        // compute the same math with different accumulation.
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        let twin = packed.to_model(&m);
        let tokens: Vec<usize> = (0..24).map(|i| (i * 37) % 512).collect();
        let act = ActMode::IntGroup { bits: 8, group: 64 };
        let reference = run_sequence(&twin, act, KvMode::Fp16, &tokens);
        let quantized = run_sequence_packed(&m, &packed, act, KvMode::Fp16, &tokens);
        let norm: f64 = reference
            .as_slice()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        let rel = reference.distance(&quantized) / norm;
        assert!(rel < 1e-3, "backend divergence {rel}");
    }

    #[test]
    fn quantized_backend_reports_itself() {
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        let r = m.packed_runner(&packed, ActMode::None, KvMode::Mant4 { group: 64 });
        assert_eq!(r.backend(), crate::backend::ExecutionBackend::Quantized);
        let r = m.runner(ActMode::None, KvMode::Fp16);
        assert_eq!(r.backend(), crate::backend::ExecutionBackend::Reference);
    }

    #[test]
    fn fused_kv_attention_close_to_dequantize_path() {
        // Same packed weights, same quantized KV mode; the only difference
        // is the incremental integer attention (plus its INT8 query/prob
        // quantization, which is near-lossless).
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        let twin = packed.to_model(&m);
        let tokens: Vec<usize> = (0..32).map(|i| (i * 41) % 512).collect();
        let act = ActMode::IntGroup { bits: 8, group: 64 };
        let kv = KvMode::Mant4 { group: 64 };
        let dequant_path = run_sequence(&twin, act, kv, &tokens);
        let fused_path = run_sequence_packed(&m, &packed, act, kv, &tokens);
        let norm: f64 = dequant_path
            .as_slice()
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        let rel = dequant_path.distance(&fused_path) / norm;
        // Per-step the integer attention is within INT8 rounding of the
        // dequantize path (verified tightly in mant-quant's fused_dot /
        // attend tests); end-to-end, cache feedback amplifies those
        // rounding-level differences along the trajectory, so the bound
        // here is well below the 0.6 the 4-bit cache itself costs vs FP16
        // but far above per-step epsilon.
        assert!(rel < 0.3, "fused KV attention drifted: {rel}");
    }

    #[test]
    fn runner_pool_growth_leaves_logits_bit_identical() {
        // Int4 {16} puts one 16-token window in a block, so 50 tokens
        // outgrow the initial one-block-a-layer pool three times. A twin
        // whose pool is grown up front never grows in step; both backends
        // must give it the same logits bit for bit.
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        let kv = KvMode::Int4 { group: 16 };
        let blocks = |r: &ModelRunner<'_>| match &r.kv {
            RunnerKv::Quant { pool, .. } => pool.total_blocks(),
            RunnerKv::Fp(_) => unreachable!("quantized KV mode"),
        };
        for fused in [false, true] {
            let make = || match fused {
                true => m.packed_runner(&packed, ActMode::None, kv),
                false => m.runner(ActMode::None, kv),
            };
            let (mut grown, mut sized) = (make(), make());
            if let RunnerKv::Quant { pool, .. } = &mut sized.kv {
                pool.grow(3 * m.config.layers);
            }
            for i in 0..50 {
                let (a, b) = (grown.step((i * 43) % 512), sized.step((i * 43) % 512));
                let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&a), bits(&b), "fused={fused} step {i}");
            }
            assert_eq!(blocks(&grown), 4 * m.config.layers, "three growths");
            assert_eq!(blocks(&sized), 4 * m.config.layers, "none in step");
        }
    }

    #[test]
    fn fused_attention_supports_gqa() {
        let cfg = ModelConfig::sim_llama().with_gqa(2);
        let m = TransformerModel::synthesize(&cfg, 19);
        let packed = m.pack_weights(64).unwrap();
        let tokens: Vec<usize> = (0..12).map(|i| (i * 13) % 512).collect();
        let logits = run_sequence_packed(
            &m,
            &packed,
            ActMode::None,
            KvMode::Mant4 { group: 64 },
            &tokens,
        );
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "packed K/V projection shape mismatch")]
    fn packed_runner_rejects_mismatched_gqa_factor() {
        // Same hidden/ffn shapes, different kv_heads: wq/w_down validate,
        // but the K/V projections must be caught up front.
        let gqa = TransformerModel::synthesize(&ModelConfig::sim_llama().with_gqa(2), 25);
        let packed = gqa.pack_weights(64).unwrap();
        let plain = model();
        let _ = plain.packed_runner(&packed, ActMode::None, KvMode::Fp16);
    }

    #[test]
    #[should_panic(expected = "INT8 activations at the packed group size")]
    fn packed_runner_rejects_foreign_act_modes() {
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        let _ = m.packed_runner(&packed, ActMode::IntTensor { bits: 4 }, KvMode::Fp16);
    }

    #[test]
    #[should_panic(expected = "to divide the head dimension")]
    fn packed_runner_rejects_misaligned_kv_groups() {
        let m = model();
        let packed = m.pack_weights(64).unwrap();
        // Group 48 does not divide head_dim 64 → the fused attention
        // cannot align cache groups to heads.
        let _ = m.packed_runner(&packed, ActMode::None, KvMode::Mant4 { group: 48 });
    }
}
