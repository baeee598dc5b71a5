//! The M-ANT group-wise quantization framework (paper Secs. IV–V).
//!
//! This crate turns the raw numeric formats of `mant-numerics` into a full
//! quantization system:
//!
//! - [`scheme`]: granularities (tensor / channel / group) and schemes;
//! - [`quantizer`]: the generic [`FakeQuantizer`] interface all methods
//!   implement, plus grid-based INT/FP16 reference quantizers;
//! - [`mantq`]: the MANT weight quantizer — per-group coefficient search
//!   over the paper's candidate set, quantized storage, exact dequantize;
//! - [`search`]: MSE and calibration-weighted coefficient selection
//!   (paper Eq. (6));
//! - [`variance`]: the variance→`a` mapping used for real-time KV-cache
//!   selection (paper Sec. V-C, Eq. (7));
//! - [`activation`]: group-wise INT8 activation quantization with a
//!   streaming max (paper Sec. V-B);
//! - [`fused`]: the decode-free integer GEMM/GEMV of Eq. (5), consuming
//!   **nibble-packed** groups with i32 in-group accumulation: one driver
//!   behind [`mant_gemv`], [`mant_gemv_batch`] and [`mant_gemm`] runs the
//!   packed row sweep (`KernelDispatch::dot_packed_rows_scaled`, eight
//!   weight rows a block, every activation row a member) over the
//!   matrix's block-ordered f32 scales; [`mant_gemv`] is the per-token
//!   primitive of the packed forward pass, and [`mant_gemv_scalar`] keeps
//!   the pre-packing one-code-per-byte path as the bench baseline and
//!   bit-identity oracle;
//! - [`plan`]: interned `&'static` kernel decode tables (the 256-entry
//!   pair table and the `pshufb` shuffle tables) per group dtype — built
//!   once per process, cached per matrix as its decode plan;
//! - [`kv`]: the real-time K-cache (spatial) and V-cache (two-phase
//!   temporal) encode engines (paper Sec. V-C, Fig. 8);
//! - [`pool`]: the one KV store — a paged, packed, **refcounted** block
//!   allocator owning MANT4/INT8 group storage that hands fixed-size
//!   blocks to per-sequence [`PagedKvCache`] views, with incremental
//!   group-wise access ([`attention_incremental_paged`] sweeping pool
//!   blocks and V windows; [`PagedKvCache::fused_dot`] and
//!   [`PagedKvCache::attend`] are its per-row references) so decode-step
//!   attention never dequantizes the full cache. Views fork **copy-on-write**
//!   ([`PagedKvCache::fork`]), so identical prompt prefixes share
//!   physical blocks; a single-sequence caller sizes a private pool (or
//!   grows one, [`KvCachePool::grow`]); [`mant_gemv_batch`] is the
//!   matching multi-query GEMM (one weight-group decode pass amortized
//!   across the whole batch).

pub mod activation;
pub mod error;
pub mod fused;
pub mod kv;
pub mod mantq;
pub mod plan;
pub mod pool;
pub mod quantizer;
pub mod scheme;
pub mod search;
pub mod smooth;
pub mod variance;

pub use activation::{
    quantize_activations_int8, quantize_vector_int8, ActivationTensor, QuantizedVector,
};
pub use error::QuantError;
pub use fused::{
    dequant_then_gemm, dequant_then_gemv, group_dot, group_dot_packed, mant_gemm, mant_gemm_with,
    mant_gemv, mant_gemv_batch, mant_gemv_batch_with, mant_gemv_scalar, mant_gemv_with,
    UnpackedWeights,
};
pub use mantq::{GroupDtype, MantQuantizedMatrix, MantWeightQuantizer};
pub use pool::{
    attention_f32, attention_incremental_paged, KvCachePool, PagedKvCache, PoolConfig, RunAttention,
};
pub use quantizer::{FakeQuantizer, Fp16Quantizer, GridQuantizer};
pub use scheme::Granularity;
pub use search::{
    group_quantization_error, group_quantization_error_weighted, par_select_group_dtypes_batch,
    select_group_dtype, select_group_dtype_weighted, select_group_dtypes_batch, CandidateSet,
};
pub use smooth::Smoother;
pub use variance::VarianceMap;
