//! `mant-serve`: a continuous-batching serving runtime over the quantized
//! execution backend.
//!
//! The paper's accelerator story — incremental KV quantization, the
//! K-on-arrival / V-staged-window engines of Fig. 8 — pays off under
//! realistic multi-tenant decode traffic, and the software integer GEMV's
//! constant per-call overhead only amortizes across concurrent requests.
//! This crate supplies that serving layer:
//!
//! - [`ServeEngine`]: admits concurrent [`GenRequest`]s, schedules mixed
//!   prefill+decode iterations (token-level continuous batching; prompts
//!   advance by block-bounded runs of up to [`PREFILL_ROWS_PER_TICK`]
//!   rows in the ticks nothing decodes), and drives
//!   [`mant_model::BatchRunner`] — multi-query packed GEMMs over every
//!   row of the ragged batch, per-sequence incremental attention over a
//!   paged, packed, **refcounted copy-on-write** KV-cache pool accounted
//!   in real packed bits;
//! - [`AdmissionPolicy`]: vLLM-style watermark admission, the one
//!   discipline — blocks allocated as tokens arrive, pool pressure
//!   relieved by dropping prefix snapshots and preempting the youngest
//!   sequence (recompute on readmission, byte-identical by determinism);
//! - **prefix sharing**: with [`ServeConfig::prefix_sharing`], requests
//!   whose prompts share a block-aligned prefix (a common system prompt)
//!   map it onto the *same* physical packed blocks and skip that prefill;
//! - **speculative decoding**: with [`ServeConfig::speculative`] and
//!   [`ServeEngine::new_with_draft`], decode-phase sequences run
//!   draft-and-verify rounds — `draft_k` cheap draft-model steps, one
//!   `draft_k`-token batched target verify (the GEMM shape the SIMD
//!   kernels are best at), accept the longest agreeing prefix plus a
//!   bonus token. Outputs stay byte-identical to plain decode; the
//!   outcome lands in [`ServeReport::speculation`];
//! - [`FcfsScheduler`]: arrival-ordered admission, O(log n) inserts;
//! - [`ServeReport`] / [`Percentiles`]: aggregate tokens/s, TTFT /
//!   end-to-end / queueing-delay percentiles, batch occupancy, prefix
//!   hit rate, preemption and recompute counts, pool peaks;
//! - [`sequential_generate`]: the one-request-at-a-time baseline. The
//!   batch runner is bit-identical to sequential execution, so the
//!   engine's greedy outputs equal the baseline's exactly — batching,
//!   sharing, and preemption buy throughput, never different results.
//!
//! Workloads come from [`mant_sim::trace`] — seeded Poisson arrivals via
//! [`requests_from_trace`], and shared-prefix multi-persona traffic via
//! [`requests_from_shared_trace`].
//!
//! ```
//! use mant_model::{ActMode, KvMode, ModelConfig, TransformerModel};
//! use mant_serve::{AdmissionPolicy, GenRequest, ServeConfig, ServeEngine};
//!
//! let model = TransformerModel::synthesize(&ModelConfig::sim_llama(), 7);
//! let packed = model.pack_weights(64).unwrap();
//! let mut engine = ServeEngine::new(&model, &packed, ServeConfig {
//!     max_batch: 4,
//!     pool_blocks: 64,
//!     block_tokens: 64,
//!     act: ActMode::None,
//!     kv: KvMode::Mant4 { group: 64 },
//!     admission: AdmissionPolicy::Watermark { watermark_blocks: 4 },
//!     prefix_sharing: true,
//!     speculative: None,
//! });
//! engine.submit(GenRequest {
//!     id: 0,
//!     prompt: vec![1, 2, 3],
//!     max_new_tokens: 4,
//!     arrival_iter: 0,
//!     deadline_iter: None,
//! });
//! let report = engine.run_to_completion();
//! assert_eq!(report.completions[0].tokens.len(), 4);
//! ```
//!
//! For serving over a network edge, requests additionally carry deadlines
//! ([`GenRequest::deadline_iter`] in the engine clock; wall-clock
//! deadlines via [`ServeEngine::expire`]), can be cancelled mid-flight
//! with [`ServeEngine::cancel`] (blocks return to the refcounted free
//! list immediately), are validated at submission with typed
//! [`SubmitError`] rejections ([`ServeEngine::try_submit`]), and stream
//! per-token [`EngineEvent`]s — the contract `mant-gateway` builds its
//! HTTP/SSE front-end on.

pub mod engine;
pub mod metrics;
pub mod request;
pub mod scheduler;

pub use engine::{
    argmax, sequential_generate, AdmissionPolicy, EngineEvent, ServeConfig, ServeEngine,
    SpeculativeConfig, PREFILL_ROWS_PER_TICK,
};
pub use metrics::{
    percentile, DegradationStats, LatencyBreakdown, Percentiles, ServeReport, SpeculationStats,
};
pub use request::{
    requests_from_shared_trace, requests_from_trace, Completion, GenRequest, SubmitError,
};
pub use scheduler::FcfsScheduler;
