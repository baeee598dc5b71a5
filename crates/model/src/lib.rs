//! Synthetic transformer inference substrate for the M-ANT evaluation.
//!
//! The paper evaluates on LLaMA-1/2 and OPT checkpoints; this crate
//! substitutes synthetic models whose tensors reproduce the distributional
//! structure those results depend on (see `DESIGN.md`): per-group diversity
//! in the weights, outlier channels in the activation stream (via
//! embedding and norm-gain outliers), and dynamically generated KV caches.
//!
//! - [`config`]: model shape presets (real LLaMA/OPT dimensions for the
//!   simulator workloads, scaled "sim" sizes for fast accuracy runs);
//! - [`synth`]: seeded weight synthesis;
//! - [`layers`]: the FP32 reference model, a step-wise [`ModelRunner`] with
//!   pluggable activation quantization and KV-cache modes, and forward
//!   observers for calibration;
//! - [`backend`]: the execution-backend layer — [`PackedWeights`] /
//!   [`QuantizedLinear`] packed storage and the dispatch that lets the
//!   runner execute entirely over packed groups (fused integer GEMV,
//!   incremental KV attention) without dequantizing;
//! - [`batch`]: the continuous-batching [`BatchRunner`] — per-sequence
//!   sessions over a paged packed KV pool, multi-query packed GEMMs, and
//!   a step contract bit-identical to N independent sequential runs;
//! - [`eval`]: the perplexity proxy and generation-fidelity metrics;
//! - [`calib`]: calibration over synthetic token streams (KV variance maps
//!   and activation second moments).

pub mod backend;
pub mod batch;
pub mod calib;
pub mod config;
pub mod eval;
pub mod layers;
pub mod synth;

pub use backend::{ExecutionBackend, PackedLayer, PackedWeights, QuantizedLinear};
pub use batch::{BatchRunner, Run, SessionId};
pub use calib::{calibrate, Calibration};
pub use config::{FfnKind, ModelConfig};
pub use eval::{argmax, generation_fidelity, perplexity_proxy, perplexity_proxy_packed, PplReport};
pub use layers::{
    run_sequence, run_sequence_packed, ActMode, ForwardObserver, KvMode, LayerWeights, ModelRunner,
    Proj, TransformerModel, TransformerWeights,
};
pub use synth::{synthesize_speculative_pair, DraftConfig};
