//! Tensor substrate for the M-ANT reproduction.
//!
//! A deliberately small, dependency-light dense linear-algebra layer:
//! row-major [`Matrix`] with blocked GEMM, the activation functions a
//! transformer needs (RMSNorm, SiLU, GELU; the softmax is a kernel of
//! `mant-numerics`), group views along the inner dimension (the unit of
//! group-wise quantization), streaming statistics, and seeded random
//! generators that reproduce the *distributional* properties of LLM tensors
//! the paper relies on — in particular the group-level diversity of Fig. 3
//! and the outlier channels of LLM activations.

pub mod gemm;
pub mod group;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod rng;
pub mod stats;

pub use gemm::{gemm, gemv, matvec, matvec_batch};
pub use group::GroupedRows;
pub use matrix::Matrix;
pub use rng::{DistributionKind, TensorGenerator};
pub use stats::{abs_max, empirical_cdf, mean, mse, variance, RunningGroupStats};
