//! Data types for M-ANT quantization.
//!
//! This crate implements the numeric formats used by the M-ANT paper
//! (HPCA 2025): the **MANT** mathematically adaptive numerical type itself
//! ([`Mant`]), plus every companion/baseline format referenced in the
//! evaluation:
//!
//! - symmetric integer grids ([`int4_grid`], [`int8_grid`]),
//! - power-of-two ([`pot4_grid`], the Laplace-friendly type from ANT),
//! - ANT's `flint` ([`flint4_grid`]),
//! - NormalFloat ([`nf4_paper_grid`] per the paper's Eq. (3) and the exact
//!   QLoRA table [`qlora_nf4_grid`]),
//! - OliVe's outlier type `abfloat` ([`AbFloat`]),
//! - MXFP4 (E2M1 element type with an E8M0 shared scale, [`mxfp`]),
//! - software FP16 ([`fp16`]).
//!
//! All formats are exposed uniformly as [`Grid`]s — finite, sorted sets of
//! representable points with nearest-point encode — while [`Mant`] also
//! exposes the structured sign/magnitude code and the
//! `psum1`/`psum2` decomposition that the accelerator fuses into integer
//! arithmetic (paper Eq. (5)).
//!
//! The integer group-dot kernels live in [`mod@kernels`] (scalar, the
//! bit-identity oracle) and [`simd`] (runtime-dispatched x86_64 SSSE3 /
//! AVX2 tiers, selected once per process by [`kernels()`](simd::kernels)
//! and bit-identical to the oracle on every input). The attention tail —
//! the workspace's one softmax ([`KernelDispatch::softmax`], with its
//! polynomial [`exp_nonpositive`]) and the staged-window `P·V`
//! ([`KernelDispatch::staged_pv`]) — lives there too.
//!
//! # Example
//!
//! ```
//! use mant_numerics::Mant;
//!
//! // The paper's running example: a = 17 approximates a 4-bit float.
//! let mant = Mant::new(17)?;
//! assert_eq!(mant.levels(), [1, 19, 38, 59, 84, 117, 166, 247]);
//!
//! let code = mant.encode(-60.0);
//! assert_eq!(mant.decode(code), -59);
//! # Ok::<(), mant_numerics::NumericsError>(())
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod abfloat;
pub mod datatype;
pub mod error;
pub mod flint;
pub mod fp16;
pub mod grid;
pub mod int;
pub mod kernels;
pub mod mant;
pub mod mxfp;
pub mod nf;
pub mod packing;
pub mod pot;
pub mod probit;
pub mod simd;

pub use abfloat::AbFloat;
pub use datatype::DataType;
pub use error::NumericsError;
pub use flint::flint4_grid;
pub use grid::Grid;
pub use int::{int4_grid, int8_grid, uniform_symmetric_grid};
pub use kernels::{
    decode_packed_i16, dot_i8_i16, dot_packed, dot_packed_x4, exp_nonpositive, int4_decode_lut,
    int4_group_mac, int8_dot, mant_decode_lut, mant_group_psums, pair_decode_lut, EncodeTable,
    PairLut, EXP_FLOOR, MAX_I32_GROUP,
};
pub use mant::{Mant, MantCode};
pub use mxfp::{e8m0_quantize_scale, fp4_e2m1_grid};
pub use nf::{nf4_paper_grid, qlora_nf4_grid};
pub use packing::{pack_nibbles, pack_nibbles_into, unpack_nibbles, NibbleIter};
pub use pot::pot4_grid;
pub use probit::probit;
pub use simd::{
    kernel_lut, kernels, scalar_forced, tile8_len, KernelDispatch, KernelLut, TILE_ROWS,
};
