//! MANT weight quantization: per-group adaptive types with packed storage.

use mant_numerics::fp16::quantize_fp16;
use mant_numerics::{int4_grid, kernels, EncodeTable, Grid, Mant, MantCode, NumericsError};
use mant_tensor::par::par_map_indexed;
use mant_tensor::Matrix;

use mant_numerics::KernelLut;

use crate::error::QuantError;
use crate::plan::kernel_table;
use crate::quantizer::FakeQuantizer;
use crate::search::CandidateSet;

/// Encodes one group straight into its **packed** nibble storage: two
/// codes per byte, first code in the low nibble, an odd tail in a final
/// low nibble. Shared by the weight quantizer, the streaming K-cache
/// encoder, and the V-window commit, so every packed buffer in the
/// workspace has one layout — the group-encode kernel's.
pub(crate) fn encode_group_packed(dtype: GroupDtype, scale: f32, group: &[f32], out: &mut [u8]) {
    kernels().encode_packed(&dtype.encode_table(), scale, group, out);
}

/// Decodes the packed code of element `j` within a group slice.
pub(crate) fn packed_code(codes: &[u8], j: usize) -> u8 {
    let b = codes[j / 2];
    if j.is_multiple_of(2) {
        b & 0x0f
    } else {
        b >> 4
    }
}

/// Encodes one row: per group, one kernel sweep over every candidate
/// (`abs_max` once, each candidate's FP16 scale once), then the packed
/// 4-bit encoding under the winner. The unit of work for both the serial and
/// parallel quantization paths (groups within a row are processed in
/// order, so splitting by rows cannot reorder any floating-point
/// operation). The callers have been through
/// [`MantQuantizedMatrix::validate`]: the set is not empty and the column
/// weights span the row.
fn encode_row(
    row: &[f32],
    group_size: usize,
    set: &CandidateSet,
    col_weights: Option<&[f32]>,
) -> (Vec<u8>, Vec<GroupMeta>) {
    let groups_per_row = row.len() / group_size;
    let group_bytes = group_size.div_ceil(2);
    let mut codes = vec![0u8; groups_per_row * group_bytes];
    let mut meta = Vec::with_capacity(groups_per_row);
    for g in 0..groups_per_row {
        let lo = g * group_size;
        let group = &row[lo..lo + group_size];
        let gw = col_weights.map(|cw| &cw[lo..lo + group_size]);
        let (best, _, scale) = set.select(group, gw);
        meta.push(GroupMeta {
            dtype: set.candidates()[best],
            scale,
        });
        kernels().encode_packed(
            &set.tables()[best],
            scale,
            group,
            &mut codes[g * group_bytes..(g + 1) * group_bytes],
        );
    }
    (codes, meta)
}

/// The data type assigned to one group: a MANT coefficient or plain INT4
/// (the paper's search set is 15 coefficients "and an additional INT
/// option", Sec. V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupDtype {
    /// A MANT family member.
    Mant(Mant),
    /// Symmetric INT4.
    Int4,
}

impl GroupDtype {
    /// A MANT group type with coefficient `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidCoefficient`] if `a ≥ 128`.
    pub fn mant(a: u32) -> Result<Self, NumericsError> {
        Ok(GroupDtype::Mant(Mant::new(a)?))
    }

    /// The largest unscaled level of the type's grid.
    pub fn max_level(&self) -> f32 {
        match self {
            GroupDtype::Mant(m) => m.max_level() as f32,
            GroupDtype::Int4 => 7.0,
        }
    }

    /// The symmetric scale mapping a group of max-magnitude `amax` onto this
    /// type, rounded through FP16 like the stored metadata (Eq. (4)).
    pub fn scale_for(&self, amax: f32) -> f32 {
        if amax == 0.0 {
            return 1.0;
        }
        quantize_fp16(amax / self.max_level()).max(f32::MIN_POSITIVE)
    }

    /// The type as the group-encode kernel reads it.
    pub fn encode_table(&self) -> EncodeTable {
        match self {
            GroupDtype::Mant(m) => (*m).into(),
            GroupDtype::Int4 => EncodeTable::Int4,
        }
    }

    /// Encodes `x / scale` to a 4-bit code. With
    /// [`GroupDtype::quantize_value`], the per-element oracle of the
    /// group-encode kernel every encode path runs
    /// ([`mant_numerics::KernelDispatch::encode_packed`]).
    pub fn encode(&self, x: f32, scale: f32) -> u8 {
        let v = x / scale;
        match self {
            GroupDtype::Mant(m) => m.encode(v).to_bits(),
            GroupDtype::Int4 => {
                let q = mant_numerics::int::quantize_symmetric_int(v, 7);
                (q as i8 as u8) & 0x0f
            }
        }
    }

    /// Decodes a 4-bit code to its unscaled value.
    pub fn decode(&self, code: u8) -> f32 {
        match self {
            GroupDtype::Mant(m) => m.decode(MantCode::from_bits(code)) as f32,
            GroupDtype::Int4 => {
                // Sign-extend the low nibble.
                (((code << 4) as i8) >> 4) as f32
            }
        }
    }

    /// Quantizes a value through encode/decode at the given scale.
    pub fn quantize_value(&self, x: f32, scale: f32) -> f32 {
        self.decode(self.encode(x, scale)) * scale
    }

    /// The representable-value grid (unscaled).
    pub fn grid(&self) -> Grid {
        match self {
            GroupDtype::Mant(m) => m.grid(),
            GroupDtype::Int4 => int4_grid(),
        }
    }

    /// A short label (`"a=17"`, `"INT"`) for histograms (Fig. 15).
    pub fn label(&self) -> String {
        match self {
            GroupDtype::Mant(m) => format!("a={}", m.coefficient()),
            GroupDtype::Int4 => "INT".to_owned(),
        }
    }
}

/// Per-group metadata: the selected type and the FP16 scale — exactly the
/// paper's per-group storage (16-bit scale + 8-bit coefficient).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupMeta {
    /// The selected data type.
    pub dtype: GroupDtype,
    /// The symmetric scale factor.
    pub scale: f32,
}

impl GroupMeta {
    /// Arena/placeholder initializer (INT4 at scale 0) — always
    /// overwritten before any read; exists so fixed-size metadata storage
    /// can be pre-allocated.
    pub const ZERO: GroupMeta = GroupMeta {
        dtype: GroupDtype::Int4,
        scale: 0.0,
    };
}

/// A weight matrix quantized group-wise with MANT.
///
/// Layout: `rows` output channels, each row's `cols` elements along the
/// accumulation dimension split into `cols / group_size` groups. Codes are
/// stored **genuinely nibble-packed** — two 4-bit codes per byte, each
/// group padded to a byte boundary — which is the working representation
/// the packed kernels consume directly; nothing unpacks on the forward
/// path. Alongside the codes lives the matrix's **decode plan**: one
/// interned `&'static` kernel decode table per group
/// ([`crate::plan::kernel_table`]: the 256-entry pair table plus the
/// SIMD tiers' shuffle tables), resolved once at quantization and
/// reused across every token and batch row.
#[derive(Clone, Debug)]
pub struct MantQuantizedMatrix {
    rows: usize,
    cols: usize,
    group_size: usize,
    /// Packed codes, `rows × groups_per_row × group_bytes` bytes.
    codes: Vec<u8>,
    meta: Vec<GroupMeta>,
    /// The decode plan: `meta[i]`'s interned kernel table, same indexing.
    plan: Vec<&'static KernelLut>,
}

impl MantQuantizedMatrix {
    /// Quantizes `w` with per-group MSE search over `set`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadGroupSize`] if `group_size` does not divide
    /// `w.cols()`, or [`QuantError::EmptyCandidateSet`].
    pub fn quantize(w: &Matrix, group_size: usize, set: &CandidateSet) -> Result<Self, QuantError> {
        Self::quantize_weighted(w, group_size, set, None)
    }

    /// Quantizes with calibration-weighted selection: `col_weights[j]` is
    /// the second moment `E[x_j²]` of the activation feeding column `j`
    /// (the diagonal surrogate of Eq. (6)).
    ///
    /// # Errors
    ///
    /// As [`MantQuantizedMatrix::quantize`], plus
    /// [`QuantError::ShapeMismatch`] if `col_weights` length differs from
    /// `w.cols()`.
    pub fn quantize_weighted(
        w: &Matrix,
        group_size: usize,
        set: &CandidateSet,
        col_weights: Option<&[f32]>,
    ) -> Result<Self, QuantError> {
        Self::validate(w, group_size, set, col_weights)?;
        let mut codes =
            Vec::with_capacity(w.rows() * (w.cols() / group_size) * group_size.div_ceil(2));
        let mut meta = Vec::with_capacity(w.rows() * (w.cols() / group_size));
        for r in 0..w.rows() {
            let (row_codes, row_meta) = encode_row(w.row(r), group_size, set, col_weights);
            codes.extend(row_codes);
            meta.extend(row_meta);
        }
        Ok(Self::assemble(w, group_size, codes, meta))
    }

    /// Finishes construction: resolves the decode plan from the metadata.
    fn assemble(w: &Matrix, group_size: usize, codes: Vec<u8>, meta: Vec<GroupMeta>) -> Self {
        let plan = meta.iter().map(|m| kernel_table(m.dtype)).collect();
        MantQuantizedMatrix {
            rows: w.rows(),
            cols: w.cols(),
            group_size,
            codes,
            meta,
            plan,
        }
    }

    /// [`MantQuantizedMatrix::quantize`] with the per-group candidate
    /// search fanned across threads, one row per work item. Output is
    /// **bit-identical** to the serial path: rows are processed in
    /// contiguous chunks and reassembled in order, and no group's
    /// floating-point operations are reordered. Falls back to the serial
    /// loop when the `parallel` feature is disabled.
    ///
    /// # Errors
    ///
    /// As [`MantQuantizedMatrix::quantize`].
    pub fn par_quantize(
        w: &Matrix,
        group_size: usize,
        set: &CandidateSet,
    ) -> Result<Self, QuantError> {
        Self::par_quantize_weighted(w, group_size, set, None)
    }

    /// Parallel counterpart of [`MantQuantizedMatrix::quantize_weighted`];
    /// see [`MantQuantizedMatrix::par_quantize`] for the determinism
    /// guarantee.
    ///
    /// # Errors
    ///
    /// As [`MantQuantizedMatrix::quantize_weighted`].
    pub fn par_quantize_weighted(
        w: &Matrix,
        group_size: usize,
        set: &CandidateSet,
        col_weights: Option<&[f32]>,
    ) -> Result<Self, QuantError> {
        Self::validate(w, group_size, set, col_weights)?;
        let rows = par_map_indexed(w.rows(), |r| {
            encode_row(w.row(r), group_size, set, col_weights)
        });
        let mut codes =
            Vec::with_capacity(w.rows() * (w.cols() / group_size) * group_size.div_ceil(2));
        let mut meta = Vec::with_capacity(w.rows() * (w.cols() / group_size));
        for (row_codes, row_meta) in rows {
            codes.extend(row_codes);
            meta.extend(row_meta);
        }
        Ok(Self::assemble(w, group_size, codes, meta))
    }

    fn validate(
        w: &Matrix,
        group_size: usize,
        set: &CandidateSet,
        col_weights: Option<&[f32]>,
    ) -> Result<(), QuantError> {
        if group_size == 0 || !w.cols().is_multiple_of(group_size) {
            return Err(QuantError::BadGroupSize {
                group_size,
                inner_dim: w.cols(),
            });
        }
        if set.is_empty() {
            return Err(QuantError::EmptyCandidateSet);
        }
        if let Some(cw) = col_weights {
            if cw.len() != w.cols() {
                return Err(QuantError::ShapeMismatch {
                    context: "calibration column weights vs weight columns",
                });
            }
        }
        Ok(())
    }

    /// Number of output channels (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Accumulation-dimension length (columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Groups per row.
    pub fn groups_per_row(&self) -> usize {
        self.cols / self.group_size
    }

    /// Metadata for group `g` of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn meta(&self, r: usize, g: usize) -> GroupMeta {
        self.meta[r * self.groups_per_row() + g]
    }

    /// Bytes one packed group occupies (`⌈group_size / 2⌉`).
    pub fn group_bytes(&self) -> usize {
        self.group_size.div_ceil(2)
    }

    /// The **packed** 4-bit codes of group `g` in row `r` — two codes per
    /// byte, the operand the packed kernels consume directly.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn packed_group_codes(&self, r: usize, g: usize) -> &[u8] {
        let gb = self.group_bytes();
        let base = (r * self.groups_per_row() + g) * gb;
        &self.codes[base..base + gb]
    }

    /// The interned kernel decode table of group `g` in row `r` — the
    /// matrix's decode plan, resolved once at quantization.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn plan_table(&self, r: usize, g: usize) -> &'static KernelLut {
        self.plan[r * self.groups_per_row() + g]
    }

    /// The full packed codes of row `r`, groups consecutive
    /// (`groups_per_row() · group_bytes()` bytes) — the operand of the
    /// grouped row-tile kernel sweep.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn packed_row(&self, r: usize) -> &[u8] {
        let rb = self.groups_per_row() * self.group_bytes();
        &self.codes[r * rb..(r + 1) * rb]
    }

    /// Row `r`'s interned decode tables, one per group.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn plan_row(&self, r: usize) -> &[&'static KernelLut] {
        let gpr = self.groups_per_row();
        &self.plan[r * gpr..(r + 1) * gpr]
    }

    /// Row `r`'s group metadata, one entry per group.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn meta_row(&self, r: usize) -> &[GroupMeta] {
        let gpr = self.groups_per_row();
        &self.meta[r * gpr..(r + 1) * gpr]
    }

    /// Dequantizes to an f32 matrix.
    pub fn dequantize(&self) -> Matrix {
        let gpr = self.groups_per_row();
        let gb = self.group_bytes();
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let g = c / self.group_size;
            let j = c % self.group_size;
            let m = self.meta[r * gpr + g];
            let base = (r * gpr + g) * gb;
            m.dtype.decode(packed_code(&self.codes[base..base + gb], j)) * m.scale
        })
    }

    /// Total storage in bits: the packed code bytes (4 bits per element —
    /// the codes really are nibble-packed now) plus per-group metadata
    /// (16-bit FP16 scale + 8-bit coefficient).
    pub fn storage_bits(&self) -> usize {
        self.codes.len() * 8 + self.meta.len() * (16 + 8)
    }

    /// Average bits per element including metadata.
    pub fn bits_per_element(&self) -> f64 {
        self.storage_bits() as f64 / (self.rows * self.cols) as f64
    }

    /// Histogram of selected types over all groups, labeled per Fig. 15.
    pub fn dtype_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for m in &self.meta {
            let label = m.dtype.label();
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, c)) => *c += 1,
                None => counts.push((label, 1)),
            }
        }
        counts
    }
}

/// The MANT weight quantizer as a [`FakeQuantizer`] for the accuracy
/// experiments.
#[derive(Clone, Debug)]
pub struct MantWeightQuantizer {
    group_size: usize,
    set: CandidateSet,
    col_weights: Option<Vec<f32>>,
}

impl MantWeightQuantizer {
    /// Creates the paper-default quantizer (candidate set of Sec. V-A).
    pub fn new(group_size: usize) -> Self {
        MantWeightQuantizer {
            group_size,
            set: CandidateSet::paper(),
            col_weights: None,
        }
    }

    /// Uses a custom candidate set.
    pub fn with_candidates(mut self, set: CandidateSet) -> Self {
        self.set = set;
        self
    }

    /// Supplies calibration second moments `E[x_j²]` per input column.
    pub fn with_calibration(mut self, col_weights: Vec<f32>) -> Self {
        self.col_weights = Some(col_weights);
        self
    }

    /// The configured group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Full (non-fake) quantization, exposing codes and metadata.
    ///
    /// # Errors
    ///
    /// See [`MantQuantizedMatrix::quantize_weighted`].
    pub fn quantize(&self, w: &Matrix) -> Result<MantQuantizedMatrix, QuantError> {
        MantQuantizedMatrix::quantize_weighted(
            w,
            self.group_size,
            &self.set,
            self.col_weights.as_deref(),
        )
    }

    /// Multi-threaded [`MantWeightQuantizer::quantize`]: bit-identical
    /// output, per-row fan-out (serial when the `parallel` feature is off).
    ///
    /// # Errors
    ///
    /// See [`MantQuantizedMatrix::quantize_weighted`].
    pub fn par_quantize(&self, w: &Matrix) -> Result<MantQuantizedMatrix, QuantError> {
        MantQuantizedMatrix::par_quantize_weighted(
            w,
            self.group_size,
            &self.set,
            self.col_weights.as_deref(),
        )
    }
}

impl FakeQuantizer for MantWeightQuantizer {
    fn name(&self) -> String {
        format!("MANT-g{}", self.group_size)
    }

    fn bits_per_element(&self, _inner_dim: usize) -> f64 {
        4.0 + 24.0 / self.group_size as f64
    }

    fn fake_quantize(&self, w: &Matrix) -> Matrix {
        // Routed through the parallel engine: bit-identical to the serial
        // path by construction, so every consumer (including
        // `mant_core::Pipeline::quantize_w4`) scales across cores when the
        // default `parallel` feature is on.
        self.par_quantize(w)
            .expect("group size must divide the weight inner dimension")
            .dequantize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mant_numerics::int4_grid;
    use mant_tensor::{mse, Matrix, TensorGenerator};

    use crate::quantizer::GridQuantizer;
    use crate::scheme::Granularity;

    #[test]
    fn int4_code_roundtrip() {
        let d = GroupDtype::Int4;
        for v in -7..=7i32 {
            let code = d.encode(v as f32, 1.0);
            assert_eq!(d.decode(code), v as f32, "v={v}");
        }
    }

    #[test]
    fn mant_code_roundtrip() {
        let d = GroupDtype::mant(17).unwrap();
        for &lvl in &[1.0f32, 19.0, 59.0, 247.0] {
            let code = d.encode(lvl, 1.0);
            assert_eq!(d.decode(code), lvl);
            let ncode = d.encode(-lvl, 1.0);
            assert_eq!(d.decode(ncode), -lvl);
        }
    }

    #[test]
    fn scale_maps_amax_to_max_level() {
        let d = GroupDtype::mant(17).unwrap();
        let s = d.scale_for(494.0);
        assert!((s - 2.0).abs() < 0.01); // 494 / 247
        assert_eq!(GroupDtype::Int4.scale_for(0.0), 1.0);
    }

    #[test]
    fn quantize_dequantize_shape_and_error() {
        let mut g = TensorGenerator::new(31);
        let w = g.group_diverse_matrix(8, 256, 64, 0.02);
        let q = MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()).unwrap();
        let deq = q.dequantize();
        assert_eq!(deq.shape(), w.shape());
        // Relative RMS error should be small for 4-bit adaptive encoding.
        let err = mse(w.as_slice(), deq.as_slice());
        let power = mse(w.as_slice(), &vec![0.0; w.len()]);
        assert!(err / power < 0.02, "relative error {}", err / power);
    }

    #[test]
    fn beats_plain_int4_on_diverse_groups() {
        // The core claim (Fig. 2 / Tbl. V): adaptive per-group types beat
        // fixed INT4 on group-diverse data.
        let mut g = TensorGenerator::new(32);
        let w = g.group_diverse_matrix(16, 512, 64, 0.02);
        let mant = MantWeightQuantizer::new(64);
        let int4 = GridQuantizer::new("int4", int4_grid(), 4, Granularity::Group(64));
        let err_mant = mse(w.as_slice(), mant.fake_quantize(&w).as_slice());
        let err_int = mse(w.as_slice(), int4.fake_quantize(&w).as_slice());
        assert!(
            err_mant < err_int * 0.9,
            "MANT {err_mant} vs INT4 {err_int}"
        );
    }

    #[test]
    fn par_quantize_bit_identical_to_serial() {
        let mut g = TensorGenerator::new(35);
        let w = g.group_diverse_matrix(33, 512, 64, 0.02); // odd row count: uneven chunks
        let moments: Vec<f32> = (0..512).map(|i| 1.0 + (i % 7) as f32).collect();
        for cw in [None, Some(moments.as_slice())] {
            let ser =
                MantQuantizedMatrix::quantize_weighted(&w, 64, &CandidateSet::paper(), cw).unwrap();
            let par =
                MantQuantizedMatrix::par_quantize_weighted(&w, 64, &CandidateSet::paper(), cw)
                    .unwrap();
            assert_eq!(
                ser.codes,
                par.codes,
                "codes diverge (weighted={})",
                cw.is_some()
            );
            assert_eq!(
                ser.meta,
                par.meta,
                "metadata diverges (weighted={})",
                cw.is_some()
            );
            let bits =
                |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(&ser.dequantize()), bits(&par.dequantize()));
        }
    }

    #[test]
    fn par_quantize_validates_like_serial() {
        let w = Matrix::zeros(2, 100);
        assert!(matches!(
            MantQuantizedMatrix::par_quantize(&w, 64, &CandidateSet::paper()),
            Err(QuantError::BadGroupSize { .. })
        ));
        let empty = CandidateSet::custom(&[], false).unwrap();
        assert!(matches!(
            MantQuantizedMatrix::par_quantize(&Matrix::zeros(2, 64), 64, &empty),
            Err(QuantError::EmptyCandidateSet)
        ));
    }

    #[test]
    fn bad_group_size_is_error() {
        let w = Matrix::zeros(2, 100);
        assert!(matches!(
            MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()),
            Err(QuantError::BadGroupSize { .. })
        ));
    }

    #[test]
    fn storage_accounting() {
        let w = Matrix::zeros(4, 128);
        let q = MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()).unwrap();
        // 512 elements × 4 bits + 8 groups × 24 bits.
        assert_eq!(q.storage_bits(), 512 * 4 + 8 * 24);
        assert!((q.bits_per_element() - 4.375).abs() < 1e-12);
    }

    #[test]
    fn histogram_covers_all_groups() {
        let mut g = TensorGenerator::new(33);
        let w = g.group_diverse_matrix(4, 256, 64, 0.02);
        let q = MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()).unwrap();
        let hist = q.dtype_histogram();
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4 * 4);
    }

    #[test]
    fn calibration_weights_validated() {
        let w = Matrix::zeros(2, 128);
        let q = MantWeightQuantizer::new(64).with_calibration(vec![1.0; 64]);
        assert!(q.quantize(&w).is_err());
    }

    #[test]
    fn meta_and_codes_accessors() {
        let mut g = TensorGenerator::new(34);
        let w = g.group_diverse_matrix(2, 128, 64, 0.02);
        let q = MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()).unwrap();
        assert_eq!(q.packed_group_codes(1, 1).len(), 32, "64 codes in 32 bytes");
        let m = q.meta(1, 1);
        assert!(m.scale > 0.0);
        assert_eq!(q.groups_per_row(), 2);
        // The decode plan resolves each group's dtype to its interned
        // kernel table.
        let t = q.plan_table(1, 1);
        for b in 0..=255u8 {
            assert_eq!(t.pair[b as usize][0], m.dtype.decode(b & 0x0f) as i32);
            assert_eq!(t.pair[b as usize][1], m.dtype.decode(b >> 4) as i32);
        }
    }

    #[test]
    fn packed_storage_is_half_the_bytes() {
        // The working representation really is nibble-packed: a 4×128
        // matrix holds 512 codes in 256 bytes (it used to resident-store
        // one code per byte and only *account* for 4 bits).
        let mut g = TensorGenerator::new(36);
        let w = g.group_diverse_matrix(4, 128, 64, 0.02);
        let q = MantQuantizedMatrix::quantize(&w, 64, &CandidateSet::paper()).unwrap();
        assert_eq!(q.packed_group_codes(0, 0).len(), 32);
        assert_eq!(q.storage_bits(), 4 * 128 * 4 + 8 * 24);
        // Odd group sizes pad each group to a byte boundary.
        let w_odd = g.group_diverse_matrix(2, 9, 3, 0.02);
        let q_odd = MantQuantizedMatrix::quantize(&w_odd, 3, &CandidateSet::paper()).unwrap();
        assert_eq!(q_odd.group_bytes(), 2);
        assert_eq!(q_odd.packed_group_codes(1, 2).len(), 2);
        assert_eq!(q_odd.dequantize().shape(), (2, 9));
    }
}
