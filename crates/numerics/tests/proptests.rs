//! Property-based tests for the numeric formats.

use mant_numerics::int::quantize_symmetric_int;
use mant_numerics::packing::{pack_nibbles, unpack_nibbles, NibbleIter};
use mant_numerics::simd::{scalar_abs_max, scalar_quantize_i8, tile8_len, TILE_ROWS};
use mant_numerics::{
    dot_packed, dot_packed_x4, exp_nonpositive, fp16, int4_decode_lut, int4_group_mac, kernel_lut,
    kernels, mant_decode_lut, mant_group_psums, pair_decode_lut, EncodeTable, Grid, KernelDispatch,
    KernelLut, Mant, MantCode, EXP_FLOOR, MAX_I32_GROUP,
};
use proptest::prelude::*;

/// Every kernel tier available on this machine, scalar always included.
/// On AVX2 hardware this checks the AVX2 arm against the scalar oracle.
fn tiers() -> Vec<KernelDispatch> {
    let mut t = vec![KernelDispatch::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        t.push(KernelDispatch::Avx2);
    }
    t
}

fn mant_kernel_lut(a: u32) -> KernelLut {
    kernel_lut(&mant_decode_lut(Mant::new(a).unwrap()))
}

proptest! {
    /// Nearest-point encoding is optimal: no other grid point is closer.
    #[test]
    fn grid_encode_is_nearest(points in proptest::collection::vec(-1e6f32..1e6, 1..64),
                              x in -2e6f32..2e6) {
        let grid = Grid::from_points(points).unwrap();
        let q = grid.quantize(x);
        let err = (x - q).abs();
        for &p in grid.points() {
            prop_assert!(err <= (x - p).abs() + err * 1e-6);
        }
    }

    /// Quantization is idempotent: quantize(quantize(x)) == quantize(x).
    #[test]
    fn grid_quantize_idempotent(points in proptest::collection::vec(-1e4f32..1e4, 1..32),
                                x in -1e5f32..1e5) {
        let grid = Grid::from_points(points).unwrap();
        let q = grid.quantize(x);
        prop_assert_eq!(grid.quantize(q), q);
    }

    /// MANT encode then decode lands on the nearest level for any input.
    #[test]
    fn mant_encode_nearest(a in 0u32..128, x in -500.0f32..500.0) {
        let m = Mant::new(a).unwrap();
        let decoded = m.decode(m.encode(x)) as f32;
        let err = (x.abs() - decoded.abs()).abs();
        for i in 0..8u8 {
            let lvl = m.level(i) as f32;
            prop_assert!(err <= (x.abs() - lvl).abs() + 1e-3,
                "a={} x={} decoded={} beaten by level {}", a, x, decoded, lvl);
        }
        // Sign is preserved for nonzero input.
        if x != 0.0 {
            prop_assert_eq!(decoded.is_sign_negative() || decoded == 0.0, x < 0.0);
        }
    }

    /// The psum decomposition is exact for arbitrary activations.
    #[test]
    fn mant_psum_fusion_exact(a in 0u32..128, bits in 0u8..16, x in -127i64..=127) {
        let m = Mant::new(a).unwrap();
        let c = MantCode::from_bits(bits);
        let fused = m.combine_psums(
            x * i64::from(Mant::psum1_operand(c)),
            x * i64::from(Mant::psum2_operand(c)),
        );
        prop_assert_eq!(fused, x * i64::from(m.decode(c)));
    }

    /// FP16 roundtrip error is within half a ULP for normal-range values.
    #[test]
    fn fp16_roundtrip_half_ulp(x in -6e4f32..6e4) {
        let q = fp16::quantize_fp16(x);
        if x.abs() >= 2.0f32.powi(-14) {
            prop_assert!(((q - x) / x).abs() <= 2.0f32.powi(-11), "{} -> {}", x, q);
        } else {
            // Subnormal spacing is 2^-24.
            prop_assert!((q - x).abs() <= 2.0f32.powi(-25) * 1.0001, "{} -> {}", x, q);
        }
    }

    /// FP16 quantization is monotone non-decreasing.
    #[test]
    fn fp16_monotone(x in -6e4f32..6e4, delta in 0.0f32..100.0) {
        prop_assert!(fp16::quantize_fp16(x + delta) >= fp16::quantize_fp16(x));
    }

    /// Grid MSE is invariant under data permutation and zero for grid data.
    #[test]
    fn grid_mse_properties(mags in proptest::collection::vec(0.1f32..100.0, 1..8)) {
        let grid = Grid::symmetric(&mags).unwrap();
        let data: Vec<f32> = grid.points().to_vec();
        prop_assert!(grid.mse(&data) < 1e-9);
    }

    /// MANT levels are strictly increasing and bounded by 7a + 128.
    #[test]
    fn mant_levels_shape(a in 0u32..128) {
        let m = Mant::new(a).unwrap();
        let l = m.levels();
        for w in l.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        prop_assert_eq!(l[7], 7 * a + 128);
    }

    /// Nibble packing round-trips arbitrary 4-bit code vectors (even and
    /// odd lengths) with exactly ⌈n/2⌉ bytes, and the zero-alloc iterator
    /// agrees with the unpacker.
    #[test]
    fn packing_roundtrip_lossless(codes in proptest::collection::vec(0u8..16, 0..200)) {
        let packed = pack_nibbles(&codes);
        prop_assert_eq!(packed.len(), codes.len().div_ceil(2));
        prop_assert_eq!(unpack_nibbles(&packed, codes.len()), codes.clone());
        let via_iter: Vec<u8> = NibbleIter::new(&packed, codes.len()).collect();
        prop_assert_eq!(via_iter, codes);
    }

    /// Every MANT group survives encode → pack → unpack → decode with no
    /// loss: the packed memory layout is semantically identical to the
    /// one-code-per-byte layout.
    #[test]
    fn packing_preserves_mant_groups(a in 0u32..128,
                                     xs in proptest::collection::vec(-500.0f32..500.0, 1..129)) {
        let m = Mant::new(a).unwrap();
        let codes: Vec<u8> = xs.iter().map(|&x| m.encode(x).to_bits()).collect();
        let unpacked = unpack_nibbles(&pack_nibbles(&codes), codes.len());
        prop_assert_eq!(&unpacked, &codes);
        for (&c, &u) in codes.iter().zip(unpacked.iter()) {
            prop_assert_eq!(m.decode(MantCode::from_bits(c)), m.decode(MantCode::from_bits(u)));
        }
    }

    /// Every INT4 group (two's-complement low nibble) survives the packed
    /// layout: sign-extension after unpacking recovers the exact integers.
    #[test]
    fn packing_preserves_int4_groups(vals in proptest::collection::vec(-7i64..=7, 1..129)) {
        let codes: Vec<u8> = vals.iter().map(|&v| (v as i8 as u8) & 0x0f).collect();
        let unpacked = unpack_nibbles(&pack_nibbles(&codes), codes.len());
        for (&v, &u) in vals.iter().zip(unpacked.iter()) {
            let decoded = i64::from(((u << 4) as i8) >> 4);
            prop_assert_eq!(decoded, v);
        }
    }

    /// The packed pair-LUT kernel is **bit-identical** to the unpacked
    /// two-lane MANT kernel on random codes, every coefficient, and odd
    /// group tails — the exactness the packed working representation
    /// rests on.
    #[test]
    fn packed_dot_bit_identical_mant(a in 0u32..128,
                                     wcodes in proptest::collection::vec(0u8..16, 1..130),
                                     xseed in proptest::collection::vec(-128i64..=127, 130)) {
        let mant = Mant::new(a).unwrap();
        let xcodes: Vec<i8> = xseed[..wcodes.len()].iter().map(|&v| v as i8).collect();
        let packed = pack_nibbles(&wcodes);
        let lut = pair_decode_lut(&mant_decode_lut(mant));
        prop_assert_eq!(
            dot_packed(&xcodes, &packed, &lut),
            mant_group_psums(&xcodes, &wcodes, mant)
        );
    }

    /// The packed kernel through the INT4 pair table equals the unpacked
    /// INT4 MAC, odd tails included.
    #[test]
    fn packed_dot_bit_identical_int4(wcodes in proptest::collection::vec(0u8..16, 1..130),
                                     xseed in proptest::collection::vec(-128i64..=127, 130)) {
        let xcodes: Vec<i8> = xseed[..wcodes.len()].iter().map(|&v| v as i8).collect();
        let packed = pack_nibbles(&wcodes);
        let lut = pair_decode_lut(&int4_decode_lut());
        prop_assert_eq!(
            dot_packed(&xcodes, &packed, &lut),
            int4_group_mac(&xcodes, &wcodes)
        );
    }

    /// The 4-row tile kernel equals four independent packed dots for any
    /// mix of coefficients and any tail parity.
    #[test]
    fn packed_dot_x4_bit_identical(coeffs in (0u32..128, 0u32..128, 0u32..128, 0u32..128),
                                   wcodes in proptest::collection::vec(0u8..16, 4..132),
                                   xseed in proptest::collection::vec(-128i64..=127, 33)) {
        let len = wcodes.len() / 4;
        let xcodes: Vec<i8> = xseed[..len].iter().map(|&v| v as i8).collect();
        let rows: Vec<&[u8]> = wcodes.chunks_exact(len).take(4).collect();
        let packed: Vec<Vec<u8>> = rows.iter().map(|r| pack_nibbles(r)).collect();
        let luts: Vec<_> = [coeffs.0, coeffs.1, coeffs.2, coeffs.3]
            .iter()
            .map(|&a| pair_decode_lut(&mant_decode_lut(Mant::new(a).unwrap())))
            .collect();
        let tiled = dot_packed_x4(
            &xcodes,
            [&packed[0], &packed[1], &packed[2], &packed[3]],
            [&luts[0], &luts[1], &luts[2], &luts[3]],
        );
        for lane in 0..4 {
            prop_assert_eq!(tiled[lane], dot_packed(&xcodes, &packed[lane], &luts[lane]));
        }
    }

    /// Worst-case magnitudes never overflow the packed kernel's i32 group
    /// accumulator at any admissible group length: the extreme-magnitude
    /// sum stays exact all the way to `MAX_I32_GROUP`.
    #[test]
    fn packed_i32_bound_holds_at_extremes(len in 1usize..300) {
        let mant = Mant::new(127).unwrap();
        let lut = pair_decode_lut(&mant_decode_lut(mant));
        let xcodes = vec![-128i8; len];
        let wcodes = vec![0xfu8; len];
        let packed = pack_nibbles(&wcodes);
        let expect = len as i64 * 128 * (127 * 7 + 128);
        prop_assert_eq!(dot_packed(&xcodes, &packed, &lut), expect);
        // The analytic worst case per element times the cap fits i32 —
        // the bound the kernel's debug assertion enforces.
        prop_assert!((MAX_I32_GROUP as i64) * 128 * (127 * 7 + 128) <= i64::from(i32::MAX));
    }

    /// A packed buffer serves at most `2 × bytes` codes: the boundary
    /// count is accepted, anything beyond is a malformed length.
    #[test]
    fn packing_length_bounds(codes in proptest::collection::vec(0u8..16, 1..64)) {
        let packed = pack_nibbles(&codes);
        // The boundary count (every nibble, including an odd-length pad)
        // is valid.
        let all: Vec<u8> = NibbleIter::new(&packed, packed.len() * 2).collect();
        prop_assert_eq!(all.len(), packed.len() * 2);
        // Short counts truncate exactly.
        let half: Vec<u8> = NibbleIter::new(&packed, codes.len() / 2).collect();
        prop_assert_eq!(half.len(), codes.len() / 2);
        prop_assert_eq!(&half[..], &codes[..codes.len() / 2]);
    }
}

/// Malformed lengths (more codes requested than the buffer holds) are
/// rejected up front rather than yielding garbage.
#[test]
#[should_panic(expected = "packed buffer too short")]
fn packing_rejects_malformed_length() {
    let packed = pack_nibbles(&[1, 2, 3]);
    let _ = NibbleIter::new(&packed, 5);
}

/// The decode-attention sweep at the `MAX_I32_GROUP` bound: nine rows (a
/// whole lane block and a one-row block) of worst-case magnitudes, two
/// members, every tier exact — no `phaddd` intermediate overflows.
#[test]
fn simd_packed_rows_exact_at_i32_bound() {
    let lut = mant_kernel_lut(127);
    let rows = pack_nibbles(&vec![0xfu8; 9 * MAX_I32_GROUP]);
    let x = vec![-128i8; 2 * MAX_I32_GROUP];
    let expect = MAX_I32_GROUP as f64 * 128.0 * f64::from(127 * 7 + 128);
    for d in tiers() {
        let mut accs = vec![0.0f64; 18];
        d.dot_packed_rows_scaled(
            &rows,
            MAX_I32_GROUP / 2,
            MAX_I32_GROUP,
            1,
            &[&lut; 9],
            &[1.0; 9],
            &x,
            &[1.0, 1.0],
            &mut accs,
        );
        assert_eq!(accs, vec![expect; 18], "tier {}", d.name());
    }
}

proptest! {
    /// Every SIMD tier's packed dot is bit-identical to the scalar oracle
    /// for any MANT coefficient, any length (odd tails, lengths that are
    /// not multiples of the 16/32-code vector blocks), any codes.
    #[test]
    fn simd_dot_packed_bit_identical_mant(a in 0u32..128,
                                          wcodes in proptest::collection::vec(0u8..16, 1..300),
                                          xseed in proptest::collection::vec(-128i64..=127, 300)) {
        let xcodes: Vec<i8> = xseed[..wcodes.len()].iter().map(|&v| v as i8).collect();
        let packed = pack_nibbles(&wcodes);
        let lut = mant_kernel_lut(a);
        let oracle = dot_packed(&xcodes, &packed, &lut.pair);
        for d in tiers() {
            prop_assert_eq!(d.dot_packed(&xcodes, &packed, &lut), oracle, "tier {}", d.name());
        }
    }

    /// Same differential property through the INT4 table.
    #[test]
    fn simd_dot_packed_bit_identical_int4(wcodes in proptest::collection::vec(0u8..16, 1..300),
                                          xseed in proptest::collection::vec(-128i64..=127, 300)) {
        let xcodes: Vec<i8> = xseed[..wcodes.len()].iter().map(|&v| v as i8).collect();
        let packed = pack_nibbles(&wcodes);
        let lut = kernel_lut(&int4_decode_lut());
        let oracle = int4_group_mac(&xcodes, &wcodes);
        for d in tiers() {
            prop_assert_eq!(d.dot_packed(&xcodes, &packed, &lut), oracle, "tier {}", d.name());
        }
    }

    /// The SIMD grouped 4-row tile equals the scalar tile kernel run member
    /// by member, group by group, for any mix of coefficients and any tail
    /// parity: two byte-aligned groups a row, each through its own decode
    /// table, against one or two members with independent activation codes
    /// (the fused sweep's decode-shaped batches, one decode feeding both).
    #[test]
    fn simd_dot_packed_x4_bit_identical(coeffs in (0u32..128, 0u32..128, 0u32..128, 0u32..128),
                                        wcodes in proptest::collection::vec(0u8..16, 8..560),
                                        members in 1usize..=2,
                                        xseed in proptest::collection::vec(-128i64..=127, 2 * 140)) {
        let len = wcodes.len() / 8;
        let gb = len.div_ceil(2);
        let xcodes: Vec<Vec<i8>> = xseed
            .chunks_exact(140)
            .take(members)
            .map(|s| s[..2 * len].iter().map(|&v| v as i8).collect())
            .collect();
        let xs: Vec<&[i8]> = xcodes.iter().map(Vec::as_slice).collect();
        let packed: Vec<Vec<u8>> = wcodes
            .chunks_exact(2 * len)
            .take(4)
            .map(|row| row.chunks_exact(len).flat_map(pack_nibbles).collect())
            .collect();
        let luts: Vec<KernelLut> = [coeffs.0, coeffs.1, coeffs.2, coeffs.3]
            .iter()
            .map(|&a| mant_kernel_lut(a))
            .collect();
        let w = [&packed[0][..], &packed[1][..], &packed[2][..], &packed[3][..]];
        let row_luts: Vec<[&KernelLut; 2]> = (0..4).map(|r| [&luts[r], &luts[(r + 1) % 4]]).collect();
        let lr = [&row_luts[0][..], &row_luts[1][..], &row_luts[2][..], &row_luts[3][..]];
        let oracle: Vec<[i64; 4]> = xs
            .iter()
            .flat_map(|x| (0..2).map(move |g| dot_packed_x4(
                &x[g * len..(g + 1) * len],
                w.map(|r| &r[g * gb..(g + 1) * gb]),
                lr.map(|l| &l[g].pair),
            )))
            .collect();
        for d in tiers() {
            let mut got = vec![[0i64; 4]; members * 2];
            d.dot_packed_x4_groups(&xs, w, len, lr, &mut got);
            prop_assert_eq!(&got, &oracle, "tier {} members {}", d.name(), members);
        }
    }

    /// The eight-row tile sweep — decode, interleave, lane-per-row dots,
    /// fused f64 epilogue — equals on every tier, bit for bit, the
    /// per-member oracle: scalar `dot_packed` per (member, row, group),
    /// then the GEMV's `acc += xs · ws · int as f64` in ascending groups.
    /// Group sizes on both arms of the AVX2 guard (33 is odd: scalar
    /// arm), 1..=19 members so every remainder block 1..=8 runs beside
    /// full blocks, per-row per-group decode tables (128 selects INT4),
    /// and group 0 pinned at the extremes in every row and member
    /// (x = −128 against −1017). Scales use the full f64 mantissa, so a
    /// reassociated epilogue rounds differently and fails.
    #[test]
    fn simd_tile8_bit_identical_to_per_member_dot_packed(
        shape in (0usize..6, 0usize..8, 1usize..=19),
        coeffs in proptest::collection::vec(0u32..129, TILE_ROWS * 8),
        wseed in proptest::collection::vec(0u8..16, TILE_ROWS * 512),
        xseed in proptest::collection::vec(-128i64..=127, 19 * 512),
        scales in proptest::collection::vec(-4.0f64..4.0, (19 + TILE_ROWS) * 8),
    ) {
        let gs = [2usize, 32, 64, 96, 128, 33][shape.0];
        let groups = 1 + shape.1 % (512 / gs).min(8);
        let (m, k, gb) = (shape.2, groups * gs, gs.div_ceil(2));
        let lut_of = |r: usize, g: usize| match coeffs[r * 8 + g] {
            _ if g == 0 => mant_kernel_lut(127),
            128 => kernel_lut(&int4_decode_lut()),
            a => mant_kernel_lut(a),
        };
        let luts: Vec<Vec<KernelLut>> = (0..TILE_ROWS)
            .map(|r| (0..groups).map(|g| lut_of(r, g)).collect())
            .collect();
        let packed: Vec<Vec<u8>> = (0..TILE_ROWS)
            .map(|r| {
                let mut codes = wseed[r * k..(r + 1) * k].to_vec();
                codes[..gs].fill(0xf);
                codes.chunks(gs).flat_map(pack_nibbles).collect()
            })
            .collect();
        let mut x8: Vec<i8> = xseed[..m * k].iter().map(|&v| v as i8).collect();
        x8.chunks_mut(k).for_each(|x| x[..gs].fill(-128));
        let x16: Vec<i16> = x8.iter().map(|&x| i16::from(x)).collect();
        let xscales = &scales[..m * groups];
        let wscales: Vec<[f64; TILE_ROWS]> = scales[19 * 8..]
            .chunks_exact(TILE_ROWS)
            .take(groups)
            .map(|c| std::array::from_fn(|r| c[r]))
            .collect();

        let mut oracle = vec![[0.0f64; TILE_ROWS]; m];
        for (j, acc) in oracle.iter_mut().enumerate() {
            for g in 0..groups {
                let x = &x8[j * k + g * gs..j * k + (g + 1) * gs];
                for r in 0..TILE_ROWS {
                    let int = dot_packed(x, &packed[r][g * gb..(g + 1) * gb], &luts[r][g].pair);
                    acc[r] += xscales[j * groups + g] * wscales[g][r] * int as f64;
                }
            }
        }
        let oracle: Vec<u64> = oracle.iter().flatten().map(|v| v.to_bits()).collect();
        for d in tiers() {
            let mut dec = vec![0i16; TILE_ROWS * k];
            for r in 0..TILE_ROWS {
                for g in 0..groups {
                    let out = &mut dec[r * k + g * gs..r * k + (g + 1) * gs];
                    d.decode_packed_i16(&packed[r][g * gb..(g + 1) * gb], gs, &luts[r][g], out);
                }
            }
            let mut tile = vec![0i16; tile8_len(k)];
            d.interleave_tile8(&dec, k, &mut tile);
            let mut got = vec![[0.0f64; TILE_ROWS]; m];
            d.dot_tile8_scaled(&tile, &wscales, gs, &x16, xscales, &mut got);
            let got: Vec<u64> = got.iter().flatten().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &oracle, "tier {} gs {} groups {} m {}", d.name(), gs, groups, m);
        }
    }

    /// The decode-attention sweep equals, on every tier, per-row
    /// `dot_packed` followed by the scalar epilogue. Rows are a window of
    /// `groups` groups inside wider strided rows (a K row holds every KV
    /// head), row counts straddle the eight-lane block, one to three
    /// members share the rows (GQA), and group 0 is pinned at the extremes
    /// (x = −128 against −1017) under full-mantissa f64 scales, so a
    /// reassociated or FMA-fused epilogue fails. The accumulators start at
    /// `+0.0` (a K score), at `-0.0` (a V term, which must come out as the
    /// term itself, `-0.0` included) or at arbitrary values.
    #[test]
    fn simd_packed_rows_bit_identical_to_per_row_dot_packed(
        shape in (0usize..10, 1usize..=3, 0usize..=20, 1usize..=3),
        layout in (0usize..=2, 0usize..=2, 0usize..3, 0usize..2),
        coeffs in proptest::collection::vec(0u32..129, 20 * 3),
        wseed in proptest::collection::vec(0u8..16, 20 * 7 * 128),
        xseed in proptest::collection::vec(-128i64..=127, 3 * 3 * 128),
        scales in proptest::collection::vec(-4.0f64..4.0, 20 * 3 + 3 * 3),
        init in proptest::collection::vec(-4.0f64..4.0, 3 * 20),
    ) {
        let gs = [2usize, 4, 8, 16, 32, 48, 64, 96, 128, 33][shape.0];
        let (groups, n, m) = (shape.1, shape.2, shape.3);
        let (before, after, start, zero_member) = (layout.0, layout.1, layout.2, layout.3 == 1);
        let (k, gb) = (groups * gs, gs.div_ceil(2));
        let stride = (before + groups + after) * gb;
        let lut_of = |r: usize, g: usize| match coeffs[r * 3 + g] {
            _ if g == 0 => mant_kernel_lut(127),
            128 => kernel_lut(&int4_decode_lut()),
            a => mant_kernel_lut(a),
        };
        let tables: Vec<KernelLut> =
            (0..n * groups).map(|i| lut_of(i / groups, i % groups)).collect();
        let luts: Vec<&KernelLut> = tables.iter().collect();
        let rows: Vec<u8> = (0..n)
            .flat_map(|r| {
                let seed = &wseed[r * 7 * 128..];
                let mut row: Vec<u8> = (0..before + groups + after)
                    .flat_map(|g| pack_nibbles(&seed[g * gs..(g + 1) * gs]))
                    .collect();
                row[before * gb..(before + 1) * gb].copy_from_slice(&pack_nibbles(&vec![0xf; gs]));
                row
            })
            .collect();
        let mut x: Vec<i8> = xseed[..m * k].iter().map(|&v| v as i8).collect();
        x.chunks_mut(k).for_each(|x| x[..gs].fill(-128));
        if zero_member {
            x[..k].fill(0);
        }
        let wscales = &scales[..n * groups];
        let xscales = &scales[60..60 + m * groups];
        let start_at = |i: usize| [0.0, -0.0, init[i]][start];

        let mut oracle: Vec<f64> = (0..m * n).map(start_at).collect();
        for j in 0..m {
            for r in 0..n {
                let row = &rows[r * stride + before * gb..];
                for g in 0..groups {
                    let int = dot_packed(
                        &x[j * k + g * gs..j * k + (g + 1) * gs],
                        &row[g * gb..(g + 1) * gb],
                        &tables[r * groups + g].pair,
                    );
                    let term = xscales[j * groups + g] * wscales[r * groups + g] * int as f64;
                    if groups == 1 && start == 1 {
                        prop_assert_eq!((-0.0 + term).to_bits(), term.to_bits());
                    }
                    oracle[j * n + r] += term;
                }
            }
        }
        let oracle: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
        for d in tiers() {
            let mut got: Vec<f64> = (0..m * n).map(start_at).collect();
            d.dot_packed_rows_scaled(
                &rows[(before * gb).min(rows.len())..],
                stride,
                gs,
                groups,
                &luts,
                wscales,
                &x,
                xscales,
                &mut got,
            );
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                &got, &oracle,
                "tier {} gs {} groups {} n {} m {} start {}", d.name(), gs, groups, n, m, start
            );
        }
    }

    /// Worst-case magnitudes at the `MAX_I32_GROUP` bound: every tier's
    /// partial-sum arrangement stays exact (no lane overflow) right up to
    /// the admissible cap.
    #[test]
    fn simd_dot_packed_exact_at_extremes(len in 1usize..600) {
        let len = if len > 550 { MAX_I32_GROUP } else { len };
        let lut = mant_kernel_lut(127);
        let xcodes = vec![-128i8; len];
        let packed = pack_nibbles(&vec![0xfu8; len]);
        let expect = len as i64 * 128 * (127 * 7 + 128);
        for d in tiers() {
            prop_assert_eq!(d.dot_packed(&xcodes, &packed, &lut), expect, "tier {}", d.name());
        }
    }

    /// `abs_max` through every tier matches the scalar NaN-skipping fold
    /// bit for bit, NaN positions included.
    #[test]
    fn simd_abs_max_bit_identical(mut xs in proptest::collection::vec(-1e30f32..1e30, 0..120),
                                  nan_at in 0usize..120) {
        if nan_at < xs.len() {
            xs[nan_at] = f32::NAN;
        }
        let oracle = scalar_abs_max(&xs);
        for d in tiers() {
            prop_assert_eq!(d.abs_max(&xs).to_bits(), oracle.to_bits(), "tier {}", d.name());
        }
    }

    /// INT8 quantization through every tier is bit-identical to the
    /// scalar round-half-away / clamp / NaN→0 loop — including inputs at
    /// rounding boundaries, saturation, and non-finite values.
    #[test]
    fn simd_quantize_i8_bit_identical(mut xs in proptest::collection::vec(-300.0f32..300.0, 0..120),
                                      scale in 0.001f32..10.0,
                                      special_at in 0usize..120,
                                      special in 0usize..4) {
        if special_at < xs.len() {
            xs[special_at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 63.5 * 0.125][special];
        }
        let mut oracle = vec![0i8; xs.len()];
        scalar_quantize_i8(&xs, scale, &mut oracle);
        for d in tiers() {
            let mut got = vec![0i8; xs.len()];
            d.quantize_i8(&xs, scale, &mut got);
            prop_assert_eq!(&got, &oracle, "tier {}", d.name());
        }
    }

    /// The per-element-scale variant (a V row across its channels) equals
    /// the scalar loop lane for lane — zero scales (floored at
    /// `MIN_POSITIVE`), rounding boundaries and non-finite values included.
    #[test]
    fn simd_quantize_i8_lanes_bit_identical(mut xs in proptest::collection::vec(-300.0f32..300.0, 0..120),
                                            mut scales in proptest::collection::vec(0.001f32..10.0, 120),
                                            special_at in 0usize..120,
                                            special in 0usize..5,
                                            zero_scale_at in 0usize..120) {
        if special_at < xs.len() {
            xs[special_at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 63.5 * 0.125, 0.0][special];
            scales[special_at] = 0.125;
        }
        scales[zero_scale_at] = 0.0;
        let scales = &scales[..xs.len()];
        let oracle: Vec<i8> = xs
            .iter()
            .zip(scales)
            .map(|(&x, &s)| quantize_symmetric_int(x / s.max(f32::MIN_POSITIVE), 127) as i8)
            .collect();
        for d in tiers() {
            let mut got = vec![0i8; xs.len()];
            d.quantize_i8_lanes(&xs, scales, &mut got);
            prop_assert_eq!(&got, &oracle, "tier {}", d.name());
        }
    }
}

/// The candidate types the group-encode kernel is tested under: the
/// paper's fifteen coefficients, the largest legal one, and INT4 (`None`).
const ENCODE_TYPES: [Option<u32>; 17] = [
    Some(0),
    Some(5),
    Some(10),
    Some(17),
    Some(20),
    Some(30),
    Some(40),
    Some(50),
    Some(60),
    Some(70),
    Some(80),
    Some(90),
    Some(100),
    Some(110),
    Some(120),
    Some(127),
    None,
];

/// Group sizes: odd ones carry a pad nibble, 1 and 5 never fill a vector,
/// 15 is one vector plus a tail the scalar arm continues.
const ENCODE_SIZES: [usize; 7] = [1, 5, 8, 15, 64, 96, 128];

fn encode_table(ty: Option<u32>) -> EncodeTable {
    ty.map_or(EncodeTable::Int4, |a| Mant::new(a).unwrap().into())
}

/// The per-element oracle of the group-encode kernel — what
/// `GroupDtype::encode` / `quantize_value` compute: the 4-bit code of
/// `x / scale` and the value it decodes to.
fn oracle_encode(ty: Option<u32>, x: f32, scale: f32) -> (u8, f32) {
    let v = x / scale;
    match ty {
        Some(a) => {
            let m = Mant::new(a).unwrap();
            let code = m.encode(v);
            (code.to_bits(), m.decode(code) as f32 * scale)
        }
        None => {
            let q = quantize_symmetric_int(v, 7);
            ((q as i8 as u8) & 0x0f, q as f32 * scale)
        }
    }
}

/// Both kernel entries on every tier against the per-element oracle:
/// errors as f64 bits (all of `types` in one sweep), codes as bytes.
fn assert_encode_kernel_matches_oracle(
    types: &[Option<u32>],
    scales: &[f32],
    group: &[f32],
    weights: Option<&[f32]>,
) {
    let tables: Vec<EncodeTable> = types.iter().map(|&ty| encode_table(ty)).collect();
    let mut want_errs = Vec::new();
    let mut want_codes = Vec::new();
    for (&ty, &scale) in types.iter().zip(scales) {
        let mut acc = 0.0f64;
        let mut codes = Vec::new();
        for (j, &x) in group.iter().enumerate() {
            let (code, q) = oracle_encode(ty, x, scale);
            let e = f64::from(x - q);
            acc += e * e * weights.map_or(1.0, |w| f64::from(w[j]));
            codes.push(code);
        }
        want_errs.push(acc.to_bits());
        want_codes.push(pack_nibbles(&codes));
    }
    for d in tiers() {
        let mut sums = vec![f64::NAN; types.len()];
        d.encode_errors(&tables, scales, group, weights, &mut sums);
        let got: Vec<u64> = sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, want_errs, "errors, tier {} group {group:?}", d.name());
        for (c, table) in tables.iter().enumerate() {
            let mut packed = vec![0xffu8; group.len().div_ceil(2)];
            d.encode_packed(table, scales[c], group, &mut packed);
            assert_eq!(
                packed,
                want_codes[c],
                "codes, tier {} type {:?} scale {} group {group:?}",
                d.name(),
                types[c],
                scales[c]
            );
        }
    }
}

/// One ulp below, the value, one ulp above (by magnitude; around zero,
/// the smallest subnormal of either sign).
fn ulp_neighbours(x: f32) -> [f32; 3] {
    if x == 0.0 {
        return [-f32::from_bits(1), x, f32::from_bits(1)];
    }
    [
        f32::from_bits(x.to_bits() - 1),
        x,
        f32::from_bits(x.to_bits() + 1),
    ]
}

proptest! {
    /// Random groups with special lanes planted — ±0, ±∞, NaN, a subnormal
    /// — under all seventeen types in one sweep, with and without ω, at
    /// ordinary scales and at the smallest one `scale_for` can return.
    #[test]
    fn encode_kernel_bit_identical_to_per_element_oracle(
        size in 0usize..ENCODE_SIZES.len(),
        mut group in proptest::collection::vec(-40.0f32..40.0, 128),
        omega in proptest::collection::vec(0.01f32..30.0, 128),
        weighted in 0u8..2,
        scales in proptest::collection::vec(0.001f32..3.0, ENCODE_TYPES.len()),
        tiny_scale_at in 0usize..2 * ENCODE_TYPES.len(),
        specials in proptest::collection::vec((0usize..128, 0usize..8), 0..6),
    ) {
        let n = ENCODE_SIZES[size];
        const SPECIAL: [f32; 8] = [
            0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e30, 1e30,
        ];
        for (at, which) in specials {
            group[at] = SPECIAL[which];
        }
        let mut scales = scales;
        if let Some(s) = scales.get_mut(tiny_scale_at) {
            *s = f32::MIN_POSITIVE;
        }
        let weights = (weighted == 1).then_some(&omega[..n]);
        assert_encode_kernel_matches_oracle(&ENCODE_TYPES, &scales, &group[..n], weights);
    }
}

/// Every midpoint between adjacent levels and one ulp either side, both
/// signs, at power-of-two scales (so `x / scale` *is* the planted value):
/// the tie must fall to the lower level on every tier, its neighbours to
/// their own side.
#[test]
fn encode_kernel_ties_fall_where_the_scalar_scan_puts_them() {
    for ty in ENCODE_TYPES {
        let mut planted = vec![0.0f32, -0.0];
        match ty {
            Some(a) => {
                let levels = Mant::new(a).unwrap().levels_f32();
                planted.extend(levels.iter().flat_map(|&l| ulp_neighbours(l)));
                for pair in levels.windows(2) {
                    planted.extend(ulp_neighbours((pair[0] + pair[1]) / 2.0));
                }
            }
            None => {
                for half in -18..=18 {
                    planted.extend(ulp_neighbours(half as f32 / 2.0));
                }
            }
        }
        let signed: Vec<f32> = planted.iter().flat_map(|&v| [v, -v]).collect();
        for scale in [1.0f32, 0.125, 4.0] {
            let group: Vec<f32> = signed.iter().map(|&v| v * scale).collect();
            for &n in &ENCODE_SIZES {
                for chunk in group.chunks(n) {
                    assert_encode_kernel_matches_oracle(&[ty], &[scale], chunk, None);
                }
            }
        }
    }
}

/// An all-zero group costs nothing and encodes to the zero code under
/// every type (MANT's magnitude-0 code, INT4's 0), pad nibble included.
#[test]
fn encode_kernel_all_zero_group() {
    for &n in &ENCODE_SIZES {
        let scales = [1.0f32; ENCODE_TYPES.len()];
        assert_encode_kernel_matches_oracle(&ENCODE_TYPES, &scales, &vec![0.0; n], None);
    }
    // Candidate counts around the four-candidate quad of the vector arm.
    let group: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect();
    for count in [0usize, 1, 2, 3, 5] {
        assert_encode_kernel_matches_oracle(
            &ENCODE_TYPES[17 - count..],
            &vec![0.11; count],
            &group,
            None,
        );
    }
}

/// INT4 rounding through the kernel equals `quantize_symmetric_int(v, 7)`
/// on `count` consecutive bit patterns from `first`, on every tier.
fn assert_int4_rounding_matches(first: u32, count: u32) {
    let xs: Vec<f32> = (0..count)
        .map(|i| f32::from_bits(first.wrapping_add(i)))
        .collect();
    let want: Vec<u8> = xs
        .iter()
        .map(|&x| (quantize_symmetric_int(x, 7) as i8 as u8) & 0x0f)
        .collect();
    let want = pack_nibbles(&want);
    for d in tiers() {
        let mut got = vec![0u8; want.len()];
        d.encode_packed(&EncodeTable::Int4, 1.0, &xs, &mut got);
        assert!(got == want, "tier {} from {first:#010x}", d.name());
    }
}

#[test]
fn int4_rounding_identity_around_every_half_integer() {
    for half in -18i32..=18 {
        for x in ulp_neighbours(half as f32 / 2.0) {
            // 64 patterns around each, so vector and tail lanes both see it.
            assert_int4_rounding_matches(x.to_bits().wrapping_sub(32), 64);
        }
    }
}

/// The rounding identity on all 2³² bit patterns (about a minute in a
/// release build).
#[test]
#[ignore = "exhaustive: run with --release -- --ignored"]
fn int4_rounding_identity_on_every_bit_pattern() {
    const CHUNK: u32 = 1 << 20;
    for chunk in 0..(1u64 << 32) / u64::from(CHUNK) {
        assert_int4_rounding_matches(chunk as u32 * CHUNK, CHUNK);
    }
}

proptest! {
    /// Softmax output is a probability vector whatever the input.
    #[test]
    fn softmax_probability(mut x in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        kernels().softmax(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(x.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Softmax is shift-invariant.
    #[test]
    fn softmax_shift_invariant(x in proptest::collection::vec(-10.0f32..10.0, 2..16), shift in -50.0f32..50.0) {
        let mut a = x.clone();
        kernels().softmax(&mut a);
        let mut b: Vec<f32> = x.iter().map(|&v| v + shift).collect();
        kernels().softmax(&mut b);
        for (p, q) in a.iter().zip(b.iter()) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }
}

/// Every tier's softmax of `scores` has the scalar arm's bits — NaN
/// payloads included.
fn assert_softmax_tiers_agree(scores: &[f32], what: &str) {
    let mut want = scores.to_vec();
    mant_numerics::kernels::softmax(&mut want);
    for d in tiers() {
        let mut got = scores.to_vec();
        d.softmax(&mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(&got) == bits(&want),
            "tier {} len {} {what}: {got:?} vs {want:?}",
            d.name(),
            scores.len()
        );
    }
}

/// Lengths on both sides of every chunk boundary up to 70, then rows as
/// long as a serving context; scores spread over ±200 around the maximum so
/// both sides of the `-87` floor are hit, with the exact floor, the sliver
/// `[-87.34, -87)` whose true exponential is still a normal number, `-∞`,
/// `+∞`, NaN, tied maxima (signed zeros too) and a maximum in the scalar
/// tail planted in turn.
#[test]
fn softmax_bit_identical_across_tiers() {
    let mut rng = proptest::test_runner::TestRng::from_name("softmax_bit_identical_across_tiers");
    let lens = (0usize..=70).chain([255, 256, 257, 1023]);
    for len in lens {
        let base: Vec<f32> = (0..len)
            .map(|_| (rng.unit_f64() * 400.0 - 200.0) as f32)
            .collect();
        assert_softmax_tiers_agree(&base, "plain");
        assert_softmax_tiers_agree(&vec![f32::NEG_INFINITY; len], "all -inf");
        assert_softmax_tiers_agree(&vec![f32::NAN; len], "all NaN");
        if len == 0 {
            continue;
        }
        let at = |k: u64| (k % len as u64) as usize;
        let planted = |what: &str, plant: &dyn Fn(&mut Vec<f32>)| {
            let mut x = base.clone();
            plant(&mut x);
            assert_softmax_tiers_agree(&x, what);
        };
        // The maximum is 13 exactly, so `x - max` is the planted distance.
        let (a, b, c) = (at(rng.next_u64()), at(rng.next_u64()), at(rng.next_u64()));
        planted("floor", &|x| {
            x.iter_mut().for_each(|v| *v = v.min(12.0));
            x[a] = 13.0;
            for (k, d) in [
                -87.0f32, -87.000_01, -87.1, -87.2, -87.3, -87.34, -86.999_99,
            ]
            .into_iter()
            .enumerate()
            {
                let i = (b + k) % x.len();
                if i != a {
                    x[i] = 13.0 + d;
                }
            }
        });
        planted("max in tail", &|x| *x.last_mut().unwrap() = 250.0);
        planted("-inf", &|x| {
            x[a] = f32::NEG_INFINITY;
            x[b] = f32::NEG_INFINITY;
        });
        planted("+inf", &|x| x[a] = f32::INFINITY);
        planted("NaN", &|x| {
            x[a] = f32::NAN;
            x[b] = f32::from_bits(0xffc5_4321);
            x[c] = f32::from_bits(0x7f81_0000);
        });
        planted("tied maxima", &|x| {
            x[a] = 201.0;
            x[b] = 201.0;
            x[c] = 201.0;
        });
        planted("tied zeros", &|x| {
            x.iter_mut().for_each(|v| *v = -v.abs());
            x[a] = 0.0;
            x[b] = -0.0;
            x[c] = 0.0;
        });
    }
}

/// `exp_nonpositive` on `count` consecutive bit patterns from `first`
/// (ascending patterns are descending values): within one ulp of the f64
/// `exp`, and never larger than at the pattern before.
fn assert_exp_accurate_and_monotone(first: u32, count: u32) -> f64 {
    let mut above = f32::INFINITY;
    let mut worst = 0.0f64;
    for bits in first..first + count {
        let d = f32::from_bits(bits);
        let e = exp_nonpositive(d);
        assert!(
            e <= above,
            "exp({d:e}) = {e:e} above its upper neighbour's {above:e}"
        );
        above = e;
        let exact = f64::from(d).exp();
        let nearest = exact as f32;
        let ulp = f64::from(f32::from_bits(nearest.to_bits() + 1)) - f64::from(nearest);
        let err = (f64::from(e) - exact).abs() / ulp;
        assert!(
            err <= 1.0,
            "exp({d:e}) = {e:e} is {err:.3} ulp from {exact:e}"
        );
        assert!(
            e >= f32::MIN_POSITIVE,
            "exp({d:e}) = {e:e} is not a normal number"
        );
        worst = worst.max(err);
    }
    worst
}

/// Bit patterns of `-0.0 ..= EXP_FLOOR`, in ascending pattern order.
fn exp_domain() -> (u32, u32) {
    ((-0.0f32).to_bits(), EXP_FLOOR.to_bits())
}

/// Windows of consecutive floats spread over the whole domain, at both of
/// its ends, and across every point where the range reduction steps to the
/// next power of two.
#[test]
fn exp_within_one_ulp_and_monotone() {
    const WINDOW: u32 = 2048;
    let (lo, hi) = exp_domain();
    for k in 0..256 {
        assert_exp_accurate_and_monotone(lo + (hi - lo - WINDOW) / 255 * k, WINDOW);
    }
    assert_exp_accurate_and_monotone(hi - WINDOW + 1, WINDOW);
    for n in 0..126 {
        let step = -(n as f32 + 0.5) * std::f32::consts::LN_2;
        assert_exp_accurate_and_monotone(step.to_bits() - WINDOW / 2, WINDOW);
    }
    assert_eq!(exp_nonpositive(0.0), 1.0);
    assert_eq!(exp_nonpositive(f32::from_bits(hi + 1)).to_bits(), 0);
}

/// The same on every f32 of the domain — 1.1 billion of them, about a
/// minute in a release build.
#[test]
#[ignore = "exhaustive: run with --release -- --ignored"]
fn exp_within_one_ulp_and_monotone_on_every_f32() {
    let (lo, hi) = exp_domain();
    let worst = assert_exp_accurate_and_monotone(lo, hi - lo + 1);
    println!("{} floats, worst error {worst:.4} ulp", hi - lo + 1);
}

/// The staged `P·V` kernel against the plain per-channel loop it is
/// defined by, on every tier, bit for bit: every row count up to a 64-row
/// window (odd counts pair their last row with nothing), channel ranges
/// that start and end off the sixteen-channel step, zero and NaN channel
/// scales, accumulators that do not start at zero — and all-extreme codes,
/// where each `i32` lane reaches `64 · 127 · 127`.
#[test]
fn staged_pv_sums_equal_the_scalar_loop() {
    let mut rng = proptest::test_runner::TestRng::from_name("staged_pv_sums_equal_the_scalar_loop");
    let dim = 83usize;
    let mut code = move || (rng.below(255) as i32 - 127) as i8;
    for rows in 0..=64usize {
        for extreme in [false, true] {
            let (pcodes, window): (Vec<i8>, Vec<i8>) = if extreme {
                let sign = |i: usize| if i.is_multiple_of(3) { -127i8 } else { 127 };
                (
                    (0..rows).map(sign).collect(),
                    (0..rows * dim).map(|i| sign(i / dim)).collect(),
                )
            } else {
                (
                    (0..rows).map(|_| code()).collect(),
                    (0..rows * dim).map(|_| code()).collect(),
                )
            };
            let scales: Vec<f32> = (0..dim)
                .map(|c| match c % 11 {
                    3 => 0.0,
                    7 => f32::NAN,
                    _ => 0.003 * (1 + c) as f32,
                })
                .collect();
            let pscale = 0.007_87f32;
            for (chan_lo, width) in [
                (0, dim),
                (0, 16),
                (5, 32),
                (3, 37),
                (70, 13),
                (9, 0),
                (1, 64),
            ] {
                let mut want = vec![0.25f32; width];
                for (j, o) in want.iter_mut().enumerate() {
                    let c = chan_lo + j;
                    let int: i32 = (0..rows)
                        .map(|t| i32::from(pcodes[t]) * i32::from(window[t * dim + c]))
                        .sum();
                    if extreme {
                        assert_eq!(int, rows as i32 * 127 * 127);
                    }
                    let scale = f64::from(scales[c].max(f32::MIN_POSITIVE));
                    *o += (f64::from(pscale) * scale * f64::from(int)) as f32;
                }
                for d in tiers() {
                    let mut got = vec![0.25f32; width];
                    d.staged_pv(
                        &pcodes,
                        window.get(chan_lo..).unwrap_or(&[]),
                        dim,
                        pscale,
                        &scales[chan_lo..chan_lo + width],
                        &mut got,
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert!(
                        bits(&got) == bits(&want),
                        "tier {} rows {rows} channels {chan_lo}+{width} extreme {extreme}",
                        d.name()
                    );
                }
            }
        }
    }
}

/// splitmix64: the deterministic value source of the f32 tile test.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value of mixed sign and magnitude (2⁻⁸..2⁸); one in 32 is taken from
/// `specials` instead.
fn mixed_value(seed: u64, specials: &[f32]) -> f32 {
    let h = mix(seed);
    if h.is_multiple_of(32) {
        return specials[(h >> 8) as usize % specials.len()];
    }
    let m = ((h >> 16) % (1 << 20)) as f32 / (1 << 20) as f32 * 2.0 - 1.0;
    m * 2f32.powi(((h >> 40) % 17) as i32 - 8)
}

/// Output bits with every NaN made one value: Rust leaves NaN payloads
/// unspecified, so which NaN an operation returns is not part of the
/// contract — that it returns one is.
fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// The LM head's lanes-as-rows f32 kernel equals `mant_tensor::matvec_batch`
/// bit for bit on every tier: row counts on both sides of the eight-row
/// tile and the four-tile block (1, 7, 8, 9, 512), column counts 1, 5, 256,
/// 1..=9 members. Member 0 is all `+0.0` and member 1 all `-0.0`, so an
/// output is a signed zero whose sign shows the chain's starting value;
/// weights carry signed zeros, `±∞` and NaN in some rows and ±1e-30
/// entries whose products with the members' ±1e-12 entries are subnormal;
/// members 4 and 6 carry an `∞` and a NaN. Two witness rows then pin the
/// chain itself, against fixed values: a reassociated chain or one fused
/// into an FMA fails them.
#[test]
fn tiled_f32_matvec_bit_identical_to_matvec_batch() {
    use mant_numerics::TiledF32;
    use mant_tensor::{matvec_batch, Matrix};

    let wspecial = [-0.0, 0.0, 1e-30, -1e-30];
    let xspecial = [-0.0, 0.0, 1e-12, -1e-12];
    for rows in [1usize, 7, 8, 9, 512] {
        for cols in [1usize, 5, 256] {
            let w = Matrix::from_fn(rows, cols, |r, c| match (r % 7, r % 11) {
                (3, _) if c == r % cols => f32::INFINITY,
                (5, _) if c == (r + 1) % cols => f32::NAN,
                (_, 4) if c == (r + 2) % cols => f32::NEG_INFINITY,
                _ => mixed_value((r * cols + c) as u64, &wspecial),
            });
            let xs: Vec<Vec<f32>> = (0..9)
                .map(|j| match j {
                    0 => vec![0.0; cols],
                    1 => vec![-0.0; cols],
                    _ => (0..cols)
                        .map(|c| match (j, c) {
                            (4, 0) => f32::INFINITY,
                            (6, c) if c == cols / 2 => f32::NAN,
                            _ => mixed_value(((j << 32) + c) as u64 ^ 0xa5a5, &xspecial),
                        })
                        .collect(),
                })
                .collect();
            let tiled = TiledF32::from_row_major(w.as_slice(), rows, cols);
            for m in 1..=9 {
                let refs: Vec<&[f32]> = xs[..m].iter().map(Vec::as_slice).collect();
                let want = matvec_batch(&w, &refs);
                for d in tiers() {
                    let got = d.matvec_tiled_f32(&tiled, &refs);
                    assert_eq!(got.len(), m);
                    for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            f32_bits(g),
                            f32_bits(w),
                            "tier {} rows {rows} cols {cols} members {m} member {j}",
                            d.name()
                        );
                    }
                }
            }
        }
    }

    // Chain witnesses against x = [1, 1 + 2⁻¹², 1, 1, 1]. Row 0 in order:
    // 1 + 0, then three `+ 2⁻²⁴` ties that each round back to 1. Any
    // regrouping adds two of them first and ends above 1. Row 1: the
    // product (1 + 2⁻¹²)² rounds to 1 + 2⁻¹¹, cancelling the first term
    // to `+0.0`; an FMA keeps its exact 2⁻²⁴.
    let tiny = 2f32.powi(-24);
    let w = Matrix::from_vec(
        2,
        5,
        vec![
            1.0,
            0.0,
            tiny,
            tiny,
            tiny, //
            -(1.0 + 2f32.powi(-11)),
            1.0 + 2f32.powi(-12),
            0.0,
            0.0,
            0.0,
        ],
    );
    let x = [1.0, 1.0 + 2f32.powi(-12), 1.0, 1.0, 1.0];
    let want = [1.0f32, 0.0];
    assert_eq!(f32_bits(&matvec_batch(&w, &[&x])[0]), f32_bits(&want));
    let tiled = TiledF32::from_row_major(w.as_slice(), 2, 5);
    for d in tiers() {
        let got = d.matvec_tiled_f32(&tiled, &[&x]);
        assert_eq!(f32_bits(&got[0]), f32_bits(&want), "tier {}", d.name());
    }
}
