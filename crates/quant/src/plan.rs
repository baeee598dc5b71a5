//! Interned kernel decode tables: the decode plans of the packed kernels.
//!
//! A [`KernelLut`] carries a group dtype's decode tables in every shape
//! the kernel tiers consume — the 256-entry pair table
//! (`PairLut`, scalar tier and vector tails) plus the 16-entry
//! byte-shuffle tables the SIMD tiers feed to `pshufb`. It depends only
//! on the group's [`GroupDtype`] — and there are at most 129 of those
//! (128 MANT coefficients plus INT4) — so the tables are built **once per
//! process** and shared by every consumer: weight matrices cache one
//! `&'static` table per group in their decode plan, and the paged KV pool
//! files one per K group and V channel in its sweep index as the group is
//! written. Nothing ever rebuilds a table per token, per batch row, or
//! per sequence.

use std::sync::OnceLock;

use mant_numerics::{int4_decode_lut, kernel_lut, mant_decode_lut, KernelLut, Mant};

use crate::mantq::GroupDtype;

/// Index of a dtype in the interned store: MANT coefficients map to `a`
/// (0–127), INT4 to 128.
fn dtype_key(dtype: GroupDtype) -> usize {
    match dtype {
        GroupDtype::Mant(m) => m.coefficient() as usize,
        GroupDtype::Int4 => 128,
    }
}

fn tables() -> &'static [KernelLut] {
    static TABLES: OnceLock<Vec<KernelLut>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut all: Vec<KernelLut> = (0..128)
            .map(|a| kernel_lut(&mant_decode_lut(Mant::new(a).expect("a < 128"))))
            .collect();
        all.push(kernel_lut(&int4_decode_lut()));
        all
    })
}

/// The interned kernel decode tables of a group dtype. The first call
/// builds all 129 entries (~270 KiB, microseconds); every later call is
/// an index into static memory.
pub fn kernel_table(dtype: GroupDtype) -> &'static KernelLut {
    &tables()[dtype_key(dtype)]
}

/// [`kernel_table`] with the store's first-use check paid once: the
/// returned lookup is a plain index, for loops that resolve a K row's or a
/// V window's groups in one go as the pool writes them.
pub(crate) fn kernel_table_lookup() -> impl Fn(GroupDtype) -> &'static KernelLut {
    let tables = tables();
    move |dtype| &tables[dtype_key(dtype)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mant_numerics::MantCode;

    #[test]
    fn tables_decode_every_dtype_exactly() {
        for a in [0u32, 17, 60, 127] {
            let mant = Mant::new(a).unwrap();
            let t = &kernel_table(GroupDtype::Mant(mant)).pair;
            for b in 0..=255u8 {
                assert_eq!(t[b as usize][0], mant.decode(MantCode::from_bits(b & 0x0f)));
                assert_eq!(t[b as usize][1], mant.decode(MantCode::from_bits(b >> 4)));
            }
        }
        let t = &kernel_table(GroupDtype::Int4).pair;
        for b in 0..=255u8 {
            assert_eq!(t[b as usize][0], i32::from(((b << 4) as i8) >> 4));
            assert_eq!(t[b as usize][1], i32::from((b as i8) >> 4));
        }
    }

    #[test]
    fn shuffle_tables_agree_with_pair_tables() {
        // The SIMD tiers' byte-split operand tables must reassemble the
        // same decoded values the scalar pair table holds.
        for dtype in [GroupDtype::mant(17).unwrap(), GroupDtype::Int4] {
            let t = kernel_table(dtype);
            for b in 0..16usize {
                let v = i16::from_le_bytes([t.lo8[b], t.hi8[b]]);
                assert_eq!(i32::from(v), t.pair[b][0], "code {b}");
            }
        }
    }

    #[test]
    fn interning_returns_stable_references() {
        let a = kernel_table(GroupDtype::mant(17).unwrap());
        let b = kernel_table(GroupDtype::mant(17).unwrap());
        assert!(std::ptr::eq(a, b), "same dtype must intern to one table");
        let c = kernel_table(GroupDtype::Int4);
        assert!(!std::ptr::eq(a, c));
    }
}
