//! Dense `u64` bitset helpers for the struct-of-arrays cache layouts
//! (see DESIGN.md §15).
//!
//! Both [`crate::llc::SlicedLlc`] and [`crate::cache::PrivateCache`] keep
//! their valid/dirty flags packed 64 lines to a word so the tag-match and
//! victim scans stay branch-light: a set's occupancy is a single
//! [`range_mask`] extraction, and way iteration walks set bits with
//! `trailing_zeros` instead of testing a `bool` per way.
//!
//! Checkpoints save those planes as they are; [`load_plane`] and
//! [`load_bit_plane`] read them back, refusing a plane whose shape does
//! not match the geometry it is loaded into.

use drishti_noc::snap::{Persist, SnapError, StateReader};

/// Whether bit `i` is set.
#[inline]
pub fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 != 0
}

/// Set bit `i`.
#[inline]
pub fn bit_set(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

/// Set bit `i` to `v`.
#[inline]
pub fn bit_assign(bits: &mut [u64], i: usize, v: bool) {
    let word = &mut bits[i >> 6];
    let mask = 1u64 << (i & 63);
    if v {
        *word |= mask;
    } else {
        *word &= !mask;
    }
}

/// The `len` bits (`len <= 64`) of `bits` starting at bit `start`, as the
/// low bits of one word.
#[inline]
pub fn range_mask(bits: &[u64], start: usize, len: usize) -> u64 {
    debug_assert!(len <= 64);
    let w = start >> 6;
    let off = start & 63;
    let mut m = bits[w] >> off;
    if off + len > 64 {
        m |= bits[w + 1] << (64 - off);
    }
    if len < 64 {
        m &= (1u64 << len) - 1;
    }
    m
}

/// Load a plane saved as a `Vec<T>` into `plane`, whose length the
/// geometry fixed. A snapshot plane of any other length is refused as
/// [`SnapError::Invalid`] naming `what`, before anything is overwritten.
pub fn load_plane<T: Persist>(
    plane: &mut [T],
    r: &mut StateReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    let n = r.take_len(what)?;
    if n != plane.len() {
        return Err(SnapError::Invalid {
            what,
            detail: format!(
                "snapshot plane has {n} entries, this geometry has {}",
                plane.len()
            ),
        });
    }
    plane.iter_mut().try_for_each(|v| v.load(r))
}

/// [`load_plane`] for a bitset over `lines` lines, which also refuses bits
/// set past the last line: they name no line, yet would count as resident
/// or dirty.
pub fn load_bit_plane(
    plane: &mut [u64],
    lines: usize,
    r: &mut StateReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    load_plane(plane, r, what)?;
    let tail = lines % 64;
    if tail != 0 && plane.last().is_some_and(|w| w >> tail != 0) {
        return Err(SnapError::Invalid {
            what,
            detail: format!("bits set past line {lines}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_assign_round_trip() {
        let mut bits = vec![0u64; 2];
        assert!(!bit_get(&bits, 70));
        bit_set(&mut bits, 70);
        assert!(bit_get(&bits, 70));
        bit_assign(&mut bits, 70, false);
        assert!(!bit_get(&bits, 70));
        bit_assign(&mut bits, 3, true);
        assert!(bit_get(&bits, 3));
    }

    #[test]
    fn range_mask_within_one_word() {
        let bits = vec![0b1011_0100u64];
        assert_eq!(range_mask(&bits, 2, 4), 0b1101);
        assert_eq!(range_mask(&bits, 0, 8), 0b1011_0100);
    }

    #[test]
    fn range_mask_spans_word_boundary() {
        let mut bits = vec![0u64; 2];
        bit_set(&mut bits, 63);
        bit_set(&mut bits, 64);
        bit_set(&mut bits, 66);
        assert_eq!(range_mask(&bits, 62, 6), 0b010110);
    }

    #[test]
    fn plane_loaders_refuse_a_foreign_shape() {
        use drishti_noc::snap::StateWriter;
        let mut w = StateWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut two = [0u64; 2];
        let err = load_plane(&mut two, &mut StateReader::new(&bytes), "tags").unwrap_err();
        assert!(
            matches!(err, SnapError::Invalid { what: "tags", .. }),
            "{err}"
        );
        assert_eq!(two, [0, 0], "a refused plane overwrites nothing");
        let mut three = [0u64; 3];
        load_plane(&mut three, &mut StateReader::new(&bytes), "tags").unwrap();
        assert_eq!(three, [1, 2, 3]);

        // 70 lines: bits 70..127 of the two words name no line.
        for (words, ok) in [([u64::MAX, 0x3f], true), ([0, 0x40], false)] {
            let mut w = StateWriter::new();
            words.to_vec().save(&mut w);
            let bytes = w.into_bytes();
            let mut plane = [0u64; 2];
            let res = load_bit_plane(&mut plane, 70, &mut StateReader::new(&bytes), "valid");
            assert_eq!(res.is_ok(), ok, "{words:x?}: {res:?}");
        }
    }

    #[test]
    fn range_mask_full_word() {
        let bits = vec![u64::MAX, 0];
        assert_eq!(range_mask(&bits, 0, 64), u64::MAX);
        assert_eq!(range_mask(&bits, 32, 64), u64::MAX >> 32);
    }
}
