//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) over byte
//! slices — the integrity check every durable frame in the store carries.
//!
//! Hand-rolled slicing-by-8: the workspace vendors its few dependencies,
//! and a 60-line checksum does not justify one more. Eight bytes fold
//! into the running sum per step through eight lookup tables, instead of
//! one byte through one table.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// The lookup tables, computed at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][i]` is the sum of byte `i` followed
/// by `k` zero bytes, so one step can look up all eight bytes of a chunk
/// at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step loop: the reference the sliced one must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"TSExplain"), crc32(b"TSExplain"));
        // Longer than one chunk: "The quick brown fox…" under zlib's crc32.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn single_bit_flips_change_the_sum() {
        let base = crc32(b"hello, durable world");
        let mut bytes = b"hello, durable world".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "bit {i}");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length, any start offset into the buffer (so chunks begin
        /// off any alignment): the sliced sum equals the bytewise one.
        #[test]
        fn slicing_by_8_matches_the_bytewise_loop(
            bytes in proptest::collection::vec(0u8..=255, 0..4104),
            start in 0usize..8,
            len in 0usize..4096,
        ) {
            let from = start.min(bytes.len());
            let to = (from + len).min(bytes.len());
            let slice = &bytes[from..to];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }
    }
}
