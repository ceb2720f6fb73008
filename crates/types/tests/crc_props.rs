//! CRC-32/Koopman error-detection properties.
//!
//! The tail CRC must catch every single-bit flip and every burst error
//! of up to 32 bits anywhere in the live packet — header, payload, or
//! tail, including the CRC field itself (Koopman & Chakravarty's
//! polynomial guarantees bursts ≤ the polynomial degree). These tests
//! are exhaustive over positions, not sampled: every bit of a maximal
//! nine-FLIT packet is flipped, and every (start, length ≤ 32) burst
//! window is exercised with the all-ones pattern plus seeded random
//! patterns pinned at the window endpoints.

use proptest::prelude::*;

use hmc_types::crc::{crc32k, Crc32k, POLY_REFLECTED};
use hmc_types::{BlockSize, Command, Packet};

/// Bit-at-a-time CRC-32/Koopman straight from the definition: the
/// oracle the table-driven implementation is checked against.
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

/// The live wire image of a packet in CRC order: header word, live data
/// words, tail word, all little-endian.
fn wire_bytes(p: &Packet) -> Vec<u8> {
    let mut v = p.header.to_le_bytes().to_vec();
    for w in p.data_words() {
        v.extend_from_slice(&w.to_le_bytes());
    }
    v.extend_from_slice(&p.tail.to_le_bytes());
    v
}

/// Rebuild a packet from a (possibly corrupted) wire image, keeping the
/// original's length fields so the live span stays identical.
fn from_wire(orig: &Packet, bytes: &[u8]) -> Packet {
    let mut p = orig.clone();
    let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
    p.header = word(0);
    let live = orig.data_words().len();
    for i in 0..live {
        p.data[i] = word(1 + i);
    }
    p.tail = word(1 + live);
    p
}

/// A sealed maximal write packet: 9 FLITs, covering header, all eight
/// data FLITs, and tail.
fn maximal_packet() -> Packet {
    let payload: Vec<u8> = (0u16..128).map(|i| (i as u8).wrapping_mul(37)).collect();
    Packet::request(Command::Wr(BlockSize::B128), 1, 0x2_0000_1230, 0x155, 2, &payload).unwrap()
}

/// xorshift-ish deterministic generator for burst patterns.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[test]
fn every_single_bit_flip_is_detected() {
    let p = maximal_packet();
    assert!(p.verify_crc());
    let wire = wire_bytes(&p);
    for bit in 0..wire.len() * 8 {
        let mut corrupted = wire.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        assert!(
            !from_wire(&p, &corrupted).verify_crc(),
            "single-bit flip at wire bit {bit} went undetected"
        );
    }
}

/// Apply an error burst: XOR `pattern` (whose bit 0 and bit `len-1` are
/// set, per the burst-error definition) into the wire image at `start`.
fn apply_burst(wire: &[u8], start: usize, len: usize, pattern: u64) -> Vec<u8> {
    let mut out = wire.to_vec();
    for j in 0..len {
        if pattern >> j & 1 == 1 {
            let bit = start + j;
            out[bit / 8] ^= 1 << (bit % 8);
        }
    }
    out
}

#[test]
fn every_burst_up_to_32_bits_is_detected() {
    // A 5-FLIT write spans all three regions (header / payload / tail)
    // at an exhaustive-sweep-friendly 640 wire bits.
    let payload: Vec<u8> = (0u8..64).map(|i| i ^ 0xa5).collect();
    let p = Packet::request(Command::Wr(BlockSize::B64), 0, 0x40, 9, 1, &payload).unwrap();
    let wire = wire_bytes(&p);
    let bits = wire.len() * 8;

    for len in 2..=32usize {
        let endpoints = 1 | (1u64 << (len - 1));
        for start in 0..=(bits - len) {
            // All-ones burst…
            let ones = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
            assert!(
                !from_wire(&p, &apply_burst(&wire, start, len, ones)).verify_crc(),
                "all-ones burst (start {start}, len {len}) went undetected"
            );
            // …and a seeded random pattern pinned at both endpoints.
            let pattern = (mix((start * 64 + len) as u64) & (ones >> 1)) | endpoints;
            assert!(
                !from_wire(&p, &apply_burst(&wire, start, len, pattern)).verify_crc(),
                "random burst {pattern:#x} (start {start}, len {len}) went undetected"
            );
        }
    }
}

#[test]
fn bursts_are_detected_in_single_flit_packets_too() {
    // Reads have no payload: header and tail only (128 wire bits).
    let p = Packet::request(Command::Rd(BlockSize::B32), 0, 0x80, 3, 0, &[]).unwrap();
    let wire = wire_bytes(&p);
    for len in 1..=32usize {
        for start in 0..=(wire.len() * 8 - len) {
            let ones = (1u64 << len) - 1;
            assert!(
                !from_wire(&p, &apply_burst(&wire, start, len, ones)).verify_crc(),
                "burst (start {start}, len {len}) went undetected in a read packet"
            );
        }
    }
}

#[test]
fn crc_matches_bitwise_reference_at_every_packet_length() {
    // Every length up to a maximal 144-byte packet, so the word step,
    // the byte tail and every split between them are all covered.
    let data: Vec<u8> = (0u64..144).map(|i| mix(i) as u8).collect();
    for len in 0..=data.len() {
        assert_eq!(
            crc32k(&data[..len]),
            bitwise(&data[..len]),
            "mismatch at length {len}"
        );
    }
}

proptest! {
    /// Absorbing whole words equals absorbing their little-endian bytes,
    /// also when a byte prefix has left the stream off word alignment.
    #[test]
    fn word_step_matches_byte_stream(
        prefix in prop::collection::vec(any::<u8>(), 0..8),
        words in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        let mut by_word = Crc32k::new();
        by_word.update(&prefix);
        let mut by_byte = by_word;
        for &w in &words {
            by_word.update_u64(w);
            for b in w.to_le_bytes() {
                by_byte.update(&[b]);
            }
        }
        prop_assert_eq!(by_word.finish(), by_byte.finish());
        let mut bytes = prefix.clone();
        for w in &words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        prop_assert_eq!(by_word.finish(), bitwise(&bytes));
    }

    /// Sealing is stable: a sealed packet verifies, resealing is
    /// idempotent, and mutating the payload then resealing verifies
    /// again with a different checksum.
    #[test]
    fn seal_verify_round_trip_is_stable(
        addr in 0u64..(1 << 34),
        tag in 0u16..512,
        seed in any::<u64>(),
        flip_word in 0usize..8,
    ) {
        let payload: Vec<u8> = (0..128).map(|i| mix(seed ^ i as u64) as u8).collect();
        let mut p = Packet::request(
            Command::Wr(BlockSize::B128), 0, addr, tag, 0, &payload,
        ).unwrap();
        prop_assert!(p.verify_crc(), "request() seals");
        let sealed = p.crc();
        p.seal();
        prop_assert_eq!(p.crc(), sealed, "resealing is idempotent");

        p.data[flip_word] ^= 1;
        prop_assert!(!p.verify_crc(), "stale CRC after payload mutation");
        p.seal();
        prop_assert!(p.verify_crc(), "resealing covers the new payload");
        prop_assert_ne!(p.crc(), sealed, "one payload bit must change the CRC");
    }

    /// Streaming and one-shot CRC agree regardless of chunking.
    #[test]
    fn streaming_crc_matches_one_shot(data in prop::collection::vec(any::<u8>(), 0..256), cut in 0usize..256) {
        let split = cut.min(data.len());
        let mut streaming = Crc32k::new();
        streaming.update(&data[..split]);
        streaming.update(&data[split..]);
        prop_assert_eq!(streaming.finish(), crc32k(&data));
    }
}
