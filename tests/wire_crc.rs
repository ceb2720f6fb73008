//! Golden wire CRCs. The CRC-32/Koopman check value and the tails of
//! three canonical packets are pinned bit for bit, so any change to how a
//! packet's CRC is computed — table layout, word order, which bytes are
//! covered — fails here before it can reach a simulated link.

use hmc_sim::hmc_types::crc::crc32k;
use hmc_sim::hmc_types::{BlockSize, Command, Packet, ResponseStatus};

#[test]
fn crc32k_check_value() {
    assert_eq!(crc32k(b"123456789"), 0x2D3D_D0AE);
}

#[test]
fn canonical_packets_carry_pinned_crcs() {
    let rd = Packet::request(Command::Rd(BlockSize::B64), 0, 0x1000, 5, 2, &[]).unwrap();
    assert_eq!(rd.header, 0x0000_0010_0002_88b3);
    assert_eq!(rd.tail, 0x0000_0040_ab77_2369);
    assert_eq!(rd.crc(), 0xab77_2369);

    let payload: Vec<u8> = (0u8..64).collect();
    let wr = Packet::request(
        Command::Wr(BlockSize::B64),
        1,
        0x2_0000_1240,
        0x155,
        3,
        &payload,
    )
    .unwrap();
    assert_eq!(wr.header, 0x2200_0012_40aa_aa8b);
    assert_eq!(wr.tail, 0x0000_0060_5803_cc41);
    assert_eq!(wr.crc(), 0x5803_cc41);

    let data: Vec<u8> = (0u8..64).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
    let rs = Packet::response(Command::RdResponse, 42, 1, ResponseStatus::Ok, &data).unwrap();
    assert_eq!(rs.header, 0x0000_0000_0015_2ab8);
    assert_eq!(rs.tail, 0x0000_2000_8ea3_93ea);
    assert_eq!(rs.crc(), 0x8ea3_93ea);
}
