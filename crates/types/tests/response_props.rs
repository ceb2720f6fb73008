//! The in-place response writer is the response builder.
//!
//! A vault turns a request into its response inside the request's own
//! queue slot (`Packet::write_response`). The result must be exactly
//! the packet `Packet::response` builds from the same arguments —
//! header, tail, CRC and all sixteen payload words, including the dead
//! words past the live payload that the request left dirty.

use proptest::prelude::*;

use hmc_types::{Command, Packet, ResponseStatus};

const STATUSES: [ResponseStatus; 7] = [
    ResponseStatus::Ok,
    ResponseStatus::CommandError,
    ResponseStatus::AddressError,
    ResponseStatus::Misroute,
    ResponseStatus::Zombie,
    ResponseStatus::LinkPoisoned,
    ResponseStatus::InternalError,
];

fn request_commands() -> Vec<Command> {
    Command::all()
        .into_iter()
        .filter(|c| c.is_request())
        .collect()
}

fn response_commands() -> Vec<Command> {
    Command::all()
        .into_iter()
        .filter(|c| c.is_response())
        .collect()
}

/// A sealed request whose payload storage past its live words holds
/// arbitrary garbage, as a recycled queue slot does.
fn dirty_request(cmd: Command, cub: u8, addr: u64, tag: u16, link: u8, words: &[u64]) -> Packet {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut p = Packet::request(
        cmd,
        cub,
        addr,
        tag,
        link,
        &bytes[..cmd.request_data_bytes()],
    )
    .expect("valid request");
    let live = p.data_words().len();
    p.data[live..].copy_from_slice(&words[live..]);
    p
}

#[test]
fn every_response_command_is_covered() {
    assert_eq!(response_commands().len(), 5);
}

proptest! {
    #[test]
    fn in_place_response_equals_the_built_response(
        cmd in prop::sample::select(request_commands()),
        cub in 0u8..8,
        addr in 0u64..(1 << 34),
        tag in 0u16..512,
        link in 0u8..8,
        words in prop::collection::vec(any::<u64>(), 16..17),
        payload in prop::collection::vec(any::<u8>(), 128..129),
    ) {
        let req = dirty_request(cmd, cub, addr, tag, link, &words);
        for rsp_cmd in response_commands() {
            for status in STATUSES {
                for len in (0..=128).step_by(16) {
                    let data = &payload[..len];
                    let built = Packet::response(rsp_cmd, req.tag(), req.slid(), status, data)
                        .expect("response commands build");
                    let mut in_place = req.clone();
                    in_place
                        .write_response(rsp_cmd, req.tag(), req.slid(), status, data)
                        .expect("response commands build");
                    prop_assert_eq!(in_place.header, built.header);
                    prop_assert_eq!(in_place.tail, built.tail);
                    prop_assert_eq!(in_place.crc(), built.crc());
                    prop_assert_eq!(in_place.data, built.data, "all 16 payload words");
                    prop_assert!(in_place.verify_crc());
                }
            }
        }
    }

    #[test]
    fn a_refused_rewrite_leaves_the_packet_alone(
        cmd in prop::sample::select(request_commands()),
        tag in 0u16..512,
        words in prop::collection::vec(any::<u64>(), 16..17),
    ) {
        let req = dirty_request(cmd, 0, 0x40, tag, 1, &words);
        let mut p = req.clone();
        prop_assert!(p.write_response(cmd, tag, 1, ResponseStatus::Ok, &[]).is_err());
        prop_assert_eq!(p, req);
    }
}
