//! Packet-ordering semantics (§III.C): weak ordering overall, but "all
//! reordering points present in a given HMC implementation must maintain
//! the order of a stream of packets from a specific link to a specific
//! bank within a vault."

use hmc_sim::hmc_core::{decode_response, topology, HmcSim};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet};

fn sim() -> HmcSim {
    let mut s = HmcSim::new(1, DeviceConfig::small().with_queue_depths(64, 32)).unwrap();
    let host = s.host_cube_id(0);
    topology::build_simple(&mut s, host).unwrap();
    s
}

/// Drain all responses from one link, in delivery order.
fn drain_all(sim: &mut HmcSim, link: u8, expect: usize) -> Vec<u16> {
    let mut tags = Vec::new();
    for _ in 0..256 {
        sim.clock().unwrap();
        while let Ok(p) = sim.recv(0, link) {
            tags.push(p.tag());
        }
        if tags.len() >= expect {
            break;
        }
    }
    tags
}

#[test]
fn same_link_same_bank_writes_apply_in_order() {
    // Two writes from the same link to the same address: the second must
    // win. Repeat with ten versions to make reordering overwhelmingly
    // visible if it occurred.
    let mut s = sim();
    for version in 0..10u8 {
        let data = [version; 16];
        let wr =
            Packet::request(Command::Wr(BlockSize::B16), 0, 0x40, version as u16, 0, &data)
                .unwrap();
        s.send(0, 0, wr).unwrap();
    }
    drain_all(&mut s, 0, 10);
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0x40, 99, 0, &[]).unwrap();
    s.send(0, 0, rd).unwrap();
    let mut data = None;
    for _ in 0..32 {
        s.clock().unwrap();
        if let Ok(p) = s.recv(0, 0) {
            data = Some(decode_response(&p).unwrap().data.to_vec());
            break;
        }
    }
    assert_eq!(data.unwrap(), vec![9u8; 16], "last write must win");
}

#[test]
fn write_then_read_same_address_is_deterministic() {
    // §III.C: "memory write requests followed by memory read requests
    // deliver correct and deterministic behavior."
    let mut s = sim();
    let data = [0xc3u8; 16];
    let wr = Packet::request(Command::Wr(BlockSize::B16), 0, 0x80, 1, 0, &data).unwrap();
    let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0x80, 2, 0, &[]).unwrap();
    s.send(0, 0, wr).unwrap();
    s.send(0, 0, rd).unwrap();
    let mut read_data = None;
    for _ in 0..32 {
        s.clock().unwrap();
        while let Ok(p) = s.recv(0, 0) {
            if p.tag() == 2 {
                read_data = Some(decode_response(&p).unwrap().data.to_vec());
            }
        }
        if read_data.is_some() {
            break;
        }
    }
    assert_eq!(read_data.unwrap(), data.to_vec(), "read sees the write");
}

#[test]
fn same_stream_order_is_preserved_in_responses() {
    // All requests from one link to one (vault, bank): their responses
    // must return in issue order (the stream never reorders internally,
    // and the response path is FIFO per queue).
    let mut s = sim();
    // Address 0x0 and address block + vault stride * 0: same vault/bank
    // rows: use identical address with distinct tags.
    for tag in 0..8 {
        let rd = Packet::request(Command::Rd(BlockSize::B16), 0, 0x0, tag, 0, &[]).unwrap();
        s.send(0, 0, rd).unwrap();
    }
    let tags = drain_all(&mut s, 0, 8);
    assert_eq!(tags, (0..8).collect::<Vec<u16>>(), "stream order preserved");
}

#[test]
fn cross_vault_requests_may_complete_out_of_order() {
    // Weak ordering: requests to different vaults from one link may
    // overtake each other. We do not assert that they *must* reorder —
    // only that whatever order arrives carries correct payloads.
    let mut s = sim();
    // Write distinct data to two different vaults (block 0 -> vault 0,
    // block 1 -> vault 1 under low interleave with 128-byte blocks).
    for (i, addr) in [0u64, 128].iter().enumerate() {
        let data = [i as u8 + 1; 16];
        let wr = Packet::request(
            Command::Wr(BlockSize::B16),
            0,
            *addr,
            i as u16,
            0,
            &data,
        )
        .unwrap();
        s.send(0, 0, wr).unwrap();
    }
    drain_all(&mut s, 0, 2);
    for (i, addr) in [0u64, 128].iter().enumerate() {
        let rd = Packet::request(
            Command::Rd(BlockSize::B16),
            0,
            *addr,
            10 + i as u16,
            0,
            &[],
        )
        .unwrap();
        s.send(0, 0, rd).unwrap();
    }
    let mut seen = 0;
    for _ in 0..32 {
        s.clock().unwrap();
        while let Ok(p) = s.recv(0, 0) {
            let info = decode_response(&p).unwrap();
            let expect = (info.tag - 10 + 1) as u8;
            assert_eq!(*info.data, [expect; 16]);
            seen += 1;
        }
        if seen == 2 {
            break;
        }
    }
    assert_eq!(seen, 2);
}

#[test]
fn responses_may_arrive_out_of_order_across_links() {
    // §V.C: "response packets … may arrive out of order. It is up to the
    // calling application to decode and correlate." Inject on all four
    // links and verify correlation by tag works regardless of order.
    let mut s = sim();
    let mut expected = std::collections::HashSet::new();
    for link in 0..4u8 {
        for j in 0..4u16 {
            let tag = link as u16 * 16 + j;
            let rd = Packet::request(
                Command::Rd(BlockSize::B16),
                0,
                (tag as u64) * 128,
                tag,
                link,
                &[],
            )
            .unwrap();
            s.send(0, link, rd).unwrap();
            expected.insert(tag);
        }
    }
    let mut got = std::collections::HashSet::new();
    for _ in 0..64 {
        s.clock().unwrap();
        for link in 0..4u8 {
            while let Ok(p) = s.recv(0, link) {
                assert!(got.insert(p.tag()), "duplicate tag {}", p.tag());
            }
        }
        if got.len() == expected.len() {
            break;
        }
    }
    assert_eq!(got, expected, "every tag correlates exactly once");
}

#[test]
fn responses_return_on_the_request_link() {
    // SLID association: a response exits the device on the link its
    // request entered (when that link serves the destination host).
    let mut s = sim();
    for link in 0..4u8 {
        let rd = Packet::request(
            Command::Rd(BlockSize::B16),
            0,
            link as u64 * 128,
            link as u16,
            link,
            &[],
        )
        .unwrap();
        s.send(0, link, rd).unwrap();
    }
    for _ in 0..8 {
        s.clock().unwrap();
    }
    for link in 0..4u8 {
        let p = s.recv(0, link).expect("response on its own link");
        assert_eq!(p.tag(), link as u16, "link {link} got its own response");
        assert!(s.recv(0, link).is_err(), "exactly one per link");
    }
}

#[test]
fn packets_for_free_vaults_pass_stalled_ones() {
    // §III.C: "Arriving packets that are destined for ancillary devices
    // may pass those waiting for local vault access." With a one-slot
    // vault queue, the second vault-0 packet stalls at the crossbar while
    // a later vault-1 packet overtakes it.
    let mut s = {
        let mut s = HmcSim::new(
            1,
            DeviceConfig::small().with_queue_depths(8, 1),
        )
        .unwrap();
        let host = s.host_cube_id(0);
        hmc_sim::hmc_core::topology::build_simple(&mut s, host).unwrap();
        s
    };
    // Blocks 0 and 16 → vault 0; block 1 → vault 1 (low interleave).
    let mk = |block: u64, tag| {
        Packet::request(Command::Rd(BlockSize::B16), 0, block * 128, tag, 0, &[]).unwrap()
    };
    s.send(0, 0, mk(0, 0)).unwrap(); // vault 0
    s.send(0, 0, mk(16, 1)).unwrap(); // vault 0 again: will stall
    s.send(0, 0, mk(1, 2)).unwrap(); // vault 1: passes tag 1
    s.clock().unwrap();
    let mut first_cycle: Vec<u16> = Vec::new();
    while let Ok(p) = s.recv(0, 0) {
        first_cycle.push(p.tag());
    }
    first_cycle.sort_unstable();
    assert_eq!(
        first_cycle,
        vec![0, 2],
        "the vault-1 packet must complete ahead of the stalled vault-0 one"
    );
    s.clock().unwrap();
    assert_eq!(s.recv(0, 0).unwrap().tag(), 1, "stalled packet follows");
}

#[test]
fn disconnecting_a_link_breaks_routing_gracefully() {
    let mut s = HmcSim::new(2, DeviceConfig::small()).unwrap();
    let host = s.host_cube_id(0);
    s.connect_host(0, 0, host).unwrap();
    s.connect_devices(0, 1, 1, 0).unwrap();
    s.finalize_topology().unwrap();
    // Reachable before...
    let rd = Packet::request(Command::Rd(BlockSize::B16), 1, 0, 1, 0, &[]).unwrap();
    s.send(0, 0, rd).unwrap();
    let mut ok = false;
    for _ in 0..8 {
        s.clock().unwrap();
        if let Ok(p) = s.recv(0, 0) {
            ok = p.errstat().unwrap().is_ok();
            break;
        }
    }
    assert!(ok);
    // ...misrouted after the chain link is cut.
    s.disconnect(0, 1).unwrap();
    let rd = Packet::request(Command::Rd(BlockSize::B16), 1, 0, 2, 0, &[]).unwrap();
    s.send(0, 0, rd).unwrap();
    let mut status = None;
    for _ in 0..8 {
        s.clock().unwrap();
        if let Ok(p) = s.recv(0, 0) {
            status = Some(p.errstat().unwrap());
            break;
        }
    }
    assert_eq!(
        status,
        Some(hmc_sim::hmc_types::ResponseStatus::Misroute)
    );
}
