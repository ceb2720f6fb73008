//! Figure 1 end-to-end: traffic flows through all four published
//! topologies (simple, ring, mesh, 2D torus) plus chains, and the
//! infrastructure honours its topology constraints (§IV req. 2, §V.B).

use hmc_sim::hmc_core::{topology, HmcSim, ResponseInfo};
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, HmcError, Packet, ResponseStatus};

fn four_link(n: u8) -> HmcSim {
    HmcSim::new(n, DeviceConfig::small()).unwrap()
}

fn eight_link(n: u8) -> HmcSim {
    HmcSim::new(
        n,
        DeviceConfig::paper_8link_8bank_4gb().with_queue_depths(16, 8),
    )
    .unwrap()
}

/// Write then read every device through the given host link; returns the
/// decoded read responses in device order.
fn roundtrip_all(sim: &mut HmcSim, host_link: u8) -> Vec<ResponseInfo> {
    let n = sim.num_devices();
    let mut out = Vec::new();
    for dev in 0..n {
        let data = [dev ^ 0xa5; 16];
        let wr = Packet::request(
            Command::Wr(BlockSize::B16),
            dev,
            0x100,
            (dev as u16) * 2,
            host_link,
            &data,
        )
        .unwrap();
        let rd = Packet::request(
            Command::Rd(BlockSize::B16),
            dev,
            0x100,
            (dev as u16) * 2 + 1,
            host_link,
            &[],
        )
        .unwrap();
        sim.send(0, host_link, wr).unwrap();
        // Let the write land before the read (order across links is not
        // guaranteed; same link is, but keep the test unambiguous).
        for _ in 0..32 {
            sim.clock().unwrap();
            if sim.recv(0, host_link).is_ok() {
                break;
            }
        }
        sim.send(0, host_link, rd).unwrap();
        for _ in 0..32 {
            sim.clock().unwrap();
            if let Ok(p) = sim.recv(0, host_link) {
                out.push(hmc_sim::hmc_core::decode_response(&p).unwrap());
                break;
            }
        }
    }
    out
}

#[test]
fn simple_topology_carries_traffic() {
    let mut sim = four_link(1);
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();
    let responses = roundtrip_all(&mut sim, 0);
    assert_eq!(responses.len(), 1);
    assert!(responses[0].is_ok());
    assert_eq!(*responses[0].data, [0xa5; 16]);
}

#[test]
fn chain_reaches_every_device_with_data_integrity() {
    let mut sim = four_link(4);
    let host = sim.host_cube_id(0);
    topology::build_chain(&mut sim, host).unwrap();
    let responses = roundtrip_all(&mut sim, 0);
    assert_eq!(responses.len(), 4);
    for (dev, r) in responses.iter().enumerate() {
        assert!(r.is_ok(), "device {dev}");
        assert_eq!(*r.data, [dev as u8 ^ 0xa5; 16], "device {dev} data");
    }
}

#[test]
fn ring_reaches_every_device() {
    let mut sim = four_link(5);
    let host = sim.host_cube_id(0);
    topology::build_ring(&mut sim, host).unwrap();
    let responses = roundtrip_all(&mut sim, 0);
    assert_eq!(responses.len(), 5);
    assert!(responses.iter().all(|r| r.is_ok()));
}

#[test]
fn mesh_reaches_every_device() {
    let mut sim = four_link(6);
    let host = sim.host_cube_id(0);
    topology::build_mesh(&mut sim, 3, 2, host).unwrap();
    let responses = roundtrip_all(&mut sim, 0);
    assert_eq!(responses.len(), 6);
    assert!(responses.iter().all(|r| r.is_ok()));
}

#[test]
fn torus_reaches_every_device() {
    let mut sim = eight_link(4);
    let host = sim.host_cube_id(0);
    topology::build_torus(&mut sim, 2, 2, host).unwrap();
    let responses = roundtrip_all(&mut sim, 4);
    assert_eq!(responses.len(), 4);
    assert!(responses.iter().all(|r| r.is_ok()));
}

#[test]
fn loopback_is_rejected_at_configuration_time() {
    // §V.B: "the infrastructure does not permit users to configure links
    // as loopbacks."
    let mut sim = four_link(2);
    assert!(matches!(
        sim.connect_devices(1, 0, 1, 1),
        Err(HmcError::Topology(_))
    ));
}

#[test]
fn cross_object_links_are_rejected() {
    // §V.B: "devices that link to one another must exist within the same
    // HMC-Sim object structure."
    let mut sim = four_link(2);
    assert!(matches!(
        sim.connect_devices(0, 0, 5, 0),
        Err(HmcError::Topology(_))
    ));
}

#[test]
fn hostless_configuration_is_rejected() {
    // §V.B: "the user must configure at least one device that connects
    // to a host link."
    let mut sim = four_link(3);
    sim.connect_devices(0, 0, 1, 0).unwrap();
    sim.connect_devices(1, 1, 2, 0).unwrap();
    assert!(matches!(
        sim.finalize_topology(),
        Err(HmcError::Topology(_))
    ));
}

#[test]
fn deliberately_misconfigured_topology_yields_error_responses() {
    // §IV req. 2: misconfigurations produce response packets with error
    // structures rather than being rejected outright.
    let mut sim = four_link(3);
    let host = sim.host_cube_id(0);
    sim.connect_host(0, 0, host).unwrap();
    sim.connect_devices(0, 1, 1, 0).unwrap();
    // Device 2 is left unreachable on purpose.
    sim.finalize_topology().unwrap();

    let req = Packet::request(Command::Rd(BlockSize::B16), 2, 0, 9, 0, &[]).unwrap();
    sim.send(0, 0, req).unwrap();
    let mut status = None;
    for _ in 0..16 {
        sim.clock().unwrap();
        if let Ok(p) = sim.recv(0, 0) {
            status = Some(p.errstat().unwrap());
            break;
        }
    }
    assert_eq!(status, Some(ResponseStatus::Misroute));
}

#[test]
fn ring_takes_the_short_way_round() {
    // In a 5-ring, device 4 is one hop counter-clockwise from device 0:
    // it must answer faster than device 2 (two hops clockwise).
    let latency = |target: u8| {
        let mut sim = four_link(5);
        let host = sim.host_cube_id(0);
        topology::build_ring(&mut sim, host).unwrap();
        let req = Packet::request(Command::Rd(BlockSize::B16), target, 0, 1, 0, &[]).unwrap();
        sim.send(0, 0, req).unwrap();
        for c in 1..64 {
            sim.clock().unwrap();
            if sim.recv(0, 0).is_ok() {
                return c;
            }
        }
        panic!("no response from {target}");
    };
    assert!(latency(4) < latency(2), "wrap direction must be used");
}
