//! Quickstart: the paper's Figure 4 API calling sequence, line for line.
//!
//! ```text
//! /* Section A. Init the devices */        hmcsim_init(...)
//! /* Section B. Config the link topology */ hmcsim_link_config(...)
//! /* Section C. Build a request packet */   hmcsim_build_memrequest(...)
//! /* Section C. Send the request */         hmcsim_send(...)
//! /* Clock the sim */                       hmcsim_clock(...)
//! /* Section A. Free the devices */         hmcsim_free(...)
//! ```
//!
//! Run with: `cargo run --example quickstart`

use hmc_core::api::{
    hmcsim_build_memrequest, hmcsim_clock, hmcsim_decode_memresponse, hmcsim_free, hmcsim_init,
    hmcsim_link_config, hmcsim_recv, hmcsim_send, LinkType,
};
use hmc_types::{BlockSize, Command};

fn main() {
    // Section A. Init the devices: 1 device, 4 links, 16 vaults,
    // 64-deep vault queues, 8 banks, 16 DRAMs, 2 GB, 128-deep crossbars.
    let mut hmc = hmcsim_init(1, 4, 16, 64, 8, 16, 2, 128).expect("init");
    let host = hmc.host_cube_id(0);
    println!("initialized: 1 device, host cube ID {host}");

    // Section B. Config the link topology: all four links host-attached.
    for i in 0..4 {
        hmcsim_link_config(&mut hmc, host, 0, i, i, LinkType::HostDev).expect("link config");
    }
    println!("topology: 4 host links on device 0");

    // Section C. Build a request packet: WR64 at 0x1000, tag 1, link 0 —
    // then a RD64 to read it back.
    let payload: Vec<u8> = (0..64).collect();
    let write =
        hmcsim_build_memrequest(0, 0x1000, 1, Command::Wr(BlockSize::B64), 0, &payload)
            .expect("build write");
    let read = hmcsim_build_memrequest(0, 0x1000, 2, Command::Rd(BlockSize::B64), 1, &[])
        .expect("build read");

    // Section C. Send the requests.
    hmcsim_send(&mut hmc, 0, 0, write).expect("send write");
    hmcsim_send(&mut hmc, 0, 1, read).expect("send read");
    println!("sent: WR64 (tag 1) on link 0, RD64 (tag 2) on link 1");

    // Clock the sim and collect both responses.
    let mut responses = Vec::new();
    for _ in 0..10 {
        hmcsim_clock(&mut hmc).expect("clock");
        for link in 0..4 {
            while let Ok(packet) = hmcsim_recv(&mut hmc, 0, link) {
                responses.push(hmcsim_decode_memresponse(&packet).expect("decode"));
            }
        }
        if responses.len() == 2 {
            break;
        }
    }

    responses.sort_by_key(|r| r.tag);
    for r in &responses {
        println!(
            "response: tag {} {} status {:?} ({} data bytes)",
            r.tag,
            r.cmd.mnemonic(),
            r.status,
            r.data.len()
        );
    }
    assert_eq!(responses.len(), 2);
    assert_eq!(*responses[1].data, payload, "read returns the written data");
    println!(
        "data integrity verified after {} cycles",
        hmc.current_clock()
    );

    // Section A. Free the devices.
    hmcsim_free(hmc);
}
