//! The steady-state serial clock must perform no per-cycle heap
//! allocation (the paper's Table I runs clock tens of millions of
//! cycles; allocator traffic in the hot loop dominated profiles before
//! the engine moved to reusable scratch buffers).
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase grows every reusable buffer to its steady-state
//! capacity, an identical measured phase must allocate nothing. The
//! count is per thread, so tests running side by side (and the test
//! harness itself) never show up in each other's measured phase.
//!
//! Packets live in boxes that the simulation recycles through a free
//! list, so these tests are also the free list's leak check: a box
//! dropped on any retirement path instead of being returned drains the
//! list, and the next send allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmc_sim::hmc_core::{
    decode_response, topology, HmcSim, NocParams, SimParams, SimStats, TimingParams,
};
use hmc_sim::hmc_host::Host;
use hmc_sim::hmc_types::{
    BlockSize, Command, DeviceConfig, InterconnectKind, LinkId, Packet, StorageMode, TimingKind,
};
use hmc_sim::hmc_workloads::MemOp;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// One harness round: inject mixed reads/writes round-robin until
/// back-pressure, clock once, drain all responses.
fn round(sim: &mut HmcSim, rng: &mut Lcg, tag: &mut u16, capacity: u64, num_links: u8) {
    for link in 0..num_links {
        loop {
            let addr = (rng.next() % (capacity / 64)) * 64;
            let write = rng.next().is_multiple_of(2);
            let packet = if write {
                let data = [0x5au8; 64];
                Packet::request(Command::Wr(BlockSize::B64), 0, addr, *tag, link, &data).unwrap()
            } else {
                Packet::request(Command::Rd(BlockSize::B64), 0, addr, *tag, link, &[]).unwrap()
            };
            match sim.send(0, link, packet) {
                Ok(()) => *tag = if *tag >= 0x1ff { 1 } else { *tag + 1 },
                Err(e) if e.is_stall() => break,
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
    sim.clock().unwrap();
    for link in 0..num_links {
        while sim.recv(0, link).is_ok() {}
    }
}

#[test]
fn steady_state_serial_clock_allocates_nothing() {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap();
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();

    let capacity = sim.config().capacity_bytes;
    let num_links = sim.config().num_links;
    let mut rng = Lcg(0xFEED);
    let mut tag: u16 = 1;

    // Warm-up: grow every reusable buffer (event stages, drain plans,
    // queue-backed structures) to steady-state capacity.
    for _ in 0..256 {
        round(&mut sim, &mut rng, &mut tag, capacity, num_links);
    }

    let before = allocations();
    for _ in 0..256 {
        round(&mut sim, &mut rng, &mut tag, capacity, num_links);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state clock() must not touch the allocator \
         ({} allocations in 256 loaded cycles)",
        after - before
    );
}

/// One host-driver round, the Table I harness loop: issue mixed
/// RD64/WR64 operations until the host refuses one, clock once, then
/// drain and correlate every response.
fn host_round(host: &mut Host, sim: &mut HmcSim, rng: &mut Lcg, capacity: u64) {
    loop {
        let addr = (rng.next() % (capacity / 64)) * 64;
        let op = if rng.next().is_multiple_of(2) {
            MemOp::write(addr, BlockSize::B64)
        } else {
            MemOp::read(addr, BlockSize::B64)
        };
        if !host.try_issue(sim, 0, &op).unwrap() {
            break;
        }
    }
    sim.clock().unwrap();
    host.drain(sim).unwrap();
}

#[test]
fn steady_state_host_driver_allocates_nothing() {
    let cfg = DeviceConfig::paper_4link_8bank_2gb().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap();
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id).unwrap();
    let mut host = Host::attach(&sim, host_id).unwrap();

    let capacity = sim.config().capacity_bytes;
    let mut rng = Lcg(0xBEEF);

    for _ in 0..256 {
        host_round(&mut host, &mut sim, &mut rng, capacity);
    }

    let before = allocations();
    let completed = host.stats.completed;
    for _ in 0..256 {
        host_round(&mut host, &mut sim, &mut rng, capacity);
    }
    let after = allocations();

    assert!(
        host.stats.completed > completed,
        "the measured phase must complete responses"
    );
    assert_eq!(host.stats.errors, 0);
    assert_eq!(
        after - before,
        0,
        "steady-state try_issue + clock + drain must not touch the allocator \
         ({} allocations in 256 loaded cycles)",
        after - before
    );
}

/// Responses received by [`gapped_burst`], by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Received {
    clean: u64,
    errors: u64,
}

/// Receive every response waiting on the host links.
fn recv_all(sim: &mut HmcSim, got: &mut Received) {
    for link in 0..4 {
        while let Ok(p) = sim.recv(0, link) {
            if decode_response(&p).unwrap().is_ok() {
                got.clean += 1;
            } else {
                got.errors += 1;
            }
        }
    }
}

/// One burst of the gapped DDR + mesh shape: 16 requests round-robin
/// over the links (reads and posted writes, and every so often a read
/// or posted write beyond capacity, which fails at the crossbar), then
/// one-cycle clocks and receives until every read is answered, then an
/// idle gap advanced with one `clock_batch`. Requests walk sequential
/// 64-byte blocks, or with `hot` one vault's banks (a 2 KiB stride on
/// the 16-vault, 128-byte-block `small` map), which fills that vault's
/// request queue so the NoC refuses deliveries into it.
fn gapped_burst(sim: &mut HmcSim, rng: &mut Lcg, tag: &mut u16, hot: bool, got: &mut Received) {
    let payload = [0xa5u8; 64];
    let stride = if hot { 2048 } else { 64 };
    let base = (rng.next() % (sim.config().capacity_bytes / 4096 - 16)) * 64;
    let mut reads = 0u64;
    for i in 0..16u64 {
        let link = (i % 4) as LinkId;
        let addr = if rng.next().is_multiple_of(8) {
            (1 << 34) - 64
        } else {
            base + i * stride
        };
        let packet = if rng.next().is_multiple_of(2) {
            reads += 1;
            *tag = (*tag + 1) % 0x1ff;
            Packet::request(Command::Rd(BlockSize::B64), 0, addr, *tag, link, &[]).unwrap()
        } else {
            let cmd = Command::PostedWr(BlockSize::B64);
            Packet::request(cmd, 0, addr, 0x1ff, link, &payload).unwrap()
        };
        while let Err(e) = sim.send(0, link, packet.clone()) {
            assert!(e.is_stall(), "send failed: {e}");
            sim.clock_batch(1).unwrap();
            recv_all(sim, got);
        }
    }
    let target = got.clean + got.errors + reads;
    while got.clean + got.errors < target {
        sim.clock_batch(1).unwrap();
        recv_all(sim, got);
    }
    sim.clock_batch(512).unwrap();
    recv_all(sim, got);
}

#[test]
fn steady_state_gapped_ddr_mesh_allocates_nothing() {
    let cfg = DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly);
    let mut sim = HmcSim::new(1, cfg).unwrap().with_params(SimParams {
        fast_forward: true,
        timing: TimingParams::of(TimingKind::Ddr),
        interconnect: NocParams::of(InterconnectKind::Mesh),
        ..SimParams::default()
    });
    let host = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host).unwrap();

    let mut rng = Lcg(0xD0E5);
    let mut tag = 0u16;
    let mut got = Received::default();

    // Warm-up: grow the free list to the peak number of packets in
    // flight and every engine scratch buffer to its high-water mark.
    for b in 0..256 {
        gapped_burst(&mut sim, &mut rng, &mut tag, b % 2 == 1, &mut got);
    }

    let (stats, received) = (sim.stats(), got);
    let before = allocations();
    for b in 0..128 {
        gapped_burst(&mut sim, &mut rng, &mut tag, b % 2 == 1, &mut got);
    }
    let after = allocations();

    // Every recycle path ran in the measured phase.
    let delta = |f: fn(&SimStats) -> u64| f(&sim.stats()) - f(&stats);
    assert!(got.clean > received.clean, "clean reads answered");
    assert!(got.errors > received.errors, "crossbar error responses");
    assert!(
        delta(|s| s.sent) > delta(|s| s.received),
        "posted requests retired"
    );
    assert!(delta(|s| s.noc_hops) > 0, "NoC deliveries");
    assert!(delta(|s| s.noc_stalls) > 0, "NoC refusals");
    assert!(
        delta(|s| s.row_hits + s.row_misses) > 0,
        "pending DDR responses"
    );
    assert!(delta(|s| s.cycles) > 128 * 512, "fast-forwarded gaps");
    assert_eq!(
        after - before,
        0,
        "steady-state send + clock_batch + recv on DDR, mesh and fast-forward must not \
         touch the allocator ({} allocations in 128 bursts)",
        after - before
    );
}
