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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmc_sim::hmc_core::{topology, HmcSim};
use hmc_sim::hmc_host::Host;
use hmc_sim::hmc_types::{BlockSize, Command, DeviceConfig, Packet, StorageMode};
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
