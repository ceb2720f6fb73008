//! `gapped-ddr-mesh`: seeded bursts of sequential reads and posted
//! writes sent straight through `Packet::request` and `HmcSim::send`,
//! with idle gaps between bursts advanced by `HmcSim::clock_batch`.
//!
//! DDR timing, 2-D mesh NoC, fast-forward on, timing-only storage. Per
//! cycle and fast-forward cost dominate here, and the NoC and the DDR
//! backend do all their work; the host layer is bypassed.

use std::time::{Duration, Instant};

use hmc_core::{decode_response, topology, HmcSim, NocParams, SimParams, SimStats, TimingParams};
use hmc_types::{
    BlockSize, Command, DeviceConfig, HmcError, InterconnectKind, LinkId, Packet, StorageMode,
    TimingKind,
};
use hmc_workloads::GlibcRandom;

use crate::stats::{grouped_percentile, median, ms, push_batch_tails, tails, Outcome};
use crate::table1::{push_setup_parts, SetupTimes};
use crate::trace::{timed, Call, Off, Probe, Trace};

/// Bursts per pass.
pub const ROUNDS: usize = 2000;
/// Requests per burst, sequential 64-byte blocks, round-robin over the
/// four host links.
pub const BURST: usize = 16;
/// Idle cycles advanced with one `clock_batch` after each burst.
pub const GAP: u64 = 512;
/// Deadlock guard on the cycles one pass may step through bursts.
const MAX_BURST_CYCLES: u64 = 1 << 24;
const READ_PCT: u8 = 50;
const SETUP_REPEATS: usize = 25;
const LINKS: u8 = 4;
/// Tag 0x1ff is what the host model uses for posted requests.
const POSTED_TAG: u16 = 0x1ff;

#[derive(Debug, Clone, Copy)]
pub struct Op {
    read: bool,
    addr: u64,
}

fn config() -> DeviceConfig {
    DeviceConfig::small().with_storage_mode(StorageMode::TimingOnly)
}

/// Generate every burst from the seed into `ops`.
fn generate(seed: u32, ops: &mut Vec<Op>) {
    let capacity = config().capacity_bytes;
    let blocks = capacity / 64 - BURST as u64;
    let mut rng = GlibcRandom::new(seed);
    ops.clear();
    for _ in 0..ROUNDS {
        let base = rng.below(blocks) * 64;
        for i in 0..BURST as u64 {
            ops.push(Op {
                read: rng.percent(READ_PCT),
                addr: base + i * 64,
            });
        }
    }
}

/// A fresh device: cycle 0, idle banks, empty queues and NoC buffers.
fn build(fast_forward: bool, times: &mut SetupTimes) -> Result<HmcSim, HmcError> {
    let t0 = Instant::now();
    let mut sim = HmcSim::new(1, config())?.with_params(SimParams {
        fast_forward,
        timing: TimingParams::of(TimingKind::Ddr),
        interconnect: NocParams::of(InterconnectKind::Mesh),
        ..SimParams::default()
    });
    let t1 = Instant::now();
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id)?;
    times.sim_new += t1 - t0;
    times.topology += t1.elapsed();
    Ok(sim)
}

/// Set up [`SETUP_REPEATS`] times, regenerating into one buffer (see
/// `table1::setups`).
fn setups(seed: u32) -> Result<(Vec<Op>, Vec<SetupTimes>), HmcError> {
    let mut all = Vec::new();
    let mut ops = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        generate(seed, &mut ops);
        times.generate = t0.elapsed();
        times.ops = ops.len() as u64;
        build(true, &mut times)?;
        all.push(times);
    }
    Ok((ops, all))
}

/// What one pass did. Everything but the wall times must repeat exactly.
#[derive(Debug, Clone, Default)]
struct Pass {
    wall: Duration,
    stats: SimStats,
    /// FNV-1a over every response's (link, tag, latency), in arrival order.
    digest: u64,
    reads: u64,
    posted: u64,
    answered: u64,
    latencies: Vec<u64>,
    batch_ms: Vec<f64>,
    send_calls: u64,
    send_stalls: u64,
    burst_cycles: u64,
    gap_cycles: u64,
}

/// Per-pass request bookkeeping: which burst owns each read tag.
struct Book {
    owner: Vec<Option<usize>>,
    next_tag: u16,
    remaining: Vec<u32>,
    started: Vec<Instant>,
}

impl Book {
    fn alloc(&mut self, burst: usize) -> Option<u16> {
        for _ in 0..POSTED_TAG {
            let tag = self.next_tag;
            self.next_tag = (self.next_tag + 1) % POSTED_TAG;
            if self.owner[tag as usize].is_none() {
                self.owner[tag as usize] = Some(burst);
                return Some(tag);
            }
        }
        None
    }
}

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn drain<P: Probe>(
    sim: &mut HmcSim,
    probe: &mut P,
    book: &mut Book,
    pass: &mut Pass,
    out: &mut Outcome,
) -> Result<(), HmcError> {
    for link in 0..LINKS {
        loop {
            let (packet, latency) =
                match timed(probe, Call::Recv, || sim.recv_with_latency(0, link)) {
                    Ok(r) => r,
                    Err(HmcError::NoResponse { .. }) => break,
                    Err(e) => return Err(e),
                };
            let info = decode_response(&packet)?;
            pass.digest = fnv(fnv(fnv(pass.digest, link as u64), info.tag as u64), latency);
            pass.latencies.push(latency);
            let owner = book.owner.get_mut(info.tag as usize).and_then(Option::take);
            let clean = info.is_ok() && !info.data_invalid && info.data.len() == 64;
            out.check(clean, || {
                format!("tag {}: unclean response {:?}", info.tag, info.status)
            });
            let Some(burst) = owner else {
                out.check(false, || {
                    format!("response for tag {} that is not outstanding", info.tag)
                });
                out.failed += 1;
                continue;
            };
            if clean {
                pass.answered += 1;
            } else {
                out.failed += 1;
            }
            book.remaining[burst] -= 1;
            if book.remaining[burst] == 0 {
                pass.batch_ms.push(ms(book.started[burst].elapsed()));
            }
        }
    }
    Ok(())
}

/// One pass over every burst. Generic over the probe so the untraced
/// instantiation reads no clock around calls.
fn run_pass<P: Probe>(
    sim: &mut HmcSim,
    ops: &[Op],
    probe: &mut P,
    out: &mut Outcome,
) -> Result<Pass, HmcError> {
    let payload: Vec<u8> = (0..64u8).collect();
    let bursts = ops.len() / BURST;
    let mut book = Book {
        owner: vec![None; 512],
        next_tag: 0,
        remaining: vec![0; bursts],
        started: Vec::with_capacity(bursts),
    };
    let mut pass = Pass {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Pass::default()
    };
    let t0 = Instant::now();
    for (b, burst) in ops.chunks_exact(BURST).enumerate() {
        book.started.push(Instant::now());
        book.remaining[b] = burst.iter().filter(|op| op.read).count() as u32;
        for (i, op) in burst.iter().enumerate() {
            let link = (i % LINKS as usize) as LinkId;
            let (cmd, tag, data): (Command, u16, &[u8]) = if op.read {
                let Some(tag) = book.alloc(b) else {
                    return Err(HmcError::Internal("no free read tag".into()));
                };
                pass.reads += 1;
                (Command::Rd(BlockSize::B64), tag, &[])
            } else {
                pass.posted += 1;
                (Command::PostedWr(BlockSize::B64), POSTED_TAG, &payload)
            };
            loop {
                let packet = timed(probe, Call::PacketRequest, || {
                    Packet::request(cmd, 0, op.addr, tag, link, data)
                })?;
                pass.send_calls += 1;
                match timed(probe, Call::Send, || sim.send(0, link, packet)) {
                    Ok(()) => break,
                    Err(e) if e.is_stall() => {
                        pass.send_stalls += 1;
                        timed(probe, Call::ClockBatchBurst, || sim.clock_batch(1))?;
                        pass.burst_cycles += 1;
                        drain(sim, probe, &mut book, &mut pass, out)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        // Busy phase: the host clocks one cycle at a time and drains
        // while the burst's reads are out, as a polling host would.
        if book.remaining[b] == 0 {
            pass.batch_ms.push(ms(book.started[b].elapsed()));
        }
        while book.remaining[b] > 0 {
            timed(probe, Call::ClockBatchBurst, || sim.clock_batch(1))?;
            pass.burst_cycles += 1;
            drain(sim, probe, &mut book, &mut pass, out)?;
            if pass.burst_cycles > MAX_BURST_CYCLES {
                return Err(HmcError::Internal("burst never completed".into()));
            }
        }
        // Idle phase: one batched advance over the gap.
        timed(probe, Call::ClockBatchGap, || sim.clock_batch(GAP))?;
        pass.gap_cycles += GAP;
        drain(sim, probe, &mut book, &mut pass, out)?;
    }
    while !sim.is_idle() {
        timed(probe, Call::ClockBatchGap, || sim.clock_batch(64))?;
        pass.gap_cycles += 64;
        drain(sim, probe, &mut book, &mut pass, out)?;
    }
    pass.wall = t0.elapsed();
    pass.stats = sim.stats();

    let requests = pass.reads + pass.posted;
    out.attempted += requests;
    // A posted write is done once the device accepts it; a read once
    // its one clean response is back.
    out.failed += pass.reads.saturating_sub(pass.answered);
    out.check(pass.answered == pass.reads, || {
        format!("{} reads, {} clean responses", pass.reads, pass.answered)
    });
    let open = book.owner.iter().filter(|o| o.is_some()).count();
    out.check(open == 0, || format!("{open} read tags still outstanding"));
    out.check(pass.stats.sent == requests, || {
        format!(
            "{requests} requests, {} accepted by the device",
            pass.stats.sent
        )
    });
    Ok(pass)
}

/// Does `pass` repeat `reference` in everything simulated?
fn same(pass: &Pass, reference: &Pass) -> bool {
    pass.stats == reference.stats
        && pass.digest == reference.digest
        && pass.send_stalls == reference.send_stalls
}

fn check_same(out: &mut Outcome, what: &str, pass: &Pass, reference: &Pass) {
    out.check(same(pass, reference), || {
        format!(
            "{what} differs from the reference pass: {:?} (digest {:x}) vs {:?} (digest {:x})",
            pass.stats, pass.digest, reference.stats, reference.digest
        )
    });
}

/// End-to-end run: set up, an untimed warm-up pass, then timed passes
/// for `seconds`, each on a fresh device and checked against the warm-up.
pub fn measure(seed: u32, seconds: f64) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let (ops, setups) = setups(seed)?;
    let mut checks = Outcome::default();
    let reference = run_pass(
        &mut build(true, &mut SetupTimes::default())?,
        &ops,
        &mut Off,
        &mut checks,
    )?;
    out.problems.extend(checks.problems);

    let mut passes = Vec::new();
    let mut windows = Vec::new();
    let mut batches = 0;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut sim = build(true, &mut SetupTimes::default())?;
        let mut pass = run_pass(&mut sim, &ops, &mut Off, &mut out)?;
        check_same(&mut out, "timed pass", &pass, &reference);
        // Keep a summary only: holding every pass's samples would make
        // peak RSS grow with the number of passes.
        windows.push(tails(&pass.batch_ms));
        batches += pass.batch_ms.len();
        pass.latencies = Vec::new();
        pass.batch_ms = Vec::new();
        passes.push(pass);
    }

    let n = passes.len();
    // Work over time summed across passes, not a median of pass rates:
    // pass rates on the reference host fall into two modes about 1.5x
    // apart, and a median jumps between them as their shares change.
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let rate = |f: fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64 / wall;
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    out.push("req_per_s", rate(|p| p.answered + p.posted), "1/s", n);
    out.push("sim_cycles_per_s", rate(|p| p.stats.cycles), "1/s", n);
    out.push("sim_cycles", reference.stats.cycles as f64, "cycles", n);
    out.push(
        "sim_lat_p99_cycles",
        grouped_percentile(&reference.latencies, 99.0),
        "cycles",
        reference.latencies.len(),
    );
    push_batch_tails(&mut out, &windows, batches);
    out.push("setup_s", median(&setup_s), "s", setups.len());
    Ok(out)
}

/// Traced run: an untraced fast-forward reference pass, an untraced
/// stepped pass that must match it exactly, then traced passes for
/// `seconds`.
pub fn trace(seed: u32, seconds: f64, trace: &mut Trace) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let (ops, setups) = setups(seed)?;
    let reference = run_pass(
        &mut build(true, &mut SetupTimes::default())?,
        &ops,
        &mut Off,
        &mut out,
    )?;
    let stepped = run_pass(
        &mut build(false, &mut SetupTimes::default())?,
        &ops,
        &mut Off,
        &mut out,
    )?;
    check_same(&mut out, "stepped pass", &stepped, &reference);

    let mut walls = Vec::new();
    let mut last = Pass::default();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut sim = build(true, &mut SetupTimes::default())?;
        trace.begin_pass("gapped-ddr-mesh.pass");
        let pass = run_pass(&mut sim, &ops, trace, &mut out)?;
        trace.end_pass();
        check_same(&mut out, "traced pass", &pass, &reference);
        walls.push(pass.wall);
        last = pass;
    }

    let per = |call: Call, cycles: u64| trace.stat(call).total_ns as f64 / cycles.max(1) as f64;
    let passes = walls.len() as u64;
    out.push(
        "core.clock_batch.gap_ns_per_cycle",
        per(Call::ClockBatchGap, last.gap_cycles * passes),
        "ns",
        trace.stat(Call::ClockBatchGap).calls as usize,
    );
    out.push(
        "core.clock_batch.burst_ns_per_cycle",
        per(Call::ClockBatchBurst, last.burst_cycles * passes),
        "ns",
        trace.stat(Call::ClockBatchBurst).calls as usize,
    );
    for (name, call) in [
        ("core.send.ns", Call::Send),
        ("core.recv.ns", Call::Recv),
        ("types.packet_request.ns", Call::PacketRequest),
    ] {
        let s = trace.stat(call);
        out.push(name, s.mean_ns(), "ns", s.calls as usize);
    }
    out.push(
        "core.send.stall_ratio",
        last.send_stalls as f64 / last.send_calls.max(1) as f64,
        "ratio",
        (last.send_calls * passes) as usize,
    );
    out.push(
        "core.fast_forward.speedup",
        stepped.wall.as_secs_f64() / reference.wall.as_secs_f64(),
        "ratio",
        1,
    );
    push_setup_parts(&mut out, &setups);
    crate::push_sim_counters(&mut out, &[reference.stats]);
    out.push(
        "trace.gapped-ddr-mesh.overhead_ms",
        ms(walls[0]) - ms(reference.wall),
        "ms",
        1,
    );
    Ok(out)
}
