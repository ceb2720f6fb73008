//! `table1-random`: the paper's §VI.A random-access harness, the four
//! Table I device configurations back to back.
//!
//! GNU-LCG random 64-byte requests, 50/50 read/write, classic timing,
//! crossbar, timing-only storage, stepped engine: exactly what the
//! `table1` binary runs, through `hmc_host::run_workload`. The cost is
//! per request (~76 retire per simulated cycle), so host-side
//! `try_issue`, the stepped `clock` and `drain` dominate; fast-forward,
//! the NoC, DDR, functional storage and serve do no work here.

use std::time::{Duration, Instant};

use hmc_core::{topology, HmcSim, SimStats};
use hmc_host::{run_workload_captured, run_workload_with_progress, Host, HostStats, RunConfig};
use hmc_types::{DeviceConfig, HmcError, StorageMode};
use hmc_workloads::{MemOp, RandomAccess, Replay, Workload};

use crate::stats::{grouped_percentile, median, ms, push_batch_tails, tails, Outcome};
use crate::trace::{timed, Call, Trace};

/// Run 1/SCALE of the paper's 33,554,432 requests per configuration.
pub const SCALE: u64 = 128;
/// A batch is this many consecutive requests of the stream.
pub const BATCH_REQUESTS: u64 = 1024;
const SETUP_REPEATS: usize = 25;
const TARGET: u8 = 0;

/// Set-up cost of one repetition, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub sim_new: Duration,
    pub topology: Duration,
    pub ops: u64,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.sim_new + self.topology
    }
}

/// Everything that must repeat exactly between runs of one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    cycles: u64,
    host: HostStats,
    sim: SimStats,
}

fn configs() -> Vec<DeviceConfig> {
    DeviceConfig::paper_configs()
        .into_iter()
        .map(|(_, cfg)| cfg.with_storage_mode(StorageMode::TimingOnly))
        .collect()
}

/// Build one configuration the way the `table1` harness does: one
/// device, every link to the host, serial engine. The device starts
/// empty: cycle 0, idle banks and queues.
fn build(cfg: &DeviceConfig, times: &mut SetupTimes) -> Result<(HmcSim, Host), HmcError> {
    let t0 = Instant::now();
    let mut sim = HmcSim::new(1, cfg.clone())?.with_threads(1);
    let t1 = Instant::now();
    let host_id = sim.host_cube_id(0);
    topology::build_simple(&mut sim, host_id)?;
    let host = Host::attach(&sim, host_id)?;
    times.sim_new += t1 - t0;
    times.topology += t1.elapsed();
    Ok((sim, host))
}

/// One set-up repetition: generate the request stream into `ops`,
/// build all four devices.
fn setup(seed: u32, ops: &mut Vec<MemOp>) -> Result<SetupTimes, HmcError> {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    ops.clear();
    let mut stream = RandomAccess::paper_scaled(seed, SCALE);
    while let Some(op) = stream.next_op() {
        ops.push(op);
    }
    times.generate = t0.elapsed();
    times.ops = ops.len() as u64;
    for cfg in configs() {
        build(&cfg, &mut times)?;
    }
    Ok(times)
}

/// Set up [`SETUP_REPEATS`] times. Every repetition regenerates into
/// the same buffer: otherwise whether the allocator hands back pages
/// that are already mapped splits the timings into two modes 2× apart.
fn setups(seed: u32) -> Result<(Replay, Vec<SetupTimes>), HmcError> {
    let mut ops = Vec::new();
    let all = (0..SETUP_REPEATS)
        .map(|_| setup(seed, &mut ops))
        .collect::<Result<_, _>>()?;
    Ok((Replay::new(ops), all))
}

/// Check one configuration's run and count its failed requests.
fn check_run(out: &mut Outcome, label: &str, requests: u64, sim: &HmcSim, host: &Host) {
    let s = host.stats;
    let clean = s.completed.saturating_sub(s.errors);
    out.attempted += requests;
    out.failed += requests.saturating_sub(clean) + s.orphans + s.completed.saturating_sub(requests);
    out.check(s.injected == requests && s.completed == requests, || {
        format!(
            "{label}: {requests} requests, {} injected, {} answered",
            s.injected, s.completed
        )
    });
    out.check(s.errors == 0 && s.orphans == 0, || {
        format!(
            "{label}: {} error and {} orphan responses",
            s.errors, s.orphans
        )
    });
    out.check(host.outstanding() == 0 && sim.is_idle(), || {
        format!(
            "{label}: {} tags outstanding at the end",
            host.outstanding()
        )
    });
}

fn fingerprint(sim: &HmcSim, host: &Host) -> Fingerprint {
    Fingerprint {
        cycles: sim.current_clock(),
        host: host.stats,
        sim: sim.stats(),
    }
}

/// The untimed warm-up pass: reference fingerprints and every
/// response latency, through `run_workload_captured`.
fn warm_up(ops: &mut Replay, out: &mut Outcome) -> Result<(Vec<Fingerprint>, Vec<u64>), HmcError> {
    let mut prints = Vec::new();
    let mut latencies = Vec::new();
    for (i, cfg) in configs().iter().enumerate() {
        let (mut sim, mut host) = build(cfg, &mut SetupTimes::default())?;
        ops.rewind();
        let (_, captured) = run_workload_captured(&mut sim, &mut host, ops, RunConfig::default())?;
        latencies.extend(captured.iter().map(|r| r.latency));
        let mut checks = Outcome::default();
        check_run(
            &mut checks,
            &format!("warm-up config {i}"),
            ops.len() as u64,
            &sim,
            &host,
        );
        out.problems.extend(checks.problems);
        prints.push(fingerprint(&sim, &host));
    }
    Ok((prints, latencies))
}

#[derive(Default)]
struct Pass {
    wall: Duration,
    requests: u64,
    cycles: u64,
    batch_ms: Vec<f64>,
}

/// One timed pass through `run_workload`. Construction is outside the
/// timed spans; batch boundaries come from `run_workload`'s progress
/// callback, invoked every cycle with the accepted-request count.
fn timed_pass(
    ops: &mut Replay,
    reference: &[Fingerprint],
    out: &mut Outcome,
) -> Result<Pass, HmcError> {
    let mut pass = Pass::default();
    for (i, cfg) in configs().iter().enumerate() {
        let (mut sim, mut host) = build(cfg, &mut SetupTimes::default())?;
        ops.rewind();
        let cfg = RunConfig {
            progress_every: 1,
            ..RunConfig::default()
        };
        let mut marks = Vec::with_capacity(ops.len() / BATCH_REQUESTS as usize + 2);
        let mut next = BATCH_REQUESTS;
        let t0 = Instant::now();
        marks.push(t0);
        run_workload_with_progress(&mut sim, &mut host, ops, cfg, |_, injected| {
            while injected >= next {
                marks.push(Instant::now());
                next += BATCH_REQUESTS;
            }
        })?;
        pass.wall += t0.elapsed();
        pass.batch_ms
            .extend(marks.windows(2).map(|w| ms(w[1] - w[0])));
        let requests = ops.len() as u64;
        check_run(out, &format!("config {i}"), requests, &sim, &host);
        let print = fingerprint(&sim, &host);
        out.check(print == reference[i], || {
            format!(
                "config {i}: run differs from the warm-up run: {print:?} vs {:?}",
                reference[i]
            )
        });
        pass.requests += requests;
        pass.cycles += print.cycles;
    }
    Ok(pass)
}

/// End-to-end run: set up, warm up, then timed passes for `seconds`.
pub fn measure(seed: u32, seconds: f64) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let (mut ops, setups) = setups(seed)?;
    let (reference, latencies) = warm_up(&mut ops, &mut out)?;

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(timed_pass(&mut ops, &reference, &mut out)?);
    }

    // Totals over all passes rather than a median of pass rates (see
    // `gapped::measure`).
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let requests: u64 = passes.iter().map(|p| p.requests).sum();
    let cycles: u64 = passes.iter().map(|p| p.cycles).sum();
    let windows: Vec<[f64; 3]> = passes.iter().map(|p| tails(&p.batch_ms)).collect();
    let batches = passes.iter().map(|p| p.batch_ms.len()).sum();
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    let n = passes.len();
    out.push("req_per_s", requests as f64 / wall, "1/s", n);
    out.push("sim_cycles_per_s", cycles as f64 / wall, "1/s", n);
    out.push("sim_cycles", passes[0].cycles as f64, "cycles", n);
    out.push(
        "sim_lat_p99_cycles",
        grouped_percentile(&latencies, 99.0),
        "cycles",
        latencies.len(),
    );
    push_batch_tails(&mut out, &windows, batches);
    out.push("setup_s", median(&setup_s), "s", setups.len());
    Ok(out)
}

/// The traced loop: `hmc_host::run_workload`'s inject-until-stall,
/// clock, drain schedule written out so each call can be timed. It
/// must reproduce the untraced run exactly.
fn traced_run(
    sim: &mut HmcSim,
    host: &mut Host,
    ops: &mut Replay,
    trace: &mut Trace,
    counts: &mut TraceCounts,
) -> Result<(), HmcError> {
    let max_cycles = RunConfig::default().max_cycles;
    let mut pending = None;
    let mut exhausted = false;
    loop {
        loop {
            let op = match pending.take() {
                Some(op) => op,
                None => match ops.next_op() {
                    Some(op) => op,
                    None => {
                        exhausted = true;
                        break;
                    }
                },
            };
            let accepted = timed(trace, Call::TryIssue, || host.try_issue(sim, TARGET, &op))?;
            counts.issue_calls += 1;
            if accepted {
                counts.issue_accepted += 1;
                continue;
            }
            pending = Some(op);
            break;
        }
        timed(trace, Call::Clock, || sim.clock())?;
        counts.responses += timed(trace, Call::Drain, || host.drain(sim))? as u64;
        if exhausted && pending.is_none() && host.outstanding() == 0 {
            let mut settle = 0u32;
            while !sim.is_idle() && settle < 10_000 {
                timed(trace, Call::Clock, || sim.clock())?;
                counts.responses += timed(trace, Call::Drain, || host.drain(sim))? as u64;
                settle += 1;
            }
            return Ok(());
        }
        if sim.current_clock() > max_cycles {
            return Err(HmcError::Internal("traced run exceeded max_cycles".into()));
        }
    }
}

#[derive(Default)]
struct TraceCounts {
    issue_calls: u64,
    issue_accepted: u64,
    responses: u64,
}

/// Traced run: an untraced reference pass, then traced passes of the
/// hand-written loop for `seconds`, each checked against the reference.
pub fn trace(seed: u32, seconds: f64, trace: &mut Trace) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let (mut ops, setups) = setups(seed)?;
    let (reference, _) = warm_up(&mut ops, &mut out)?;
    let untraced = timed_pass(&mut ops, &reference, &mut out)?;

    let mut counts = TraceCounts::default();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut wall = Duration::ZERO;
        trace.begin_pass("table1-random.pass");
        for (i, cfg) in configs().iter().enumerate() {
            let (mut sim, mut host) = build(cfg, &mut SetupTimes::default())?;
            ops.rewind();
            let t0 = Instant::now();
            traced_run(&mut sim, &mut host, &mut ops, trace, &mut counts)?;
            wall += t0.elapsed();
            let requests = ops.len() as u64;
            check_run(
                &mut out,
                &format!("traced config {i}"),
                requests,
                &sim,
                &host,
            );
            let print = fingerprint(&sim, &host);
            out.check(print == reference[i], || {
                format!(
                    "traced config {i} differs from run_workload: {print:?} vs {:?}",
                    reference[i]
                )
            });
        }
        trace.end_pass();
        walls.push(wall);
    }

    let next_op_ns: Vec<f64> = setups
        .iter()
        .map(|t| t.generate.as_nanos() as f64 / t.ops.max(1) as f64)
        .collect();
    out.push(
        "workloads.next_op.ns",
        median(&next_op_ns),
        "ns",
        setups.len(),
    );
    let issue = trace.stat(Call::TryIssue);
    out.push(
        "host.try_issue.ns",
        issue.mean_ns(),
        "ns",
        issue.calls as usize,
    );
    out.push(
        "host.try_issue.accept_ratio",
        counts.issue_accepted as f64 / counts.issue_calls.max(1) as f64,
        "ratio",
        counts.issue_calls as usize,
    );
    let drain = trace.stat(Call::Drain);
    out.push(
        "host.drain.ns_per_rsp",
        drain.total_ns as f64 / counts.responses.max(1) as f64,
        "ns",
        counts.responses as usize,
    );
    let clock = trace.stat(Call::Clock);
    out.push("core.clock.ns", clock.mean_ns(), "ns", clock.calls as usize);
    push_setup_parts(&mut out, &setups);

    let host = |f: fn(&HostStats) -> u64| reference.iter().map(|p| f(&p.host)).sum::<u64>() as f64;
    out.push(
        "host.send_stalls",
        host(|h| h.send_stalls),
        "count",
        reference.len(),
    );
    out.push(
        "host.tag_stalls",
        host(|h| h.tag_stalls),
        "count",
        reference.len(),
    );
    let sims: Vec<SimStats> = reference.iter().map(|p| p.sim).collect();
    crate::push_sim_counters(&mut out, &sims);
    out.push(
        "trace.table1-random.overhead_ms",
        ms(walls[0]) - ms(untraced.wall),
        "ms",
        1,
    );
    Ok(out)
}

/// Per-layer set-up metrics: the median of each part over the set-ups.
pub fn push_setup_parts(out: &mut Outcome, setups: &[SetupTimes]) {
    let part = |f: fn(&SetupTimes) -> Duration| {
        median(&setups.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    out.push("setup.sim_new.ms", part(|t| t.sim_new), "ms", setups.len());
    out.push(
        "setup.topology.ms",
        part(|t| t.topology),
        "ms",
        setups.len(),
    );
    out.push(
        "setup.generate.ms",
        part(|t| t.generate),
        "ms",
        setups.len(),
    );
}
