//! `serve-closed`: the `hmc-serve` daemon over a Unix socket, driven
//! closed-loop by two client connections with one `4l8b` session each.
//!
//! The daemon runs in this process (so `peak_rss_mb` covers the
//! process that simulates) and is reached only through its socket. The
//! `4l8b` preset uses functional storage, so `hmc-mem` really stores
//! and returns the written data. This is the only workload that runs
//! the wire codec, the session manager, the pump and the worker pool.
//!
//! Closed loop: each connection has its own load thread and keeps one
//! batch in flight: submit a batch, poll until as many responses as
//! ops are back, submit the next. The window (one batch) is far below
//! the session `inflight_limit`, so a submit is never refused with BUSY
//! and the loop never backs off. After an empty poll the thread yields
//! its CPU and polls again; it never sleeps, so batch times measure the
//! server, not the client. The daemon runs one worker: with two, the
//! two pumps and the two load threads oversubscribe the reference
//! host's two cores, and throughput varied by about 17% between runs of
//! the same code.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmc_serve::{workload_to_wire, Client, DrainOutcome, Server, ServerConfig, SubmitResult};
use hmc_types::{BlockSize, HmcError, WireOp, WireResponse};
use hmc_workloads::RandomAccess;

use crate::stats::{
    grouped_percentile, median, ms, percentile, push_batch_tails, windowed_tails, Outcome,
};
use crate::trace::{timed, Call, Off, Probe, Trace};

pub const PRESET: &str = "4l8b";
/// Client connections, one session each; at most `nproc` on the
/// reference host.
pub const CONNECTIONS: usize = 2;
/// Operations per submit. The window is one batch.
pub const BATCH: usize = 512;
/// Operations per connection in one pass.
pub const OPS_PER_PASS: u64 = 32_768;
/// Daemon worker threads pumping sessions.
const WORKERS: usize = 1;
const WORKING_SET: u64 = 2 << 30;
const SETUP_REPEATS: usize = 5;
/// A batch with no new response for this long counts as lost.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// The daemon, running on its own thread. Dropping it stops it.
struct Daemon {
    flag: Arc<AtomicBool>,
    thread: Option<JoinHandle<DrainOutcome>>,
}

impl Daemon {
    fn start(socket: &Path) -> Result<Daemon, HmcError> {
        let mut server = Server::new(ServerConfig {
            max_sessions: CONNECTIONS,
            threads: WORKERS,
            idle_timeout: None,
            ..ServerConfig::default()
        });
        server.bind_uds(socket)?;
        let flag = server.shutdown_flag();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.run(Duration::from_secs(10)))
            .map_err(|e| HmcError::Internal(format!("spawn daemon: {e}")))?;
        Ok(Daemon {
            flag,
            thread: Some(thread),
        })
    }

    /// Graceful drain; `Drained` when every session quiesced in time.
    fn stop(mut self) -> DrainOutcome {
        self.flag.store(true, Ordering::SeqCst);
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(outcome)) => outcome,
            _ => DrainOutcome::TimedOut,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One client connection with its open session and its op stream.
struct Conn {
    client: Client,
    session: u64,
    ops: Vec<WireOp>,
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupParts {
    generate: Duration,
    open_session: Duration,
    total: Duration,
}

fn socket_path() -> Result<PathBuf, HmcError> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir)
        .map_err(|e| HmcError::Internal(format!("{}: {e}", dir.display())))?;
    Ok(dir.join(format!("serve-{}.sock", std::process::id())))
}

/// Generate the ops, start the daemon, connect, open the sessions.
fn setup_once(seed: u32, socket: &Path) -> Result<(Daemon, Vec<Conn>, SetupParts), HmcError> {
    let mut parts = SetupParts::default();
    let t0 = Instant::now();
    let streams: Vec<Vec<WireOp>> = (0..CONNECTIONS as u32)
        .map(|c| {
            let mut w = RandomAccess::new(
                seed.wrapping_add(c),
                WORKING_SET,
                BlockSize::B64,
                50,
                OPS_PER_PASS,
            );
            workload_to_wire(&mut w)
        })
        .collect();
    parts.generate = t0.elapsed();
    let daemon = Daemon::start(socket)?;
    let mut conns = Vec::new();
    for ops in streams {
        let mut client = Client::connect_uds(socket)?;
        let t = Instant::now();
        let session = client.open_session_preset(PRESET, 0, 0)?;
        parts.open_session += t.elapsed();
        conns.push(Conn {
            client,
            session,
            ops,
        });
    }
    parts.open_session /= CONNECTIONS as u32;
    parts.total = t0.elapsed();
    Ok((daemon, conns, parts))
}

/// Close every session and stop the daemon, checking it drained.
fn teardown(daemon: Daemon, conns: Vec<Conn>, out: &mut Outcome) -> Result<(), HmcError> {
    for mut conn in conns {
        let stats = conn.client.close(conn.session)?;
        out.check(stats.outstanding == 0 && stats.orphans == 0, || {
            format!(
                "session closed with {} outstanding and {} orphan responses",
                stats.outstanding, stats.orphans
            )
        });
    }
    let drained = daemon.stop() == DrainOutcome::Drained;
    out.check(drained, || "daemon did not drain cleanly".to_string());
    Ok(())
}

fn setups(seed: u32, out: &mut Outcome) -> Result<(Daemon, Vec<Conn>, Vec<SetupParts>), HmcError> {
    let socket = socket_path()?;
    let mut parts = Vec::new();
    loop {
        let (daemon, conns, p) = setup_once(seed, &socket)?;
        parts.push(p);
        if parts.len() == SETUP_REPEATS {
            return Ok((daemon, conns, parts));
        }
        teardown(daemon, conns, out)?;
    }
}

/// A read returns either never-written zeros or the host's write
/// pattern for its 64-byte-aligned address: byte i = (addr as u8) + i.
fn read_data_ok(data: &[u8]) -> bool {
    let zeros = data.iter().all(|&b| b == 0);
    let pattern = data[0].is_multiple_of(64)
        && data
            .iter()
            .enumerate()
            .all(|(i, &b)| b == data[0].wrapping_add(i as u8));
    zeros || pattern
}

/// What the load thread measured and checked.
#[derive(Default)]
struct Run {
    out: Outcome,
    /// Per pass: wall time and simulated cycles the session advanced.
    passes: Vec<(Duration, u64)>,
    /// Simulated cycles of the session after the first pass.
    first_cycles: u64,
    first_latencies: Vec<u64>,
    /// Batch times, in the order they completed.
    batch_ms: Vec<f64>,
    /// Time from one batch's completion to the next one's: a batch
    /// plus the client's own work between batches.
    interval_ms: Vec<f64>,
    submits: u64,
    busy: u64,
    polls: u64,
    empty_polls: u64,
}

/// One connection's batch in flight.
struct InFlight {
    start: Instant,
    expected: usize,
    reads: usize,
    got: Vec<WireResponse>,
}

/// Submit a whole batch (BUSY is counted and resubmitted at once; with
/// a one-batch window it does not occur).
fn submit<P: Probe>(
    conn: &mut Conn,
    batch: &[WireOp],
    probe: &mut P,
    run: &mut Run,
) -> Result<InFlight, HmcError> {
    let start = Instant::now();
    let mut rest = batch;
    while !rest.is_empty() {
        run.submits += 1;
        match timed(probe, Call::Submit, || {
            conn.client.submit(conn.session, rest)
        })? {
            SubmitResult::Accepted { accepted, .. } => rest = &rest[accepted as usize..],
            SubmitResult::Busy { .. } => run.busy += 1,
        }
    }
    Ok(InFlight {
        start,
        expected: batch.len(),
        reads: batch.iter().filter(|o| o.kind == WireOp::KIND_READ).count(),
        got: Vec::with_capacity(batch.len()),
    })
}

/// Check a fully answered batch: exactly one clean response per op,
/// read data that is zeros or the write pattern, tag balance zero.
fn check_batch(b: &InFlight, outstanding: u32, out: &mut Outcome) {
    let clean = b
        .got
        .iter()
        .filter(|r| {
            r.ok && r.status == 0
                && match r.data.len() {
                    0 => true,
                    64 => read_data_ok(&r.data),
                    _ => false,
                }
        })
        .count();
    let read_rsps = b.got.iter().filter(|r| r.data.len() == 64).count();
    out.attempted += b.expected as u64;
    out.failed +=
        b.expected.saturating_sub(clean) as u64 + b.got.len().saturating_sub(b.expected) as u64;
    out.check(clean == b.got.len(), || {
        format!(
            "{} of {} responses are errors or carry bad data",
            b.got.len() - clean,
            b.got.len()
        )
    });
    out.check(b.got.len() == b.expected && read_rsps == b.reads, || {
        format!(
            "batch of {} ops ({} reads): {} responses, {read_rsps} with read data",
            b.expected,
            b.reads,
            b.got.len()
        )
    });
    out.check(outstanding == 0, || {
        format!("tag balance {outstanding} after a full batch")
    });
}

/// One pass over the connection's op stream, one batch in flight at a
/// time. Returns false when a batch stalled past [`STALL_LIMIT`].
fn run_pass<P: Probe>(
    conn: &mut Conn,
    ops: &[WireOp],
    probe: &mut P,
    run: &mut Run,
    mut latencies: Option<&mut Vec<u64>>,
) -> Result<bool, HmcError> {
    let mut last_done = Instant::now();
    for batch in ops.chunks(BATCH) {
        let mut flight = submit(conn, batch, probe, run)?;
        let mut progress = Instant::now();
        let outstanding = loop {
            run.polls += 1;
            let poll = timed(probe, Call::Poll, || conn.client.poll(conn.session, 0))?;
            if !poll.items.is_empty() {
                progress = Instant::now();
                flight.got.extend(poll.items);
                if flight.got.len() >= flight.expected {
                    break poll.outstanding;
                }
                continue;
            }
            run.empty_polls += 1;
            if progress.elapsed() > STALL_LIMIT {
                run.out.attempted += flight.expected as u64;
                run.out.failed += (flight.expected - flight.got.len()) as u64;
                run.out.check(false, || {
                    format!(
                        "batch stalled with {} of {} responses",
                        flight.got.len(),
                        flight.expected
                    )
                });
                return Ok(false);
            }
            std::thread::yield_now();
        };
        let done = Instant::now();
        run.batch_ms.push(ms(done - flight.start));
        run.interval_ms.push(ms(done - last_done));
        last_done = done;
        check_batch(&flight, outstanding, &mut run.out);
        if let Some(lat) = latencies.as_deref_mut() {
            lat.extend(flight.got.iter().map(|r| r.latency));
        }
    }
    Ok(true)
}

/// The session's simulated cycles, checking its counters on the way.
fn session_cycles(conn: &mut Conn, out: &mut Outcome) -> Result<u64, HmcError> {
    let stats = conn.client.stats(conn.session)?;
    out.check(
        stats.errors == 0 && stats.orphans == 0 && stats.completed == stats.injected,
        || {
            format!(
                "session stats: {} injected, {} completed, {} errors, {} orphans",
                stats.injected, stats.completed, stats.errors, stats.orphans
            )
        },
    );
    Ok(stats.cycles)
}

/// Run passes until `deadline` (at least one, at most `max_passes`),
/// calling `on_pass` as each starts.
fn drive<P: Probe>(
    conn: &mut Conn,
    probe: &mut P,
    deadline: Instant,
    max_passes: usize,
    on_pass: fn(&mut P),
) -> Result<Run, HmcError> {
    let mut run = Run::default();
    let ops = std::mem::take(&mut conn.ops);
    let mut cycles = session_cycles(conn, &mut run.out)?;
    while run.passes.len() < max_passes && (run.passes.is_empty() || Instant::now() < deadline) {
        on_pass(probe);
        let first = run.passes.is_empty();
        let mut latencies = Vec::new();
        let t0 = Instant::now();
        let finished = run_pass(conn, &ops, probe, &mut run, first.then_some(&mut latencies))?;
        let wall = t0.elapsed();
        let now = session_cycles(conn, &mut run.out)?;
        run.passes.push((wall, now - cycles));
        cycles = now;
        if first {
            run.first_cycles = now;
            run.first_latencies = latencies;
        }
        if !finished {
            break;
        }
    }
    conn.ops = ops;
    Ok(run)
}

/// Drive each connection from its own load thread, each with its own
/// probe.
fn drive_all<P: Probe + Send>(
    conns: &mut [Conn],
    probes: Vec<P>,
    deadline: Instant,
    max_passes: usize,
    on_pass: fn(&mut P),
) -> Result<Vec<(Run, P)>, HmcError> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(probes)
            .map(|(conn, mut probe)| {
                s.spawn(move || {
                    drive(conn, &mut probe, deadline, max_passes, on_pass).map(|r| (r, probe))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

fn drive_plain(
    conns: &mut [Conn],
    deadline: Instant,
    max_passes: usize,
) -> Result<Vec<Run>, HmcError> {
    Ok(
        drive_all(conns, vec![Off; conns.len()], deadline, max_passes, |_| {})?
            .into_iter()
            .map(|(run, _)| run)
            .collect(),
    )
}

fn absorb_runs(out: &mut Outcome, runs: &[Run]) {
    for run in runs {
        out.absorb_checks(&run.out);
    }
}

/// End-to-end run: set up (several times; the last daemon serves), one
/// untimed warm-up pass on the fresh sessions (the devices start empty,
/// as in the paper harness; simulated cycles and latencies come from
/// it), then timed passes for `seconds` on the same sessions.
pub fn measure(seed: u32, seconds: f64) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let (daemon, mut conns, setups) = setups(seed, &mut out)?;
    let warm = drive_plain(&mut conns, Instant::now(), 1)?;
    for run in &warm {
        out.problems.extend(run.out.problems.iter().cloned());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let runs = drive_plain(&mut conns, deadline, usize::MAX)?;
    absorb_runs(&mut out, &runs);
    teardown(daemon, conns, &mut out)?;

    // Each connection's throughput at its median batch interval: a
    // burst of host noise slows some batches and moves this little.
    let ops_rate: f64 = runs
        .iter()
        .map(|r| BATCH as f64 * 1e3 / median(&r.interval_ms))
        .sum();
    let timed_cycles: u64 = runs.iter().flat_map(|r| r.passes.iter().map(|p| p.1)).sum();
    let timed_ops = runs.iter().map(|r| r.passes.len()).sum::<usize>() as u64 * OPS_PER_PASS;
    let cycle_rate = ops_rate * timed_cycles as f64 / timed_ops as f64;
    let latencies: Vec<u64> = warm
        .iter()
        .flat_map(|r| r.first_latencies.iter().copied())
        .collect();
    let batches: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.batch_ms.iter().copied())
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|p| p.total.as_secs_f64()).collect();
    let n = runs.iter().map(|r| r.interval_ms.len()).sum();
    out.push("req_per_s", ops_rate, "1/s", n);
    out.push("sim_cycles_per_s", cycle_rate, "1/s", n);
    out.push(
        "sim_cycles",
        warm.iter().map(|r| r.first_cycles).sum::<u64>() as f64,
        "cycles",
        CONNECTIONS,
    );
    out.push(
        "sim_lat_p99_cycles",
        grouped_percentile(&latencies, 99.0),
        "cycles",
        latencies.len(),
    );
    push_batch_tails(&mut out, &windowed_tails(&batches), batches.len());
    out.push("setup_s", median(&setup_s), "s", setups.len());
    Ok(out)
}

/// Traced run: two untraced passes, then traced passes for `seconds`
/// on the same sessions.
pub fn trace(seed: u32, seconds: f64, trace: &mut Trace) -> Result<Outcome, HmcError> {
    let mut out = Outcome::default();
    let mut reference = Vec::new();
    let (daemon, mut conns, setups) = setups(seed, &mut out)?;
    // The first pass fills the sessions' storage; the overhead is
    // measured against the second, like the traced passes after it.
    for _ in 0..2 {
        let untraced = drive_plain(&mut conns, Instant::now(), 1)?;
        absorb_runs(&mut out, &untraced);
        reference = untraced;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let probes = conns.iter().map(|_| Trace::new(trace.epoch())).collect();
    let traced = drive_all(&mut conns, probes, deadline, usize::MAX, |t| {
        t.end_pass();
        t.begin_pass("serve-closed.pass");
    })?;
    teardown(daemon, conns, &mut out)?;
    let mut runs = Vec::new();
    for (run, mut t) in traced {
        t.end_pass();
        trace.absorb(t);
        runs.push(run);
    }
    absorb_runs(&mut out, &runs);

    for (name, call) in [
        ("serve.submit.rtt_us", Call::Submit),
        ("serve.poll.rtt_us", Call::Poll),
    ] {
        let us: Vec<f64> = trace.durations_ns(call).iter().map(|ns| ns / 1e3).collect();
        out.push(&format!("{name}.p50"), median(&us), "us", us.len());
        out.push(
            &format!("{name}.p99"),
            percentile(&us, 99.0),
            "us",
            us.len(),
        );
    }
    let sum = |f: fn(&Run) -> u64| runs.iter().map(f).sum::<u64>();
    let (polls, submits) = (sum(|r| r.polls), sum(|r| r.submits));
    out.push(
        "serve.poll.empty_ratio",
        sum(|r| r.empty_polls) as f64 / polls.max(1) as f64,
        "ratio",
        polls as usize,
    );
    out.push(
        "serve.busy_ratio",
        sum(|r| r.busy) as f64 / submits.max(1) as f64,
        "ratio",
        submits as usize,
    );
    let open: Vec<f64> = setups.iter().map(|p| ms(p.open_session)).collect();
    out.push("serve.open_session.ms", median(&open), "ms", open.len());
    let generate: Vec<f64> = setups.iter().map(|p| ms(p.generate)).collect();
    out.push("setup.generate.ms", median(&generate), "ms", generate.len());
    let first_wall = |rs: &[Run]| {
        rs.iter()
            .map(|r| r.passes.first().map_or(0.0, |p| ms(p.0)))
            .fold(0.0, f64::max)
    };
    out.push(
        "trace.serve-closed.overhead_ms",
        first_wall(&runs) - first_wall(&reference),
        "ms",
        1,
    );
    Ok(out)
}
