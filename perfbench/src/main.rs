//! The repository benchmark: end-to-end metrics of three workloads, and
//! a separate traced run that gives per-layer metrics.
//!
//! ```text
//! hmc-perfbench --workload <table1-random|gapped-ddr-mesh|serve-closed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` before timing starts. With
//! `--trace 0` the named workload runs untraced and its end-to-end
//! metrics are reported. With `--trace 1` all three workloads run under
//! the benchmark's own call timers for a third of `--seconds` each,
//! because each per-layer metric belongs to the one workload that
//! exercises its layer; the full trace is written to
//! `.bench_out/trace-<workload>.txt`. The last line of standard output
//! is one JSON object; the exit code is 1 when an output check failed.
//! See `perfbench/README.md` for why each workload was chosen and which
//! layer metric should move which end-to-end metric.

mod gapped;
mod serve;
mod stats;
mod table1;
mod trace;

use std::time::Instant;

use hmc_core::SimStats;

use stats::{Metric, Outcome};
use trace::Trace;

const WORKLOADS: [&str; 3] = ["table1-random", "gapped-ddr-mesh", "serve-closed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("hmc-perfbench: {msg}");
    eprintln!(
        "usage: hmc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s >= 1)
                        .unwrap_or_else(|| usage("--seconds takes a positive integer")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Sum of the modelled counters an optimisation must not move.
pub fn push_sim_counters(out: &mut Outcome, stats: &[SimStats]) {
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let n = stats.len();
    out.push("sim.token_stalls", sum(|s| s.token_stalls), "count", n);
    out.push("sim.row_hits", sum(|s| s.row_hits), "count", n);
    out.push("sim.row_misses", sum(|s| s.row_misses), "count", n);
    out.push("sim.precharges", sum(|s| s.precharges), "count", n);
    out.push("sim.noc_hops", sum(|s| s.noc_hops), "count", n);
    out.push("sim.noc_stalls", sum(|s| s.noc_stalls), "count", n);
    out.push("sim.noc_arb_losses", sum(|s| s.noc_arb_losses), "count", n);
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory only (a checkout without one reports `unknown`).
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_line() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "num_cpus={cpus} git={} rustc={}",
        git_revision(),
        rustc_version()
    )
}

/// Fold per-workload traced outcomes; same-named metrics (set-up parts,
/// modelled counters) are summed.
fn merge_traced(parts: Vec<Outcome>) -> Outcome {
    let mut out = Outcome::default();
    for part in parts {
        out.absorb_checks(&part);
        for m in part.metrics {
            match out.metrics.iter_mut().find(|x| x.name == m.name) {
                Some(x) => {
                    x.value += m.value;
                    x.samples += m.samples;
                }
                None => out.metrics.push(m),
            }
        }
    }
    out
}

fn run_traced(
    seed: u32,
    seconds: f64,
    header: &str,
    path: &str,
) -> Result<Outcome, hmc_types::HmcError> {
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let share = seconds / WORKLOADS.len() as f64;
    let t1 = table1::trace(seed, share, &mut trace)?;
    let gap = gapped::trace(seed, share, &mut trace)?;
    let serve = serve::trace(seed, share, &mut trace)?;
    let mut out = merge_traced(vec![t1, gap, serve]);
    if let Err(e) = std::fs::write(path, trace.render(header)) {
        out.problems.push(format!("writing {path}: {e}"));
    }
    Ok(out)
}

fn json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args();
    // GNU random() seeds are 32-bit; larger seeds wrap.
    let seed = args.seed as u32;
    let seconds = args.seconds as f64;
    let header = format!(
        "workload={} seed={} seconds={} trace={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_line()
    );
    println!("# hmc-perfbench {header}");

    let result = if args.trace {
        let _ = std::fs::create_dir_all(".bench_out");
        let path = format!(".bench_out/trace-{}.txt", args.workload);
        println!("# trace file: {path}");
        run_traced(seed, seconds, &header, &path)
    } else {
        match args.workload {
            "table1-random" => table1::measure(seed, seconds),
            "gapped-ddr-mesh" => gapped::measure(seed, seconds),
            _ => serve::measure(seed, seconds),
        }
        .map(|mut out| {
            match peak_rss_mb() {
                Some(mb) => out.push("peak_rss_mb", mb, "MB", 1),
                None => out.problems.push("no VmHWM in /proc/self/status".into()),
            }
            out
        })
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hmc-perfbench: {} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not a number", m.name))
        .collect();
    out.problems.extend(bad);

    for (tag, list) in [("", &out.metrics), ("(note) ", &out.notes)] {
        for Metric {
            name,
            value,
            unit,
            samples,
        } in list
        {
            println!("  {tag}{name:<40} {value:>16.4} {unit:<7} n={samples}");
        }
    }
    for p in out.problems.iter().take(20) {
        println!("  CHECK FAILED: {p}");
    }
    if out.problems.len() > 20 {
        println!("  ... {} failed checks in all", out.problems.len());
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "  attempted={} failed={} failed_frac={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", json(&out, correct));
    if !correct {
        std::process::exit(1);
    }
}
