//! The repository benchmark. One command runs one named workload from
//! a seed, prints every metric with its unit and sample count, checks
//! the program's outputs, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload core_bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics, writing the spans
//! to `<cargo target dir>/perfbench-traces/`. A failed correctness
//! check makes the run exit with status 1 after printing its result.

mod alloc;
mod budget;
mod common;
mod core_bulk;
mod fingerprint;
mod layers;
mod paper_sweep;
mod procfs;
mod report;
mod stats;
mod trace;
mod udp_fleet;

use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::Args;
use fingerprint::Fingerprint;
use report::{json_number, json_string, Outcome};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Workload names, as listed in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["udp_fleet", "core_bulk", "paper_sweep"];

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("sym_per_s", "sym/s"),
    ("sym_latency_p50_us", "us"),
    ("sym_latency_p99_us", "us"),
    ("delivered_ratio", "1"),
    ("cpu_us_per_sym", "us"),
    ("session_delay_p50_ms", "ms"),
    ("session_delay_p99_ms", "ms"),
    ("peak_sym_per_s", "sym/s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
/// A workload that does not reach a layer reports it as 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("gf256.scale_add_ns_per_kib", "ns"),
    ("codec.shamir.split_ns", "ns"),
    ("codec.shamir.reconstruct_ns", "ns"),
    ("codec.xor.split_ns", "ns"),
    ("codec.xor.reconstruct_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("reassembly.accept_ns", "ns"),
    ("reassembly.completed_per_accept", "1"),
    ("reassembly.evicted_per_ksym", "1"),
    ("server.offer_ns", "ns"),
    ("server.deliver_datagram_ns", "ns"),
    ("server.handoffs_per_datagram", "1"),
    ("engine.residual_ns", "ns"),
    ("udp.sys_cpu_share", "1"),
    ("udp.syscalls_per_datagram", "1"),
    ("udp.datagrams_per_wakeup", "1"),
    ("udp.send_drops", "count"),
    ("udp.handoff_rejected", "count"),
    ("udp.sent_over_offered", "1"),
    ("udp.shard_thread_busy", "1"),
    ("udp.bytes_per_session", "B"),
    ("udp.steady_delay_p50_ms", "ms"),
    ("udp.steady_delay_p99_ms", "ms"),
    ("udp.kernel_us_per_sym", "us"),
    ("udp.shard_us_per_sym", "us"),
    ("udp.residual_us_per_sym", "us"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.events_per_symbol", "1"),
    ("lp.solve_ms", "ms"),
    ("core.optimal_rate_us", "us"),
    ("sweep.parallel_efficiency", "1"),
    ("alloc.per_symbol", "1"),
    ("alloc.lazy_per_ksym", "1"),
    ("budget.coverage", "1"),
    ("trace.overhead_share", "1"),
    ("warmup.second_over_first", "1"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    }
    let fingerprint = Fingerprint::current();
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let tracers: Vec<Tracer> = match (args.workload.as_str(), args.trace) {
        ("core_bulk", false) => {
            core_bulk::run(&args, &mut out);
            Vec::new()
        }
        ("core_bulk", true) => layers::core_bulk(&args, &mut out, epoch),
        ("udp_fleet", false) => {
            udp_fleet::run(&args, &mut out);
            Vec::new()
        }
        ("udp_fleet", true) => udp_fleet::run_traced(&args, &mut out, epoch),
        ("paper_sweep", false) => {
            paper_sweep::run(&args, &mut out);
            Vec::new()
        }
        (_, true) => vec![paper_sweep::run_traced(&args, &mut out, epoch)],
        _ => unreachable!("workload validated above"),
    };
    complete_metric_set(&mut out, args.trace);
    print!("{}", out.human(&fingerprint));
    if args.trace {
        match write_trace(&args, &fingerprint, &out, &tracers) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => out.gate("trace file written", false, e.to_string()),
        }
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Makes the reported set exactly the listed set: a missing end-to-end
/// metric fails the run; a per-layer metric the workload does not
/// reach is reported as 0 and named in a note.
fn complete_metric_set(out: &mut Outcome, trace: bool) {
    let listed: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut unreached = Vec::new();
    for &(name, unit) in listed {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => {
                if m.unit != unit {
                    out.gate(
                        format!("unit of {name}"),
                        false,
                        format!("{} != {unit}", m.unit),
                    );
                }
            }
            None if trace => {
                out.metric(name, 0.0, unit, 0);
                unreached.push(name);
            }
            None => out.gate(format!("metric {name} reported"), false, "missing"),
        }
    }
    let extra: Vec<&str> = out
        .metrics
        .iter()
        .filter(|m| !listed.iter().any(|&(n, _)| n == m.name))
        .map(|m| m.name)
        .collect();
    if !extra.is_empty() {
        out.gate(
            "metrics listed",
            false,
            format!("unlisted: {}", extra.join(", ")),
        );
    }
    if !unreached.is_empty() {
        out.note(format!(
            "not reached by this workload (reported as 0): {}",
            unreached.join(", ")
        ));
    }
    let order = |name: &str| {
        listed
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or(usize::MAX)
    };
    out.metrics.sort_by_key(|m| order(m.name));
}

/// Writes the traced run's result and spans to
/// `<cargo target dir>/perfbench-traces/<workload>-seed<seed>.json`.
fn write_trace(
    args: &Args,
    fingerprint: &Fingerprint,
    out: &Outcome,
    tracers: &[Tracer],
) -> io::Result<PathBuf> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
    )
    .join("perfbench-traces");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let mut w = BufWriter::new(fs::File::create(&path)?);
    write!(
        w,
        "{{\"workload\":{},\"seed\":{},\"fingerprint\":{{",
        json_string(&args.workload),
        args.seed
    )?;
    for (i, (key, value)) in fingerprint.fields().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}{}:{}", json_string(key), json_string(value))?;
    }
    write!(w, "}},\"metrics\":{{")?;
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            w,
            "{sep}{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
            json_string(m.name),
            json_number(value),
            json_string(m.unit),
            m.samples
        )?;
    }
    write!(w, "}},\"notes\":[")?;
    for (i, note) in out.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}{}", json_string(note))?;
    }
    write!(w, "],\"traces\":[")?;
    for (i, t) in tracers.iter().enumerate() {
        if i > 0 {
            writeln!(w, ",")?;
        }
        t.write_json(&mut w)?;
    }
    writeln!(w, "]}}")?;
    w.flush()?;
    Ok(path)
}
