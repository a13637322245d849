//! One run of one benchmark workload, printed as a single JSON line.
//!
//! ```text
//! perfbench-runner --workload stencil|alltoall|lossy_stencil --seed N
//!                  [--trace 0|1] [--tiny]
//! ```
//!
//! `perfbench/run.py` starts this binary once per repetition (so peak
//! memory is per run), times it from outside, and folds the lines into
//! the benchmark's metrics. With `--trace 1` every layer call is timed
//! and the per-layer figures are filled in; with `--trace 0` they read 0.

mod probe;
mod work;

use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

use work::{Outcome, Shape, API_KINDS, HOSTS, MPI, PATTERN, PROXIES};
use work::{SINK_CONFORMANCE, SINK_FLIGHT, SINK_LIFECYCLE, SINK_METRICS};

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace, mut tiny) = (None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !work::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        trace,
        tiny,
    })
}

/// FNV-1a over the run's simulated statistics: virtual end time, engine
/// events, every engine/protocol counter and timer, and the `Metrics`
/// totals when the workload attaches `Metrics` untraced too. Equal
/// seeds must give equal digests, traced or not.
fn digest(o: &Outcome, with_metrics: bool) -> String {
    let mut s = format!(
        "end={} events={}",
        o.report.end_time.as_ps(),
        o.report.events
    );
    for (k, v) in o.report.stats.counters() {
        let _ = write!(s, " {k}={v}");
    }
    for (k, v) in o.report.stats.times() {
        let _ = write!(s, " {k}={}", v.as_ps());
    }
    if let (true, Some(m)) = (with_metrics, &o.metrics) {
        for (k, v) in m.totals() {
            let _ = write!(s, " m.{k}={v}");
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    probe::set_tracing(args.trace);
    let shape = Shape::of(&args.workload, args.tiny);
    let out = match work::run(&args.workload, shape, args.seed, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = probe::process_cpu_s();
    println!("{}", render(&args, &shape, &out, start, wall_s, cpu_s));
}

fn render(
    args: &Args,
    shape: &Shape,
    o: &Outcome,
    start: Instant,
    wall_s: f64,
    cpu_s: f64,
) -> String {
    let sh = &o.shared;
    let setup_at = *sh
        .setup_at
        .get()
        .expect("every rank reached the measured phase");
    let end_at = *sh.end_at.get().expect("every rank finished");
    let steps = sh.steps.lock().expect("steps");
    let step_ms: Vec<String> = steps
        .windows(2)
        .map(|w| format!("{:.6}", (w[1] - w[0]).as_secs_f64() * 1e3))
        .collect();
    let m = o.metrics.as_ref();
    let mget = |f: fn(&offload::MetricsReport) -> u64| m.map_or(0, f);
    let lookups = mget(|m| {
        m.host_gvmi_cache.lookups() + m.host_ib_cache.lookups() + m.dpu_cross_cache.lookups()
    });
    let hits = mget(|m| m.host_gvmi_cache.hits + m.host_ib_cache.hits + m.dpu_cross_cache.hits);
    let xfers = sh.xfers.load(Relaxed);
    let retx = mget(|m| m.ctrl_retransmits + m.payload_corrupt);
    let counter = |k: &str| o.report.stats.counter(k);

    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| layers.push((k.to_string(), v));
    // simnet
    put("simnet.events", o.report.events as f64);
    put(
        "simnet.ns_per_event",
        wall_s * 1e9 / o.report.events.max(1) as f64,
    );
    put("simnet.engine_cpu_s", o.engine_cpu_s);
    put("simnet.idle_s", wall_s - cpu_s);
    put("simnet.host_resumes", HOSTS.resumes() as f64);
    put("simnet.proxy_resumes", PROXIES.resumes() as f64);
    put("simnet.threads_peak", sh.threads_peak.load(Relaxed) as f64);
    // rdma
    put(
        "rdma.bytes_moved",
        mget(|m| m.bytes_cross_gvmi + m.bytes_staging_hop1 + m.bytes_staging_hop2) as f64,
    );
    put(
        "rdma.wire_ops",
        o.report.resources.iter().map(|r| r.2).sum::<u64>() as f64,
    );
    put("rdma.pattern_s", PATTERN.self_s());
    // core, host side
    put("core.host.cpu_s", HOSTS.cpu_s());
    put(
        "core.host.api_calls",
        API_KINDS.iter().map(|(_, s)| s.calls()).sum::<u64>() as f64,
    );
    put(
        "core.host.api_self_s",
        API_KINDS.iter().map(|(_, s)| s.self_s()).sum(),
    );
    put(
        "core.host.api_parks",
        API_KINDS.iter().map(|(_, s)| s.parks()).sum::<u64>() as f64,
    );
    put("core.host.init_s", API_KINDS[0].1.wall_s());
    for (kind, span) in API_KINDS {
        put(&format!("core.host.calls.{kind}"), span.calls() as f64);
    }
    // core, proxy side
    put("core.proxy.cpu_s", PROXIES.cpu_s());
    put("core.ctrl_msgs", counter("offload.ctrl.host_dpu") as f64);
    put(
        "core.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    put("core.retx_per_xfer", retx as f64 / xfers.max(1) as f64);
    put("core.fallback_staging", mget(|m| m.fallback_staging) as f64);
    // minimpi
    put("minimpi.calls", MPI.calls() as f64);
    put("minimpi.self_s", MPI.self_s());
    put("minimpi.parks", MPI.parks() as f64);
    // obs
    let sinks = [
        ("metrics", &SINK_METRICS),
        ("conformance", &SINK_CONFORMANCE),
        ("flight", &SINK_FLIGHT),
        ("lifecycle", &SINK_LIFECYCLE),
    ];
    for (name, span) in sinks {
        put(&format!("obs.sink_calls.{name}"), span.calls() as f64);
        put(&format!("obs.{name}_s"), span.self_s());
    }
    put("obs.report_s", o.report_s);
    // tracing: engine + host + proxy CPU plus idle time, over wall
    put(
        "trace.accounted_frac",
        (o.engine_cpu_s + HOSTS.cpu_s() + PROXIES.cpu_s() + (wall_s - cpu_s)) / wall_s,
    );

    let mut s = String::with_capacity(4096);
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nodes\": {}, \"ppn\": {}, \"iters\": {}",
        args.workload, args.seed, args.trace as u8, shape.nodes, shape.ppn, shape.iters
    );
    let _ = write!(
        s,
        ", \"wall_s\": {wall_s:.6}, \"cpu_s\": {cpu_s:.6}, \"setup_s\": {:.6}, \"measured_s\": {:.6}",
        (setup_at - start).as_secs_f64(),
        (end_at - setup_at).as_secs_f64()
    );
    let _ = write!(
        s,
        ", \"virtual_ms\": {:.6}, \"xfers\": {xfers}, \"attempted\": {}, \"failed\": {}, \"corrupt\": {}, \"violations\": {}",
        (sh.vend_ps.load(Relaxed) - sh.vstart_ps.load(Relaxed)) as f64 * 1e-9,
        sh.attempted.load(Relaxed),
        sh.failed.load(Relaxed),
        sh.corrupt.load(Relaxed),
        o.violations
    );
    let _ = write!(
        s,
        ", \"digest\": \"{}\", \"metrics_events\": {}, \"workload_api_calls\": {}",
        digest(o, args.workload != "alltoall"),
        mget(|m| m.events),
        sh.api_calls.load(Relaxed)
    );
    let _ = write!(s, ", \"step_ms\": [{}], \"layers\": {{", step_ms.join(", "));
    for (i, (k, v)) in layers.iter().enumerate() {
        let _ = write!(s, "{}\"{k}\": {v:.9}", if i == 0 { "" } else { ", " });
    }
    s.push_str("}}");
    s
}
