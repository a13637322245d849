//! The three benchmark workloads, driven through the public APIs of
//! `rdma::ClusterBuilder`, `offload::Offload`, `minimpi::Mpi` and the
//! event sinks of `offload`, `checker` and `obs`.
//!
//! Every call into a layer goes through one of the [`Span`]s below, so a
//! traced run can split the host's time by layer from the outside.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use checker::{Conformance, ConformanceConfig};
use minimpi::{Mpi, MpiConfig};
use obs::LifecycleRecorder;
use offload::{FaultPlan, FlightRecorder, Metrics, MetricsReport, Offload, OffloadConfig};
use rdma::{ClusterBuilder, ClusterCtx, ClusterSpec, EpId, Fabric, Inbox, VAddr};
use simnet::{ProcessCtx, Report, SimDelta};

use crate::probe::{thread_cpu_ns, threads_now, timed_sink, Span, ThreadKind};

/// Offload API calls, by kind.
pub static API_INIT: Span = Span::new();
pub static API_POST: Span = Span::new();
pub static API_WAIT: Span = Span::new();
pub static API_QUERY: Span = Span::new();
pub static API_RECORD: Span = Span::new();
pub static API_GROUP_CALL: Span = Span::new();
pub static API_GROUP_WAIT: Span = Span::new();
pub static API_FINALIZE: Span = Span::new();
/// Every `minimpi::Mpi` call the workloads make.
pub static MPI: Span = Span::new();
/// Payload fills and checks (`Fabric::write_bytes` / `read_bytes`).
pub static PATTERN: Span = Span::new();
/// The four event sinks.
pub static SINK_METRICS: Span = Span::new();
pub static SINK_CONFORMANCE: Span = Span::new();
pub static SINK_FLIGHT: Span = Span::new();
pub static SINK_LIFECYCLE: Span = Span::new();
/// Simulated host ranks and DPU proxies.
pub static HOSTS: ThreadKind = ThreadKind::new();
pub static PROXIES: ThreadKind = ThreadKind::new();

/// Offload API spans with the kind names the report uses.
pub const API_KINDS: [(&str, &Span); 8] = [
    ("init", &API_INIT),
    ("post", &API_POST),
    ("wait", &API_WAIT),
    ("query", &API_QUERY),
    ("record", &API_RECORD),
    ("group_call", &API_GROUP_CALL),
    ("group_wait", &API_GROUP_WAIT),
    ("finalize", &API_FINALIZE),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["stencil", "alltoall", "lossy_stencil"];

/// Size of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub nodes: usize,
    pub ppn: usize,
    /// Unmeasured cold iterations (registration, cross-registration and
    /// group install happen here).
    pub warmup: u64,
    /// Measured iterations.
    pub iters: u64,
    /// Stencil: grid edge in cells. Unused by the all-to-all.
    pub grid: u64,
    /// All-to-all block / lossy stencil face, in bytes.
    pub bytes: u64,
}

impl Shape {
    /// The benchmark shape of `workload`; `tiny` is the seconds-long
    /// shape the self-tests use.
    pub fn of(workload: &str, tiny: bool) -> Shape {
        match (workload, tiny) {
            ("stencil", false) => Shape {
                nodes: 16,
                ppn: 32,
                warmup: 1,
                iters: 25,
                grid: 512,
                bytes: 0,
            },
            ("stencil", true) => Shape {
                nodes: 2,
                ppn: 4,
                warmup: 1,
                iters: 4,
                grid: 64,
                bytes: 0,
            },
            ("alltoall", false) => Shape {
                nodes: 4,
                ppn: 8,
                warmup: 2,
                iters: 40,
                grid: 0,
                bytes: 128 << 10,
            },
            ("alltoall", true) => Shape {
                nodes: 2,
                ppn: 2,
                warmup: 2,
                iters: 4,
                grid: 0,
                bytes: 4 << 10,
            },
            ("lossy_stencil", false) => Shape {
                nodes: 8,
                ppn: 16,
                warmup: 1,
                iters: 25,
                grid: 0,
                bytes: 16 << 10,
            },
            ("lossy_stencil", true) => Shape {
                nodes: 2,
                ppn: 4,
                warmup: 1,
                iters: 6,
                grid: 0,
                bytes: 4 << 10,
            },
            (other, _) => panic!("unknown workload `{other}`"),
        }
    }
}

/// The lossy workload's fault plan (health engine off).
pub fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_pm: 50,
        flip_pm: 40,
        torn_pm: 40,
        data_drop_pm: 20,
        xreg_fail_pm: 100,
        ..FaultPlan::none()
    }
    .with_seed(seed)
}

/// Cross-rank state of one run, filled from inside the simulation.
pub struct Shared {
    world: usize,
    ready: AtomicUsize,
    done: AtomicUsize,
    /// When every rank had started its first measured iteration.
    pub setup_at: OnceLock<Instant>,
    /// When every rank had finished its last measured iteration.
    pub end_at: OnceLock<Instant>,
    /// Live threads when set-up completed.
    pub threads_peak: AtomicU64,
    /// Rank 0's iteration boundaries over the measured phase.
    pub steps: Mutex<Vec<Instant>>,
    /// Rank 0's virtual time at the measured phase's start and end (ps).
    pub vstart_ps: AtomicU64,
    pub vend_ps: AtomicU64,
    /// Offload requests attempted and failed (typed error, unresolved,
    /// or a payload that failed verification).
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    /// Payload mismatches found by verification.
    pub corrupt: AtomicU64,
    /// Completed point-to-point transfers in the measured phase.
    pub xfers: AtomicU64,
    /// Offload API calls the workload issued, counted by the workload
    /// itself (the self-tests compare it with the traced span count).
    pub api_calls: AtomicU64,
}

impl Shared {
    fn new(world: usize) -> Shared {
        Shared {
            world,
            ready: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            setup_at: OnceLock::new(),
            end_at: OnceLock::new(),
            threads_peak: AtomicU64::new(0),
            steps: Mutex::new(Vec::new()),
            vstart_ps: AtomicU64::new(0),
            vend_ps: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            xfers: AtomicU64::new(0),
            api_calls: AtomicU64::new(0),
        }
    }

    fn count_api(&self, n: u64) {
        self.api_calls.fetch_add(n, Relaxed);
    }

    /// Run `shape.warmup + shape.iters` iterations of `step(iteration,
    /// measured)` on one rank, marking the phase boundaries.
    fn iterate(
        &self,
        rank: usize,
        ctx: &ProcessCtx,
        shape: &Shape,
        mut step: impl FnMut(u64, bool),
    ) {
        let vnow = || ctx.now().as_ps();
        for it in 0..shape.warmup + shape.iters {
            let measured = it >= shape.warmup;
            if it == shape.warmup {
                if rank == 0 {
                    self.vstart_ps.store(vnow(), Relaxed);
                }
                if self.ready.fetch_add(1, Relaxed) + 1 == self.world {
                    let _ = self.setup_at.set(Instant::now());
                    self.threads_peak.store(threads_now(), Relaxed);
                }
            }
            if rank == 0 && measured {
                self.steps.lock().expect("steps").push(Instant::now());
            }
            step(it, measured);
        }
        if rank == 0 {
            self.steps.lock().expect("steps").push(Instant::now());
            self.vend_ps.store(vnow(), Relaxed);
        }
        if self.done.fetch_add(1, Relaxed) + 1 == self.world {
            let _ = self.end_at.set(Instant::now());
        }
    }
}

/// Per-(rank, iteration) load imbalance of up to 2%, drawn from the
/// seed: the one input property the seed varies besides the fault plan.
fn jittered(base: SimDelta, seed: u64, rank: usize, it: u64) -> SimDelta {
    let mut x = seed
        ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ it.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
    base.scale(1.0 + 0.02 * frac)
}

/// Identifies one payload: `(src, dst, iteration, face direction)`.
type Key = (usize, usize, u64, u64);

/// Word `i` of the payload `key`. Words are distinct within a payload and
/// between payloads, so a flipped byte, a torn tail (which keeps an older
/// iteration's words) or a dropped write all show. Built a word at a
/// time: `Fabric::fill_pattern` makes its pattern a byte at a time, which
/// would make the check, not the system, the workload.
fn word(key: Key, i: usize) -> [u8; 8] {
    let seed = ((key.0 as u64) << 40) ^ ((key.1 as u64) << 20) ^ (key.2 << 4) ^ key.3;
    (seed ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_le_bytes()
}

/// Write payload `key` (`len` bytes, a whole number of words) into
/// `ep`'s memory.
fn fill(fab: &Fabric, ep: EpId, addr: VAddr, key: Key, len: u64) {
    assert_eq!(len % 8, 0, "payloads are whole words");
    PATTERN.time_plain(|| {
        let mut data = vec![0u8; len as usize];
        for (i, w) in data.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(&word(key, i));
        }
        fab.write_bytes(ep, addr, &data).expect("fill payload")
    });
}

/// Whether `ep`'s memory at `addr` holds payload `key`.
fn check(fab: &Fabric, ep: EpId, addr: VAddr, key: Key, len: u64) -> bool {
    PATTERN.time_plain(|| {
        let data = fab.read_bytes(ep, addr, len).expect("read payload");
        data.chunks_exact(8)
            .enumerate()
            .all(|(i, w)| w == word(key, i))
    })
}

/// One face of a rank's block: `(peer, bytes, direction)`.
type Face = (usize, u64, u64);

/// The 3-D decomposition's faces of `rank` among `p` ranks: the
/// near-cubic `workloads::dims3` grid, `grid³` cells of 8 bytes, or a
/// fixed `face_bytes` when given. Returns the faces and the cell count.
fn faces(rank: usize, p: usize, grid: u64, face_bytes: Option<u64>) -> (Vec<Face>, u64) {
    let (px, py, pz) = workloads::dims3(p);
    let (lx, ly, lz) = (
        grid.div_ceil(px as u64),
        grid.div_ceil(py as u64),
        grid.div_ceil(pz as u64),
    );
    let (cx, cy, cz) = (rank % px, (rank / px) % py, rank / (px * py));
    let at = |x: usize, y: usize, z: usize| x + y * px + z * px * py;
    let mut out = Vec::new();
    let mut add = |cond: bool, peer: usize, bytes: u64, dir: u64| {
        if cond {
            out.push((peer, face_bytes.unwrap_or(bytes * 8), dir));
        }
    };
    add(cx > 0, at(cx.wrapping_sub(1), cy, cz), ly * lz, 0);
    add(cx + 1 < px, at(cx + 1, cy, cz), ly * lz, 1);
    add(cy > 0, at(cx, cy.wrapping_sub(1), cz), lx * lz, 2);
    add(cy + 1 < py, at(cx, cy + 1, cz), lx * lz, 3);
    add(cz > 0, at(cx, cy, cz.wrapping_sub(1)), lx * ly, 4);
    add(cz + 1 < pz, at(cx, cy, cz + 1), lx * ly, 5);
    (out, lx * ly * lz)
}

/// The sinks attached to a run, each behind its timing wrapper.
#[derive(Default)]
pub struct Sinks {
    pub metrics: Option<Metrics>,
    pub conformance: Option<Conformance>,
    pub flight: Option<FlightRecorder>,
    pub lifecycle: Option<LifecycleRecorder>,
}

impl Sinks {
    fn attach(&self, b: ClusterBuilder) -> ClusterBuilder {
        let mut sinks = Vec::new();
        if let Some(m) = &self.metrics {
            sinks.push(timed_sink(&SINK_METRICS, m.sink()));
        }
        if let Some(c) = &self.conformance {
            sinks.push(timed_sink(&SINK_CONFORMANCE, c.sink()));
        }
        if let Some(f) = &self.flight {
            sinks.push(timed_sink(&SINK_FLIGHT, f.sink()));
        }
        if let Some(l) = &self.lifecycle {
            sinks.push(timed_sink(&SINK_LIFECYCLE, l.sink()));
        }
        match sinks.len() {
            0 => b,
            1 => b.with_event_sink(sinks.pop().expect("one sink")),
            _ => b.with_event_sink(workloads::fanout(sinks)),
        }
    }
}

/// What one run hands back to the report.
pub struct Outcome {
    pub report: Report,
    pub shared: Arc<Shared>,
    pub metrics: Option<MetricsReport>,
    /// Conformance violations (lossy workload only).
    pub violations: usize,
    /// Seconds spent folding and rendering the sinks' reports.
    pub report_s: f64,
    /// CPU seconds of the thread that ran the engine.
    pub engine_cpu_s: f64,
}

/// Run `workload` at `shape` with simulation and fault seed `seed`.
/// `traced` attaches a `Metrics` sink to the all-to-all (which runs
/// bare otherwise) so its per-layer counters exist.
pub fn run(workload: &str, shape: Shape, seed: u64, traced: bool) -> Result<Outcome, String> {
    let mut spec = ClusterSpec::new(shape.nodes, shape.ppn);
    let mut cfg = OffloadConfig::proposed();
    let sinks = match workload {
        "stencil" => {
            spec = spec.without_byte_movement();
            Sinks {
                metrics: Some(Metrics::new()),
                ..Sinks::default()
            }
        }
        "alltoall" => Sinks {
            metrics: traced.then(Metrics::new),
            ..Sinks::default()
        },
        "lossy_stencil" => {
            cfg = cfg.with_fault(lossy_plan(seed));
            Sinks {
                metrics: Some(Metrics::new()),
                conformance: Some(Conformance::new(ConformanceConfig::default())),
                flight: Some(FlightRecorder::new()),
                lifecycle: Some(LifecycleRecorder::new()),
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let shared = Arc::new(Shared::new(spec.world_size()));
    let builder = sinks.attach(ClusterBuilder::new(spec, seed).with_threads(1));

    let host_cfg = cfg.clone();
    let sh = Arc::clone(&shared);
    let kind = workload.to_string();
    let host = move |rank: usize, ctx: ProcessCtx, cluster: ClusterCtx| {
        let _acct = HOSTS.enter();
        let inbox = Inbox::new();
        let off = API_INIT
            .time(|| Offload::init(rank, ctx.clone(), cluster.clone(), &inbox, host_cfg.clone()));
        let mpi = Mpi::attach(rank, ctx, cluster, &inbox, MpiConfig::default());
        sh.count_api(1);
        match kind.as_str() {
            "stencil" => stencil_rank(&sh, &shape, seed, &off, &mpi),
            "alltoall" => alltoall_rank(&sh, &shape, seed, &off),
            _ => lossy_rank(&sh, &shape, &off, &mpi),
        }
        API_FINALIZE.time(|| off.finalize());
        sh.count_api(1);
    };
    let proxy_body = offload::proxy_fn(cfg);
    let proxy = move |node: usize, idx: usize, ctx: ProcessCtx, cluster: ClusterCtx| {
        let _acct = PROXIES.enter();
        proxy_body(node, idx, ctx, cluster);
    };

    let cpu0 = thread_cpu_ns();
    let report = builder
        .run(host, Some(proxy))
        .map_err(|e| format!("simulation failed: {e:?}"))?;
    let engine_cpu_s = thread_cpu_ns().saturating_sub(cpu0) as f64 * 1e-9;

    let t0 = Instant::now();
    let metrics = sinks.metrics.as_ref().map(|m| {
        let r = m.report();
        std::hint::black_box(r.to_json(workload));
        r
    });
    let violations = sinks.conformance.as_ref().map_or(0, |c| c.finish().len());
    if let Some(f) = &sinks.flight {
        std::hint::black_box(f.dump());
    }
    if let Some(l) = &sinks.lifecycle {
        std::hint::black_box(l.report().to_json().render());
    }
    let report_s = t0.elapsed().as_secs_f64();
    Ok(Outcome {
        report,
        shared,
        metrics,
        violations,
        report_s,
        engine_cpu_s,
    })
}

/// Wait on a basic request and check it resolved: done, or failed with
/// a typed error. Returns whether it completed.
fn settle(sh: &Shared, off: &Offload, req: offload::OffloadReq) -> bool {
    API_WAIT.time(|| off.wait(req));
    let err = API_QUERY.time(|| off.req_error(req));
    sh.count_api(2);
    sh.attempted.fetch_add(1, Relaxed);
    if err.is_some() {
        sh.failed.fetch_add(1, Relaxed);
    }
    err.is_none()
}

/// Fig. 11 halo exchange: inter-node faces offloaded, intra-node faces
/// on host MPI, a barrier per iteration, timing-only fabric.
fn stencil_rank(sh: &Shared, shape: &Shape, seed: u64, off: &Offload, mpi: &Mpi) {
    let rank = off.rank();
    let spec = off.cluster().spec().clone();
    let fab = off.cluster().fabric().clone();
    let ep = off.cluster().host_ep(rank);
    let (faces, cells) = faces(rank, off.size(), shape.grid, None);
    let bufs: Vec<(VAddr, VAddr)> = faces
        .iter()
        .map(|&(_, b, _)| (fab.alloc(ep, b), fab.alloc(ep, b)))
        .collect();
    let compute = SimDelta::from_ns(cells * workloads::NS_PER_CELL);
    let my_node = spec.node_of_rank(rank);
    sh.iterate(rank, off.ctx(), shape, |it, measured| {
        MPI.time(|| mpi.barrier());
        let mut offloaded = Vec::new();
        let mut host = Vec::new();
        for (&(peer, bytes, dir), &(sbuf, rbuf)) in faces.iter().zip(&bufs) {
            let (stag, rtag) = (it * 16 + dir, it * 16 + (dir ^ 1));
            if spec.node_of_rank(peer) != my_node {
                offloaded.push(API_POST.time(|| off.send_offload(sbuf, bytes, peer, stag)));
                offloaded.push(API_POST.time(|| off.recv_offload(rbuf, bytes, peer, rtag)));
                sh.count_api(2);
            } else {
                host.push(MPI.time(|| mpi.isend(sbuf, bytes, peer, stag)));
                host.push(MPI.time(|| mpi.irecv(rbuf, bytes, peer, rtag)));
            }
        }
        off.ctx().compute(jittered(compute, seed, rank, it));
        let mut sent_ok = 0;
        for (i, &r) in offloaded.iter().enumerate() {
            if settle(sh, off, r) && i % 2 == 0 {
                sent_ok += 1;
            }
        }
        for &r in &host {
            MPI.time(|| mpi.wait(r));
        }
        if measured {
            sh.xfers.fetch_add(sent_ok + host.len() as u64 / 2, Relaxed);
        }
    });
}

/// Group-offloaded Ialltoall with real bytes: record once, then
/// call → compute → wait, verifying every received block.
fn alltoall_rank(sh: &Shared, shape: &Shape, seed: u64, off: &Offload) {
    let (rank, p) = (off.rank(), off.size());
    let fab = off.cluster().fabric().clone();
    let ep = off.cluster().host_ep(rank);
    let block = shape.bytes;
    let sendbuf = fab.alloc(ep, block * p as u64);
    // Two recorded schedules on two receive buffers, used alternately: a
    // peer can start call `it + 1` before this rank has verified call
    // `it`, but not call `it + 2`, which needs this rank's `it + 1` sends.
    let recv: Vec<(VAddr, offload::GroupRequest)> = (0..2)
        .map(|_| {
            let recvbuf = fab.alloc(ep, block * p as u64);
            let g = API_RECORD.time(|| off.record_alltoall(sendbuf, recvbuf, block));
            sh.count_api(1);
            (recvbuf, g)
        })
        .collect();
    // Longer than a call's communication, so the proxies finish while
    // the hosts sleep and the seed's compute imbalance shows in
    // `virtual_ms` instead of hiding under communication.
    let compute = SimDelta::from_us(2000);
    sh.iterate(rank, off.ctx(), shape, |it, measured| {
        let (recvbuf, g) = recv[it as usize % 2];
        for d in (0..p).filter(|&d| d != rank) {
            fill(
                &fab,
                ep,
                sendbuf.offset(d as u64 * block),
                (rank, d, it, 0),
                block,
            );
        }
        API_GROUP_CALL.time(|| off.group_call(g));
        off.ctx().compute(jittered(compute, seed, rank, it));
        let res = API_GROUP_WAIT.time(|| off.group_wait(g));
        sh.count_api(2);
        sh.attempted.fetch_add(1, Relaxed);
        if res.is_err() {
            sh.failed.fetch_add(1, Relaxed);
            return;
        }
        let bad = (0..p)
            .filter(|&s| s != rank)
            .filter(|&s| {
                !check(
                    &fab,
                    ep,
                    recvbuf.offset(s as u64 * block),
                    (s, rank, it, 0),
                    block,
                )
            })
            .count() as u64;
        if bad > 0 {
            sh.corrupt.fetch_add(bad, Relaxed);
            sh.failed.fetch_add(1, Relaxed);
        } else if measured {
            sh.xfers.fetch_add(p as u64 - 1, Relaxed);
        }
    });
}

/// 3-D stencil with fixed-size faces, every face offloaded, real bytes
/// verified, under the lossy fault plan. No host MPI transfers: fabric
/// payload faults would also hit MPI writes, which have no CRC recovery.
/// The per-iteration barrier is safe, because its zero-byte messages are
/// never faulted, and it makes rank 0's boundaries global iterations.
fn lossy_rank(sh: &Shared, shape: &Shape, off: &Offload, mpi: &Mpi) {
    let rank = off.rank();
    let fab = off.cluster().fabric().clone();
    let ep = off.cluster().host_ep(rank);
    let (faces, _) = faces(rank, off.size(), 1, Some(shape.bytes));
    let bufs: Vec<(VAddr, VAddr)> = faces
        .iter()
        .map(|&(_, b, _)| (fab.alloc(ep, b), fab.alloc(ep, b)))
        .collect();
    sh.iterate(rank, off.ctx(), shape, |it, measured| {
        MPI.time(|| mpi.barrier());
        let mut reqs = Vec::with_capacity(faces.len() * 2);
        for (&(peer, bytes, dir), &(sbuf, rbuf)) in faces.iter().zip(&bufs) {
            fill(&fab, ep, sbuf, (rank, peer, it, dir), bytes);
            reqs.push(API_POST.time(|| off.send_offload(sbuf, bytes, peer, it * 16 + dir)));
            reqs.push(API_POST.time(|| off.recv_offload(rbuf, bytes, peer, it * 16 + (dir ^ 1))));
            sh.count_api(2);
        }
        off.ctx().compute(SimDelta::from_us(20));
        for (i, &(peer, bytes, dir)) in faces.iter().enumerate() {
            let sent = settle(sh, off, reqs[2 * i]);
            let received = settle(sh, off, reqs[2 * i + 1]);
            if received && !check(&fab, ep, bufs[i].1, (peer, rank, it, dir ^ 1), bytes) {
                sh.corrupt.fetch_add(1, Relaxed);
                sh.failed.fetch_add(1, Relaxed);
            }
            if sent && measured {
                sh.xfers.fetch_add(1, Relaxed);
            }
        }
    });
}
