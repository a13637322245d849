//! Host-side probes: per-thread CPU time and context-switch counts read
//! from the kernel, and park-aware call spans around the layer APIs.
//!
//! Every span here is recorded from the benchmark's own code, around a
//! call into a layer's public API, so the engine crates stay untouched.
//! With tracing off (`set_tracing(false)`) a span is a plain call.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use simnet::EventSink;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` first, `ru_nvcsw` at index 12).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const NVCSW: usize = 12;

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `Rusage` matches the kernel's layout on LP64 Linux and the
    // pointer is valid for the duration of the call.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// Voluntary context switches of the calling thread: how often it gave
/// up the CPU, i.e. how often a simulated process parked and resumed.
pub fn thread_switches() -> u64 {
    rusage(RUSAGE_THREAD).longs[NVCSW] as u64
}

/// CPU seconds (user + system) of the whole process, all threads.
pub fn process_cpu_s() -> f64 {
    let r = rusage(RUSAGE_SELF);
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&r.utime) + tv(&r.stime)
}

/// CPU nanoseconds the calling thread has run, from the scheduler's
/// `/proc/thread-self/schedstat` (first field, exact to the nanosecond).
pub fn thread_cpu_ns() -> u64 {
    read_thread_cpu_ns().expect("readable /proc/thread-self/schedstat")
}

fn read_thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Live threads of this process, from `/proc/self/status`.
pub fn threads_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .expect("readable /proc/self/status")
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off for the whole process.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

/// Whether spans are being recorded.
pub fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// Accumulated calls into one layer API family.
pub struct Span {
    calls: AtomicU64,
    self_ns: AtomicU64,
    wall_ns: AtomicU64,
    parks: AtomicU64,
}

impl Span {
    /// An empty span accumulator.
    pub const fn new() -> Span {
        Span {
            calls: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Run `f`, recording it as one call. A call during which the thread
    /// gave up the CPU is counted as a park and left out of self time,
    /// because its wall span includes other processes running.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !tracing() {
            return f();
        }
        let switches = thread_switches();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.wall_ns.fetch_add(ns, Relaxed);
        if thread_switches() == switches {
            self.self_ns.fetch_add(ns, Relaxed);
        } else {
            self.parks.fetch_add(1, Relaxed);
        }
        out
    }

    /// Run `f`, which never blocks, recording its whole wall time as self
    /// time (used for event sinks and other non-parking calls).
    pub fn time_plain<T>(&self, f: impl FnOnce() -> T) -> T {
        if !tracing() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Relaxed);
        self.wall_ns.fetch_add(ns, Relaxed);
        self.self_ns.fetch_add(ns, Relaxed);
        out
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Seconds of calls that kept the CPU.
    pub fn self_s(&self) -> f64 {
        self.self_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Seconds of all calls, parked ones included.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Calls that gave up the CPU.
    pub fn parks(&self) -> u64 {
        self.parks.load(Relaxed)
    }
}

/// Wrap an event sink so every emission is timed into `span`. With
/// tracing off the sink is returned as is.
pub fn timed_sink(span: &'static Span, inner: EventSink) -> EventSink {
    if !tracing() {
        return inner;
    }
    std::sync::Arc::new(move |at, pid, ev| span.time_plain(|| inner(at, pid, ev)))
}

/// CPU and resume counts of one kind of simulated-process thread
/// (hosts or proxies), summed over threads at their exit.
pub struct ThreadKind {
    cpu_ns: AtomicU64,
    resumes: AtomicU64,
}

impl ThreadKind {
    /// An empty accumulator.
    pub const fn new() -> ThreadKind {
        ThreadKind {
            cpu_ns: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
        }
    }

    /// Start accounting the calling thread; the totals are added when the
    /// returned guard drops at the end of the process body.
    pub fn enter(&'static self) -> ThreadGuard {
        ThreadGuard {
            kind: self,
            on: tracing(),
            cpu_ns: if tracing() { thread_cpu_ns() } else { 0 },
            switches: if tracing() { thread_switches() } else { 0 },
        }
    }

    /// CPU seconds of every accounted thread.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Voluntary context switches of every accounted thread.
    pub fn resumes(&self) -> u64 {
        self.resumes.load(Relaxed)
    }
}

/// Live accounting of one thread; see [`ThreadKind::enter`].
pub struct ThreadGuard {
    kind: &'static ThreadKind,
    on: bool,
    cpu_ns: u64,
    switches: u64,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        // No panics in drop: an unreadable counter just adds nothing.
        if let (true, Some(now)) = (self.on, read_thread_cpu_ns()) {
            let cpu = now.saturating_sub(self.cpu_ns);
            let sw = thread_switches().saturating_sub(self.switches);
            self.kind.cpu_ns.fetch_add(cpu, Relaxed);
            self.kind.resumes.fetch_add(sw, Relaxed);
        }
    }
}
