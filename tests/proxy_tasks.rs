//! DPU proxies run as scheduler-polled tasks.
//!
//! A proxy's OS thread runs only its first slice (setup, up to the first
//! receive); every later proxy turn is an inline poll of its task on the
//! scheduler's thread. Host ranks stay thread-backed. The per-process
//! turn counters in the report are a pure function of the schedule, so
//! they must not depend on the engine or its worker-thread count.

use bluefield_offload::apps::{drive_stencil, CheckRun};

/// `(name, thread_turns, task_polls)` per process of a 2 nodes × 2 ppn
/// offloaded stencil with 2 proxies per DPU.
fn turns(threads: usize) -> Vec<(String, u64, u64)> {
    let mut cr = CheckRun::baseline(5);
    cr.proxies_per_dpu = 2;
    cr.threads = Some(threads);
    let report = drive_stencil(&cr, 4096, 2).expect("clean run");
    report
        .procs
        .iter()
        .map(|p| (p.name.clone(), p.thread_turns, p.task_polls))
        .collect()
}

#[test]
fn proxies_are_tasks_and_turn_counts_are_engine_invariant() {
    let classic = turns(1);
    let mut proxies = 0;
    for (name, thread_turns, task_polls) in &classic {
        if name.starts_with("proxy") {
            proxies += 1;
            assert_eq!(
                *thread_turns, 1,
                "{name}: only the first slice runs on a thread"
            );
            assert!(*task_polls > 0, "{name}: proxy turns are task polls");
        } else {
            assert!(name.starts_with("rank"), "unexpected process {name}");
            assert!(*thread_turns > 0, "{name}");
            assert_eq!(*task_polls, 0, "{name}: hosts stay thread-backed");
        }
    }
    assert_eq!(proxies, 4);
    assert_eq!(classic, turns(4), "turn counts differ between engines");
}
