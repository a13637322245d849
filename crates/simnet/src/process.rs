//! Simulated processes.
//!
//! A simulated process starts as an OS thread running a user closure
//! against a [`ProcessCtx`]. Execution is strictly sequential: a single
//! "baton" per process is passed between the scheduler thread and the
//! process thread, so at any moment at most one thread in the whole
//! simulation is running. That makes the engine deterministic and lets
//! user code use ordinary Rust control flow (loops, recursion, panics)
//! instead of hand-written state machines.
//!
//! A process may hand the rest of its body to the engine as a `Future`
//! ([`ProcessCtx::continue_as_task`]). From then on it is **task-backed**:
//! its OS thread has exited, and each scheduler turn polls the task
//! inline on the scheduler's own thread ([`run_turn`]) — a function call
//! instead of two thread switches. Readiness is still driven by
//! [`ProcStatus`] and the ready queue, exactly as for threads, so the
//! resume order is the same either way and the waker is a no-op. A task
//! blocks only by awaiting [`ProcessCtx::recv_async`]; the blocking calls
//! (`recv`, `sleep`, `compute`, `yield_now`) panic when made from a task,
//! because they would wait on the scheduler's own baton and hang the run.
//!
//! [`ProcessCtx`]: crate::ProcessCtx
//! [`ProcessCtx::continue_as_task`]: crate::ProcessCtx::continue_as_task
//! [`ProcessCtx::recv_async`]: crate::ProcessCtx::recv_async

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::{Condvar, Mutex};

use crate::time::{SimDelta, SimTime};

/// Identifier of a simulated process. Indexes into the simulation's process
/// table; never reused within one simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a pid from a raw index — for observers replaying or
    /// synthesizing event streams outside a simulation. The simulation
    /// itself only hands out pids via `spawn`.
    pub fn from_index(i: usize) -> Pid {
        Pid(i as u32)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A message deposited into a process mailbox. The engine is payload-
/// agnostic; upper layers define their own message enums and downcast.
pub type Payload = Box<dyn Any + Send>;

/// Why a process is currently not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Sleeping (or computing) until a scheduled wake-up.
    Sleep,
    /// Waiting for a mailbox message.
    WaitMessage,
}

/// Run state of a process, as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcStatus {
    /// Eligible to run at the current instant.
    Ready,
    /// Currently holding the baton.
    Running,
    /// Blocked; see the reason.
    Blocked(BlockReason),
    /// The closure returned (or panicked).
    Finished,
}

/// Which side currently holds a process's baton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatonHolder {
    Scheduler,
    Process,
}

/// Per-process handshake used to transfer control between the scheduler
/// thread and the process thread.
pub(crate) struct Baton {
    holder: Mutex<BatonHolder>,
    cv: Condvar,
}

impl Baton {
    pub(crate) fn new() -> Arc<Baton> {
        Arc::new(Baton {
            holder: Mutex::new(BatonHolder::Scheduler),
            cv: Condvar::new(),
        })
    }

    /// Called by the scheduler: hand the baton to the process and wait until
    /// the process yields it back (by blocking or finishing).
    pub(crate) fn resume_process(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Scheduler);
        *holder = BatonHolder::Process;
        self.cv.notify_all();
        while *holder != BatonHolder::Scheduler {
            self.cv.wait(&mut holder);
        }
    }

    /// Called by the process thread: hand the baton back to the scheduler
    /// and wait until the scheduler resumes this process.
    pub(crate) fn yield_to_scheduler(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Process);
        *holder = BatonHolder::Scheduler;
        self.cv.notify_all();
        while *holder != BatonHolder::Process {
            self.cv.wait(&mut holder);
        }
    }

    /// Called by the process thread on exit: release the baton for good.
    pub(crate) fn finish(&self) {
        let mut holder = self.holder.lock();
        debug_assert_eq!(*holder, BatonHolder::Process);
        *holder = BatonHolder::Scheduler;
        self.cv.notify_all();
    }

    /// Called by the process thread before its first instruction: wait for
    /// the scheduler to start it.
    pub(crate) fn wait_for_start(&self) {
        let mut holder = self.holder.lock();
        while *holder != BatonHolder::Process {
            self.cv.wait(&mut holder);
        }
    }
}

/// The rest of a task-backed process's body (see
/// [`ProcessCtx::continue_as_task`](crate::ProcessCtx::continue_as_task)).
pub(crate) type Task = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Why a process fails whose task returned `Pending` without blocking.
pub(crate) const PENDING_WITHOUT_AWAIT: &str =
    "task returned Pending without awaiting ProcessCtx::recv_async()";

/// Poll `task` once. Readiness is tracked by [`ProcStatus`] and the ready
/// queue, never by wakers, so the waker is a no-op.
pub(crate) fn poll_once(task: &mut Task) -> Poll<()> {
    task.as_mut().poll(&mut Context::from_waker(Waker::noop()))
}

/// Scheduler-side bookkeeping for one process.
pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) status: ProcStatus,
    pub(crate) mailbox: VecDeque<Payload>,
    pub(crate) baton: Arc<Baton>,
    pub(crate) join: Option<std::thread::JoinHandle<()>>,
    /// Panic payload captured from the process closure, if any.
    pub(crate) panic: Option<String>,
    /// Total virtual time this process spent in `compute()`.
    pub(crate) compute_time: SimDelta,
    /// Instant the process finished, if it has.
    pub(crate) finished_at: Option<SimTime>,
    /// Set once the process called `continue_as_task`: blocking calls
    /// are refused from then on.
    pub(crate) task_backed: bool,
    /// The parked task of a task-backed process (taken out while it is
    /// being polled).
    pub(crate) task: Option<Task>,
    /// Scheduler turns that resumed the process thread.
    pub(crate) thread_turns: u64,
    /// Scheduler turns that polled the task inline.
    pub(crate) task_polls: u64,
}

impl ProcSlot {
    pub(crate) fn new(name: String, baton: Arc<Baton>) -> Self {
        ProcSlot {
            name,
            status: ProcStatus::Ready,
            mailbox: VecDeque::new(),
            baton,
            join: None,
            panic: None,
            compute_time: SimDelta::ZERO,
            finished_at: None,
            task_backed: false,
            task: None,
            thread_turns: 0,
            task_polls: 0,
        }
    }

    fn finish(&mut self, now: SimTime, panic: Option<String>) {
        self.status = ProcStatus::Finished;
        self.finished_at = Some(now);
        self.panic = panic;
    }

    /// The process thread's closure returned (or panicked) at `now`. The
    /// process finishes unless it parked a task to run the rest of its
    /// body. Returns a task abandoned by a panic, for the caller to drop
    /// once the scheduler state is unlocked.
    pub(crate) fn thread_exit(
        &mut self,
        now: SimTime,
        result: std::thread::Result<()>,
    ) -> Option<Task> {
        match result {
            Ok(()) if self.task.is_some() => None,
            Ok(()) => {
                self.finish(now, None);
                None
            }
            Err(payload) => {
                self.finish(now, Some(panic_message(&*payload)));
                self.task.take()
            }
        }
    }

    /// Park a task that returned `Pending`. It must have blocked through
    /// a [`ProcessCtx`](crate::ProcessCtx) awaitable, or nothing would
    /// ever make the process runnable again: such a task is handed back
    /// for the caller to fail the process with [`PENDING_WITHOUT_AWAIT`].
    pub(crate) fn park_task(&mut self, task: Task) -> Result<(), Task> {
        if self.status == ProcStatus::Running {
            return Err(task);
        }
        self.task = Some(task);
        Ok(())
    }

    /// Refuse a blocking call from a task-backed process: it would wait
    /// on the scheduler's own baton and hang the run without an error.
    pub(crate) fn forbid_in_task(&self, op: &str) {
        assert!(
            !self.task_backed,
            "simulated process '{}' is task-backed and cannot call \
             ProcessCtx::{op}(): a task blocks only by awaiting \
             ProcessCtx::recv_async() (arm a deliver_self timer to wait for time)",
            self.name
        );
    }
}

/// A process panic captured by the scheduler, formatted for re-raising,
/// plus the dead process thread (if any) to join first.
pub(crate) struct ProcPanic {
    pub(crate) msg: String,
    pub(crate) join: Option<std::thread::JoinHandle<()>>,
}

/// One scheduler turn of a `Ready` process: resume its thread until it
/// blocks or finishes, or poll its task inline. `slot_of` projects the
/// engine state onto the process's slot and the current instant; the
/// state is locked only around the projections, never while the process
/// runs. Returns the process's panic, if it raised one.
pub(crate) fn run_turn<S>(
    state: &Mutex<S>,
    slot_of: impl Fn(&mut S) -> (&mut ProcSlot, SimTime),
) -> Option<ProcPanic> {
    let (baton, task) = {
        let mut st = state.lock();
        let (slot, _) = slot_of(&mut st);
        debug_assert_eq!(slot.status, ProcStatus::Ready);
        slot.status = ProcStatus::Running;
        let task = slot.task.take();
        if task.is_some() {
            slot.task_polls += 1;
        } else {
            slot.thread_turns += 1;
        }
        (Arc::clone(&slot.baton), task)
    };
    // A finished task is dropped only after the state is unlocked.
    let mut done = None;
    let polled = match task {
        None => {
            baton.resume_process();
            None
        }
        Some(mut task) => {
            let polled = catch_unwind(AssertUnwindSafe(|| poll_once(&mut task)));
            Some((task, polled))
        }
    };
    let mut st = state.lock();
    let (slot, now) = slot_of(&mut st);
    match polled {
        None => {}
        Some((task, Ok(Poll::Pending))) => {
            if let Err(task) = slot.park_task(task) {
                slot.finish(now, Some(PENDING_WITHOUT_AWAIT.to_string()));
                done = Some(task);
            }
        }
        Some((task, Ok(Poll::Ready(())))) => {
            slot.finish(now, None);
            done = Some(task);
        }
        Some((task, Err(payload))) => {
            slot.finish(now, Some(panic_message(&*payload)));
            done = Some(task);
        }
    }
    debug_assert_ne!(
        slot.status,
        ProcStatus::Running,
        "process yielded without blocking"
    );
    let panic = slot.panic.take().map(|msg| ProcPanic {
        msg: format!("simulated process '{}' panicked: {msg}", slot.name),
        join: slot.join.take(),
    });
    drop(st);
    drop(done);
    panic
}

/// Convert a panic payload into a printable message.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "process panicked with a non-string payload".to_string()
    }
}
