//! Tests of task-backed processes (`ProcessCtx::continue_as_task`).
//!
//! A task-backed process runs the rest of its body as a `Future` that the
//! scheduler polls inline, instead of resuming an OS thread. The contract
//! pinned here:
//!
//! 1. equivalence — the same recv/deliver/compute body run thread-backed
//!    and task-backed yields an identical `Report` (end time, events,
//!    stats, per-process `finished_at`/`compute_time`, trace), on the
//!    classic engine and on a 4-shard run with cross-shard deliveries
//!    under the yield-injection shim, at 1 and 4 worker threads;
//! 2. failure shapes — a task's panic is re-raised with the process name,
//!    a task blocked when the queue drains is named in the deadlock, and
//!    a blocking call from a task panics instead of hanging;
//! 3. lifecycle — a task that completes at its first poll finishes at
//!    that instant, and later deliveries to it are counted as dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simnet::{BlockReason, Pid, ProcessCtx, Report, SimDelta, SimError, SimTime, Simulation};

/// Which engine a test simulation runs on.
#[derive(Clone, Copy, Debug)]
enum Engine {
    Classic,
    /// Sharded runtime at this many worker threads, under the
    /// yield-injection shim.
    Sharded(usize),
}

impl Engine {
    fn sim(self, seed: u64) -> Simulation {
        let mut sim = Simulation::new(seed);
        if let Engine::Sharded(threads) = self {
            sim.set_threads(threads);
            sim.set_chaos(seed ^ 0x5eed);
        }
        sim
    }

    /// Spawn onto `shard` (sharded) or the single queue (classic).
    fn spawn<F>(self, sim: &mut Simulation, shard: usize, name: &str, f: F) -> Pid
    where
        F: FnOnce(ProcessCtx) + Send + 'static,
    {
        match self {
            Engine::Classic => sim.spawn(name, f),
            Engine::Sharded(_) => sim.spawn_on(shard, name, f),
        }
    }
}

const SHARDS: usize = 4;
const ROUNDS: u64 = 6;

/// One request served by an echo server: reply to the client after a
/// delay drawn from the shard's RNG (so RNG order is part of the check).
fn serve(ctx: &ProcessCtx, req: simnet::Payload) {
    let (client, k) = *req.downcast::<(Pid, u64)>().expect("request");
    ctx.trace(format!("serve.{k}"));
    ctx.stat_incr("srv.served", 1);
    let delay = SimDelta::from_us(1) + SimDelta::from_ns(ctx.gen_range(500));
    ctx.deliver(client, delay, Box::new(k));
}

/// Echo servers (thread- or task-backed) on every shard, and clients that
/// compute, send two requests at once to the next shard's server and wait
/// for both replies. Server `s` is pid `s`, client `s` is pid
/// `SHARDS + s`.
fn echo_run(engine: Engine, as_task: bool) -> Report {
    let mut sim = engine.sim(11);
    sim.enable_trace();
    for s in 0..SHARDS {
        engine.spawn(&mut sim, s, &format!("srv{s}"), move |ctx| {
            // The first slice always runs on the thread. It outlasts the
            // first requests' arrival, so the task's first poll finds a
            // queued mailbox and must drain it in order.
            ctx.compute(SimDelta::from_ns(3000 + 300 * s as u64));
            ctx.trace("srv.up");
            if as_task {
                let tctx = ctx.clone();
                ctx.continue_as_task(async move {
                    for _ in 0..2 * ROUNDS {
                        let req = tctx.recv_async().await;
                        serve(&tctx, req);
                    }
                    tctx.trace("srv.done");
                });
            } else {
                for _ in 0..2 * ROUNDS {
                    let req = ctx.recv();
                    serve(&ctx, req);
                }
                ctx.trace("srv.done");
            }
        });
    }
    for s in 0..SHARDS {
        let server = Pid::from_index((s + 1) % SHARDS);
        engine.spawn(&mut sim, s, &format!("cli{s}"), move |ctx| {
            for round in 0..ROUNDS {
                ctx.compute(SimDelta::from_ns(100 + ctx.gen_range(700)));
                for k in [2 * round, 2 * round + 1] {
                    ctx.deliver(server, SimDelta::from_us(1), Box::new((ctx.pid(), k)));
                }
                for _ in 0..2 {
                    let got = *ctx.recv().downcast::<u64>().expect("reply");
                    assert_eq!(got / 2, round);
                    ctx.trace(format!("cli.got.{got}"));
                }
            }
        });
    }
    sim.run().expect("echo run completes")
}

/// Everything a `Report` carries that must not depend on how processes
/// are backed (the turn counters are checked separately).
fn observable(r: &Report) -> String {
    let mut out = format!("end={} events={}\n", r.end_time, r.events);
    for (k, v) in r.stats.counters() {
        if !k.starts_with("simnet.sharded.") {
            out += &format!("{k}={v}\n");
        }
    }
    for p in &r.procs {
        out += &format!(
            "{} finished={} compute={}\n",
            p.name, p.finished_at, p.compute_time
        );
    }
    out + &r.trace.as_ref().expect("tracing on").render()
}

#[test]
fn task_backed_servers_match_thread_backed_ones_on_every_engine() {
    let reference = observable(&echo_run(Engine::Classic, false));
    for engine in [Engine::Classic, Engine::Sharded(1), Engine::Sharded(4)] {
        let threads = echo_run(engine, false);
        let tasks = echo_run(engine, true);
        assert_eq!(
            observable(&threads),
            observable(&tasks),
            "{engine:?}: task-backed run diverged from the thread-backed one"
        );
        if let Engine::Sharded(_) = engine {
            assert!(threads.stats.counter("simnet.sharded.xshard_events") > 0);
        } else {
            assert_eq!(observable(&tasks), reference);
        }
        // Servers leave their thread in its second turn (after the
        // compute); every later turn is an inline poll. The scheduler
        // gives each process the same turns either way.
        for (i, (t, k)) in threads.procs.iter().zip(&tasks.procs).enumerate() {
            assert_eq!(t.task_polls, 0);
            assert_eq!(k.thread_turns + k.task_polls, t.thread_turns, "{}", k.name);
            if i < SHARDS {
                assert_eq!(k.thread_turns, 2, "{}", k.name);
            } else {
                assert_eq!(k.task_polls, 0, "{}", k.name);
            }
        }
    }
    // The sharded counts are a pure function of the schedule.
    let turns = |r: &Report| -> Vec<(u64, u64)> {
        r.procs
            .iter()
            .map(|p| (p.thread_turns, p.task_polls))
            .collect()
    };
    assert_eq!(
        turns(&echo_run(Engine::Sharded(1), true)),
        turns(&echo_run(Engine::Sharded(4), true))
    );
}

/// A single task-backed process `name` that panics with `bang` on its
/// second message (so the panic is raised from an inline poll, not from
/// the first poll on the thread).
fn panicking_task(engine: Engine) {
    let mut sim = engine.sim(0);
    let victim = engine.spawn(&mut sim, 0, "tasky", |ctx| {
        let tctx = ctx.clone();
        ctx.continue_as_task(async move {
            let _ = tctx.recv_async().await;
            let _ = tctx.recv_async().await;
            panic!("bang");
        });
    });
    engine.spawn(&mut sim, 1, "feeder", move |ctx| {
        ctx.deliver(victim, SimDelta::from_us(1), Box::new(1u8));
        ctx.sleep(SimDelta::from_us(1));
        ctx.deliver(victim, SimDelta::from_us(1), Box::new(2u8));
    });
    let _ = sim.run();
}

#[test]
#[should_panic(expected = "simulated process 'tasky' panicked: bang")]
fn task_panic_names_the_process_on_the_classic_engine() {
    panicking_task(Engine::Classic);
}

#[test]
#[should_panic(expected = "simulated process 'tasky' panicked: bang")]
fn task_panic_names_the_process_on_the_sharded_engine() {
    panicking_task(Engine::Sharded(2));
}

#[test]
fn blocked_task_is_reported_in_the_deadlock() {
    for engine in [Engine::Classic, Engine::Sharded(1), Engine::Sharded(4)] {
        let mut sim = engine.sim(0);
        engine.spawn(&mut sim, 0, "done", |ctx| ctx.sleep(SimDelta::from_us(2)));
        engine.spawn(&mut sim, 1, "waiting-task", |ctx| {
            let tctx = ctx.clone();
            ctx.continue_as_task(async move {
                let _ = tctx.recv_async().await; // nobody ever sends
            });
        });
        match sim.run() {
            Err(SimError::Deadlock { now, blocked }) => {
                assert_eq!(now, SimTime::ZERO + SimDelta::from_us(2), "{engine:?}");
                assert_eq!(
                    blocked,
                    vec![("waiting-task".to_string(), BlockReason::WaitMessage)],
                    "{engine:?}"
                );
            }
            other => panic!("{engine:?}: expected a deadlock, got {other:?}"),
        }
    }
}

#[test]
fn task_done_at_first_poll_finishes_at_that_instant() {
    for engine in [Engine::Classic, Engine::Sharded(1), Engine::Sharded(4)] {
        let mut sim = engine.sim(0);
        let short = engine.spawn(&mut sim, 0, "short", |ctx| {
            ctx.sleep(SimDelta::from_us(3));
            let tctx = ctx.clone();
            // Ready at once: the message below was already delivered.
            ctx.continue_as_task(async move {
                let first = tctx.recv_async().await;
                assert_eq!(*first.downcast::<u8>().unwrap(), 1);
            });
        });
        engine.spawn(&mut sim, 1, "late", move |ctx| {
            ctx.deliver(short, SimDelta::from_us(2), Box::new(1u8));
            ctx.sleep(SimDelta::from_us(4));
            ctx.deliver(short, SimDelta::from_us(1), Box::new(2u8));
        });
        let report = sim.run().unwrap();
        let p = &report.procs[short.index()];
        assert_eq!(
            p.finished_at,
            SimTime::ZERO + SimDelta::from_us(3),
            "{engine:?}"
        );
        assert_eq!((p.thread_turns, p.task_polls), (2, 0), "{engine:?}");
        assert_eq!(report.stats.counter("simnet.deliver_to_finished"), 1);
    }
}

/// Run `sim`, which must panic; return the re-raised message.
fn panic_of(sim: Simulation) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the run must panic");
    err.downcast_ref::<String>()
        .cloned()
        .expect("formatted panic message")
}

/// A call a task-backed process must not make.
type Op = fn(&ProcessCtx);

/// Run a task-backed process that makes `op` after its first message;
/// return the panic message the run raised.
fn blocking_call_from_task(engine: Engine, op: Op) -> String {
    let mut sim = engine.sim(0);
    let tasky = engine.spawn(&mut sim, 0, "tasky", move |ctx| {
        let tctx = ctx.clone();
        ctx.continue_as_task(async move {
            let _ = tctx.recv_async().await;
            op(&tctx);
        });
    });
    engine.spawn(&mut sim, 1, "feeder", move |ctx| {
        ctx.deliver(tasky, SimDelta::from_us(1), Box::new(()));
    });
    panic_of(sim)
}

#[test]
fn blocking_calls_from_a_task_panic_instead_of_hanging() {
    let ops: [(&str, Op); 5] = [
        ("recv", |c| drop(c.recv())),
        ("sleep", |c| c.sleep(SimDelta::from_ns(1))),
        ("compute", |c| c.compute(SimDelta::from_ns(1))),
        ("yield_now", |c| c.yield_now()),
        ("continue_as_task", |c| c.continue_as_task(async {})),
    ];
    for engine in [Engine::Classic, Engine::Sharded(2)] {
        for (name, op) in ops {
            let msg = blocking_call_from_task(engine, op);
            assert!(
                msg.starts_with("simulated process 'tasky' panicked:")
                    && msg.contains(&format!("ProcessCtx::{name}()"))
                    && msg.contains("recv_async()"),
                "{engine:?} {name}: {msg}"
            );
        }
    }
}

#[test]
fn the_thread_slice_may_not_block_after_handing_over() {
    for engine in [Engine::Classic, Engine::Sharded(1)] {
        let mut sim = engine.sim(0);
        engine.spawn(&mut sim, 0, "tasky", |ctx| {
            let tctx = ctx.clone();
            ctx.continue_as_task(async move {
                let _ = tctx.recv_async().await;
            });
            ctx.sleep(SimDelta::from_us(1));
        });
        let msg = panic_of(sim);
        assert!(msg.contains("ProcessCtx::sleep()"), "{engine:?}: {msg}");
    }
}

#[test]
fn a_task_pending_without_blocking_fails_the_process() {
    const WANT: &str = "simulated process 'stray' panicked: task returned Pending \
                        without awaiting ProcessCtx::recv_async()";
    for engine in [Engine::Classic, Engine::Sharded(2)] {
        // Pending at the first poll, on the thread.
        let mut sim = engine.sim(0);
        engine.spawn(&mut sim, 0, "stray", |ctx| {
            ctx.continue_as_task(std::future::pending());
        });
        assert_eq!(panic_of(sim), WANT, "{engine:?}");
        // Pending at an inline poll, on the scheduler.
        let mut sim = engine.sim(0);
        let stray = engine.spawn(&mut sim, 0, "stray", |ctx| {
            let tctx = ctx.clone();
            ctx.continue_as_task(async move {
                let _ = tctx.recv_async().await;
                std::future::pending::<()>().await;
            });
        });
        engine.spawn(&mut sim, 1, "feeder", move |ctx| {
            ctx.deliver(stray, SimDelta::from_us(1), Box::new(()));
        });
        assert_eq!(panic_of(sim), WANT, "{engine:?}");
    }
}
