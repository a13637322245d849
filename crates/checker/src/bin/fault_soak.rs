//! Bounded fixed-seed fault-soak: run the checker workloads under a
//! lossy, crashing [`offload::FaultPlan`] and demand a clean verdict
//! from every scenario.
//!
//! This is the CI entry point for the reliability layer (see ci.sh): a
//! deterministic matrix of seeds x fault plans x proxy counts, each run
//! under the conformance checker with the flight recorder armed. Any
//! failure writes a replayable dump to `target/failure-dumps/` (or
//! `$BF_FAILURE_DUMP_DIR`) and exits nonzero.
//!
//! Beyond the ctrl-plane matrix, five additional suites always run:
//!
//! * **payload** — flip/torn/silent-drop corruption on the verified
//!   stencil and on a persistent group all-to-all whose send buffer is
//!   rewritten before every call: every run must end byte-correct after
//!   bounded data-path retransmission (never a hang, never silent
//!   corruption);
//! * **starved** — a post burst far past a tiny admission cap, with the
//!   staging pool and FIN journal capped too: credit deferral and
//!   QueueFull nack-retry must pace the run to completion with queue
//!   depths bounded by the cap (the checker enforces it);
//! * **noisy-neighbor** — a flooding tenant against a well-behaved one
//!   at 2 and 4 proxies, clean and under a drop/dup/crash plan: the
//!   victim's p99 group-window latency must stay within the committed
//!   bound factor of its solo-run p99 (per-tenant lifecycle
//!   histograms), with every conformance invariant intact;
//! * **quota-retry** — the hard-quota shed under a lossy ctrl plane:
//!   a typed, retryable `QuotaExceeded`, never a stall;
//! * **doomed-group** — every `GroupPacket` transmit dropped:
//!   `Group_Wait` must surface a typed error instead of stalling;
//! * **armed-health** — the fabric health engine (per-path circuit
//!   breakers + retry budgets, DESIGN.md §19) armed under the classic
//!   ctrl-plane matrix, including the drop-heavy and proxy-crash
//!   plans: breakers and budgets must never get in the way of recovery
//!   the reliable layers already guarantee;
//! * **breaker-recovery** — sustained probabilistic registration
//!   failure: the cross-GVMI breaker must trip, fast-path its open
//!   window, probe, and close, with every transfer completing and the
//!   checker's breaker invariants (16/17) intact;
//! * **brownout** — a total data-plane brownout with budgets armed:
//!   both ends shed with a typed `RetryBudgetExhausted`, each shed
//!   pairing with a `ReqFailed` (invariant 18).
//!
//! `SOAK_LONG=1` additionally soaks a **flapping link** — registration
//! failure stacked on ctrl drops and a mid-window proxy crash, so
//! breakers trip, reset half-open through restart, and re-close
//! repeatedly.
//!
//! The plan can be overridden from the environment for ad-hoc soaking
//! (ctrl knobs plus the payload knobs `flip`/`torn`/`ddrop`):
//!
//! ```text
//! FAULT_PLAN=drop=100,dup=50,flip=40,torn=40,ddrop=20 \
//!     cargo run --release -p checker --bin fault_soak
//! ```
//!
//! `SOAK_LONG=1` widens the matrix (more seeds, deeper corruption
//! stacks) for nightly-style runs; the default stays CI-fast.

use checker::{
    alltoall_workload, armed_verified_stencil_workload, breaker_recovery_workload,
    brownout_workload, doomed_group_workload, group_refill_workload, noisy_victim_p99,
    quota_retry_workload, run_scenario_with_dump, starved_flood_workload,
    verified_stencil_workload, ConformanceConfig, Scenario, Workload, BREAKER_XREG_PM,
    NOISY_FLOOD_BURST, NOISY_P99_BOUND_FACTOR, STARVED_QUEUE_CAP,
};
use offload::FaultPlan;

fn default_plans() -> Vec<FaultPlan> {
    let none = FaultPlan::none();
    vec![
        // Each mechanism alone, then the combined acceptance plan:
        // 10% drop + 5% dup + delays + a mid-window proxy crash.
        FaultPlan {
            drop_pm: 100,
            ..none
        },
        FaultPlan { dup_pm: 50, ..none },
        FaultPlan {
            delay_pm: 100,
            delay_ns: 30_000,
            ..none
        },
        FaultPlan {
            xreg_fail_pm: 300,
            ..none
        },
        FaultPlan {
            drop_pm: 100,
            dup_pm: 50,
            delay_pm: 50,
            delay_ns: 10_000,
            crash_at_step: 12,
            ..none
        },
    ]
}

/// Data-plane corruption plans: each mode alone, then everything
/// stacked on a lossy ctrl plane (the data-integrity acceptance plan).
fn payload_plans(long: bool) -> Vec<FaultPlan> {
    let none = FaultPlan::none();
    let mut plans = vec![
        FaultPlan {
            flip_pm: 60,
            ..none
        },
        FaultPlan {
            torn_pm: 60,
            ..none
        },
        FaultPlan {
            data_drop_pm: 40,
            ..none
        },
        FaultPlan {
            flip_pm: 40,
            torn_pm: 40,
            data_drop_pm: 20,
            drop_pm: 50,
            ..none
        },
    ];
    if long {
        plans.push(FaultPlan {
            flip_pm: 150,
            torn_pm: 100,
            data_drop_pm: 60,
            drop_pm: 80,
            dup_pm: 40,
            ..none
        });
    }
    plans
}

/// Fault plans for the noisy-neighbor isolation suite: clean, then the
/// armed chaos plan (drops + dups + a mid-window proxy crash, forcing
/// per-tenant journal replay into the restarted proxy). `SOAK_LONG=1`
/// adds a delay-heavy plan to the matrix.
fn noisy_plans(long: bool) -> Vec<FaultPlan> {
    let none = FaultPlan::none();
    let mut plans = vec![
        none,
        FaultPlan {
            drop_pm: 100,
            dup_pm: 50,
            crash_at_step: 12,
            ..none
        },
    ];
    if long {
        plans.push(FaultPlan {
            drop_pm: 80,
            delay_pm: 100,
            delay_ns: 30_000,
            ..none
        });
    }
    plans
}

struct Tally {
    ran: usize,
    failed: usize,
}

impl Tally {
    fn record(
        &mut self,
        suite: &str,
        workload: &Workload,
        scenario: &Scenario,
        cfg: ConformanceConfig,
    ) {
        let label = format!(
            "{suite} plan={:?} seed={} jitter={}ns proxies={}",
            scenario.fault, scenario.seed, scenario.jitter_ns, scenario.proxies_per_dpu
        );
        let (outcome, dump) =
            run_scenario_with_dump(&format!("soak-{suite}"), workload, scenario, cfg);
        self.ran += 1;
        if outcome.is_ok() {
            println!("ok   {label}");
        } else {
            self.failed += 1;
            println!("FAIL {label}: {outcome:?}");
            if let Some(path) = dump {
                println!("     dump: {}", path.display());
            }
        }
    }
}

fn main() {
    let long = std::env::var("SOAK_LONG").is_ok_and(|v| v == "1");
    let seeds = if long { 8u64 } else { 4 };
    let env_plan = match FaultPlan::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fault_soak: {e}");
            std::process::exit(2);
        }
    };
    let plans = if env_plan.is_none() {
        default_plans()
    } else {
        vec![env_plan]
    };
    let workloads: [(&str, Workload); 2] = [
        ("verified-stencil", verified_stencil_workload()),
        ("alltoall", alltoall_workload()),
    ];
    let cfg = ConformanceConfig::default();
    let mut tally = Tally { ran: 0, failed: 0 };

    // Ctrl-plane matrix (or the single env-provided plan).
    for plan in &plans {
        for (name, workload) in &workloads {
            for seed in 0..seeds {
                for proxies in [1usize, 2, 4] {
                    let scenario = Scenario {
                        seed,
                        jitter_ns: [0, 2_000][(seed % 2) as usize],
                        proxies_per_dpu: proxies,
                        fault: plan.with_seed(seed * 97 + proxies as u64),
                    };
                    tally.record(name, workload, &scenario, cfg);
                }
            }
        }
    }

    // Data-plane integrity: corruption must heal byte-correct through
    // bounded retransmission (the drivers verify the received bytes),
    // on the stencil and on a persistent group whose send buffer is
    // rewritten before every call. The group moves 12 payloads a round,
    // so it skips the long-only plan: at 28% of attempts faulted, the
    // 8-attempt retransmission bound is spent by chance (a typed
    // failure, not a heal) in a few percent of sweeps.
    if env_plan.is_none() {
        let (stencil, refill) = (verified_stencil_workload(), group_refill_workload());
        let mut payload: Vec<(&str, &Workload, FaultPlan)> = payload_plans(long)
            .into_iter()
            .map(|plan| ("payload", &stencil, plan))
            .collect();
        payload.extend(
            payload_plans(false)
                .into_iter()
                .map(|plan| ("payload-group-refill", &refill, plan)),
        );
        for (suite, workload, plan) in payload {
            for seed in 0..seeds {
                for proxies in [1usize, 2, 4] {
                    let scenario = Scenario {
                        seed,
                        jitter_ns: 0,
                        proxies_per_dpu: proxies,
                        fault: plan.with_seed(seed * 131 + proxies as u64),
                    };
                    tally.record(suite, workload, &scenario, cfg);
                }
            }
        }

        // Backpressure: every queue capped far below the burst; the
        // checker enforces the admission cap on observed queue depths.
        let starved = starved_flood_workload();
        let starved_cfg = ConformanceConfig {
            queue_cap: STARVED_QUEUE_CAP,
            ..cfg
        };
        for seed in 0..seeds {
            for proxies in [1usize, 2, 4] {
                let scenario = Scenario {
                    seed,
                    jitter_ns: [0, 2_000][(seed % 2) as usize],
                    proxies_per_dpu: proxies,
                    fault: FaultPlan::none(),
                };
                tally.record("starved", &starved, &scenario, starved_cfg);
            }
        }

        // Tenant isolation: at 2 and 4 proxies, clean and under the
        // armed chaos plan, a flooding tenant must not inflate the
        // victim tenant's p99 group-window latency past the committed
        // bound factor of its solo-run p99 (both runs under the same
        // plan; latencies from the per-tenant lifecycle histograms).
        for plan in noisy_plans(long) {
            for seed in 0..if long { 4u64 } else { 2 } {
                for proxies in [2usize, 4] {
                    let scenario = Scenario {
                        seed,
                        jitter_ns: 0,
                        proxies_per_dpu: proxies,
                        fault: plan.with_seed(seed * 53 + proxies as u64),
                    };
                    let label = format!(
                        "noisy-neighbor plan={:?} seed={seed} proxies={proxies}",
                        scenario.fault
                    );
                    let (solo_p99, solo) = noisy_victim_p99(&scenario, 0);
                    let (noisy_p99, noisy) = noisy_victim_p99(&scenario, NOISY_FLOOD_BURST);
                    tally.ran += 1;
                    let bound = NOISY_P99_BOUND_FACTOR * solo_p99;
                    if solo.is_ok() && noisy.is_ok() && solo_p99 > 0 && noisy_p99 <= bound {
                        println!("ok   {label} (victim p99 {noisy_p99}ps <= {bound}ps)");
                    } else {
                        tally.failed += 1;
                        println!(
                            "FAIL {label}: solo={solo:?} p99={solo_p99}ps, \
                             noisy={noisy:?} p99={noisy_p99}ps bound={bound}ps"
                        );
                    }
                }
            }
        }

        // Shedding under loss: the hard-quota shed must stay a typed,
        // retryable refusal when the ctrl plane is dropping packets.
        let quota = quota_retry_workload();
        for seed in 0..seeds {
            let plan = FaultPlan {
                drop_pm: 100,
                ..FaultPlan::none()
            };
            let scenario = Scenario::baseline(seed).with_fault(plan.with_seed(seed * 7));
            tally.record("quota-retry", &quota, &scenario, cfg);
        }

        // Degradation: a doomed collective must fail typed, never stall.
        let doomed = doomed_group_workload();
        let doomed_plan = FaultPlan {
            drop_group_packets: true,
            ..FaultPlan::none()
        };
        for seed in 0..seeds {
            let scenario = Scenario::baseline(seed).with_fault(doomed_plan.with_seed(seed));
            tally.record("doomed-group", &doomed, &scenario, cfg);
        }

        // Health regression: breakers and budgets armed under the
        // classic matrix — clean, drop-heavy and proxy-crash plans
        // included — must leave every payload-verified run lossless.
        let armed = armed_verified_stencil_workload();
        let mut health_plans = vec![FaultPlan::none()];
        health_plans.extend(default_plans());
        for plan in &health_plans {
            for seed in 0..if long { 4u64 } else { 2 } {
                for proxies in [1usize, 2] {
                    let scenario = Scenario {
                        seed,
                        jitter_ns: 0,
                        proxies_per_dpu: proxies,
                        fault: plan.with_seed(seed * 61 + proxies as u64),
                    };
                    tally.record("armed-health", &armed, &scenario, cfg);
                }
            }
        }

        // Breaker trip-and-recovery: sustained probabilistic
        // registration failure must trip, fast-path, probe and close
        // without losing a transfer or an invariant.
        let recovery = breaker_recovery_workload();
        let recovery_plan = FaultPlan {
            xreg_fail_pm: BREAKER_XREG_PM,
            ..FaultPlan::none()
        };
        for seed in 0..seeds {
            for proxies in [1usize, 2] {
                let scenario = Scenario {
                    seed,
                    jitter_ns: [0, 2_000][(seed % 2) as usize],
                    proxies_per_dpu: proxies,
                    fault: recovery_plan.with_seed(seed * 41 + proxies as u64),
                };
                tally.record("breaker-recovery", &recovery, &scenario, cfg);
            }
        }

        // Brownout shedding: with the data plane dark, both ends must
        // shed typed (the driver asserts RetryBudgetExhausted) and
        // every shed must pair with a ReqFailed.
        let brownout = brownout_workload();
        let brownout_plan = FaultPlan {
            data_drop_pm: 1000,
            ..FaultPlan::none()
        };
        for seed in 0..seeds {
            let scenario = Scenario::baseline(seed).with_fault(brownout_plan.with_seed(seed * 19));
            tally.record("brownout", &brownout, &scenario, cfg);
        }

        // Flapping link (nightly): registration failure stacked on
        // ctrl drops and a mid-window proxy crash, so breakers trip,
        // reset half-open through the restart, and re-close.
        if long {
            let flapping = FaultPlan {
                xreg_fail_pm: BREAKER_XREG_PM,
                drop_pm: 80,
                crash_at_step: 12,
                ..FaultPlan::none()
            };
            for seed in 0..seeds {
                for proxies in [1usize, 2] {
                    let scenario = Scenario {
                        seed,
                        jitter_ns: 0,
                        proxies_per_dpu: proxies,
                        fault: flapping.with_seed(seed * 73 + proxies as u64),
                    };
                    tally.record("flapping-link", &recovery, &scenario, cfg);
                }
            }
        }
    }

    println!(
        "fault_soak: {} scenarios, {} failed",
        tally.ran, tally.failed
    );
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
