//! Persistent groups under payload faults: an application may rewrite a
//! group's send buffer between `Group_Offload_call`s, and every
//! generation must still heal against the CRCs of its own call.

use checker::{Conformance, ConformanceConfig};
use offload::{FaultPlan, Metrics};
use workloads::{drive_group_refill, fanout, CheckRun};

#[test]
fn refilled_group_send_buffer_heals_under_payload_faults() {
    let none = FaultPlan::none();
    let plans = [
        (
            "flip",
            FaultPlan {
                flip_pm: 60,
                ..none
            },
        ),
        (
            "torn",
            FaultPlan {
                torn_pm: 60,
                ..none
            },
        ),
        (
            "ddrop",
            FaultPlan {
                data_drop_pm: 60,
                ..none
            },
        ),
    ];
    for (name, plan) in plans {
        let metrics = Metrics::new();
        let checker = Conformance::new(ConformanceConfig::default());
        let mut run = CheckRun::baseline(3);
        run.move_bytes = true;
        run.sink = Some(fanout(vec![metrics.sink(), checker.sink()]));
        run.cfg = run.cfg.clone().with_fault(plan.with_seed(7));
        // The driver panics on a failed group_wait or a corrupt block.
        drive_group_refill(&run, 4096, 6)
            .unwrap_or_else(|e| panic!("{name}: refilled group failed: {e:?}"));
        let violations = checker.finish();
        assert!(violations.is_empty(), "{name}: {violations:?}");
        let report = metrics.report();
        assert!(
            report.payload_corrupt > 0,
            "{name}: the plan must corrupt at least one payload"
        );
        assert_eq!(report.group_failures, 0, "{name}");
        assert_eq!(report.data_integrity_failures, 0, "{name}");
    }
}
