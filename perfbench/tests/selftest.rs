//! The benchmark's self-test: every workload runs clean at a tiny size
//! through the same code path as a real run, and a planted one-byte
//! corruption makes the run fail.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Options, Outcome, Spec, WORKLOADS};
use std::path::PathBuf;

fn tiny(name: &str, trace: bool, flip_fetch: Option<u64>) -> Outcome {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{name}-trace{}-flip{}",
        u8::from(trace),
        flip_fetch.is_some()
    ));
    let opts = Options {
        spec: Spec::named(name).expect("known workload").tiny(),
        seed: 3,
        seconds: 0.3,
        trace,
        root,
        flip_fetch,
    };
    run(&opts).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn extra(o: &Outcome, name: &str) -> f64 {
    o.extra
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for name in WORKLOADS {
        let timed = tiny(name, false, None);
        assert!(
            timed.correct(),
            "{name}: {:?} {:?}",
            timed.tally,
            timed.error
        );
        assert_eq!(timed.exit_code(), 0);
        let names: Vec<&str> = timed.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{name}");
        assert_eq!(extra(&timed, "failed_fraction"), 0.0);
        assert!(
            timed.metrics.iter().all(|m| m.value > 0.0),
            "{name}: {:?}",
            timed.metrics
        );

        let traced = tiny(name, true, None);
        assert!(
            traced.correct(),
            "{name}: {:?} {:?}",
            traced.tally,
            traced.error
        );
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{name}");
        let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("trace.dropped_spans"), 0.0, "{name}");
        assert!(value("store.fetch.count") > 0.0, "{name}");
        assert!(value("codec.decode.count") > 0.0, "{name}");
    }
}

#[test]
fn a_flipped_byte_fails_the_run() {
    for name in WORKLOADS {
        let o = tiny(name, false, Some(3));
        assert!(o.tally.failed() > 0, "{name}: {:?}", o.tally);
        assert!(extra(&o, "failed_fraction") > 0.0, "{name}");
        assert!(!o.correct(), "{name}");
        assert_ne!(o.exit_code(), 0, "{name}");
    }
}
