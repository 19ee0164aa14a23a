//! The six workloads. Each module's `run` sets up, warms up, drives its
//! timed section and checks every answer.

pub mod durable_mix;
pub mod paper_order;
pub mod plan_wide;
pub mod scan_join;
pub mod wire_point;

use crate::harness::{Outcome, RunConfig};

/// Runs workload `name`; `None` for a name not in
/// [`crate::metrics::WORKLOADS`].
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "paper_order" => paper_order::run(cfg),
        "scan_join" => scan_join::run(cfg, 1),
        "scan_join_w2" => scan_join::run(cfg, 2),
        "durable_mix" => durable_mix::run(cfg),
        "wire_point" => wire_point::run(cfg),
        "plan_wide" => plan_wide::run(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PER_LAYER, WORKLOADS};
    use std::path::PathBuf;

    fn traced(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.3,
            trace: true,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{}", std::process::id())),
        }
    }

    /// The repeatability the exact metrics and the committed digests rest
    /// on. One test, workloads in sequence: they are timed, and two at once
    /// would only slow each other.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "bench-scale data; run with `cargo test --release`"
    )]
    fn same_seed_repeats_exactly_and_another_seed_runs_clean() {
        let cfg = traced(crate::DEFAULT_SEED);
        for w in WORKLOADS {
            let first = run(w.name, &cfg).expect("a declared workload");
            let again = run(w.name, &cfg).expect("a declared workload");
            assert_eq!(
                first.checker.failed, 0,
                "{}: {:?}",
                w.name, first.checker.messages
            );
            assert!(!first.digests.is_empty(), "{}: nothing was checked", w.name);
            assert_eq!(first.digests, again.digests, "{}", w.name);
            assert_eq!(
                first.digests,
                crate::check::committed(w.name),
                "{}: benchmark/expected/digests.txt is stale",
                w.name
            );
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                assert_eq!(
                    first.layers.get(m.name),
                    again.layers.get(m.name),
                    "{}: {} must repeat exactly",
                    w.name,
                    m.name
                );
            }

            let other = run(w.name, &traced(crate::DEFAULT_SEED + 1)).expect("a declared workload");
            assert_eq!(
                other.checker.failed, 0,
                "{}: {:?}",
                w.name, other.checker.messages
            );
            assert!(other.checker.attempted > 0, "{}", w.name);
            assert_ne!(
                other.digests, first.digests,
                "{}: the seed must matter",
                w.name
            );
        }
        let _ = std::fs::remove_dir_all(cfg.out_dir);
        assert!(run("no_such_workload", &traced(1)).is_none());
    }
}
