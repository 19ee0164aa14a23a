//! `--compare A.json B.json`: judges result file B against baseline A by
//! the benchmark's own rules — the tool for the repeatability criterion
//! and for every later before/after review.
//!
//! Per workload × end-to-end metric: `regressed` when B's median is worse
//! than A's by more than the metric's bound, `unresolved` when either
//! side's quartile spread exceeds the bound (the runs cannot tell), else
//! `ok`. Per workload × exact per-layer count: the two files must agree
//! run for run (same seed, same value). Any failed check in B is a
//! regression of its own.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::suite::values_of;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the baseline median by which `candidate` is worse (negative
/// when it is better).
pub fn worse_by(baseline: f64, candidate: f64, better: Better) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

/// The verdict on one bounded metric from both sides' run values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if worse_by(median(a), median(b), better) > bound {
        return Verdict::Regressed;
    }
    let too_wide = |v: &[f64]| quartile_spread(v).is_some_and(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Exact counts: every run present on both sides (paired by position —
/// the suite derives run `r`'s seed from the base seed) must agree.
pub fn judge_exact(a: &[f64], b: &[f64]) -> Verdict {
    if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y) {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed_checks(workload: &Json) -> f64 {
    values_of_field(workload, "failed").iter().sum()
}

fn values_of_field(workload: &Json, field: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get(field)?.as_f64())
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let seeds = |doc: &Json| {
        doc.get("provenance")
            .and_then(|p| p.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seeds(&a) == seeds(&b);
    if !same_seed {
        eprintln!("note: the files were run with different seeds; exact counts are not compared");
    }
    let empty = Vec::new();
    let a_workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(&empty);
    let mut worst = Verdict::Ok;
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (name, wa) in a_workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<14} missing from B");
            worst = Verdict::Regressed;
            continue;
        };
        let mut row = |metric: &str,
                       va: &[f64],
                       vb: &[f64],
                       better: Better,
                       bound: Option<f64>,
                       v: Verdict| {
            println!(
                "{name:<14} {metric:<34} {:>14.4} {:>14.4} {:>8.1}% {:>7}  {}",
                median(va),
                median(vb),
                worse_by(median(va), median(vb), better) * 100.0,
                bound.map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0)),
                v.as_str()
            );
            worst = match (worst, v) {
                (Verdict::Regressed, _) | (_, Verdict::Regressed) => Verdict::Regressed,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        };
        for m in END_TO_END {
            let (va, vb) = (
                values_of(wa, "end_to_end", m.name),
                values_of(wb, "end_to_end", m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            row(
                m.name,
                &va,
                &vb,
                m.better,
                Some(m.bound),
                judge(&va, &vb, m.better, m.bound),
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact && same_seed) {
            let (va, vb) = (
                values_of(wa, "per_layer", m.name),
                values_of(wb, "per_layer", m.name),
            );
            // A layer this workload never touches reports 0 on both sides.
            if va.iter().chain(&vb).all(|v| *v == 0.0) {
                continue;
            }
            row(m.name, &va, &vb, m.better, None, judge_exact(&va, &vb));
        }
        // error_rate must be 0: any failed check in B is a regression.
        let (fa, fb) = (failed_checks(wa), failed_checks(wb));
        let verdict = if fb > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        row("failed_checks", &[fa], &[fb], Better::Lower, None, verdict);
    }
    println!("overall: {}", worst.as_str());
    match worst {
        Verdict::Ok => ExitCode::SUCCESS,
        Verdict::Regressed => ExitCode::from(1),
        Verdict::Unresolved => ExitCode::from(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 88.0, Better::Higher) - 0.12).abs() < 1e-12);
        assert!(worse_by(100.0, 90.0, Better::Lower) < 0.0);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn bound_decides_regression_and_spread_decides_resolution() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [112.0, 113.0, 111.0, 112.5, 111.5];
        let noisy = [80.0, 100.0, 125.0, 90.0, 110.0];
        assert_eq!(judge(&tight, &tight, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&tight, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Faster is never a regression, whatever the direction says.
        assert_eq!(judge(&slower, &tight, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &tight, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Same median, but the runs scatter wider than the bound.
        assert_eq!(
            judge(&tight, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(judge(&[100.0], &[105.0], Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn exact_counts_must_agree_run_for_run() {
        assert_eq!(judge_exact(&[5.0, 7.0], &[5.0, 7.0]), Verdict::Ok);
        assert_eq!(judge_exact(&[5.0, 7.0], &[5.0, 8.0]), Verdict::Regressed);
        assert_eq!(judge_exact(&[5.0], &[5.0, 5.0]), Verdict::Regressed);
    }
}
