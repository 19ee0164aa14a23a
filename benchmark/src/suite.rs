//! The full run: every workload, each run in a child process of its own
//! (so peak RSS, page cache warmth and allocator state of one workload
//! cannot leak into the next), collected into one result file with its
//! provenance.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

/// First line of `program args`' stdout, or "unknown" — provenance must
/// not fail a run (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from seconds since the epoch (civil-from-days,
/// proleptic Gregorian).
pub fn utc_timestamp(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

fn provenance(seed: u64, seconds: f64, runs: usize) -> Json {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj()
        .with("git_commit", tool_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", tool_line("rustc", &["--version"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("seed", seed)
        .with("seconds", seconds)
        .with("runs", runs)
        .with("timestamp_utc", utc_timestamp(now))
}

/// Runs `--workload name` in a child and returns its result object (the
/// last stdout line) with the detail file the child left beside it.
fn child_run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tag = u8::from(trace);
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &tag.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no output (exit {})", output.status))?;
    let result = json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let detail_path = crate::out_dir().join(format!("detail.{name}.trace{tag}.json"));
    let detail = std::fs::read_to_string(&detail_path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
        .unwrap_or(Json::Null);
    Ok((result, detail))
}

fn metric_values(result: &Json) -> Json {
    let fields = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    Json::Obj(
        fields
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
            .collect(),
    )
}

pub fn run(seed: u64, seconds: f64, runs: usize, trace: bool, out: Option<PathBuf>) -> ExitCode {
    let out_path = out.unwrap_or_else(|| crate::out_dir().join("result.json"));
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let mut run_entries = Vec::new();
        let mut sizes = Json::Null;
        for r in 0..runs {
            let run_seed = seed.wrapping_add(r as u64);
            eprintln!("== {} run {}/{} seed {run_seed}", w.name, r + 1, runs);
            let mut entry = Json::obj().with("seed", run_seed);
            let mut passes = vec![(false, "end_to_end")];
            if trace {
                passes.push((true, "per_layer"));
            }
            for (traced, key) in passes {
                match child_run(w.name, run_seed, seconds, traced) {
                    Ok((result, detail)) => {
                        let correct = result.get("correct") == Some(&Json::Bool(true));
                        all_correct &= correct;
                        if !traced {
                            for field in ["correct", "attempted", "failed"] {
                                entry.set(field, result.get(field).cloned().unwrap_or(Json::Null));
                            }
                            for field in
                                ["op_samples", "op_tail_pct", "op_tail_ms", "setup_samples_s"]
                            {
                                entry.set(field, detail.get(field).cloned().unwrap_or(Json::Null));
                            }
                            sizes = detail.get("sizes").cloned().unwrap_or(Json::Null);
                        } else {
                            entry.set("traced_correct", correct);
                        }
                        entry.set(key, metric_values(&result));
                    }
                    Err(msg) => {
                        eprintln!("{msg}");
                        all_correct = false;
                        entry.set(key, Json::Null);
                    }
                }
            }
            run_entries.push(entry);
        }
        workloads.push((
            w.name.to_string(),
            Json::obj()
                .with("why", w.why)
                .with("sizes", sizes)
                .with("runs", run_entries),
        ));
    }

    let doc = Json::obj()
        .with("benchmark", "pyro-benchmark")
        .with("provenance", provenance(seed, seconds, runs))
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.as_str())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.as_str())
                        .with("exact", m.exact)
                })
                .collect::<Vec<_>>(),
        )
        .with("workloads", Json::Obj(workloads))
        .with("correct", all_correct)
        // This harness defines the baseline; it claims no gain.
        .with("claim", Json::Null);

    print_summary(&doc);
    match std::fs::write(&out_path, doc.pretty()) {
        Ok(()) => println!("wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out_path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("\"claim\": null");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Values of `section.metric` across a workload's runs, in run order.
pub fn values_of(workload: &Json, section: &str, metric: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get(section)?.get(metric)?.as_f64())
        .collect()
}

/// Every metric by name, with its unit: the median over the runs and,
/// with more than one run, the quartile spread as a share of it.
fn print_summary(doc: &Json) {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        println!("\n{name}");
        let sections = [
            (
                "end_to_end",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
        ];
        for (section, metrics) in sections {
            for (metric, unit) in metrics {
                let values = values_of(w, section, metric);
                // Untouched layers report 0; leave them out of the table.
                if values.iter().all(|v| *v == 0.0) {
                    continue;
                }
                let spread = quartile_spread(&values)
                    .map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
                println!("  {metric:<34} {:>16.4} {unit}{spread}", median(&values));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_civil_utc() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_337_845), "2026-09-25T12:04:05Z");
    }
}
