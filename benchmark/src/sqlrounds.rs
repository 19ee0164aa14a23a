//! The op shape three workloads share: one *round* of fixed statements
//! through `Session::sql`, every answer checked.

use crate::check::{verify, Digest};
use crate::harness::{
    closed_loop, err_text, fill_stepped_layers, step_statement, timed, Outcome, RunConfig, Timed,
};
use crate::json::Json;
use crate::stats::median;
use crate::trace::Tracer;
use pyro::Session;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Statement {
    /// Short name, used in spans, digests and failure messages.
    pub label: &'static str,
    /// The per-layer metric its traced execution time reports as.
    pub metric: &'static str,
    pub sql: String,
    /// Output columns the rows must ascend on, for an ORDER BY statement.
    pub order_key: Option<Vec<usize>>,
}

impl Statement {
    pub fn new(
        label: &'static str,
        metric: &'static str,
        sql: &str,
        order_key: Option<&[usize]>,
    ) -> Statement {
        Statement {
            label,
            metric,
            sql: sql.to_string(),
            order_key: order_key.map(<[usize]>::to_vec),
        }
    }
}

/// One untraced round: each statement timed on its own, checked after its
/// timer stops. Returns the engine time and what went wrong, if anything.
fn round(
    session: &Session,
    statements: &[Statement],
    expected: &BTreeMap<String, Digest>,
    per_statement_ms: &mut BTreeMap<&'static str, Vec<f64>>,
) -> (Timed, Option<String>) {
    let mut took = Timed::default();
    let mut problem = None;
    for st in statements {
        let (result, t) = timed(|| session.sql(&st.sql));
        took += t;
        per_statement_ms
            .entry(st.label)
            .or_default()
            .push(t.own().as_secs_f64() * 1e3);
        let this = match &result {
            Ok(r) => verify(
                st.label,
                r.rows(),
                expected[st.label],
                st.order_key.as_deref(),
            ),
            Err(e) => Some(format!("{}: {}", st.label, err_text(e))),
        };
        problem = problem.or(this);
    }
    (took, problem)
}

/// Warm-up rounds, then the timed section. Untraced: rounds back to back
/// for `cfg.seconds`. Traced: an untraced and a stepped round alternate,
/// so the breakdown and the figure it must add up to see the same machine.
pub fn run_rounds(
    cfg: &RunConfig,
    out: &mut Outcome,
    session: &Session,
    statements: &[Statement],
    expected: &BTreeMap<String, Digest>,
    warmups: usize,
) {
    let mut per_statement = BTreeMap::new();
    for _ in 0..warmups {
        let (_, problem) = round(session, statements, expected, &mut per_statement);
        if let Some(msg) = problem {
            out.checker.fail(format!("warm-up: {msg}"));
        }
    }
    per_statement.clear();

    if !cfg.trace {
        let checker = &mut out.checker;
        let samples = closed_loop(cfg.seconds, 1, |_| {
            let (took, problem) = round(session, statements, expected, &mut per_statement);
            checker.record(problem);
            took
        });
        out.set_samples(samples);
        note_statement_medians(out, &per_statement);
        return;
    }

    let mut tr = Tracer::new(Instant::now());
    let mut traced_ops = 0u64;
    let checker = &mut out.checker;
    let samples = closed_loop(cfg.seconds, 1, |i| {
        let (took, problem) = round(session, statements, expected, &mut per_statement);
        checker.record(problem);

        tr.set_op(i);
        let mut problem = None;
        for st in statements {
            let this = match step_statement(&mut tr, session, st.label, &st.sql) {
                Ok(rows) => verify(st.label, &rows, expected[st.label], st.order_key.as_deref()),
                Err(e) => Some(format!("{} (stepped): {}", st.label, err_text(&e))),
            };
            problem = problem.or(this);
        }
        checker.record(problem);
        traced_ops += 1;
        took
    });
    out.set_samples(samples);
    // Spans are wall-clock, so the breakdown is held against wall-clock.
    let untraced = out.op_wall_ms.clone();
    fill_stepped_layers(out, &tr, traced_ops, &untraced);
    for st in statements {
        out.layer(
            st.metric,
            median(&tr.durations_ms(&format!("exec.{}", st.label))),
        );
    }
    out.tracer = Some(tr);
    note_statement_medians(out, &per_statement);
}

/// Untraced per-statement medians, for the detail file: which statement
/// of the round carries the op.
fn note_statement_medians(out: &mut Outcome, per_statement: &BTreeMap<&'static str, Vec<f64>>) {
    let medians = per_statement
        .iter()
        .map(|(label, ms)| (label.to_string(), Json::Num(median(ms))))
        .collect();
    out.detail.set("statement_p50_ms", Json::Obj(medians));
}
