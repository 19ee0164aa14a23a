//! Figure 16: optimization time vs number of join attributes.
//!
//! Paper: two relations joined on 2–12 attributes; log-scale y. PYRO-P and
//! PYRO-O stay in the low milliseconds; PYRO-E blows up factorially. Our
//! PYRO-E is capped at 8 attributes (40 320 permutations) and falls back to
//! the Postgres heuristic above that, so its curve rises steeply to n = 8
//! and then flattens — the cap is printed so the series is honest. The
//! bin panics if that shape breaks.

use pyro_bench::banner;
use pyro_catalog::Catalog;
use pyro_common::{Schema, Tuple, Value};
use pyro_core::{JoinPair, LogicalPlan, Optimizer, Strategy};
use pyro_ordering::SortOrder;
use std::time::Instant;

fn catalog_with_width(attrs: usize) -> Catalog {
    let mut catalog = Catalog::new();
    let names: Vec<String> = (0..attrs).map(|i| format!("a{i:02}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows: Vec<Tuple> = (0..2000)
        .map(|r| {
            Tuple::new(
                (0..attrs)
                    .map(|c| Value::Int(((r * (c + 3)) % 97) as i64))
                    .collect(),
            )
        })
        .collect();
    let mut sorted = rows.clone();
    sorted.sort();
    // Cluster both tables on the first attribute so a favorable prefix
    // exists (otherwise PYRO-O degenerates to a single candidate).
    for t in ["t1", "t2"] {
        catalog
            .register_table(
                t,
                Schema::ints(&name_refs),
                SortOrder::new([names[0].clone()]),
                &sorted,
            )
            .unwrap();
    }
    catalog
}

fn join_plan(attrs: usize) -> LogicalPlan {
    let mut p = LogicalPlan::new();
    let l = p.scan_as("t1", "l");
    let r = p.scan_as("t2", "r");
    let pairs: Vec<JoinPair> = (0..attrs)
        .map(|i| JoinPair::new(format!("l.a{i:02}"), format!("r.a{i:02}")))
        .collect();
    p.join(l, r, pairs);
    p
}

fn main() {
    banner("Figure 16: optimization time vs number of join attributes");
    println!(
        "\n{:>6} {:>12} {:>12} {:>12}   (ms; PYRO-E capped at 8 attrs)",
        "attrs", "PYRO-P", "PYRO-O", "PYRO-E"
    );
    let mut at_8 = (0.0, 0.0);
    let mut o_max = 0.0f64;
    for attrs in 2..=12usize {
        let catalog = catalog_with_width(attrs);
        let logical = join_plan(attrs);
        let time_of = |strategy: Strategy| -> f64 {
            // Warm once, then take the best of 3 to de-noise.
            let _ = Optimizer::new(&catalog)
                .with_strategy(strategy)
                .optimize(&logical);
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let plan = Optimizer::new(&catalog)
                        .with_strategy(strategy)
                        .optimize(&logical)
                        .expect("plan");
                    std::hint::black_box(plan.cost());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let p = time_of(Strategy::pyro_p());
        let o = time_of(Strategy::pyro_o());
        let e = time_of(Strategy::pyro_e());
        println!("{attrs:>6} {p:>12.3} {o:>12.3} {e:>12.3}");
        o_max = o_max.max(o);
        if attrs == 8 {
            at_8 = (o, e);
        }
    }
    println!("\npaper shape: P and O flat in the single-digit ms; E factorial.");
    // Shape assertions, with margins far wider than timing noise: at the
    // cap PYRO-E enumerates 8! orders against PYRO-O's handful.
    let (o8, e8) = at_8;
    assert!(o_max < 10.0, "PYRO-O must stay in the single-digit ms");
    assert!(
        e8 >= 10.0 * o8,
        "PYRO-E must grow factorially past PYRO-O: {e8:.3} vs {o8:.3} ms at 8 attrs"
    );

    // Beyond the paper: the same sweep over plan *width* instead of join
    // *attributes* — an n-way chain join under PYRO-O, planned in the
    // written order, with the default re-shape threshold, and with the
    // cardinality-free re-shape forced (threshold 2: every region of three
    // or more relations).
    println!(
        "\nn-way chain join, PYRO-O\n{:>6} {:>14} {:>12} {:>12}   (ms)",
        "tables", "written order", "default", "heuristic"
    );
    for n in [2usize, 4, 8, 12, 16, 20] {
        let (catalog, logical) = chain(n);
        let time_of = |configure: &dyn Fn(Optimizer) -> Optimizer| -> f64 {
            let optimizer =
                || configure(Optimizer::new(&catalog).with_strategy(Strategy::pyro_o()));
            let _ = optimizer().optimize(&logical);
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let plan = optimizer().optimize(&logical).expect("plan");
                    std::hint::black_box(plan.cost());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        };
        let written = time_of(&|o| o.with_join_enum_threshold(usize::MAX));
        let default = time_of(&|o| o);
        let heur = time_of(&|o| o.with_join_enum_threshold(2));
        println!("{n:>6} {written:>14.3} {default:>12.3} {heur:>12.3}");
        assert!(
            written.max(default).max(heur) < 10.0,
            "{n}-way chain planning must stay in the low milliseconds"
        );
    }
    println!("\nall three stay in the low milliseconds out to 20 relations.");
}

/// n relations chained `t0 — t1 — … — t{n-1}` on shared link columns.
fn chain(n: usize) -> (Catalog, LogicalPlan) {
    let mut catalog = Catalog::new();
    for i in 0..n {
        let cols = [format!("x{i}"), format!("x{}", i + 1)];
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut rows: Vec<Tuple> = (0..500)
            .map(|r| {
                Tuple::new(vec![
                    Value::Int((r % 89) as i64),
                    Value::Int((r % 97) as i64),
                ])
            })
            .collect();
        rows.sort();
        catalog
            .register_table(
                &format!("t{i}"),
                Schema::ints(&col_refs),
                SortOrder::new([cols[0].clone()]),
                &rows,
            )
            .unwrap();
    }
    let mut plan = LogicalPlan::new();
    let mut cur = plan.scan_as("t0", "t0");
    for i in 1..n {
        let name = format!("t{i}");
        let next = plan.scan_as(&name, &name);
        let pair = JoinPair::new(format!("t{}.x{i}", i - 1), format!("t{i}.x{i}"));
        cur = plan.join(cur, next, vec![pair]);
    }
    (catalog, plan)
}
