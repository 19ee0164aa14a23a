//! Experiment A4: Query 2 (lineitems per (supplier, part)) — SRS vs MRS on
//! the same merge-join plan.
//!
//! Paper: 63 s with SRS vs 25 s with MRS on PostgreSQL (2.5×), identical
//! plan — a merge join of the two covering-index entry streams on
//! (suppkey, partkey) followed by a group aggregate. We reproduce exactly
//! that comparison via plan surgery: take the PYRO-O plan and degrade its
//! partial sorts into full sorts.

use pyro::Session;
use pyro_bench::{banner, degrade_partial_sorts, run_plan, QUERY2};
use pyro_datagen::tpch::{self, TpchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Experiment A4: Query 2 with SRS vs MRS");
    let mut session = Session::builder()
        .sort_memory_blocks(64)
        .hash_operators(false)
        .build();
    tpch::load(session.catalog_mut(), TpchConfig::scaled(0.05))?;

    let plan = session.plan(QUERY2)?;
    println!(
        "\nplan (used by both runs, sort implementation swapped):\n{}",
        plan.explain()
    );

    let mrs = run_plan(&plan, session.catalog())?;

    let degraded = pyro_core::OptimizedPlan {
        root: degrade_partial_sorts(&plan.root),
        strategy: plan.strategy,
        planning: plan.planning,
    };
    let srs = run_plan(&degraded, session.catalog())?;

    println!("             time(ms)   comparisons   spill pages   rows");
    println!(
        "  SRS        {:9.1}  {:>12}  {:>12}  {:>6}",
        srs.ms(),
        srs.comparisons,
        srs.run_io,
        srs.rows
    );
    println!(
        "  MRS        {:9.1}  {:>12}  {:>12}  {:>6}",
        mrs.ms(),
        mrs.comparisons,
        mrs.run_io,
        mrs.rows
    );
    println!(
        "\nspeedup: {:.2}x wall   (paper: 63 s / 25 s = 2.5x)",
        srs.ms() / mrs.ms()
    );
    assert_eq!(srs.rows, mrs.rows);
    Ok(())
}
