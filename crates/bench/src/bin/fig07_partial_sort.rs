//! Figure 7 / Experiment A1: ORDER BY (l_suppkey, l_partkey) with a
//! covering index on l_suppkey — default full sort vs partial sort.
//!
//! Paper: on all three systems the default sort ignored the available
//! (l_suppkey) prefix; exploiting it ran 3–4× faster. We execute the same
//! PYRO-O plan twice: once as produced (MRS partial sort) and once with the
//! partial sort degraded to a full SRS sort — the exact substitution the
//! paper made inside PostgreSQL.

use pyro::Session;
use pyro_bench::{banner, degrade_partial_sorts, run_plan};
use pyro_datagen::tpch::{self, TpchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Figure 7 / Experiment A1: default sort vs partial sort");
    // Keep the sort "interesting": shrink memory so a full sort of the index
    // entries goes external, as at paper scale.
    let mut session = Session::builder().sort_memory_blocks(64).build();
    tpch::load(session.catalog_mut(), TpchConfig::scaled(0.05))?; // 300 K lineitems

    let plan =
        session.plan("SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey")?;
    println!("\nPYRO-O plan:\n{}", plan.explain());

    // MRS (as planned).
    let mrs = run_plan(&plan, session.catalog())?;

    // SRS (partial sorts degraded to full sorts).
    let degraded = pyro_core::OptimizedPlan {
        root: degrade_partial_sorts(&plan.root),
        strategy: plan.strategy,
        planning: plan.planning,
    };
    let srs = run_plan(&degraded, session.catalog())?;

    println!("\n             time(ms)   comparisons   spill pages");
    println!(
        "  SRS (full) {:9.1}  {:>12}  {:>12}",
        srs.ms(),
        srs.comparisons,
        srs.run_io
    );
    println!(
        "  MRS (part) {:9.1}  {:>12}  {:>12}",
        mrs.ms(),
        mrs.comparisons,
        mrs.run_io
    );
    println!(
        "\nspeedup: {:.2}x wall, {:.2}x comparisons   (paper: 3-4x wall)",
        srs.ms() / mrs.ms(),
        srs.comparisons as f64 / mrs.comparisons as f64
    );
    assert_eq!(srs.rows, mrs.rows);
    assert_eq!(mrs.run_io, 0, "MRS must avoid run I/O entirely here");
    assert!(srs.run_io > 0, "SRS must spill at this scale");
    Ok(())
}
