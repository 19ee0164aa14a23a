//! Figure 8 / Experiment A2: rate of output — tuples produced vs time.
//!
//! Paper: with R(c1,c2,c3), 10 M rows, D(c1) = 10 000, an ORDER BY (c1, c2)
//! under MRS starts producing immediately and climbs linearly; SRS produces
//! its first tuple only after consuming (and spilling) the entire input.
//! We print both series plus the Top-K consequence (§3.1 benefit 2).

use pyro_bench::{banner, run_with_checkpoints};
use pyro_catalog::Catalog;
use pyro_common::KeySpec;
use pyro_datagen::rtables;
use pyro_exec::limit::Limit;
use pyro_exec::scan::FileScan;
use pyro_exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro_exec::{BoxOp, ExecMetrics};
use std::time::Instant;

const ROWS: usize = 400_000; // paper: 10 M
const SEGMENTS: usize = 2_000; // paper: 10 000 distinct c1

fn scan(catalog: &Catalog) -> BoxOp {
    let handle = catalog.table("r").expect("registered");
    Box::new(FileScan::new(handle.meta.schema.qualify("r"), &handle.heap))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Figure 8 / Experiment A2: rate of output (SRS vs MRS)");
    let mut catalog = Catalog::new();
    catalog.set_sort_memory_blocks(256);
    rtables::load(&mut catalog, "r", ROWS, SEGMENTS, 8)?;
    let key = KeySpec::new(vec![0, 1]);
    let budget = SortBudget::new(256, catalog.device().block_size());

    let mrs_op: BoxOp = Box::new(PartialSort::new(
        scan(&catalog),
        key.clone(),
        1,
        catalog.device().clone(),
        budget,
        ExecMetrics::new(),
    ));
    let (total, mrs_series) = run_with_checkpoints(mrs_op, ROWS / 10)?;
    println!("\nMRS series (tuples produced, elapsed ms):");
    for (n, t) in &mrs_series {
        println!("  {:>9}  {:>9.1}", n, t.as_secs_f64() * 1e3);
    }

    let srs_op: BoxOp = Box::new(StandardReplacementSort::new(
        scan(&catalog),
        key.clone(),
        catalog.device().clone(),
        budget,
        ExecMetrics::new(),
    ));
    let (_, srs_series) = run_with_checkpoints(srs_op, ROWS / 10)?;
    println!("\nSRS series (tuples produced, elapsed ms):");
    for (n, t) in &srs_series {
        println!("  {:>9}  {:>9.1}", n, t.as_secs_f64() * 1e3);
    }

    let first_mrs = mrs_series.first().expect("nonempty").1;
    let first_srs = srs_series.first().expect("nonempty").1;
    println!(
        "\ntime to first 10%: MRS {:.1} ms vs SRS {:.1} ms",
        first_mrs.as_secs_f64() * 1e3,
        first_srs.as_secs_f64() * 1e3
    );
    assert_eq!(total, ROWS);
    assert!(
        first_mrs < first_srs,
        "MRS must produce early output well before SRS"
    );

    // Top-K: fetch only the first 1000 tuples of the order.
    banner("Top-K consequence: LIMIT 1000 over the same sort");
    for (name, op) in [
        (
            "MRS",
            Box::new(PartialSort::new(
                scan(&catalog),
                key.clone(),
                1,
                catalog.device().clone(),
                budget,
                ExecMetrics::new(),
            )) as BoxOp,
        ),
        (
            "SRS",
            Box::new(StandardReplacementSort::new(
                scan(&catalog),
                key.clone(),
                catalog.device().clone(),
                budget,
                ExecMetrics::new(),
            )) as BoxOp,
        ),
    ] {
        let mut limited: BoxOp = Box::new(Limit::new(op, 1000));
        let start = Instant::now();
        let mut n = 0;
        while let Some(batch) = limited.next_batch()? {
            n += batch.len();
        }
        assert_eq!(
            n, 1000,
            "{name}: LIMIT 1000 yields its rows, selected ones only"
        );
        println!(
            "  {name}: first {n} tuples in {:.1} ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    Ok(())
}
