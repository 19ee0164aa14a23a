//! Figure 9 / Experiment A3: effect of partial-sort segment size.
//!
//! Paper setup: tables R0..R7 of 10 M × 200 B rows clustered on c1, with
//! 10^i rows per c1 value (segment sizes 200 B … 2 GB) and 10 MB of sort
//! memory. Expected shape: MRS ≈ flat and cheap while segments fit in
//! memory, then rises and converges to SRS when a single segment is the
//! whole table; SRS jumps as soon as the *input* outgrows memory.
//!
//! We scale to 200 K rows × ~56 B with a 64-block (256 KB) budget; the
//! memory-fit boundary is crossed between segment sizes 10^3 and 10^4.

use pyro_bench::banner;
use pyro_catalog::Catalog;
use pyro_common::KeySpec;
use pyro_datagen::rtables;
use pyro_exec::scan::FileScan;
use pyro_exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro_exec::{BoxOp, ExecMetrics};
use std::time::Instant;

const ROWS: usize = 200_000;
const PAD: usize = 24;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("Figure 9 / Experiment A3: partial sort segment size sweep");
    println!(
        "\n{:>12} {:>10} | {:>10} {:>12} | {:>10} {:>12} | {:>8}",
        "rows/seg", "segments", "SRS ms", "SRS spill", "MRS ms", "MRS spill", "MRS/SRS"
    );
    // R_i has 10^i rows per c1 value.
    for i in 0..=5 {
        let per_segment = 10usize.pow(i).min(ROWS);
        let segments = (ROWS / per_segment).max(1);
        let mut catalog = Catalog::new();
        catalog.set_sort_memory_blocks(64);
        rtables::load(&mut catalog, "r", ROWS, segments, PAD)?;
        let budget = SortBudget::new(64, catalog.device().block_size());
        let key = KeySpec::new(vec![0, 1]);
        let scan = |cat: &Catalog| -> BoxOp {
            let h = cat.table("r").expect("registered");
            Box::new(FileScan::new(h.meta.schema.qualify("r"), &h.heap))
        };

        let m_srs = ExecMetrics::new();
        let srs: BoxOp = Box::new(StandardReplacementSort::new(
            scan(&catalog),
            key.clone(),
            catalog.device().clone(),
            budget,
            m_srs.clone(),
        ));
        let t0 = Instant::now();
        let n_srs = drain(srs)?;
        let t_srs = t0.elapsed().as_secs_f64() * 1e3;

        let m_mrs = ExecMetrics::new();
        let mrs: BoxOp = Box::new(PartialSort::new(
            scan(&catalog),
            key.clone(),
            1,
            catalog.device().clone(),
            budget,
            m_mrs.clone(),
        ));
        let t0 = Instant::now();
        let n_mrs = drain(mrs)?;
        let t_mrs = t0.elapsed().as_secs_f64() * 1e3;

        assert_eq!(n_srs, ROWS);
        assert_eq!(n_mrs, ROWS);
        println!(
            "{:>12} {:>10} | {:>10.1} {:>12} | {:>10.1} {:>12} | {:>8.2}",
            per_segment,
            segments,
            t_srs,
            m_srs.run_io(),
            t_mrs,
            m_mrs.run_io(),
            t_mrs / t_srs
        );
    }
    println!(
        "\nexpected shape: MRS spill = 0 while segments fit in memory, then\n\
         converges to SRS at the right edge (single giant segment)."
    );
    Ok(())
}

fn drain(mut op: BoxOp) -> pyro_common::Result<usize> {
    let mut n = 0;
    while let Some(batch) = op.next_batch()? {
        n += batch.len();
    }
    Ok(n)
}
