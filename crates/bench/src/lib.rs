//! # pyro-bench
//!
//! Shared plumbing for the figure-regeneration binaries (`src/bin/fig*.rs`).
//! Each binary reproduces one figure or experiment of the paper; see
//! `DESIGN.md` §6 and the README's paper-to-code map for the index.

use pyro_catalog::Catalog;
use pyro_common::Result;
use pyro_core::plan::{PhysNode, PhysOp};
use pyro_core::{CompileOptions, OptimizedPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pretty banner for experiment output.
pub fn banner(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Result of one measured execution.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Rows returned.
    pub rows: usize,
    /// Scalar key comparisons.
    pub comparisons: u64,
    /// Sort-spill pages (read + written).
    pub run_io: u64,
    /// Device block reads during execution.
    pub device_reads: u64,
}

impl RunStats {
    /// Milliseconds as f64 for table printing.
    pub fn ms(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }
}

/// Compiles a plan with the default options, executes it and gathers
/// statistics.
pub fn run_plan(plan: &OptimizedPlan, catalog: &Catalog) -> Result<RunStats> {
    let pipeline = plan.compile(catalog, &CompileOptions::default())?;
    let before = catalog.device().io();
    let start = Instant::now();
    let out = pipeline.run()?;
    Ok(RunStats {
        elapsed: start.elapsed(),
        rows: out.rows.len(),
        comparisons: out.metrics.comparisons(),
        run_io: out.metrics.run_io(),
        device_reads: catalog.device().io().since(&before).reads,
    })
}

/// Rewrites every `PartialSort` enforcer in a plan into a full `Sort` —
/// the surgical "same plan, standard replacement selection instead of
/// modified" comparison the paper's Experiments A1/A4 make.
pub fn degrade_partial_sorts(node: &Arc<PhysNode>) -> Arc<PhysNode> {
    let children: Vec<Arc<PhysNode>> = node.children.iter().map(degrade_partial_sorts).collect();
    let op = match &node.op {
        PhysOp::PartialSort { target, .. } => PhysOp::Sort {
            target: target.clone(),
        },
        other => other.clone(),
    };
    Arc::new(PhysNode {
        op,
        children,
        schema: node.schema.clone(),
        out_order: node.out_order.clone(),
        cost: node.cost,
        rows: node.rows,
        logical: node.logical,
    })
}

/// The paper's Query 3 ("parts running out of stock").
pub const QUERY3: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' \
     GROUP BY ps_availqty, ps_partkey, ps_suppkey \
     HAVING sum(l_quantity) > ps_availqty \
     ORDER BY ps_partkey";

/// The paper's Query 2 (Experiment A4).
pub const QUERY2: &str = "SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n \
     FROM partsupp, lineitem \
     WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
     GROUP BY ps_suppkey, ps_partkey, ps_availqty \
     ORDER BY ps_suppkey, ps_partkey";

/// The paper's Query 4 (Experiment B2).
pub const QUERY4: &str = "SELECT * FROM r1 FULL OUTER JOIN r2 \
     ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) \
     FULL OUTER JOIN r3 \
     ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)";

/// The paper's Query 5 (`min()` wrapper documented in `EXPERIMENTS.md`).
pub const QUERY5: &str =
    "SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, \
            min(t1.quantity * t1.price) AS ordervalue, \
            sum(t2.quantity * t2.price) AS executedvalue \
     FROM tran t1, tran t2 \
     WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid \
       AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid \
       AND t1.childorderid = t2.childorderid \
       AND t1.trantype = 'New' AND t2.trantype = 'Executed' \
     GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid";

/// The paper's Query 6.
pub const QUERY6: &str = "SELECT * FROM basket b, analytics a \
     WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange";

/// Example 1's consolidation query (Figs. 1-2).
pub const EXAMPLE1: &str = "SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, \
            c2.breakdowns, r.rating \
     FROM catalog1 c1, catalog2 c2, rating r \
     WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year \
       AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year \
     ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating";

/// Drains `op` batch by batch while recording `(tuples_produced, elapsed)`
/// checkpoints — the series Fig. 8 plots. A multiple of `every` is
/// recorded when the first batch that reaches it arrives.
pub fn run_with_checkpoints(
    mut op: pyro_exec::BoxOp,
    every: usize,
) -> Result<(usize, Vec<(usize, Duration)>)> {
    let start = Instant::now();
    let mut produced = 0usize;
    let mut checkpoints = Vec::new();
    while let Some(batch) = op.next_batch()? {
        let before = produced;
        produced += batch.len();
        for multiple in before / every + 1..=produced / every {
            checkpoints.push((multiple * every, start.elapsed()));
        }
    }
    checkpoints.push((produced, start.elapsed()));
    Ok((produced, checkpoints))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyro_ordering::SortOrder;

    #[test]
    fn degrade_replaces_partial_sorts() {
        let leaf = Arc::new(PhysNode {
            op: PhysOp::TableScan {
                table: "t".into(),
                alias: "t".into(),
            },
            children: vec![],
            schema: pyro_common::Schema::ints(&["t.a"]),
            out_order: SortOrder::empty(),
            cost: 1.0,
            rows: 1.0,
            logical: 0,
        });
        let ps = Arc::new(PhysNode {
            op: PhysOp::PartialSort {
                prefix_len: 1,
                target: SortOrder::new(["t.a"]),
            },
            children: vec![leaf],
            schema: pyro_common::Schema::ints(&["t.a"]),
            out_order: SortOrder::new(["t.a"]),
            cost: 2.0,
            rows: 1.0,
            logical: 0,
        });
        let degraded = degrade_partial_sorts(&ps);
        assert!(matches!(degraded.op, PhysOp::Sort { .. }));
        assert_eq!(degraded.children.len(), 1);
    }
}
