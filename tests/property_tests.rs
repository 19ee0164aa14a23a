//! Property-based tests over the core invariants.
//!
//! Offline builds cannot fetch `proptest`, so these run on a hand-rolled
//! driver: each property is checked over many deterministic pseudo-random
//! cases drawn from the workspace's own seeded PRNG
//! (`pyro::datagen::rng::StdRng`). The cases are fixed across runs, so any
//! failure reproduces exactly.

use pyro::common::{KeySpec, Schema, Tuple, Value};
use pyro::datagen::rng::StdRng;
use pyro::exec::agg::{AggExpr, AggFunc, GroupAggregate, HashAggregate};
use pyro::exec::join::{HashJoin, JoinKind, MergeJoin, NestedLoopsJoin, Side};
use pyro::exec::sort::{PartialSort, SortBudget, StandardReplacementSort};
use pyro::exec::{collect, ExecMetrics, Expr, ValuesOp};
use pyro::ordering::{benefit_of, path_order, two_approx_tree_order, AttrSet, JoinTree, SortOrder};
use pyro::storage::SimDevice;
use std::collections::BTreeSet;

const CASES: u64 = 64;

/// Runs `check` against `CASES` independently seeded generators.
fn for_all_cases(check: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ (case << 32));
        check(&mut rng);
    }
}

/// Random `(i64, i64)` pairs: up to `max_len` of them, components in
/// `0..hi0` / `0..hi1`.
fn pairs(rng: &mut StdRng, max_len: usize, hi0: i64, hi1: i64) -> Vec<(i64, i64)> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (rng.gen_range(0..hi0), rng.gen_range(0..hi1)))
        .collect()
}

fn tuples2(rows: &[(i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(b)]))
        .collect()
}

fn sorted_by(rows: &[Tuple], key: &KeySpec) -> bool {
    rows.windows(2)
        .all(|w| key.compare(&w[0], &w[1]) != std::cmp::Ordering::Greater)
}

/// SRS output = sorted permutation of the input, for any memory budget.
#[test]
fn srs_sorts_any_input() {
    for_all_cases(|rng| {
        let rows = pairs(rng, 400, 100, 100);
        let budget_blocks = rng.gen_range(3u64..20);
        let dev = SimDevice::with_block_size(256);
        let m = ExecMetrics::new();
        let data = tuples2(&rows);
        let src = ValuesOp::new(Schema::ints(&["a", "b"]), data.clone());
        let key = KeySpec::new(vec![0, 1]);
        let op = StandardReplacementSort::new(
            Box::new(src),
            key.clone(),
            dev,
            SortBudget::new(budget_blocks, 256),
            m,
        );
        let out = collect(Box::new(op)).unwrap();
        assert!(sorted_by(&out, &key));
        let mut expect = data;
        expect.sort();
        let mut got = out;
        got.sort();
        assert_eq!(
            exact(&got),
            exact(&expect),
            "must be a permutation of the input"
        );
    });
}

/// MRS on prefix-sorted input ≡ SRS ≡ std sort, for any budget.
#[test]
fn mrs_equals_srs_equals_std_sort() {
    for_all_cases(|rng| {
        let mut rows = pairs(rng, 400, 20, 100);
        let budget_blocks = rng.gen_range(3u64..20);
        rows.sort_by_key(|r| r.0); // establish the prefix order
        let data = tuples2(&rows);
        let key = KeySpec::new(vec![0, 1]);

        let dev = SimDevice::with_block_size(256);
        let m = ExecMetrics::new();
        let mrs = PartialSort::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), data.clone())),
            key.clone(),
            1,
            dev,
            SortBudget::new(budget_blocks, 256),
            m,
        );
        let mrs_out = collect(Box::new(mrs)).unwrap();

        let dev = SimDevice::with_block_size(256);
        let m = ExecMetrics::new();
        let srs = StandardReplacementSort::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), data.clone())),
            key.clone(),
            dev,
            SortBudget::new(budget_blocks, 256),
            m,
        );
        let srs_out = collect(Box::new(srs)).unwrap();

        let mut expect = data;
        expect.sort_by(|x, y| key.compare(x, y));
        assert_eq!(exact(&mrs_out), exact(&expect));
        assert_eq!(exact(&srs_out), exact(&expect));
    });
}

/// Merge join ≡ hash join ≡ nested loops (inner, as multisets); a hash join
/// building on the right is nested loops row for row — both are left-major
/// with each left row's matches in right arrival order.
#[test]
fn joins_agree() {
    for_all_cases(|rng| {
        let mut left = pairs(rng, 80, 15, 50);
        let mut right = pairs(rng, 80, 15, 50);
        left.sort();
        right.sort();
        let lschema = Schema::ints(&["a", "b"]);
        let rschema = Schema::ints(&["c", "d"]);
        let key = KeySpec::new(vec![0]);

        let mj = MergeJoin::new(
            Box::new(ValuesOp::new(lschema.clone(), tuples2(&left))),
            Box::new(ValuesOp::new(rschema.clone(), tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::Inner,
            ExecMetrics::new(),
        );
        let hj = HashJoin::new(
            Box::new(ValuesOp::new(lschema.clone(), tuples2(&left))),
            Box::new(ValuesOp::new(rschema.clone(), tuples2(&right))),
            key.clone(),
            key.clone(),
            Side::Left,
        );
        let hj_right = HashJoin::new(
            Box::new(ValuesOp::new(lschema.clone(), tuples2(&left))),
            Box::new(ValuesOp::new(rschema.clone(), tuples2(&right))),
            key.clone(),
            key.clone(),
            Side::Right,
        );
        let nl = NestedLoopsJoin::new(
            Box::new(ValuesOp::new(lschema, tuples2(&left))),
            Box::new(ValuesOp::new(rschema, tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::Inner,
        );
        let mut a = collect(Box::new(mj)).unwrap();
        let mut b = collect(Box::new(hj)).unwrap();
        let mut c = collect(Box::new(nl)).unwrap();
        assert_eq!(exact(&collect(Box::new(hj_right)).unwrap()), exact(&c));
        a.sort();
        b.sort();
        c.sort();
        assert_eq!(exact(&a), exact(&b));
        assert_eq!(exact(&a), exact(&c));
    });
}

/// Full outer joins agree between merge and nested loops.
#[test]
fn full_outer_joins_agree() {
    for_all_cases(|rng| {
        let mut left = pairs(rng, 60, 10, 50);
        let mut right = pairs(rng, 60, 10, 50);
        left.sort();
        right.sort();
        let key = KeySpec::new(vec![0]);
        let mj = MergeJoin::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&left))),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), tuples2(&right))),
            key.clone(),
            key.clone(),
            JoinKind::FullOuter,
            ExecMetrics::new(),
        );
        let nl = NestedLoopsJoin::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&left))),
            Box::new(ValuesOp::new(Schema::ints(&["c", "d"]), tuples2(&right))),
            key.clone(),
            key,
            JoinKind::FullOuter,
        );
        let mut a = collect(Box::new(mj)).unwrap();
        let mut b = collect(Box::new(nl)).unwrap();
        a.sort();
        b.sort();
        assert_eq!(exact(&a), exact(&b));
    });
}

/// Hash aggregate ≡ sort aggregate on the same grouping.
#[test]
fn aggregates_agree() {
    for_all_cases(|rng| {
        let len = rng.gen_range(0..=200usize);
        let mut rows: Vec<(i64, i64)> = (0..len)
            .map(|_| (rng.gen_range(0..12), rng.gen_range(-50i64..50)))
            .collect();
        let aggs = || {
            vec![
                AggExpr::new(AggFunc::Count, Expr::col(1), "c"),
                AggExpr::new(AggFunc::Sum, Expr::col(1), "s"),
                AggExpr::new(AggFunc::Min, Expr::col(1), "lo"),
                AggExpr::new(AggFunc::Max, Expr::col(1), "hi"),
            ]
        };
        let hash = HashAggregate::new(
            Box::new(ValuesOp::new(Schema::ints(&["g", "v"]), tuples2(&rows))),
            vec![0],
            aggs(),
        );
        rows.sort();
        let sortagg = GroupAggregate::new(
            Box::new(ValuesOp::new(Schema::ints(&["g", "v"]), tuples2(&rows))),
            vec![0],
            aggs(),
        );
        let mut a = collect(Box::new(hash)).unwrap();
        let mut b = collect(Box::new(sortagg)).unwrap();
        a.sort();
        b.sort();
        assert_eq!(exact(&a), exact(&b));
    });
}

/// Distinct attribute names drawn from a contiguous alphabet range.
fn attr_sample(rng: &mut StdRng, alphabet: &[&str], max_len: usize) -> Vec<String> {
    let len = rng.gen_range(0..=max_len);
    let mut picked: Vec<String> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())].to_string())
        .collect();
    picked.sort();
    picked.dedup();
    picked
}

/// Order algebra laws: concat/minus inverse, lcp prefix bound,
/// prefix partial order.
#[test]
fn order_algebra_laws() {
    for_all_cases(|rng| {
        // Disjoint alphabets guarantee no dedup surprises in concat/minus.
        let a = attr_sample(rng, &["a", "b", "c", "d", "e", "f"], 5);
        let b = attr_sample(rng, &["g", "h", "i", "j", "k", "l"], 5);
        let oa = SortOrder::new(a);
        let ob = SortOrder::new(b);
        let cat = oa.concat(&ob);
        // (a + b) − a = b
        assert_eq!(cat.minus(&oa), Some(ob.clone()));
        // a ≤ a + b
        assert!(oa.is_prefix_of(&cat));
        // lcp is a prefix of both
        let l = oa.lcp(&ob);
        assert!(l.is_prefix_of(&oa));
        assert!(l.is_prefix_of(&ob));
        // lcp with itself is identity
        assert_eq!(oa.lcp(&oa), oa.clone());
        // set-restricted prefix really is within the set
        let set = ob.attr_set();
        let p = cat.lcp_with_set(&set);
        assert!(p.attrs().iter().all(|x| set.contains(x)));
    });
}

/// Non-empty random attribute set over a small alphabet.
fn attr_set(rng: &mut StdRng, alphabet: &[&str], max_len: usize) -> AttrSet {
    let len = rng.gen_range(1..=max_len);
    let set: BTreeSet<String> = (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())].to_string())
        .collect();
    AttrSet::from_iter(set)
}

/// The path DP's reported benefit always matches the realized benefit of
/// the permutations it emits, and is at least any single-alignment
/// baseline.
#[test]
fn path_order_sound() {
    for_all_cases(|rng| {
        let n = rng.gen_range(2..6usize);
        let attr_sets: Vec<AttrSet> = (0..n)
            .map(|_| attr_set(rng, &["a", "b", "c", "d", "e"], 3))
            .collect();
        let sol = path_order(&attr_sets);
        let realized: u64 = sol
            .orders
            .windows(2)
            .map(|w| w[0].lcp(&w[1]).len() as u64)
            .sum();
        assert_eq!(realized, sol.benefit, "DP benefit must be realizable");
        // permutations cover their sets
        for (s, o) in attr_sets.iter().zip(&sol.orders) {
            assert_eq!(&o.attr_set(), s);
        }
        // baseline: everyone uses the canonical order
        let baseline: u64 = attr_sets
            .windows(2)
            .map(|w| w[0].arbitrary_order().lcp(&w[1].arbitrary_order()).len() as u64)
            .sum();
        assert!(sol.benefit >= baseline);
    });
}

/// The tree 2-approximation achieves at least half of the exhaustive
/// optimum on small random trees.
#[test]
fn two_approx_bound() {
    for_all_cases(|rng| {
        let nodes = rng.gen_range(1..8usize);
        let mut tree = JoinTree::new();
        let mut ids: Vec<usize> = Vec::new();
        for _ in 0..nodes {
            let attrs = attr_set(rng, &["a", "b", "c", "d"], 3);
            if ids.is_empty() {
                ids.push(tree.add_root(attrs));
            } else {
                // pick a parent with < 2 children
                let candidates: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&v| tree.children(v).len() < 2)
                    .collect();
                let parent = candidates[rng.gen_range(0..100usize) % candidates.len()];
                ids.push(tree.add_child(parent, attrs));
            }
        }
        let approx = two_approx_tree_order(&tree);
        assert_eq!(benefit_of(&tree, &approx.orders), approx.benefit);
        let exact = pyro::ordering::exhaustive::exhaustive_tree_order(&tree);
        assert!(
            2 * approx.benefit >= exact.benefit,
            "2-approx bound violated: 2·{} < {}",
            approx.benefit,
            exact.benefit
        );
        assert!(
            approx.benefit <= exact.benefit,
            "approx cannot beat the optimum"
        );
    });
}

/// MRS never spills when every segment fits in the budget.
#[test]
fn mrs_zero_io_when_fitting() {
    for_all_cases(|rng| {
        let segments = rng.gen_range(1..20usize);
        let per_segment = rng.gen_range(1..20usize);
        let rows: Vec<(i64, i64)> = (0..segments)
            .flat_map(|s| (0..per_segment).map(move |i| (s as i64, (i * 31 % 17) as i64)))
            .collect();
        let dev = SimDevice::new();
        let m = ExecMetrics::new();
        let op = PartialSort::new(
            Box::new(ValuesOp::new(Schema::ints(&["a", "b"]), tuples2(&rows))),
            KeySpec::new(vec![0, 1]),
            1,
            dev,
            SortBudget::new(100, 4096),
            m.clone(),
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), rows.len());
        assert_eq!(m.run_io(), 0);
    });
}

// ---------------------------------------------------------------------
// Pull-path differential: the four operators that sort, pair and group
// rows in place in the column vectors must give, at batch sizes 7 and
// 1024 — fed dense batches, batches whose rows hide decoys behind a
// selection vector, and a stream that alternates between the two —
// exactly the rows and exactly the four counters they give one row per
// pull over dense batches, over every cell type, NULLs,
// heavy duplicates, empty and one-row inputs, and budgets that do and do
// not spill.
// ---------------------------------------------------------------------

mod common;

use common::{exact, Layout, Source, LAYOUTS};
use pyro::exec::limit::Limit;
use pyro::exec::{BoxOp, MetricsRef};
use std::cell::Cell;

/// What a generated column holds.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// Integers from a small domain: heavy duplicates.
    Int,
    /// Doubles including both zeros, infinities and a NaN.
    Double,
    /// Strings that agree on their first 8+ bytes.
    Str,
    /// All of the above in one column.
    Mixed,
}

fn cell(rng: &mut StdRng, kind: Kind, nulls: bool) -> Value {
    if nulls && rng.gen_bool(0.15) {
        return Value::Null;
    }
    match kind {
        Kind::Int => Value::Int(rng.gen_range(-3i64..4)),
        Kind::Double => Value::Double(
            [-1.5, -0.0, 0.0, 2.0, 2.5, f64::INFINITY, f64::NAN][rng.gen_range(0..7usize)],
        ),
        Kind::Str => Value::Str(
            [
                "",
                "a",
                "common-prefix",
                "common-prefix-a",
                "common-prefix-b",
                "common-prefiy",
                "zz",
            ][rng.gen_range(0..7usize)]
            .to_string(),
        ),
        Kind::Mixed => {
            let kind = [Kind::Int, Kind::Double, Kind::Str][rng.gen_range(0..3usize)];
            cell(rng, kind, false)
        }
    }
}

/// Up to `max_rows` rows (often none or one) of three generated key columns
/// plus the row's ordinal.
fn table(rng: &mut StdRng, max_rows: usize) -> Vec<Tuple> {
    let kinds: Vec<Kind> = (0..3)
        .map(|_| [Kind::Int, Kind::Double, Kind::Str, Kind::Mixed][rng.gen_range(0..4usize)])
        .collect();
    let nulls = rng.gen_bool(0.5);
    let len = match rng.gen_range(0..8u64) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2..=max_rows),
    };
    (0..len)
        .map(|i| {
            let mut v: Vec<Value> = kinds.iter().map(|&k| cell(rng, k, nulls)).collect();
            v.push(Value::Int(i as i64));
            Tuple::new(v)
        })
        .collect()
}

fn schema4(prefix: &str) -> Schema {
    let names: Vec<String> = (0..4).map(|i| format!("{prefix}{i}")).collect();
    Schema::ints(&names.iter().map(String::as_str).collect::<Vec<_>>())
}

/// `rows` as an operator handing them on `input_batch` at a time, so that
/// segments, groups and runs straddle input batches, in `layout`.
fn source(prefix: &str, rows: &[Tuple], input_batch: usize, layout: Layout) -> BoxOp {
    Box::new(Source::new(
        schema4(prefix),
        rows.to_vec(),
        input_batch,
        layout,
    ))
}

/// A sort budget with 128-byte blocks: everything fits, a spill with a
/// one-pass merge, or a spill merged two runs at a time.
fn budget(rng: &mut StdRng) -> SortBudget {
    match rng.gen_range(0..3u64) {
        0 => SortBudget::new(10_000, 128),
        1 => SortBudget::new(rng.gen_range(8u64..40), 128),
        _ => SortBudget::new(3, 128),
    }
}

fn counters(m: &MetricsRef) -> [u64; 4] {
    [
        m.comparisons(),
        m.run_pages_written(),
        m.run_pages_read(),
        m.runs_created(),
    ]
}

/// Builds the operator afresh — over sources of the given layout — for
/// every input layout and batch size and holds its rows (compared through
/// `Debug`, under which a NaN equals itself and the two zeros differ) and
/// counters to what it produced one row per pull over dense batches.
fn assert_pull_paths_agree(what: &str, build: &dyn Fn(Layout) -> (BoxOp, MetricsRef)) {
    let (mut op, m) = build(Layout::Dense);
    op.set_batch_size(1);
    let expect = (format!("{:?}", collect(op).unwrap()), counters(&m));
    for bs in [7usize, 1024] {
        for layout in LAYOUTS {
            let (mut op, m) = build(layout);
            op.set_batch_size(bs);
            let got = (format!("{:?}", collect(op).unwrap()), counters(&m));
            assert!(
                got == expect,
                "{what}: batch {bs} over {layout:?} input diverged from one row per pull\n \
                 one row: {expect:?}\n batch {bs}: {got:?}"
            );
        }
    }
}

fn random_key(rng: &mut StdRng) -> KeySpec {
    let mut cols = vec![0, 1, 2];
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.gen_range(0..=i));
    }
    cols.truncate(rng.gen_range(1..=3usize));
    KeySpec::new(cols)
}

fn input_batch(rng: &mut StdRng) -> usize {
    [1, 3, 64, 1024][rng.gen_range(0..4usize)]
}

/// Tallies which spill paths the generated cases reached, from the counters
/// of one run: none, a spill, a spill whose runs outnumber the merge fan-in
/// (so intermediate passes ran).
#[derive(Default)]
struct Reached {
    in_memory: Cell<u32>,
    spilled: Cell<u32>,
    multi_pass: Cell<u32>,
}

impl Reached {
    fn note(&self, m: &MetricsRef, budget: SortBudget) {
        let tally = match m.runs_created() as usize {
            0 => &self.in_memory,
            runs if runs > budget.fan_in() => &self.multi_pass,
            _ => &self.spilled,
        };
        tally.set(tally.get() + 1);
    }

    fn assert_all(&self) {
        for (what, n) in [
            ("in-memory", &self.in_memory),
            ("spilling", &self.spilled),
            ("multi-pass", &self.multi_pass),
        ] {
            assert!(n.get() > 0, "test premise: no {what} case was generated");
        }
    }
}

#[test]
fn sort_pull_paths_agree() {
    let reached = Reached::default();
    for_all_cases(|rng| {
        let rows = table(rng, 160);
        let (key, budget, ib) = (random_key(rng), budget(rng), input_batch(rng));
        let build = |layout| {
            let m = ExecMetrics::new();
            let op = StandardReplacementSort::new(
                source("a", &rows, ib, layout),
                key.clone(),
                SimDevice::with_block_size(128),
                budget,
                m.clone(),
            );
            (Box::new(op) as BoxOp, m)
        };
        assert_pull_paths_agree(&format!("sort {key:?} {budget:?}"), &build);
        let (op, m) = build(Layout::Dense);
        collect(op).unwrap();
        reached.note(&m, budget);
    });
    reached.assert_all();
}

/// Here a spill is an oversized segment: one that outgrew the budget.
#[test]
fn partial_sort_pull_paths_agree() {
    let reached = Reached::default();
    for_all_cases(|rng| {
        let mut rows = table(rng, 160);
        let (key, budget, ib) = (random_key(rng), budget(rng), input_batch(rng));
        let prefix_len = rng.gen_range(0..=key.len());
        let (prefix, _) = key.split_at(prefix_len);
        rows.sort_by(|a, b| prefix.compare(a, b));
        let build = |layout| {
            let m = ExecMetrics::new();
            let op = PartialSort::new(
                source("a", &rows, ib, layout),
                key.clone(),
                prefix_len,
                SimDevice::with_block_size(128),
                budget,
                m.clone(),
            );
            (Box::new(op) as BoxOp, m)
        };
        assert_pull_paths_agree(
            &format!("partial sort {key:?} prefix {prefix_len} {budget:?}"),
            &build,
        );
        let (op, m) = build(Layout::Dense);
        collect(op).unwrap();
        reached.note(&m, budget);
    });
    reached.assert_all();
}

#[test]
fn merge_join_pull_paths_agree() {
    for_all_cases(|rng| {
        let (mut left, mut right) = (table(rng, 60), table(rng, 60));
        let (key, ib) = (random_key(rng), input_batch(rng));
        left.sort_by(|a, b| key.compare(a, b));
        right.sort_by(|a, b| key.compare(a, b));
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::FullOuter] {
            assert_pull_paths_agree(&format!("merge join {kind:?} on {key:?}"), &|layout| {
                let m = ExecMetrics::new();
                let op = MergeJoin::new(
                    source("l", &left, ib, layout),
                    source("r", &right, ib, layout),
                    key.clone(),
                    key.clone(),
                    kind,
                    m.clone(),
                );
                (Box::new(op), m)
            });
        }
    });
}

#[test]
fn group_aggregate_pull_paths_agree() {
    for_all_cases(|rng| {
        let mut rows = table(rng, 160);
        let (key, ib) = (random_key(rng), input_batch(rng));
        rows.sort_by(|a, b| key.compare(a, b));
        let arg = rng.gen_range(0..4usize);
        assert_pull_paths_agree(&format!("group by {key:?} over column {arg}"), &|layout| {
            let m = ExecMetrics::new();
            let aggs = [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ]
            .into_iter()
            .map(|f| AggExpr::new(f, Expr::col(arg), format!("{f:?}")))
            .collect();
            let op = GroupAggregate::new(source("a", &rows, ib, layout), key.cols().to_vec(), aggs);
            (Box::new(op), m)
        });
    });
}

/// Under a LIMIT the stream is cut short, so the counters also say how far
/// each operator worked ahead of the rows it handed on: a sort-based
/// aggregate over a merge join over two partial sorts must have closed
/// exactly the segments, and paired exactly the groups, the first `k`
/// output rows needed.
#[test]
fn limit_cuts_every_pull_path_at_the_same_work() {
    for_all_cases(|rng| {
        let (mut left, mut right) = (table(rng, 120), table(rng, 120));
        let key = KeySpec::new(vec![0, 1]);
        let (sorted_on, _) = key.split_at(1);
        left.sort_by(|a, b| sorted_on.compare(a, b));
        right.sort_by(|a, b| sorted_on.compare(a, b));
        let (k, ib) = (rng.gen_range(0..12u64), input_batch(rng));
        assert_pull_paths_agree(&format!("limit {k}"), &|layout| {
            let m = ExecMetrics::new();
            let sort = |prefix: &str, rows: &[Tuple]| -> BoxOp {
                Box::new(PartialSort::new(
                    source(prefix, rows, ib, layout),
                    key.clone(),
                    1,
                    SimDevice::with_block_size(128),
                    SortBudget::new(10_000, 128),
                    m.clone(),
                ))
            };
            let join = MergeJoin::new(
                sort("l", &left),
                sort("r", &right),
                key.clone(),
                key.clone(),
                JoinKind::LeftOuter,
                m.clone(),
            );
            let agg = GroupAggregate::new(
                Box::new(join),
                vec![0, 1],
                vec![AggExpr::new(AggFunc::Count, Expr::col(3), "n")],
            );
            (Box::new(Limit::new(Box::new(agg), k)), m.clone())
        });
    });
}

// ---------------------------------------------------------------------
// One numeric equality: `Value`'s order, equality and hash, and every
// engine path that compares or hashes cells without going through `Value`
// (the columnar compare, normalized-key prefixes, the vector filter
// kernels, the hash join's probe key words), agree with each other and
// with an oracle that shares no code with them, on every numeric edge.
// ---------------------------------------------------------------------

use pyro::common::{CellRef, Column, ColumnarBatch, DataType};
use pyro::exec::{CmpOp, VecPredicate};
use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hash, Hasher};

const TWO_53: i64 = 1 << 53;
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// Integers and doubles at every edge of exactness: both zeros, NaNs of
/// both signs, the infinities, ±2^53 ± 1 (where neighbouring INTs share a
/// DOUBLE image), `i64::MIN`/`MAX`, ±2^63 (just past the INT range; a
/// saturating cast lands on `i64::MAX`), fractions, subnormals — plus a
/// string and NULL for the rank order.
fn numeric_edges() -> Vec<Value> {
    let ints = [
        0,
        1,
        -1,
        2,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 2,
        -TWO_53 - 1,
        -TWO_53,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    let doubles = [
        0.0,
        -0.0,
        0.5,
        -0.5,
        2.0,
        2.5,
        -1.0,
        TWO_53 as f64,
        (TWO_53 + 2) as f64,
        -(TWO_53 as f64),
        TWO_63,
        -TWO_63,
        TWO_63 - 1024.0,
        f64::MAX,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    let mut vals: Vec<Value> = ints.into_iter().map(Value::Int).collect();
    vals.extend(doubles.into_iter().map(Value::Double));
    vals.extend([Value::Str("a".into()), Value::Null]);
    vals
}

/// A numeric value: an edge, one near an edge, a small integer or half,
/// or any bit pattern at all.
fn random_numeric(rng: &mut StdRng) -> Value {
    let edges = numeric_edges();
    match rng.gen_range(0..6u64) {
        0 => edges[rng.gen_range(0..edges.len() - 2)].clone(),
        1 => Value::Int(TWO_53.saturating_mul(rng.gen_range(-2i64..3)) + rng.gen_range(-3i64..4)),
        2 => Value::Double(
            (TWO_53 + rng.gen_range(-3i64..4)) as f64 * rng.gen_range(-1i64..2) as f64,
        ),
        3 => Value::Int(rng.gen_range(-4i64..5)),
        4 => Value::Double(rng.gen_range(-8i64..9) as f64 / 2.0),
        _ => match rng.gen_bool(0.5) {
            true => Value::Int(rng.gen_range(0..u64::MAX) as i64),
            false => Value::Double(f64::from_bits(rng.gen_range(0..u64::MAX))),
        },
    }
}

/// INT against DOUBLE by integer arithmetic on the double's bits: its
/// magnitude is `mantissa · 2^shift`, split into a whole part (in `i128`)
/// and whether a fraction is left over.
fn oracle_int_double(i: i64, d: f64) -> Ordering {
    let bits = d.to_bits();
    let negative = bits >> 63 == 1;
    let beyond = match negative {
        true => Ordering::Greater,
        false => Ordering::Less,
    };
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0x7ff {
        return beyond; // an infinity or a NaN
    }
    let mantissa = (bits & ((1 << 52) - 1)) as i128 | if exp == 0 { 0 } else { 1 << 52 };
    let shift = exp.max(1) - 1075;
    let (whole, fraction) = if shift >= 0 {
        if shift > 64 {
            return beyond; // |d| ≥ 2^116
        }
        (mantissa << shift, false)
    } else if shift <= -64 {
        (0, mantissa != 0)
    } else {
        (mantissa >> -shift, mantissa & ((1 << -shift) - 1) != 0)
    };
    let i = i as i128;
    match negative {
        // d = whole + fraction
        false => i.cmp(&whole).then(match fraction {
            true => Ordering::Less,
            false => Ordering::Equal,
        }),
        // d = -(whole + fraction); -0.0 lies below INT 0
        true => i.cmp(&-whole).then(match fraction || whole == 0 {
            true => Ordering::Greater,
            false => Ordering::Equal,
        }),
    }
}

/// `Value`'s order, written independently: numbers, then strings, then
/// NULL; doubles among themselves by `total_cmp`.
fn oracle(a: &Value, b: &Value) -> Ordering {
    let rank = |v: &Value| match v {
        Value::Int(_) | Value::Double(_) => 0,
        Value::Str(_) => 1,
        Value::Null => 2,
    };
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Double(x), Value::Double(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        (Value::Int(i), Value::Double(d)) => oracle_int_double(*i, *d),
        (Value::Double(d), Value::Int(i)) => oracle_int_double(*i, *d).reverse(),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Every pairwise claim `Value` makes about `a` and `b`.
fn assert_pair(a: &Value, b: &Value) {
    let ord = a.cmp(b);
    assert_eq!(ord, oracle(a, b), "{a:?} vs {b:?}: order");
    assert_eq!(ord, b.cmp(a).reverse(), "{a:?} vs {b:?}: antisymmetry");
    assert_eq!(ord.is_eq(), a == b, "{a:?} vs {b:?}: == is cmp's Equal");
    if a == b {
        assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}: hashes");
    }
    let (ca, cb) = (CellRef::from_value(a), CellRef::from_value(b));
    assert_eq!(ca.order(cb), ord, "{a:?} vs {b:?}: CellRef::order");
    if ca.norm_prefix() < cb.norm_prefix() {
        assert_eq!(ord, Ordering::Less, "{a:?} vs {b:?}: normalized prefix");
    }
}

fn assert_triple(a: &Value, b: &Value, c: &Value) {
    if a <= b && b <= c {
        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}: transitivity");
    }
    if a == b && b == c {
        assert!(a == c, "{a:?} == {b:?} == {c:?}: transitivity");
    }
}

/// `cmp == Equal` ⇔ `==`, `==` ⇒ equal hashes, antisymmetry,
/// transitivity, the oracle's order, `CellRef::order` and order-preserving
/// normalized prefixes: over every pair and triple of edge values, and over
/// random pairs and triples.
#[test]
fn value_order_equality_and_hash_agree_with_an_exact_oracle() {
    let edges = numeric_edges();
    for a in &edges {
        for b in &edges {
            assert_pair(a, b);
            for c in &edges {
                assert_triple(a, b, c);
            }
        }
    }
    for_all_cases(|rng| {
        for _ in 0..200 {
            let [a, b, c] = [(); 3].map(|_| random_numeric(rng));
            assert_pair(&a, &b);
            assert_triple(&a, &b, &c);
            assert_triple(&a, &c, &b);
            assert_triple(&b, &a, &c);
        }
    });
}

/// `op` applied to an ordering, as SQL reads it.
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Rows `(key, ordinal)` whose keys are `keys`.
fn keyed_rows(keys: &[Value], base: i64) -> Vec<Tuple> {
    (base..)
        .zip(keys)
        .map(|(i, k)| Tuple::new(vec![k.clone(), Value::Int(i)]))
        .collect()
}

/// The ordinal pairs an inner hash join of `left ⋈ right` on their keys
/// returns, building on `build`, over `layout` input, sorted.
fn hash_join_pairs(
    left: &[Value],
    right: &[Value],
    build: Side,
    layout: Layout,
) -> Vec<(i64, i64)> {
    let side = |keys: &[Value], name: &str, base: i64| -> BoxOp {
        let ty = match keys.iter().all(|k| matches!(k, Value::Int(_))) {
            true => DataType::Int,
            false => DataType::Double,
        };
        let schema = Schema::new(vec![
            Column::new(format!("{name}.k"), ty),
            Column::new(format!("{name}.id"), DataType::Int),
        ]);
        Box::new(Source::new(schema, keyed_rows(keys, base), 7, layout))
    };
    let join = HashJoin::new(
        side(left, "l", 0),
        side(right, "r", 1_000_000),
        KeySpec::new(vec![0]),
        KeySpec::new(vec![0]),
        build,
    );
    let mut pairs: Vec<(i64, i64)> = collect(Box::new(join))
        .unwrap()
        .iter()
        .map(|t| (t.get(1).as_int().unwrap(), t.get(3).as_int().unwrap()))
        .collect();
    pairs.sort();
    pairs
}

/// The columnar compare (typed and mixed columns), the vector filter
/// kernels (INT and DOUBLE columns against literals of either type, and
/// against each other) and the hash join (an INT build probed by DOUBLE
/// key words, a DOUBLE build hashing `Value`s, over dense and selected
/// batches) all decide as `Value` does on the same cells.
#[test]
fn columnar_filter_and_hash_join_paths_agree_with_value() {
    for_all_cases(|rng| {
        let mut pool = numeric_edges();
        pool.truncate(pool.len() - 2); // numbers only
        pool.extend((0..24).map(|_| random_numeric(rng)));
        let ints: Vec<Value> = pool
            .iter()
            .filter(|v| matches!(v, Value::Int(_)))
            .cloned()
            .collect();
        let doubles: Vec<Value> = pool
            .iter()
            .filter(|v| matches!(v, Value::Double(_)))
            .cloned()
            .collect();

        // Columnar compare: an INT, a DOUBLE and a mixed column, each with
        // a NULL, every cell against every cell.
        let column = |vals: &[Value]| {
            let mut vals = vals.to_vec();
            vals.push(Value::Null);
            let rows: Vec<Tuple> = vals.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
            (vals, ColumnarBatch::from_rows(&rows))
        };
        let columns = [column(&ints), column(&doubles), column(&pool)];
        for (va, ba) in &columns {
            for (vb, bb) in &columns {
                for (i, a) in va.iter().enumerate() {
                    for (j, b) in vb.iter().enumerate() {
                        let got = ba.column(0).compare(i, bb.column(0), j);
                        assert_eq!(got, a.cmp(b), "{a:?} vs {b:?}: ColumnVec::compare");
                    }
                }
            }
        }

        // Vector kernels: rows (INT, DOUBLE) drawn from the pool, NULLs
        // included.
        let n = 40;
        let draw = |rng: &mut StdRng, from: &[Value]| match rng.gen_bool(0.1) {
            true => Value::Null,
            false => from[rng.gen_range(0..from.len())].clone(),
        };
        let rows: Vec<Tuple> = (0..n)
            .map(|_| Tuple::new(vec![draw(rng, &ints), draw(rng, &doubles)]))
            .collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let passing = |pred: &Expr, test: &dyn Fn(&Tuple) -> Option<Ordering>| {
            let got = VecPredicate::compile(pred).refine(&batch);
            let Expr::Cmp(op, ..) = pred else {
                unreachable!()
            };
            let expect: Vec<u32> = (0..n as u32)
                .filter(|&i| test(&rows[i as usize]).is_some_and(|o| holds(*op, o)))
                .collect();
            assert_eq!(got, expect, "{pred:?}");
        };
        let non_null = |a: &Value, b: &Value| (!a.is_null() && !b.is_null()).then(|| a.cmp(b));
        for op in OPS {
            for lit in &pool {
                for c in [0, 1] {
                    passing(&Expr::cmp(op, Expr::col(c), Expr::Lit(lit.clone())), &|t| {
                        non_null(t.get(c), lit)
                    });
                }
            }
            passing(&Expr::cmp(op, Expr::col(0), Expr::col(1)), &|t| {
                non_null(t.get(0), t.get(1))
            });
            passing(&Expr::cmp(op, Expr::col(1), Expr::col(0)), &|t| {
                non_null(t.get(1), t.get(0))
            });
        }

        // Hash join: INT keys against DOUBLE keys, either side built.
        let expect: Vec<(i64, i64)> = (0..)
            .zip(&ints)
            .flat_map(|(i, a)| {
                (1_000_000..)
                    .zip(&doubles)
                    .filter(move |(_, b)| *a == **b)
                    .map(move |(j, _)| (i, j))
            })
            .collect();
        for build in [Side::Left, Side::Right] {
            for layout in [Layout::Dense, Layout::Selected] {
                let got = hash_join_pairs(&ints, &doubles, build, layout);
                assert_eq!(got, expect, "build {build:?} over {layout:?}");
            }
        }
    });
}
