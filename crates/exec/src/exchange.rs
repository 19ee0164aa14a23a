//! The exchange operator for intra-query parallelism, built on
//! `std::thread` + one bounded `std::sync::mpsc` channel (zero external
//! deps).
//!
//! A [`Gather`] deals one file out to N worker threads a morsel at a time
//! ([`MorselSource`]). For every morsel it claims, a worker instantiates the
//! fragment's operator chain over a scan of just that page range
//! ([`FragmentFn`]), drains it, and sends the batches downstream tagged with
//! the morsel's sequence number — so a worker's batches never span a morsel,
//! and a morsel usually travels as one message.
//!
//! The consumer releases morsels in sequence order from a reorder buffer.
//! What the head morsel has sent goes straight through; batches of later
//! morsels wait in their slot until every earlier morsel is complete. A
//! morsel's sequence number is its position in the file, and a fragment
//! chain of filters, projections and hash-join probes emits a morsel's
//! output in scan order, so the released stream **is the serial row
//! sequence** — with no sort key and no comparison — for every fragment
//! whose hash joins probe tables built in serial order. The window bounds
//! the buffer: a worker may not claim a morsel more than `window` sequence
//! numbers past the head.
//!
//! Workers hand over the column batches the fragment produced, and nothing
//! else: a consumer that wants rows boxes them on its own thread
//! ([`crate::collect`]). Rows a worker allocated and the consumer freed
//! would stay in the worker's allocator arena, so boxing there costs the
//! process memory as well as a second shipment format.
//!
//! Before it spawns anyone, a gather builds — on the consumer thread — every
//! hash-join table its chain probes ([`SharedBuild::build`]): builds finish
//! before probes start, so no worker ever parks behind a build, and nested
//! exchanges (a big build side has its own) run one after the other, never
//! `workers` threads each at once.
//!
//! An error is final: once a pull has returned `Err`, every later pull
//! returns the same error — never leftover batches, never a clean
//! end-of-stream that would pass a truncated result off as complete.
//!
//! **Metrics rule.** Fragments contain only counter-free operators (scans,
//! filters, projections, hash joins) and the exchange's own
//! bookkeeping is parallelization infrastructure, not the paper's
//! order-enforcement work, so nothing here touches `ExecMetrics`: all four
//! counters stay bit-identical to `workers = 1`.

use crate::join::SharedBuild;
use crate::op::{BoxOp, Operator};
use crate::scan::{FileScan, MorselSource};
use pyro_common::{ColumnarBatch, PyroError, Result, Schema};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The recipe for one parallel fragment: wraps the scan of a claimed morsel
/// in the fragment's operator chain. Called once per morsel, on the worker
/// that claimed it.
pub type FragmentFn = Arc<dyn Fn(FileScan) -> BoxOp + Send + Sync>;

/// A worker hands a morsel's output over in as few messages as it can — on
/// a small machine every message may cost the consumer a sleep and a wake,
/// which is dearer than a batch — but no more than this many batches at a
/// time, so a high-fan-out join cannot make it hoard a morsel's worth of
/// matches.
const PART_BATCHES: usize = 16;

/// What a worker tells the consumer.
enum Msg {
    /// The next output of morsel `seq`, in order; `last` marks the morsel
    /// complete (a morsel that produced nothing sends one empty, `last`
    /// part).
    Part {
        seq: usize,
        batches: Vec<ColumnarBatch>,
        last: bool,
    },
    /// The worker's operator chain failed, or the worker is unwinding.
    Failed(PyroError),
}

/// Tells the consumer when a worker dies unwinding: without it the
/// gather would wait forever for the dead worker's morsel to complete. The
/// consumer then joins the workers, which re-raises the panic itself.
struct PanicNotice<'a>(&'a SyncSender<Msg>);

impl Drop for PanicNotice<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Msg::Failed(PyroError::Exec(
                "exchange worker panicked".into(),
            )));
        }
    }
}

/// Everything a worker needs, shared by all of them.
#[derive(Clone)]
struct Fragment {
    source: Arc<MorselSource>,
    leaf_schema: Schema,
    chain: FragmentFn,
}

impl Fragment {
    /// One worker: claim, instantiate, drain and repeat. A failed send
    /// means the consumer is gone (completion or abort): exit.
    fn work(&self, batch: usize, tx: &SyncSender<Msg>) {
        let _notice = PanicNotice(tx);
        while let Some(morsel) = self.source.claim() {
            let mut leaf = self.source.scan(&morsel, self.leaf_schema.clone());
            leaf.set_batch_size(batch);
            let mut op = (self.chain)(leaf);
            op.set_batch_size(batch);
            let mut batches = Vec::new();
            loop {
                let last = match op.next_batch() {
                    Ok(Some(b)) => {
                        batches.push(b);
                        false
                    }
                    Ok(None) => true,
                    Err(e) => {
                        let _ = tx.send(Msg::Failed(e));
                        return;
                    }
                };
                if last || batches.len() >= PART_BATCHES {
                    let part = Msg::Part {
                        seq: morsel.seq,
                        batches: std::mem::take(&mut batches),
                        last,
                    };
                    if tx.send(part).is_err() {
                        return;
                    }
                }
                if last {
                    break;
                }
            }
        }
    }
}

enum State {
    Idle,
    Running {
        rx: Receiver<Msg>,
        handles: Vec<JoinHandle<()>>,
    },
    Done,
    /// A build or a worker failed; every later pull repeats the error.
    Failed(PyroError),
}

/// One morsel's place in the reorder buffer.
#[derive(Default)]
struct Slot {
    batches: Vec<ColumnarBatch>,
    done: bool,
}

/// N workers over one morsel queue feeding one output stream in
/// morsel-sequence order (see the module doc). Workers spawn lazily on the
/// first pull and are joined when the stream ends, fails, or is dropped, so
/// an abandoned pipeline never leaks a thread.
pub struct Gather {
    schema: Schema,
    fragment: Fragment,
    /// The hash-join tables `fragment.chain` probes, built before the
    /// workers start.
    builds: Vec<Arc<SharedBuild>>,
    workers: usize,
    state: State,
    /// Output cleared to be handed on, in order.
    ready: VecDeque<ColumnarBatch>,
    /// The lowest incomplete morsel, and the buffer for it and its
    /// successors (`slots[i]` is morsel `head + i`).
    head: usize,
    slots: VecDeque<Slot>,
    batch: usize,
}

impl Gather {
    /// An exchange producing `schema` rows: `workers` threads claim morsels
    /// from `source`, scan them as `leaf_schema` and run each through
    /// `chain`, whose hash joins probe `builds`.
    pub fn new(
        schema: Schema,
        source: Arc<MorselSource>,
        leaf_schema: Schema,
        chain: FragmentFn,
        builds: Vec<Arc<SharedBuild>>,
        workers: usize,
    ) -> Gather {
        Gather {
            schema,
            fragment: Fragment {
                source,
                leaf_schema,
                chain,
            },
            builds,
            workers: workers.max(1),
            state: State::Idle,
            ready: VecDeque::new(),
            head: 0,
            slots: VecDeque::new(),
            batch: crate::op::DEFAULT_BATCH_SIZE,
        }
    }

    /// Builds the shared tables, then spawns the workers. A build side's
    /// own exchange has come and gone before this one's threads start: a
    /// pipeline runs at most `workers` threads at a time, however many
    /// exchanges it nests.
    fn start(&mut self) -> Result<()> {
        for build in &self.builds {
            build.build()?;
        }
        let (tx, rx) = sync_channel::<Msg>(self.workers * 2);
        let handles = (0..self.workers)
            .map(|_| {
                let (fragment, tx, batch) = (self.fragment.clone(), tx.clone(), self.batch);
                std::thread::spawn(move || fragment.work(batch, &tx))
            })
            .collect();
        self.state = State::Running { rx, handles };
        Ok(())
    }

    /// Tears the exchange down: closes the morsel queue (waking workers
    /// parked on the window), drops the receiver (unblocking workers
    /// mid-send) and joins everyone. A worker panic re-raises here, on the
    /// consumer — results must never be silently truncated — except while
    /// already unwinding (teardown also runs from `Drop`), where a second
    /// panic would abort the process.
    fn finish(&mut self) {
        if let State::Running { rx, handles } = std::mem::replace(&mut self.state, State::Done) {
            self.fragment.source.close();
            drop(rx);
            let mut worker_panic = None;
            for h in handles {
                if let Err(payload) = h.join() {
                    worker_panic = Some(payload);
                }
            }
            if let Some(payload) = worker_panic {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Files a part under its morsel, then clears everything the head
    /// morsel has so far — and every complete morsel behind it — for
    /// output. `seq` is never below `head`: a morsel the head has moved
    /// past is complete, and its worker has moved on.
    fn reorder(&mut self, seq: usize, batches: Vec<ColumnarBatch>, last: bool) {
        let i = seq - self.head;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, Slot::default);
        }
        self.slots[i].batches.extend(batches);
        self.slots[i].done |= last;
        while let Some(slot) = self.slots.front_mut() {
            self.ready.extend(slot.batches.drain(..));
            if !slot.done {
                return;
            }
            self.slots.pop_front();
            self.head += 1;
            self.fragment.source.release(self.head);
        }
    }

    /// Ends the stream on `e`: discards everything buffered, joins the
    /// workers and latches the error for later pulls.
    fn fail(&mut self, e: PyroError) -> PyroError {
        self.ready.clear();
        self.slots.clear();
        self.finish();
        self.state = State::Failed(e.clone());
        e
    }
}

impl Operator for Gather {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next batch in file order; the first pull starts the workers.
    fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        match &self.state {
            State::Idle => {
                if let Err(e) = self.start() {
                    return Err(self.fail(e));
                }
            }
            State::Failed(e) => return Err(e.clone()),
            State::Running { .. } | State::Done => {}
        }
        loop {
            if let Some(b) = self.ready.pop_front() {
                return Ok(Some(b));
            }
            let State::Running { rx, .. } = &self.state else {
                return Ok(None);
            };
            match rx.recv() {
                Ok(Msg::Part { seq, batches, last }) => self.reorder(seq, batches, last),
                Ok(Msg::Failed(e)) => return Err(self.fail(e)),
                // Every worker has exited and the channel is drained: each
                // claimed morsel is complete and already cleared for output.
                Err(_) => self.finish(),
            }
        }
    }

    fn set_batch_size(&mut self, rows: usize) {
        self.batch = rows.max(1);
    }
}

impl Drop for Gather {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::filter::Filter;
    use crate::join::{HashJoin, SharedBuild, Side};
    use crate::op::{collect, FaultyOp, ValuesOp};
    use pyro_common::{KeySpec, Tuple, Value};
    use pyro_storage::{write_file, SimDevice, TupleFile};

    fn schema() -> Schema {
        Schema::ints(&["k", "v"])
    }

    /// `n` rows `(i % 13, i)` on 128-byte pages: a few dozen pages, so
    /// two-page morsels give every worker many claims.
    fn file(n: i64) -> (TupleFile, Vec<Tuple>) {
        let rows: Vec<Tuple> = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i % 13), Value::Int(i)]))
            .collect();
        let file = write_file(SimDevice::with_block_size(128), &rows).unwrap();
        (file, rows)
    }

    fn gather(file: &TupleFile, window: usize, chain: FragmentFn, workers: usize) -> Gather {
        let source = MorselSource::with_morsel_pages(file, 2, window);
        let mut g = Gather::new(schema(), source, schema(), chain, Vec::new(), workers);
        g.set_batch_size(16);
        g
    }

    fn identity() -> FragmentFn {
        Arc::new(|leaf| Box::new(leaf))
    }

    fn faulty(after: usize, panic: bool) -> FragmentFn {
        Arc::new(move |leaf| Box::new(FaultyOp::new(Box::new(leaf), after, panic)))
    }

    /// Drained batch by batch or whole through `collect`, over a fragment
    /// whose batches are dense or carry selection vectors, and one row per
    /// pull, the gather is the file.
    #[test]
    fn gather_yields_the_file_on_every_pull_path() {
        let (file, rows) = file(600);
        let selected: FragmentFn = Arc::new(|leaf| {
            let all = Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(0i64));
            Box::new(Filter::new(Box::new(leaf), all))
        });
        for workers in [1, 2, 4] {
            let window = 2 * workers;
            let mut one_row = gather(&file, window, identity(), workers);
            one_row.set_batch_size(1);
            let mut outs = vec![collect(Box::new(one_row)).unwrap()];
            for chain in [identity(), selected.clone()] {
                let mut g = gather(&file, window, chain.clone(), workers);
                let mut out = Vec::new();
                while let Some(b) = g.next_batch().unwrap() {
                    b.append_rows(&mut out);
                }
                outs.push(out);
                outs.push(collect(Box::new(gather(&file, window, chain, workers))).unwrap());
            }
            for out in outs {
                assert_eq!(out, rows, "workers={workers}");
            }
        }
    }

    /// The gather is the file, exactly — including when a filter
    /// empties whole runs of morsels (`v` in 100..400 is ~20 consecutive
    /// two-page morsels): an empty morsel must still be marked complete or
    /// the window would never move past it.
    #[test]
    fn ordered_gather_reproduces_file_order_past_empty_morsels() {
        let (file, rows) = file(600);
        let keep = |lo: i64, hi: i64| -> FragmentFn {
            let pred = Expr::and_all(vec![
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit(lo)),
                Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit(hi)),
            ]);
            Arc::new(move |leaf| Box::new(Filter::new(Box::new(leaf), pred.clone())))
        };
        for workers in [1, 2, 4] {
            for window in [1, 2, 8] {
                let all = collect(Box::new(gather(&file, window, identity(), workers)));
                assert_eq!(all.unwrap(), rows, "workers={workers} window={window}");
                let tail = collect(Box::new(gather(&file, window, keep(400, 600), workers)));
                assert_eq!(
                    tail.unwrap(),
                    rows[400..],
                    "workers={workers} window={window}"
                );
                let none = collect(Box::new(gather(&file, window, keep(9, 9), workers)));
                assert_eq!(none.unwrap(), Vec::new());
            }
        }
    }

    /// Dropping a gather mid-stream — workers parked on the window, on the
    /// full channel, or mid-morsel — joins every thread:
    /// this test hangs if one is left behind, and the `Arc` count proves
    /// none still holds the fragment.
    #[test]
    fn drop_mid_stream_joins_every_worker() {
        let (file, _) = file(5_000);
        for window in [1, 8, 64] {
            let chain = identity();
            let mut g = gather(&file, window, chain.clone(), 4);
            assert!(g.next_batch().unwrap().is_some());
            drop(g);
            assert_eq!(Arc::strong_count(&chain), 1, "window={window}");
        }
    }

    #[test]
    fn worker_error_is_typed_and_worker_panic_reraises_on_the_consumer() {
        let (file, _) = file(600);
        for window in [2, 64] {
            let err = collect(Box::new(gather(&file, window, faulty(7, false), 2)));
            assert_eq!(err.unwrap_err(), PyroError::Exec("boom".into()));

            let chain = faulty(7, true);
            let g = gather(&file, window, chain.clone(), 2);
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| collect(Box::new(g))))
                    .expect_err("the worker's panic must not be swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            assert_eq!(Arc::strong_count(&chain), 1, "every worker joined");
        }
    }

    /// After a failure the stream stays failed: a second pull must not hand
    /// out batches that were buffered behind the error, nor a clean end.
    /// (Only the tenth morsel to be claimed fails, so batches do flow first
    /// and later morsels are in flight when the error arrives.)
    #[test]
    fn an_error_is_latched_for_every_later_pull() {
        let (file, _) = file(5_000);
        let boom = PyroError::Exec("boom".into());
        for window in [8, 64] {
            let claims = std::sync::atomic::AtomicUsize::new(0);
            let chain: FragmentFn = Arc::new(move |leaf| {
                let after = match claims.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
                    9 => 0,
                    _ => usize::MAX,
                };
                Box::new(FaultyOp::new(Box::new(leaf), after, false))
            });
            let mut g = gather(&file, window, chain, 4);
            let mut pulls = 0;
            let err = loop {
                match g.next_batch() {
                    Ok(Some(_)) => pulls += 1,
                    Ok(None) => panic!("stream ended cleanly after {pulls} batches"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err, boom, "window={window}");
            assert_eq!(g.next_batch().unwrap_err(), boom);
            assert_eq!(g.next_batch().unwrap_err(), boom);
        }
    }

    /// A fragment of hash joins shares one build: the exchange drains it
    /// exactly once, before any worker starts, however many workers and
    /// morsels probe it — and its failure, typed or panicking, reaches the
    /// consumer and stays there.
    #[test]
    fn shared_build_is_built_once_and_its_failure_surfaces() {
        let (file, rows) = file(600);
        let build_rows = || -> BoxOp {
            let rows = (0..5).map(|k| Tuple::new(vec![Value::Int(k), Value::Int(-k)]));
            Box::new(ValuesOp::new(Schema::ints(&["bk", "bv"]), rows.collect()))
        };
        let join_on = |build: BoxOp| -> Gather {
            let shared = SharedBuild::new(build, KeySpec::new(vec![0]));
            let probe = shared.clone();
            let chain: FragmentFn = Arc::new(move |leaf| {
                Box::new(HashJoin::with_shared_build(
                    probe.clone(),
                    Box::new(leaf),
                    KeySpec::new(vec![0]),
                    Side::Left,
                ))
            });
            Gather::new(
                Schema::ints(&["bk", "bv", "k", "v"]),
                MorselSource::with_morsel_pages(&file, 2, 6),
                schema(),
                chain,
                vec![shared],
                3,
            )
        };

        let out = collect(Box::new(join_on(build_rows()))).unwrap();
        let expect: Vec<Tuple> = rows
            .iter()
            .filter(|t| t.get(0).as_int().unwrap() < 5)
            .map(|t| {
                let k = t.get(0).clone();
                let v = Value::Int(-t.get(0).as_int().unwrap());
                Tuple::new([&[k, v], t.values()].concat())
            })
            .collect();
        assert_eq!(
            out, expect,
            "a second drain of the build side would find it empty"
        );

        let mut g = join_on(Box::new(FaultyOp::new(build_rows(), 3, false)));
        for _ in 0..2 {
            assert_eq!(g.next_batch().unwrap_err(), PyroError::Exec("boom".into()));
        }
        let g = join_on(Box::new(FaultyOp::new(build_rows(), 3, true)));
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| collect(Box::new(g))))
            .expect_err("a panicking build must not be swallowed");
    }
}
