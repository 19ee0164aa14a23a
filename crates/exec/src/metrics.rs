//! Shared execution counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters every operator in a pipeline shares.
///
/// `comparisons` counts scalar key comparisons (the quantity the paper's
/// Experiment A arguments are about); `run_pages_written` / `run_pages_read`
/// count *sort-spill* I/O only — base-table I/O is tracked by the storage
/// device, so "MRS avoids run generation I/O completely" is the assertion
/// `run_pages_written == 0 && run_pages_read == 0`. `cache_hits` /
/// `cache_misses` report the buffer pool's hot/cold split for one
/// execution (always 0 when the session bypasses the pool); unlike the
/// four paper counters they are *not* part of any parity contract —
/// warmth legitimately varies run to run.
///
/// The counters are relaxed atomics so a metrics block can cross thread
/// boundaries (a pipeline can run on any thread, and a hash join's build
/// side may be drained by another thread than the one that compiled it).
/// The parallel engine's worker fragments hold only counter-free operators,
/// so they charge nothing at all; the metered operators run serially and
/// see serial-identical input, which is what keeps every total
/// bit-identical to serial execution.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    comparisons: AtomicU64,
    run_pages_written: AtomicU64,
    run_pages_read: AtomicU64,
    runs_created: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// Shared handle to pipeline metrics.
pub type MetricsRef = Arc<ExecMetrics>;

impl ExecMetrics {
    /// Fresh, zeroed counters.
    pub fn new() -> MetricsRef {
        Arc::new(ExecMetrics::default())
    }

    /// Adds `n` scalar comparisons.
    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` spill pages written.
    pub fn add_run_pages_written(&self, n: u64) {
        self.run_pages_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` spill pages read.
    pub fn add_run_pages_read(&self, n: u64) {
        self.run_pages_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records creation of one spill run.
    pub fn add_run(&self) {
        self.runs_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` buffer-pool page hits (page reads served from a resident
    /// frame). Charged by [`crate::Pipeline`] as the pool-counter delta of
    /// one execution; always 0 when the session bypasses the pool.
    pub fn add_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` buffer-pool page misses (page reads that went to the
    /// device cold).
    pub fn add_cache_misses(&self, n: u64) {
        self.cache_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Total scalar comparisons so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.load(Ordering::Relaxed)
    }

    /// Spill pages written so far.
    pub fn run_pages_written(&self) -> u64 {
        self.run_pages_written.load(Ordering::Relaxed)
    }

    /// Spill pages read so far.
    pub fn run_pages_read(&self) -> u64 {
        self.run_pages_read.load(Ordering::Relaxed)
    }

    /// Spill runs created so far.
    pub fn runs_created(&self) -> u64 {
        self.runs_created.load(Ordering::Relaxed)
    }

    /// Total spill I/O (pages read + written).
    pub fn run_io(&self) -> u64 {
        self.run_pages_written() + self.run_pages_read()
    }

    /// Buffer-pool hits charged to this pipeline so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Buffer-pool misses charged to this pipeline so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Zeroes all counters.
    pub fn reset(&self) {
        self.comparisons.store(0, Ordering::Relaxed);
        self.run_pages_written.store(0, Ordering::Relaxed);
        self.run_pages_read.store(0, Ordering::Relaxed);
        self.runs_created.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = ExecMetrics::new();
        m.add_comparisons(5);
        m.add_comparisons(2);
        m.add_run_pages_written(3);
        m.add_run_pages_read(1);
        m.add_run();
        assert_eq!(m.comparisons(), 7);
        assert_eq!(m.run_io(), 4);
        assert_eq!(m.runs_created(), 1);
        m.reset();
        assert_eq!(m.comparisons(), 0);
        assert_eq!(m.run_io(), 0);
    }
}
