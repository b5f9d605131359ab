//! The metrics registry: named counters, gauges, and striped atomic
//! histograms with O(1) thread-striped hot-path recording.
//!
//! See the crate docs for the striping/merge contract. Registration is
//! idempotent by name (re-registering returns a handle to the same
//! underlying cell), which is what lets static call sites and scrape
//! sites share one metric without threading handles through every
//! layer.

use magicrecs_types::metrics::NUM_BUCKETS;
use magicrecs_types::Histogram as PlainHistogram;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Stripes per counter/histogram. Threads spread over stripes by their
/// process-wide thread number, so concurrent recorders land on distinct
/// cache lines; scrapes merge all stripes.
pub const STRIPES: usize = 8;

/// Monotonic thread numbers, used only to spread threads over stripes.
static NEXT_THREAD_NO: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_STRIPE: usize = NEXT_THREAD_NO.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// This thread's stripe index (`0..STRIPES`), fixed for the thread's
/// lifetime.
#[inline]
pub fn thread_stripe() -> usize {
    THREAD_STRIPE.with(|&s| s)
}

/// One cache line per stripe, so striped `fetch_add`s never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

// ---- counter ---------------------------------------------------------------

struct CounterCell {
    enabled: bool,
    stripes: [PadCell; STRIPES],
}

/// A monotone striped counter handle. Cloning shares the same cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
}

impl Counter {
    fn new(enabled: bool) -> Counter {
        Counter {
            cell: Arc::new(CounterCell {
                enabled,
                stripes: Default::default(),
            }),
        }
    }

    /// Adds `n` on this thread's stripe (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.cell.enabled {
            return;
        }
        self.cell.stripes[thread_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sum over all stripes.
    pub fn get(&self) -> u64 {
        self.cell
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ---- gauge -----------------------------------------------------------------

struct GaugeCell {
    enabled: bool,
    value: AtomicU64,
}

/// An instantaneous-state gauge handle (single atomic).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
}

impl Gauge {
    fn new(enabled: bool) -> Gauge {
        Gauge {
            cell: Arc::new(GaugeCell {
                enabled,
                value: AtomicU64::new(0),
            }),
        }
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.cell.enabled {
            self.cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.cell.enabled {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n` (saturating at zero under a read-modify-write
    /// race, which is fine for the occupancy gauges this backs).
    #[inline]
    pub fn sub(&self, n: u64) {
        if self.cell.enabled {
            let _ = self
                .cell
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(n))
                });
        }
    }

    /// Monotone-max fold (high-water marks).
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.cell.enabled {
            self.cell.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

// ---- histogram -------------------------------------------------------------

/// One stripe of an atomic histogram: the full bucket array plus the
/// summary atomics. Allocated lazily on a stripe's first record, so a
/// process with few threads pays for few stripes.
struct HistStripe {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistStripe {
    fn new() -> Box<HistStripe> {
        Box::new(HistStripe {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        })
    }
}

struct HistCell {
    enabled: bool,
    stripes: [OnceLock<Box<HistStripe>>; STRIPES],
}

/// A striped atomic histogram handle sharing
/// [`magicrecs_types::Histogram`]'s bucket layout; scrapes merge the
/// stripes back into that plain sketch.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    fn new(enabled: bool) -> Histogram {
        Histogram {
            cell: Arc::new(HistCell {
                enabled,
                stripes: Default::default(),
            }),
        }
    }

    #[inline]
    fn stripe(&self) -> &HistStripe {
        self.cell.stripes[thread_stripe()].get_or_init(HistStripe::new)
    }

    /// Records a raw µs value: one bucket `fetch_add` plus the summary
    /// atomics, all relaxed, all on this thread's stripe.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_all(std::slice::from_ref(&value));
    }

    /// Records a run of raw µs values onto this thread's stripe: one
    /// bucket `fetch_add` per value and one summary update for the whole
    /// run — the batched-ingest flush path, which leaves the same sketch
    /// as N [`Histogram::record`] calls.
    #[inline]
    pub fn record_all(&self, values: &[u64]) {
        if !self.cell.enabled || values.is_empty() {
            return;
        }
        let s = self.stripe();
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        for &v in values {
            s.buckets[PlainHistogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        s.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        s.sum.fetch_add(sum, Ordering::Relaxed);
        s.min.fetch_min(min, Ordering::Relaxed);
        s.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Merges every stripe into a plain [`magicrecs_types::Histogram`].
    /// Wait-free with respect to writers; a scrape racing a record may
    /// miss it but never tears.
    pub fn snapshot(&self) -> PlainHistogram {
        let mut buckets = vec![0u64; NUM_BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u128;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for slot in &self.cell.stripes {
            let Some(s) = slot.get() else { continue };
            for (b, a) in buckets.iter_mut().zip(&s.buckets) {
                *b += a.load(Ordering::Relaxed);
            }
            count += s.count.load(Ordering::Relaxed);
            sum += s.sum.load(Ordering::Relaxed) as u128;
            min = min.min(s.min.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        PlainHistogram::from_raw_parts(buckets, count, sum, min, max)
    }
}

// ---- registry --------------------------------------------------------------

/// A named metric's scraped value.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Monotone counter sum.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(u64),
    /// Merged histogram sketch.
    Histogram(PlainHistogram),
}

/// One scraped metric.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Registered name (scrape output is sorted by it).
    pub name: String,
    /// The value at scrape time.
    pub value: MetricValue,
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Inner {
    enabled: bool,
    metrics: Mutex<Vec<(String, Metric)>>,
}

/// A process- or component-scoped set of named metrics. Cloning shares
/// the same registry; handles stay valid for the registry's lifetime.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A live registry: handles record.
    pub fn new() -> Registry {
        Registry::with_enabled(true)
    }

    /// A disabled registry: handles are hot-path no-ops (one branch),
    /// scrapes return zeros. The control arm of the instrumentation
    /// overhead guard.
    pub fn disabled() -> Registry {
        Registry::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                enabled,
                metrics: Mutex::new(Vec::new()),
            }),
        }
    }

    fn get_or_register(&self, name: &str, make: impl FnOnce(bool) -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().unwrap();
        if let Some((_, m)) = metrics.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make(self.inner.enabled);
        metrics.push((name.to_string(), m.clone()));
        m
    }

    /// Returns the counter registered as `name`, registering it on
    /// first use. Panics if `name` is already registered as another
    /// kind (a naming bug, not a runtime condition).
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_register(name, |e| Metric::Counter(Counter::new(e))) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is registered with a different kind"),
        }
    }

    /// Returns the gauge registered as `name`, registering on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_register(name, |e| Metric::Gauge(Gauge::new(e))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is registered with a different kind"),
        }
    }

    /// Returns the histogram registered as `name`, registering on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_register(name, |e| Metric::Histogram(Histogram::new(e))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is registered with a different kind"),
        }
    }

    /// Scrapes every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let metrics = self.inner.metrics.lock().unwrap();
        let mut out: Vec<MetricSnapshot> = metrics
            .iter()
            .map(|(name, m)| MetricSnapshot {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

/// The process-wide registry: the home of metrics recorded from layers
/// that no component handle reaches (WAL internals, checkpoint fences,
/// cluster transports, the stage histograms). Component-scoped metrics
/// (one engine's counters) live on that component's own [`Registry`];
/// a full scrape concatenates both.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registers_once_and_sums() {
        let r = Registry::new();
        let a = r.counter("c");
        let b = r.counter("c");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn gauge_ops() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), 0, "sub saturates");
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_snapshot_matches_plain() {
        let r = Registry::new();
        let h = r.histogram("h");
        let mut plain = PlainHistogram::new();
        for v in [1u64, 5, 999, 100_000, 7] {
            h.record(v);
            plain.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.median(), plain.median());
        assert_eq!(snap.min(), plain.min());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.sum(), plain.sum());
    }

    #[test]
    fn record_all_equals_individual_records() {
        let r = Registry::new();
        let direct = r.histogram("direct");
        let bulk = r.histogram("bulk");
        let values = [3u64, 3, 70, 4096, 12];
        for v in values {
            direct.record(v);
        }
        bulk.record_all(&values[..2]);
        bulk.record_all(&values[2..]);
        bulk.record_all(&[]);
        let (a, b) = (direct.snapshot(), bulk.snapshot());
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.add(5);
        g.set(5);
        g.set_max(9);
        h.record(5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
