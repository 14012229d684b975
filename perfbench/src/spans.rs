//! In-memory spans and the self-time accounting built on them.
//!
//! A span is one timed call into a layer: a [`Layer`], a start and end
//! (nanoseconds since the recorder's epoch), the index of the enclosing
//! span and an operation id shared by every span of one cell or query.
//! The self time of a span is its duration minus the durations of its
//! direct children, so time spent in the `fits` oracle is charged to
//! `cluster.fits`, not to the policy call that asked, and policy and hook
//! calls are charged to themselves, not to `sched.simulate`.
//!
//! [`aggregate`] computes per-layer totals from a finished span list.
//! [`Recorder`] computes the same totals online (a stack of open spans),
//! because the hot layers are called tens of millions of times in one
//! replay and cannot all be kept; it keeps only the coarse spans
//! ([`Layer::retained`]) for the span file written at the end of a run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

macro_rules! layers {
    ($($variant:ident => $name:literal, $keep:literal;)*) => {
        /// Every layer the benchmark times.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Layer {
            $(
                #[doc = $name]
                $variant,
            )*
        }

        impl Layer {
            /// Every layer, in declaration order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant),*];

            /// The span name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }

            /// Whether the recorder keeps individual spans of this layer
            /// (coarse layers) or only their totals (hot layers).
            pub fn retained(self) -> bool {
                match self {
                    $(Layer::$variant => $keep,)*
                }
            }
        }
    };
}

layers! {
    SwfParse => "swf.parse", true;
    SwfCleanStream => "swf.clean_stream", true;
    WorkloadAssemble => "workload.assemble", true;
    WorkloadGenerate => "workload.generate", true;
    Simulate => "sched.simulate", true;
    PolicyHead => "policy.head", false;
    PolicyBackfill => "policy.backfill", false;
    PolicyReserve => "policy.reserve", false;
    Fits => "cluster.fits", false;
    FindStart => "cluster.find_start", false;
    HookOnTime => "powercap.on_time", false;
    HookAdmit => "powercap.admit_start", false;
    HookDeclined => "powercap.admission_declined", false;
    HookAdmitGearChange => "powercap.admit_gear_change", false;
    HookJobStart => "powercap.on_job_start", false;
    HookJobFinish => "powercap.on_job_finish", false;
    HookGearChange => "powercap.on_gear_change", false;
    HookNextEvent => "powercap.next_power_event", false;
    PowerReport => "powercap.into_report", true;
    MetricsCompute => "metrics.compute", true;
    Table1 => "experiments.table1", true;
    Grid => "experiments.grid", true;
    Fig6 => "experiments.fig6", true;
    Enlarged => "experiments.enlarged", true;
    Ablations => "experiments.ablations", true;
    Powercap => "experiments.powercap", true;
    Render => "report.render", true;
}

/// Number of layers.
pub const LAYERS: usize = Layer::ALL.len();

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// The operation (cell or query) the span belongs to.
    pub op: u32,
}

#[cfg(test)]
impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Spans closed.
    pub calls: u64,
    /// Summed wall duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

impl Tally {
    fn add(&mut self, dur_ns: u64, child_ns: u64) {
        self.calls += 1;
        self.total_ns += dur_ns;
        self.self_ns += dur_ns.saturating_sub(child_ns);
    }

    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Self seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Totals keyed by `(op, layer)`.
pub type Tallies = BTreeMap<(u32, Layer), Tally>;

#[cfg(test)]
/// Per-layer totals of a finished span list: each span's self time is its
/// duration minus the summed durations of the spans whose `parent` it is.
pub fn aggregate(spans: &[Span]) -> Tallies {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = Tallies::new();
    for (i, s) in spans.iter().enumerate() {
        out.entry((s.op, s.layer))
            .or_default()
            .add(s.dur_ns(), child_ns[i]);
    }
    out
}

/// Sums the tallies of `layer` over the ops `op_filter` accepts.
pub fn sum_layer(t: &Tallies, layer: Layer, op_filter: impl Fn(u32) -> bool) -> Tally {
    let mut sum = Tally::default();
    for (&(op, l), v) in t {
        if l == layer && op_filter(op) {
            sum.calls += v.calls;
            sum.total_ns += v.total_ns;
            sum.self_ns += v.self_ns;
        }
    }
    sum
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    /// Index in `kept` when the span is retained.
    kept: Option<usize>,
}

/// Records spans online: totals for every layer, individual spans for the
/// retained ones. Spans nest strictly (a stack), which is how calls nest.
pub struct Recorder {
    epoch: Instant,
    op: u32,
    stack: Vec<Open>,
    kept: Vec<Span>,
    keep_all: bool,
    /// `tallies[op][layer]`.
    tallies: Vec<[Tally; LAYERS]>,
}

impl Recorder {
    /// A recorder keeping only the retained layers' spans.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            kept: Vec::new(),
            keep_all: false,
            tallies: Vec::new(),
        }
    }

    /// A recorder keeping every span (for checking against [`aggregate`]).
    #[cfg(test)]
    pub fn keeping_all() -> Recorder {
        Recorder {
            keep_all: true,
            ..Recorder::new()
        }
    }

    /// Starts operation `op`: later spans carry its id.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of `layer` at the current instant.
    pub fn open(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        self.open_at(layer, start_ns);
    }

    /// Closes the innermost open span at the current instant.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        self.close_at(end_ns);
    }

    /// [`Recorder::open`] with an explicit timestamp.
    pub fn open_at(&mut self, layer: Layer, start_ns: u64) {
        let kept = if self.keep_all || layer.retained() {
            let parent = self.stack.iter().rev().find_map(|o| o.kept);
            self.kept.push(Span {
                layer,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            Some(self.kept.len() - 1)
        } else {
            None
        };
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// [`Recorder::close`] with an explicit timestamp.
    pub fn close_at(&mut self, end_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.kept[i].end_ns = end_ns;
        }
        let op = self.op as usize;
        if self.tallies.len() <= op {
            self.tallies.resize(op + 1, [Tally::default(); LAYERS]);
        }
        self.tallies[op][open.layer as usize].add(dur, open.child_ns);
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    /// The totals recorded so far.
    pub fn tallies(&self) -> Tallies {
        let mut out = Tallies::new();
        for (op, row) in self.tallies.iter().enumerate() {
            for (i, t) in row.iter().enumerate() {
                if t.calls > 0 {
                    out.insert((op as u32, Layer::ALL[i]), *t);
                }
            }
        }
        out
    }

    /// The retained spans (every span for [`Recorder::keeping_all`]).
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// Writes the retained spans, one JSON object per line, to `path`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.layer.name(),
                s.op,
                s.start_ns,
                s.end_ns,
                parent
            )?;
        }
        w.flush()
    }
}

/// Samples that must lie strictly beyond a reported percentile: a p99 of
/// 200 samples rests on two values, which is not a tail estimate.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    /// simulate [0,100) > backfill [10,40) > fits [15,20), fits [25,35);
    /// simulate > head [50,60); simulate > admit [70,75).
    fn tree() -> Vec<Span> {
        vec![
            span(Layer::Simulate, 0, 100, None),
            span(Layer::PolicyBackfill, 10, 40, Some(0)),
            span(Layer::Fits, 15, 20, Some(1)),
            span(Layer::Fits, 25, 35, Some(1)),
            span(Layer::PolicyHead, 50, 60, Some(0)),
            span(Layer::HookAdmit, 70, 75, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = aggregate(&tree());
        // 100 - (30 backfill + 10 head + 5 admit); the fits spans are
        // grandchildren and already inside the backfill span.
        assert_eq!(t[&(0, Layer::Simulate)].self_ns, 55);
        assert_eq!(t[&(0, Layer::Simulate)].total_ns, 100);
        assert_eq!(t[&(0, Layer::PolicyBackfill)].self_ns, 15);
        assert_eq!(t[&(0, Layer::Fits)].self_ns, 15);
        assert_eq!(t[&(0, Layer::Fits)].calls, 2);
        assert_eq!(t[&(0, Layer::PolicyHead)].self_ns, 10);
        assert_eq!(t[&(0, Layer::HookAdmit)].self_ns, 5);
    }

    #[test]
    fn self_times_partition_the_root() {
        let t = aggregate(&tree());
        let total_self: u64 = t.values().map(|v| v.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn ops_are_kept_apart() {
        let mut spans = tree();
        spans.push(Span {
            op: 1,
            ..span(Layer::Simulate, 200, 260, None)
        });
        let t = aggregate(&spans);
        assert_eq!(t[&(1, Layer::Simulate)].self_ns, 60);
        assert_eq!(t[&(0, Layer::Simulate)].self_ns, 55);
        let both = sum_layer(&t, Layer::Simulate, |_| true);
        assert_eq!((both.calls, both.self_ns), (2, 115));
    }

    #[test]
    fn recorder_matches_aggregate_of_its_own_spans() {
        // The tree above, replayed as open/close events in time order.
        let mut r = Recorder::keeping_all();
        r.open_at(Layer::Simulate, 0);
        r.open_at(Layer::PolicyBackfill, 10);
        r.open_at(Layer::Fits, 15);
        r.close_at(20);
        r.open_at(Layer::Fits, 25);
        r.close_at(35);
        r.close_at(40);
        r.open_at(Layer::PolicyHead, 50);
        r.close_at(60);
        r.open_at(Layer::HookAdmit, 70);
        r.close_at(75);
        r.close_at(100);
        assert_eq!(r.spans(), tree().as_slice());
        assert_eq!(r.tallies(), aggregate(&tree()));
    }

    #[test]
    fn hot_layers_are_tallied_but_not_kept() {
        let mut r = Recorder::new();
        r.open_at(Layer::Simulate, 0);
        r.open_at(Layer::PolicyBackfill, 10);
        r.open_at(Layer::Fits, 15);
        r.close_at(20);
        r.close_at(40);
        r.close_at(100);
        assert_eq!(r.spans().len(), 1, "only the simulate span is kept");
        let t = r.tallies();
        assert_eq!(t[&(0, Layer::Simulate)].self_ns, 70);
        assert_eq!(t[&(0, Layer::PolicyBackfill)].self_ns, 25);
        assert_eq!(t[&(0, Layer::Fits)].self_ns, 5);
    }

    #[test]
    fn kept_spans_link_to_the_nearest_kept_ancestor() {
        let mut r = Recorder::new();
        r.open_at(Layer::Simulate, 0);
        r.open_at(Layer::PolicyBackfill, 1);
        r.close_at(2);
        r.close_at(3);
        r.open_at(Layer::MetricsCompute, 4);
        r.close_at(5);
        assert_eq!(r.spans()[0].parent, None);
        assert_eq!(r.spans()[1].parent, None);
        assert_eq!(r.spans()[1].layer, Layer::MetricsCompute);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // Rank 990 leaves exactly 10 samples beyond.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), Some(10.0));
        assert_eq!(percentile(&small, 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
