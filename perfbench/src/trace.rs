//! The traced pass: forwarding wrappers around the engine's public trait
//! objects plus a hand-driven dispatch loop, which together time each
//! layer from outside the program.
//!
//! * The loop replaces `Sim::run_until` with the same two calls it makes,
//!   `World::q.pop_run_at_most` then `World::dispatch_run`, and on one run
//!   in [`SAMPLE_EVERY`] stamps the clock around each: the FEL layer is the
//!   pop, the dispatch layer is `dispatch_run` minus the operator, source
//!   and mechanism spans inside it and minus the wrappers' own cost. The
//!   bookkeeping between the two calls (event-kind counts, pending depth)
//!   is timed on the same runs and charged to the harness, so it never
//!   inflates a layer. The loop's wall time is measured on its own, so the
//!   layer estimates plus the harness can be checked against it.
//! * [`TracedPlugin`], [`TracedLogic`] and [`TracedGen`] forward every
//!   trait method, the defaulted ones included, to the wrapped object, so a
//!   traced run dispatches exactly the events an untraced run does.
//!
//! # Cost control
//!
//! Per-record spans (operator `on_record`, source `next`, the mechanism's
//! `admit`/`selects`/`select`/`after_record`/`on_orphan_record`) are
//! *counted* on every call but *timed* on one call in [`SAMPLE_EVERY`] on
//! average (the gaps come from a fixed-seed generator, see [`Gaps`], so the
//! choice is deterministic yet cannot line up with a periodic pattern in
//! the calls); a layer's time is the mean sampled self time times the call
//! count. Rare spans (operator `on_watermark`, the mechanism's control
//! hooks) and any span nested inside a timed span are timed on every call.
//! Every timed span has the calibrated cost of one clock read subtracted
//! from it.
//!
//! `Instant::now()` orders its read after every earlier instruction. The
//! first read of an interval would therefore wait for work the caller
//! still has in flight, which the out-of-order core would otherwise
//! overlap with the call, and a sampled call scaled up to every call
//! would carry that wait many times over. Each timed interval is
//! therefore opened by a throw-away read ([`settled_now`]) that absorbs
//! the wait outside it.
//!
//! A wrapped call also costs something outside its own timed interval:
//! the extra `dyn` hop, the thread-local counter update and, on a timed
//! call, the second clock read and the accounting. That cost falls inside
//! the `dispatch_run` interval but outside every child span, so it would
//! read as dispatch time. [`calibrate_wrapper`] measures it per untimed
//! and per timed call; the loop moves calls × cost out of dispatch and
//! into the harness.
//!
//! Accumulators live in a thread-local: the wrapped traits require `Send`,
//! and the traced pass runs on one thread.

use std::cell::RefCell;
use std::time::Instant;

use simcore::time::SimTime;
use streamflow::events::Ev;
use streamflow::graph::LogicFactory;
use streamflow::ids::{ChannelId, InstId, Key, KeyGroup, SubscaleId};
use streamflow::instance::SourceGen;
use streamflow::operator::{OpCtx, OperatorLogic, WmCtx};
use streamflow::state::StateUnit;
use streamflow::{Record, ScalePlan, ScalePlugin, ScaleSignal, Selection, Sim, World};

/// One in this many top-level per-record calls is timed.
pub const SAMPLE_EVERY: u64 = 32;

/// Per simulated second: untimed wrapped calls, timed top-level calls,
/// and the ns of top-level exactly timed calls as their caller sees them.
type SecCounts = [u64; 3];

/// Gaps between timed calls, drawn uniformly from `[0, 2(every − 1)]` by a
/// fixed-seed xorshift generator: one call in `every` is timed on average.
#[derive(Clone, Copy)]
struct Gaps {
    every: u64,
    rng: u64,
}

impl Gaps {
    const fn new(every: u64) -> Self {
        Self {
            every,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        if self.every <= 1 {
            return 0;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % (2 * (self.every - 1) + 1)
    }
}

/// A traced call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `OperatorLogic::on_record`.
    OnRecord,
    /// `OperatorLogic::on_watermark`.
    OnWatermark,
    /// `SourceGen::next`.
    SourceNext,
    /// `ScalePlugin::admit`.
    Admit,
    /// `ScalePlugin::selects`.
    Selects,
    /// `ScalePlugin::select`.
    Select,
    /// `ScalePlugin::after_record` and `ScalePlugin::on_orphan_record`.
    RecordHook,
    /// Every other `ScalePlugin` hook (scale start, signals, chunks,
    /// re-routed records and confirms, fetches, plugin timers).
    Control,
}

const SPANS: [Span; 8] = [
    Span::OnRecord,
    Span::OnWatermark,
    Span::SourceNext,
    Span::Admit,
    Span::Selects,
    Span::Select,
    Span::RecordHook,
    Span::Control,
];

/// The layers a span's self time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `simcore::queue` / `calendar`: the future-event-list pop.
    Fel,
    /// `engine::world` dispatch, net of the child layers below.
    Dispatch,
    /// `engine::operator` / `state` / `window`: operator logic.
    Operator,
    /// `workloads` generators.
    Source,
    /// `drrs-core::plugin`: the scaling mechanism.
    Mechanism,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 5;

/// Layer names as written to the span file.
pub const LAYER_NAMES: [&str; LAYERS] = ["fel", "dispatch", "operator", "source", "mechanism"];

impl Span {
    fn idx(self) -> usize {
        self as usize
    }

    /// Per-record spans are sampled; rare ones are timed on every call.
    fn sampled(self) -> bool {
        !matches!(self, Span::OnWatermark | Span::Control)
    }

    fn layer(self) -> Layer {
        match self {
            Span::OnRecord | Span::OnWatermark => Layer::Operator,
            Span::SourceNext => Layer::Source,
            _ => Layer::Mechanism,
        }
    }
}

/// Accounting of one [`Span`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAcc {
    /// Every call.
    pub calls: u64,
    /// Calls timed individually (rare spans, or nested in a timed span).
    pub exact_calls: u64,
    /// Self nanoseconds of the individually timed calls.
    pub exact_ns: u64,
    /// Top-level calls of a sampled span.
    pub top_calls: u64,
    /// Top-level calls that were timed.
    pub sampled_calls: u64,
    /// Self nanoseconds of the timed top-level calls.
    pub sampled_ns: u64,
}

impl SpanAcc {
    /// Estimated total self seconds: exact part plus the sample mean
    /// scaled to every top-level call.
    pub fn self_s(&self) -> f64 {
        let est = if self.sampled_calls == 0 {
            0.0
        } else {
            self.sampled_ns as f64 * self.top_calls as f64 / self.sampled_calls as f64
        };
        (self.exact_ns as f64 + est) / 1e9
    }
}

struct Tracer {
    spans: [SpanAcc; SPANS.len()],
    /// Timed spans currently open.
    depth: u32,
    /// Nanoseconds of child spans inside the innermost open timed span.
    child_ns: u64,
    /// Calibrated cost of one `Instant::now()`.
    timer_ns: u64,
    /// Calibrated cost of a timed wrapped call outside its timed interval;
    /// a parent span counts it as child time.
    wrap_timed_ns: u64,
    /// One top-level call in this many of a sampled span is timed, on
    /// average.
    sample_every: u64,
    gaps: Gaps,
    /// Top-level calls of each span left to skip before the next timed one.
    skip: [u64; SPANS.len()],
    /// Timed calls that were not nested in another timed span.
    top_timed: u64,
    /// Nanoseconds of the top-level calls of rare spans, each with its
    /// wrapper cost: what those calls cost the code that made them.
    exact_top_ns: u64,
    /// Simulated second of the run being dispatched.
    sec: usize,
    /// Self nanoseconds per (simulated second, layer) of the child layers;
    /// the loop fills in FEL and dispatch.
    per_sec: Vec<[f64; LAYERS]>,
    /// Call counts per simulated second.
    per_sec_counts: Vec<SecCounts>,
    /// [`Tracer::counts`] when the current second began.
    sec_counts0: SecCounts,
}

impl Tracer {
    const fn new() -> Self {
        Self {
            spans: [SpanAcc {
                calls: 0,
                exact_calls: 0,
                exact_ns: 0,
                top_calls: 0,
                sampled_calls: 0,
                sampled_ns: 0,
            }; SPANS.len()],
            depth: 0,
            child_ns: 0,
            timer_ns: 0,
            wrap_timed_ns: 0,
            sample_every: SAMPLE_EVERY,
            gaps: Gaps::new(SAMPLE_EVERY),
            skip: [0; SPANS.len()],
            top_timed: 0,
            exact_top_ns: 0,
            sec: 0,
            per_sec: Vec::new(),
            per_sec_counts: Vec::new(),
            sec_counts0: [0; 3],
        }
    }

    /// Count the call; return whether it is timed and, if so, the outer
    /// span's child accumulator to restore on exit.
    fn enter(&mut self, s: Span) -> Option<(u64, bool)> {
        let acc = &mut self.spans[s.idx()];
        acc.calls += 1;
        let exact = self.depth > 0 || !s.sampled();
        if !exact {
            acc.top_calls += 1;
            let skip = &mut self.skip[s.idx()];
            if *skip > 0 {
                *skip -= 1;
                return None;
            }
            *skip = self.gaps.next();
        }
        self.depth += 1;
        Some((std::mem::replace(&mut self.child_ns, 0), exact))
    }

    fn exit(&mut self, s: Span, (outer_child, exact): (u64, bool), raw_ns: u64) {
        self.depth -= 1;
        let self_ns = raw_ns.saturating_sub(self.timer_ns + self.child_ns);
        // The outer span sees this span's time plus the wrapper cost
        // outside it.
        self.child_ns = outer_child + raw_ns + self.wrap_timed_ns;
        if self.depth == 0 {
            self.top_timed += 1;
            if exact {
                self.exact_top_ns += raw_ns + self.wrap_timed_ns;
            }
        }
        let acc = &mut self.spans[s.idx()];
        let charged = if exact {
            acc.exact_calls += 1;
            acc.exact_ns += self_ns;
            self_ns
        } else {
            acc.sampled_calls += 1;
            acc.sampled_ns += self_ns;
            self_ns * self.sample_every
        };
        let sec = self.sec;
        self.per_sec[sec][s.layer() as usize] += charged as f64;
    }

    /// Counts so far: untimed wrapped calls (all top level, since nested
    /// calls are always timed), timed top-level calls, and
    /// `exact_top_ns`.
    fn counts(&self) -> SecCounts {
        let (calls, timed) = self.spans.iter().fold((0, 0), |(c, t), a| {
            (c + a.calls, t + a.exact_calls + a.sampled_calls)
        });
        [calls - timed, self.top_timed, self.exact_top_ns]
    }

    /// Close the current second's counts and move on to `sec`.
    fn set_sec(&mut self, sec: usize) {
        let now = self.counts();
        if self.per_sec_counts.len() <= self.sec {
            self.per_sec_counts.resize(self.sec + 1, [0; 3]);
        }
        let row = &mut self.per_sec_counts[self.sec];
        for i in 0..3 {
            row[i] += now[i] - self.sec_counts0[i];
        }
        self.sec_counts0 = now;
        self.sec = sec;
        if self.per_sec.len() <= sec {
            self.per_sec.resize(sec + 1, [0.0; LAYERS]);
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
}

/// The time after a throw-away clock read has waited for the work in
/// flight.
#[inline]
fn settled_now() -> Instant {
    std::hint::black_box(Instant::now());
    Instant::now()
}

/// Run `f` as one call of span `s`.
#[inline]
fn span<R>(s: Span, f: impl FnOnce() -> R) -> R {
    match TRACER.with(|t| t.borrow_mut().enter(s)) {
        None => f(),
        Some(token) => {
            let t0 = settled_now();
            let r = f();
            let raw = t0.elapsed().as_nanos() as u64;
            TRACER.with(|t| t.borrow_mut().exit(s, token, raw));
            r
        }
    }
}

/// Median cost of one `Instant::now()` on this host, in nanoseconds.
pub fn calibrate_timer() -> u64 {
    let mut v: Vec<u64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// A minimal trait-object call, to time the wrappers against.
trait Probe {
    fn call(&mut self, x: u64) -> u64;
}

struct Leaf(u64);

impl Probe for Leaf {
    fn call(&mut self, x: u64) -> u64 {
        self.0 = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ x;
        self.0
    }
}

/// Wraps a probe exactly as the traced wrappers wrap the engine's objects.
struct Wrapped(Box<dyn Probe>);

impl Probe for Wrapped {
    fn call(&mut self, x: u64) -> u64 {
        span(Span::OnRecord, || self.0.call(x))
    }
}

/// Mean nanoseconds of one call through `p`, over `n` calls.
fn ns_per_call(p: &mut dyn Probe, n: u64) -> f64 {
    let p = std::hint::black_box(p);
    let start = Instant::now();
    let mut acc = 0;
    for i in 0..n {
        acc ^= p.call(std::hint::black_box(i));
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / n as f64
}

/// Cost of one wrapped call outside its own timed interval, in ns, as
/// `(untimed call, timed call)`: the median over alternating batches of
/// (wrapped − bare) call time, less, for a timed call, the self time the
/// span charges to its layer. Measured in a tight loop, so it is a lower
/// bound on the cost inside a real run. Leaves the thread's tracer reset.
pub fn calibrate_wrapper(timer_ns: u64) -> (u64, u64) {
    const BATCH: u64 = 20_000;
    let mut bare: Box<dyn Probe> = Box::new(Leaf(1));
    let mut wrapped: Box<dyn Probe> = Box::new(Wrapped(Box::new(Leaf(1))));
    let mut measure = |sample_every: u64| {
        let mut v: Vec<f64> = (0..15)
            .map(|_| {
                TRACER.with(|t| {
                    let mut t = t.borrow_mut();
                    *t = Tracer::new();
                    t.timer_ns = timer_ns;
                    t.sample_every = sample_every;
                    t.gaps = Gaps::new(sample_every);
                    t.set_sec(0);
                });
                let b = ns_per_call(&mut *bare, BATCH);
                let w = ns_per_call(&mut *wrapped, BATCH);
                let acc = TRACER.with(|t| t.borrow().spans[Span::OnRecord.idx()]);
                let charged = acc.sampled_ns as f64 / acc.sampled_calls.max(1) as f64;
                let timed_share = acc.sampled_calls as f64 / BATCH as f64;
                w - b - charged * timed_share
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2].max(0.0).round() as u64
    };
    // Every call but the first untimed, then every call timed.
    let untimed = measure(1 << 40);
    let timed = measure(1);
    TRACER.with(|t| *t.borrow_mut() = Tracer::new());
    (untimed, timed)
}

// ---------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------

/// Forwards every `ScalePlugin` method to the wrapped mechanism.
pub struct TracedPlugin(pub Box<dyn ScalePlugin>);

impl ScalePlugin for TracedPlugin {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_scale_start(&mut self, w: &mut World, plan: &ScalePlan) {
        span(Span::Control, || self.0.on_scale_start(w, plan))
    }
    fn on_signal(&mut self, w: &mut World, inst: InstId, ch: ChannelId, sig: ScaleSignal) {
        span(Span::Control, || self.0.on_signal(w, inst, ch, sig))
    }
    fn on_priority_signal(&mut self, w: &mut World, inst: InstId, sig: ScaleSignal) {
        span(Span::Control, || self.0.on_priority_signal(w, inst, sig))
    }
    fn on_chunk(
        &mut self,
        w: &mut World,
        inst: InstId,
        unit: StateUnit,
        subscale: SubscaleId,
        from: InstId,
    ) {
        span(Span::Control, || {
            self.0.on_chunk(w, inst, unit, subscale, from)
        })
    }
    fn on_rerouted_records(
        &mut self,
        w: &mut World,
        inst: InstId,
        from: InstId,
        records: Vec<Record>,
    ) {
        span(Span::Control, || {
            self.0.on_rerouted_records(w, inst, from, records)
        })
    }
    fn on_rerouted_confirm(&mut self, w: &mut World, inst: InstId, from: InstId, sig: ScaleSignal) {
        span(Span::Control, || {
            self.0.on_rerouted_confirm(w, inst, from, sig)
        })
    }
    fn on_fetch(&mut self, w: &mut World, inst: InstId, kg: KeyGroup, sub: u8, requester: InstId) {
        span(Span::Control, || {
            self.0.on_fetch(w, inst, kg, sub, requester)
        })
    }
    fn on_control(&mut self, w: &mut World, tag: u64) {
        span(Span::Control, || self.0.on_control(w, tag))
    }
    fn selects(&self, w: &World, inst: InstId) -> bool {
        span(Span::Selects, || self.0.selects(w, inst))
    }
    fn select(&mut self, w: &mut World, inst: InstId) -> Selection {
        span(Span::Select, || self.0.select(w, inst))
    }
    fn admit(&mut self, w: &mut World, inst: InstId, ch: ChannelId, rec: &Record) -> bool {
        span(Span::Admit, || self.0.admit(w, inst, ch, rec))
    }
    fn after_record(&mut self, w: &mut World, inst: InstId, rec: &Record) {
        span(Span::RecordHook, || self.0.after_record(w, inst, rec))
    }
    fn on_orphan_record(&mut self, w: &mut World, inst: InstId, rec: &Record) -> bool {
        span(Span::RecordHook, || self.0.on_orphan_record(w, inst, rec))
    }
    fn active(&self) -> bool {
        self.0.active()
    }
}

/// Forwards every `OperatorLogic` method to the wrapped operator.
pub struct TracedLogic(pub Box<dyn OperatorLogic>);

impl OperatorLogic for TracedLogic {
    fn on_record(&mut self, ctx: &mut OpCtx<'_>, rec: &Record) {
        span(Span::OnRecord, || self.0.on_record(ctx, rec))
    }
    fn on_watermark(&mut self, ctx: &mut WmCtx<'_>) {
        span(Span::OnWatermark, || self.0.on_watermark(ctx))
    }
    fn service_time(&self, rec: &Record) -> SimTime {
        self.0.service_time(rec)
    }
    fn watermark_cost(&self) -> SimTime {
        self.0.watermark_cost()
    }
}

/// Forwards every `SourceGen` method to the wrapped generator.
pub struct TracedGen(pub Box<dyn SourceGen>);

impl SourceGen for TracedGen {
    fn rate(&self, t: SimTime) -> f64 {
        self.0.rate(t)
    }
    fn next(&mut self, t: SimTime) -> (Key, i64) {
        span(Span::SourceNext, || self.0.next(t))
    }
    fn limit(&self) -> Option<u64> {
        self.0.limit()
    }
    fn batch(&self) -> u32 {
        self.0.batch()
    }
}

/// Wrap the mechanism, every live operator instance, every operator's
/// logic factory (so scale-out instances are traced too) and every
/// source generator.
pub fn instrument(sim: &mut Sim) {
    let plugin = std::mem::replace(&mut sim.plugin, Box::new(streamflow::NoScale));
    sim.plugin = Box::new(TracedPlugin(plugin));
    let w = &mut sim.world;
    for inst in &mut w.insts {
        if let Some(logic) = inst.logic.take() {
            inst.logic = Some(Box::new(TracedLogic(logic)));
        }
        if let Some(src) = inst.source.as_mut() {
            let gen = std::mem::replace(&mut src.gen, Box::new(Idle));
            src.gen = Box::new(TracedGen(gen));
        }
    }
    for op in &mut w.ops {
        if let Some(f) = op.logic_factory.take() {
            let traced: LogicFactory =
                Box::new(move || Box::new(TracedLogic(f())) as Box<dyn OperatorLogic>);
            op.logic_factory = Some(traced);
        }
    }
}

/// Placeholder generator that only lives for the duration of a swap.
struct Idle;

impl SourceGen for Idle {
    fn rate(&self, _t: SimTime) -> f64 {
        0.0
    }
    fn next(&mut self, _t: SimTime) -> (Key, i64) {
        unreachable!("placeholder generator is swapped out before the run")
    }
}

// ---------------------------------------------------------------------
// The hand-driven loop
// ---------------------------------------------------------------------

/// Per-`Ev`-kind metric names, in the order [`ev_kind`] indexes them.
pub const EV_METRICS: [&str; 9] = [
    "dispatch.ev.source_tick",
    "dispatch.ev.deliver",
    "dispatch.ev.priority",
    "dispatch.ev.proc_done",
    "dispatch.ev.link_send_done",
    "dispatch.ev.control",
    "dispatch.ev.cut_credit",
    "dispatch.ev.sample",
    "dispatch.ev.wake",
];

fn ev_kind(ev: &Ev) -> usize {
    match ev {
        Ev::SourceTick { .. } => 0,
        Ev::Deliver { .. } => 1,
        Ev::Priority { .. } => 2,
        Ev::ProcDone { .. } => 3,
        Ev::LinkSendDone { .. } => 4,
        Ev::Control { .. } => 5,
        Ev::CutCredit { .. } => 6,
        Ev::Sample => 7,
        Ev::Wake { .. } => 8,
    }
}

/// Everything the traced loop measured.
#[derive(Clone, Debug, Default)]
pub struct LoopTrace {
    /// Wall seconds of the whole loop (the traced `run_s`), measured.
    pub wall_s: f64,
    /// Seconds inside `pop_run_at_most`, estimated from the timed runs.
    pub fel_s: f64,
    /// Seconds inside `dispatch_run`, children and wrapper cost included:
    /// the timed runs' estimate plus the rare spans' exact time.
    pub dispatch_total_s: f64,
    /// Seconds the tracer itself cost inside the loop: the bookkeeping
    /// between the two calls plus [`LoopTrace::wrapper_s`].
    pub harness_s: f64,
    /// Estimated seconds of wrapper cost outside every timed span (calls ×
    /// calibrated cost), moved out of dispatch.
    pub wrapper_s: f64,
    /// Sum over simulated seconds of the time by which the child-span
    /// estimates plus wrapper cost exceed that second's measured
    /// `dispatch_run` time; 0 when the sampled estimates are consistent.
    pub overshoot_s: f64,
    /// Same-instant runs popped.
    pub runs: u64,
    /// Events popped.
    pub events: u64,
    /// Largest pending-event count seen after a pop.
    pub pending_max: u64,
    /// Events dispatched per `Ev` kind ([`EV_METRICS`] order).
    pub ev_kinds: [u64; 9],
    /// Per-span accounting, indexed by `Span`.
    pub spans: [SpanAcc; SPANS.len()],
    /// Nanoseconds per (simulated second, layer), dispatch netted.
    pub per_sec: Vec<[f64; LAYERS]>,
    /// Calibrated clock-read cost, ns.
    pub timer_ns: u64,
    /// Calibrated wrapper cost per untimed and per timed call, ns.
    pub wrap_ns: (u64, u64),
}

impl LoopTrace {
    /// Accounting of one span.
    pub fn span(&self, s: Span) -> SpanAcc {
        self.spans[s.idx()]
    }

    /// `dispatch_run` seconds net of child spans and wrapper cost; negative
    /// when the sampled child estimates overshoot.
    pub fn dispatch_residual_s(&self) -> f64 {
        let children: f64 = [Layer::Operator, Layer::Source, Layer::Mechanism]
            .iter()
            .map(|&c| self.layer_s(c))
            .sum();
        self.dispatch_total_s - children - self.wrapper_s
    }

    /// Self seconds of a layer.
    pub fn layer_s(&self, l: Layer) -> f64 {
        match l {
            Layer::Fel => self.fel_s,
            Layer::Dispatch => self.dispatch_residual_s().max(0.0),
            _ => SPANS
                .iter()
                .filter(|s| s.layer() == l)
                .map(|&s| self.span(s).self_s())
                .sum(),
        }
    }
}

/// Run an instrumented simulation to `horizon` with the hand-driven loop,
/// then advance the clock to the horizon exactly as `Sim::run_until` does.
pub fn drive(sim: &mut Sim, horizon: SimTime) -> LoopTrace {
    let timer_ns = calibrate_timer();
    let wrap_ns = calibrate_wrapper(timer_ns);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        *t = Tracer::new();
        t.timer_ns = timer_ns;
        t.wrap_timed_ns = wrap_ns.1;
        t.set_sec(0);
    });
    let mut out = LoopTrace {
        timer_ns,
        wrap_ns,
        ..Default::default()
    };
    // Per simulated second: sampled ns of the pop, the bookkeeping and
    // `dispatch_run` less its rare spans, then timed runs, then runs.
    let mut sec_acc: Vec<[f64; 5]> = vec![[0.0; 5]];
    let world = &mut sim.world;
    let plugin = &mut *sim.plugin;
    let mut buf: Vec<Ev> = Vec::new();
    // A timed run takes four clock reads (plus the throw-away one): before
    // the pop, after it, after the bookkeeping and after `dispatch_run`;
    // one read's cost is subtracted from each interval. Untimed runs read no clock, so the
    // layer estimates and the loop's wall time are measured independently.
    // Rare spans are timed on every call, so their time is taken out of
    // the sampled dispatch time and added back exactly: a heavy
    // `on_watermark` in an untimed run is not lost to sampling.
    let exact_top_ns = || TRACER.with(|t| t.borrow().exact_top_ns);
    let mut gaps = Gaps::new(SAMPLE_EVERY);
    let mut skip = 0u64;
    let mut timed_runs = 0u64;
    let start = Instant::now();
    loop {
        let t0 = (skip == 0).then(settled_now);
        if world.q.pop_run_at_most(horizon, &mut buf).is_none() {
            break;
        }
        skip = if skip == 0 { gaps.next() } else { skip - 1 };
        let t1 = t0.map(|_| Instant::now());
        out.runs += 1;
        out.events += buf.len() as u64;
        for ev in &buf {
            out.ev_kinds[ev_kind(ev)] += 1;
        }
        out.pending_max = out.pending_max.max(world.q.len() as u64);
        let sec = (world.q.now() / 1_000_000) as usize;
        if sec_acc.len() <= sec {
            sec_acc.resize(sec + 1, [0.0; 5]);
            TRACER.with(|t| t.borrow_mut().set_sec(sec));
        }
        let x2 = t0.map(|_| exact_top_ns());
        let t2 = t0.map(|_| Instant::now());
        world.dispatch_run(plugin, &mut buf);
        let row = &mut sec_acc[sec];
        row[4] += 1.0;
        if let (Some(t0), Some(t1), Some(t2), Some(x2)) = (t0, t1, t2, x2) {
            let t3 = Instant::now();
            let ns = |a: Instant, b: Instant| {
                ((b - a).as_nanos() as u64).saturating_sub(timer_ns) as f64
            };
            row[0] += ns(t0, t1);
            row[1] += ns(t1, t2);
            row[2] += ns(t2, t3) - (exact_top_ns() - x2) as f64;
            row[3] += 1.0;
            timed_runs += 1;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    world.q.advance_clock_to(horizon);

    // Scale each second's sampled times to all its runs; a second with no
    // timed run takes the whole pass's mean per run.
    let total: [f64; 4] = std::array::from_fn(|k| sec_acc.iter().map(|r| r[k]).sum());
    let est = |r: &[f64; 5], k: usize| {
        if r[3] > 0.0 {
            r[k] * r[4] / r[3]
        } else {
            total[k] * r[4] / total[3].max(1.0)
        }
    };
    let mut book_ns = 0.0;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let last = t.sec;
        t.set_sec(last);
        out.spans = t.spans;
        let wrapper_ns = |c: SecCounts| (c[0] * wrap_ns.0 + c[1] * wrap_ns.1) as f64;
        out.wrapper_s = wrapper_ns(t.counts()) / 1e9;
        let (mut fel_ns, mut disp_ns, mut overshoot_ns) = (0.0, 0.0, 0.0);
        out.per_sec = sec_acc
            .iter()
            .enumerate()
            .map(|(s, r)| {
                let counts = t.per_sec_counts.get(s).copied().unwrap_or_default();
                let (f, b) = (est(r, 0), est(r, 1));
                let d = est(r, 2) + counts[2] as f64;
                fel_ns += f;
                book_ns += b;
                disp_ns += d;
                let mut row = t.per_sec.get(s).copied().unwrap_or([0.0; LAYERS]);
                let children = row[Layer::Operator as usize]
                    + row[Layer::Source as usize]
                    + row[Layer::Mechanism as usize];
                let residual = d - children - wrapper_ns(counts);
                overshoot_ns += (-residual).max(0.0);
                row[Layer::Fel as usize] = f;
                row[Layer::Dispatch as usize] = residual.max(0.0);
                row
            })
            .collect();
        out.fel_s = fel_ns / 1e9;
        out.dispatch_total_s = disp_ns / 1e9;
        out.overshoot_s = overshoot_ns / 1e9;
    });
    out.harness_s = (book_ns + (5 * timed_runs * timer_ns) as f64) / 1e9 + out.wrapper_s;
    out
}
