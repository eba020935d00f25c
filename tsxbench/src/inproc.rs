//! The in-process workloads: `liquor-cold` and `warm-sweep`.
//!
//! One caller drives `ExplainSession`s directly in a closed loop at one
//! thread: windows of explains with strategy fan-outs (the in-process
//! `/compare`: one `prepare`, then the four strategies through
//! `PreparedCube::explain`) and tail appends (`append_rows`) spread evenly
//! among them. Appends go to a copy of their target dataset, so they never
//! change what the explains read.

use std::time::Instant;

use tsexplain::{
    default_window_for, AggQuery, Datum, ExplainRequest, ExplainResult, ExplainSession,
    ParallelCtx, Relation, Schema, SegmenterSpec, TsExplainError,
};

use crate::check::{canonical_result, canonical_results, Tally};
use crate::inputs::{self, Dataset};
use crate::layers::{self, ShadowCube};
use crate::report::{ms, peak_rss_mib, Measured};
use crate::trace::Tracer;
use crate::Sizing;

/// Set-up repetitions per run; the median is reported. A set-up costs
/// 0.15–0.45 s here, so eleven fit easily and outvote a burst.
const SETUP_REPS: usize = 11;

/// Threads of every in-process request, set-up's cube-warming explains
/// included. On a 2-core host a 2-thread request waits for the slower of
/// the two cores, so its latency follows whichever core the host lends
/// elsewhere: over five seeds warm-sweep's explain p50 spread 0.32 of its
/// median at 2 threads and 0.10 at one.
const THREADS: usize = 1;

/// Builds a relation from raw rows (program work on the set-up clock).
pub fn build_relation(schema: &Schema, rows: Vec<Vec<Datum>>) -> Relation {
    let mut builder = Relation::builder(schema.clone());
    for row in rows {
        builder
            .push_row(row)
            .expect("generated rows fit the schema");
    }
    builder.finish()
}

/// The in-process `/compare`: one `prepare`, then the four strategies over
/// the shared cube (see [`strategies`]). Traced, the prepare and the
/// strategies each run inside a `core` span.
pub fn fan_out(
    session: &mut ExplainSession,
    base: &ExplainRequest,
    mut tr: Option<&mut Tracer>,
) -> Result<Vec<ExplainResult>, TsExplainError> {
    let prepared = timed(&mut tr, "core.prepare", || {
        session.prepare(&base.clone().with_segmenter(SegmenterSpec::Dp))
    })?;
    let (outer, requests) = strategies(base, prepared.n_points());
    timed(&mut tr, "core.pipeline", || {
        ParallelCtx::new(outer)
            .map(requests.len(), |i| prepared.explain(&requests[i]))
            .into_iter()
            .collect()
    })
}

/// A fan-out's four strategy requests over `n_points`, and how many run at
/// once: the request's threads are split between the strategies the way
/// the server splits them, not multiplied.
pub fn strategies(base: &ExplainRequest, n_points: usize) -> (usize, Vec<ExplainRequest>) {
    let specs = SegmenterSpec::all_with_window(default_window_for(n_points));
    let total = base.parallel_ctx().threads();
    let outer = total.min(specs.len()).max(1);
    let inner = base.clone().with_threads((total / outer).max(1));
    let requests = specs
        .iter()
        .map(|s| inner.clone().with_segmenter(*s))
        .collect();
    (outer, requests)
}

/// Append batches: `rows` cut into consecutive batches of `batch` rows.
fn batches(rows: Vec<Vec<Datum>>, batch: usize) -> Vec<Vec<Vec<Datum>>> {
    rows.chunks(batch).map(<[_]>::to_vec).collect()
}

/// One explained dataset: its inputs and the requests asked of it.
struct Target {
    data: Dataset,
    smoothing: usize,
}

impl Target {
    /// The default request, as set-up's cube-warming explain asks it.
    fn warm_request(&self) -> ExplainRequest {
        self.data
            .request()
            .with_smoothing(self.smoothing)
            .with_threads(THREADS)
    }
}

/// A workload's plan: which datasets, which requests in which order.
struct Plan {
    targets: Vec<Target>,
    /// `(target, request)` in the order each window cycles them.
    requests: Vec<(usize, ExplainRequest)>,
    /// Warm the cubes during set-up (warm-sweep) or not (liquor-cold).
    warm: bool,
    /// Empty the cache before each explain and fan-out (liquor-cold).
    cold: bool,
    /// `(target, base request)` of the fan-outs, in the order each window
    /// cycles them.
    compares: Vec<(usize, ExplainRequest)>,
    /// The append target and its batches.
    append: (usize, Vec<Vec<Vec<Datum>>>),
    setup_contents: String,
}

fn liquor_plan(seed: u64, sizing: &Sizing) -> Plan {
    let data = inputs::liquor(seed);
    let request = data.request().with_threads(THREADS);
    let per_day = data.synthesized_days(1).len();
    let appended = data.synthesized_days((sizing.windows * sizing.appends).div_ceil(4) + 1);
    Plan {
        requests: vec![(0, request.clone())],
        compares: vec![(0, request)],
        append: (0, batches(appended, per_day.div_ceil(4))),
        targets: vec![Target { data, smoothing: 1 }],
        warm: false,
        cold: true,
        setup_contents: "relation build (Relation::builder → push_row → finish) of the \
                         generated Liquor rows + ExplainSession::new"
            .to_string(),
    }
}

fn warm_plan(seed: u64, sizing: &Sizing) -> Plan {
    let (total, daily) = inputs::covid(seed);
    let sp500 = inputs::sp500(seed);
    let targets = vec![
        Target {
            data: total,
            smoothing: 1,
        },
        Target {
            data: daily,
            smoothing: 7,
        },
        Target {
            data: sp500,
            smoothing: 1,
        },
    ];
    let lists: Vec<Vec<ExplainRequest>> = targets
        .iter()
        .map(|t| {
            inputs::follow_ups(&t.data, t.smoothing)
                .into_iter()
                .map(|r| r.with_threads(THREADS))
                .collect()
        })
        .collect();
    // Round-robin over the datasets, then over the follow-up questions.
    let requests = (0..lists[0].len())
        .flat_map(|q| (0..targets.len()).map(move |t| (t, q)))
        .map(|(t, q)| (t, lists[t][q].clone()))
        .collect();
    // A week of covid-daily rows per append.
    let week = 7 * targets[1].data.synthesized_days(1).len();
    let appended = targets[1]
        .data
        .synthesized_days(7 * sizing.windows * sizing.appends);
    Plan {
        requests,
        // One fan-out per dataset in turn: a median over a single request
        // read one of the host's two speed levels or the other (ten runs
        // of covid-total fan-outs spread 0.27 of their median), a median
        // over several requests moves between them gradually.
        compares: (0..targets.len())
            .map(|t| (t, targets[t].warm_request()))
            .collect(),
        append: (1, batches(appended, week)),
        targets,
        warm: true,
        cold: false,
        setup_contents: "relation builds of covid (twice: total and daily) and S&P 500 + \
                         ExplainSession::new ×3 + one cube-warming explain per session \
                         (cube build, snapshot, DP)"
            .to_string(),
    }
}

/// The sessions a plan's set-up produced.
struct Setup {
    sessions: Vec<ExplainSession>,
}

/// One set-up repetition: relation builds, session registration and, for
/// warm workloads, one cube-warming explain per session. Inputs are cloned
/// before the clock starts.
fn set_up(plan: &Plan, mut tr: Option<&mut Tracer>) -> (Setup, f64) {
    let rows: Vec<Vec<Vec<Datum>>> = plan.targets.iter().map(|t| t.data.rows.clone()).collect();
    let start = Instant::now();
    let mut sessions = Vec::with_capacity(plan.targets.len());
    for (target, rows) in plan.targets.iter().zip(rows) {
        let relation = timed(&mut tr, "relation.build", || {
            build_relation(&target.data.schema, rows)
        });
        let mut session = timed(&mut tr, "core.register", || {
            ExplainSession::new(relation, target.data.query.clone()).expect("valid query")
        });
        if plan.warm {
            let warm = target.warm_request();
            timed(&mut tr, "core.warm", || session.explain(&warm)).expect("warming explain");
        }
        sessions.push(session);
    }
    (Setup { sessions }, start.elapsed().as_secs_f64())
}

fn timed<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Reference answers, computed untimed after set-up at another thread
/// count (answers are byte-identical at any thread count).
struct References {
    explains: Vec<String>,
    compares: Vec<String>,
}

fn references(plan: &Plan, setup: &mut Setup) -> References {
    let other_threads = |r: &ExplainRequest| match r.threads() {
        Some(1) => r.clone().with_default_threads(),
        _ => r.clone().with_threads(1),
    };
    let mut explains = Vec::new();
    for (t, request) in &plan.requests {
        let session = &mut setup.sessions[*t];
        let answer = session
            .explain(&other_threads(request))
            .expect("reference explain");
        explains.push(canonical_result(&answer));
        if plan.cold {
            session.invalidate();
        }
    }
    let mut compares = Vec::new();
    for (t, base) in &plan.compares {
        let session = &mut setup.sessions[*t];
        let answers = fan_out(session, &other_threads(base), None).expect("reference fan-out");
        compares.push(canonical_results(&answers));
        if plan.cold {
            session.invalidate();
        }
    }
    References { explains, compares }
}

fn plan_for(workload: &str, seed: u64, sizing: &Sizing) -> Plan {
    match workload {
        "liquor-cold" => liquor_plan(seed, sizing),
        _ => warm_plan(seed, sizing),
    }
}

/// One measured in-process operation.
#[derive(Clone, Copy)]
enum Op {
    /// An explain of `Plan::requests[k]`.
    Explain(usize),
    /// A strategy fan-out of `Plan::compares[k]`.
    Compare(usize),
    /// The next batch of `Plan::append`, to the append session.
    Append,
}

/// The operations of one window: the explains cycle the request list and
/// the fan-outs and appends are spread evenly among them, so a burst of
/// host interference falls on every kind alike.
fn window_ops(plan: &Plan, sizing: &Sizing) -> Vec<Op> {
    assert_eq!(
        sizing.explains % plan.requests.len(),
        0,
        "a window is a whole number of passes over the request list"
    );
    let mut ops = Vec::with_capacity(sizing.explains + sizing.compares + sizing.appends);
    let (mut compares, mut appends) = (0, 0);
    for i in 0..sizing.explains {
        ops.push(Op::Explain(i % plan.requests.len()));
        let due = |per_window: usize| (i + 1) * per_window / sizing.explains;
        while compares < due(sizing.compares) {
            ops.push(Op::Compare(compares % plan.compares.len()));
            compares += 1;
        }
        while appends < due(sizing.appends) {
            ops.push(Op::Append);
            appends += 1;
        }
    }
    ops
}

/// The session appends go to: a copy of the append target with its cube
/// cached, so each batch also extends a cached cube at its tail. Built
/// untimed, like the references.
fn append_session(plan: &Plan) -> ExplainSession {
    let t = plan.append.0;
    let data = &plan.targets[t].data;
    let relation = build_relation(&data.schema, data.rows.clone());
    let mut session = ExplainSession::new(relation, data.query.clone()).expect("valid query");
    let (_, request) = plan
        .requests
        .iter()
        .find(|(target, _)| *target == t)
        .expect("the append target is explained");
    session.explain(request).expect("cube-warming explain");
    session
}

/// Appends `batch` and checks the acknowledged row count.
fn append(session: &mut ExplainSession, batch: &[Vec<Datum>]) -> (f64, Option<String>) {
    let expected = session.total_rows() + batch.len();
    let rows = batch.to_vec();
    let start = Instant::now();
    let result = session.append_rows(rows);
    let latency = ms(start.elapsed());
    let error = match result {
        Err(e) => Some(e.to_string()),
        Ok(()) if session.total_rows() != expected => Some(format!(
            "append acknowledged {} rows, expected {expected}",
            session.total_rows()
        )),
        Ok(()) => None,
    };
    (latency, error)
}

/// Untimed passes before the measured phase at the workload's own thread
/// count, so the first measured operations do not pay for warming the
/// allocator and the thread paths.
fn warm_up(plan: &Plan, setup: &mut Setup) {
    for (t, request) in &plan.requests {
        let session = &mut setup.sessions[*t];
        if plan.cold {
            session.invalidate();
        }
        session.explain(request).expect("warm-up explain");
    }
    for (t, base) in &plan.compares {
        fan_out(&mut setup.sessions[*t], base, None).expect("warm-up fan-out");
    }
}

/// The untraced run.
pub fn run(workload: &str, seed: u64, sizing: &Sizing) -> Measured {
    let plan = plan_for(workload, seed, sizing);
    let mut m = Measured {
        setup_contents: plan.setup_contents.clone(),
        ..Measured::default()
    };
    let (mut setup, secs) = set_up(&plan, None);
    m.setup_s.push(secs);
    let refs = references(&plan, &mut setup);
    warm_up(&plan, &mut setup);
    let mut appender = append_session(&plan);
    let mut batches = plan.append.1.iter();
    note_plan(&plan, sizing, &mut m);

    // Windows of explains, fan-outs and appends; answers are checked after
    // the phase. Throughput counts the explains' own time only: the
    // fan-outs and appends beside them feed their own metrics.
    let ops = window_ops(&plan, sizing);
    let mut explains = Vec::with_capacity(sizing.windows * sizing.explains);
    let mut compares = Vec::with_capacity(sizing.windows * sizing.compares);
    let phase = Instant::now();
    for _ in 0..sizing.windows {
        for op in &ops {
            match *op {
                Op::Explain(k) => {
                    let (t, request) = &plan.requests[k];
                    let session = &mut setup.sessions[*t];
                    if plan.cold {
                        session.invalidate();
                    }
                    let start = Instant::now();
                    let answer = session.explain(request);
                    m.explain_ms.push(ms(start.elapsed()));
                    explains.push((k, answer));
                }
                Op::Compare(k) => {
                    let (t, base) = &plan.compares[k];
                    let session = &mut setup.sessions[*t];
                    if plan.cold {
                        session.invalidate();
                    }
                    let start = Instant::now();
                    let answer = fan_out(session, base, None);
                    m.compare_ms.push(ms(start.elapsed()));
                    compares.push((k, answer));
                }
                Op::Append => {
                    let batch = batches.next().expect("a batch per append");
                    let (latency, error) = append(&mut appender, batch);
                    m.append_ms.push(latency);
                    m.tally.record("append", error);
                }
            }
        }
    }
    m.phase_s = phase.elapsed().as_secs_f64();
    m.rps_seconds = m.explain_ms.iter().sum::<f64>() / 1e3;
    m.rps_basis = "the explains' own time";
    m.peak_rss_mib = peak_rss_mib();

    for (k, answer) in explains {
        match answer {
            Ok(a) => m
                .tally
                .answer("explain", &canonical_result(&a), &refs.explains[k]),
            Err(e) => m.tally.record("explain", Some(e.to_string())),
        }
    }
    for (k, answer) in compares {
        match answer {
            Ok(a) => m
                .tally
                .answer("compare", &canonical_results(&a), &refs.compares[k]),
            Err(e) => m.tally.record("compare", Some(e.to_string())),
        }
    }

    // The remaining set-ups, after the measured state is gone. Tried
    // between the windows instead, set-up's own spread grew (0.19–0.34 of
    // the median over ten warm-sweep runs, against 0.14–0.16) and the
    // appends beside them spread 0.30 (against 0.07–0.15).
    drop((setup, appender));
    for _ in 1..SETUP_REPS {
        let (again, secs) = set_up(&plan, None);
        m.setup_s.push(secs);
        drop(again);
    }
    m
}

fn note_plan(plan: &Plan, sizing: &Sizing, m: &mut Measured) {
    for t in &plan.targets {
        m.notes.push(format!(
            "dataset {}: {} rows, {} points",
            t.data.name,
            t.data.rows.len(),
            t.data.timestamps().len()
        ));
    }
    let list: Vec<String> = plan
        .requests
        .iter()
        .map(|(t, r)| format!("{}:{}", plan.targets[*t].data.name, inputs::describe(r)))
        .collect();
    m.notes.push(format!("explain cycle: {}", list.join(" | ")));
    let fan_outs: Vec<&str> = plan
        .compares
        .iter()
        .map(|(t, _)| plan.targets[*t].data.name)
        .collect();
    m.notes.push(format!(
        "measured: {} windows of {} explains, {} fan-outs cycling {} and {} appends of {} rows to a copy of {}",
        sizing.windows,
        sizing.explains,
        sizing.compares,
        fan_outs.join(", "),
        sizing.appends,
        plan.append.1.first().map_or(0, Vec::len),
        plan.targets[plan.append.0].data.name,
    ));
}

/// What the traced replay adds to an untraced run's figures.
pub struct Traced {
    pub tally: Tally,
    /// Facade latency of each explain (prepare + pipeline), ms.
    pub untraced_explain_ms: Vec<f64>,
    /// Decomposed latency of each explain, ms.
    pub traced_explain_ms: Vec<f64>,
    pub notes: Vec<String>,
}

/// The traced run: the same inputs and operation sequence, each operation
/// answered once through the facade and once through the layers' public
/// calls, the two answers checked against each other.
pub fn run_traced(workload: &str, seed: u64, sizing: &Sizing, tr: &mut Tracer) -> Traced {
    let plan = plan_for(workload, seed, sizing);
    let mut out = Traced {
        tally: Tally::default(),
        untraced_explain_ms: Vec::new(),
        traced_explain_ms: Vec::new(),
        notes: Vec::new(),
    };
    // The decomposed path needs its own copy of each relation and query.
    let shadows: Vec<(Relation, AggQuery)> = plan
        .targets
        .iter()
        .map(|t| {
            (
                build_relation(&t.data.schema, t.data.rows.clone()),
                t.data.query.clone(),
            )
        })
        .collect();
    tr.begin_request();
    let root = tr.open("bench.setup");
    let (mut setup, _) = set_up(&plan, Some(&mut *tr));
    tr.set(
        "relation.rows",
        plan.targets
            .iter()
            .map(|t| t.data.rows.len())
            .sum::<usize>() as f64,
    );

    // Warm workloads keep one shadow cube per dataset, built like the
    // session's during set-up.
    let mut cached: Vec<Option<ShadowCube>> = Vec::new();
    for (i, (relation, query)) in shadows.iter().enumerate() {
        let cube = plan
            .warm
            .then(|| ShadowCube::build(tr, relation, query, &plan.targets[i].warm_request()));
        cached.push(cube);
    }
    // Appends: the facade appends to the append session; the decomposed
    // path extends a shadow cube of its own, as the session extends its
    // cached cube. Nothing is logged or parsed: these workloads have no
    // write-ahead log and no wire.
    let (t_append, batches) = &plan.append;
    let data = &plan.targets[*t_append].data;
    let (relation, query) = &shadows[*t_append];
    let mut appender = append_session(&plan);
    let mut shadow = ShadowCube::build(tr, relation, query, &data.request().with_threads(THREADS));
    tr.close(root);
    let explain_by = data.request().explain_by().to_vec();
    let mut batches = batches.iter();

    tr.set("parallel.threads", THREADS as f64);

    // The untraced run's operations in its order: windows of explains
    // with the fan-outs and appends spread among them.
    let ops = window_ops(&plan, sizing);
    for op in (0..sizing.windows).flat_map(|_| ops.iter().copied()) {
        tr.begin_request();
        match op {
            Op::Explain(k) => {
                let (t, request) = &plan.requests[k];
                let session = &mut setup.sessions[*t];
                if plan.cold {
                    session.invalidate();
                }
                let (facade, facade_ms) = facade_explain(tr, session, request);
                let root = tr.open("bench.explain");
                let fresh;
                let cube = match &cached[*t] {
                    Some(c) => c,
                    None => {
                        let (relation, query) = &shadows[*t];
                        fresh = ShadowCube::build(tr, relation, query, request);
                        &fresh
                    }
                };
                let sliced = layers::slice(tr, &cube.snapshot, request);
                let answer = layers::explain(
                    tr,
                    sliced.as_ref().unwrap_or(&cube.snapshot),
                    request,
                    !plan.cold,
                );
                let traced_ns = tr.close(root);
                out.untraced_explain_ms.push(facade_ms);
                out.traced_explain_ms.push(traced_ns as f64 / 1e6);
                out.tally.answer(
                    "explain",
                    &canonical_result(&answer),
                    &canonical_result(&facade),
                );
            }
            Op::Compare(k) => {
                let (t, base) = &plan.compares[k];
                let session = &mut setup.sessions[*t];
                if plan.cold {
                    session.invalidate();
                }
                let facade = fan_out(session, base, Some(&mut *tr)).expect("fan-out answers");
                let root = tr.open("bench.compare");
                let fresh;
                let cube = match &cached[*t] {
                    Some(c) => c,
                    None => {
                        let (relation, query) = &shadows[*t];
                        fresh = ShadowCube::build(tr, relation, query, base);
                        &fresh
                    }
                };
                let (_, requests) = strategies(base, cube.snapshot.n_points());
                let answers: Vec<ExplainResult> = requests
                    .iter()
                    .map(|request| layers::explain(tr, &cube.snapshot, request, !plan.cold))
                    .collect();
                tr.close(root);
                out.tally.answer(
                    "compare",
                    &canonical_results(&answers),
                    &canonical_results(&facade),
                );
            }
            Op::Append => {
                let batch = batches.next().expect("a batch per append");
                let seq = appender.total_rows();
                let rows = batch.clone();
                let open = tr.open("core.append");
                let result = appender.append_rows(rows);
                tr.close(open);
                let root = tr.open("bench.append");
                let encoded = layers::encode_rows(&data.schema, query, &explain_by, batch);
                shadow.append(tr, &encoded);
                tr.close(root);
                let error = match result {
                    Err(e) => Some(e.to_string()),
                    Ok(()) if appender.total_rows() != seq + batch.len() => {
                        Some(format!("{} rows after the append", appender.total_rows()))
                    }
                    Ok(()) => None,
                };
                out.tally.record("append", error);
            }
        }
    }

    // costs speed-up on the first request, fresh contexts, median of 3:
    // one thread against the count a request without `threads` gets.
    {
        let (t, request) = &plan.requests[0];
        let (relation, query) = &shadows[*t];
        let mut scratch = Tracer::new();
        let cube = match &cached[*t] {
            Some(c) => c.snapshot.clone(),
            None => ShadowCube::build(&mut scratch, relation, query, request).snapshot,
        };
        let default = request.clone().with_default_threads();
        let note = layers::costs_speedup(tr, &cube, request, default.parallel_ctx().threads());
        out.notes.push(note);
    }

    let stats =
        setup
            .sessions
            .iter()
            .chain([&appender])
            .fold((0u64, 0u64, 0u64, 0u64), |acc, s| {
                let st = s.stats();
                (
                    acc.0 + st.cube_cache_hits,
                    acc.1 + st.cubes_built,
                    acc.2 + st.cube_refreshes,
                    acc.3 + st.cube_evictions,
                )
            });
    cache_counts(tr, stats, &mut out.notes);
    out
}

/// The facade's explain with the `core` spans; returns the answer and the
/// facade's own latency (ms).
fn facade_explain(
    tr: &mut Tracer,
    session: &mut ExplainSession,
    request: &ExplainRequest,
) -> (ExplainResult, f64) {
    let open = tr.open("core.prepare");
    let prepared = session.prepare(request);
    let prepare_ns = tr.close(open);
    let prepared = prepared.expect("the request prepares");
    let open = tr.open("core.pipeline");
    let answer = prepared.explain(request);
    let pipeline_ns = tr.close(open);
    (
        answer.expect("the request answers"),
        (prepare_ns + pipeline_ns) as f64 / 1e6,
    )
}

/// Cube-cache counters of the sessions: `(hits, built, refreshes, evictions)`.
pub fn cache_counts(tr: &mut Tracer, stats: (u64, u64, u64, u64), notes: &mut Vec<String>) {
    let (hits, built, refreshes, evictions) = stats;
    let lookups = hits + built + refreshes;
    tr.set("core.cube_hit_ratio", hits as f64 / lookups.max(1) as f64);
    tr.set("core.cubes_built", built as f64);
    tr.set("core.cube_refreshes", refreshes as f64);
    tr.set("core.cube_evictions", evictions as f64);
    notes.push(format!(
        "core.cube_hit_ratio = {hits} hits / {lookups} cube lookups ({built} built, {refreshes} refreshed)"
    ));
}
