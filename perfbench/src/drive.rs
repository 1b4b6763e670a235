//! Set-up and the load generator: one thread multiplexes every session
//! of a workload over `Session::submit`, in closed loops.

use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use explore_core::cache::{CachePolicy, CacheStats};
use explore_core::prefetch::{GridIndex, PanSession, PanStats};
use explore_core::shard::{ShardPolicy, ShardStats};
use explore_core::storage::gen::{sales_table, sky_table, SalesConfig};
use explore_core::storage::{Predicate, Result, StorageError, Table, Value};
use explore_core::ExploreDb;
use explore_serve::{ServeConfig, ServeEngine, Session, Ticket};
use explore_workload::GRID_CELLS;

use crate::check::{cells_digest, cube_digest, ids_digest, table_digest};
use crate::ops::{self, Class, Op, Stream, Workload, ROWS, WORKERS};

/// Time every run spends before its measured window, so that the first
/// requests of all sessions, first cube computations and first cracks do
/// not land in it.
pub const WARMUP: Duration = Duration::from_secs(3);
use crate::trace::Trace;

/// An engine ready to serve, plus what the checks need to replay on.
pub struct Setup {
    pub serve: ServeEngine,
    /// The `sales` table as registered, before any write.
    pub base: Arc<Table>,
    pub grid: Option<GridIndex>,
    pub seconds: f64,
}

/// Everything from the start of set-up to the point the first request
/// can be sent: table generation, `register`, the pan grid and the
/// serve workers.
pub fn setup(workload: Workload) -> Result<Setup> {
    let started = Instant::now();
    let base = Arc::new(sales_table(&SalesConfig {
        rows: ROWS,
        seed: ops::DATA_SEED,
        ..SalesConfig::default()
    }));
    let db = ExploreDb::new();
    db.register("sales", Arc::clone(&base));
    db.set_cache_policy(CachePolicy::on());
    if workload == Workload::WriteMix {
        db.set_shard_policy(ShardPolicy::on());
    }
    let grid = match workload {
        Workload::ExploreMix => {
            let sky = sky_table(ROWS / 2, 6, 100.0, ops::SKY_SEED);
            let cells = GRID_CELLS as usize;
            Some(GridIndex::build(&sky, "x", "y", "mag", cells, cells)?)
        }
        _ => None,
    };
    let serve = ServeEngine::with_config(db, ServeConfig::with_workers(WORKERS));
    Ok(Setup {
        serve,
        base,
        grid,
        seconds: started.elapsed().as_secs_f64(),
    })
}

/// What the engine call returned, reduced to a digest.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub digest: u64,
    /// Result rows, ids found, or rows written.
    pub count: u64,
}

/// One finished operation.
pub struct Done {
    pub session: usize,
    pub class: Class,
    pub op: Op,
    /// `Err` holds the error text (including admission refusals).
    pub answer: std::result::Result<Answer, String>,
    /// The answer broke an invariant checked while running.
    pub wrong: bool,
    /// Sent inside the measured window (after the warm-up).
    pub measured: bool,
    pub issued: Instant,
    pub answered: Instant,
    /// Time the engine call itself took on the worker (traced runs).
    pub body: Option<Duration>,
    /// Whether the engine's cache counted a miss while the op ran
    /// (traced runs).
    pub missed: bool,
}

/// The log of one run: the warm-up and the measured window.
pub struct RunLog {
    /// Every operation, warm-up included, in the order answered.
    pub done: Vec<Done>,
    /// Start of the measured window.
    pub start: Instant,
    /// Last answer to an operation sent inside the window.
    pub end: Instant,
    pub rejected: u64,
    pub writes_overlapped: u64,
    pub pan: PanStats,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    pub shards_before: Option<Vec<ShardStats>>,
    pub shards_after: Option<Vec<ShardStats>>,
    pub pieces_end: usize,
    pub rows_end: usize,
}

impl RunLog {
    pub fn elapsed_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Operations sent inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.measured)
    }

    pub fn completed(&self) -> usize {
        self.measured().filter(|d| d.answer.is_ok()).count()
    }

    /// Submit-to-answer latencies of one class in the window, in ns.
    pub fn latencies(&self, class: Class) -> Vec<u64> {
        self.measured()
            .filter(|d| d.class == class && d.answer.is_ok())
            .map(|d| d.answered.duration_since(d.issued).as_nanos() as u64)
            .collect()
    }
}

/// Sends the session number when dropped, so the generator wakes even if
/// the engine call panics.
struct Notify(Sender<usize>, usize);

impl Drop for Notify {
    fn drop(&mut self) {
        let _ = self.0.send(self.1);
    }
}

/// Body of an engine call as the worker ran it.
struct Served {
    answer: Answer,
    body: Option<(Instant, Instant)>,
    missed: bool,
}

struct InFlight {
    class: Class,
    op: Op,
    due: Instant,
    issued: Instant,
    ticket: Ticket<Served>,
}

struct SessionState<'g> {
    stream: Stream,
    serve: Session,
    pan: Option<PanSession<'g>>,
    view: explore_core::prefetch::Viewport,
    due: Instant,
    in_flight: Option<InFlight>,
    /// Largest `qty` match count each lookup value has returned.
    lookup_counts: HashMap<i64, u64>,
}

/// Call the `ExploreDb` entry point `op` names.
pub fn call(db: &ExploreDb, op: &Op) -> Result<Answer> {
    let answer = |digest: u64, count: usize| Answer {
        digest,
        count: count as u64,
    };
    match op {
        Op::Query(q) => db
            .query("sales", q)
            .map(|t| answer(table_digest(&t), t.num_rows())),
        Op::Lookup(qty) => db
            .cracked_range("sales", "qty", *qty, qty + 1)
            .map(|ids| answer(ids_digest(&ids), ids.len())),
        Op::Drill(a, b) => db
            .discover_cube("sales", a, b, "price")
            .map(|v| answer(cube_digest(&v), v.cells().len())),
        Op::PushRow(row) => db.push_row("sales", row.clone()).map(|()| answer(0, 1)),
        Op::AppendRows(rows) => db
            .append_rows("sales", rows)
            .map(|()| answer(0, rows.num_rows())),
        Op::UpdateWhere { lo, hi, discount } => db
            .update_where(
                "sales",
                &Predicate::range("price", *lo, *hi),
                "discount",
                Value::Float(*discount),
            )
            .map(|n| answer(n as u64, n)),
        Op::Pan { .. } => Err(StorageError::Internal(
            "pans are answered by the pan session, not the engine".to_owned(),
        )),
    }
}

/// Run `workload` for [`WARMUP`] and then `seconds`: every session sends
/// its next operation as soon as the previous one is answered, until the
/// window closes; operations in flight then finish.
/// Only operations sent inside the window are measured and traced.
pub fn run(
    setup: &Setup,
    workload: Workload,
    seed: u64,
    seconds: u64,
    mut trace: Option<&mut Trace>,
) -> RunLog {
    let traced = trace.is_some();
    let stats = || {
        setup
            .serve
            .with_engine(|db| (db.cache_stats(), db.shard_stats("sales")))
    };
    let (tx, rx) = mpsc::channel::<usize>();
    let start = Instant::now();
    let window = start + WARMUP;
    let deadline = window + Duration::from_secs(seconds);
    let mut sessions: Vec<SessionState> = (0..workload.sessions())
        .map(|s| {
            let pan = setup.grid.as_ref().map(|g| {
                PanSession::new(g, true)
                    .with_shared_cache(setup.serve.with_engine(|db| db.cache()), "sky")
            });
            SessionState {
                stream: Stream::new(workload, seed, s),
                serve: setup.serve.session(),
                pan,
                view: ops::START_VIEW,
                due: start,
                in_flight: None,
                lookup_counts: HashMap::new(),
            }
        })
        .collect();
    let mut before = None;
    let mut done: Vec<Done> = Vec::new();
    let mut rejected = 0u64;
    let mut writes_overlapped = 0u64;
    let mut reads_in_flight = 0usize;
    let mut request = 0u64;

    loop {
        let now = Instant::now();
        if before.is_none() && now >= window {
            before = Some(stats());
        }
        let measured = before.is_some();
        if now < deadline {
            for (s, st) in sessions.iter_mut().enumerate() {
                if st.in_flight.is_some() || st.due > now {
                    continue;
                }
                let (class, op) = st.stream.next_op();
                let due = st.due;
                if let Op::Pan { dx, dy, resize } = op {
                    st.view = ops::pan_to(st.view, dx, dy, resize);
                    let issued = Instant::now();
                    let pan = st.pan.as_mut().expect("pan ops only run with a grid");
                    let answer = pan
                        .view(st.view)
                        .map(|cells| Answer {
                            digest: cells_digest(&cells),
                            count: cells.len() as u64,
                        })
                        .map_err(|e| e.to_string());
                    let answered = Instant::now();
                    if let Some(t) = trace.as_deref_mut().filter(|_| measured) {
                        request += 1;
                        let root = t.record("workload.op", due, answered, None, request);
                        t.record("workload.lag", due, issued, Some(root), request);
                        t.record("prefetch.view", issued, answered, Some(root), request);
                    }
                    st.due = answered;
                    done.push(Done {
                        session: s,
                        class,
                        op,
                        answer,
                        wrong: false,
                        measured,
                        issued,
                        answered,
                        body: None,
                        missed: false,
                    });
                    continue;
                }
                let notify = Notify(tx.clone(), s);
                let call_op = op.clone();
                let job = move |db: &ExploreDb| {
                    let _notify = notify;
                    let misses = || traced.then(|| db.cache_stats().misses);
                    let before = misses();
                    let body_start = traced.then(Instant::now);
                    let answer = call(db, &call_op)?;
                    let body = body_start.map(|b| (b, Instant::now()));
                    Ok(Served {
                        answer,
                        body,
                        missed: misses() > before,
                    })
                };
                if measured && class == Class::Write && reads_in_flight > 0 {
                    writes_overlapped += 1;
                }
                let issued = Instant::now();
                match st.serve.submit(job) {
                    Ok(ticket) => {
                        if class != Class::Write {
                            reads_in_flight += 1;
                        }
                        st.in_flight = Some(InFlight {
                            class,
                            op,
                            due,
                            issued,
                            ticket,
                        });
                    }
                    Err(e) => {
                        if measured && matches!(e, StorageError::Overloaded { .. }) {
                            rejected += 1;
                        }
                        let answered = Instant::now();
                        st.due = answered;
                        done.push(Done {
                            session: s,
                            class,
                            op,
                            answer: Err(e.to_string()),
                            wrong: false,
                            measured,
                            issued,
                            answered,
                            body: None,
                            missed: false,
                        });
                    }
                }
            }
        }
        let busy = sessions.iter().any(|st| st.in_flight.is_some());
        if now >= deadline && !busy {
            break;
        }
        let received = if now >= deadline {
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else {
            let wake = sessions
                .iter()
                .filter(|st| st.in_flight.is_none())
                .map(|st| st.due)
                .chain([if measured { deadline } else { window }])
                .min()
                .unwrap_or(deadline);
            rx.recv_timeout(wake.saturating_duration_since(Instant::now()))
        };
        let s = match received {
            Ok(s) => s,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => unreachable!("the generator holds a sender"),
        };
        let st = &mut sessions[s];
        let Some(flight) = st.in_flight.take() else {
            continue;
        };
        let served = flight.ticket.wait();
        let answered = Instant::now();
        if flight.class != Class::Write {
            reads_in_flight -= 1;
        }
        let measured = flight.issued >= window;
        let queue = Duration::from_nanos(flight.ticket.queue_ns());
        let (mut body, mut missed) = (None, false);
        let answer = served.map(|served| {
            missed = served.missed;
            if let Some((b0, b1)) = served.body {
                body = Some(b1.duration_since(b0));
                if let Some(t) = trace.as_deref_mut().filter(|_| measured) {
                    request += 1;
                    let root = t.record("workload.op", flight.due, answered, None, request);
                    t.record(
                        "workload.lag",
                        flight.due,
                        flight.issued,
                        Some(root),
                        request,
                    );
                    let req = t.record(
                        "serve.request",
                        flight.issued,
                        answered,
                        Some(root),
                        request,
                    );
                    t.record(
                        "serve.queue",
                        flight.issued,
                        flight.issued + queue,
                        Some(req),
                        request,
                    );
                    t.record(flight.op.entry(), b0, b1, Some(req), request);
                }
            }
            served.answer
        });
        // A reader's count of `qty = q` matches never goes down: writes
        // only add rows or change `discount`.
        let mut wrong = false;
        if let (Op::Lookup(qty), Ok(a)) = (&flight.op, &answer) {
            if workload == Workload::WriteMix {
                let seen = st.lookup_counts.entry(*qty).or_insert(0);
                wrong = a.count < *seen;
                *seen = (*seen).max(a.count);
            }
        }
        st.due = answered;
        done.push(Done {
            session: s,
            class: flight.class,
            op: flight.op,
            answer: answer.map_err(|e| e.to_string()),
            wrong,
            measured,
            issued: flight.issued,
            answered,
            body,
            missed,
        });
    }
    let end = done
        .iter()
        .filter(|d| d.measured)
        .map(|d| d.answered)
        .max()
        .unwrap_or(window);
    let pan = sessions
        .iter()
        .filter_map(|st| st.pan.as_ref().map(PanSession::stats))
        .fold(PanStats::default(), |a, b| PanStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            foreground_work: a.foreground_work + b.foreground_work,
            background_work: a.background_work + b.background_work,
        });
    drop(sessions);
    let (cache_before, shards_before) = before.expect("the loop runs past the window start");
    let (cache_after, shards_after) = stats();
    let (pieces_end, rows_end) = setup.serve.with_engine(|db| {
        (
            db.index_pieces("sales", "qty").unwrap_or(0),
            db.table("sales").map_or(0, |t| t.num_rows()),
        )
    });
    RunLog {
        done,
        start: window,
        end,
        rejected,
        writes_overlapped,
        pan,
        cache_before,
        cache_after,
        shards_before,
        shards_after,
        pieces_end,
        rows_end,
    }
}
