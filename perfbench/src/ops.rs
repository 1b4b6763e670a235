//! Seeded operation streams: what every session of every workload asks,
//! as a pure function of `(workload, seed, session)`. The engine only
//! ever sees the generated operations.

use std::sync::Arc;

use explore_core::prefetch::Viewport;
use explore_core::storage::gen::{sales_table, SalesConfig};
use explore_core::storage::rng::SplitMix64;
use explore_core::storage::{AggFunc, Predicate, Query, Table, Value};
use explore_workload::{Interaction, SessionSpec, GRID_CELLS};

/// Rows in the generated `sales` table.
pub const ROWS: usize = 1_000_000;
/// Serve workers. Fixed rather than taken from the host so that figures
/// from different hosts describe the same configuration.
pub const WORKERS: usize = 2;
/// Rows per `append_rows` write in `write_mix`.
pub const APPEND_ROWS: usize = 1_000;
/// Interactions generated per `explore_mix` session; a session that runs
/// out starts its trajectory again.
const TRAJECTORY: usize = 4_096;

const UTF8_KEYS: [&str; 3] = ["region", "product", "channel"];
const FUNCS: [AggFunc; 6] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Var,
];
const MEASURES: [&str; 3] = ["price", "discount", "qty"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExploreMix,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ExploreMix, Workload::WriteMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreMix => "explore_mix",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Sessions the generator multiplexes (for `write_mix`, the last one
    /// is the writer).
    pub fn sessions(self) -> usize {
        match self {
            Workload::ExploreMix => 16,
            Workload::WriteMix => 4,
        }
    }
}

/// The latency class an operation is reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A fresh filter+aggregate.
    Scan,
    /// A filter narrowed inside the previous one.
    Refine,
    Pan,
    Drill,
    Lookup,
    Write,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Query(Query),
    /// `cracked_range(qty, q, q + 1)`.
    Lookup(i64),
    /// `discover_cube(a, b, price)`.
    Drill(&'static str, &'static str),
    /// Viewport move over the sky grid, answered by a `PanSession`.
    Pan {
        dx: i64,
        dy: i64,
        resize: i64,
    },
    PushRow(Vec<Value>),
    AppendRows(Arc<Table>),
    /// `update_where(price in [lo, hi), discount = value)`.
    UpdateWhere {
        lo: f64,
        hi: f64,
        discount: f64,
    },
}

impl Op {
    /// Name of the span around the layer call that answers the op.
    pub fn entry(&self) -> &'static str {
        match self {
            Op::Query(_) => "core.query",
            Op::Lookup(_) => "core.cracked_range",
            Op::Drill(..) => "core.discover_cube",
            Op::Pan { .. } => "prefetch.view",
            Op::PushRow(_) => "core.push_row",
            Op::AppendRows(_) => "core.append_rows",
            Op::UpdateWhere { .. } => "core.update_where",
        }
    }
}

/// Move `vp` as a pan interaction asks; the same walk is replayed when
/// answers are checked.
pub fn pan_to(vp: Viewport, dx: i64, dy: i64, resize: i64) -> Viewport {
    Viewport {
        cx: (vp.cx + dx).clamp(0, GRID_CELLS - 1),
        cy: (vp.cy + dy).clamp(0, GRID_CELLS - 1),
        w: (vp.w as i64 + resize).clamp(2, 6) as usize,
        h: (vp.h as i64 + resize).clamp(2, 6) as usize,
    }
}

/// Where every session's viewport starts.
pub const START_VIEW: Viewport = Viewport {
    cx: GRID_CELLS / 2,
    cy: GRID_CELLS / 2,
    w: 4,
    h: 4,
};

/// SplitMix64 finalizer, used to derive independent streams and digests.
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed of the generated `sales` table. The table is the same for every
/// run seed: the seed varies the operations. The cost of an operation
/// depends heavily on the table (each table seed draws other product
/// base prices, and with them other selectivities), which would
/// otherwise dominate the spread between seeds.
pub const DATA_SEED: u64 = 42;
/// Seed of the generated sky table behind the pan grid.
pub const SKY_SEED: u64 = 0x05C1_F1E1D;

/// One session's source of operations.
pub struct Stream {
    kind: StreamKind,
    rng: SplitMix64,
    step: usize,
    /// Scan shapes not yet dealt from the current shuffled deck.
    deck: Vec<Shape>,
}

enum StreamKind {
    Explore(Vec<Interaction>),
    Reader,
    Writer,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, session: usize) -> Stream {
        let stream_seed = mix(seed ^ mix(session as u64 + 1) ^ mix(workload as u64 + 17));
        let kind = match workload {
            Workload::ExploreMix => StreamKind::Explore(
                SessionSpec::generate(seed, session as u64, TRAJECTORY).interactions,
            ),
            Workload::WriteMix if session + 1 == workload.sessions() => StreamKind::Writer,
            Workload::WriteMix => StreamKind::Reader,
        };
        Stream {
            kind,
            rng: SplitMix64::new(stream_seed),
            step: 0,
            deck: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> (Class, Op) {
        let step = self.step;
        self.step += 1;
        let rng = &mut self.rng;
        match &self.kind {
            StreamKind::Reader if step.is_multiple_of(2) => {
                (Class::Scan, Op::Query(fresh_scan(rng, &mut self.deck)))
            }
            StreamKind::Reader => (Class::Lookup, Op::Lookup(rng.range_i64(1, 9))),
            StreamKind::Writer => (Class::Write, write_op(rng, step)),
            StreamKind::Explore(trajectory) => match trajectory[step % trajectory.len()] {
                Interaction::Filter { lo, hi } => (Class::Scan, Op::Query(explore_query(lo, hi))),
                Interaction::Refine { lo, hi } => (Class::Refine, Op::Query(explore_query(lo, hi))),
                Interaction::Pan { dx, dy, resize } => (Class::Pan, Op::Pan { dx, dy, resize }),
                Interaction::Drill { dim_a, dim_b } => (Class::Drill, Op::Drill(dim_a, dim_b)),
                Interaction::Lookup { qty } => (Class::Lookup, Op::Lookup(qty)),
            },
        }
    }
}

/// The filter+aggregate shape of `explore_mix` (the workload crate's
/// filter and refine interactions).
fn explore_query(lo: f64, hi: f64) -> Query {
    Query::new()
        .filter(Predicate::range("price", lo, hi))
        .group("region")
        .agg(AggFunc::Sum, "price")
}

/// Range column, grouping (none, `qty`, a Utf8 key) and aggregate of a
/// fresh filter+aggregate, as indices into the tables above.
type Shape = (usize, usize, usize);

/// A fresh filter+aggregate: a continuous random range on one of three
/// columns, so two operations almost never share a predicate. Shapes are
/// dealt from a deck holding each (column, grouping, aggregate) once, in
/// seeded order, so every seed runs the same mix of shapes; the Utf8 key,
/// the measure and the bounds are drawn per operation.
fn fresh_scan(rng: &mut SplitMix64, deck: &mut Vec<Shape>) -> Query {
    if deck.is_empty() {
        deck.extend(
            (0..3).flat_map(|c| (0..3).flat_map(move |g| (0..FUNCS.len()).map(move |f| (c, g, f)))),
        );
        rng.shuffle(deck);
    }
    let (column, grouping, func) = deck.pop().expect("the deck was just refilled");
    let (column, lo, width) = match column {
        0 => (
            "price",
            rng.range_f64(0.0, 450.0),
            rng.range_f64(50.0, 500.0),
        ),
        1 => (
            "discount",
            rng.range_f64(0.0, 0.25),
            rng.range_f64(0.05, 0.6),
        ),
        _ => ("qty", rng.range_f64(1.0, 8.0), rng.range_f64(1.0, 8.0)),
    };
    let mut query = Query::new().filter(Predicate::range(column, lo, lo + width));
    match grouping {
        0 => {}
        1 => query = query.group("qty"),
        _ => query = query.group(UTF8_KEYS[rng.below(3) as usize]),
    }
    query.agg(FUNCS[func], MEASURES[rng.below(3) as usize])
}

/// The writer cycles push_row, append_rows and a narrow update_where.
/// Updates touch only `discount`, so a reader's count of `qty` matches
/// can never go down.
fn write_op(rng: &mut SplitMix64, step: usize) -> Op {
    match step % 3 {
        0 => Op::PushRow(vec![
            Value::Str(format!("region{}", rng.below(8))),
            Value::Str(format!("product{}", rng.below(20))),
            Value::Str(format!("channel{}", rng.below(4))),
            Value::Float(rng.range_f64(5.0, 500.0)),
            Value::Float(rng.range_f64(0.0, 0.3)),
            Value::Int(rng.range_i64(1, 9)),
        ]),
        1 => Op::AppendRows(Arc::new(sales_table(&SalesConfig {
            rows: APPEND_ROWS,
            seed: rng.next_u64(),
            ..SalesConfig::default()
        }))),
        _ => {
            let lo = rng.range_f64(5.0, 500.0);
            Op::UpdateWhere {
                lo,
                hi: lo + 0.05,
                discount: rng.range_f64(0.0, 0.3),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, session: usize, n: usize) -> Vec<(Class, Op)> {
        let mut stream = Stream::new(workload, seed, session);
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_same_operation_sequence() {
        for workload in Workload::ALL {
            for session in 0..workload.sessions() {
                let a = ops(workload, 7, session, 300);
                assert_eq!(a, ops(workload, 7, session, 300), "{workload:?} {session}");
                assert_ne!(a, ops(workload, 8, session, 300), "{workload:?} {session}");
            }
            let first = ops(workload, 7, 0, 300);
            assert_ne!(
                first,
                ops(workload, 7, 1, 300),
                "{workload:?}: sessions differ"
            );
        }
    }

    #[test]
    fn workloads_have_the_classes_they_report() {
        let classes = |workload: Workload| {
            let mut seen: Vec<Class> = (0..workload.sessions())
                .flat_map(|s| ops(workload, 11, s, 400))
                .map(|(class, _)| class)
                .collect();
            seen.sort();
            seen.dedup();
            seen
        };
        assert_eq!(
            classes(Workload::ExploreMix),
            [
                Class::Scan,
                Class::Refine,
                Class::Pan,
                Class::Drill,
                Class::Lookup
            ]
        );
        assert_eq!(
            classes(Workload::WriteMix),
            [Class::Scan, Class::Lookup, Class::Write]
        );
    }
}
