//! Answer checking: every served answer is compared with a serial,
//! cache-off replay of the same operation on the same data.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use explore_core::cache::CachePolicy;
use explore_core::cube::DiscoveryView;
use explore_core::exec::{evaluate_selection, run_query_on_selection, ExecPolicy, QueryCtx};
use explore_core::prefetch::{CellAgg, PanSession};
use explore_core::storage::{Result, Table};
use explore_core::ExploreDb;

use crate::drive::{call, Done, RunLog, Setup};
use crate::ops::{self, mix, Class, Op, Workload};
use crate::trace::Trace;

/// Order-sensitive fold step.
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ mix(x)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Digest of a table: column names and every cell, floats bit-exact.
pub fn table_digest(t: &Table) -> u64 {
    let mut d = 0xCBF2_9CE4_8422_2325u64;
    for field in t.schema().fields() {
        d = field.name().bytes().fold(d, |d, b| fold(d, b as u64));
    }
    for col in t.columns() {
        if let Some(v) = col.as_i64() {
            d = v.iter().fold(d, |d, &x| fold(d, x as u64));
        } else if let Some(v) = col.as_f64() {
            d = v.iter().fold(d, |d, &x| fold(d, x.to_bits()));
        } else if let Some(v) = col.as_utf8() {
            d = v.iter().fold(d, |d, s| {
                s.bytes().fold(fold(d, 0x5F), |d, b| fold(d, b as u64))
            });
        }
    }
    d
}

/// Digest of a `cracked_range` answer. Id order depends on how far
/// cracking has converged, so the digest ignores it.
pub fn ids_digest(ids: &[u32]) -> u64 {
    ids.iter().fold(mix(ids.len() as u64), |d, &id| {
        d.wrapping_add(mix(id as u64 + 1))
    })
}

pub fn cube_digest(view: &DiscoveryView) -> u64 {
    view.cells().iter().fold(0x0D11_1100u64, |d, c| {
        let d = c.dim_a.bytes().fold(d, |d, b| fold(d, b as u64));
        let d = c.dim_b.bytes().fold(d, |d, b| fold(d, b as u64));
        fold(d, c.actual.to_bits())
    })
}

pub fn cells_digest(cells: &[CellAgg]) -> u64 {
    cells.iter().fold(0x9E37_79B9_7F4A_7C15u64, |d, c| {
        fold(fold(d, c.count), c.sum.to_bits())
    })
}

/// Timings of the exec replay of one served fresh filter+aggregate
/// (traced `explore_mix`).
pub struct ExecProbe {
    /// Index into `RunLog::done`.
    pub op: usize,
    pub filter_ns: u64,
    pub aggregate_ns: u64,
    pub floor_ns: u64,
    pub selected: usize,
}

pub struct Verdict {
    /// Operations whose answer differs from the replay.
    pub mismatched: u64,
    pub probes: Vec<ExecProbe>,
}

/// Replay every answered operation of `log` serially with the cache off
/// and compare answers. Queries replay through the exec layer on the
/// registered snapshot (`evaluate_selection` then
/// `run_query_on_selection`); lookups, drills and writes through a
/// fresh cache-off engine; pans through a fresh pan session. For
/// `write_mix` the final table must also match the writer's sequence
/// replayed alone. With `trace`, the replays of the fresh filters of
/// `explore_mix` are recorded as exec spans next to a plain-loop floor.
pub fn verify(
    workload: Workload,
    setup: &Setup,
    log: &RunLog,
    mut trace: Option<&mut Trace>,
) -> Result<Verdict> {
    let replay_db = ExploreDb::new();
    replay_db.set_cache_policy(CachePolicy::Off);
    replay_db.register("sales", Arc::clone(&setup.base));
    let ctx = QueryCtx::new(ExecPolicy::parallel());
    let price = setup.base.column("price")?.as_f64().unwrap_or(&[]);
    let probe = trace.is_some() && workload == Workload::ExploreMix;

    let mut mismatched = 0u64;
    let mut probes = Vec::new();
    // Drills repeat a handful of dimension pairs; replay each once.
    let mut cubes: HashMap<(&str, &str), u64> = HashMap::new();
    for session in 0..workload.sessions() {
        let mut pan = setup.grid.as_ref().map(|g| PanSession::new(g, false));
        let mut view = ops::START_VIEW;
        let ops_of_session = log
            .done
            .iter()
            .enumerate()
            .filter(|(_, d)| d.session == session);
        for (i, d) in ops_of_session {
            let Ok(served) = &d.answer else { continue };
            // Reader queries of `write_mix` saw a table mid-write; they
            // are checked through the lookup counts and the final table.
            if workload == Workload::WriteMix && d.class != Class::Write {
                continue;
            }
            let replayed = match &d.op {
                Op::Query(q) => {
                    let t0 = Instant::now();
                    let sel = evaluate_selection(&setup.base, &q.predicate, &ctx)?;
                    let t1 = Instant::now();
                    let result = run_query_on_selection(&setup.base, q, &sel, &ctx)?;
                    let t2 = Instant::now();
                    if probe && d.measured && d.class == Class::Scan {
                        let sum: f64 = sel.iter().map(|&r| price[r as usize]).sum();
                        black_box(sum);
                        let t3 = Instant::now();
                        let t = trace.as_deref_mut().expect("probe implies trace");
                        let request = 1_000_000_000 + i as u64;
                        let root = t.record("exec.replay", t0, t3, None, request);
                        t.record("exec.filter", t0, t1, Some(root), request);
                        t.record("exec.aggregate", t1, t2, Some(root), request);
                        t.record("storage.floor_sum", t2, t3, Some(root), request);
                        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
                        probes.push(ExecProbe {
                            op: i,
                            filter_ns: ns(t0, t1),
                            aggregate_ns: ns(t1, t2),
                            floor_ns: ns(t2, t3),
                            selected: sel.len(),
                        });
                    }
                    table_digest(&result)
                }
                Op::Pan { dx, dy, resize } => {
                    view = ops::pan_to(view, *dx, *dy, *resize);
                    let pan = pan.as_mut().expect("pan ops only run with a grid");
                    cells_digest(&pan.view(view)?)
                }
                Op::Drill(a, b) => match cubes.get(&(*a, *b)) {
                    Some(&digest) => digest,
                    None => {
                        let digest = call(&replay_db, &d.op)?.digest;
                        *cubes.entry((*a, *b)).or_insert(digest)
                    }
                },
                op => call(&replay_db, op)?.digest,
            };
            mismatched += u64::from(replayed != served.digest);
        }
    }
    if workload == Workload::WriteMix {
        let served = setup.serve.with_engine(|db| db.table("sales"))?;
        let replayed = replay_db.table("sales")?;
        if table_digest(&served) != table_digest(&replayed) {
            mismatched += 1;
        }
    }
    Ok(Verdict { mismatched, probes })
}

/// Operations that failed: errors, refusals and wrong answers.
pub fn failed(done: &[Done]) -> u64 {
    done.iter().filter(|d| d.answer.is_err() || d.wrong).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_digest_ignores_order_but_not_content() {
        assert_eq!(ids_digest(&[3, 1, 2]), ids_digest(&[1, 2, 3]));
        assert_ne!(ids_digest(&[1, 2, 3]), ids_digest(&[1, 2, 4]));
        assert_ne!(ids_digest(&[1, 2]), ids_digest(&[1, 2, 2]));
    }
}
