//! The serve protocol: exact hit → subsumption hit → compute-and-admit.
//!
//! [`cached_query`] is the single entry point `ExploreDb` routes through
//! when caching is enabled. Its contract is *bit-exactness*: for every
//! query — hit, subsumption serve, or miss — the returned table is
//! bit-identical (floats by `to_bits`) to what `explore_exec::run_query`
//! would produce against the base table, and errors are the canonical
//! `run_query` errors.
//!
//! The one [`QueryCtx`] threads through every exec call, so cancellation
//! is checked per morsel on subsumption re-filters and base-table scans
//! alike, fail points apply at the same hazard sites, and an attached
//! trace records one cache-lookup span tagged with the outcome (hit /
//! subsumption / miss), an admit span when a result is offered to the
//! cache, and the usual exec spans for whatever actually ran. None of it
//! changes what is served.
//!
//! The subsumption path earns this the careful way:
//!
//! 1. the **full** new predicate is re-evaluated on the cached subset
//!    (not some residual predicate — no predicate algebra to get wrong),
//! 2. subset-local matches are mapped through the entry's stored
//!    selection vector back to **global** base-table row ids,
//! 3. the query replays via [`explore_exec::run_query_on_selection`],
//!    which partitions
//!    that global selection at the *base table's* morsel boundaries —
//!    so gathers and float accumulators see the same values in the same
//!    order as a base-table scan.
//!
//! Any failure inside the subsumption path simply falls through to the
//! miss path, which reproduces canonical errors and results.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use explore_exec::{evaluate_selection, run_query_on_selection, run_query_window, QueryCtx};
use explore_obs::{CacheOutcome, SpanKind, ROOT_SPAN};
use explore_storage::{Query, Result, Table};

use crate::fingerprint::Fingerprint;
use crate::region::Region;
use crate::store::{ResultCache, ReuseArtifacts, SubsumeCandidate};

/// Execute `query` against `base` (registered as `table_name`) through
/// the shared cache, under one [`QueryCtx`]. See the module docs for
/// the exactness contract.
pub fn cached_query(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    let epoch = cache.epoch(table_name);
    cached_query_at_epoch(
        cache,
        base,
        table_name,
        query,
        ctx,
        epoch,
        0..base.num_rows(),
    )
}

/// [`cached_query`] with the admission epoch supplied by the caller.
///
/// Concurrent engines must read the table's epoch **before** taking the
/// data snapshot that `base` points at: mutations write data first and
/// bump the epoch second, so epoch-before-snapshot guarantees the
/// snapshot is at least as new as the epoch it is admitted under. (A
/// snapshot *newer* than the epoch is admitted under the older epoch
/// and dies at the mutation's bump — conservative, never stale.) If the
/// epoch were read here, after the caller's snapshot, a mutation in the
/// window could leave pre-mutation data admitted under the
/// post-mutation epoch — a stale entry the bump can no longer kill.
///
/// `rows` restricts a miss to that row window of `base`, for a shard
/// cached under its own scope name; whole tables pass `0..num_rows`.
/// Selections stay global row ids either way, so hits and subsumption
/// serves need no window: a scope's entries only ever cover its rows.
pub fn cached_query_at_epoch(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    ctx: &QueryCtx,
    epoch: u64,
    rows: Range<usize>,
) -> Result<Table> {
    let fingerprint = Fingerprint::for_query(table_name, query);

    let lookup_start = ctx.trace.map(|t| t.now_ns());
    if let Some(hit) = cache.get(&fingerprint) {
        record_lookup(ctx, lookup_start, CacheOutcome::Hit);
        return Ok((*hit).clone());
    }

    if let Some(served) = try_subsumption(
        cache,
        base,
        table_name,
        query,
        &fingerprint,
        epoch,
        ctx,
        lookup_start,
    ) {
        return Ok(served);
    }

    // A cancellation that aborted the subsumption path must surface as
    // the typed error, not silently fall through to a (doomed) rescan.
    ctx.check_cancel()?;

    record_lookup(ctx, lookup_start, CacheOutcome::Miss);
    cache.note_miss();

    let started = Instant::now();
    let (sel, result) = run_query_window(base, query, rows, ctx)?;
    let cost_ns = started.elapsed().as_nanos();

    let result = Arc::new(result);
    // Cost-aware admission: results too cheap to be worth caching skip
    // artifact construction and insertion entirely — the cold path pays
    // (almost) nothing for them, which is what keeps `CachePolicy::On`
    // tracking cache-off on workloads that never re-ask a query.
    let admit_start = ctx.trace.map(|t| t.now_ns());
    let accepted = if cache.should_admit(cost_ns) {
        let reuse = build_artifacts(base, query, sel, &result, cost_ns);
        cache.insert(fingerprint, Arc::clone(&result), reuse, cost_ns, epoch)
    } else {
        cache.note_admit_rejected();
        false
    };
    record_admit(ctx, admit_start, accepted);
    Ok((*result).clone())
}

/// Record the cache-lookup span once its outcome is known.
fn record_lookup(ctx: &QueryCtx, start: Option<u64>, outcome: CacheOutcome) {
    if let Some((t, start)) = ctx.trace.zip(start) {
        t.record(ROOT_SPAN, SpanKind::CacheLookup(outcome), start, t.now_ns());
    }
}

/// Record the admission span around a [`ResultCache::insert`] offer.
fn record_admit(ctx: &QueryCtx, start: Option<u64>, accepted: bool) {
    if let Some((t, start)) = ctx.trace.zip(start) {
        t.record(ROOT_SPAN, SpanKind::Admit { accepted }, start, t.now_ns());
    }
}

/// Attempt to answer from a cached superset. `None` means "no sound
/// candidate" *or* "serving failed" — either way the caller falls back
/// to base-table execution.
#[allow(clippy::too_many_arguments)]
fn try_subsumption(
    cache: &ResultCache,
    base: &Table,
    table_name: &str,
    query: &Query,
    fingerprint: &Fingerprint,
    epoch: u64,
    ctx: &QueryCtx,
    lookup_start: Option<u64>,
) -> Option<Table> {
    if !cache.subsumption_enabled() {
        return None;
    }
    let query_region = Region::relaxed(&query.predicate);
    let candidate = cache.find_subsuming(table_name, &query_region)?;
    // The probe found a superset: the lookup span closes here, before
    // the re-filter work (which records its own exec spans).
    record_lookup(ctx, lookup_start, CacheOutcome::Subsumption);
    let SubsumeCandidate {
        fingerprint: source,
        sel,
        subset,
        cost_ns,
    } = candidate;

    let started = Instant::now();
    // Re-evaluate the full predicate on the (smaller) cached subset;
    // region soundness guarantees no qualifying base row lives outside
    // it. Errors fall through to the canonical miss path.
    let local = evaluate_selection(&subset, &query.predicate, ctx).ok()?;
    let global: Vec<u32> = local.iter().map(|&i| sel[i as usize]).collect();
    let result = run_query_on_selection(base, query, &global, ctx).ok()?;
    let refilter_ns = started.elapsed().as_nanos();

    cache.note_subsumption_hit(&source, cost_ns.saturating_sub(refilter_ns));

    // Admit the narrower result as its own entry so refinement chains
    // keep re-filtering ever-smaller subsets. Its subset rows come from
    // the candidate's subset — identical values to a base-table gather.
    let result = Arc::new(result);
    let reuse = Region::exact(&query.predicate).map(|region| ReuseArtifacts {
        region,
        sel: Arc::new(global),
        subset: Arc::new(subset.gather(&local)),
    });
    let admit_start = ctx.trace.map(|t| t.now_ns());
    let accepted = cache.insert(
        fingerprint.clone(),
        Arc::clone(&result),
        reuse,
        refilter_ns,
        epoch,
    );
    record_admit(ctx, admit_start, accepted);
    Some((*result).clone())
}

/// Reuse artifacts for a freshly computed result: only when the
/// predicate normalizes exactly. An identity scan's result *is* its
/// subset, so the `Arc` is shared instead of re-gathered. For any other
/// shape the subset must be gathered, which is the expensive part of
/// the cold path — so it's gated on benefit *before* the gather: the
/// selection must narrow the base table by at least a 1/8th (a subset
/// covering nearly every base row makes a re-filter scan about as many
/// rows as the base table would — all cost, no savings), and the
/// estimated subset bytes must not exceed the observed compute cost in
/// ns (≈ 1 byte/ns materialization: an artifact that costs more to
/// build than the computation it might save is a bad trade). Entries
/// without artifacts still serve exact hits.
fn build_artifacts(
    base: &Table,
    query: &Query,
    sel: Vec<u32>,
    result: &Arc<Table>,
    cost_ns: u128,
) -> Option<ReuseArtifacts> {
    let region = Region::exact(&query.predicate)?;
    let is_identity_scan = query.aggregates.is_empty()
        && query.projection.is_empty()
        && query.order_by.is_none()
        && query.limit.is_none();
    let subset = if is_identity_scan {
        Arc::clone(result)
    } else {
        if sel.len() * 8 >= base.num_rows() * 7 {
            return None;
        }
        let est_bytes = estimated_row_bytes(base).saturating_mul(sel.len());
        if est_bytes as u128 > cost_ns {
            return None;
        }
        Arc::new(base.gather(&sel))
    };
    Some(ReuseArtifacts {
        region,
        sel: Arc::new(sel),
        subset,
    })
}

/// Cheap per-row byte estimate for gather gating: exact for numeric
/// columns, and string columns extrapolate from the first rows instead
/// of walking every string — `table_bytes` is exact but O(rows), far
/// too slow to pay on every admission decision.
fn estimated_row_bytes(table: &Table) -> usize {
    use explore_storage::Column;
    let mut bytes = 0usize;
    for field in table.schema().fields() {
        let Ok(col) = table.column(field.name()) else {
            continue;
        };
        bytes += match col {
            Column::Int64(_) | Column::Float64(_) => 8,
            Column::Utf8(v) => {
                let sample = &v[..v.len().min(64)];
                let sampled: usize = sample.iter().map(|s| s.len() + 24).sum();
                sampled / sample.len().max(1)
            }
        };
    }
    bytes
}
