//! The repository benchmark: seeded workloads driven through
//! `explore_serve::ServeEngine` over a 1M-row `sales` table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` the run is made twice,
//! untraced and then traced, and the object holds the per-layer metrics
//! derived from the traced run's spans, which are also written to
//! `perfbench/out/`. The exit code is 1 when any answer is wrong.

mod check;
mod drive;
mod ops;
mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use explore_core::obs::percentile_sorted;

use check::Verdict;
use drive::{RunLog, Setup};
use ops::{Class, Workload, ROWS, WORKERS};
use trace::Trace;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&str, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(at + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let workload = value("--workload")?;
        let args = Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
            seed: number("--seed")?,
            seconds: number("--seconds")?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
        };
        if !(1..=60).contains(&args.seconds) {
            return Err("--seconds must be within 1..=60".to_owned());
        }
        Ok(args)
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile of `ns` samples, in ms (0 without samples).
fn pct_ms(mut ns: Vec<u64>, q: f64) -> f64 {
    ns.sort_unstable();
    ms(percentile_sorted(&ns, q))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn share_pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ops_per_s(log: &RunLog) -> f64 {
    log.completed() as f64 / log.elapsed_s()
}

/// The metrics a user of the engine sees.
fn end_to_end(log: &RunLog, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let scans = log.latencies(Class::Scan);
    vec![
        metric("setup_s", "s", setup_s),
        metric("scan_p50_ms", "ms", pct_ms(scans.clone(), 0.50)),
        metric("scan_p95_ms", "ms", pct_ms(scans, 0.95)),
        metric("ops_per_s", "1/s", ops_per_s(log)),
        metric("peak_rss_mb", "MB", rss_mb),
    ]
}

/// Every per-layer metric, derived from the traced run's spans and the
/// engine's counters; 0 where the workload has no such operation.
fn per_layer(
    log: &RunLog,
    trace: &Trace,
    verdict: &Verdict,
    failed: u64,
    untraced_ops_per_s: f64,
) -> Vec<Metric> {
    let spans = trace.self_times_by_name();
    let span = |name: &str| spans.get(name).cloned().unwrap_or_default();
    let lat = |class| log.latencies(class);
    let span_ms = |name: &str, q: f64| pct_ms(span(name), q);

    let writes = log.measured().filter(|d| d.class == Class::Write).count();
    let core_busy_ns: u64 = spans
        .iter()
        .filter(|(name, _)| name.starts_with("core."))
        .flat_map(|(_, v)| v.iter())
        .sum();
    let busy_pct = 100.0 * ms(core_busy_ns) / 1e3 / (WORKERS as f64 * log.elapsed_s());

    let (before, after) = (&log.cache_before, &log.cache_after);
    let hits = after.hits - before.hits;
    let subsumed = after.subsumption_hits - before.subsumption_hits;
    let lookups = hits + subsumed + (after.misses - before.misses);

    // Exec replay of each served query: the served call's time minus the
    // replayed filter and aggregate, on cache misses.
    let mut overhead_ns: Vec<i64> = verdict
        .probes
        .iter()
        .filter_map(|p| {
            let d = &log.done[p.op];
            let body = d.body.filter(|_| d.missed && d.measured)?;
            Some(body.as_nanos() as i64 - p.filter_ns as i64 - p.aggregate_ns as i64)
        })
        .collect();
    overhead_ns.sort_unstable();
    let miss_overhead_ms = overhead_ns
        .get(overhead_ns.len().saturating_sub(1) / 2)
        .map_or(0.0, |&ns| ns as f64 / 1e6);
    let probe_ms =
        |f: fn(&check::ExecProbe) -> u64| pct_ms(verdict.probes.iter().map(f).collect(), 0.50);
    let selectivity_pct = if verdict.probes.is_empty() {
        0.0
    } else {
        let selected: usize = verdict.probes.iter().map(|p| p.selected).sum();
        100.0 * selected as f64 / (verdict.probes.len() * ROWS) as f64
    };

    // Cracking convergence from a cold index: mean lookup time over the
    // first and last tenth of all lookups (warm-up included), in the
    // order they were answered.
    let lookups_ns: Vec<u64> = log
        .done
        .iter()
        .filter(|d| d.class == Class::Lookup)
        .filter_map(|d| d.body)
        .map(|b| b.as_nanos() as u64)
        .collect();
    let decile = (lookups_ns.len() / 10).max(1);
    let mean_ms = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            ms(xs.iter().sum::<u64>()) / xs.len() as f64
        }
    };
    let first_decile = mean_ms(&lookups_ns[..decile.min(lookups_ns.len())]);
    let last_decile = mean_ms(&lookups_ns[lookups_ns.len().saturating_sub(decile)..]);

    let epoch_bumps = log
        .shards_after
        .as_ref()
        .map_or(0, |v| v.iter().map(|s| s.epoch).sum::<u64>())
        - log
            .shards_before
            .as_ref()
            .map_or(0, |v| v.iter().map(|s| s.epoch).sum::<u64>());
    let rows_max_over_min = log.shards_after.as_ref().map_or(0.0, |v| {
        let max = v.iter().map(|s| s.rows).max().unwrap_or(0);
        let min = v.iter().map(|s| s.rows).min().unwrap_or(0).max(1);
        max as f64 / min as f64
    });

    let traced_ops_per_s = ops_per_s(log);
    vec![
        metric("workload.lag_p95_ms", "ms", span_ms("workload.lag", 0.95)),
        metric("refine_p50_ms", "ms", pct_ms(lat(Class::Refine), 0.50)),
        metric("refine_p95_ms", "ms", pct_ms(lat(Class::Refine), 0.95)),
        metric("lookup_p50_ms", "ms", pct_ms(lat(Class::Lookup), 0.50)),
        metric("lookup_p95_ms", "ms", pct_ms(lat(Class::Lookup), 0.95)),
        metric("drill_p50_ms", "ms", pct_ms(lat(Class::Drill), 0.50)),
        metric("write_p50_ms", "ms", pct_ms(lat(Class::Write), 0.50)),
        metric("write_p95_ms", "ms", pct_ms(lat(Class::Write), 0.95)),
        metric("failed_pct", "%", share_pct(failed, log.done.len() as u64)),
        metric("serve.queue_p50_ms", "ms", span_ms("serve.queue", 0.50)),
        metric("serve.queue_p95_ms", "ms", span_ms("serve.queue", 0.95)),
        metric(
            "serve.dispatch_p50_ms",
            "ms",
            span_ms("serve.request", 0.50),
        ),
        metric("serve.rejected", "count", log.rejected as f64),
        metric("serve.busy_pct", "%", busy_pct),
        metric("core.query_p50_ms", "ms", span_ms("core.query", 0.50)),
        metric("core.query_p95_ms", "ms", span_ms("core.query", 0.95)),
        metric(
            "core.cracked_range_p50_ms",
            "ms",
            span_ms("core.cracked_range", 0.50),
        ),
        metric(
            "core.cracked_range_p95_ms",
            "ms",
            span_ms("core.cracked_range", 0.95),
        ),
        metric(
            "core.discover_cube_p50_ms",
            "ms",
            span_ms("core.discover_cube", 0.50),
        ),
        metric("core.push_row_p50_ms", "ms", span_ms("core.push_row", 0.50)),
        metric("core.push_row_p95_ms", "ms", span_ms("core.push_row", 0.95)),
        metric(
            "core.append_rows_p50_ms",
            "ms",
            span_ms("core.append_rows", 0.50),
        ),
        metric(
            "core.append_rows_p95_ms",
            "ms",
            span_ms("core.append_rows", 0.95),
        ),
        metric(
            "core.update_where_p50_ms",
            "ms",
            span_ms("core.update_where", 0.50),
        ),
        metric(
            "core.update_where_p95_ms",
            "ms",
            span_ms("core.update_where", 0.95),
        ),
        metric(
            "core.write_overlap_pct",
            "%",
            share_pct(log.writes_overlapped, writes as u64),
        ),
        metric("cache.hit_pct", "%", share_pct(hits + subsumed, lookups)),
        metric("cache.subsumption_pct", "%", share_pct(subsumed, lookups)),
        metric(
            "cache.admit_rejected",
            "count",
            (after.admit_rejected - before.admit_rejected) as f64,
        ),
        metric(
            "cache.invalidations",
            "count",
            (after.invalidations - before.invalidations) as f64,
        ),
        metric(
            "cache.evictions",
            "count",
            (after.evictions - before.evictions) as f64,
        ),
        metric(
            "cache.bytes_mb",
            "MB",
            after.bytes as f64 / (1024.0 * 1024.0),
        ),
        metric(
            "cache.saved_ms",
            "ms",
            (after.saved_cost_ns - before.saved_cost_ns) as f64 / 1e6,
        ),
        metric("exec.filter_p50_ms", "ms", probe_ms(|p| p.filter_ns)),
        metric("exec.aggregate_p50_ms", "ms", probe_ms(|p| p.aggregate_ns)),
        metric("exec.selectivity_pct", "%", selectivity_pct),
        metric("exec.miss_overhead_p50_ms", "ms", miss_overhead_ms),
        metric("storage.floor_sum_p50_ms", "ms", probe_ms(|p| p.floor_ns)),
        metric("storage.rows_end", "count", log.rows_end as f64),
        metric("cracking.pieces_end", "count", log.pieces_end as f64),
        metric("cracking.lookup_first_decile_ms", "ms", first_decile),
        metric("cracking.lookup_last_decile_ms", "ms", last_decile),
        metric("shard.epoch_bumps", "count", epoch_bumps as f64),
        metric("shard.rows_max_over_min", "ratio", rows_max_over_min),
        metric(
            "shard.pieces_end",
            "count",
            log.shards_after
                .as_ref()
                .map_or(0, |v| v.iter().map(|s| s.pieces).sum::<usize>()) as f64,
        ),
        metric("prefetch.view_p95_ms", "ms", span_ms("prefetch.view", 0.95)),
        metric("prefetch.hit_pct", "%", 100.0 * log.pan.hit_rate()),
        metric(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
        ),
    ]
}

/// The commit the checkout was made from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_owned(), |c| c.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The run environment, recorded with every result. Every session is a
/// closed loop with no think time.
fn environment(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"workers\":{},\"rows\":{},\"sessions\":{},\"think_ms\":0,\"commit\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        WORKERS,
        ROWS,
        args.workload.sessions(),
        commit(),
    )
}

fn result_json(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Set up, run and check one workload; returns (correct, attempted,
/// failed, metrics).
fn measure(args: &Args) -> Result<(bool, usize, u64, Vec<Metric>), String> {
    let err = |e: explore_core::storage::StorageError| e.to_string();
    let fresh = || drive::setup(args.workload).map_err(err);
    let run = |setup: &Setup, trace: Option<&mut Trace>| {
        drive::run(setup, args.workload, args.seed, args.seconds, trace)
    };
    if !args.trace {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut setup = fresh()?;
        setup_s.push(setup.seconds);
        for _ in 1..SETUPS {
            drop(setup);
            setup = fresh()?;
            setup_s.push(setup.seconds);
        }
        let log = run(&setup, None);
        let rss_mb = peak_rss_mb()?;
        let verdict = check::verify(args.workload, &setup, &log, None).map_err(err)?;
        let failed = check::failed(&log.done) + verdict.mismatched;
        let metrics = end_to_end(&log, median(setup_s), rss_mb);
        return Ok((failed == 0, log.done.len(), failed, metrics));
    }
    let untraced_ops_per_s = ops_per_s(&run(&fresh()?, None));
    let setup = fresh()?;
    let mut trace = Trace::new(Instant::now());
    let log = run(&setup, Some(&mut trace));
    let verdict = check::verify(args.workload, &setup, &log, Some(&mut trace)).map_err(err)?;
    let failed = check::failed(&log.done) + verdict.mismatched;
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!(
        "{}-seed{}.trace.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace.to_jsonl(&environment(args))).map_err(|e| e.to_string())?;
    let metrics = per_layer(&log, &trace, &verdict, failed, untraced_ops_per_s);
    Ok((failed == 0, log.done.len(), failed, metrics))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <explore_mix|write_mix> --seed <n> \
                 --seconds <1..60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!("env {}", environment(&args));
    match measure(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
            if !args.trace {
                // Per-layer in traced runs; shown here too, outside the result.
                let pct = share_pct(failed, attempted as u64);
                println!("{:<34} {:>14.4} %", "failed_pct", pct);
            }
            println!("{}", result_json(correct, attempted, failed, &metrics));
            if !correct {
                eprintln!("perfbench: {failed} of {attempted} operations failed");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name"` values of one top-level section of BENCHMARK.json.
    fn listed(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let now = Instant::now();
        let log = RunLog {
            done: Vec::new(),
            start: now,
            end: now,
            rejected: 0,
            writes_overlapped: 0,
            pan: Default::default(),
            cache_before: Default::default(),
            cache_after: Default::default(),
            shards_before: None,
            shards_after: None,
            pieces_end: 0,
            rows_end: 0,
        };
        let verdict = Verdict {
            mismatched: 0,
            probes: Vec::new(),
        };
        let names = |metrics: Vec<Metric>| -> Vec<String> {
            metrics.iter().map(|m| m.name.to_owned()).collect()
        };
        assert_eq!(
            listed(json, "end_to_end"),
            names(end_to_end(&log, 1.0, 1.0))
        );
        let layers = per_layer(&log, &Trace::new(now), &verdict, 0, 1.0);
        assert!(layers.iter().all(|m| m.value.is_finite()));
        assert_eq!(listed(json, "per_layer"), names(layers));
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed(json, "workloads"), workloads);
    }
}
