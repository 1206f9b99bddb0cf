//! `harness compare a.json b.json`: the bounds of `BENCHMARK.json` applied
//! to two sets of runs, one row per metric and workload.

use std::collections::BTreeMap;
use std::fs;

use crate::json::Json;
use crate::spec::{Metric, Spec};
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;

/// `workload → metric → one value per run`.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn load_set(path: &str) -> Result<Set, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn parse_set(text: &str) -> Result<Set, String> {
    let root = Json::parse(text)?;
    let runs = root
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no array 'runs'")?;
    let mut set = Set::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no 'workload'")?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or("a run has no 'result.metrics'")?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no value"))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Within,
    /// Better by more than the bound.
    Better,
    /// The spread of either side exceeds the bound and the sets overlap:
    /// the runs cannot tell.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
}

/// Judge `b` against the baseline `a` for one metric.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only bounded metrics are judged");
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    // How much worse `b`'s median is, as a share of `a`'s.
    let worse = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if worse > bound {
        return Verdict::Regression;
    }
    if spread(a).max(spread(b)) > bound {
        // Too noisy to call unchanged — unless every run of `b` reads
        // better than every run of `a`.
        let every_run_better = if metric.higher_is_better {
            b.iter().all(|x| a.iter().all(|y| x > y))
        } else {
            b.iter().all(|x| a.iter().all(|y| x < y))
        };
        if !every_run_better {
            return Verdict::Unresolved;
        }
    }
    if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn values<'a>(set: &'a Set, workload: &str, metric: &str) -> Result<&'a [f64], String> {
    set.get(workload)
        .and_then(|m| m.get(metric))
        .filter(|v| !v.is_empty())
        .map(Vec::as_slice)
        .ok_or_else(|| format!("has no {metric} for {workload}"))
}

/// Print one row per end-to-end metric and workload; `Ok(false)` when any
/// row is a regression.
pub fn compare(spec: &Spec, a: &Set, b: &Set) -> Result<bool, String> {
    println!(
        "{:<18} {:<20} {:>6} {:>38} {:>38} {:>8}  verdict",
        "workload", "metric", "bound", "a: q1 / median / q3", "b: q1 / median / q3", "change"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(a, workload, &metric.name).map_err(|e| format!("a {e}"))?,
                values(b, workload, &metric.name).map_err(|e| format!("b {e}"))?,
            );
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let verdict = judge(metric, va, vb);
            clean &= verdict != Verdict::Regression;
            let cell = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
            println!(
                "{:<18} {:<20} {:>5.0}% {:>38} {:>38} {:>+7.1}%  {}",
                workload,
                format!("{} [{}]", metric.name, metric.unit),
                metric.bound.unwrap_or(0.0) * 100.0,
                cell(qa),
                cell(qb),
                (qb[1] / qa[1] - 1.0) * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "pass_ms_p50".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    const RUNS: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn an_identical_pair_passes_and_a_doubled_one_is_flagged() {
        let lower = metric(false);
        assert_eq!(judge(&lower, &RUNS, &RUNS), Verdict::Within);
        let doubled: Vec<f64> = RUNS.iter().map(|v| v * 2.0).collect();
        assert_eq!(judge(&lower, &RUNS, &doubled), Verdict::Regression);
        assert_eq!(judge(&lower, &doubled, &RUNS), Verdict::Better);
        // The same numbers as a throughput: doubling is the good direction.
        let higher = metric(true);
        assert_eq!(judge(&higher, &RUNS, &doubled), Verdict::Better);
        assert_eq!(judge(&higher, &doubled, &RUNS), Verdict::Regression);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let lower = metric(false);
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&lower, &noisy, &RUNS), Verdict::Unresolved);
        let all_better = [60.0, 70.0, 65.0, 75.0, 62.0];
        assert_eq!(judge(&lower, &noisy, &all_better), Verdict::Better);
    }

    #[test]
    fn sets_are_read_back_from_what_a_run_writes() {
        let text = r#"{"runs": [
            {"workload": "tenancy", "seed": 1, "result": {"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 2.5, "unit": "s"}}}},
            {"workload": "tenancy", "seed": 2, "result": {"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 2.75, "unit": "s"}}}}
        ]}"#;
        let set = parse_set(text).unwrap();
        assert_eq!(set["tenancy"]["setup_s"], vec![2.5, 2.75]);
        assert!(parse_set("{}").is_err());
    }
}
