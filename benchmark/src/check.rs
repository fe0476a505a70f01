//! `gem-ladder check A.json B.json`: is result set B no worse than A?
//!
//! End-to-end metrics are held against the bounds in `BENCHMARK.json`;
//! simulated statistics, compile-result sizes and output digests must be
//! identical, so a host-only speed-up that changes what is simulated is
//! flagged even when every timing improved.

use crate::spec::Bound;
use crate::stats::{iqr_share, median};
use gem_telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The sets' own run-to-run spread exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
    Regression,
}

/// Run-to-run spread of one set as a share of its median: the
/// interquartile range from four runs up, the full range for two or
/// three, nothing for a single run.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            (max - min) / median(values)
        }
        _ => iqr_share(values),
    }
}

/// Judges one metric on one workload: `a` are the reference set's runs,
/// `b` the candidate's.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let better = |x: f64, y: f64| {
        if bound.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let separated = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread(a).max(spread(b)) > bound.bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

fn runs<'a>(set: &'a Json, workload: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

fn untraced_values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(set, workload)
        .iter()
        .filter(|r| r.get("detail").and_then(|d| d.get("trace")) == Some(&Json::Bool(false)))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Every `(key, value)` that must repeat exactly, over all runs of a
/// workload in one set: the exact counts, and the output digest with the
/// cycle count it covers.
fn exact_facts(set: &Json, workload: &str) -> Vec<(String, String)> {
    let mut facts = Vec::new();
    for run in runs(set, workload) {
        let Some(detail) = run.get("detail") else {
            continue;
        };
        if let Some(exact) = detail.get("exact").and_then(Json::as_object) {
            facts.extend(exact.iter().map(|(k, v)| (k.clone(), v.to_string())));
        }
        for key in ["output_digest", "digest_cycles"] {
            if let Some(v) = detail.get(key) {
                facts.push((key.to_string(), v.to_string()));
            }
        }
    }
    facts
}

/// Compares two result sets; prints one row per (workload, metric) and
/// returns whether B passes.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> bool {
    let mut pass = true;
    let seed = |s: &Json| s.get("provenance").and_then(|p| p.get("seed")).cloned();
    let same_seed = seed(a) == seed(b);
    let workloads = a.get("workloads").and_then(Json::as_object).unwrap_or(&[]);
    for (workload, _) in workloads {
        for set in [a, b] {
            for run in runs(set, workload) {
                if run.get("failed").and_then(Json::as_u64) != Some(0) {
                    println!("{workload:<16} a run failed its correctness check");
                    pass = false;
                }
            }
        }
        for bound in bounds {
            let va = untraced_values(a, workload, &bound.name);
            let vb = untraced_values(b, workload, &bound.name);
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<20} missing from one set", bound.name);
                pass = false;
                continue;
            }
            let (verdict, worse_by) = judge(&va, &vb, bound);
            println!(
                "{workload:<16} {:<20} A {:>14.4}  B {:>14.4}  worse by {:>7.2} %  bound {:>5.1} %  {}",
                bound.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            pass &= verdict != Verdict::Regression;
        }
        // Exact facts: every value recorded under one key, in either set,
        // must be the same value. Digests depend on the seed.
        let mut facts = exact_facts(a, workload);
        facts.extend(exact_facts(b, workload));
        facts.sort();
        facts.dedup();
        for pair in facts.windows(2) {
            let is_digest = pair[0].0 == "output_digest";
            if pair[0].0 == pair[1].0 && (same_seed || !is_digest) {
                println!(
                    "{workload:<16} {:<34} differs: {} vs {}  MISMATCH",
                    pair[0].0, pair[0].1, pair[1].1
                );
                pass = false;
            }
        }
        facts.dedup_by(|x, y| x.0 == y.0);
        println!(
            "{workload:<16} {} exact counts and digests compared",
            facts.len()
        );
    }
    if !same_seed {
        println!("the sets were run with different seeds: output digests not compared");
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "setup_s".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "rate".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_a_regression() {
        assert_eq!(judge(&[10.0], &[10.9], &lower(0.1)).0, Verdict::Ok);
        assert_eq!(judge(&[10.0], &[11.1], &lower(0.1)).0, Verdict::Regression);
        assert_eq!(judge(&[500.0], &[460.0], &higher(0.1)).0, Verdict::Ok);
        assert_eq!(
            judge(&[500.0], &[440.0], &higher(0.1)).0,
            Verdict::Regression
        );
        // Improvements of any size pass.
        assert_eq!(judge(&[10.0], &[1.0], &lower(0.1)).0, Verdict::Ok);
        assert_eq!(judge(&[500.0], &[5000.0], &higher(0.1)).0, Verdict::Ok);
    }

    #[test]
    fn noisy_sets_stay_open_unless_fully_separated() {
        let noisy = [10.0, 14.0, 9.0, 13.0, 11.0];
        let (v, _) = judge(&noisy, &[12.0, 12.5, 11.5, 12.2, 12.1], &lower(0.1));
        assert_eq!(v, Verdict::Unresolved);
        // Every run of B beats every run of A: resolved despite the noise.
        let (v, _) = judge(&noisy, &[5.0, 6.0, 5.5, 5.2, 5.8], &lower(0.1));
        assert_eq!(v, Verdict::Ok);
    }

    fn set(seed: u64, setup: f64, gates: u64, digest: &str) -> Json {
        let text = format!(
            r#"{{"provenance": {{"seed": {seed}}}, "workloads": {{"w": {{"runs": [
                {{"failed": 0, "metrics": {{"setup_s": {{"value": {setup}, "unit": "s"}}}},
                  "detail": {{"trace": false, "output_digest": "{digest}", "digest_cycles": 8,
                             "exact": {{"synth.gates": {gates}.0}}}}}}]}}}}}}"#
        );
        gem_telemetry::parse_json(&text).expect("test document parses")
    }

    #[test]
    fn compare_flags_regressions_and_changed_counts() {
        let bounds = [lower(0.1)];
        let a = set(1, 4.0, 100, "aa");
        assert!(compare(&a, &set(1, 4.2, 100, "aa"), &bounds));
        assert!(
            !compare(&a, &set(1, 5.0, 100, "aa"), &bounds),
            "slower set-up"
        );
        assert!(
            !compare(&a, &set(1, 4.0, 101, "aa"), &bounds),
            "a gate count moved"
        );
        assert!(
            !compare(&a, &set(1, 4.0, 100, "ab"), &bounds),
            "outputs changed"
        );
        assert!(
            compare(&a, &set(2, 4.0, 100, "ab"), &bounds),
            "other seed, other digest"
        );
    }
}
