//! The result file `run` writes and `compare` judges.
//!
//! Each end-to-end metric keeps its per-round values (the metric's
//! statistic over that round's samples): rounds are the independent,
//! interleaved units, so spreads and verdicts are computed over them. The
//! pooled samples give the reported value, median and tail.

use maps_obs::Json;

use crate::spec::{Metric, END_TO_END, RUN_ONLY};
use crate::stats::{median, quartiles, spread, Summary};
use crate::Outcome;

/// Schema version of the result file.
pub const SCHEMA_VERSION: u64 = 1;

/// One end-to-end metric of one workload across rounds.
#[derive(Debug, Clone)]
pub struct Series {
    /// The metric.
    pub metric: Metric,
    /// Per-round values.
    pub rounds: Vec<f64>,
    /// Every sample of every round.
    pub pooled: Vec<f64>,
}

/// The end-to-end series a workload's rounds produced, in spec order.
pub fn series(rounds: &[Outcome]) -> Vec<Series> {
    END_TO_END
        .iter()
        .chain(&RUN_ONLY)
        .filter_map(|m| {
            let (rounds, pooled): (Vec<f64>, Vec<f64>) = if m.name == "failed_frac" {
                let v: Vec<f64> = rounds.iter().map(Outcome::failed_frac).collect();
                (v.clone(), v)
            } else {
                let per: Vec<&[f64]> = rounds.iter().filter_map(|o| o.samples_of(m.name)).collect();
                (per.iter().map(|s| m.stat.of(s)).collect(), per.concat())
            };
            (!rounds.is_empty()).then_some(Series {
                metric: *m,
                rounds,
                pooled,
            })
        })
        .collect()
}

/// A summary line: `workload metric value unit median=… spread=… p90=…
/// n=… rounds=… round_spread=…`.
pub fn describe(workload: &str, s: &Series) -> String {
    let pooled = Summary::of(&s.pooled);
    format!(
        "{workload} {} {} {} {} rounds={} round_spread={:.2}%",
        s.metric.name,
        s.metric.stat.of(&s.pooled),
        s.metric.unit,
        pooled.describe(),
        s.rounds.len(),
        spread(&s.rounds) * 100.0
    )
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Float(v)).collect())
}

/// The JSON entry of one series.
pub fn series_json(s: &Series) -> Json {
    let pooled = Summary::of(&s.pooled);
    let (q1, q3) = quartiles(&s.rounds);
    let tail = pooled.tail.map_or(Json::Null, |(p, v)| {
        Json::Obj(vec![
            ("percentile".to_string(), Json::UInt(u64::from(p))),
            ("value".to_string(), Json::Float(v)),
        ])
    });
    Json::Obj(vec![
        ("unit".to_string(), Json::Str(s.metric.unit.to_string())),
        ("bound".to_string(), Json::Float(s.metric.bound)),
        (
            "value".to_string(),
            Json::Float(s.metric.stat.of(&s.pooled)),
        ),
        ("median".to_string(), Json::Float(pooled.median)),
        ("samples".to_string(), Json::UInt(pooled.n as u64)),
        ("tail".to_string(), tail),
        ("min".to_string(), Json::Float(pooled.min)),
        ("max".to_string(), Json::Float(pooled.max)),
        ("rounds".to_string(), floats(&s.rounds)),
        ("round_q1".to_string(), Json::Float(q1)),
        ("round_q3".to_string(), Json::Float(q3)),
        ("round_spread".to_string(), Json::Float(spread(&s.rounds))),
    ])
}

/// A `compare` judgement per choosing-metrics §6–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least [`MIN_PAIRS`] round pairs, wins nine tenths of them
    /// by more than the base's quartile distance (or, under wide noise,
    /// every new round beats every base round).
    Better,
    /// The new median is worse than the base median by more than the
    /// bound.
    Worse,
    /// Within the bound, without a demonstrated gain.
    Unchanged,
    /// Round-to-round spread is wider than the bound, so "unchanged"
    /// cannot be shown.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Rounds each side needs before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Judges lower-is-better per-round values `new` against `base`. A zero
/// bound marks a count that must not grow (`failed_frac`): any new round
/// above the base's worst is worse.
pub fn verdict(base: &[f64], new: &[f64], bound: f64) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let pairs = base.len().min(new.len());
    let all_better = pairs >= MIN_PAIRS && max(new) < min(base);
    if bound == 0.0 {
        return if max(new) > max(base) {
            Verdict::Worse
        } else if all_better {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
    }
    let noise = spread(base).max(spread(new));
    if noise > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if mn > mb * (1.0 + bound) {
        return Verdict::Worse;
    }
    let wins = base.iter().zip(new).filter(|(b, n)| n < b).count();
    let (q1, q3) = quartiles(base);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && mb - mn > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// A workload's metrics as read back from a result file:
/// `(metric, unit, bound, rounds)`.
type Rows = Vec<(String, String, f64, Vec<f64>)>;

fn read_result(path: &str) -> Result<Vec<(String, Rows)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!(
            "{path}: not a maps-perf result (schema {SCHEMA_VERSION})"
        ));
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no workloads"));
    };
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            let Some(Json::Obj(metrics)) = w.get("metrics") else {
                return Err(format!("{path}: {name} has no metrics"));
            };
            let rows = metrics
                .iter()
                .filter_map(|(metric, m)| {
                    let Some(Json::Arr(rounds)) = m.get("rounds") else {
                        return None;
                    };
                    Some((
                        metric.clone(),
                        m.get("unit")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                        rounds.iter().filter_map(Json::as_f64).collect(),
                    ))
                })
                .collect();
            Ok((name.to_string(), rows))
        })
        .collect()
}

/// Prints one verdict line per workload × end-to-end metric present in
/// both files; returns whether any is worse.
pub fn compare(base: &str, new: &str) -> Result<bool, String> {
    let base = read_result(base)?;
    let new = read_result(new)?;
    let mut worse = false;
    println!("workload metric unit base_median [q1 q3] new_median [q1 q3] delta bound verdict");
    for (workload, rows) in &base {
        let Some((_, new_rows)) = new.iter().find(|(w, _)| w == workload) else {
            println!("{workload} (missing from the new result)");
            continue;
        };
        for (metric, unit, bound, b) in rows {
            let Some((_, _, _, n)) = new_rows.iter().find(|(m, ..)| m == metric) else {
                continue;
            };
            let v = verdict(b, n, *bound);
            worse |= v == Verdict::Worse;
            let (bq1, bq3) = quartiles(b);
            let (nq1, nq3) = quartiles(n);
            let (mb, mn) = (median(b), median(n));
            let delta = if mb == 0.0 { mn - mb } else { (mn - mb) / mb };
            println!(
                "{workload} {metric} {unit} {mb:.6} [{bq1:.6} {bq3:.6}] {mn:.6} [{nq1:.6} {nq3:.6}] \
                 {:+.2}% {:.0}% {}",
                delta * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        // Same distribution: unchanged.
        assert_eq!(verdict(&base, &base, 0.1), Verdict::Unchanged);
        // 20 % slower, tight noise: worse.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slow, 0.1), Verdict::Worse);
        // 5 % slower is within a 10 % bound: unchanged, not better.
        let bit_slow: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&base, &bit_slow, 0.1), Verdict::Unchanged);
        // 20 % faster on every pair: better, given ten pairs.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&base, &fast, 0.1), Verdict::Better);
        assert_eq!(verdict(&base[..3], &fast[..3], 0.1), Verdict::Unchanged);
        // Faster median but losing too many pairs: unchanged.
        let mixed = [8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 10.5, 10.5];
        assert_eq!(verdict(&base, &mixed, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn wide_noise_is_unresolved_unless_every_run_wins() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 8.0, 13.0];
        let same = noisy;
        assert_eq!(verdict(&noisy, &same, 0.1), Verdict::Unresolved);
        // Even a clearly worse median is unresolved under that noise.
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&noisy, &worse, 0.1), Verdict::Unresolved);
        // Every new run below every base run: better despite the noise,
        // but only with enough rounds to claim it.
        let all_better = [5.0, 5.5, 4.0, 5.9, 4.5, 5.2, 4.8, 5.1, 5.3, 4.9];
        assert_eq!(verdict(&noisy, &all_better, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&noisy[..3], &all_better[..3], 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn zero_bound_counts_flags_any_new_failure() {
        assert_eq!(
            verdict(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.0], 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0, 0.0, 0.0], &[0.0, 0.1, 0.1], 0.0),
            Verdict::Worse
        );
    }
}
