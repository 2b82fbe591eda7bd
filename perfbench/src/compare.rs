//! `--compare A.json B.json`: one verdict per (workload, metric) of two
//! runs' `benchmark.json` files, B judged against A.
//!
//! End-to-end metrics take their bound and direction from
//! `BENCHMARK.json`. A metric is *unresolved* when either run's spread
//! (interquartile range / median over its repetitions) exceeds the
//! bound, unless
//! every repetition of one run reads better than every repetition of
//! the other; otherwise it is *worse* or *better* when the medians differ
//! by more than the bound, else *unchanged*. Deterministic outcomes must
//! match exactly. Runs with different seeds or worker counts are
//! refused.

use std::path::Path;

use safehome_types::json::Json;

use crate::stats::quartiles;
use crate::OUTCOMES;

/// How one metric is judged.
struct Rule {
    name: String,
    /// `None`: deterministic, any change counts.
    bound: Option<f64>,
    higher_is_better: bool,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// A JSON number as `f64`, whether it was written as an integer or not.
pub fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn members(j: Option<&Json>) -> &[(String, Json)] {
    match j {
        Some(Json::Obj(m)) => m,
        _ => &[],
    }
}

fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for m in bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str);
        rules.push(Rule {
            name: field("name")
                .ok_or("an end_to_end metric has no name")?
                .to_string(),
            bound: Some(num(m.get("bound")).ok_or("an end_to_end metric has no bound")?),
            higher_is_better: field("better") == Some("higher"),
        });
    }
    rules.extend(OUTCOMES.iter().map(|&(name, _, higher)| Rule {
        name: name.to_string(),
        bound: None,
        higher_is_better: higher,
    }));
    Ok(rules)
}

/// One run's reading of a metric: its median and every repetition's
/// sample.
struct Reading {
    value: f64,
    samples: Vec<f64>,
}

fn reading(m: &Json) -> Option<Reading> {
    Some(Reading {
        value: num(m.get("value"))?,
        samples: m
            .get("samples")?
            .as_array()?
            .iter()
            .map(|v| num(Some(v)))
            .collect::<Option<_>>()?,
    })
}

fn judge(rule: &Rule, a: &Reading, b: &Reading) -> &'static str {
    // Orient so that larger is always worse.
    let worse = |x: f64| if rule.higher_is_better { -x } else { x };
    let (va, vb) = (worse(a.value), worse(b.value));
    let Some(bound) = rule.bound else {
        return match vb.partial_cmp(&va) {
            Some(std::cmp::Ordering::Equal) => "unchanged",
            Some(std::cmp::Ordering::Less) => "better",
            _ => "worse",
        };
    };
    let spread = |r: &Reading| {
        let (q1, q3) = quartiles(&r.samples);
        (q3 - q1) / r.value.abs()
    };
    if spread(a) > bound || spread(b) > bound {
        // Oriented (best, worst) repetition of each run.
        let range = |r: &Reading| {
            r.samples
                .iter()
                .map(|&x| worse(x))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x), hi.max(x))
                })
        };
        let ((a_best, a_worst), (b_best, b_worst)) = (range(a), range(b));
        return if b_worst < a_best {
            "better"
        } else if b_best > a_worst {
            "worse"
        } else {
            "unresolved"
        };
    }
    let change = (vb - va) / va.abs();
    if change > bound {
        "worse"
    } else if change < -bound {
        "better"
    } else {
        "unchanged"
    }
}

/// Prints the verdict table; `Ok(true)` when nothing is worse or
/// unresolved.
pub fn compare(a_path: &Path, b_path: &Path, bench_path: &Path) -> Result<bool, String> {
    let rules = rules(&load(bench_path)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "workers"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare runs with different {key}: {} vs {}",
                a.get(key).map_or("none".into(), Json::to_string_compact),
                b.get(key).map_or("none".into(), Json::to_string_compact),
            ));
        }
    }
    let mut clean = true;
    println!("workload metric A B verdict");
    for (workload, wa) in members(a.get("workloads")) {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        for section in ["metrics", "outcomes"] {
            for (metric, ma) in members(wa.get(section)) {
                let Some(rule) = rules.iter().find(|r| &r.name == metric) else {
                    continue;
                };
                let mb = wb.and_then(|w| w.get(section)).and_then(|s| s.get(metric));
                let (ra, rb) = (reading(ma), mb.and_then(reading));
                let verdict = match (&ra, &rb) {
                    (Some(x), Some(y)) => judge(rule, x, y),
                    _ => "missing",
                };
                clean &= matches!(verdict, "better" | "unchanged");
                let show =
                    |r: &Option<Reading>| r.as_ref().map_or("-".into(), |r| r.value.to_string());
                println!("{workload} {metric} {} {} {verdict}", show(&ra), show(&rb));
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: Option<f64>, higher: bool) -> Rule {
        Rule {
            name: "m".into(),
            bound,
            higher_is_better: higher,
        }
    }

    fn run(samples: &[f64]) -> Reading {
        Reading {
            value: crate::stats::median(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn bounded_verdicts() {
        let r = rule(Some(0.1), true);
        let base = run(&[98.0, 100.0, 102.0]);
        assert_eq!(judge(&r, &base, &run(&[94.0, 95.0, 96.0])), "unchanged");
        assert_eq!(judge(&r, &base, &run(&[79.0, 80.0, 81.0])), "worse");
        assert_eq!(judge(&r, &base, &run(&[119.0, 120.0, 121.0])), "better");
        // Wide spread: unresolved unless one run dominates the other.
        let wide = run(&[80.0, 100.0, 120.0]);
        assert_eq!(judge(&r, &wide, &run(&[85.0, 95.0, 105.0])), "unresolved");
        assert_eq!(judge(&r, &wide, &run(&[150.0, 200.0, 250.0])), "better");
        let lower = rule(Some(0.1), false);
        assert_eq!(judge(&lower, &run(&[1.0]), &run(&[1.2])), "worse");
    }

    #[test]
    fn exact_verdicts() {
        let r = rule(None, false);
        assert_eq!(judge(&r, &run(&[0.5]), &run(&[0.5])), "unchanged");
        assert_eq!(judge(&r, &run(&[0.5]), &run(&[0.4])), "better");
        assert_eq!(judge(&r, &run(&[0.5]), &run(&[0.6])), "worse");
    }
}
