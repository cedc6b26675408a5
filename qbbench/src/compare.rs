//! `qbbench compare A.jsonl B.jsonl`: for each workload × end-to-end
//! metric, the median change from the runs in A to the runs in B, judged
//! against the metric's bound in `BENCHMARK.json`.
//!
//! A pair is `unresolved` when either side's interquartile range exceeds
//! the bound (the runs cannot tell such a change from noise), else a
//! `regression` when B's median is worse than A's by more than the bound,
//! else `ok`. Exits 1 unless every pair is `ok`.

use std::collections::HashMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::{spec, stats, Usage};

type Samples = HashMap<(String, String), Vec<f64>>;

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, Usage> {
    let spec = spec::spec().map_err(Usage)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread"
    );
    let mut clean = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                println!("{w:<18} {:<18} missing runs", m.name);
                clean = false;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let (ma, mb) = (stats::median(xa), stats::median(xb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let worse = if m.lower_is_better { change } else { -change };
            let spread = stats::spread(xa).max(stats::spread(xb));
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                "regression"
            } else {
                "ok"
            };
            clean &= verdict == "ok";
            println!(
                "{w:<18} {:<18} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>6.1}% {:>7.2}%  {verdict}",
                m.name,
                100.0 * worse,
                100.0 * bound,
                100.0 * spread
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The end-to-end values of every untraced run record in a file; other
/// lines (tables, result lines, traced runs) are skipped.
fn load(path: &str) -> Result<Samples, Usage> {
    let text = std::fs::read_to_string(path).map_err(|e| Usage(format!("{path}: {e}")))?;
    let mut samples = Samples::new();
    for line in text.lines() {
        let Ok(rec) = Json::parse(line) else { continue };
        let (Some(workload), Some(0.0)) = (
            rec.get("workload").and_then(Json::as_str),
            rec.get("trace").and_then(Json::as_f64),
        ) else {
            continue;
        };
        for (name, m) in rec.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    if samples.is_empty() {
        return Err(Usage(format!(
            "{path} holds no untraced qbbench run records"
        )));
    }
    Ok(samples)
}
