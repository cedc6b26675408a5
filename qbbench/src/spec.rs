//! `BENCHMARK.json`, compiled in: the workload names, metric names, units,
//! directions and bounds that `run` must emit and `compare` judges by.

use crate::bench::Metric;
use crate::json::Json;

/// `BENCHMARK.json` at the root of the repository.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Checks that `metrics` are exactly `wanted`, in order, with their units.
pub fn check(metrics: &[Metric], wanted: &[MetricSpec]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let want: Vec<(&str, &str)> = wanted
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "emitted metrics differ from BENCHMARK.json: got {got:?}, want {want:?}"
        ))
    }
}

pub fn spec() -> Result<Spec, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("BENCHMARK.json has no {key:?}"));
    let text = |j: &Json, key: &str| -> Result<String, String> {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry lacks {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let entries = field(key)?
            .as_array()
            .ok_or(format!("BENCHMARK.json: {key:?} is not a list"))?;
        entries
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    lower_is_better: text(m, "better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = field("workloads")?
        .as_array()
        .ok_or("BENCHMARK.json: \"workloads\" is not a list")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: field("run_seconds")?
            .as_f64()
            .ok_or("BENCHMARK.json: \"run_seconds\" is not a number")?,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
