//! `BENCHMARK.json`, the one place the metric names, units, directions and
//! bounds are written down: the run reads it to know what to report, and
//! `compare` to know how far a metric may move.

use std::fs;

use crate::json::Json;

pub const SPEC_FILE: &str = "BENCHMARK.json";

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Self, String> {
        let text = fs::read_to_string(SPEC_FILE)
            .map_err(|e| format!("{SPEC_FILE}: {e} (run from the root of the checkout)"))?;
        Self::parse(&text).map_err(|e| format!("{SPEC_FILE}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("no array '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("a metric of '{key}' has no '{field}'"))
                    };
                    Ok(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        higher_is_better: text("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no 'run_seconds'")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn the_committed_file_names_the_harness_workloads() {
        // `cargo test` runs in `benchmark/`; the file is one level up.
        let text = fs::read_to_string(format!("../{SPEC_FILE}")).unwrap();
        let spec = Spec::parse(&text).unwrap();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
