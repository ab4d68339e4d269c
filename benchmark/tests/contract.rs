//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics this package reports.

use csd_benchmark::run::{END_TO_END, PER_LAYER};
use csd_benchmark::workload::WORKLOADS;

/// The `"name"` values of the objects in the JSON array under `key`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let array = &json[start..];
    let array = &array[..array.find(']').expect("array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("name value") + 1..];
            rest[..rest.find('"').expect("name value closes")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&json, "workloads"), workloads);
    assert_eq!(names(&json, "end_to_end"), END_TO_END.map(String::from));
    assert_eq!(names(&json, "per_layer"), PER_LAYER.map(String::from));
}
