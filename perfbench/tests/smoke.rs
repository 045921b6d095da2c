//! Smoke test of the benchmark: every workload runs clean at a tiny scale,
//! traced and untraced, on the default seed and on a second one, and emits
//! exactly the metrics `BENCHMARK.json` names, each with its unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for these two documents).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing characters after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("{other:?} is not an object"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, literal: &str) {
    assert!(b[*pos..].starts_with(literal.as_bytes()), "expected {literal} at {pos}");
    *pos += literal.len();
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b[*pos] == b'}' {
                *pos += 1;
                return Json::Obj(map);
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos) else { panic!("object key at {pos}") };
                skip_ws(b, pos);
                expect(b, pos, ":");
                let value = parse_value(b, pos);
                assert!(map.insert(key.clone(), value).is_none(), "duplicate key {key}");
                skip_ws(b, pos);
                match b[*pos] {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Json::Obj(map);
                    }
                    other => panic!("unexpected {} in object", other as char),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b[*pos] == b']' {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b[*pos] {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    other => panic!("unexpected {} in array", other as char),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not expected here");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("UTF-8 string"))
        }
        b't' => {
            expect(b, pos, "true");
            Json::Bool(true)
        }
        b'f' => {
            expect(b, pos, "false");
            Json::Bool(false)
        }
        b'n' => {
            expect(b, pos, "null");
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ASCII number");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
        }
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The repository's `BENCHMARK.json`.
fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
}

/// `(name, unit)` of every metric `spec` lists under `section`.
fn declared(spec: &Json, section: &str) -> BTreeMap<String, String> {
    spec.get(section)
        .arr()
        .iter()
        .map(|metric| (metric.get("name").str().to_string(), metric.get("unit").str().to_string()))
        .collect()
}

/// Runs one workload tiny and checks its result line.
fn smoke(workload: &str) {
    let spec = spec();
    assert!(
        spec.get("workloads").arr().iter().any(|w| w.get("name").str() == workload),
        "{workload} is not declared"
    );
    for (trace, seed) in [("0", None), ("1", Some("7"))] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_perfbench"));
        command.args(["--workload", workload, "--seconds", "0.3", "--trace", trace, "--tiny"]);
        if let Some(seed) = seed {
            command.args(["--seed", seed]);
        }
        let output = command.output().expect("the benchmark binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = Json::parse(stdout.trim().lines().last().expect("a result line"));
        assert_eq!(
            result.obj().keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload} --trace {trace}");
        assert_eq!(result.get("failed"), &Json::Num(0.0));
        let Json::Num(attempted) = result.get("attempted") else { panic!("attempted") };
        assert!(*attempted >= 1.0);

        let expected = declared(&spec, if trace == "0" { "end_to_end" } else { "per_layer" });
        let emitted: BTreeMap<String, String> = result
            .get("metrics")
            .obj()
            .iter()
            .map(|(name, metric)| {
                assert!(matches!(metric.get("value"), Json::Num(_)), "{name} value");
                assert_eq!(metric.obj().len(), 2, "{name} has exactly a value and a unit");
                (name.clone(), metric.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(emitted, expected, "{workload} --trace {trace}: metrics and units");
        for name in emitted.keys() {
            assert!(valid_name(name), "metric name {name}");
        }
    }
    assert!(valid_name(workload));
}

#[test]
fn cold_sweep_runs_tiny() {
    smoke("cold-sweep");
}

#[test]
fn warm_resweep_runs_tiny() {
    smoke("warm-resweep");
}

#[test]
fn recluster_runs_tiny() {
    smoke("recluster");
}
