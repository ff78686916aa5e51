//! End-to-end check of the `--json` records of `table1` and `r_sweep`:
//! every line parses with the strict `obs::json` reader, and each record's
//! keys come out in the order its struct declares them.

use std::process::Command;

use obs::json::JsonValue;

/// Run `bin` with `args` plus `--json <temp file>` and parse every line.
fn json_lines(bin: &str, args: &[&str]) -> Vec<JsonValue> {
    let path = std::env::temp_dir().join(format!(
        "{}-json-{}.jsonl",
        bin.rsplit('/').next().unwrap(),
        std::process::id()
    ));
    let out = Command::new(bin)
        .args(args)
        .args(["--json", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("json written");
    std::fs::remove_file(&path).ok();
    text.lines()
        .map(|line| JsonValue::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect()
}

fn keys(record: &JsonValue) -> Vec<&str> {
    let members = record.as_object().expect("each line is an object");
    members.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn table1_records_parse_with_keys_in_declaration_order() {
    let records = json_lines(env!("CARGO_BIN_EXE_table1"), &["--n", "64"]);
    assert_eq!(records.len(), 6, "one record per paper algorithm");
    for r in &records {
        assert_eq!(
            keys(r),
            [
                "algorithm",
                "n",
                "measured",
                "cost_units",
                "cost_ms",
                "reads_per_elt",
                "writes_per_elt",
                "barriers",
                "hybrid_r",
                "host_seconds",
            ]
        );
        assert_eq!(r.get("n").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(r.get("measured").and_then(JsonValue::as_bool), Some(true));
        assert!(r.get("host_seconds").and_then(JsonValue::as_f64).is_some());
    }
}

#[test]
fn r_sweep_records_parse_with_keys_in_declaration_order() {
    let records = json_lines(env!("CARGO_BIN_EXE_r_sweep"), &["--measure-n", "64"]);
    assert!(!records.is_empty());
    for r in &records {
        assert_eq!(keys(r), ["n", "r", "cost_units", "measured"]);
        let ratio = r.get("r").and_then(JsonValue::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
    }
    let measured = |r: &JsonValue| r.get("measured").and_then(JsonValue::as_bool);
    let at_64: Vec<_> = records
        .iter()
        .filter(|r| measured(r) == Some(true))
        .collect();
    assert!(!at_64.is_empty(), "the measured rows at --measure-n");
    for r in at_64 {
        assert_eq!(r.get("n").and_then(JsonValue::as_u64), Some(64));
    }
}
