//! Every post-mortem bundle committed under `results/` must validate
//! against the current flight schema, so a schema change cannot leave the
//! committed examples silently stale.

#[test]
fn committed_postmortem_bundles_validate() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut bundles: Vec<_> = std::fs::read_dir(&results)
        .expect("results/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("postmortem-") && name.ends_with(".json")
        })
        .collect();
    bundles.sort();
    assert!(!bundles.is_empty(), "no committed bundles under results/");
    for path in &bundles {
        let text = std::fs::read_to_string(path).unwrap();
        let stats = obs::flight::validate(&text)
            .unwrap_or_else(|e| panic!("{} is not a valid bundle: {e}", path.display()));
        assert!(stats.events > 0, "{} records no events", path.display());
    }
}
