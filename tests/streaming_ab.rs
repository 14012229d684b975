//! A/B oracles for the streaming replay data path: the streaming SWF load
//! (`SwfStream` → `clean_swf_stream` → `Workload`) must be bit-identical
//! to the legacy in-memory path (`read_to_string` → `parse_swf` →
//! `clean_trace` → `Workload::from_swf`) — same jobs, same simulation
//! outcomes, same result-file bytes, same errors.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use bsld::core::campaign::{
    run_campaign, Campaign, CampaignOptions, RepRow, MANIFEST_FILE, RESULTS_FILE,
};
use bsld::core::scenario::{run_many, Scenario, ScenarioError, ScenarioSet, WorkloadSpec};
use bsld::core::{sweep_report, CellOutcome, ScenarioResult};
use bsld::sched::SimError;
use bsld::workload::profiles::TraceProfile;
use bsld::workload::Workload;
use std::path::PathBuf;

/// The in-memory SWF load path, the streaming path's A/B oracle:
/// `read_to_string` → `parse_swf_with_abort` → `clean_trace_with_abort` →
/// `Workload::from_swf`. Errors map exactly as `WorkloadSpec::build` maps
/// them, so the two paths must be indistinguishable from the outside.
fn load_in_memory(spec: &WorkloadSpec) -> Result<Workload, ScenarioError> {
    let WorkloadSpec::Swf { path, clean } = spec else {
        panic!("the in-memory oracle only loads SWF specs");
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Io(format!("cannot read {}: {e}", path.display())))?;
    let mut trace = bsld::swf::parse_swf_with_abort(&text, None).map_err(|e| {
        if e.kind == bsld::swf::ParseErrorKind::Aborted {
            ScenarioError::Sim(SimError::Aborted)
        } else {
            ScenarioError::Workload(e.to_string())
        }
    })?;
    if *clean {
        bsld::swf::clean_trace_with_abort(&mut trace, &bsld::swf::CleanConfig::default(), None)
            .map_err(|_| ScenarioError::Sim(SimError::Aborted))?;
    }
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    Ok(Workload::from_swf(name, &trace))
}

/// Runs `sc` on the workload the in-memory oracle loads.
fn run_in_memory(sc: &Scenario) -> Result<ScenarioResult, ScenarioError> {
    let w = load_in_memory(&sc.workload)?;
    sc.run_prepared(&sc.simulator(&w)?, &w.jobs)
}

/// A scratch directory unique to this test (parallel tests must not
/// collide), removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bsld-ab-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The five calibrated profiles the paper evaluates.
fn profiles() -> Vec<(&'static str, TraceProfile)> {
    vec![
        ("ctc", TraceProfile::ctc()),
        ("sdsc", TraceProfile::sdsc()),
        ("blue", TraceProfile::sdsc_blue()),
        ("thunder", TraceProfile::llnl_thunder()),
        ("atlas", TraceProfile::llnl_atlas()),
    ]
}

fn assert_same_workload(a: &Workload, b: &Workload, tag: &str) {
    assert_eq!(a.cpus, b.cpus, "{tag}: cpus");
    assert_eq!(a.cluster_name, b.cluster_name, "{tag}: name");
    assert_eq!(a.jobs.len(), b.jobs.len(), "{tag}: job count");
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.id, y.id, "{tag}: id");
        assert_eq!(x.arrival, y.arrival, "{tag}: arrival");
        assert_eq!(x.cpus, y.cpus, "{tag}: cpus of {:?}", x.id);
        assert_eq!(x.runtime, y.runtime, "{tag}: runtime of {:?}", x.id);
        assert_eq!(x.requested, y.requested, "{tag}: requested of {:?}", x.id);
    }
}

/// All five workload profiles, exported to SWF and replayed: the streaming
/// build equals the in-memory pipeline reproduced step by step from the
/// public API.
#[test]
fn five_profiles_stream_and_in_memory_builds_are_bit_identical() {
    let scratch = Scratch::new("profiles");
    for (key, profile) in profiles() {
        let w = profile.scaled_cpus(128).generate(7, 400);
        let path = scratch.path(&format!("{key}.swf"));
        let text = bsld::swf::write_swf(&w.to_swf());
        std::fs::write(&path, &text).unwrap();

        let spec = WorkloadSpec::Swf {
            path: path.clone(),
            clean: true,
        };
        let streamed = spec.build().unwrap();

        // The legacy path, spelled out: slurp, parse, clean, convert.
        let mut trace = bsld::swf::parse_swf(&text).unwrap();
        bsld::swf::clean_trace(&mut trace, &bsld::swf::CleanConfig::default());
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap();
        let in_memory = Workload::from_swf(name, &trace);

        assert_same_workload(&streamed, &in_memory, key);
        assert!(!streamed.jobs.is_empty(), "{key}: replay must keep jobs");
    }
}

/// The `clean = false` replay path: a raw collect over the stream equals
/// the raw in-memory parse.
#[test]
fn unclean_replay_matches_raw_parse() {
    let scratch = Scratch::new("unclean");
    let path = scratch.path("raw.swf");
    let mut buf = Vec::new();
    bsld::swf::generate_swf(&mut buf, 500, 3, 64).unwrap();
    std::fs::write(&path, &buf).unwrap();

    let spec = WorkloadSpec::Swf {
        path: path.clone(),
        clean: false,
    };
    let streamed = spec.build().unwrap();
    let trace = bsld::swf::parse_swf(std::str::from_utf8(&buf).unwrap()).unwrap();
    let in_memory = Workload::from_swf("raw", &trace);
    assert_same_workload(&streamed, &in_memory, "unclean");
}

/// The end-to-end oracle: the same scenario sweep run through both load
/// paths yields byte-identical result tables and `scenario_results.csv`
/// contents.
#[test]
fn scenario_sweep_is_byte_identical_on_both_paths() {
    let scratch = Scratch::new("sweep");
    let path = scratch.path("sweep.swf");
    let w = TraceProfile::ctc().scaled_cpus(64).generate(11, 300);
    std::fs::write(&path, bsld::swf::write_swf(&w.to_swf())).unwrap();

    let scn = format!(
        "scenario = ab\nworkload = swf\nswf_path = {}\nsweep.bsld_th = 1.5 3\n",
        path.display()
    );
    let cells = ScenarioSet::parse(&scn).unwrap().expand().unwrap();
    let render = |results: Vec<Result<ScenarioResult, ScenarioError>>| {
        let rows: Vec<(String, Result<CellOutcome, String>)> = cells
            .iter()
            .zip(results)
            .map(|(sc, res)| {
                (
                    sc.name.clone(),
                    res.map(|r| CellOutcome::of(&r)).map_err(|e| e.to_string()),
                )
            })
            .collect();
        let report = sweep_report(&rows);
        (report.table, report.csv)
    };

    let streaming = render(run_many(&cells, 1));
    let in_memory = render(cells.iter().map(run_in_memory).collect());
    assert_eq!(streaming.0, in_memory.0, "result tables diverged");
    assert_eq!(streaming.1, in_memory.1, "scenario_results.csv diverged");
}

/// The campaign layer on both paths: `campaign_results.csv` aggregated
/// from streaming runs equals the one aggregated (via a resumed manifest)
/// from in-memory runs of the same replay.
#[test]
fn campaign_results_are_byte_identical_on_both_paths() {
    let scratch = Scratch::new("campaign");
    let path = scratch.path("campaign.swf");
    let w = TraceProfile::sdsc_blue().scaled_cpus(64).generate(5, 250);
    std::fs::write(&path, bsld::swf::write_swf(&w.to_swf())).unwrap();

    let scn = format!(
        "scenario = replay\nworkload = swf\nswf_path = {}\n",
        path.display()
    );
    let set = ScenarioSet::parse(&scn).unwrap();

    let stream_dir = scratch.path("out-stream");
    run_campaign(&set, &CampaignOptions::fresh(1, &stream_dir), None).unwrap();
    let streaming = std::fs::read(stream_dir.join(RESULTS_FILE)).unwrap();

    // Every unit's manifest row from an in-memory run; the resumed
    // campaign then only aggregates them.
    let mem_dir = scratch.path("out-mem");
    std::fs::create_dir_all(&mem_dir).unwrap();
    let campaign = Campaign::plan(&set).unwrap();
    let mut manifest = RepRow::HEADERS.join(",") + "\n";
    for unit in &campaign.units {
        let res = run_in_memory(&unit.scenario).unwrap();
        let row = RepRow::from_result(&campaign.cells[unit.cell], unit, &res);
        manifest += &(row.to_csv_line() + "\n");
    }
    std::fs::write(mem_dir.join(MANIFEST_FILE), manifest).unwrap();
    let outcome = run_campaign(&set, &CampaignOptions::resume(1, &mem_dir), None).unwrap();
    assert_eq!(
        outcome.resumed,
        campaign.units.len(),
        "every unit must come from the manifest"
    );
    let in_memory = std::fs::read(mem_dir.join(RESULTS_FILE)).unwrap();
    assert_eq!(streaming, in_memory, "campaign_results.csv diverged");
}

/// Error identity: a trace with a garbage tail (torn download) fails with
/// the *same* error through both load paths, and a truncated final line is
/// likewise path-independent.
#[test]
fn damaged_traces_fail_identically_on_both_paths() {
    let scratch = Scratch::new("damage");
    let mut good = Vec::new();
    bsld::swf::generate_swf(&mut good, 50, 1, 32).unwrap();

    for (tag, tail) in [
        ("garbage", "this is not an swf line at all\n"),
        ("truncated", "51 1000 -1 10\n"),
    ] {
        let path = scratch.path(&format!("{tag}.swf"));
        let mut bytes = good.clone();
        bytes.extend_from_slice(tail.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let spec = WorkloadSpec::Swf { path, clean: true };
        let streaming_err = spec.build().unwrap_err().to_string();
        let in_memory_err = load_in_memory(&spec).unwrap_err().to_string();
        assert_eq!(streaming_err, in_memory_err, "{tag}: errors diverged");
        assert!(
            streaming_err.contains("line"),
            "{tag}: error should locate the bad line: {streaming_err}"
        );
    }
}

/// A missing file is the same `cannot read …` error on both paths.
#[test]
fn missing_file_error_is_path_independent() {
    let spec = WorkloadSpec::Swf {
        path: PathBuf::from("/nonexistent/void.swf"),
        clean: true,
    };
    let streaming_err = spec.build().unwrap_err().to_string();
    let in_memory_err = load_in_memory(&spec).unwrap_err().to_string();
    assert_eq!(streaming_err, in_memory_err);
    assert!(streaming_err.contains("cannot read"), "{streaming_err}");
}
