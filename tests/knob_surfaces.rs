//! One knob, three front doors: a `.scn` sweep (or base key), a serve
//! `overrides` object and `query run --set` must build the same scenario
//! — same cell name, same `CellId` — for every what-if knob.

#![allow(clippy::unwrap_used)]

use bsld::core::scenario::{Knob, Scenario, ScenarioSet};
use bsld::core::CellId;
use bsld::metrics::Json;
use bsld::serve::Overrides;

const BASE: &str = "scenario = base\n\
                    workload = synthetic\n\
                    profile = ctc\n\
                    jobs = 50\n\
                    seed = 7\n\
                    cap = 0.9\n";

/// `(key, .scn/--set text, JSON literal)` for one representative value
/// of every knob (two where the value has a second form).
const CASES: &[(&str, &str, &str)] = &[
    ("profile", "blue", "\"blue\""),
    ("jobs", "64", "64"),
    ("seed", "9", "9"),
    ("bsld_th", "1.5", "1.5"),
    ("wq", "4", "4"),
    ("wq", "no", "\"no\""),
    ("cap", "0.7", "0.7"),
    ("cap", "none", "\"none\""),
    ("model", "cubic", "\"cubic\""),
    (
        "model",
        "empirical:examples/power_empirical.csv",
        "\"empirical:examples/power_empirical.csv\"",
    ),
    ("enlarge_pct", "20", "20"),
];

fn only_cell(set: &ScenarioSet) -> Scenario {
    let mut cells = set.expand().unwrap();
    assert_eq!(cells.len(), 1);
    cells.pop().unwrap()
}

fn with_overrides(ov: &Overrides) -> Scenario {
    let mut set = ScenarioSet::parse(BASE).unwrap();
    ov.apply(&mut set).unwrap();
    only_cell(&set)
}

#[test]
fn every_knob_builds_the_same_cell_through_every_surface() {
    let base = only_cell(&ScenarioSet::parse(BASE).unwrap());
    for &(key, text, json) in CASES {
        let scn = if key == "jobs" {
            BASE.replace("jobs = 50", &format!("jobs = {text}"))
        } else {
            format!("{BASE}sweep.{key} = {text}\n")
        };
        let from_scn = only_cell(&ScenarioSet::parse(&scn).unwrap());
        let wire = Json::parse(&format!("{{\"{key}\":{json}}}")).unwrap();
        let ov = Overrides::from_json(&wire).unwrap();
        let from_wire = with_overrides(&ov);
        let from_set = with_overrides(&Overrides::from_sets(&[format!("{key}={text}")]).unwrap());
        // The client's wire form carries the same overrides.
        assert_eq!(Overrides::from_json(&ov.to_json()).unwrap(), ov, "{key}");

        assert_ne!(CellId::of(&from_scn), CellId::of(&base), "{key}={text}");
        for other in [&from_wire, &from_set] {
            assert_eq!(other.name, from_scn.name, "{key}={text}");
            assert_eq!(CellId::of(other), CellId::of(&from_scn), "{key}={text}");
        }
    }
    for knob in Knob::ALL {
        assert!(
            CASES.iter().any(|c| c.0 == knob.key()),
            "{knob:?} is not covered"
        );
    }
}

#[test]
fn unknown_key_errors_list_the_knob_table() {
    let keys: Vec<&str> = Knob::ALL.iter().map(|k| k.key()).collect();
    let err = Overrides::from_sets(&["bogus=1"]).unwrap_err();
    assert_eq!(
        err,
        format!(
            "unknown override \"bogus\" (expected {} or budget_s)",
            keys.join(", ")
        )
    );
    let axes: Vec<&str> = keys.iter().copied().filter(|k| *k != "jobs").collect();
    let err = ScenarioSet::parse(&format!("{BASE}sweep.bogus = 1\n"))
        .unwrap_err()
        .to_string();
    assert!(
        err.ends_with(&format!(
            "unknown sweep axis \"bogus\" ({}, swf_dir)",
            axes.join(", ")
        )),
        "{err}"
    );
}
