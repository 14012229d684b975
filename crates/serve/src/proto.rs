//! The daemon's wire protocol: line-delimited JSON requests and replies.
//!
//! One request per line, one reply line per request, over a Unix-domain
//! stream socket. Requests are JSON objects selected by `"op"`:
//!
//! * `{"op":"run","scn":"<scenario file text>","overrides":{…}}` —
//!   parse, expand and run a scenario sweep against the daemon's warm
//!   caches; `overrides` nudges single knobs without editing the text;
//! * `{"op":"status"}` — counters: requests, runs, cache hit rates,
//!   uptime;
//! * `{"op":"metrics"}` — the profiling plane: the `status` counters
//!   plus per-op latency histogram summaries (microseconds) and the
//!   in-flight request gauge;
//! * `{"op":"cache"}` — list resident result cells (`"clear":true`
//!   empties both caches; `"swf":"/path/trace.swf"` pins a parsed and
//!   cleaned trace into the workload cache ahead of the queries that
//!   will replay it);
//! * `{"op":"shutdown"}` — drain in-flight connections and exit.
//!
//! Every reply carries `"ok"`; failures are structured
//! `{"ok":false,"error":"…"}` lines — a malformed or torn request can
//! never take the daemon down.

use bsld_core::scenario::{Knob, KnobKind, KnobValue, PowerModelSpec, ProfileName, ScenarioSet};
use bsld_core::WqThreshold;
use bsld_metrics::Json;

/// Protocol revision, reported by the `status` op.
pub const PROTOCOL_VERSION: u64 = 1;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a scenario sweep (the text of a `.scn` file) with optional
    /// knob overrides.
    Run {
        /// The scenario file text (not a path: clients ship the bytes, so
        /// daemon and client need no shared filesystem view).
        scn: String,
        /// Single-knob tweaks applied to the parsed spec.
        overrides: Overrides,
    },
    /// Report daemon counters.
    Status,
    /// Report the profiling plane: counters plus per-op latency
    /// histograms and queue depth.
    Metrics,
    /// List (or, with `clear`, empty) the caches.
    Cache {
        /// Empty both caches instead of listing them.
        clear: bool,
    },
    /// Pin an SWF trace into the workload cache: parse and clean it now
    /// (streaming) so later `run` requests over the same file start warm.
    CachePin {
        /// Daemon-side path of the `.swf` file.
        swf: String,
    },
    /// Drain and exit.
    Shutdown,
}

/// What-if knob overrides: each field is one knob of the
/// [`bsld_core::scenario::Knob`] table, applied to the base scenario with
/// the same semantics and name suffixes (`-th2`, `-cap0.7`, …) as a
/// one-value sweep axis, so reply tables stay self-describing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// `sweep.bsld_th` counterpart: policy threshold.
    pub bsld_th: Option<f64>,
    /// `sweep.wq` counterpart: wait-queue threshold (`"no"` or a count).
    pub wq: Option<WqThreshold>,
    /// `sweep.cap` counterpart; `Some(None)` (from `"none"`) clears it.
    pub cap: Option<Option<f64>>,
    /// `sweep.model` counterpart: power-model selection.
    pub model: Option<PowerModelSpec>,
    /// `jobs =` counterpart (synthetic workloads only).
    pub jobs: Option<usize>,
    /// `sweep.seed` counterpart (synthetic workloads only).
    pub seed: Option<u64>,
    /// `sweep.profile` counterpart (synthetic workloads only).
    pub profile: Option<ProfileName>,
    /// `sweep.enlarge_pct` counterpart: enlarged-system study.
    pub enlarge_pct: Option<u32>,
    /// Per-request wall-clock budget, seconds; overrides the file's
    /// `cell_budget_s` and the daemon's default.
    pub budget_s: Option<f64>,
}

impl Request {
    /// Parses one request line. Every failure is a client-visible
    /// message, never a panic.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"op\" field")?;
        match op {
            "run" => {
                let scn = v
                    .get("scn")
                    .and_then(Json::as_str)
                    .ok_or("\"run\" needs \"scn\": the scenario file text")?
                    .to_string();
                let overrides = match v.get("overrides") {
                    None | Some(Json::Null) => Overrides::default(),
                    Some(o) => Overrides::from_json(o)?,
                };
                Ok(Request::Run { scn, overrides })
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "cache" => {
                let clear = v.get("clear").and_then(Json::as_bool).unwrap_or(false);
                match v.get("swf") {
                    None | Some(Json::Null) => Ok(Request::Cache { clear }),
                    Some(_) if clear => {
                        Err("\"cache\" takes either \"swf\" or \"clear\", not both".to_string())
                    }
                    Some(p) => {
                        let swf = p
                            .as_str()
                            .ok_or("\"cache\" field \"swf\" must be a path string")?
                            .to_string();
                        Ok(Request::CachePin { swf })
                    }
                }
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (expected run, status, metrics, cache or shutdown)"
            )),
        }
    }

    /// The op label of this request — the key the daemon's per-op latency
    /// histograms are indexed by (cache pins share the `cache` label).
    pub fn op_label(&self) -> &'static str {
        match self {
            Request::Run { .. } => "run",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Cache { .. } | Request::CachePin { .. } => "cache",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Overrides {
    /// Parses the `"overrides"` object, rejecting unknown keys so a typo
    /// cannot silently run the un-overridden scenario. A knob's value is
    /// a JSON number or string by its [`KnobKind`], parsed by the knob
    /// table from its text.
    pub fn from_json(v: &Json) -> Result<Overrides, String> {
        let Json::Obj(pairs) = v else {
            return Err("\"overrides\" must be an object".to_string());
        };
        let mut ov = Overrides::default();
        for (key, val) in pairs {
            if key == "budget_s" || key == "cell_budget_s" {
                let b = val.as_f64().ok_or("override budget_s must be a number")?;
                if !b.is_finite() || b < 0.0 {
                    return Err("override budget_s must be finite and >= 0".to_string());
                }
                ov.budget_s = Some(b);
                continue;
            }
            let knob = Knob::from_key(key).ok_or_else(|| {
                let keys: Vec<&str> = Knob::ALL.iter().map(|k| k.key()).collect();
                format!(
                    "unknown override {key:?} (expected {} or budget_s)",
                    keys.join(", ")
                )
            })?;
            let text = match (val, knob.kind()) {
                (Json::Str(s), KnobKind::Word) => Some(s.clone()),
                (Json::Str(s), _) if s == "none" => Some(s.clone()),
                (Json::Num(x), KnobKind::Real) => Some(x.to_string()),
                (Json::Num(_), _) => val.as_u64().map(|n| n.to_string()),
                _ => None,
            };
            let want = match knob.kind() {
                KnobKind::Int => "a whole number",
                KnobKind::Real => "a number",
                KnobKind::Word => "a string",
            };
            let text = text.ok_or_else(|| format!("override {key} must be {want}"))?;
            ov.set(knob.parse(&text)?);
        }
        Ok(ov)
    }

    /// Parses `query run --set key=value` pairs: a value that reads as a
    /// finite number ships as a JSON number, anything else as a string,
    /// then [`Overrides::from_json`] decides.
    pub fn from_sets<S: AsRef<str>>(sets: &[S]) -> Result<Overrides, String> {
        let mut pairs = Vec::new();
        for kv in sets {
            let kv = kv.as_ref();
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad --set {kv:?}: expected key=value"))?;
            pairs.push((k.to_string(), wire_value(v)));
        }
        Overrides::from_json(&Json::Obj(pairs))
    }

    /// The wire form, the inverse of [`Overrides::from_json`].
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = self
            .knobs()
            .iter()
            .map(|v| (v.knob().key().to_string(), wire_value(&v.render())))
            .collect();
        if let Some(b) = self.budget_s {
            pairs.push(("budget_s".to_string(), Json::Num(b)));
        }
        Json::Obj(pairs)
    }

    /// The knob values, in the table's fixed apply order.
    fn knobs(&self) -> Vec<KnobValue> {
        [
            self.profile.map(KnobValue::Profile),
            self.jobs.map(KnobValue::Jobs),
            self.seed.map(KnobValue::Seed),
            self.bsld_th.map(KnobValue::BsldTh),
            self.wq.map(KnobValue::Wq),
            self.cap.map(KnobValue::Cap),
            self.model.clone().map(KnobValue::Model),
            self.enlarge_pct.map(KnobValue::EnlargePct),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    fn set(&mut self, v: KnobValue) {
        match v {
            KnobValue::Profile(p) => self.profile = Some(p),
            KnobValue::Jobs(n) => self.jobs = Some(n),
            KnobValue::Seed(s) => self.seed = Some(s),
            KnobValue::BsldTh(th) => self.bsld_th = Some(th),
            KnobValue::Wq(wq) => self.wq = Some(wq),
            KnobValue::Cap(cap) => self.cap = Some(cap),
            KnobValue::Model(m) => self.model = Some(m),
            KnobValue::EnlargePct(pct) => self.enlarge_pct = Some(pct),
        }
    }

    /// Applies every knob (except the request-level `budget_s`) to the
    /// base scenario *before* expansion, so a sweep on the same knob
    /// still wins.
    pub fn apply(&self, set: &mut ScenarioSet) -> Result<(), String> {
        for v in self.knobs() {
            v.apply(&mut set.base)
                .map_err(|e| format!("override {e}"))?;
        }
        Ok(())
    }
}

/// A text value on the wire: a finite number as a JSON number, anything
/// else as a string.
fn wire_value(text: &str) -> Json {
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Json::Num(x),
        _ => Json::str(text),
    }
}

/// The uniform failure reply.
pub fn error_reply(msg: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsld_core::scenario::PolicySpec;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            Request::parse("{\"op\":\"status\"}").unwrap(),
            Request::Status
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\"}").unwrap(),
            Request::Cache { clear: false }
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\",\"clear\":true}").unwrap(),
            Request::Cache { clear: true }
        );
        assert_eq!(
            Request::parse("{\"op\":\"cache\",\"swf\":\"/tmp/t.swf\"}").unwrap(),
            Request::CachePin {
                swf: "/tmp/t.swf".to_string()
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let run = Request::parse(
            "{\"op\":\"run\",\"scn\":\"scenario = x\",\"overrides\":{\"bsld_th\":1.5,\"wq\":\"no\"}}",
        )
        .unwrap();
        match run {
            Request::Run { scn, overrides } => {
                assert_eq!(scn, "scenario = x");
                assert_eq!(overrides.bsld_th, Some(1.5));
                assert_eq!(overrides.wq, Some(WqThreshold::NoLimit));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"op\":42}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"run\"}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"bogus\":1}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"budget_s\":-1}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":\"half\"}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"wq\":1.5}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":0}}",
            "{\"op\":\"run\",\"scn\":\"x\",\"overrides\":{\"cap\":-0.5}}",
            "{\"op\":\"cache\",\"swf\":42}",
            "{\"op\":\"cache\",\"swf\":\"/tmp/t.swf\",\"clear\":true}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn overrides_apply_with_sweep_name_suffixes() {
        let text = "scenario = base\nworkload = synthetic\nprofile = ctc\njobs = 50\nseed = 7\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        let ov = Overrides::from_json(
            &Json::parse("{\"bsld_th\":1.5,\"cap\":0.7,\"seed\":9,\"enlarge_pct\":20}").unwrap(),
        )
        .unwrap();
        ov.apply(&mut set).unwrap();
        assert_eq!(set.base.name, "base-s9-th1.5-cap0.7-x20");
        assert_eq!(set.base.power.cap_fraction, Some(0.7));
        assert_eq!(set.base.cluster.enlarge_pct, 20);
        match set.base.policy {
            PolicySpec::BsldThreshold { th, wq } => {
                assert_eq!(th, 1.5);
                assert_eq!(wq, WqThreshold::NoLimit);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synthetic_only_overrides_reject_swf_workloads() {
        let text = "scenario = replay\nworkload = swf\nswf_path = /tmp/x.swf\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        for ov_json in ["{\"jobs\":10}", "{\"seed\":1}", "{\"profile\":\"ctc\"}"] {
            let ov = Overrides::from_json(&Json::parse(ov_json).unwrap()).unwrap();
            let err = ov.apply(&mut set).unwrap_err();
            assert!(err.contains("SWF"), "{ov_json}: {err}");
        }
    }

    #[test]
    fn wire_types_follow_the_knob_kind() {
        // Accepted: numbers for numeric knobs, strings (or whole numbers)
        // for word knobs, and "none" for cap.
        for ok in [
            "{\"bsld_th\":2}",
            "{\"wq\":\"4\"}",
            "{\"wq\":4}",
            "{\"cap\":\"none\"}",
            "{\"jobs\":1e3}",
            "{\"model\":\"empirical:p.csv\"}",
        ] {
            assert!(
                Overrides::from_json(&Json::parse(ok).unwrap()).is_ok(),
                "{ok}"
            );
        }
        for bad in [
            "{\"bsld_th\":\"2\"}",
            "{\"jobs\":\"64\"}",
            "{\"jobs\":1.5}",
            "{\"seed\":9007199254740993e3}",
            "{\"cap\":\"0.5\"}",
            "{\"profile\":3}",
            "{\"enlarge_pct\":4294967296}",
        ] {
            assert!(
                Overrides::from_json(&Json::parse(bad).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn cap_none_clears_the_cap() {
        let text = "scenario = capped\nworkload = synthetic\nprofile = ctc\njobs = 10\nseed = 1\ncap = 0.8\n";
        let mut set = ScenarioSet::parse(text).unwrap();
        assert_eq!(set.base.power.cap_fraction, Some(0.8));
        let ov = Overrides::from_json(&Json::parse("{\"cap\":\"none\"}").unwrap()).unwrap();
        ov.apply(&mut set).unwrap();
        assert_eq!(set.base.power.cap_fraction, None);
        assert!(set.base.name.ends_with("-capnone"));
    }
}
