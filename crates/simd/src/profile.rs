//! Machine profiles: the simulator's cost structure as data.
//!
//! The cycle-accounting machine used to be priced by one hard-coded
//! [`CostModel`]; a [`MachineProfile`] lifts every knob — PE count,
//! per-instruction-class costs, guard-switch and hashed-dispatch prices,
//! `globalor` router latency, memory ports, the watchdog budget — into a
//! JSON document so one binary can evaluate many architectures per
//! workload (`mscc sweep`, spada-sim style).
//!
//! The schema is *strict*: unknown keys are errors naming the key (a
//! typo'd knob must not silently price as the default), while **missing**
//! keys take the documented defaults below. The default profile
//! round-trips bit-exact to today's hard-coded model
//! ([`CostModel::default`] plus [`MachineConfig::spmd`]), so every
//! committed `BENCH_*.json` number stays valid and `claims -- claims
//! --check` can gate the identity.
//!
//! | key                | default       | meaning |
//! |--------------------|---------------|---------|
//! | `name`             | `"custom"`    | row label in sweep tables (file stem when loaded from disk) |
//! | `description`      | `""`          | free-form note |
//! | `pe_count`         | `16`          | processing elements in the array |
//! | `max_cycles`       | `100000000`   | watchdog budget before [`RunError::Watchdog`](crate::RunError::Watchdog) |
//! | `memory_ports`     | `0`           | local-memory ports shared by the array; `0` = one port per PE (fully parallel, today's model); `p > 0` serializes a memory-class issue over ⌈enabled/p⌉ port rounds |
//! | `globalor_latency` | `0`           | extra router cycles on every aggregate (`globalor` + hashed / barrier) dispatch |
//! | `costs`            | all defaults  | per-instruction-class cycle costs; sub-keys are exactly the [`CostModel`] fields (`stack`, `int_simple`, `int_mul`, `int_div`, `float_simple`, `float_mul`, `float_div`, `mem_local`, `comm_remote`, `comm_broadcast`, `control`, `dispatch`, `guard_switch`, `interp_fetch_decode`, `interp_loop`) |

use crate::machine::MachineConfig;
use msc_ir::CostModel;
use msc_obs::json::{Json, JsonError};
use std::fmt;
use std::path::Path;

/// A machine model the simulator can be priced by: everything
/// [`SimdMachine`](crate::SimdMachine) and the codegen cost accounting
/// need, parsed from strict dependency-free JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Row label in sweep tables.
    pub name: String,
    /// Free-form note shown nowhere hot.
    pub description: String,
    /// Processing elements in the array.
    pub pe_count: usize,
    /// Watchdog cycle budget.
    pub max_cycles: u64,
    /// Local-memory ports shared by the whole array (0 = one per PE).
    pub memory_ports: usize,
    /// Extra router cycles on every aggregate dispatch.
    pub globalor_latency: u32,
    /// Per-instruction-class cycle costs (threaded through conversion's
    /// time splitting, codegen's CSI/dispatch accounting, and the run).
    pub costs: CostModel,
}

impl Default for MachineProfile {
    /// Exactly today's hard-coded model: [`CostModel::default`] on a
    /// 16-PE SPMD array — the `paper-default` bundled profile.
    fn default() -> Self {
        MachineProfile {
            name: "paper-default".into(),
            description: "The hard-coded MasPar-class model every committed BENCH_*.json \
                          was measured under"
                .into(),
            pe_count: 16,
            max_cycles: 100_000_000,
            memory_ports: 0,
            globalor_latency: 0,
            costs: CostModel::default(),
        }
    }
}

/// A profile failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The document (or a sub-object) is not a JSON object.
    NotAnObject(&'static str),
    /// A key the schema does not know — strictness is the point: a
    /// typo'd knob must fail, not silently price as the default.
    UnknownKey {
        /// Which object the key appeared in (`profile` or `costs`).
        context: &'static str,
        /// The offending key, verbatim.
        key: String,
    },
    /// A known key with an unusable value.
    BadValue {
        /// The key.
        key: String,
        /// Why the value is unusable.
        reason: String,
    },
    /// Reading the file failed.
    Io {
        /// The path we tried.
        path: String,
        /// The OS error.
        error: String,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Json(e) => write!(f, "invalid JSON: {e}"),
            ProfileError::NotAnObject(what) => write!(f, "{what} must be a JSON object"),
            ProfileError::UnknownKey { context, key } => {
                write!(f, "unknown {context} key `{key}`")
            }
            ProfileError::BadValue { key, reason } => write!(f, "bad value for `{key}`: {reason}"),
            ProfileError::Io { path, error } => write!(f, "cannot read {path}: {error}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<JsonError> for ProfileError {
    fn from(e: JsonError) -> Self {
        ProfileError::Json(e)
    }
}

/// Read a non-negative integer field, enforcing it fits `max`.
fn int_field(key: &str, v: &Json, max: u64) -> Result<u64, ProfileError> {
    let bad = |reason: &str| ProfileError::BadValue {
        key: key.to_string(),
        reason: reason.to_string(),
    };
    let n = v
        .as_f64()
        .ok_or_else(|| bad("expected a non-negative integer"))?;
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 {
        return Err(bad("expected a non-negative integer"));
    }
    if n > max as f64 {
        return Err(bad(&format!("must be at most {max}")));
    }
    Ok(n as u64)
}

/// Parse the strict `costs` sub-object over [`CostModel::default`].
fn parse_costs(v: &Json) -> Result<CostModel, ProfileError> {
    let obj = v
        .as_obj()
        .ok_or(ProfileError::NotAnObject("the `costs` field"))?;
    let mut costs = CostModel::default();
    for (key, val) in obj {
        let slot: &mut u32 = match key.as_str() {
            "stack" => &mut costs.stack,
            "int_simple" => &mut costs.int_simple,
            "int_mul" => &mut costs.int_mul,
            "int_div" => &mut costs.int_div,
            "float_simple" => &mut costs.float_simple,
            "float_mul" => &mut costs.float_mul,
            "float_div" => &mut costs.float_div,
            "mem_local" => &mut costs.mem_local,
            "comm_remote" => &mut costs.comm_remote,
            "comm_broadcast" => &mut costs.comm_broadcast,
            "control" => &mut costs.control,
            "dispatch" => &mut costs.dispatch,
            "guard_switch" => &mut costs.guard_switch,
            "interp_fetch_decode" => &mut costs.interp_fetch_decode,
            "interp_loop" => &mut costs.interp_loop,
            other => {
                return Err(ProfileError::UnknownKey {
                    context: "costs",
                    key: other.to_string(),
                })
            }
        };
        *slot = int_field(key, val, u32::MAX as u64)? as u32;
    }
    Ok(costs)
}

impl MachineProfile {
    /// Parse a profile document. Unknown keys error (naming the key);
    /// missing keys take the documented defaults.
    pub fn from_json(json: &Json) -> Result<Self, ProfileError> {
        let obj = json
            .as_obj()
            .ok_or(ProfileError::NotAnObject("a machine profile"))?;
        let mut p = MachineProfile {
            name: "custom".into(),
            description: String::new(),
            ..MachineProfile::default()
        };
        for (key, val) in obj {
            match key.as_str() {
                "name" => {
                    p.name = val
                        .as_str()
                        .ok_or_else(|| ProfileError::BadValue {
                            key: "name".into(),
                            reason: "expected a string".into(),
                        })?
                        .to_string();
                }
                "description" => {
                    p.description = val
                        .as_str()
                        .ok_or_else(|| ProfileError::BadValue {
                            key: "description".into(),
                            reason: "expected a string".into(),
                        })?
                        .to_string();
                }
                "pe_count" => {
                    let n = int_field("pe_count", val, 1 << 20)? as usize;
                    if n == 0 {
                        return Err(ProfileError::BadValue {
                            key: "pe_count".into(),
                            reason: "must be at least 1".into(),
                        });
                    }
                    p.pe_count = n;
                }
                "max_cycles" => p.max_cycles = int_field("max_cycles", val, u64::MAX >> 1)?,
                "memory_ports" => {
                    p.memory_ports = int_field("memory_ports", val, 1 << 20)? as usize;
                }
                "globalor_latency" => {
                    p.globalor_latency =
                        int_field("globalor_latency", val, u32::MAX as u64)? as u32;
                }
                "costs" => p.costs = parse_costs(val)?,
                other => {
                    return Err(ProfileError::UnknownKey {
                        context: "profile",
                        key: other.to_string(),
                    })
                }
            }
        }
        Ok(p)
    }

    /// Parse a profile from JSON text.
    pub fn parse(text: &str) -> Result<Self, ProfileError> {
        Self::from_json(&msc_obs::json::parse(text)?)
    }

    /// Load a profile file; when the document has no `name`, the file
    /// stem becomes the name (so `profiles/wide-simd.json` labels its
    /// rows `wide-simd` without repeating itself).
    pub fn load(path: &Path) -> Result<Self, ProfileError> {
        let text = std::fs::read_to_string(path).map_err(|e| ProfileError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        let json = msc_obs::json::parse(&text)?;
        let named = json
            .get("name")
            .and_then(|n| n.as_str())
            .map(str::to_string);
        let mut p = Self::from_json(&json)?;
        if named.is_none() {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                p.name = stem.to_string();
            }
        }
        Ok(p)
    }

    /// Load every `*.json` in a directory, sorted by file name.
    pub fn load_dir(dir: &Path) -> Result<Vec<Self>, ProfileError> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| ProfileError::Io {
                path: dir.display().to_string(),
                error: e.to_string(),
            })?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        paths.iter().map(|p| Self::load(p)).collect()
    }

    /// The full document, every field explicit (what `render` emits).
    pub fn to_json(&self) -> Json {
        let c = &self.costs;
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("description", Json::from(self.description.as_str())),
            ("pe_count", Json::from(self.pe_count)),
            ("max_cycles", Json::from(self.max_cycles)),
            ("memory_ports", Json::from(self.memory_ports)),
            ("globalor_latency", Json::from(self.globalor_latency as u64)),
            (
                "costs",
                Json::obj(vec![
                    ("stack", Json::from(c.stack as u64)),
                    ("int_simple", Json::from(c.int_simple as u64)),
                    ("int_mul", Json::from(c.int_mul as u64)),
                    ("int_div", Json::from(c.int_div as u64)),
                    ("float_simple", Json::from(c.float_simple as u64)),
                    ("float_mul", Json::from(c.float_mul as u64)),
                    ("float_div", Json::from(c.float_div as u64)),
                    ("mem_local", Json::from(c.mem_local as u64)),
                    ("comm_remote", Json::from(c.comm_remote as u64)),
                    ("comm_broadcast", Json::from(c.comm_broadcast as u64)),
                    ("control", Json::from(c.control as u64)),
                    ("dispatch", Json::from(c.dispatch as u64)),
                    ("guard_switch", Json::from(c.guard_switch as u64)),
                    (
                        "interp_fetch_decode",
                        Json::from(c.interp_fetch_decode as u64),
                    ),
                    ("interp_loop", Json::from(c.interp_loop as u64)),
                ]),
            ),
        ])
    }

    /// Render the profile as JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// The [`MachineConfig`] this profile runs under.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            n_pe: self.pe_count,
            active_at_start: self.pe_count,
            max_cycles: self.max_cycles,
            trace: false,
            memory_ports: self.memory_ports,
            globalor_latency: self.globalor_latency,
        }
    }

    /// The bundled profile matrix, parsed from the committed
    /// `profiles/` files: the paper default plus three architectural
    /// what-ifs along the axes §2.5/§3.2 argue about.
    pub fn bundled() -> Vec<MachineProfile> {
        [
            include_str!("../../../profiles/paper-default.json"),
            include_str!("../../../profiles/wide-simd.json"),
            include_str!("../../../profiles/slow-globalor.json"),
            include_str!("../../../profiles/cheap-dispatch.json"),
        ]
        .into_iter()
        .map(|text| Self::parse(text).expect("a committed profile parses"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_todays_hard_coded_model() {
        let p = MachineProfile::default();
        assert_eq!(p.costs, CostModel::default());
        let cfg = p.machine_config();
        let spmd = MachineConfig::spmd(16);
        assert_eq!(cfg.n_pe, spmd.n_pe);
        assert_eq!(cfg.active_at_start, spmd.active_at_start);
        assert_eq!(cfg.max_cycles, spmd.max_cycles);
        assert_eq!(cfg.memory_ports, spmd.memory_ports);
        assert_eq!(cfg.globalor_latency, spmd.globalor_latency);
    }

    #[test]
    fn empty_object_takes_every_documented_default() {
        let p = MachineProfile::parse("{}").unwrap();
        assert_eq!(p.name, "custom");
        assert_eq!(p.pe_count, 16);
        assert_eq!(p.max_cycles, 100_000_000);
        assert_eq!(p.memory_ports, 0);
        assert_eq!(p.globalor_latency, 0);
        assert_eq!(p.costs, CostModel::default());
    }

    #[test]
    fn missing_cost_fields_default_individually() {
        let p = MachineProfile::parse(r#"{"costs": {"dispatch": 3}}"#).unwrap();
        assert_eq!(p.costs.dispatch, 3);
        assert_eq!(p.costs.stack, CostModel::default().stack);
        assert_eq!(p.costs.int_div, CostModel::default().int_div);
    }

    #[test]
    fn unknown_top_level_key_errors_naming_it() {
        let err = MachineProfile::parse(r#"{"pe_cuont": 16}"#).unwrap_err();
        assert_eq!(
            err,
            ProfileError::UnknownKey {
                context: "profile",
                key: "pe_cuont".into()
            }
        );
        assert!(err.to_string().contains("pe_cuont"), "{err}");
    }

    #[test]
    fn unknown_cost_key_errors_naming_it() {
        let err = MachineProfile::parse(r#"{"costs": {"dispach": 2}}"#).unwrap_err();
        assert_eq!(
            err,
            ProfileError::UnknownKey {
                context: "costs",
                key: "dispach".into()
            }
        );
        assert!(err.to_string().contains("dispach"), "{err}");
    }

    #[test]
    fn bad_values_are_rejected() {
        for (text, key) in [
            (r#"{"pe_count": 0}"#, "pe_count"),
            (r#"{"pe_count": -4}"#, "pe_count"),
            (r#"{"pe_count": 2.5}"#, "pe_count"),
            (r#"{"pe_count": "many"}"#, "pe_count"),
            (r#"{"costs": {"dispatch": 4294967296}}"#, "dispatch"),
            (r#"{"name": 7}"#, "name"),
        ] {
            let err = MachineProfile::parse(text).unwrap_err();
            assert!(
                matches!(&err, ProfileError::BadValue { key: k, .. } if k == key),
                "{text}: {err:?}"
            );
        }
        assert!(MachineProfile::parse("[]").is_err());
        assert!(MachineProfile::parse(r#"{"costs": []}"#).is_err());
        assert!(MachineProfile::parse("not json").is_err());
    }

    #[test]
    fn render_round_trips_every_bundled_profile() {
        for p in MachineProfile::bundled() {
            let back = MachineProfile::parse(&p.render()).unwrap();
            assert_eq!(back, p);
        }
    }

    // S1 and every committed BENCH_*.json were measured under the
    // default model: the committed paper-default file must be exactly it.
    #[test]
    fn paper_default_file_is_the_default_profile() {
        let text = include_str!("../../../profiles/paper-default.json");
        assert_eq!(MachineProfile::parse(text), Ok(MachineProfile::default()));
    }

    #[test]
    fn load_uses_file_stem_when_name_is_absent() {
        let dir = std::env::temp_dir().join(format!("msc-profile-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stem-named.json");
        std::fs::write(&path, r#"{"pe_count": 8}"#).unwrap();
        let p = MachineProfile::load(&path).unwrap();
        assert_eq!(p.name, "stem-named");
        assert_eq!(p.pe_count, 8);
        let all = MachineProfile::load_dir(&dir).unwrap();
        assert_eq!(all.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
