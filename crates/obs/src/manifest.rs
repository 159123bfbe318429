//! Schema-versioned JSON run manifests.
//!
//! Every `maps-bench` binary writes one manifest per run: what was run
//! (name, git revision, config, seed), how long it took (wall clock plus
//! per-phase timings), and everything it measured (the full metrics
//! snapshot). The schema is versioned so downstream tooling can reject
//! manifests it does not understand instead of misreading them.
//!
//! Required top-level fields (checked by [`validate_manifest`]):
//! `schema_version`, `name`, `git`, `created_unix`, `wall_seconds`,
//! `phases`, `params`, `config`, `metrics`.

use std::io;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::timer::Phases;

/// Current manifest schema version. Bump on any breaking field change.
/// (v2: `config` holds the lossless simulation-configuration encoding
/// that point fingerprints hash and the farm wire carries.)
pub const MANIFEST_SCHEMA_VERSION: u64 = 2;

/// Top-level fields every manifest must carry.
const REQUIRED_FIELDS: [&str; 9] = [
    "schema_version",
    "name",
    "git",
    "created_unix",
    "wall_seconds",
    "phases",
    "params",
    "config",
    "metrics",
];

/// Builder for a run manifest.
#[derive(Debug)]
pub struct Manifest {
    name: String,
    git: String,
    created_unix: u64,
    wall: Duration,
    phases: Vec<(String, f64, u64)>,
    params: Vec<(String, Json)>,
    config: Json,
    metrics: Json,
}

impl Manifest {
    /// Starts a manifest for the named run (e.g. `"fig2"`), stamping the
    /// creation time and git revision now.
    pub fn new(name: &str) -> Self {
        Manifest {
            name: name.to_string(),
            git: git_describe(),
            created_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            wall: Duration::ZERO,
            phases: Vec::new(),
            params: Vec::new(),
            config: Json::Obj(Vec::new()),
            metrics: Json::Obj(Vec::new()),
        }
    }

    /// The run name this manifest was opened with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the total wall-clock duration of the run.
    pub fn set_wall(&mut self, wall: Duration) -> &mut Self {
        self.wall = wall;
        self
    }

    /// Copies per-phase timings out of a [`Phases`] table.
    pub fn set_phases(&mut self, phases: &Phases) -> &mut Self {
        self.phases = phases
            .snapshot()
            .map(|(path, d, n)| (path.to_string(), d.as_secs_f64(), n))
            .collect();
        self
    }

    /// Records a run parameter (seed, access count, flags…).
    pub fn param(&mut self, key: &str, value: Json) -> &mut Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Records the full simulation configuration as a JSON object.
    pub fn set_config(&mut self, config: Json) -> &mut Self {
        self.config = config;
        self
    }

    /// Records the metrics snapshot.
    pub fn set_metrics(&mut self, metrics: &Metrics) -> &mut Self {
        self.metrics = metrics.to_json();
        self
    }

    /// Assembles the manifest JSON document.
    pub fn to_json(&self) -> Json {
        let Manifest {
            name,
            git,
            created_unix,
            wall,
            phases,
            params,
            config,
            metrics,
        } = self;
        let phases = Json::Arr(
            phases
                .iter()
                .map(|(path, secs, entries)| {
                    Json::Obj(vec![
                        ("path".to_string(), Json::Str(path.clone())),
                        ("seconds".to_string(), Json::Float(*secs)),
                        ("entries".to_string(), Json::UInt(*entries)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::UInt(MANIFEST_SCHEMA_VERSION),
            ),
            ("name".to_string(), Json::Str(name.clone())),
            ("git".to_string(), Json::Str(git.clone())),
            ("created_unix".to_string(), Json::UInt(*created_unix)),
            ("wall_seconds".to_string(), Json::Float(wall.as_secs_f64())),
            ("phases".to_string(), phases),
            ("params".to_string(), Json::Obj(params.clone())),
            ("config".to_string(), config.clone()),
            ("metrics".to_string(), metrics.clone()),
        ])
    }

    /// Zeroes every volatile (wall-clock) field so two runs of the same
    /// work compare byte-identical: creation time, total wall seconds,
    /// and per-phase seconds. Phase paths and entry counts are kept —
    /// they are deterministic and meaningful. Used by the
    /// `MAPS_DETERMINISTIC` mode that the kill/resume equivalence tests
    /// rely on.
    pub fn strip_volatile(&mut self) -> &mut Self {
        self.created_unix = 0;
        self.wall = Duration::ZERO;
        for (_, secs, _) in &mut self.phases {
            *secs = 0.0;
        }
        self
    }

    /// A stable string identifying *what* this run computes — name,
    /// parameters, and configuration, excluding every volatile field.
    /// Checkpoints fingerprint this string so a resume with different
    /// parameters discards stale points instead of mixing them in.
    pub fn identity(&self) -> String {
        let doc = Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("params".to_string(), Json::Obj(self.params.clone())),
            ("config".to_string(), self.config.clone()),
        ]);
        doc.to_pretty()
    }

    /// Writes the manifest to `path` atomically (temp file + rename),
    /// creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        crate::atomic::write_atomic(path, self.to_json().to_pretty().as_bytes())
    }
}

/// Checks that a parsed manifest carries every required top-level field
/// and a schema version this code understands. Returns the list of
/// problems (empty = valid).
pub fn validate_manifest(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    if !doc.is_obj() {
        return vec!["manifest root is not an object".to_string()];
    }
    for field in REQUIRED_FIELDS {
        if doc.get(field).is_none() {
            problems.push(format!("missing required field '{field}'"));
        }
    }
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(v) if v == MANIFEST_SCHEMA_VERSION => {}
        Some(v) => problems.push(format!(
            "unsupported schema_version {v} (expected {MANIFEST_SCHEMA_VERSION})"
        )),
        None if doc.get("schema_version").is_some() => {
            problems.push("schema_version is not an unsigned integer".to_string())
        }
        None => {}
    }
    for obj_field in ["params", "config", "metrics"] {
        if let Some(v) = doc.get(obj_field) {
            if !v.is_obj() {
                problems.push(format!("'{obj_field}' is not an object"));
            }
        }
    }
    if let Some(v) = doc.get("phases") {
        if !matches!(v, Json::Arr(_)) {
            problems.push("'phases' is not an array".to_string());
        }
    }
    problems
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (e.g. a source tarball). Memoized: a process
/// spawns one `git` no matter how many manifests and sweep-point
/// fingerprints stamp the revision.
pub fn git_describe() -> String {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn sample() -> Manifest {
        let mut metrics = Metrics::new();
        metrics.counter_add("llc.hits", 7);
        metrics.hist_record("walk.depth", 3);

        let mut phases = Phases::new();
        {
            let _g = phases.enter("sweep");
        }

        let mut m = Manifest::new("fig2");
        m.set_wall(Duration::from_millis(1500))
            .set_phases(&phases)
            .param("seed", Json::UInt(0x4D41_5053))
            .param("accesses", Json::UInt(1000))
            .set_config(Json::Obj(vec![("mdc_kib".to_string(), Json::UInt(128))]))
            .set_metrics(&metrics);
        m
    }

    #[test]
    fn round_trips_and_validates() {
        let doc = Json::parse(&sample().to_json().to_pretty()).unwrap();
        assert_eq!(validate_manifest(&doc), Vec::<String>::new());
        // The decode table is exactly the encoder's top-level key list.
        let Json::Obj(fields) = &doc else {
            panic!("manifest encodes as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, REQUIRED_FIELDS);
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(MANIFEST_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("name").unwrap().as_str(), Some("fig2"));
        assert_eq!(
            doc.get("params").unwrap().get("accesses").unwrap().as_u64(),
            Some(1000)
        );
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("counters")
                .unwrap()
                .get("llc.hits")
                .unwrap()
                .as_u64(),
            Some(7)
        );
    }

    #[test]
    fn validation_flags_missing_fields() {
        let doc = Json::Obj(vec![(
            "schema_version".to_string(),
            Json::UInt(MANIFEST_SCHEMA_VERSION),
        )]);
        let problems = validate_manifest(&doc);
        assert!(
            problems.iter().any(|p| p.contains("'name'")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("'metrics'")),
            "{problems:?}"
        );
    }

    #[test]
    fn validation_flags_wrong_schema_version() {
        let mut m = sample().to_json();
        if let Json::Obj(pairs) = &mut m {
            for (k, v) in pairs.iter_mut() {
                if k == "schema_version" {
                    *v = Json::UInt(99);
                }
            }
        }
        let problems = validate_manifest(&m);
        assert!(
            problems.iter().any(|p| p.contains("unsupported")),
            "{problems:?}"
        );
    }

    #[test]
    fn validation_rejects_non_object_root() {
        assert!(!validate_manifest(&Json::Arr(vec![])).is_empty());
    }

    #[test]
    fn write_to_creates_directories() {
        let dir =
            std::env::temp_dir().join(format!("maps-obs-manifest-test-{}", std::process::id()));
        let path = dir.join("nested").join("fig2.manifest.json");
        sample().write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert!(validate_manifest(&doc).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
