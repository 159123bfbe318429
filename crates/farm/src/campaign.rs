//! Campaign planning and the schema-versioned campaign manifest.
//!
//! `maps-farm plan` enumerates every sweep point of the selected figures
//! through [`PlanHost`] — the drivers run their real declaration logic,
//! nothing is simulated — then deduplicates the points by
//! [`point_fingerprint`] into a
//! `campaign.json` document: which figures, which phases, every unique
//! point with its fingerprint, and how much work deduplication saves.
//! `maps-farm run` re-plans in-process (the document on disk is advisory;
//! execution never trusts a stale plan) and `maps-farm status` reads the
//! document back to report progress against the checkpoint.
//!
//! Figures marked `dynamic` derive later phases from earlier *results*
//! (fig7's average-best split); their planned point lists are estimates
//! made with placeholder reports and are labelled as such.

use std::path::Path;

use maps_bench::figures::FigureDef;
use maps_bench::{point_fingerprint, PlanHost, SimJob};
use maps_obs::{fingerprint64, git_describe, CodecError, Json};
use maps_trace::DetHashSet;

use crate::supervision::Supervision;
use crate::FarmError;

/// Current campaign document schema version. Bump on any breaking field
/// change.
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// Value of the `kind` field marking a file as a campaign manifest.
const CAMPAIGN_KIND: &str = "maps-campaign";

/// One unique sweep point of the campaign, attributed to the first
/// figure/phase that declared it.
#[derive(Debug, Clone)]
pub struct PlannedPoint {
    /// Farm-wide identity (config + workload + seed + kind + git).
    pub fingerprint: u64,
    /// First figure that declared the point.
    pub figure: String,
    /// Phase within that figure.
    pub phase: String,
    /// The point itself.
    pub job: SimJob,
}

/// One figure's contribution to the campaign.
#[derive(Debug, Clone)]
pub struct PlannedFigure {
    /// Artifact stem.
    pub name: String,
    /// Whether later phases depend on earlier results (plan is an
    /// estimate).
    pub dynamic: bool,
    /// Core accesses per point (the figure's `MAPS_ACCESSES` resolution
    /// at plan time).
    pub accesses: u64,
    /// `(phase, declared points)` in driver order, duplicates included.
    pub phases: Vec<(String, usize)>,
}

/// A fully enumerated, deduplicated campaign.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Campaign name (checkpoint identity and status header).
    pub name: String,
    /// Git revision the plan was made at.
    pub git: String,
    /// Per-figure summaries in selection order.
    pub figures: Vec<PlannedFigure>,
    /// Unique points in first-declaration order.
    pub points: Vec<PlannedPoint>,
    /// Total declared jobs, duplicates included.
    pub total_jobs: usize,
    /// Distinct front-end capture keys across the unique points — the
    /// number of trace recordings a full run performs.
    pub capture_keys: usize,
}

impl CampaignPlan {
    /// Canonical identity string: what a checkpoint must match to be
    /// resumed. Deliberately excludes the point list — dynamic figures
    /// re-derive theirs at run time — but includes everything that
    /// parameterizes it (figure set, access counts, git revision).
    pub fn identity(&self) -> String {
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|f| format!("{}:{}", f.name, f.accesses))
            .collect();
        format!(
            "campaign={};git={};figures=[{}]",
            self.name,
            self.git,
            figures.join(",")
        )
    }

    /// 64-bit fingerprint of [`CampaignPlan::identity`].
    pub fn identity_fingerprint(&self) -> u64 {
        fingerprint64(&self.identity())
    }

    /// Declared jobs that collapse onto an already-declared fingerprint.
    pub fn deduplicated(&self) -> usize {
        self.total_jobs - self.points.len()
    }

    /// Assembles the campaign document.
    pub fn to_json(&self) -> Json {
        let CampaignPlan {
            name,
            git,
            figures,
            points,
            total_jobs,
            capture_keys,
        } = self;
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::UInt(CAMPAIGN_SCHEMA_VERSION),
            ),
            ("kind".to_string(), Json::Str(CAMPAIGN_KIND.to_string())),
            ("name".to_string(), Json::Str(name.clone())),
            ("git".to_string(), Json::Str(git.clone())),
            (
                "identity_fingerprint".to_string(),
                Json::UInt(self.identity_fingerprint()),
            ),
            (
                "figures".to_string(),
                Json::Arr(figures.iter().map(PlannedFigure::to_json).collect()),
            ),
            (
                "points".to_string(),
                Json::Arr(points.iter().map(PlannedPoint::to_json).collect()),
            ),
            (
                "stats".to_string(),
                Json::Obj(vec![
                    ("total_jobs".to_string(), Json::UInt(*total_jobs as u64)),
                    ("unique_points".to_string(), Json::UInt(points.len() as u64)),
                    (
                        "deduplicated".to_string(),
                        Json::UInt(self.deduplicated() as u64),
                    ),
                    ("capture_keys".to_string(), Json::UInt(*capture_keys as u64)),
                ]),
            ),
        ])
    }
}

impl PlannedFigure {
    fn to_json(&self) -> Json {
        let PlannedFigure {
            name,
            dynamic,
            accesses,
            phases,
        } = self;
        let phases = phases
            .iter()
            .map(|(phase, points)| {
                Json::Obj(vec![
                    ("phase".to_string(), Json::Str(phase.clone())),
                    ("points".to_string(), Json::UInt(*points as u64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("name".to_string(), Json::Str(name.clone())),
            ("dynamic".to_string(), Json::Bool(*dynamic)),
            ("accesses".to_string(), Json::UInt(*accesses)),
            ("phases".to_string(), Json::Arr(phases)),
        ])
    }
}

impl PlannedPoint {
    /// The point's identity fields; its configuration stays out of the
    /// document (the fingerprint covers it).
    fn to_json(&self) -> Json {
        let PlannedPoint {
            fingerprint,
            figure,
            phase,
            job,
        } = self;
        let SimJob {
            key,
            cfg: _,
            bench,
            seed,
            accesses,
            kind,
        } = job;
        Json::Obj(vec![
            (
                "fingerprint".to_string(),
                Json::Str(format!("{fingerprint:016x}")),
            ),
            ("figure".to_string(), Json::Str(figure.clone())),
            ("phase".to_string(), Json::Str(phase.clone())),
            ("key".to_string(), Json::Str(key.clone())),
            ("bench".to_string(), Json::Str(bench.name().to_string())),
            ("seed".to_string(), Json::UInt(*seed)),
            ("accesses".to_string(), Json::UInt(*accesses)),
            ("kind".to_string(), Json::Str(kind.tag())),
        ])
    }
}

/// Enumerates and deduplicates the selected figures into a campaign.
pub fn plan_campaign(name: &str, figures: &[&'static FigureDef]) -> CampaignPlan {
    let mut planned_figures = Vec::new();
    let mut points: Vec<PlannedPoint> = Vec::new();
    let mut seen: DetHashSet<u64> = DetHashSet::default();
    let mut captures = DetHashSet::default();
    let mut total_jobs = 0usize;

    for def in figures {
        let mut plan = PlanHost::new();
        (def.drive)(&mut plan);
        let accesses = plan
            .params
            .iter()
            .find(|(k, _)| k == "accesses")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut phases = Vec::new();
        for (phase, jobs) in plan.phases {
            phases.push((phase.clone(), jobs.len()));
            total_jobs += jobs.len();
            for job in jobs {
                let fingerprint = point_fingerprint(&job);
                if !seen.insert(fingerprint) {
                    continue;
                }
                captures.insert(job.capture_key());
                points.push(PlannedPoint {
                    fingerprint,
                    figure: def.name.to_string(),
                    phase: phase.clone(),
                    job,
                });
            }
        }
        planned_figures.push(PlannedFigure {
            name: def.name.to_string(),
            dynamic: def.dynamic,
            accesses,
            phases,
        });
    }

    CampaignPlan {
        name: name.to_string(),
        git: git_describe(),
        figures: planned_figures,
        points,
        total_jobs,
        capture_keys: captures.len(),
    }
}

/// A campaign document read back from disk (`maps-farm status`). Holds
/// the summary fields; the job configurations themselves are not decoded
/// — status only correlates fingerprints against the checkpoint.
#[derive(Debug, Clone)]
pub struct CampaignDoc {
    /// Campaign name.
    pub name: String,
    /// Git revision the plan was made at.
    pub git: String,
    /// Identity fingerprint the checkpoint must match.
    pub identity_fingerprint: u64,
    /// Per-figure summaries.
    pub figures: Vec<PlannedFigure>,
    /// `(fingerprint, figure, phase, key)` of every unique point.
    pub points: Vec<(u64, String, String, String)>,
    /// Declared jobs, duplicates included.
    pub total_jobs: u64,
    /// Distinct front-end capture keys.
    pub capture_keys: u64,
    /// Daemon supervision counters, when a `maps-farmd` run wrote them.
    pub supervision: Option<Supervision>,
}

/// Loads and validates a campaign document.
///
/// # Errors
///
/// [`FarmError::Io`] when the file cannot be read and [`FarmError::Parse`]
/// when it is not a campaign document this code understands.
pub fn load_campaign(path: &Path) -> Result<CampaignDoc, FarmError> {
    let shown = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| FarmError::io(&shown, e))?;
    Json::parse(&text)
        .map_err(CodecError::from)
        .and_then(|doc| campaign_from_json(&doc))
        .map_err(|e| FarmError::parse(&shown, e.to_string()))
}

fn campaign_from_json(doc: &Json) -> Result<CampaignDoc, CodecError> {
    doc.check_version("schema_version", CAMPAIGN_SCHEMA_VERSION)?;
    if doc.str_field("kind")? != CAMPAIGN_KIND {
        return Err(CodecError::invalid(
            "kind",
            format!("expected '{CAMPAIGN_KIND}'"),
        ));
    }
    let mut figures = Vec::new();
    for f in doc.arr_field("figures")? {
        let mut phases = Vec::new();
        for p in f.arr_field("phases")? {
            phases.push((p.str_field("phase")?.to_string(), p.usize_field("points")?));
        }
        figures.push(PlannedFigure {
            name: f.str_field("name")?.to_string(),
            dynamic: matches!(f.get("dynamic"), Some(Json::Bool(true))),
            accesses: f.u64_field("accesses")?,
            phases,
        });
    }
    let mut points = Vec::new();
    for p in doc.arr_field("points")? {
        let hex = p.str_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(hex, 16).map_err(|_| {
            CodecError::invalid("fingerprint", format!("bad point fingerprint {hex:?}"))
        })?;
        points.push((
            fingerprint,
            p.str_field("figure")?.to_string(),
            p.str_field("phase")?.to_string(),
            p.str_field("key")?.to_string(),
        ));
    }
    let stats = doc.obj_field("stats")?;
    Ok(CampaignDoc {
        name: doc.str_field("name")?.to_string(),
        git: doc.str_field("git")?.to_string(),
        identity_fingerprint: doc.u64_field("identity_fingerprint")?,
        figures,
        points,
        total_jobs: stats.u64_field("total_jobs")?,
        capture_keys: stats.u64_field("capture_keys")?,
        // The block is advisory: a malformed one is ignored, not fatal.
        supervision: doc
            .get("supervision")
            .and_then(|block| Supervision::from_json(block).ok()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_bench::figures::figure;

    #[test]
    fn plan_round_trips_through_json() {
        let defs = [
            figure("fig2").expect("fig2 registered"),
            figure("fig7").expect("fig7 registered"),
        ];
        let plan = plan_campaign("campaign", &defs);
        assert!(plan.total_jobs > plan.points.len(), "figures share points");
        assert!(plan.capture_keys <= plan.points.len());

        let dir = std::env::temp_dir().join(format!("maps-farm-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.json");
        maps_obs::write_atomic(&path, plan.to_json().to_pretty().as_bytes()).expect("write plan");

        let doc = load_campaign(&path).expect("load plan");
        assert_eq!(doc.name, plan.name);
        assert_eq!(doc.git, plan.git);
        assert_eq!(doc.identity_fingerprint, plan.identity_fingerprint());
        assert_eq!(doc.points.len(), plan.points.len());
        assert_eq!(doc.total_jobs as usize, plan.total_jobs);
        assert_eq!(doc.figures.len(), 2);
        assert_eq!(doc.figures[0].name, "fig2");
        assert!(doc.figures[1].dynamic, "fig7 plans are estimates");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identity_tracks_figure_set_and_accesses() {
        let fig2 = [figure("fig2").expect("fig2 registered")];
        let both = [
            figure("fig2").expect("fig2 registered"),
            figure("fig7").expect("fig7 registered"),
        ];
        let a = plan_campaign("campaign", &fig2);
        let b = plan_campaign("campaign", &both);
        assert_ne!(a.identity_fingerprint(), b.identity_fingerprint());
        assert_eq!(
            a.identity_fingerprint(),
            plan_campaign("campaign", &fig2).identity_fingerprint(),
            "planning is deterministic"
        );
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("maps-farm-badplan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.json");
        for (body, expect) in [
            ("{", "parse"),
            ("{}", "schema_version"),
            ("{\"schema_version\": 99}", "unsupported schema_version"),
            (
                "{\"schema_version\": 1, \"kind\": \"other\"}",
                "field 'kind' invalid",
            ),
        ] {
            std::fs::write(&path, body).expect("write");
            let err = load_campaign(&path).expect_err("must reject");
            let msg = err.to_string();
            assert!(
                msg.contains(expect) || matches!(err, FarmError::Parse { .. }),
                "{msg:?} should mention {expect:?}"
            );
        }
        assert!(matches!(
            load_campaign(&dir.join("absent.json")),
            Err(FarmError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
