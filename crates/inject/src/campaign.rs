//! Seeded campaigns: many trials per fault class, one verdict.
//!
//! A campaign is a pure function of `(spec, seed)`: every trial draws
//! from one `SmallRng` stream, and each trial folds a code into the
//! campaign fingerprint, so re-running with the same seed reproduces the
//! same report bit-for-bit — the property CI pins with a recorded
//! fingerprint, and the property that makes a failing trial replayable.

use maps_obs::{Checkpoint, Json, Manifest};
use maps_sim::{SecureSim, SimConfig};
use maps_trace::rng::{SmallRng, SplitMix64};
use maps_workloads::Benchmark;

use crate::farmd::{run_farmd_trial, FarmdFaultClass, FarmdOutcome};
use crate::infra::{Artifact, InfraFaultClass, InfraOutcome};
use crate::model::{run_model_trial, ModelFaultClass};

/// Shape of one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign name (`smoke`, `full`).
    pub name: &'static str,
    /// Model-fault trials per class.
    pub model_trials_per_class: u32,
    /// Infrastructure-fault trials per class.
    pub infra_trials_per_class: u32,
    /// Daemon-protocol fault trials per class.
    pub farmd_trials_per_class: u32,
    /// Protected-memory size of each model-trial arena.
    pub mem_bytes: u64,
    /// Accesses simulated into the report artifact.
    pub artifact_accesses: u64,
}

/// The bounded campaign CI runs on every push.
pub const SMOKE: CampaignSpec = CampaignSpec {
    name: "smoke",
    model_trials_per_class: 6,
    infra_trials_per_class: 12,
    farmd_trials_per_class: 12,
    // Two in-memory tree levels under split counters, so tree flips
    // exercise both a leaf and an internal node even in the smoke run.
    mem_bytes: 1 << 20,
    artifact_accesses: 2_000,
};

/// The thorough campaign for local runs and the nightly job.
pub const FULL: CampaignSpec = CampaignSpec {
    name: "full",
    model_trials_per_class: 48,
    infra_trials_per_class: 80,
    farmd_trials_per_class: 80,
    mem_bytes: 1 << 22,
    artifact_accesses: 10_000,
};

/// Looks a campaign up by name.
pub fn by_name(name: &str) -> Option<CampaignSpec> {
    match name {
        "smoke" => Some(SMOKE),
        "full" => Some(FULL),
        _ => None,
    }
}

/// Aggregate verdicts for one model-fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelClassReport {
    /// Class name.
    pub class: &'static str,
    /// Trials run.
    pub trials: u32,
    /// Trials whose fault was detected.
    pub detected: u32,
    /// Trials whose fault was localized to the expected check.
    pub localized: u32,
}

/// Aggregate verdicts for one infrastructure-fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfraClassReport {
    /// Class name.
    pub class: &'static str,
    /// Trials run.
    pub trials: u32,
    /// Consumer rejected the corrupted artifact with a typed error.
    pub rejected: u32,
    /// Consumer accepted it and the content was exactly intact.
    pub intact: u32,
    /// Consumer accepted different content (forbidden for torn files).
    pub silent: u32,
    /// Consumer panicked (always forbidden).
    pub panics: u32,
}

/// Aggregate verdicts for one daemon-protocol fault class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmdClassReport {
    /// Class name.
    pub class: &'static str,
    /// Trials run.
    pub trials: u32,
    /// Decoder rejected the faulted stream with a typed error.
    pub rejected: u32,
    /// Decoder saw a clean EOF at a frame boundary (disconnects only).
    pub clean_eof: u32,
    /// Decoder produced a frame from faulted bytes (always forbidden).
    pub silent: u32,
    /// Decoder panicked (always forbidden).
    pub panics: u32,
    /// Trials whose outcome matched the class's expectation.
    pub acceptable: u32,
}

/// The full campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: &'static str,
    /// The seed that reproduces this report.
    pub seed: u64,
    /// Per-class model-fault verdicts.
    pub model: Vec<ModelClassReport>,
    /// Per-class infrastructure-fault verdicts.
    pub infra: Vec<InfraClassReport>,
    /// Per-class daemon-protocol fault verdicts.
    pub farmd: Vec<FarmdClassReport>,
    /// Deterministic fold over every trial outcome.
    pub fingerprint: u64,
}

impl CampaignReport {
    /// The campaign's pass criteria: 100% detection *and* localization
    /// for every model class, zero panics everywhere, zero silent
    /// acceptances of torn files, and every daemon-protocol trial
    /// landing on its class's expected outcome.
    pub fn passed(&self) -> bool {
        self.model
            .iter()
            .all(|c| c.detected == c.trials && c.localized == c.trials)
            && self.infra.iter().all(|c| {
                c.panics == 0
                    && (c.silent == 0
                        || !InfraFaultClass::ALL
                            .iter()
                            .any(|f| f.name() == c.class && f.is_torn()))
            })
            && self.farmd.iter().all(|c| c.acceptable == c.trials)
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        let model = self
            .model
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("class".to_string(), Json::Str(c.class.to_string())),
                    ("trials".to_string(), Json::UInt(u64::from(c.trials))),
                    ("detected".to_string(), Json::UInt(u64::from(c.detected))),
                    ("localized".to_string(), Json::UInt(u64::from(c.localized))),
                ])
            })
            .collect();
        let infra = self
            .infra
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("class".to_string(), Json::Str(c.class.to_string())),
                    ("trials".to_string(), Json::UInt(u64::from(c.trials))),
                    ("rejected".to_string(), Json::UInt(u64::from(c.rejected))),
                    ("intact".to_string(), Json::UInt(u64::from(c.intact))),
                    ("silent".to_string(), Json::UInt(u64::from(c.silent))),
                    ("panics".to_string(), Json::UInt(u64::from(c.panics))),
                ])
            })
            .collect();
        let farmd = self
            .farmd
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("class".to_string(), Json::Str(c.class.to_string())),
                    ("trials".to_string(), Json::UInt(u64::from(c.trials))),
                    ("rejected".to_string(), Json::UInt(u64::from(c.rejected))),
                    ("clean_eof".to_string(), Json::UInt(u64::from(c.clean_eof))),
                    ("silent".to_string(), Json::UInt(u64::from(c.silent))),
                    ("panics".to_string(), Json::UInt(u64::from(c.panics))),
                    (
                        "acceptable".to_string(),
                        Json::UInt(u64::from(c.acceptable)),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".to_string(), Json::UInt(1)),
            ("campaign".to_string(), Json::Str(self.campaign.to_string())),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("fingerprint".to_string(), Json::UInt(self.fingerprint)),
            ("passed".to_string(), Json::Bool(self.passed())),
            ("model".to_string(), Json::Arr(model)),
            ("infra".to_string(), Json::Arr(infra)),
            ("farmd".to_string(), Json::Arr(farmd)),
        ])
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign {} seed {} fingerprint {:016x}",
            self.campaign, self.seed, self.fingerprint
        )?;
        writeln!(f, "model faults (detected/localized/trials):")?;
        for c in &self.model {
            writeln!(
                f,
                "  {:<16} {:>3}/{:>3}/{:>3}",
                c.class, c.detected, c.localized, c.trials
            )?;
        }
        writeln!(f, "infra faults (rejected/intact/silent/panics of trials):")?;
        for c in &self.infra {
            writeln!(
                f,
                "  {:<16} {:>3}/{:>3}/{:>3}/{:>3} of {:>3}",
                c.class, c.rejected, c.intact, c.silent, c.panics, c.trials
            )?;
        }
        writeln!(
            f,
            "farmd faults (rejected/clean-eof/silent/panics of trials):"
        )?;
        for c in &self.farmd {
            writeln!(
                f,
                "  {:<16} {:>3}/{:>3}/{:>3}/{:>3} of {:>3}",
                c.class, c.rejected, c.clean_eof, c.silent, c.panics, c.trials
            )?;
        }
        write!(
            f,
            "verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// The artifacts the infrastructure plane corrupts, built once per
/// campaign from deterministic inputs.
fn build_artifacts(spec: &CampaignSpec, seed: u64) -> Vec<Artifact> {
    let cfg = SimConfig::paper_default();
    let report = SecureSim::new(cfg, Benchmark::Gups.build(seed)).run(spec.artifact_accesses);

    let mut manifest = Manifest::new("inject-artifact");
    manifest
        .param("seed", Json::UInt(seed))
        .param("accesses", Json::UInt(spec.artifact_accesses))
        .set_config(Json::Obj(vec![(
            "campaign".to_string(),
            Json::Str(spec.name.to_string()),
        )]));
    // Volatile fields would make artifact *lengths* (and so the seeded
    // fault offsets) time-dependent; the campaign is a pure function of
    // (spec, seed). The git revision is volatile too (a clean hash and a
    // `…-dirty` describe differ in length), so the artifact records what
    // `git_describe` reports outside a checkout.
    manifest.strip_volatile();
    let mut manifest_doc = manifest.to_json();
    if let Json::Obj(fields) = &mut manifest_doc {
        for (_, git) in fields.iter_mut().filter(|(key, _)| key == "git") {
            *git = Json::Str("unknown".to_string());
        }
    }

    let mut ckpt = Checkpoint::new(
        "inject-artifact",
        maps_obs::fingerprint64(&manifest.identity()),
    );
    ckpt.insert("sweep/point-a", report.to_json());
    ckpt.insert("sweep/point-b", Json::UInt(seed));

    vec![
        Artifact::manifest(&manifest_doc),
        Artifact::checkpoint(&ckpt),
        Artifact::report(&report),
    ]
}

/// Runs a campaign: every model class then every infrastructure class,
/// all trials drawing from one seeded stream.
pub fn run_campaign(spec: &CampaignSpec, seed: u64) -> CampaignReport {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fingerprint = SplitMix64::new(seed ^ 0x494E_4A45_4354_0001).next_u64();

    let mut model = Vec::new();
    for class in ModelFaultClass::ALL {
        let mut report = ModelClassReport {
            class: class.name(),
            trials: spec.model_trials_per_class,
            detected: 0,
            localized: 0,
        };
        for i in 0..spec.model_trials_per_class {
            let out = run_model_trial(class, spec.mem_bytes, i as usize, &mut rng);
            report.detected += u32::from(out.detected);
            report.localized += u32::from(out.localized);
            fingerprint = SplitMix64::new(fingerprint ^ out.code).next_u64();
        }
        model.push(report);
    }

    let artifacts = build_artifacts(spec, seed);
    let mut infra = Vec::new();
    for class in InfraFaultClass::ALL {
        let mut report = InfraClassReport {
            class: class.name(),
            trials: spec.infra_trials_per_class,
            rejected: 0,
            intact: 0,
            silent: 0,
            panics: 0,
        };
        for i in 0..spec.infra_trials_per_class {
            let artifact = &artifacts[i as usize % artifacts.len()];
            let out = crate::infra::run_infra_trial(artifact, class, &mut rng);
            match out.outcome {
                InfraOutcome::RejectedTyped => report.rejected += 1,
                InfraOutcome::AcceptedIntact => report.intact += 1,
                InfraOutcome::SilentCorruption => report.silent += 1,
                InfraOutcome::Panicked => report.panics += 1,
            }
            fingerprint = SplitMix64::new(fingerprint ^ out.code).next_u64();
        }
        infra.push(report);
    }

    let mut farmd = Vec::new();
    for class in FarmdFaultClass::ALL {
        let mut report = FarmdClassReport {
            class: class.name(),
            trials: spec.farmd_trials_per_class,
            rejected: 0,
            clean_eof: 0,
            silent: 0,
            panics: 0,
            acceptable: 0,
        };
        for _ in 0..spec.farmd_trials_per_class {
            let out = run_farmd_trial(class, &mut rng);
            match out.outcome {
                FarmdOutcome::RejectedTyped => report.rejected += 1,
                FarmdOutcome::CleanEof => report.clean_eof += 1,
                FarmdOutcome::SilentCorruption => report.silent += 1,
                FarmdOutcome::Panicked => report.panics += 1,
            }
            report.acceptable += u32::from(out.acceptable());
            fingerprint = SplitMix64::new(fingerprint ^ out.code).next_u64();
        }
        farmd.push(report);
    }

    CampaignReport {
        campaign: spec.name,
        seed,
        model,
        infra,
        farmd,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_passes_and_reproduces() {
        let a = run_campaign(&SMOKE, 5);
        assert!(a.passed(), "{a}");
        let b = run_campaign(&SMOKE, 5);
        assert_eq!(a, b, "same seed must reproduce bit-for-bit");
        let c = run_campaign(&SMOKE, 6);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "different seeds must not collide"
        );
    }

    #[test]
    fn artifact_manifest_does_not_depend_on_the_checkout() {
        let artifacts = build_artifacts(&SMOKE, 5);
        let manifest = artifacts
            .iter()
            .find(|a| a.name == "manifest")
            .expect("manifest artifact");
        let doc = Json::parse(std::str::from_utf8(&manifest.bytes).unwrap()).unwrap();
        assert_eq!(doc.get("git"), Some(&Json::Str("unknown".to_string())));
    }

    #[test]
    fn model_detection_is_total_in_the_smoke_campaign() {
        let r = run_campaign(&SMOKE, 17);
        for c in &r.model {
            assert_eq!(c.detected, c.trials, "{}: missed detections", c.class);
            assert_eq!(c.localized, c.trials, "{}: mislocalized", c.class);
        }
        for c in &r.infra {
            assert_eq!(c.panics, 0, "{}: consumer panicked", c.class);
        }
        for c in &r.farmd {
            assert_eq!(c.acceptable, c.trials, "{}: unexpected outcomes", c.class);
            assert_eq!(c.panics, 0, "{}: decoder panicked", c.class);
            assert_eq!(
                c.silent, 0,
                "{}: decoder mis-decoded faulted bytes",
                c.class
            );
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = run_campaign(&SMOKE, 5);
        let doc = Json::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("campaign").unwrap().as_str(), Some("smoke"));
        assert_eq!(
            doc.get("fingerprint").unwrap().as_u64(),
            Some(r.fingerprint)
        );
        assert_eq!(doc.get("passed").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn campaign_lookup() {
        assert_eq!(by_name("smoke").unwrap().name, "smoke");
        assert_eq!(by_name("full").unwrap().name, "full");
        assert!(by_name("bogus").is_none());
    }
}
