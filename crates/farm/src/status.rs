//! Campaign progress, read entirely from the artifact directory.
//!
//! `maps-farm status` correlates three sources, none of which require the
//! running campaign's cooperation: `campaign.json` (what was planned),
//! `campaign.ckpt` (which fingerprints have finished — the append-only
//! journal the queue commits every point to, read up to its committed
//! count), and the per-figure `<name>.manifest.json` files (which figures
//! completed and wrote their artifacts). It can therefore watch a live
//! run, inspect a crashed one, or confirm a finished one.

use std::path::Path;

use maps_bench::queue::ckpt_key;
use maps_obs::Checkpoint;
use maps_trace::DetHashSet;

use crate::campaign::{load_campaign, CampaignDoc};
use crate::FarmError;

/// A point-in-time view of a campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The planned campaign.
    pub doc: CampaignDoc,
    /// Unique points finished so far (from the checkpoint; equals the
    /// plan size once every figure completed and 0 after the checkpoint
    /// is cleaned up — see [`CampaignStatus::complete`]).
    pub finished_points: usize,
    /// Figures whose manifest exists (completed figures).
    pub finished_figures: Vec<String>,
    /// `(figure, phase, done, planned)` per planned phase, attributing
    /// each shared point to the first figure that declared it.
    pub phase_progress: Vec<(String, String, usize, usize)>,
}

impl CampaignStatus {
    /// Whether every selected figure wrote its manifest.
    pub fn complete(&self) -> bool {
        self.finished_figures.len() == self.doc.figures.len()
    }

    /// Renders the human-readable status block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign '{}' at {}: {} unique points ({} declared jobs, {} capture keys)\n",
            self.doc.name,
            self.doc.git,
            self.doc.points.len(),
            self.doc.total_jobs,
            self.doc.capture_keys,
        ));
        out.push_str(&format!(
            "checkpointed: {}/{} points; figures complete: {}/{}\n",
            self.finished_points,
            self.doc.points.len(),
            self.finished_figures.len(),
            self.doc.figures.len(),
        ));
        for fig in &self.doc.figures {
            let done = if self.finished_figures.contains(&fig.name) {
                " [complete]"
            } else {
                ""
            };
            let estimate = if fig.dynamic {
                " (plan is an estimate)"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {} @ {} accesses{estimate}{done}\n",
                fig.name, fig.accesses
            ));
            for (figure, phase, finished, planned) in &self.phase_progress {
                if figure == &fig.name {
                    out.push_str(&format!("    {phase}: {finished}/{planned}\n"));
                }
            }
        }
        if let Some(sup) = &self.doc.supervision {
            out.push_str(&format!(
                "supervision: {} worker respawns, {} retries, {} quarantined, \
                 {} heartbeat misses, {} client reconnects\n",
                sup.respawns,
                sup.retries,
                sup.quarantined,
                sup.heartbeat_misses,
                sup.client_reconnects,
            ));
        }
        out
    }
}

/// Reads the status of the campaign in `dir`.
///
/// # Errors
///
/// [`FarmError::Io`] / [`FarmError::Parse`] when `campaign.json` is
/// missing or malformed. A missing or mismatched checkpoint is *not* an
/// error — it simply means no resumable progress exists.
pub fn campaign_status(dir: &Path) -> Result<CampaignStatus, FarmError> {
    let doc = load_campaign(&dir.join("campaign.json"))?;

    // The checkpoint is only trusted when it belongs to this exact plan.
    let finished: DetHashSet<u64> = match Checkpoint::load(&dir.join("campaign.ckpt")) {
        Ok(Some(ckpt))
            if ckpt.name() == doc.name && ckpt.fingerprint() == doc.identity_fingerprint =>
        {
            doc.points
                .iter()
                .filter(|(fp, _, _, _)| ckpt.get(&ckpt_key(*fp)).is_some())
                .map(|(fp, _, _, _)| *fp)
                .collect()
        }
        _ => DetHashSet::default(),
    };

    let finished_figures: Vec<String> = doc
        .figures
        .iter()
        .map(|f| f.name.clone())
        .filter(|name| dir.join(format!("{name}.manifest.json")).exists())
        .collect();

    // Per-phase progress over the planned unique points (shared points
    // count toward their first declarer).
    let mut phase_progress: Vec<(String, String, usize, usize)> = Vec::new();
    for (fp, figure, phase, _key) in &doc.points {
        let done = finished.contains(fp) as usize;
        match phase_progress
            .iter_mut()
            .find(|(f, p, _, _)| f == figure && p == phase)
        {
            Some((_, _, finished, planned)) => {
                *finished += done;
                *planned += 1;
            }
            None => phase_progress.push((figure.clone(), phase.clone(), done, 1)),
        }
    }

    Ok(CampaignStatus {
        finished_points: finished.len(),
        finished_figures,
        phase_progress,
        doc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_bench::figures::figure;

    #[test]
    fn status_tracks_checkpoint_and_manifests() {
        let dir = std::env::temp_dir().join(format!("maps-farm-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");

        let defs = [figure("fig2").expect("fig2 registered")];
        let plan = crate::run::write_plan("campaign", &defs, &dir).expect("plan");

        // No checkpoint, no manifests: nothing finished.
        let status = campaign_status(&dir).expect("status");
        assert_eq!(status.finished_points, 0);
        assert!(!status.complete());

        // Commit two points under the plan's identity, as the queue does.
        let mut journal = Checkpoint::new("campaign", plan.identity_fingerprint())
            .journal(&dir.join("campaign.ckpt"))
            .expect("open journal");
        for p in plan.points.iter().take(2) {
            journal
                .commit(&ckpt_key(p.fingerprint), &maps_obs::Json::Null)
                .expect("commit");
        }
        drop(journal);
        let status = campaign_status(&dir).expect("status");
        assert_eq!(status.finished_points, 2);
        let fig2_done: usize = status
            .phase_progress
            .iter()
            .filter(|(f, _, _, _)| f == "fig2")
            .map(|(_, _, done, _)| done)
            .sum();
        assert_eq!(fig2_done, 2);
        assert!(status.render().contains("checkpointed: 2/"));

        // A checkpoint for a different identity is ignored, not trusted.
        Checkpoint::new("campaign", plan.identity_fingerprint() ^ 1)
            .save(&dir.join("campaign.ckpt"))
            .expect("save stale ckpt");
        assert_eq!(campaign_status(&dir).expect("status").finished_points, 0);

        // A manifest marks the figure complete.
        std::fs::write(dir.join("fig2.manifest.json"), "{}").expect("manifest");
        assert!(campaign_status(&dir).expect("status").complete());
        std::fs::remove_dir_all(&dir).ok();
    }
}
