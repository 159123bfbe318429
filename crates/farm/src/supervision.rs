//! Supervision counters: how much crash-isolation machinery fired.
//!
//! A `maps-farmd` campaign appends this block to `campaign.json` when it
//! settles, and `maps-farm status` renders it. The block is advisory —
//! absent for in-process (`maps-farm run`) campaigns, and ignored by
//! `load_campaign` when it fails to decode. The encoder destructures the
//! struct and the decoder builds it with a full literal, so a counter
//! added without a key fails to build.

use maps_obs::{CodecError, Json};

/// Counters a daemon run exports into `campaign.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Supervision {
    /// Worker processes killed and replaced (death, torn frame, stall).
    pub respawns: u64,
    /// Failed point attempts retried under the backoff policy.
    pub retries: u64,
    /// Points quarantined past their retry budget (see `failures.json`).
    pub quarantined: u64,
    /// Heartbeat deadlines that expired on a claimed point.
    pub heartbeat_misses: u64,
    /// Clients that re-attached to the live event stream.
    pub client_reconnects: u64,
}

impl Supervision {
    /// Encodes the counter block.
    pub fn to_json(&self) -> Json {
        let Supervision {
            respawns,
            retries,
            quarantined,
            heartbeat_misses,
            client_reconnects,
        } = self;
        Json::Obj(vec![
            ("respawns".to_string(), Json::UInt(*respawns)),
            ("retries".to_string(), Json::UInt(*retries)),
            ("quarantined".to_string(), Json::UInt(*quarantined)),
            (
                "heartbeat_misses".to_string(),
                Json::UInt(*heartbeat_misses),
            ),
            (
                "client_reconnects".to_string(),
                Json::UInt(*client_reconnects),
            ),
        ])
    }

    /// Decodes a counter block.
    ///
    /// # Errors
    ///
    /// [`CodecError::Missing`] or [`CodecError::Invalid`] for an absent
    /// or mistyped counter.
    pub fn from_json(doc: &Json) -> Result<Self, CodecError> {
        Ok(Supervision {
            respawns: doc.u64_field("respawns")?,
            retries: doc.u64_field("retries")?,
            quarantined: doc.u64_field("quarantined")?,
            heartbeat_misses: doc.u64_field("heartbeat_misses")?,
            client_reconnects: doc.u64_field("client_reconnects")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_and_reject_mistyped_blocks() {
        let sup = Supervision {
            respawns: 3,
            retries: 7,
            quarantined: 1,
            heartbeat_misses: 2,
            client_reconnects: 4,
        };
        assert_eq!(Supervision::from_json(&sup.to_json()).ok(), Some(sup));
        // The campaign.json block byte for byte: key names and order are
        // part of the document format.
        assert_eq!(
            sup.to_json().to_compact(),
            r#"{"respawns":3,"retries":7,"quarantined":1,"heartbeat_misses":2,"client_reconnects":4}"#
        );
        assert!(matches!(
            Supervision::from_json(&Json::Null),
            Err(CodecError::Missing("respawns"))
        ));
        let Json::Obj(mut fields) = sup.to_json() else {
            panic!("supervision encodes as an object");
        };
        fields.retain(|(k, _)| k != "retries");
        assert!(
            matches!(
                Supervision::from_json(&Json::Obj(fields)),
                Err(CodecError::Missing("retries"))
            ),
            "a dropped counter is a decode error, not a default"
        );
    }
}
