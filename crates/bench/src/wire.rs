//! The [`SimJob`] wire codec: how the farm daemon ships a sweep point
//! to a worker process and reads it back.
//!
//! A job is its key, benchmark, seed, access count and [`JobKind`], plus
//! its configuration in the one [`SimConfig`] encoding
//! ([`SimConfig::to_json`]). Every malformed document decodes to a typed
//! [`CodecError`], never a panic, because the daemon feeds this decoder
//! bytes that crossed a socket.
//!
//! [`PolicyChoice::Min`]/[`PolicyChoice::TraceMin`] configurations carry a
//! recorded oracle trace that the configuration encoding writes by name
//! only. Farm jobs never carry them ([`JobKind::Min`]/[`JobKind::IterMin`]
//! jobs build their oracle *inside* [`crate::exec_job`] from the captured
//! trace), so [`job_to_json`] rejects them with a typed error instead of
//! shipping a configuration the worker could not rebuild, and
//! [`job_from_json`] refuses their names.

use maps_obs::{CodecError, Json};
use maps_sim::{PolicyChoice, SimConfig};
use maps_workloads::Benchmark;

use crate::host::{JobKind, SimJob};

/// Whether the policy embeds a MIN oracle trace, which jobs do not carry.
fn embeds_oracle(cfg: &SimConfig) -> bool {
    matches!(
        cfg.mdc.policy,
        PolicyChoice::Min(_) | PolicyChoice::TraceMin(_)
    )
}

fn kind_to_json(kind: &JobKind) -> Json {
    match kind {
        JobKind::Replay => Json::Obj(vec![("tag".into(), Json::Str("replay".into()))]),
        JobKind::Min => Json::Obj(vec![("tag".into(), Json::Str("min".into()))]),
        JobKind::IterMin { iterations } => Json::Obj(vec![
            ("tag".into(), Json::Str("iter-min".into())),
            ("iterations".into(), Json::UInt(*iterations as u64)),
        ]),
        JobKind::Occupancy { victim_pages } => Json::Obj(vec![
            ("tag".into(), Json::Str("occupancy".into())),
            ("victim_pages".into(), Json::UInt(*victim_pages)),
        ]),
    }
}

fn kind_from_json(doc: &Json) -> Result<JobKind, CodecError> {
    Ok(match doc.str_field("tag")? {
        "replay" => JobKind::Replay,
        "min" => JobKind::Min,
        "iter-min" => JobKind::IterMin {
            iterations: doc.usize_field("iterations")?,
        },
        "occupancy" => JobKind::Occupancy {
            victim_pages: doc.u64_field("victim_pages")?,
        },
        other => {
            return Err(CodecError::invalid(
                "kind.tag",
                format!("unknown tag '{other}'"),
            ))
        }
    })
}

/// Encodes a job for the worker wire. Lossless for every job the farm
/// plans; [`PolicyChoice::Min`]/[`PolicyChoice::TraceMin`] configurations
/// are rejected with [`CodecError::Unsupported`].
///
/// # Errors
///
/// [`CodecError::Unsupported`] for oracle-bearing policies.
pub fn job_to_json(job: &SimJob) -> Result<Json, CodecError> {
    let SimJob {
        key,
        cfg,
        bench,
        seed,
        accesses,
        kind,
    } = job;
    if embeds_oracle(cfg) {
        return Err(CodecError::Unsupported(format!(
            "policy '{}' embeds an oracle trace; MIN points ship as JobKind::Min and \
             rebuild the oracle worker-side",
            cfg.mdc.policy.name()
        )));
    }
    Ok(Json::Obj(vec![
        ("key".into(), Json::Str(key.clone())),
        ("bench".into(), Json::Str(bench.name().into())),
        ("seed".into(), Json::UInt(*seed)),
        ("accesses".into(), Json::UInt(*accesses)),
        ("kind".into(), kind_to_json(kind)),
        ("cfg".into(), cfg.to_json()),
    ]))
}

/// Decodes a job from the worker wire. Total: every malformed document —
/// wrong types, missing fields, unknown names, invalid partitions, MIN
/// policies — is a typed [`CodecError`], never a panic.
///
/// # Errors
///
/// See [`CodecError`].
pub fn job_from_json(doc: &Json) -> Result<SimJob, CodecError> {
    let bench_name = doc.str_field("bench")?;
    let bench = Benchmark::from_name(bench_name)
        .ok_or_else(|| CodecError::invalid("bench", format!("unknown benchmark '{bench_name}'")))?;
    let key = doc.str_field("key")?.to_string();
    let cfg = SimConfig::from_json(doc.field("cfg")?)?;
    if embeds_oracle(&cfg) {
        return Err(CodecError::invalid(
            "cfg.mdc.policy.name",
            format!(
                "policy '{}' needs an oracle trace, which jobs do not carry",
                cfg.mdc.policy.name()
            ),
        ));
    }
    Ok(SimJob {
        key,
        cfg,
        bench,
        seed: doc.u64_field("seed")?,
        accesses: doc.u64_field("accesses")?,
        kind: kind_from_json(doc.field("kind")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use maps_cache::Partition;
    use maps_sim::{MdcConfig, MdcDesign, PartitionMode};

    fn exotic_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.mdc = cfg
            .mdc
            .with_policy(PolicyChoice::Random(0xDEAD_BEEF))
            .with_partition(PartitionMode::Dynamic {
                a: Partition::new(2, 8).unwrap(),
                b: Partition::new(6, 8).unwrap(),
                leaders_per_side: 4,
            })
            .with_design(MdcDesign::Randomized { seed: 77 });
        cfg.mdc.partial_writes = true;
        cfg.counter_mode = maps_secure::CounterMode::SgxMonolithic;
        cfg.dram.energy_per_bit_pj = 151.25;
        cfg.warmup_fraction = 0.137;
        cfg.speculation_window = u64::MAX;
        cfg
    }

    fn round_trip(job: &SimJob) -> SimJob {
        // Through *text*, not just the Json tree: the wire carries bytes.
        let text = job_to_json(job).expect("encodable").to_pretty();
        job_from_json(&Json::parse(&text).expect("parses")).expect("decodable")
    }

    /// Cost-aware eviction under a per-tenant split.
    fn tenant_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.mdc = cfg
            .mdc
            .with_policy(PolicyChoice::CostAware(64))
            .with_partition(PartitionMode::PerTenant { tenants: 3 });
        cfg
    }

    #[test]
    fn exotic_job_round_trips_exactly() {
        for cfg in [exotic_config(), tenant_config()] {
            let job = SimJob {
                key: "llc=2097152/mdc=65536".into(),
                cfg,
                bench: Benchmark::Mcf,
                seed: crate::SEED ^ 3,
                accesses: 123_456,
                kind: JobKind::Occupancy { victim_pages: 640 },
            };
            let back = round_trip(&job);
            assert_eq!(back.key, job.key);
            assert_eq!(back.cfg, job.cfg);
            assert_eq!(back.bench, job.bench);
            assert_eq!(back.seed, job.seed);
            assert_eq!(back.accesses, job.accesses);
            assert_eq!(back.kind.tag(), job.kind.tag());
            // Same identity string ⇒ same point fingerprint ⇒ same
            // checkpoint slot on both sides of the wire.
            assert_eq!(back.identity(), job.identity());
        }
    }

    #[test]
    fn job_encoding_is_pinned_byte_for_byte() {
        let mut cfg = tenant_config();
        cfg.dram.energy_per_bit_pj = 300.0;
        let job = SimJob {
            key: "golden".into(),
            cfg,
            bench: Benchmark::Mcf,
            seed: 7,
            accesses: 20_000,
            kind: JobKind::IterMin { iterations: 3 },
        };
        // Worker frames carry these bytes: key names and order are part
        // of the wire format.
        const CFG: &str = concat!(
            r#"{"l1_bytes":32768,"l1_ways":8,"l2_bytes":262144,"l2_ways":8,"#,
            r#""llc_bytes":2097152,"llc_ways":8,"memory_bytes":4294967296,"#,
            r#""counter_mode":"split-pi","mdc":{"size_bytes":65536,"ways":8,"#,
            r#""contents":{"counters":true,"hashes":true,"tree":true},"#,
            r#""policy":{"name":"cost-aware","cost":64},"#,
            r#""partition":{"mode":"per-tenant","tenants":3},"partial_writes":false,"#,
            r#""design":{"kind":"set-assoc"}},"dram":{"latency_cycles":200,"#,
            r#""energy_per_bit_pj_bits":4643985272004935680,"#,
            r#""background_pj_per_cycle_bits":4632233691727265792},"hash_latency":40,"#,
            r#""speculation":true,"speculation_window":18446744073709551615,"#,
            r#""secure":true,"warmup_fraction_bits":4591870180066957722}"#,
        );
        assert_eq!(
            job_to_json(&job).expect("encodable").to_compact(),
            format!(
                r#"{{"key":"golden","bench":"mcf","seed":7,"accesses":20000,"kind":{{"tag":"iter-min","iterations":3}},"cfg":{CFG}}}"#
            )
        );
        // Manifests embed, and point fingerprints hash, the same text.
        assert_eq!(job.cfg.to_json().to_compact(), CFG);
        assert_eq!(
            job.identity(),
            format!("cfg={CFG};bench=mcf;seed=7;accesses=20000;kind=itermin3")
        );
    }

    #[test]
    fn every_job_kind_round_trips() {
        for kind in [
            JobKind::Replay,
            JobKind::Min,
            JobKind::IterMin { iterations: 5 },
            JobKind::Occupancy { victim_pages: 64 },
        ] {
            let job = SimJob {
                key: format!("kind-{}", kind.tag()),
                cfg: SimConfig::paper_default(),
                bench: Benchmark::Gups,
                seed: 1,
                accesses: 100,
                kind,
            };
            assert_eq!(round_trip(&job).identity(), job.identity());
        }
    }

    #[test]
    fn oracle_policies_are_rejected_at_encode() {
        let mut cfg = SimConfig::paper_default();
        cfg.mdc = cfg.mdc.with_policy(PolicyChoice::Min(vec![1, 2, 3]));
        let job = SimJob::replay("min", cfg, Benchmark::Gups, 100);
        assert!(matches!(job_to_json(&job), Err(CodecError::Unsupported(_))));
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        let job = SimJob::replay("ok", SimConfig::paper_default(), Benchmark::Gups, 100);
        let good = job_to_json(&job).unwrap();

        assert!(matches!(
            job_from_json(&Json::Null),
            Err(CodecError::Missing("bench"))
        ));

        // Wrong type in a scalar field.
        let mut doc = good.clone();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "seed" {
                    *v = Json::Str("not a number".into());
                }
            }
        }
        assert!(matches!(
            job_from_json(&doc),
            Err(CodecError::Invalid { field: "seed", .. })
        ));

        // Unknown benchmark.
        let mut doc = good.clone();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "bench" {
                    *v = Json::Str("quake4".into());
                }
            }
        }
        assert!(matches!(
            job_from_json(&doc),
            Err(CodecError::Invalid { field: "bench", .. })
        ));

        // A MIN policy: the configuration encoding names it but drops its
        // trace, so it must not decode.
        let mut min = SimConfig::paper_default();
        min.mdc = min.mdc.with_policy(PolicyChoice::Min(vec![1, 2, 3]));
        let mut doc = good.clone();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "cfg" {
                    *v = min.to_json();
                }
            }
        }
        assert!(matches!(
            job_from_json(&doc),
            Err(CodecError::Invalid {
                field: "cfg.mdc.policy.name",
                ..
            })
        ));
    }

    #[test]
    fn starving_tenant_splits_are_typed_errors() {
        let decode = |tenants: usize, design: MdcDesign| {
            let mut cfg = SimConfig::paper_default();
            cfg.mdc = cfg
                .mdc
                .with_partition(PartitionMode::PerTenant { tenants })
                .with_design(design);
            let job = SimJob::replay("t", cfg, Benchmark::Gups, 100);
            job_from_json(&job_to_json(&job).expect("encodable"))
        };
        let randomized = MdcDesign::Randomized { seed: 5 };
        for (tenants, design) in [
            (0, MdcDesign::SetAssoc),
            (9, MdcDesign::SetAssoc),
            (0, randomized),
        ] {
            assert!(
                matches!(
                    decode(tenants, design),
                    Err(CodecError::Invalid {
                        field: "cfg.mdc.partition.tenants",
                        ..
                    })
                ),
                "{tenants} tenants over 8 ways of {design:?}"
            );
        }
        // Quotas, not way ranges: any positive count fits a randomized cache.
        assert!(decode(9, randomized).is_ok());
        assert!(decode(8, MdcDesign::SetAssoc).is_ok());
    }

    #[test]
    fn unbuildable_geometries_are_typed_errors() {
        let decode = |cfg: SimConfig| {
            let job = SimJob::replay("g", cfg, Benchmark::Gups, 100);
            job_from_json(&job_to_json(&job).expect("encodable"))
        };
        let paper = SimConfig::paper_default();
        let mut leaders = paper.clone();
        // 128 sets in the paper's 64 KB 8-way MDC.
        leaders.mdc.partition = PartitionMode::Dynamic {
            a: Partition::new(2, 8).unwrap(),
            b: Partition::new(6, 8).unwrap(),
            leaders_per_side: 1000,
        };
        let mut l1_ways = paper.clone();
        l1_ways.l1_ways = 0;
        let mdc_bytes = paper.with_mdc(paper.mdc.with_size(1000));
        let randomized_bytes = paper.with_mdc(
            paper
                .mdc
                .with_size(1000)
                .with_design(MdcDesign::Randomized { seed: 5 }),
        );
        for (cfg, field) in [
            (leaders, "cfg.mdc.partition.leaders_per_side"),
            (l1_ways, "cfg.l1_ways"),
            (mdc_bytes, "cfg.mdc.size_bytes"),
            (randomized_bytes, "cfg.mdc.size_bytes"),
        ] {
            let got = decode(cfg);
            assert!(
                matches!(got, Err(CodecError::Invalid { field: f, .. }) if f == field),
                "{field}: {got:?}"
            );
        }
        // The largest leader count that fits, a frame count that is not a
        // power of two under the randomized design, and a disabled MDC
        // all decode.
        let mut fits = paper.clone();
        fits.mdc.partition = PartitionMode::Dynamic {
            a: Partition::new(2, 8).unwrap(),
            b: Partition::new(6, 8).unwrap(),
            leaders_per_side: 64,
        };
        let randomized_odd = paper.with_mdc(
            paper
                .mdc
                .with_size(3 * 8 * 64)
                .with_design(MdcDesign::Randomized { seed: 5 }),
        );
        let disabled = paper.with_mdc(MdcConfig::disabled());
        for cfg in [fits, randomized_odd, disabled] {
            assert!(decode(cfg.clone()).is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn floats_survive_the_text_round_trip_bit_exactly() {
        let mut cfg = SimConfig::paper_default();
        cfg.warmup_fraction = 0.1f64.next_up();
        let job = SimJob::replay("f", cfg.clone(), Benchmark::Gups, 10);
        let back = round_trip(&job);
        assert_eq!(
            back.cfg.warmup_fraction.to_bits(),
            cfg.warmup_fraction.to_bits()
        );
    }
}
