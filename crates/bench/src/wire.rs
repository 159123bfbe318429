//! The one [`SimConfig`] encoding, and the [`SimJob`] wire codec built on
//! it.
//!
//! A configuration is encoded here and nowhere else. Run manifests embed
//! the encoding ([`crate::RunContext::set_config`]), [`SimJob::identity`]
//! hashes it into every point fingerprint, and the farm daemon ships it
//! to worker processes inside [`job_to_json`]. Every outcome-bearing field
//! is written, so two configurations that can simulate differently never
//! share a fingerprint, and a worker reconstructs the configuration
//! *exactly*. Floats travel as raw IEEE-754 bits (`f64::to_bits`, the
//! `SimReport` discipline), and every malformed document decodes to a
//! typed [`CodecError`], never a panic, because the daemon feeds this
//! decoder bytes that crossed a socket.
//!
//! Field coverage is checked by the compiler: each encoder destructures
//! its struct without `..` and each decoder builds it with a literal that
//! names every field, so a new field that no codec handles fails to build.
//!
//! The one deliberate hole: [`PolicyChoice::Min`]/[`PolicyChoice::TraceMin`]
//! carry a recorded oracle trace that can run to millions of entries. The
//! configuration encoding writes their name only. Farm jobs never carry
//! them ([`JobKind::Min`]/[`JobKind::IterMin`] jobs build their oracle
//! *inside* [`crate::exec_job`] from the captured trace), so
//! [`job_to_json`] rejects them with a typed error instead of shipping a
//! configuration the worker could not rebuild, and the decoder refuses
//! their names.

use maps_mem::DramModel;
use maps_obs::{CodecError, Json};
use maps_secure::CounterMode;
use maps_sim::{CacheContents, MdcConfig, MdcDesign, PartitionMode, PolicyChoice, SimConfig};
use maps_workloads::Benchmark;

use crate::host::{JobKind, SimJob};

fn f64_bits(v: f64) -> Json {
    Json::UInt(v.to_bits())
}

/// A policy by name plus its parameter; MIN oracle traces are written by
/// name only (see the module docs).
fn policy_to_json(policy: &PolicyChoice) -> Json {
    let mut fields = vec![("name".to_string(), Json::Str(policy.name().into()))];
    match policy {
        PolicyChoice::Random(seed) => fields.push(("seed".into(), Json::UInt(*seed))),
        PolicyChoice::CostAware(cost) => fields.push(("cost".into(), Json::UInt(*cost))),
        PolicyChoice::Min(_) | PolicyChoice::TraceMin(_) => {}
        PolicyChoice::PseudoLru
        | PolicyChoice::TrueLru
        | PolicyChoice::Fifo
        | PolicyChoice::Srrip
        | PolicyChoice::Eva
        | PolicyChoice::Drrip
        | PolicyChoice::EvaPerType => {}
    }
    Json::Obj(fields)
}

fn policy_from_json(doc: &Json) -> Result<PolicyChoice, CodecError> {
    let name = doc.str_field("name")?;
    Ok(match name {
        "pseudo-lru" => PolicyChoice::PseudoLru,
        "true-lru" => PolicyChoice::TrueLru,
        "fifo" => PolicyChoice::Fifo,
        "random" => PolicyChoice::Random(doc.u64_field("seed")?),
        "srrip" => PolicyChoice::Srrip,
        "eva" => PolicyChoice::Eva,
        "cost-aware" => PolicyChoice::CostAware(doc.u64_field("cost")?),
        "drrip" => PolicyChoice::Drrip,
        "eva-per-type" => PolicyChoice::EvaPerType,
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.policy.name",
                format!("unknown or non-wire policy '{other}'"),
            ))
        }
    })
}

fn partition_to_json(partition: &PartitionMode) -> Json {
    match partition {
        PartitionMode::None => Json::Obj(vec![("mode".into(), Json::Str("none".into()))]),
        PartitionMode::Static(p) => Json::Obj(vec![
            ("mode".into(), Json::Str("static".into())),
            (
                "counter_ways".into(),
                Json::UInt(p.counter_way_count() as u64),
            ),
        ]),
        PartitionMode::Dynamic {
            a,
            b,
            leaders_per_side,
        } => Json::Obj(vec![
            ("mode".into(), Json::Str("dynamic".into())),
            (
                "a_counter_ways".into(),
                Json::UInt(a.counter_way_count() as u64),
            ),
            (
                "b_counter_ways".into(),
                Json::UInt(b.counter_way_count() as u64),
            ),
            (
                "leaders_per_side".into(),
                Json::UInt(*leaders_per_side as u64),
            ),
        ]),
        PartitionMode::PerTenant { tenants } => Json::Obj(vec![
            ("mode".into(), Json::Str("per-tenant".into())),
            ("tenants".into(), Json::UInt(*tenants as u64)),
        ]),
    }
}

/// Rebuilds a [`maps_cache::Partition`] from its counter-way count; the
/// total way count comes from the surrounding `mdc.ways`.
fn partition_ways(
    counter_ways: usize,
    ways: usize,
    field: &'static str,
) -> Result<maps_cache::Partition, CodecError> {
    maps_cache::Partition::new(counter_ways, ways)
        .map_err(|e| CodecError::invalid(field, e.to_string()))
}

fn partition_from_json(doc: &Json, ways: usize) -> Result<PartitionMode, CodecError> {
    Ok(match doc.str_field("mode")? {
        "none" => PartitionMode::None,
        "static" => PartitionMode::Static(partition_ways(
            doc.usize_field("counter_ways")?,
            ways,
            "cfg.mdc.partition.counter_ways",
        )?),
        "dynamic" => PartitionMode::Dynamic {
            a: partition_ways(
                doc.usize_field("a_counter_ways")?,
                ways,
                "cfg.mdc.partition.a_counter_ways",
            )?,
            b: partition_ways(
                doc.usize_field("b_counter_ways")?,
                ways,
                "cfg.mdc.partition.b_counter_ways",
            )?,
            leaders_per_side: doc.usize_field("leaders_per_side")?,
        },
        "per-tenant" => PartitionMode::PerTenant {
            tenants: doc.usize_field("tenants")?,
        },
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.partition.mode",
                format!("unknown mode '{other}'"),
            ))
        }
    })
}

fn design_to_json(design: &MdcDesign) -> Json {
    let mut fields = vec![("kind".to_string(), Json::Str(design.name().into()))];
    match design {
        MdcDesign::SetAssoc => {}
        MdcDesign::Randomized { seed } => fields.push(("seed".into(), Json::UInt(*seed))),
    }
    Json::Obj(fields)
}

fn design_from_json(doc: &Json) -> Result<MdcDesign, CodecError> {
    Ok(match doc.str_field("kind")? {
        "set-assoc" => MdcDesign::SetAssoc,
        "randomized" => MdcDesign::Randomized {
            seed: doc.u64_field("seed")?,
        },
        other => {
            return Err(CodecError::invalid(
                "cfg.mdc.design.kind",
                format!("unknown kind '{other}'"),
            ))
        }
    })
}

fn mdc_to_json(mdc: &MdcConfig) -> Json {
    let MdcConfig {
        size_bytes,
        ways,
        contents,
        policy,
        partition,
        partial_writes,
        design,
    } = mdc;
    let CacheContents {
        counters,
        hashes,
        tree,
    } = contents;
    let contents = Json::Obj(vec![
        ("counters".into(), Json::Bool(*counters)),
        ("hashes".into(), Json::Bool(*hashes)),
        ("tree".into(), Json::Bool(*tree)),
    ]);
    Json::Obj(vec![
        ("size_bytes".into(), Json::UInt(*size_bytes)),
        ("ways".into(), Json::UInt(*ways as u64)),
        ("contents".into(), contents),
        ("policy".into(), policy_to_json(policy)),
        ("partition".into(), partition_to_json(partition)),
        ("partial_writes".into(), Json::Bool(*partial_writes)),
        ("design".into(), design_to_json(design)),
    ])
}

fn dram_to_json(dram: &DramModel) -> Json {
    let DramModel {
        latency_cycles,
        energy_per_bit_pj,
        background_pj_per_cycle,
    } = dram;
    Json::Obj(vec![
        ("latency_cycles".into(), Json::UInt(*latency_cycles)),
        (
            "energy_per_bit_pj_bits".into(),
            f64_bits(*energy_per_bit_pj),
        ),
        (
            "background_pj_per_cycle_bits".into(),
            f64_bits(*background_pj_per_cycle),
        ),
    ])
}

/// Encodes a configuration: the manifest `config` block, the text every
/// point fingerprint hashes, and the `cfg` of a worker job. Lossless but
/// for MIN oracle traces, which are written by name only.
pub(crate) fn config_to_json(cfg: &SimConfig) -> Json {
    let SimConfig {
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        llc_bytes,
        llc_ways,
        memory_bytes,
        counter_mode,
        mdc,
        dram,
        hash_latency,
        speculation,
        speculation_window,
        secure,
        warmup_fraction,
    } = cfg;
    let counter_mode = match counter_mode {
        CounterMode::SplitPi => "split-pi",
        CounterMode::SgxMonolithic => "sgx-monolithic",
    };
    Json::Obj(vec![
        ("l1_bytes".into(), Json::UInt(*l1_bytes)),
        ("l1_ways".into(), Json::UInt(*l1_ways as u64)),
        ("l2_bytes".into(), Json::UInt(*l2_bytes)),
        ("l2_ways".into(), Json::UInt(*l2_ways as u64)),
        ("llc_bytes".into(), Json::UInt(*llc_bytes)),
        ("llc_ways".into(), Json::UInt(*llc_ways as u64)),
        ("memory_bytes".into(), Json::UInt(*memory_bytes)),
        ("counter_mode".into(), Json::Str(counter_mode.into())),
        ("mdc".into(), mdc_to_json(mdc)),
        ("dram".into(), dram_to_json(dram)),
        ("hash_latency".into(), Json::UInt(*hash_latency)),
        ("speculation".into(), Json::Bool(*speculation)),
        ("speculation_window".into(), Json::UInt(*speculation_window)),
        ("secure".into(), Json::Bool(*secure)),
        ("warmup_fraction_bits".into(), f64_bits(*warmup_fraction)),
    ])
}

fn config_from_json(doc: &Json) -> Result<SimConfig, CodecError> {
    let mdc_doc = doc.field("mdc")?;
    let contents_doc = mdc_doc.field("contents")?;
    let contents = CacheContents {
        counters: contents_doc.bool_field("counters")?,
        hashes: contents_doc.bool_field("hashes")?,
        tree: contents_doc.bool_field("tree")?,
    };
    let ways = mdc_doc.usize_field("ways")?;
    let mdc = MdcConfig {
        size_bytes: mdc_doc.u64_field("size_bytes")?,
        ways,
        contents,
        policy: policy_from_json(mdc_doc.field("policy")?)?,
        partition: partition_from_json(mdc_doc.field("partition")?, ways)?,
        partial_writes: mdc_doc.bool_field("partial_writes")?,
        design: design_from_json(mdc_doc.field("design")?)?,
    };
    let counter_mode = match doc.str_field("counter_mode")? {
        "split-pi" => CounterMode::SplitPi,
        "sgx-monolithic" => CounterMode::SgxMonolithic,
        other => {
            return Err(CodecError::invalid(
                "cfg.counter_mode",
                format!("unknown mode '{other}'"),
            ))
        }
    };
    let dram_doc = doc.field("dram")?;
    let dram = DramModel {
        latency_cycles: dram_doc.u64_field("latency_cycles")?,
        energy_per_bit_pj: dram_doc.f64_bits_field("energy_per_bit_pj_bits")?,
        background_pj_per_cycle: dram_doc.f64_bits_field("background_pj_per_cycle_bits")?,
    };
    Ok(SimConfig {
        l1_bytes: doc.u64_field("l1_bytes")?,
        l1_ways: doc.usize_field("l1_ways")?,
        l2_bytes: doc.u64_field("l2_bytes")?,
        l2_ways: doc.usize_field("l2_ways")?,
        llc_bytes: doc.u64_field("llc_bytes")?,
        llc_ways: doc.usize_field("llc_ways")?,
        memory_bytes: doc.u64_field("memory_bytes")?,
        counter_mode,
        mdc,
        dram,
        hash_latency: doc.u64_field("hash_latency")?,
        speculation: doc.bool_field("speculation")?,
        speculation_window: doc.u64_field("speculation_window")?,
        secure: doc.bool_field("secure")?,
        warmup_fraction: doc.f64_bits_field("warmup_fraction_bits")?,
    })
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
    if matches!(
        cfg.mdc.policy,
        PolicyChoice::Min(_) | PolicyChoice::TraceMin(_)
    ) {
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
        ("cfg".into(), config_to_json(cfg)),
    ]))
}

/// Decodes a job from the worker wire. Total: every malformed document —
/// wrong types, missing fields, unknown names, invalid partitions — is a
/// typed [`CodecError`], never a panic.
///
/// # Errors
///
/// See [`CodecError`].
pub fn job_from_json(doc: &Json) -> Result<SimJob, CodecError> {
    let bench_name = doc.str_field("bench")?;
    let bench = Benchmark::from_name(bench_name)
        .ok_or_else(|| CodecError::invalid("bench", format!("unknown benchmark '{bench_name}'")))?;
    Ok(SimJob {
        key: doc.str_field("key")?.to_string(),
        cfg: config_from_json(doc.field("cfg")?)?,
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
        assert_eq!(config_to_json(&job.cfg).to_compact(), CFG);
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
                    *v = config_to_json(&min);
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
