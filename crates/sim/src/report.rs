//! Simulation reports, including the bit-exact JSON codec the sweep
//! checkpoints use.
//!
//! The codec round-trips every field exactly: `u64` counters map to JSON
//! integers (the [`Json`] writer keeps full 64-bit precision), and every
//! `f64` energy term is stored as its raw IEEE-754 bit pattern in an
//! unsigned field (`*_bits`), sidestepping decimal formatting entirely.
//! That is what lets a resumed sweep re-emit TSV rows byte-identical to
//! an uninterrupted run.

use std::fmt;

use maps_cache::{CacheStats, KindStats};
use maps_mem::{DramCounters, EnergyDelay};
use maps_obs::{CodecError, Json};
use maps_trace::MetaGroup;

use crate::engine::EngineStats;
use crate::hierarchy::HierarchyStats;

/// Schema version of the serialized report. Bump on any field change.
/// (v2 added the per-tenant metadata-cache breakdown.)
pub const REPORT_SCHEMA_VERSION: u64 = 2;

fn dram_to_json(d: &DramCounters) -> Json {
    let DramCounters { reads, writes } = d;
    Json::Obj(vec![
        ("reads".to_string(), Json::UInt(*reads)),
        ("writes".to_string(), Json::UInt(*writes)),
    ])
}

fn dram_from_json(doc: &Json) -> Result<DramCounters, CodecError> {
    Ok(DramCounters {
        reads: doc.u64_field("reads")?,
        writes: doc.u64_field("writes")?,
    })
}

fn cache_stats_to_json(s: &CacheStats) -> Json {
    let buckets = s
        .buckets()
        .iter()
        .map(|b| {
            Json::Arr(vec![
                Json::UInt(b.accesses),
                Json::UInt(b.hits),
                Json::UInt(b.misses),
                Json::UInt(b.evictions),
                Json::UInt(b.writebacks),
            ])
        })
        .collect();
    Json::Obj(vec![("buckets".to_string(), Json::Arr(buckets))])
}

fn cache_stats_from_json(doc: &Json) -> Result<CacheStats, CodecError> {
    let rows = doc.arr_field("buckets")?;
    if rows.len() != 4 {
        return Err(CodecError::invalid("buckets", "must hold exactly 4 kinds"));
    }
    let mut buckets = [KindStats::default(); 4];
    for (out, row) in buckets.iter_mut().zip(rows) {
        let Json::Arr(fields) = row else {
            return Err(CodecError::invalid("buckets", "row is not an array"));
        };
        let mut vals = [0u64; 5];
        if fields.len() != vals.len() {
            return Err(CodecError::invalid(
                "buckets",
                "row must hold exactly 5 counters",
            ));
        }
        for (v, field) in vals.iter_mut().zip(fields) {
            *v = field.as_u64().ok_or_else(|| {
                CodecError::invalid("buckets", "counter is not an unsigned integer")
            })?;
        }
        let [accesses, hits, misses, evictions, writebacks] = vals;
        *out = KindStats {
            accesses,
            hits,
            misses,
            evictions,
            writebacks,
        };
    }
    Ok(CacheStats::from_buckets(buckets))
}

fn hierarchy_to_json(h: &HierarchyStats) -> Json {
    let HierarchyStats {
        accesses,
        instructions,
        l1_misses,
        l2_misses,
        llc_demand_misses,
        llc_writebacks,
    } = h;
    Json::Obj(vec![
        ("accesses".to_string(), Json::UInt(*accesses)),
        ("instructions".to_string(), Json::UInt(*instructions)),
        ("l1_misses".to_string(), Json::UInt(*l1_misses)),
        ("l2_misses".to_string(), Json::UInt(*l2_misses)),
        (
            "llc_demand_misses".to_string(),
            Json::UInt(*llc_demand_misses),
        ),
        ("llc_writebacks".to_string(), Json::UInt(*llc_writebacks)),
    ])
}

fn engine_to_json(e: &EngineStats) -> Json {
    let EngineStats {
        meta,
        dram_data,
        dram_meta,
        tree_walks,
        tree_walk_level_misses,
        page_overflows,
        partial_fill_reads,
        stall_cycles,
        reads,
        writes,
        max_cascade_depth,
    } = e;
    Json::Obj(vec![
        ("meta".to_string(), cache_stats_to_json(meta)),
        ("dram_data".to_string(), dram_to_json(dram_data)),
        ("dram_meta".to_string(), dram_to_json(dram_meta)),
        ("tree_walks".to_string(), Json::UInt(*tree_walks)),
        (
            "tree_walk_level_misses".to_string(),
            Json::UInt(*tree_walk_level_misses),
        ),
        ("page_overflows".to_string(), Json::UInt(*page_overflows)),
        (
            "partial_fill_reads".to_string(),
            Json::UInt(*partial_fill_reads),
        ),
        ("stall_cycles".to_string(), Json::UInt(*stall_cycles)),
        ("reads".to_string(), Json::UInt(*reads)),
        ("writes".to_string(), Json::UInt(*writes)),
        (
            "max_cascade_depth".to_string(),
            Json::UInt(*max_cascade_depth),
        ),
    ])
}

fn tenant_to_json(t: &TenantMdcStats) -> Json {
    let TenantMdcStats {
        tenant,
        meta,
        occupancy,
    } = t;
    Json::Obj(vec![
        ("tenant".to_string(), Json::UInt(u64::from(*tenant))),
        ("meta".to_string(), cache_stats_to_json(meta)),
        ("occupancy".to_string(), Json::UInt(*occupancy)),
    ])
}

/// Per-tenant metadata-cache breakdown for one tenant that issued at
/// least one access in the measured window or still holds lines, e.g.
/// from warm-up (requester-pays attribution).
///
/// The rows sum to the metadata cache's own [`CacheStats`], not to the
/// engine's `stats.meta`: the engine also counts bypassed-counter
/// read-modify-writes and write-through tree updates that never reach
/// the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantMdcStats {
    /// The tenant.
    pub tenant: u8,
    /// Metadata-cache accounting booked to this tenant.
    pub meta: CacheStats,
    /// Metadata-cache lines this tenant occupied at the end of the run
    /// (before the final flush).
    pub occupancy: u64,
}

impl TenantMdcStats {
    /// Metadata miss ratio of this tenant's accesses — the observable a
    /// cross-tenant occupancy probe measures.
    pub fn miss_ratio(&self) -> f64 {
        let t = self.meta.metadata_total();
        if t.accesses == 0 {
            0.0
        } else {
            t.misses as f64 / t.accesses as f64
        }
    }
}

/// Results of one simulation run (post-warm-up window).
///
/// Equality is exact (every counter and energy term bitwise-equal), which
/// is what the capture/replay equivalence suite asserts.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Instructions retired in the measured window.
    pub instructions: u64,
    /// Cycles (CPI-1 base plus memory stalls).
    pub cycles: u64,
    /// Cache-hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// Metadata-engine statistics.
    pub engine: EngineStats,
    /// Per-tenant metadata-cache breakdown, ascending by tenant id.
    /// Empty for single-tenant runs that never left [`maps_trace::TenantId::HOST`]
    /// with the cache disabled, and for insecure runs.
    pub tenants: Vec<TenantMdcStats>,
    /// Energy/delay accounting.
    pub energy: EnergyDelay,
}

impl SimReport {
    /// Metadata misses per thousand instructions — the metric of
    /// Figures 1 and 6.
    pub fn metadata_mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.engine.meta.metadata_total().misses as f64 * 1000.0 / self.instructions as f64
    }

    /// Metadata MPKI for one metadata group.
    pub fn group_mpki(&self, group: MetaGroup) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        let kind = match group {
            MetaGroup::Counter => maps_trace::BlockKind::Counter,
            MetaGroup::Hash => maps_trace::BlockKind::Hash,
            MetaGroup::Tree => maps_trace::BlockKind::Tree(0),
        };
        self.engine.meta.kind(kind).misses as f64 * 1000.0 / self.instructions as f64
    }

    /// LLC demand misses per thousand instructions.
    pub fn llc_mpki(&self) -> f64 {
        self.hierarchy.llc_mpki()
    }

    /// Energy–delay-squared product.
    pub fn ed2(&self) -> f64 {
        self.energy.ed2()
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Metadata cache hit ratio over all metadata accesses.
    pub fn metadata_hit_ratio(&self) -> f64 {
        let t = self.engine.meta.metadata_total();
        if t.accesses == 0 {
            0.0
        } else {
            t.hits as f64 / t.accesses as f64
        }
    }

    /// The per-tenant breakdown row for `tenant`, if it issued accesses.
    pub fn tenant(&self, tenant: u8) -> Option<&TenantMdcStats> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Serializes the report for checkpointing. Exact: integers keep all
    /// 64 bits and floats are stored as raw bit patterns, so
    /// `from_json(to_json(r)) == r` bitwise.
    pub fn to_json(&self) -> Json {
        let SimReport {
            workload,
            instructions,
            cycles,
            hierarchy,
            engine,
            tenants,
            energy,
        } = self;
        let energy = Json::Obj(vec![
            ("cycles".to_string(), Json::UInt(energy.cycles())),
            (
                "dram_pj_bits".to_string(),
                Json::UInt(energy.dram_pj().to_bits()),
            ),
            (
                "sram_pj_bits".to_string(),
                Json::UInt(energy.sram_pj().to_bits()),
            ),
            (
                "static_pj_bits".to_string(),
                Json::UInt(energy.static_pj().to_bits()),
            ),
        ]);
        Json::Obj(vec![
            (
                "schema_version".to_string(),
                Json::UInt(REPORT_SCHEMA_VERSION),
            ),
            ("workload".to_string(), Json::Str(workload.clone())),
            ("instructions".to_string(), Json::UInt(*instructions)),
            ("cycles".to_string(), Json::UInt(*cycles)),
            ("hierarchy".to_string(), hierarchy_to_json(hierarchy)),
            ("engine".to_string(), engine_to_json(engine)),
            (
                "tenants".to_string(),
                Json::Arr(tenants.iter().map(tenant_to_json).collect()),
            ),
            ("energy".to_string(), energy),
        ])
    }

    /// Decodes a report serialized by [`SimReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`CodecError::Missing`], [`CodecError::Invalid`] or
    /// [`CodecError::Version`] when any field is missing, mistyped, or the
    /// schema version is unsupported — a corrupt or stale checkpoint entry
    /// is rejected, never misread into wrong figures.
    pub fn from_json(doc: &Json) -> Result<Self, CodecError> {
        doc.check_version("schema_version", REPORT_SCHEMA_VERSION)?;
        let workload = doc.str_field("workload")?.to_string();
        let h = doc.obj_field("hierarchy")?;
        let hierarchy = HierarchyStats {
            accesses: h.u64_field("accesses")?,
            instructions: h.u64_field("instructions")?,
            l1_misses: h.u64_field("l1_misses")?,
            l2_misses: h.u64_field("l2_misses")?,
            llc_demand_misses: h.u64_field("llc_demand_misses")?,
            llc_writebacks: h.u64_field("llc_writebacks")?,
        };
        let e = doc.obj_field("engine")?;
        let engine = EngineStats {
            meta: cache_stats_from_json(e.obj_field("meta")?)?,
            dram_data: dram_from_json(e.obj_field("dram_data")?)?,
            dram_meta: dram_from_json(e.obj_field("dram_meta")?)?,
            tree_walks: e.u64_field("tree_walks")?,
            tree_walk_level_misses: e.u64_field("tree_walk_level_misses")?,
            page_overflows: e.u64_field("page_overflows")?,
            partial_fill_reads: e.u64_field("partial_fill_reads")?,
            stall_cycles: e.u64_field("stall_cycles")?,
            reads: e.u64_field("reads")?,
            writes: e.u64_field("writes")?,
            max_cascade_depth: e.u64_field("max_cascade_depth")?,
        };
        let rows = doc.arr_field("tenants")?;
        let mut tenants = Vec::with_capacity(rows.len());
        for row in rows {
            let tenant = u8::try_from(row.u64_field("tenant")?)
                .map_err(|_| CodecError::invalid("tenant", "id out of range"))?;
            tenants.push(TenantMdcStats {
                tenant,
                meta: cache_stats_from_json(row.obj_field("meta")?)?,
                occupancy: row.u64_field("occupancy")?,
            });
        }
        let en = doc.obj_field("energy")?;
        let energy = EnergyDelay::from_parts(
            en.u64_field("cycles")?,
            en.f64_bits_field("dram_pj_bits")?,
            en.f64_bits_field("sram_pj_bits")?,
            en.f64_bits_field("static_pj_bits")?,
        );
        Ok(SimReport {
            workload,
            instructions: doc.u64_field("instructions")?,
            cycles: doc.u64_field("cycles")?,
            hierarchy,
            engine,
            tenants,
            energy,
        })
    }

    /// Exports the whole report under `{prefix}.*`: hierarchy and engine
    /// counters, energy, and the headline derived figures as gauges.
    pub fn export(&self, prefix: &str, sink: &mut maps_obs::Metrics) {
        sink.counter_add(&format!("{prefix}.instructions"), self.instructions);
        sink.counter_add(&format!("{prefix}.cycles"), self.cycles);
        self.hierarchy.export(&format!("{prefix}.hierarchy"), sink);
        self.engine.export(&format!("{prefix}.engine"), sink);
        self.energy.export(&format!("{prefix}.energy"), sink);
        sink.gauge_set(&format!("{prefix}.ipc"), self.ipc());
        sink.gauge_set(&format!("{prefix}.llc_mpki"), self.llc_mpki());
        sink.gauge_set(&format!("{prefix}.metadata_mpki"), self.metadata_mpki());
        sink.gauge_set(
            &format!("{prefix}.metadata_hit_ratio"),
            self.metadata_hit_ratio(),
        );
        for t in &self.tenants {
            let p = format!("{prefix}.tenant{}", t.tenant);
            t.meta.export(&format!("{p}.meta"), sink);
            if t.occupancy != 0 {
                sink.counter_add(&format!("{p}.occupancy"), t.occupancy);
            }
            sink.gauge_set(&format!("{p}.miss_ratio"), t.miss_ratio());
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload          {}", self.workload)?;
        writeln!(f, "instructions      {}", self.instructions)?;
        writeln!(
            f,
            "cycles            {} (IPC {:.3})",
            self.cycles,
            self.ipc()
        )?;
        writeln!(f, "LLC MPKI          {:.2}", self.llc_mpki())?;
        writeln!(f, "metadata MPKI     {:.2}", self.metadata_mpki())?;
        writeln!(f, "metadata hit rate {:.3}", self.metadata_hit_ratio())?;
        writeln!(
            f,
            "DRAM transfers    {} data, {} metadata",
            self.engine.dram_data.total(),
            self.engine.dram_meta.total()
        )?;
        write!(f, "energy            {}", self.energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut engine = EngineStats::default();
        engine
            .meta
            .record_access(maps_trace::BlockKind::Counter, false);
        engine
            .meta
            .record_access(maps_trace::BlockKind::Hash, false);
        engine.meta.record_access(maps_trace::BlockKind::Hash, true);
        SimReport {
            workload: "test".into(),
            instructions: 1000,
            cycles: 2000,
            hierarchy: HierarchyStats::default(),
            engine,
            tenants: Vec::new(),
            energy: EnergyDelay::new(),
        }
    }

    #[test]
    fn mpki_math() {
        let r = report();
        assert!((r.metadata_mpki() - 2.0).abs() < 1e-12);
        assert!((r.group_mpki(MetaGroup::Counter) - 1.0).abs() < 1e-12);
        assert!((r.group_mpki(MetaGroup::Tree)).abs() < 1e-12);
        assert!((r.ipc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_ratio() {
        let r = report();
        assert!((r.metadata_hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_lines() {
        let s = report().to_string();
        assert!(s.contains("metadata MPKI"));
        assert!(s.contains("workload"));
    }

    #[test]
    fn json_codec_round_trips_bitwise() {
        let mut r = report();
        r.engine.dram_data.reads = 3;
        r.engine.tree_walks = 5;
        r.hierarchy.llc_demand_misses = 9;
        let mut meta = CacheStats::default();
        meta.record_access(maps_trace::BlockKind::Counter, true);
        meta.record_access(maps_trace::BlockKind::Counter, false);
        r.tenants = vec![
            TenantMdcStats {
                tenant: 0,
                meta,
                occupancy: 12,
            },
            TenantMdcStats {
                tenant: 3,
                meta: CacheStats::default(),
                occupancy: 0,
            },
        ];
        r.energy.add_cycles(123);
        // Deliberately awkward floats: exact round-trip must survive
        // values with no short decimal representation.
        r.energy.add_dram_pj(0.1 + 0.2);
        r.energy.add_sram_pj(1.0 / 3.0);
        r.energy.add_static_pj(f64::MIN_POSITIVE);
        let text = r.to_json().to_pretty();
        let decoded = SimReport::from_json(&maps_obs::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(
            decoded.energy.dram_pj().to_bits(),
            r.energy.dram_pj().to_bits()
        );
    }

    #[test]
    fn json_codec_is_pinned_byte_for_byte() {
        // The checkpoint record of a small report with every field set:
        // key names and order are part of the on-disk format.
        let mut meta = CacheStats::default();
        meta.record_access(maps_trace::BlockKind::Counter, false);
        meta.record_access(maps_trace::BlockKind::Hash, true);
        meta.record_eviction(maps_trace::BlockKind::Tree(0), true);
        let mut tenant_meta = CacheStats::default();
        tenant_meta.record_access(maps_trace::BlockKind::Counter, false);
        let r = SimReport {
            workload: "gups".to_string(),
            instructions: 1000,
            cycles: 2500,
            hierarchy: HierarchyStats {
                accesses: 400,
                instructions: 1000,
                l1_misses: 90,
                l2_misses: 40,
                llc_demand_misses: 12,
                llc_writebacks: 3,
            },
            engine: EngineStats {
                meta,
                dram_data: DramCounters {
                    reads: 12,
                    writes: 3,
                },
                dram_meta: DramCounters {
                    reads: 5,
                    writes: 2,
                },
                tree_walks: 4,
                tree_walk_level_misses: 6,
                page_overflows: 1,
                partial_fill_reads: 8,
                stall_cycles: 700,
                reads: 300,
                writes: 100,
                max_cascade_depth: 2,
            },
            tenants: vec![TenantMdcStats {
                tenant: 1,
                meta: tenant_meta,
                occupancy: 9,
            }],
            energy: EnergyDelay::from_parts(2500, 1.5, 0.25, 3.0),
        };
        assert_eq!(
            r.to_json().to_compact(),
            concat!(
                r#"{"schema_version":2,"workload":"gups","instructions":1000,"cycles":2500,"#,
                r#""hierarchy":{"accesses":400,"instructions":1000,"l1_misses":90,"#,
                r#""l2_misses":40,"llc_demand_misses":12,"llc_writebacks":3},"#,
                r#""engine":{"meta":{"buckets":[[0,0,0,0,0],[1,0,1,0,0],[1,1,0,0,0],"#,
                r#"[0,0,0,1,1]]},"dram_data":{"reads":12,"writes":3},"#,
                r#""dram_meta":{"reads":5,"writes":2},"tree_walks":4,"#,
                r#""tree_walk_level_misses":6,"page_overflows":1,"partial_fill_reads":8,"#,
                r#""stall_cycles":700,"reads":300,"writes":100,"max_cascade_depth":2},"#,
                r#""tenants":[{"tenant":1,"meta":{"buckets":[[0,0,0,0,0],[1,0,1,0,0],"#,
                r#"[0,0,0,0,0],[0,0,0,0,0]]},"occupancy":9}],"#,
                r#""energy":{"cycles":2500,"dram_pj_bits":4609434218613702656,"#,
                r#""sram_pj_bits":4598175219545276416,"static_pj_bits":4613937818241073152}}"#,
            )
        );
    }

    #[test]
    fn json_codec_rejects_corruption_with_typed_errors() {
        let doc = report().to_json();
        // Wrong schema version.
        let mut bad = doc.clone();
        if let maps_obs::Json::Obj(pairs) = &mut bad {
            for (k, v) in pairs.iter_mut() {
                if k == "schema_version" {
                    *v = maps_obs::Json::UInt(99);
                }
            }
        }
        assert!(matches!(
            SimReport::from_json(&bad),
            Err(CodecError::Version {
                field: "schema_version",
                got: 99,
                expected: REPORT_SCHEMA_VERSION
            })
        ));
        // Dropped field.
        let mut bad = doc.clone();
        if let maps_obs::Json::Obj(pairs) = &mut bad {
            pairs.retain(|(k, _)| k != "engine");
        }
        assert!(matches!(
            SimReport::from_json(&bad),
            Err(CodecError::Missing("engine"))
        ));
        // Non-object root.
        assert!(SimReport::from_json(&maps_obs::Json::Arr(vec![])).is_err());
    }

    #[test]
    fn export_carries_headline_figures() {
        let r = report();
        let mut m = maps_obs::Metrics::new();
        r.export("sim", &mut m);
        assert_eq!(m.counter_value("sim.instructions"), 1000);
        assert_eq!(m.counter_value("sim.cycles"), 2000);
        assert_eq!(m.counter_value("sim.engine.meta.counter.misses"), 1);
        assert_eq!(m.gauge_value("sim.ipc"), Some(0.5));
        let mpki = m.gauge_value("sim.metadata_mpki").unwrap();
        assert!((mpki - 2.0).abs() < 1e-12);
    }
}
