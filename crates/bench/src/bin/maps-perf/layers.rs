//! Per-layer attribution, timed in-process through each layer's public
//! entry points on one capture at a time, plus the codec and checkpoint
//! costs that dominate tiny campaign points.
//!
//! Every isolated layer is also a correctness check: it must reproduce the
//! replay's statistics exactly, or the timing would describe different
//! work.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use maps_bench::{job_from_json, job_to_json, SimJob};
use maps_cache::{CacheConfig, SetAssocCache};
use maps_obs::{read_frame, write_frame, Checkpoint, Json};
use maps_secure::{CounterStore, SecureConfig, WriteOutcome};
use maps_sim::{
    CapturedTrace, Hierarchy, MemEvent, MetaObserver, MetadataCache, MetadataEngine, NullObserver,
    RecordingObserver, ReplaySim, SecureSim, SimConfig, SimReport, DEFAULT_BATCH_EVENTS,
};
use maps_trace::{BlockAddr, MetaAccess, TenantId, PAGE_BYTES};
use maps_workloads::Benchmark;

use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::Outcome;

/// Timed repetitions per layer measurement; the median is reported.
const REPS: usize = 3;

/// Iterations per codec measurement; the median is reported.
const CODEC_ITERS: usize = 200;

/// Checkpoint sizes timed: the point counts of sweep-fig2,
/// campaign-farmd and campaign-tiny.
const CHECKPOINT_SIZES: [usize; 3] = [350, 446, 708];

/// One recorded front end with the report a direct (capture-free) run of
/// the same benchmark, seed and access count produces.
pub struct Capture {
    /// The benchmark profile.
    pub bench: Benchmark,
    /// The workload seed.
    pub seed: u64,
    /// The recorded front end.
    pub trace: CapturedTrace,
    /// `SecureSim` report for the same inputs: the reference every replay
    /// must equal.
    pub reference: SimReport,
}

impl Capture {
    /// Wraps a recording with its direct reference simulation.
    pub fn new(cfg: &SimConfig, bench: Benchmark, seed: u64, trace: CapturedTrace) -> Self {
        let reference = SecureSim::new(cfg.clone(), bench.build(seed)).run(trace.accesses());
        Capture {
            bench,
            seed,
            trace,
            reference,
        }
    }
}

/// Runs `f` [`REPS`] times inside spans named `name`, returning the median
/// seconds and the last result.
fn reps<T>(tr: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        tr.begin(name);
        let t = Instant::now();
        let out = black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        tr.end();
        last = Some(out);
    }
    (median(&secs), last.expect("REPS is positive"))
}

/// Builds the metadata engine exactly as `ReplaySim::new` does for `trace`.
fn engine_for(cfg: &SimConfig, trace: &CapturedTrace) -> MetadataEngine {
    let memory_bytes = cfg.memory_bytes.max(trace.footprint_bytes()).max(4096);
    MetadataEngine::with_speculation_window(
        SecureConfig::new(memory_bytes.next_multiple_of(PAGE_BYTES), cfg.counter_mode),
        &cfg.mdc,
        cfg.dram.latency_cycles,
        cfg.hash_latency,
        cfg.speculation,
        cfg.speculation_window,
    )
}

/// Drives `events` through `engine` in replay-sized batches, returning the
/// summed read stalls.
fn drive<O: MetaObserver>(engine: &mut MetadataEngine, events: &[MemEvent], obs: &mut O) -> u64 {
    events
        .chunks(DEFAULT_BATCH_EVENTS)
        .map(|chunk| engine.handle_batch(chunk, obs))
        .sum()
}

/// Feeds a recorded metadata stream to the metadata cache the way the
/// engine does: reads through `access`, writes (slot updates, counter
/// increments, re-encryption rewrites) through `write_partial`, whose hit
/// and miss paths equal a write `access` when partial writes are off.
fn mdc_replay(mdc: &mut MetadataCache, stream: &[MetaAccess]) {
    for r in stream {
        let key = r.block.index();
        black_box(if r.access.is_write() {
            mdc.write_partial(key, r.kind, 0, TenantId::HOST)
        } else {
            mdc.access(key, r.kind, false, TenantId::HOST)
        });
    }
}

/// The same stream through the bare cache core, as `MetadataCache` drives
/// it without partitions or per-tenant accounting.
fn cache_replay<P: maps_cache::Policy>(cache: &mut SetAssocCache<P>, stream: &[MetaAccess]) {
    for r in stream {
        let key = r.block.index();
        if r.access.is_write() {
            if cache.access_mark_valid(key, r.kind, 0).is_none() {
                black_box(cache.access_with(key, r.kind, true, None));
            }
        } else {
            black_box(cache.access_with(key, r.kind, false, None));
        }
    }
}

/// Base per-capture costs (ns per unit) and counts; derived metrics such
/// as residuals and self times are computed from these, so they obey the
/// same identities per capture and in the geometric-mean aggregate.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// `ReplaySim::run` per event.
    pub replay: f64,
    /// `EventCursor::next_events` per event.
    pub decode: f64,
    /// `MetadataEngine::handle_batch` per event.
    pub engine: f64,
    /// `MetadataCache` per metadata access.
    pub mdcache: f64,
    /// `SetAssocCache` per metadata access.
    pub cache: f64,
    /// `CounterStore::record_write` per write event.
    pub counters: f64,
    /// Workload generation per core access.
    pub workloads: f64,
    /// `Hierarchy::access_from` per core access.
    pub hierarchy: f64,
    /// `CapturedTrace::record` per core access.
    pub record: f64,
    /// Metadata-cache accesses per event over the whole stream (warm-up
    /// included, as the engine timing is).
    pub mdc_per_event: f64,
    /// Measured-window metadata-cache accesses per event.
    pub accesses_per_event: f64,
    /// Measured-window metadata-cache miss ratio.
    pub miss_ratio: f64,
    /// Measured-window dirty metadata evictions per event.
    pub writebacks_per_event: f64,
    /// Measured-window tree levels fetched per event.
    pub walk_levels_per_event: f64,
    /// LLC events per core access.
    pub events_per_access: f64,
    /// Packed capture bytes per event.
    pub bytes_per_event: f64,
}

impl Layers {
    /// Field-wise geometric mean.
    pub fn geomean(all: &[Layers]) -> Layers {
        let g = |f: fn(&Layers) -> f64| geomean(&all.iter().map(f).collect::<Vec<_>>());
        Layers {
            replay: g(|l| l.replay),
            decode: g(|l| l.decode),
            engine: g(|l| l.engine),
            mdcache: g(|l| l.mdcache),
            cache: g(|l| l.cache),
            counters: g(|l| l.counters),
            workloads: g(|l| l.workloads),
            hierarchy: g(|l| l.hierarchy),
            record: g(|l| l.record),
            mdc_per_event: g(|l| l.mdc_per_event),
            accesses_per_event: g(|l| l.accesses_per_event),
            miss_ratio: g(|l| l.miss_ratio),
            writebacks_per_event: g(|l| l.writebacks_per_event),
            walk_levels_per_event: g(|l| l.walk_levels_per_event),
            events_per_access: g(|l| l.events_per_access),
            bytes_per_event: g(|l| l.bytes_per_event),
        }
    }

    /// The named metrics, with residuals and self times derived.
    pub fn metrics(&self) -> [(&'static str, f64); 19] {
        [
            ("sim.replay.ns_per_event", self.replay),
            (
                "sim.replay.residual_ns_per_event",
                self.replay - self.decode - self.engine,
            ),
            ("sim.capture.decode_ns_per_event", self.decode),
            ("sim.engine.ns_per_event", self.engine),
            (
                "sim.engine.self_ns_per_event",
                self.engine - self.mdcache * self.mdc_per_event,
            ),
            ("sim.mdcache.ns_per_access", self.mdcache),
            ("sim.mdcache.self_ns_per_access", self.mdcache - self.cache),
            ("cache.ns_per_access", self.cache),
            ("secure.counters.ns_per_write", self.counters),
            ("workloads.ns_per_access", self.workloads),
            ("sim.hierarchy.ns_per_access", self.hierarchy),
            ("sim.capture.record_ns_per_access", self.record),
            (
                "sim.capture.encode_ns_per_access",
                self.record - self.workloads - self.hierarchy,
            ),
            ("sim.mdcache.accesses_per_event", self.accesses_per_event),
            ("sim.mdcache.miss_ratio", self.miss_ratio),
            (
                "sim.mdcache.writebacks_per_event",
                self.writebacks_per_event,
            ),
            (
                "sim.engine.walk_levels_per_event",
                self.walk_levels_per_event,
            ),
            ("sim.capture.events_per_access", self.events_per_access),
            ("sim.capture.bytes_per_event", self.bytes_per_event),
        ]
    }
}

/// Times every sim layer on one capture and checks each isolated layer
/// against the replay's statistics.
pub fn measure(cfg: &SimConfig, cap: &Capture, tr: &mut Tracer, out: &mut Outcome) -> Layers {
    let name = cap.bench.name();
    let seed = cap.seed;
    let trace = &cap.trace;
    let accesses = trace.accesses();
    let total = trace.total_events();
    let warm = trace.warmup_events() as usize;
    let measured = (total - trace.warmup_events()) as f64;
    let per = |secs: f64, units: usize| secs * 1e9 / units.max(1) as f64;
    tr.begin(&format!("layers.{name}"));

    // Front end: generation, then the hierarchy on the pre-generated
    // stream, then the whole recording (the residual is the encoder).
    let mut stream = Vec::with_capacity(accesses as usize);
    let (t_workloads, ()) = reps(tr, "workloads", || {
        stream.clear();
        let mut w = cap.bench.build(seed);
        for _ in 0..accesses {
            let a = w.next_access();
            stream.push((a, w.current_tenant()));
        }
    });
    let warmup_accesses = (accesses as f64 * cfg.warmup_fraction) as usize;
    let (t_hierarchy, (hstats, emitted)) = reps(tr, "sim.hierarchy", || {
        let mut h = Hierarchy::new(cfg);
        let mut events = Vec::with_capacity(8);
        let mut emitted = 0u64;
        for (i, (a, tenant)) in stream.iter().enumerate() {
            h.access_from(a, *tenant, &mut events);
            emitted += events.len() as u64;
            if i + 1 == warmup_accesses {
                h.reset_stats();
            }
        }
        (*h.stats(), emitted)
    });
    drop(stream);
    out.check(
        hstats == *trace.hierarchy_stats() && emitted == total,
        || format!("{name}: isolated hierarchy diverged from the capture"),
    );
    let (t_record, recorded) = reps(tr, "sim.capture.record", || {
        CapturedTrace::record(cfg, cap.bench.build(seed), accesses)
    });
    out.check(recorded == *trace, || {
        format!("{name}: re-recording produced a different capture")
    });
    drop(recorded);

    // Decode alone, into the replay's stack buffer.
    let (t_decode, decoded) = reps(tr, "sim.capture.decode", || {
        let mut buf = [MemEvent::Read(BlockAddr::new(0), TenantId::HOST); DEFAULT_BATCH_EVENTS];
        let mut cursor = trace.events();
        let mut count = 0u64;
        loop {
            let (n, icount) = cursor.next_events(&mut buf);
            if n == 0 {
                break count;
            }
            count += n as u64;
            black_box((&buf[..n], icount));
        }
    });
    out.check(decoded == total, || {
        format!("{name}: decoded {decoded} of {total} events")
    });

    let mut events = Vec::with_capacity(total as usize);
    let mut measured_icount = 0u64;
    for (i, e) in trace.events().enumerate() {
        events.push(e.event);
        if i >= warm {
            measured_icount += e.icount_delta;
        }
    }

    // The engine on pre-decoded events, stats reset at the warm-up
    // boundary as the replay does.
    let (t_engine, (estats, mdc_ref, stall)) = reps(tr, "sim.engine", || {
        let mut engine = engine_for(cfg, trace);
        drive(&mut engine, &events[..warm], &mut NullObserver);
        engine.reset_stats();
        let stall = drive(&mut engine, &events[warm..], &mut NullObserver);
        let mdc = engine.mdc().map(|m| *m.stats()).unwrap_or_default();
        (*engine.stats(), mdc, stall)
    });
    out.check(
        estats == cap.reference.engine
            && stall + measured_icount + trace.tail_icount() == cap.reference.cycles,
        || format!("{name}: isolated engine diverged from the replay's EngineStats"),
    );

    // The metadata access stream the engine drives into its cache, replayed
    // through the per-tenant wrapper and through the bare cache core.
    let mut rec = RecordingObserver::new();
    let mut engine = engine_for(cfg, trace);
    drive(&mut engine, &events[..warm], &mut rec);
    let boundary = rec.records.len();
    drive(&mut engine, &events[warm..], &mut rec);
    drop(engine);
    let (warm_stream, measured_stream) = rec.records.split_at(boundary);
    let (t_mdcache, mstats) = reps(tr, "sim.mdcache", || {
        let mut mdc = MetadataCache::new(&cfg.mdc).expect("benchmark configs enable the MDC");
        mdc_replay(&mut mdc, warm_stream);
        mdc.reset_stats();
        mdc_replay(&mut mdc, measured_stream);
        *mdc.stats()
    });
    out.check(mstats == mdc_ref, || {
        format!("{name}: MetadataCache replay diverged from the engine's CacheStats")
    });
    let (t_cache, cstats) = reps(tr, "cache", || {
        let geometry = CacheConfig::from_bytes(cfg.mdc.size_bytes, cfg.mdc.ways);
        let mut cache = SetAssocCache::new(geometry, cfg.mdc.policy.build());
        cache_replay(&mut cache, warm_stream);
        cache.reset_stats();
        cache_replay(&mut cache, measured_stream);
        *cache.stats()
    });
    out.check(cstats == mdc_ref, || {
        format!("{name}: SetAssocCache replay diverged from the engine's CacheStats")
    });
    let mdc_accesses = rec.records.len();
    drop(rec);

    // Counter increments over the write events.
    let warm_writes = events[..warm]
        .iter()
        .filter(|e| matches!(e, MemEvent::Write(..)))
        .count();
    let writes: Vec<BlockAddr> = events
        .iter()
        .filter_map(|e| match e {
            MemEvent::Write(b, _) => Some(*b),
            MemEvent::Read(..) => None,
        })
        .collect();
    drop(events);
    let (t_counters, overflows) = reps(tr, "secure.counters", || {
        let mut ctrs = CounterStore::new(cfg.counter_mode);
        let mut overflows = 0u64;
        for (i, &block) in writes.iter().enumerate() {
            let outcome = ctrs.record_write(block);
            if i >= warm_writes && matches!(outcome, WriteOutcome::PageOverflow { .. }) {
                overflows += 1;
            }
        }
        overflows
    });
    out.check(overflows == cap.reference.engine.page_overflows, || {
        format!(
            "{name}: counter store overflowed {overflows} times, replay saw {}",
            cap.reference.engine.page_overflows
        )
    });

    let (t_replay, report) = reps(tr, "sim.replay", || {
        ReplaySim::new(cfg.clone(), trace).run()
    });
    out.check(report == cap.reference, || {
        format!("{name}: replay report differs from the direct SecureSim run")
    });
    tr.end();

    let n = total as usize;
    let meta = cap.reference.engine.meta.metadata_total();
    Layers {
        replay: per(t_replay, n),
        decode: per(t_decode, n),
        engine: per(t_engine, n),
        mdcache: per(t_mdcache, mdc_accesses),
        cache: per(t_cache, mdc_accesses),
        counters: per(t_counters, writes.len()),
        workloads: per(t_workloads, accesses as usize),
        hierarchy: per(t_hierarchy, accesses as usize),
        record: per(t_record, accesses as usize),
        mdc_per_event: mdc_accesses as f64 / total as f64,
        accesses_per_event: meta.accesses as f64 / measured,
        miss_ratio: meta.misses as f64 / meta.accesses.max(1) as f64,
        writebacks_per_event: mdc_ref.metadata_total().writebacks as f64 / measured,
        walk_levels_per_event: cap.reference.engine.tree_walk_level_misses as f64 / measured,
        events_per_access: total as f64 / accesses as f64,
        bytes_per_event: trace.encoded_len() as f64 / total as f64,
    }
}

/// Median microseconds of `f` over [`CODEC_ITERS`] calls, inside one span.
fn micros<T>(tr: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    tr.begin(name);
    let mut us = Vec::with_capacity(CODEC_ITERS);
    let mut last = None;
    for _ in 0..CODEC_ITERS {
        let t = Instant::now();
        let out = black_box(f());
        us.push(t.elapsed().as_secs_f64() * 1e6);
        last = Some(out);
    }
    tr.end();
    (median(&us), last.expect("CODEC_ITERS is positive"))
}

/// The farm's result-frame payload for `report` (the shape of
/// `maps-farm`'s `Frame::JobResult`).
fn job_result_frame(id: u64, report: &SimReport) -> Json {
    Json::Obj(vec![
        ("proto".to_string(), Json::UInt(1)),
        ("type".to_string(), Json::Str("job-result".to_string())),
        ("id".to_string(), Json::UInt(id)),
        ("report".to_string(), report.to_json()),
    ])
}

/// Report codec, job wire codec and frame round trip on a real report.
pub fn measure_codecs(cfg: &SimConfig, cap: &Capture, tr: &mut Tracer, out: &mut Outcome) {
    let report = &cap.reference;
    tr.begin("obs.codecs");
    let (encode, text) = micros(tr, "obs.report_json.encode", || {
        report.to_json().to_pretty()
    });
    let (decode, decoded) = micros(tr, "obs.report_json.decode", || {
        Json::parse(&text)
            .ok()
            .and_then(|doc| SimReport::from_json(&doc).ok())
    });
    out.check(decoded.as_ref() == Some(report), || {
        "report JSON round trip is not bit-exact".to_string()
    });
    let job = SimJob::replay("perf/job", cfg.clone(), cap.bench, cap.trace.accesses());
    let (wire, back) = micros(tr, "bench.wire.job_roundtrip", || {
        let text = job_to_json(&job).ok()?.to_pretty();
        job_from_json(&Json::parse(&text).ok()?).ok()
    });
    out.check(back.is_some_and(|b| b.identity() == job.identity()), || {
        "job wire round trip changed the job".to_string()
    });
    let payload = job_result_frame(7, report);
    let (frame, echoed) = micros(tr, "obs.frame.roundtrip", || {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).ok()?;
        read_frame(&mut buf.as_slice()).ok().flatten()
    });
    out.check(echoed.as_ref() == Some(&payload), || {
        "frame round trip changed the payload".to_string()
    });
    tr.end();
    out.layer("obs.report_json.encode_us", encode, "us");
    out.layer("obs.report_json.decode_us", decode, "us");
    out.layer("bench.wire.job_roundtrip_us", wire, "us");
    out.layer("obs.frame.roundtrip_us", frame, "us");
}

/// `n` real reports: one small canneal capture replayed under a rotation
/// of metadata-cache geometries, as campaign points are.
fn point_reports(cfg: &SimConfig, seed: u64, n: usize) -> Vec<SimReport> {
    let trace = CapturedTrace::record(cfg, Benchmark::Canneal.build(seed), 2_000);
    let distinct: Vec<SimReport> = [2usize, 4, 8, 16]
        .iter()
        .flat_map(|&ways| (4..14u32).map(move |log_sets| (ways, 1u64 << log_sets)))
        .map(|(ways, sets)| {
            let mdc = maps_sim::MdcConfig {
                ways,
                ..cfg.mdc.with_size(sets * ways as u64 * 64)
            };
            ReplaySim::new(cfg.with_mdc(mdc), &trace).run()
        })
        .collect();
    distinct.iter().cycle().take(n).cloned().collect()
}

/// Checkpoint save cost at the campaign sizes, and the whole insert+save
/// sequence a 708-point campaign performs.
pub fn measure_checkpoints(
    cfg: &SimConfig,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let max = CHECKPOINT_SIZES[CHECKPOINT_SIZES.len() - 1];
    let reports = point_reports(cfg, seed, max);
    let key = |i: usize| format!("perf/point{i:04}");
    let path = dir.join("perf.ckpt");
    tr.begin("obs.checkpoint");
    for n in CHECKPOINT_SIZES {
        let mut ckpt = Checkpoint::new("maps-perf", 1);
        for (i, r) in reports.iter().take(n).enumerate() {
            ckpt.insert(&key(i), r.to_json());
        }
        let (secs, saved) = reps(tr, &format!("obs.checkpoint.save.n{n}"), || {
            ckpt.save(&path)
        });
        out.check(saved.is_ok(), || {
            format!("checkpoint save failed: {saved:?}")
        });
        out.layer(format!("obs.checkpoint.save_ms.n{n}"), secs * 1e3, "ms");
    }
    tr.begin("obs.checkpoint.campaign.n708");
    let t = Instant::now();
    let mut ckpt = Checkpoint::new("maps-perf", 1);
    let mut saved = Ok(());
    for (i, r) in reports.iter().enumerate() {
        ckpt.insert(&key(i), r.to_json());
        saved = saved.and(ckpt.save(&path));
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end();
    tr.end();
    let reloaded = Checkpoint::load(&path).ok().flatten();
    let intact = saved.is_ok()
        && reloaded.is_some_and(|c| {
            c.len() == max
                && (0..max).all(|i| {
                    c.get(&key(i))
                        .and_then(|doc| SimReport::from_json(doc).ok())
                        .as_ref()
                        == Some(&reports[i])
                })
        });
    out.check(intact, || {
        "campaign checkpoint did not reload bit-exactly".to_string()
    });
    out.layer("obs.checkpoint.campaign_s.n708", secs, "s");
}

/// Emits per-capture metrics with a `.<bench>` suffix and their geometric
/// mean (derived metrics from the aggregated parts) without one.
pub fn emit(per_capture: &[(Benchmark, Layers)], out: &mut Outcome) {
    for (bench, layers) in per_capture {
        for (name, value) in layers.metrics() {
            out.layer(
                format!("{name}.{}", bench.name()),
                value,
                crate::spec::unit_of(name),
            );
        }
    }
    let all: Vec<Layers> = per_capture.iter().map(|(_, l)| *l).collect();
    for (name, value) in Layers::geomean(&all).metrics() {
        out.layer(name, value, crate::spec::unit_of(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(layers: &Layers, name: &str) -> f64 {
        layers.metrics().iter().find(|(n, _)| *n == name).unwrap().1
    }

    /// replay-miss at 20k accesses: every isolated layer reproduces the
    /// replay's statistics exactly, the counts are the report's own
    /// ratios, and decode + engine + residual is the replay, per capture
    /// and in the aggregate.
    #[test]
    fn replay_miss_smoke_layers_reproduce_the_replay() {
        let cfg = SimConfig::paper_default();
        let mut out = Outcome::default();
        let mut tr = Tracer::new(true);
        let mut per = Vec::new();
        for bench in [Benchmark::Canneal, Benchmark::Mcf] {
            let trace = CapturedTrace::record(&cfg, bench.build(3), 20_000);
            let cap = Capture::new(&cfg, bench, 3, trace);
            let layers = measure(&cfg, &cap, &mut tr, &mut out);

            let r = &cap.reference;
            let measured = (cap.trace.total_events() - cap.trace.warmup_events()) as f64;
            let meta = r.engine.meta.metadata_total();
            assert_eq!(layers.accesses_per_event, meta.accesses as f64 / measured);
            assert_eq!(layers.miss_ratio, meta.misses as f64 / meta.accesses as f64);
            assert_eq!(
                layers.walk_levels_per_event,
                r.engine.tree_walk_level_misses as f64 / measured
            );
            assert_eq!(
                layers.events_per_access,
                cap.trace.total_events() as f64 / 20_000.0
            );
            per.push((bench, layers));
        }
        // Hierarchy, recording, decode, engine, MetadataCache,
        // SetAssocCache, counters and replay, for each capture.
        assert_eq!((out.attempted, out.failed), (16, 0), "{:?}", out.problems);

        let all: Vec<Layers> = per.iter().map(|(_, l)| *l).collect();
        for layers in all.iter().chain([&Layers::geomean(&all)]) {
            let sum = metric(layers, "sim.capture.decode_ns_per_event")
                + metric(layers, "sim.engine.ns_per_event")
                + metric(layers, "sim.replay.residual_ns_per_event");
            let replay = metric(layers, "sim.replay.ns_per_event");
            assert!((sum - replay).abs() <= 1e-9 * replay, "{sum} != {replay}");
        }
        emit(&per, &mut out);
        for (name, _) in all[0].metrics() {
            assert!(
                crate::spec::LAYERS.iter().any(|m| m.name == name),
                "{name} not in LAYERS"
            );
            assert!(out.layers.iter().any(|(n, ..)| n == name), "{name} missing");
            assert!(out.layers.iter().any(|(n, ..)| *n == format!("{name}.mcf")));
        }
    }
}
