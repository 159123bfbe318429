//! PERF-001 fixture: sink/observer impl methods without `#[inline]`.
//! Linted under `crates/sim/src/fixture.rs`; findings expected at lines
//! 13 and 30 only — inlined methods, inherent impls, and impls that
//! merely *bound* on the traits are all clean.

pub struct Probe;
pub struct Holder<S>(S);

impl MetaObserver for Probe {
    #[inline]
    fn observe(&mut self, _access: &MetaAccess) {}

    fn walk_complete(&mut self, _levels: u64, _path: u64) {}

    #[inline(always)]
    fn cascade_complete(&mut self, _depth: u64) {}
}

impl Probe {
    pub fn reset(&mut self) {}
}

impl<S: MetricSink> Holder<S> {
    pub fn get(&self) -> &S {
        &self.0
    }
}

impl MetricSink for Probe {
    fn counter_add(&mut self, _name: &str, _delta: u64) {}
}
