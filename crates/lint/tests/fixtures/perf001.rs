//! PERF-001 fixture: observer impl methods without `#[inline]`.
//! Linted under `crates/sim/src/fixture.rs`; findings expected at lines
//! 13 and 30 only — inlined methods, inherent impls, and impls that
//! merely *bound* on the trait are all clean.

pub struct Probe;
pub struct Holder<O>(O);

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

impl<O: MetaObserver> Holder<O> {
    pub fn get(&self) -> &O {
        &self.0
    }
}

impl MetaObserver for Holder<Probe> {
    fn observe(&mut self, _access: &MetaAccess) {}
}
