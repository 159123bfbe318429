//! Graph fixture: hot-path kernel with reachable panic and alloc sinks.
use crate::backend::SetAssocCache as Mdc;

pub struct MetadataEngine {
    cache: Mdc,
}

impl MetadataEngine {
    pub fn handle_batch(&mut self, keys: &[u64]) -> u64 {
        let mut acc = 0;
        for &k in keys {
            acc += self.cache.scan_set(k);
            acc += Mdc::tag_of(k);
        }
        acc += spin(acc);
        helper(acc)
    }
}

fn helper(x: u64) -> u64 {
    deep(x)
}

fn deep(x: u64) -> u64 {
    let v = vec![x];
    v[0]
}

fn spin(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        spin(n / 2)
    }
}
