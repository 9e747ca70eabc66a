//! Regression: `DcObserver::publish_shards` overwrites the registry's
//! counters with the totals it is given; publishing the same totals
//! again must not sum them.

use scale_core::{DcObserver, ShardStatsSnapshot};
use scale_obs::Registry;
use std::sync::Arc;

#[test]
fn publish_is_idempotent_overwrite_not_accumulate() {
    let registry = Arc::new(Registry::new());
    let observer = DcObserver::new(Arc::clone(&registry));
    let total = ShardStatsSnapshot {
        messages: 7,
        taus: 3,
        ..ShardStatsSnapshot::default()
    };
    for _ in 0..5 {
        observer.publish_shards(&total);
    }
    assert_eq!(registry.counter("scale_dc_messages_total", "").get(), 7);
    assert_eq!(registry.counter("scale_mmp_taus_total", "").get(), 3);
}
