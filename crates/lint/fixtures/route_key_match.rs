// Fixture: must trip [exhaustive-protocol-match] and nothing else.
// A router over the S1AP routing view with a catch-all arm: a routing
// key added later (a handover's, say) would be dropped without a word.

pub fn route(key: RouteKey) -> u32 {
    match key {
        RouteKey::S1Setup => 0,
        RouteKey::Initial { .. } => 1,
        RouteKey::Connected { mme_ue_id } => mme_ue_id >> 24,
        _ => u32::MAX,
    }
}
