//! The status-quo baseline (§3.1): a 3GPP MME pool with static eNodeB
//! assignment, GUTI-pinned routing, weighted selection of new devices
//! and reactive, signaling-heavy overload reassignment.
//!
//! This is the "Current Systems" comparator of Fig 2 and Fig 8. The
//! delay curves are produced in `scale-sim`; this in-process version
//! reproduces the *mechanisms* (routing rigidity, reassignment message
//! cost) over real wire messages.

use scale_epc::ControlPlane;
use scale_mme::{Incoming, MmeConfig, MmeCore, MmeError, Outgoing};
use scale_nas::{EmmMessage, Guti, MobileId, Plmn};
use scale_s1ap::S1apPdu;
use std::collections::BTreeMap;

/// One pool member's static configuration.
#[derive(Debug, Clone)]
pub struct PoolMember {
    /// MME code (routing key in every GUTI it allocates).
    pub mme_code: u8,
    /// Relative MME capacity announced in S1 Setup: the eNodeB-side
    /// weight for *new* device assignment. Newly added members are
    /// configured low (§3.1 "Scaling-out"), so they attract unregistered
    /// devices only slowly.
    pub weight: u8,
}

/// Counters specific to the legacy mechanisms.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Control-plane messages processed by the pool.
    pub messages: u64,
    /// Devices forcibly reassigned during overload protection.
    pub reassignments: u64,
    /// Extra signaling messages spent on reassignment (the overhead
    /// visible in Fig 2(c)).
    pub reassignment_messages: u64,
}

/// The legacy MME pool.
pub struct LegacyPool {
    members: BTreeMap<u8, MmeCore>,
    weights: BTreeMap<u8, u8>,
    /// Weighted round-robin state for new-device selection.
    rr_credit: BTreeMap<u8, u32>,
    /// Legacy-mechanism counters.
    pub stats: PoolStats,
}

impl LegacyPool {
    /// Build a pool. Every member keeps its own GUTI space (mme_code)
    /// and embeds `mme_code` as its VM id so composed ids route back.
    pub fn new(members: &[PoolMember], plmn: Plmn) -> Self {
        let mut pool = LegacyPool {
            members: BTreeMap::new(),
            weights: BTreeMap::new(),
            rr_credit: BTreeMap::new(),
            stats: PoolStats::default(),
        };
        for m in members {
            pool.add_member(m, plmn);
        }
        pool
    }

    /// Add an MME to the pool (the cumbersome capacity expansion of
    /// §3.1: only *new* devices will ever be assigned to it).
    pub fn add_member(&mut self, member: &PoolMember, plmn: Plmn) {
        let engine = MmeCore::new(MmeConfig {
            plmn,
            mme_code: member.mme_code,
            mme_name: format!("mme-{}", member.mme_code),
            vm_id: member.mme_code,
            relative_capacity: member.weight,
            ..MmeConfig::default()
        });
        self.members.insert(member.mme_code, engine);
        self.weights.insert(member.mme_code, member.weight);
        self.rr_credit.insert(member.mme_code, 0);
    }

    /// Member MME by code.
    pub fn member(&self, code: u8) -> Option<&MmeCore> {
        self.members.get(&code)
    }

    /// Weighted selection for a new device — mirrors the eNodeB's
    /// Relative-MME-Capacity-based choice.
    fn select_for_new_device(&mut self) -> Option<u8> {
        // Largest accumulated credit wins; credits grow by weight.
        for (code, credit) in self.rr_credit.iter_mut() {
            *credit += *self.weights.get(code).unwrap_or(&1) as u32;
        }
        let winner = self
            .rr_credit
            .iter()
            .max_by_key(|(_, c)| **c)
            .map(|(code, _)| *code)?;
        if let Some(c) = self.rr_credit.get_mut(&winner) {
            // Pay the full pool weight so others catch up.
            let total: u32 = self.weights.values().map(|w| *w as u32).sum();
            *c = c.saturating_sub(total);
        }
        Some(winner)
    }

    fn route(&mut self, ev: &Incoming) -> Result<u8, MmeError> {
        match ev {
            Incoming::S1ap { pdu, .. } => match pdu {
                S1apPdu::S1SetupRequest { .. } => {
                    // Answered by every member in reality; use the first.
                    self.members
                        .keys()
                        .next()
                        .copied()
                        .ok_or(MmeError::BadState("empty pool".into()))
                }
                S1apPdu::InitialUeMessage {
                    nas_pdu, s_tmsi, ..
                } => {
                    // Protected initial NAS (Idle-mode TAU/Detach) routes
                    // by the S-TMSI's MME code.
                    if scale_nas::is_protected(nas_pdu) {
                        let (code, _) =
                            s_tmsi.ok_or(MmeError::UnknownUe("protected NAS without S-TMSI"))?;
                        return Ok(code);
                    }
                    let msg = EmmMessage::decode(nas_pdu.clone())?;
                    match msg {
                        // Fresh device: eNodeB weighted choice.
                        EmmMessage::AttachRequest {
                            id: MobileId::Imsi(_),
                            ..
                        } => self
                            .select_for_new_device()
                            .ok_or(MmeError::BadState("empty pool".into())),
                        // GUTI pins the device to its allocating MME —
                        // static assignment, the root problem of §3.1.
                        EmmMessage::AttachRequest {
                            id: MobileId::Guti(g),
                            ..
                        } => Ok(g.mme_code),
                        EmmMessage::TauRequest { guti, .. } => Ok(guti.mme_code),
                        EmmMessage::DetachRequest { id, .. } => match id {
                            MobileId::Guti(g) => Ok(g.mme_code),
                            MobileId::Imsi(_) => {
                                Err(MmeError::UnknownUe("detach by IMSI in pool"))
                            }
                        },
                        EmmMessage::ServiceRequest { .. } => {
                            let (code, _) =
                                s_tmsi.ok_or(MmeError::UnknownUe("SR without S-TMSI"))?;
                            Ok(code)
                        }
                        // Downlink-only NAS can never legitimately be
                        // an *initial* uplink message; name the
                        // variants so a new message type must be
                        // routed here deliberately.
                        other @ (EmmMessage::AttachAccept { .. }
                        | EmmMessage::AttachComplete
                        | EmmMessage::AttachReject { .. }
                        | EmmMessage::ServiceReject { .. }
                        | EmmMessage::AuthenticationRequest { .. }
                        | EmmMessage::AuthenticationResponse { .. }
                        | EmmMessage::AuthenticationReject
                        | EmmMessage::AuthenticationFailure { .. }
                        | EmmMessage::SecurityModeCommand { .. }
                        | EmmMessage::SecurityModeComplete
                        | EmmMessage::SecurityModeReject { .. }
                        | EmmMessage::TauAccept { .. }
                        | EmmMessage::TauComplete
                        | EmmMessage::TauReject { .. }
                        | EmmMessage::DetachAccept
                        | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(
                            format!("unroutable initial NAS {other:?}"),
                        )),
                    }
                }
                other => other
                    .mme_ue_id()
                    .map(|id| (id >> 24) as u8)
                    .ok_or(MmeError::BadState("S1AP without routing id".into())),
            },
            Incoming::S11(msg) => {
                use scale_gtpc::Body;
                Ok(match msg.body {
                    Body::DownlinkDataNotification { .. } => (msg.teid >> 24) as u8,
                    _ => ((msg.sequence >> 16) & 0xff) as u8,
                })
            }
            Incoming::S6a(msg) => Ok(((msg.hop_by_hop >> 24) & 0xff) as u8),
        }
    }

    /// The reactive overload protection of §3.1: move `count` idle
    /// devices from `from` to `to`. Each move costs the signaling the
    /// paper charges — the device is told to reconnect, state is
    /// transferred, and the target re-allocates a GUTI — and returns
    /// the GUTI remapping so the driver can inform the UEs (the
    /// "reconnect" the real procedure forces on devices).
    ///
    /// Cost accounting: 6 messages per device (release + reconnect
    /// request toward the UE, state transfer request/ack between the
    /// MMEs, new-GUTI TAU exchange).
    pub fn reassign_devices(&mut self, from: u8, to: u8, count: usize) -> Vec<(Guti, Guti)> {
        let mut moved = Vec::new();
        let Some(src) = self.members.get(&from) else {
            return moved;
        };
        let candidates: Vec<Guti> = src
            .contexts()
            .filter(|c| c.ecm == scale_mme::EcmState::Idle)
            .map(|c| c.guti)
            .take(count)
            .collect();
        for old_guti in candidates {
            let Some(source) = self.members.get_mut(&from) else {
                continue;
            };
            let Some(blob) = source.export_state(&old_guti) else {
                continue;
            };
            source.remove_context(&old_guti);
            // Import at the target, then re-key under the target's code
            // and a fresh M-TMSI from the target's own space.
            let Some(target) = self.members.get_mut(&to) else {
                continue;
            };
            let new_m_tmsi = target.allocate_m_tmsi();
            if let Ok(mut ctx) = scale_mme::UeContext::from_bytes(blob) {
                let new_guti = Guti {
                    mme_code: to,
                    m_tmsi: new_m_tmsi,
                    ..old_guti
                };
                ctx.guti = new_guti;
                let _ = target.import_state(ctx.to_bytes());
                self.stats.reassignments += 1;
                self.stats.reassignment_messages += 6;
                moved.push((old_guti, new_guti));
            }
        }
        moved
    }
}

impl ControlPlane for LegacyPool {
    fn handle_event(&mut self, ev: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.messages += 1;
        let code = self.route(&ev)?;
        let engine = self
            .members
            .get_mut(&code)
            .ok_or(MmeError::UnknownUe("routed to unknown pool member"))?;
        engine.handle(ev)
    }

    fn messages_processed(&self) -> u64 {
        self.stats.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_epc::{Network, UeState};

    fn pool_net(weights: &[u8], n_ues: usize) -> Network<LegacyPool> {
        let members: Vec<PoolMember> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| PoolMember {
                mme_code: (i + 1) as u8,
                weight: *w,
            })
            .collect();
        let pool = LegacyPool::new(&members, Plmn::test());
        let mut net = Network::new(pool, 2);
        net.s1_setup();
        for i in 0..n_ues {
            net.add_ue(&format!("0010100003{i:05}"), i % 2);
        }
        net
    }

    #[test]
    fn attaches_distribute_by_weight() {
        let mut net = pool_net(&[200, 100], 30);
        for ue in 0..30 {
            assert!(net.attach(ue), "ue {ue}: {:?}", net.errors);
        }
        let c1 = net.cp.member(1).unwrap().context_count();
        let c2 = net.cp.member(2).unwrap().context_count();
        assert_eq!(c1 + c2, 30);
        // Weight 2:1 → roughly twice the devices.
        assert!(c1 > c2, "weighted assignment: {c1} vs {c2}");
        assert!((c1 as f64 / c2 as f64 - 2.0).abs() < 0.6);
    }

    #[test]
    fn guti_pins_device_to_its_mme() {
        let mut net = pool_net(&[100, 100], 8);
        for ue in 0..8 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        // Record who owns whom, cycle everyone, ownership must not move.
        let owners: Vec<u8> = net.ues.iter().map(|u| u.guti.unwrap().mme_code).collect();
        for ue in 0..8 {
            assert!(net.service_request(ue), "ue {ue}: {:?}", net.errors);
            assert!(net.go_idle(ue));
        }
        let after: Vec<u8> = net.ues.iter().map(|u| u.guti.unwrap().mme_code).collect();
        assert_eq!(owners, after, "static assignment never rebalances");
    }

    #[test]
    fn low_weight_member_starves() {
        // A freshly added MME with tiny weight receives almost nothing —
        // the slow convergence of Fig 2(d).
        let mut net = pool_net(&[255, 1], 40);
        for ue in 0..40 {
            assert!(net.attach(ue));
        }
        let c2 = net.cp.member(2).unwrap().context_count();
        assert!(c2 <= 2, "low-weight member got {c2} devices");
    }

    #[test]
    fn reassignment_moves_state_and_costs_messages() {
        let mut net = pool_net(&[100, 100], 10);
        for ue in 0..10 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
        }
        let from = net.ues[0].guti.unwrap().mme_code;
        let to = if from == 1 { 2 } else { 1 };
        let before_to = net.cp.member(to).unwrap().context_count();
        let moved = net.cp.reassign_devices(from, to, 3);
        assert_eq!(moved.len().min(3), moved.len());
        assert!(!moved.is_empty());
        assert_eq!(
            net.cp.member(to).unwrap().context_count(),
            before_to + moved.len()
        );
        assert_eq!(net.cp.stats.reassignment_messages, 6 * moved.len() as u64);
        // Inform the UEs of their new GUTIs (the forced reconnect).
        for (old, new) in &moved {
            for ue in 0..net.ues.len() {
                if net.ues[ue].guti == Some(*old) {
                    net.set_guti(ue, Some(*new));
                }
            }
        }
        // Moved devices are serviceable at their new MME.
        let moved_ue = net
            .ues
            .iter()
            .position(|u| u.guti.map(|g| g.mme_code) == Some(to) && u.state == UeState::Idle)
            .unwrap();
        assert!(net.service_request(moved_ue), "{:?}", net.errors);
    }

    #[test]
    fn full_lifecycle_through_pool() {
        let mut net = pool_net(&[100, 100], 4);
        for ue in 0..4 {
            assert!(net.attach(ue));
            assert!(net.go_idle(ue));
            assert!(net.downlink_data(ue), "{:?}", net.errors);
            assert!(net.go_idle(ue));
            assert!(net.detach(ue, false), "{:?}", net.errors);
        }
        assert_eq!(net.sgw.session_count(), 0);
    }
}
