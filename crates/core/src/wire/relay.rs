//! Relay by bytes (see the parent module's "Relay" section): what the
//! MLB makes of a message it has received and not decoded, and how the
//! message it forwards is written from the received one.
//!
//! lint: hot-path

use super::codec::put_deliver_fields;
use super::{enb_index, MlbOut, MlbState, UplinkRoute, WireMsg, WireRole, WireView, WorkerKey};
use crate::mlb::VmId;
use scale_nas::{NasError, Writer};
use scale_s1ap::S1apPdu;

/// One link of the MLB's star.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// eNB process (cell index).
    Enb(usize),
    /// MMP process (worker index).
    Mmp(usize),
}

/// A received message resolved to the link it leaves on and the
/// envelope it leaves in: the part of a [`Relay`] that puts bytes on a
/// link. [`Forward::write`] produces them from the received ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forward {
    /// Where to.
    pub dest: Dest,
    envelope: Envelope,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Envelope {
    /// The message as received.
    Same,
    /// An uplink's PDU — `pdu_at..` of the received message — as a
    /// `Deliver` to engine `vm`.
    Deliver {
        vm: VmId,
        guti_hint: Option<u32>,
        enb_id: u32,
        pdu_at: usize,
        /// The device whose procedure this opens, if it opens one.
        opens: Option<u32>,
    },
}

impl Forward {
    /// [`WireMsg::opens_procedure_of`] of the message this forwards.
    #[must_use]
    pub fn opens_procedure_of(&self) -> Option<u32> {
        match self.envelope {
            Envelope::Same => None,
            Envelope::Deliver { opens, .. } => opens,
        }
    }

    /// Append the outgoing message to `w`: its envelope, and behind it
    /// the body of `received` (the message [`MlbState::relay`] resolved
    /// this from), copied once and not looked into.
    pub fn write(&self, received: &[u8], w: &mut Writer) {
        match self.envelope {
            Envelope::Same => w.slice(received),
            Envelope::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu_at,
                ..
            } => {
                put_deliver_fields(w, vm, guti_hint, enb_id);
                let opened = w.open_u32();
                w.slice(&received[pdu_at..]);
                w.close_u32(opened);
            }
        }
    }
}

/// What [`MlbState::relay`] made of one received message.
#[derive(Debug, Clone, PartialEq)]
pub enum Relay {
    /// It goes on, as the bytes it is.
    Forward(Forward),
    /// The MLB answers it itself (S1 Setup; a device with no live
    /// holder handed back to its cell).
    Reply(MlbOut),
    /// It ends here, counted in the MLB's `stats`.
    Nothing,
}

impl MlbState {
    /// [`MlbState::on_enb`] / [`MlbState::on_mmp`] for a message still
    /// in the bytes it arrived as, on the link whose `Hello` announced
    /// `(from, id)`: the same routing decisions, reached from the
    /// envelope and — for an uplink — the PDU's routing key read where
    /// it lies. `Err` means the envelope, the PDU's IE framing or a
    /// routing IE is broken, or an uplink names an eNB other than the
    /// link's own: the peer is not one of ours. What the MLB does not
    /// route by — the contents of every other IE, a replica blob — is
    /// not looked at; whoever consumes the message decodes it in full.
    pub fn relay(&mut self, from: WireRole, id: usize, received: &[u8]) -> Result<Relay, NasError> {
        let view = WireView::parse(received)?;
        let key = match (from, view) {
            (
                WireRole::Enb,
                WireView::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                },
            ) => {
                // The worker answers the cell the `Deliver` names and
                // checks a connection's uplinks against it: a link
                // naming another cell's id could speak for that cell's
                // connections.
                if enb_index(enb_id) != id {
                    self.stats.errors += 1;
                    return Err(NasError::Invalid {
                        what: "uplink eNB id of another link",
                        value: u64::from(enb_id),
                    });
                }
                let route = self.route_uplink(attach_hint, S1apPdu::peek(pdu)?);
                return Ok(match route {
                    UplinkRoute::Setup => Relay::Reply(self.s1_setup_response(enb_id)),
                    UplinkRoute::Deliver {
                        vm,
                        guti_hint,
                        opens,
                    } => Relay::Forward(Forward {
                        dest: Dest::Mmp(self.mmp_of(vm)),
                        envelope: Envelope::Deliver {
                            vm,
                            guti_hint,
                            enb_id,
                            pdu_at: received.len() - pdu.len(),
                            opens,
                        },
                    }),
                    UplinkRoute::Failed { m_tmsi } => Relay::Reply(MlbOut::Enb {
                        enb: enb_index(enb_id),
                        msg: WireMsg::ProcFailed { m_tmsi },
                    }),
                    UplinkRoute::Dropped => Relay::Nothing,
                });
            }
            // An eNB link carries uplinks and nothing else.
            (WireRole::Enb, _) => return Ok(Relay::Nothing),
            (WireRole::Mmp, WireView::ToEnb { enb_id, pdu }) => {
                S1apPdu::peek(pdu)?;
                WorkerKey::ToEnb { enb_id }
            }
            (WireRole::Mmp, WireView::Settled { m_tmsi, active }) => {
                WorkerKey::Settled { m_tmsi, active }
            }
            (WireRole::Mmp, WireView::Replicate { vm, .. } | WireView::DropCtx { vm, .. }) => {
                WorkerKey::ToVm { vm }
            }
            (
                WireRole::Mmp,
                WireView::Hello { .. }
                | WireView::Uplink { .. }
                | WireView::Deliver { .. }
                | WireView::ProcFailed { .. }
                | WireView::VmDown { .. }
                | WireView::VmUp { .. },
            ) => WorkerKey::Unexpected,
        };
        Ok(match self.route_from_worker(key) {
            Some(dest) => Relay::Forward(Forward {
                dest,
                envelope: Envelope::Same,
            }),
            None => Relay::Nothing,
        })
    }
}
