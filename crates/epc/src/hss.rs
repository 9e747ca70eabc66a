//! The HSS (Home Subscriber Server): subscriber database + EPS
//! authentication-vector generation with Milenage, answering the MME's
//! S6a requests (AIR/AIA, ULR/ULA).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scale_crypto::kdf::derive_kasme;
use scale_crypto::milenage::Milenage;
use scale_diameter::{result_code, DiameterMsg, EutranVector, S6a};
use scale_nas::Imsi;
use std::collections::HashMap;

/// One provisioned subscriber (its IMSI is the key it is stored under).
#[derive(Clone)]
pub struct Subscriber {
    pub k: [u8; 16],
    pub opc: [u8; 16],
    /// 48-bit sequence number, incremented per vector.
    pub sqn: u64,
    pub ambr_ul_kbps: u32,
    pub ambr_dl_kbps: u32,
}

/// Authentication management field used in vectors (TS 33.102: the
/// "separation bit" set for EPS).
pub const AMF: [u8; 2] = [0x80, 0x00];

/// The HSS: subscriber store + vector generation.
pub struct Hss {
    subscribers: HashMap<Imsi, Subscriber>,
    rng: StdRng,
    /// Vectors generated (for the bench harness).
    pub vectors_issued: u64,
}

/// Derive a deterministic per-IMSI key — stands in for the operator's
/// provisioning database (every IMSI gets a unique K as in a real HSS;
/// the UE model derives the same K so USIM and HSS agree).
pub fn provision_k(imsi: &str) -> [u8; 16] {
    let mut h = scale_crypto::sha256::Sha256::new();
    h.update(b"K:");
    h.update(imsi.as_bytes());
    scale_crypto::take(&h.finalize())
}

/// The operator constant OP shared by all subscribers in this network.
pub const OP: [u8; 16] = *b"scale-operator-0";

impl Hss {
    pub fn new(seed: u64) -> Self {
        Hss {
            subscribers: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            vectors_issued: 0,
        }
    }

    /// Provision a subscriber with the deterministic K for its IMSI,
    /// SQN starting at 1 (replacing any existing record). False, and
    /// nothing stored, for a string that is not 1–15 digits: no attach
    /// can name it (the MME rejects it as an illegal UE).
    pub fn provision(&mut self, imsi: &str) -> bool {
        let Some(key) = Imsi::from_ascii(imsi.as_bytes()) else {
            return false;
        };
        let k = provision_k(imsi);
        let mil = Milenage::from_op(&k, &OP);
        self.subscribers.insert(
            key,
            Subscriber {
                k,
                opc: *mil.opc(),
                sqn: 1,
                ambr_ul_kbps: 50_000,
                ambr_dl_kbps: 150_000,
            },
        );
        true
    }

    /// Provision `imsi` unless it already is. Callers that provision on
    /// demand (a shard-local HSS sees an IMSI first in its AIR) must use
    /// this: [`Hss::provision`] starts the subscriber's SQN over. The
    /// IMSI comes from a peer, so one that is not an IMSI is skipped.
    pub fn provision_if_absent(&mut self, imsi: &str) {
        if self.subscriber(imsi).is_none() {
            self.provision(imsi);
        }
    }

    fn subscriber(&self, imsi: &str) -> Option<&Subscriber> {
        self.subscribers.get(&Imsi::from_ascii(imsi.as_bytes())?)
    }

    /// Provision a numeric range of IMSIs `prefix || index` (bulk setup
    /// for experiments). Panics if `prefix` makes them longer than 15
    /// digits or not digits at all.
    pub fn provision_range(&mut self, prefix: &str, count: u32) {
        for i in 0..count {
            let imsi = format!("{prefix}{i:09}");
            assert!(self.provision(&imsi), "{imsi:?} is not an IMSI");
        }
    }

    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Generate one E-UTRAN vector for `imsi` (TS 33.401 §6.1):
    /// RAND fresh, AUTN = (SQN⊕AK) || AMF || MAC-A, K_ASME from CK/IK.
    pub fn generate_vector(&mut self, imsi: &str, plmn: &[u8; 3]) -> Option<EutranVector> {
        let key = Imsi::from_ascii(imsi.as_bytes())?;
        let sub = self.subscribers.get_mut(&key)?;
        let mut rand_bytes = [0u8; 16];
        self.rng.fill(&mut rand_bytes);
        let sqn_bytes: [u8; 6] = scale_crypto::take(&sub.sqn.to_be_bytes()[2..]);
        sub.sqn += 1;

        let mil = Milenage::from_opc(&sub.k, sub.opc);
        let macs = mil.f1(&rand_bytes, &sqn_bytes, &AMF);
        let out = mil.f2345(&rand_bytes);

        let mut autn = [0u8; 16];
        for i in 0..6 {
            autn[i] = sqn_bytes[i] ^ out.ak[i];
        }
        autn[6..8].copy_from_slice(&AMF);
        autn[8..16].copy_from_slice(&macs.mac_a);

        let sqn_xor_ak: [u8; 6] = scale_crypto::take(&autn);
        let kasme = derive_kasme(&out.ck, &out.ik, plmn, &sqn_xor_ak);
        self.vectors_issued += 1;
        Some(EutranVector {
            rand: rand_bytes,
            xres: out.res,
            autn,
            kasme,
        })
    }

    /// Answer one S6a request.
    pub fn handle(&mut self, msg: &DiameterMsg) -> DiameterMsg {
        match S6a::from_msg(msg) {
            Ok(S6a::AuthInfoRequest {
                imsi,
                visited_plmn,
                vectors,
            }) => {
                let mut out = Vec::new();
                for _ in 0..vectors.clamp(1, 4) {
                    match self.generate_vector(&imsi, &visited_plmn) {
                        Some(v) => out.push(v),
                        None => break,
                    }
                }
                let result = if out.is_empty() {
                    result_code::USER_UNKNOWN
                } else {
                    result_code::SUCCESS
                };
                S6a::AuthInfoAnswer {
                    result,
                    vectors: out,
                }
                .into_msg(msg.hop_by_hop, msg.end_to_end)
            }
            Ok(S6a::UpdateLocationRequest { imsi, .. }) => match self.subscriber(&imsi) {
                Some(sub) => S6a::UpdateLocationAnswer {
                    result: result_code::SUCCESS,
                    ambr_ul_kbps: sub.ambr_ul_kbps,
                    ambr_dl_kbps: sub.ambr_dl_kbps,
                },
                None => S6a::UpdateLocationAnswer {
                    result: result_code::USER_UNKNOWN,
                    ambr_ul_kbps: 0,
                    ambr_dl_kbps: 0,
                },
            }
            .into_msg(msg.hop_by_hop, msg.end_to_end),
            _ => S6a::UpdateLocationAnswer {
                result: result_code::UNABLE_TO_COMPLY,
                ambr_ul_kbps: 0,
                ambr_dl_kbps: 0,
            }
            .into_msg(msg.hop_by_hop, msg.end_to_end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scale_crypto::milenage::Milenage;

    #[test]
    fn vector_authenticates_on_the_usim_side() {
        let mut hss = Hss::new(1);
        hss.provision("001010000000001");
        let plmn = [0x00, 0xf1, 0x10];
        let v = hss.generate_vector("001010000000001", &plmn).unwrap();

        // USIM side: same K/OPc, verify AUTN's MAC-A and reproduce RES.
        let k = provision_k("001010000000001");
        let mil = Milenage::from_op(&k, &OP);
        let out = mil.f2345(&v.rand);
        let mut sqn = [0u8; 6];
        for i in 0..6 {
            sqn[i] = v.autn[i] ^ out.ak[i];
        }
        let macs = mil.f1(&v.rand, &sqn, &AMF);
        assert_eq!(&v.autn[8..16], &macs.mac_a, "network authentication");
        assert_eq!(v.xres, out.res, "RES agreement");

        // K_ASME agreement.
        let sqn_xor_ak: [u8; 6] = v.autn[..6].try_into().unwrap();
        let kasme = derive_kasme(&out.ck, &out.ik, &plmn, &sqn_xor_ak);
        assert_eq!(kasme, v.kasme);
    }

    #[test]
    fn vectors_are_fresh() {
        let mut hss = Hss::new(1);
        hss.provision("001010000000002");
        let v1 = hss.generate_vector("001010000000002", &[0, 1, 2]).unwrap();
        let v2 = hss.generate_vector("001010000000002", &[0, 1, 2]).unwrap();
        assert_ne!(v1.rand, v2.rand);
        assert_ne!(v1.autn, v2.autn, "SQN advances");
    }

    #[test]
    fn unknown_imsi_yields_user_unknown() {
        let mut hss = Hss::new(1);
        let air = S6a::AuthInfoRequest {
            imsi: "999999999999999".into(),
            visited_plmn: [0, 1, 2],
            vectors: 1,
        }
        .into_msg(5, 5);
        let answer = hss.handle(&air);
        match S6a::from_msg(&answer).unwrap() {
            S6a::AuthInfoAnswer { result, vectors } => {
                assert_eq!(result, result_code::USER_UNKNOWN);
                assert!(vectors.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    /// One per provisioned device: it holds K and OPc, never an
    /// expanded schedule, and not the IMSI it is keyed by.
    #[test]
    fn subscriber_record_caches_no_schedule() {
        assert!(std::mem::size_of::<Subscriber>() <= 48);
    }

    #[test]
    fn what_is_not_an_imsi_is_never_provisioned() {
        let mut hss = Hss::new(1);
        for bad in ["", "0010100000000012", "00101abc"] {
            assert!(!hss.provision(bad));
            hss.provision_if_absent(bad);
            assert!(hss.generate_vector(bad, &[0, 1, 2]).is_none());
        }
        assert_eq!(hss.subscriber_count(), 0);
        // Leading zeros are part of the identity.
        assert!(hss.provision("0012"));
        assert!(hss.generate_vector("012", &[0, 1, 2]).is_none());
        assert!(hss.generate_vector("0012", &[0, 1, 2]).is_some());
    }

    #[test]
    fn bulk_provisioning() {
        let mut hss = Hss::new(1);
        hss.provision_range("00101", 100);
        assert_eq!(hss.subscriber_count(), 100);
        assert!(
            hss.generate_vector("00101999999999", &[0, 1, 2]).is_none(),
            "unprovisioned IMSI must not authenticate"
        );
        assert!(hss
            .generate_vector(&format!("00101{:09}", 99), &[0, 1, 2])
            .is_some());
    }

    #[test]
    #[should_panic(expected = "is not an IMSI")]
    fn a_range_past_fifteen_digits_fails_where_it_is_provisioned() {
        Hss::new(1).provision_range("0010100", 1);
    }

    #[test]
    fn ulr_returns_subscription_ambr() {
        let mut hss = Hss::new(1);
        hss.provision("001010000000003");
        let ulr = S6a::UpdateLocationRequest {
            imsi: "001010000000003".into(),
            visited_plmn: [0, 1, 2],
        }
        .into_msg(9, 9);
        match S6a::from_msg(&hss.handle(&ulr)).unwrap() {
            S6a::UpdateLocationAnswer {
                result,
                ambr_ul_kbps,
                ambr_dl_kbps,
            } => {
                assert_eq!(result, result_code::SUCCESS);
                assert_eq!(ambr_ul_kbps, 50_000);
                assert_eq!(ambr_dl_kbps, 150_000);
            }
            other => panic!("{other:?}"),
        }
    }
}
