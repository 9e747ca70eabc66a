//! The HSS (Home Subscriber Server) front end: EPS authentication-vector
//! generation with Milenage, answering the MME's S6a requests (AIR/AIA,
//! ULR/ULA). It keeps nothing per subscriber.
//!
//! * **Who is provisioned** is a set of IMSI ranges, each a run of
//!   consecutive numbers of one digit count: provisioning merges into
//!   them, so storage grows with the ranges, not the IMSIs.
//! * **K and OPc** are derived per vector from the IMSI
//!   ([`provision_k`], [`OP`]), as the USIM model derives them; AMBR
//!   comes from one subscription profile.
//! * **SQN = SEQ ‖ IND** (TS 33.102 Annex C.3.2): IND, the low
//!   [`IND_BITS`] bits, names the HSS instance (a worker's index), and
//!   SEQ = max(clock, last SEQ + 1), one counter for all subscribers. The
//!   clock ([`SeqClock`]) is wall time on a deployment worker and a
//!   restart count on an in-process one: either way a restarted HSS
//!   starts above every SEQ its predecessor issued, so it never issues
//!   one twice, and in-process runs stay deterministic.
//! * **Freshness** is the USIM's check (Annex C.2): per IND it keeps the
//!   highest SEQ it accepted and refuses a challenge that is not above
//!   it with a synch failure carrying AUTS. The MME then sends an AIR
//!   with RAND ‖ AUTS as Re-Synchronization-Info; the HSS checks MAC-S,
//!   raises its SEQ to the SQN_MS the USIM reports, and the fresh vector
//!   it answers with is above it.
//!
//! RAND comes from a generator seeded by (seed, IND, incarnation), so two
//! workers, or two incarnations of one, never draw the same RAND stream.

use crate::emulator::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scale_crypto::kdf::derive_kasme;
use scale_crypto::milenage::Milenage;
use scale_diameter::{result_code, DiameterMsg, EutranVector, S6a};
use std::time::{SystemTime, UNIX_EPOCH};

/// Authentication management field used in vectors (TS 33.102: the
/// "separation bit" set for EPS).
pub const AMF: [u8; 2] = [0x80, 0x00];

/// Bits of the SQN that are IND (TS 33.102 Annex C.3.2): SQN = SEQ ‖ IND.
/// Eight INDs cover the largest deployment here (eight workers); the
/// annex's example uses five bits, but every emulated device keeps one
/// SEQ per IND, so each bit doubles what a device costs. Workers past
/// the eighth share INDs, and a device that moves between two that
/// share one may have to resynchronise.
pub const IND_BITS: u32 = 3;

/// Entries in the USIM's freshness array, one per IND value.
pub const IND_SLOTS: usize = 1 << IND_BITS;

/// SQN = SEQ ‖ IND, as the 48 bits AUTN carries.
#[must_use]
pub fn join_sqn(seq: u64, ind: usize) -> [u8; 6] {
    let sqn = (seq << IND_BITS) | (ind % IND_SLOTS) as u64;
    scale_crypto::take(&sqn.to_be_bytes()[2..])
}

/// (SEQ, IND) of a 48-bit SQN.
#[must_use]
pub fn split_sqn(sqn: &[u8; 6]) -> (u64, usize) {
    let mut b = [0u8; 8];
    b[2..].copy_from_slice(sqn);
    let sqn = u64::from_be_bytes(b);
    (sqn >> IND_BITS, (sqn % IND_SLOTS as u64) as usize)
}

/// The AMF a resynchronisation MAC-S is computed over (TS 33.102
/// §6.3.3: a dummy value of all zeros).
const AMF_STAR: [u8; 2] = [0, 0];

/// AUTS = (SQN_MS ⊕ AK*) ‖ MAC-S, what a USIM sends with a synch
/// failure: AK* = f5*(RAND), MAC-S = f1*(SQN_MS, RAND, AMF*).
#[must_use]
pub fn auts(mil: &Milenage, rand: &[u8; 16], sqn_ms: &[u8; 6]) -> [u8; 14] {
    let ak = mil.f5_star(rand);
    let mut out = [0u8; 14];
    for i in 0..6 {
        out[i] = sqn_ms[i] ^ ak[i];
    }
    out[6..].copy_from_slice(&mil.f1(rand, sqn_ms, &AMF_STAR).mac_s);
    out
}

/// The SQN_MS an AUTS carries, if its MAC-S verifies for `rand`.
#[must_use]
pub fn open_auts(mil: &Milenage, rand: &[u8; 16], auts: &[u8; 14]) -> Option<[u8; 6]> {
    let ak = mil.f5_star(rand);
    let sqn_ms: [u8; 6] = std::array::from_fn(|i| auts[i] ^ ak[i]);
    (mil.f1(rand, &sqn_ms, &AMF_STAR).mac_s == auts[6..]).then_some(sqn_ms)
}

/// What an HSS's SEQ clock reads: the floor each vector's SEQ is at
/// least.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqClock {
    /// The HSS's incarnation in a restart count the caller owns: a fixed
    /// floor of `incarnation << 32`, so each incarnation has 2³² SEQs
    /// above its predecessor's.
    Restarts(u64),
    /// Wall time in milliseconds since the Unix epoch: a restarted HSS
    /// starts above its predecessor's SEQs as long as that one issued
    /// fewer vectors than milliseconds passed, and resynchronises the
    /// devices it did not.
    Wall,
}

impl SeqClock {
    fn now(self) -> u64 {
        match self {
            SeqClock::Restarts(n) => n << 32,
            SeqClock::Wall => wall_millis(),
        }
    }
}

/// Milliseconds since the Unix epoch.
fn wall_millis() -> u64 {
    let now = SystemTime::now(); // lint: allow(nondet): a deployment worker's SEQ clock is wall time; in process it counts restarts
    now.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// The subscription profile every provisioned IMSI has: AMBR UL/DL in
/// kbit/s.
const PROFILE_AMBR_KBPS: (u32, u32) = (50_000, 150_000);

/// IMSIs `first..=last` of `digits` digits (leading zeros are part of
/// an IMSI: `0012` and `012` are different subscribers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ImsiRange {
    digits: u8,
    first: u64,
    last: u64,
}

/// The digit count and number of `imsi`, if it is 1–15 digits.
fn number(imsi: &str) -> Option<(u8, u64)> {
    let b = imsi.as_bytes();
    if b.is_empty() || b.len() > 15 || !b.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let n = b.iter().fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
    Some((b.len() as u8, n))
}

/// The HSS front end (module docs).
pub struct Hss {
    /// Provisioned IMSIs, sorted, no two touching.
    ranges: Vec<ImsiRange>,
    rng: StdRng,
    /// IND of every SQN this HSS issues.
    ind: usize,
    clock: SeqClock,
    /// Last SEQ issued, or raised to by a resynchronisation.
    seq: u64,
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
    /// A stand-alone HSS: IND 0, first incarnation.
    pub fn new(seed: u64) -> Self {
        Hss::instance(seed, 0, SeqClock::Restarts(0))
    }

    /// HSS instance `ind` (its SQNs' IND) reading `clock`. Its RAND
    /// stream is seeded by `seed`, `ind` and the incarnation: the restart
    /// count, or the wall time it starts at.
    pub fn instance(seed: u64, ind: usize, clock: SeqClock) -> Self {
        let incarnation = clock.now();
        Hss {
            ranges: Vec::new(),
            rng: StdRng::seed_from_u64(mix64(seed ^ mix64(ind as u64 ^ mix64(incarnation)))),
            ind,
            clock,
            seq: 0,
        }
    }

    /// Provision `imsi`. False, and nothing provisioned, for a string
    /// that is not 1–15 digits: no attach can name it (the MME rejects
    /// it as an illegal UE).
    pub fn provision(&mut self, imsi: &str) -> bool {
        self.provision_span(imsi, 1)
    }

    /// Provision the `count` IMSIs from `first` on, of `first`'s digit
    /// count. False, and nothing provisioned, if `first` is not an IMSI
    /// or the last of them would need another digit.
    pub fn provision_span(&mut self, first: &str, count: u64) -> bool {
        let Some((digits, first)) = number(first) else {
            return false;
        };
        if count == 0 {
            return true;
        }
        match first.checked_add(count - 1) {
            Some(last) if last < 10u64.pow(u32::from(digits)) => {
                self.insert(ImsiRange { digits, first, last });
                true
            }
            _ => false,
        }
    }

    /// Provision a numeric range of IMSIs `prefix || index` (bulk setup
    /// for experiments). Panics if `prefix` makes them longer than 15
    /// digits or not digits at all.
    pub fn provision_range(&mut self, prefix: &str, count: u32) {
        let first = format!("{prefix}{:09}", 0);
        assert!(self.provision_span(&first, count.into()), "{first:?} is not an IMSI");
    }

    /// Merge `r` into the ranges.
    fn insert(&mut self, r: ImsiRange) {
        let touches = |a: &ImsiRange, b: &ImsiRange| {
            a.digits == b.digits && b.first <= a.last.saturating_add(1)
        };
        let mut at = self.ranges.partition_point(|x| *x < r);
        self.ranges.insert(at, r);
        if at > 0 && touches(&self.ranges[at - 1], &r) {
            at -= 1;
        }
        while at + 1 < self.ranges.len() && touches(&self.ranges[at], &self.ranges[at + 1]) {
            let next = self.ranges.remove(at + 1);
            self.ranges[at].last = self.ranges[at].last.max(next.last);
        }
    }

    /// Whether `imsi` is provisioned.
    fn is_provisioned(&self, imsi: &str) -> bool {
        let Some((digits, n)) = number(imsi) else {
            return false;
        };
        let probe = ImsiRange { digits, first: n, last: u64::MAX };
        let at = self.ranges.partition_point(|x| *x <= probe);
        at > 0 && self.ranges[at - 1].digits == digits && self.ranges[at - 1].last >= n
    }

    /// How many IMSIs are provisioned.
    #[must_use]
    pub fn subscriber_count(&self) -> u64 {
        self.ranges.iter().map(|r| r.last - r.first + 1).sum()
    }

    /// Fold the state that decides what this HSS issues next — its IND
    /// and SEQ — into `h` (model-checker state dedup).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        (self.ind, self.seq).hash(h);
    }

    /// The subscriber's Milenage: K derived from the IMSI, OPc from K.
    fn milenage(imsi: &str) -> Milenage {
        Milenage::from_op(&provision_k(imsi), &OP)
    }

    /// Generate one E-UTRAN vector for `imsi` (TS 33.401 §6.1):
    /// RAND fresh, AUTN = (SQN⊕AK) || AMF || MAC-A, K_ASME from CK/IK.
    pub fn generate_vector(&mut self, imsi: &str, plmn: &[u8; 3]) -> Option<EutranVector> {
        if !self.is_provisioned(imsi) {
            return None;
        }
        let mut rand_bytes = [0u8; 16];
        self.rng.fill(&mut rand_bytes);
        self.seq = self.clock.now().max(self.seq + 1);
        let sqn_bytes = join_sqn(self.seq, self.ind);

        let mil = Self::milenage(imsi);
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
        Some(EutranVector {
            rand: rand_bytes,
            xres: out.res,
            autn,
            kasme,
        })
    }

    /// A USIM's synch failure: check MAC-S over RAND ‖ AUTS and raise the
    /// SEQ to the SQN_MS it reports, so the next vector is above it.
    /// False if MAC-S does not verify or the IMSI is not provisioned.
    fn resync(&mut self, imsi: &str, info: &[u8; 30]) -> bool {
        if !self.is_provisioned(imsi) {
            return false;
        }
        let rand: [u8; 16] = scale_crypto::take(info);
        let auts: [u8; 14] = scale_crypto::take(&info[16..]);
        let Some(sqn_ms) = open_auts(&Self::milenage(imsi), &rand, &auts) else {
            return false;
        };
        self.seq = self.seq.max(split_sqn(&sqn_ms).0);
        true
    }

    /// Answer one S6a request.
    pub fn handle(&mut self, msg: &DiameterMsg) -> DiameterMsg {
        match S6a::from_msg(msg) {
            Ok(S6a::AuthInfoRequest {
                imsi,
                visited_plmn,
                vectors,
                resync,
            }) => {
                if let Some(info) = resync {
                    if !self.resync(&imsi, &info) {
                        return S6a::AuthInfoAnswer {
                            result: result_code::AUTHENTICATION_DATA_UNAVAILABLE,
                            vectors: Vec::new(),
                        }
                        .into_msg(msg.hop_by_hop, msg.end_to_end);
                    }
                }
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
            Ok(S6a::UpdateLocationRequest { imsi, .. }) => {
                let ((ul, dl), result) = if self.is_provisioned(&imsi) {
                    (PROFILE_AMBR_KBPS, result_code::SUCCESS)
                } else {
                    ((0, 0), result_code::USER_UNKNOWN)
                };
                S6a::UpdateLocationAnswer {
                    result,
                    ambr_ul_kbps: ul,
                    ambr_dl_kbps: dl,
                }
                .into_msg(msg.hop_by_hop, msg.end_to_end)
            }
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
        let sqn: [u8; 6] = std::array::from_fn(|i| v.autn[i] ^ out.ak[i]);
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
            resync: None,
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

    /// Consecutive IMSIs provisioned one by one, in any order, are one
    /// range: provisioning stores nothing per IMSI.
    #[test]
    fn provisioning_merges_into_ranges() {
        let mut hss = Hss::new(1);
        for i in (0..500).chain(1000..1500).chain(500..1000).rev() {
            assert!(hss.provision(&format!("00101{i:010}")));
        }
        assert_eq!(hss.ranges.len(), 1);
        assert_eq!(hss.subscriber_count(), 1500);
        assert!(hss.provision_span("0012", 3));
        assert!(hss.provision("0011"));
        assert_eq!(hss.ranges.len(), 2);
        assert!(hss.is_provisioned("0014") && !hss.is_provisioned("0015"));
        assert!(!hss.is_provisioned(&format!("00101{:010}", 1500)));
        assert!(!hss.provision_span("99", 101), "past two digits");
    }

    /// SQN = SEQ ‖ IND, SEQ = max(clock, last + 1): consecutive vectors
    /// count up from the clock, a restarted instance starts above every
    /// SEQ its predecessor issued, and IND is the instance's.
    #[test]
    fn seq_counts_up_from_the_clock_and_ind_names_the_instance() {
        let imsi = "001010000000007";
        let seq_ind = |hss: &mut Hss| {
            let v = hss.generate_vector(imsi, &[0, 1, 2]).unwrap();
            let ak = Hss::milenage(imsi).f2345(&v.rand).ak;
            split_sqn(&std::array::from_fn(|i| v.autn[i] ^ ak[i]))
        };
        let mut first = Hss::instance(1, 3, SeqClock::Restarts(0));
        first.provision(imsi);
        assert_eq!(seq_ind(&mut first), (1, 3));
        assert_eq!(seq_ind(&mut first), (2, 3));
        let mut second = Hss::instance(1, 3, SeqClock::Restarts(1));
        second.provision(imsi);
        assert_eq!(seq_ind(&mut second), (1 << 32, 3));
        let mut wall = Hss::instance(1, 4, SeqClock::Wall);
        wall.provision(imsi);
        let (seq, ind) = seq_ind(&mut wall);
        assert!(seq > 1_700_000_000_000 && ind == 4, "{seq} ms");
    }

    /// A resynchronisation raises the SEQ to the SQN_MS the AUTS
    /// carries, once MAC-S verifies; a forged AUTS changes nothing.
    #[test]
    fn resync_raises_the_seq_past_what_the_usim_accepted() {
        let imsi = "001010000000008";
        let mut hss = Hss::new(1);
        hss.provision(imsi);
        let rand = [5u8; 16];
        let good = auts(&Hss::milenage(imsi), &rand, &join_sqn(40, 2));
        let mut info = [0u8; 30];
        info[..16].copy_from_slice(&rand);
        info[16..].copy_from_slice(&good);
        let mut forged = info;
        forged[29] ^= 1;
        assert!(!hss.resync(imsi, &forged));
        assert_eq!(hss.seq, 0);
        assert!(hss.resync(imsi, &info));
        assert_eq!(hss.seq, 40);
        assert!(!hss.resync("001010000000009", &info), "not provisioned");
    }

    #[test]
    fn what_is_not_an_imsi_is_never_provisioned() {
        let mut hss = Hss::new(1);
        for bad in ["", "0010100000000012", "00101abc"] {
            assert!(!hss.provision(bad));
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
