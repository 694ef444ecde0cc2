//! End-to-end PPMSdec rounds (paper Algorithm 1) across every crate:
//! bigint → primes → crypto → ecash → core.

use ppms_ecash::CashBreak;
use ppms_integration::{dec_market, TEST_RSA_BITS};

#[test]
fn full_round_pcba() {
    let (mut market, mut rng) = dec_market(1, 3);
    let face = market.params().face_value();
    let mut jo = market.register_jo(&mut rng, 2 * face, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);

    let outcome = market
        .run_round(
            &mut rng,
            &mut jo,
            &sp,
            "urban noise mapping",
            5,
            CashBreak::Pcba,
            b"db(A) readings",
        )
        .expect("round completes");

    assert_eq!(outcome.credited, 5);
    assert_eq!(outcome.deposit_stream.iter().sum::<u64>(), 5);
    // PCBA of 5 = 101b → coins {1, 4}, fakes pad to L+1 = 4 slots.
    assert_eq!(outcome.real_coins, 2);
    assert_eq!(outcome.fake_coins, 2);

    // Ledger effects: SP gained w; JO paid the full face value into
    // e-cash (change is still held in the coin).
    assert_eq!(market.bank.balance(sp.account).unwrap(), 5);
    assert_eq!(market.bank.balance(jo.account).unwrap(), 2 * face - face);
    assert_eq!(jo.change_value(market.params()), face - 5);
}

#[test]
fn full_round_unitary() {
    let (mut market, mut rng) = dec_market(2, 2);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);

    let outcome = market
        .run_round(
            &mut rng,
            &mut jo,
            &sp,
            "transit tracking",
            3,
            CashBreak::Unitary,
            b"gps traces",
        )
        .expect("round completes");

    assert_eq!(outcome.credited, 3);
    assert_eq!(outcome.real_coins, 3, "three unitary coins");
    assert_eq!(outcome.fake_coins, 1, "padded to 2^L = 4 slots");
    assert!(
        outcome.deposit_stream.iter().all(|&v| v == 1),
        "all deposits unitary"
    );
}

#[test]
fn full_round_epcba() {
    let (mut market, mut rng) = dec_market(3, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);

    // w = 8 = 2^L: EPCBA prefers 7+1 → coins {1,2,4,1}.
    let outcome = market
        .run_round(
            &mut rng,
            &mut jo,
            &sp,
            "air quality",
            8,
            CashBreak::Epcba,
            b"pm2.5",
        )
        .expect("round completes");
    assert_eq!(outcome.credited, 8);
    assert_eq!(outcome.real_coins, 4);
    let mut stream = outcome.deposit_stream.clone();
    stream.sort_unstable();
    assert_eq!(stream, vec![1, 1, 2, 4]);
}

#[test]
fn multiple_sps_one_coin() {
    // One withdrawal pays several SPs from disjoint parts of the tree.
    let (mut market, mut rng) = dec_market(4, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp1 = market.register_sp(&mut rng, TEST_RSA_BITS);
    let sp2 = market.register_sp(&mut rng, TEST_RSA_BITS);

    market.register_job(&jo, "shared-coin job", 7);
    market.withdraw(&mut rng, &mut jo).unwrap();
    let jo_pk = jo_job_pk(&market);

    let pk1 = market.labor_registration(&sp1);
    let (ct1, ..) = market
        .submit_payment(&mut rng, &mut jo, &pk1, 3, CashBreak::Pcba)
        .unwrap();
    let (credited1, _) = market.deposit_payment(&sp1, &jo_pk, &ct1).unwrap();

    let pk2 = market.labor_registration(&sp2);
    let (ct2, ..) = market
        .submit_payment(&mut rng, &mut jo, &pk2, 4, CashBreak::Pcba)
        .unwrap();
    let (credited2, _) = market.deposit_payment(&sp2, &jo_pk, &ct2).unwrap();

    assert_eq!(credited1, 3);
    assert_eq!(credited2, 4);
    assert_eq!(jo.change_value(market.params()), 1);
}

#[test]
fn payment_to_unservable_labor_key_is_bad_payload() {
    use ppms_bigint::BigUint;
    use ppms_crypto::rsa::{RsaPublicKey, E};
    let (mut market, mut rng) = dec_market(8, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    market.register_job(&jo, "adversarial labor keys", 5);
    market.withdraw(&mut rng, &mut jo).unwrap();

    let odd_bits = |bits: usize| &(BigUint::one() << (bits - 1)) + 1u64;
    let good = market.labor_registration(&sp);
    let even = &RsaPublicKey::from_bytes(&good).unwrap().n + 1u64;
    for n in [
        BigUint::zero(),
        BigUint::one(),
        even,
        odd_bits(128),
        odd_bits(4096),
    ] {
        let key = RsaPublicKey {
            n,
            e: BigUint::from(E),
        }
        .to_bytes();
        let err = market
            .submit_payment(&mut rng, &mut jo, &key, 5, CashBreak::Pcba)
            .unwrap_err();
        assert!(
            matches!(err, ppms_core::MarketError::BadPayload(_)),
            "got {err:?}"
        );
    }
    // The refusals spent nothing: the full payment still goes through.
    let jo_pk = jo_job_pk(&market);
    let (ct, ..) = market
        .submit_payment(&mut rng, &mut jo, &good, 5, CashBreak::Pcba)
        .unwrap();
    assert_eq!(market.deposit_payment(&sp, &jo_pk, &ct).unwrap().0, 5);
}

#[test]
fn change_redemption_returns_remainder() {
    let (mut market, mut rng) = dec_market(5, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    market
        .run_round(&mut rng, &mut jo, &sp, "job", 5, CashBreak::Pcba, b"d")
        .unwrap();
    let before = market.bank.balance(jo.account).unwrap();
    let redeemed = market.redeem_change(&mut rng, &mut jo).unwrap();
    assert_eq!(redeemed, 3, "face 8 - paid 5");
    assert_eq!(market.bank.balance(jo.account).unwrap(), before + 3);
    // Supply is conserved end-to-end once change is redeemed:
    // JO lost exactly w, SP gained exactly w.
    assert_eq!(market.bank.balance(jo.account).unwrap(), 100 - 5);
}

#[test]
fn insufficient_funds_rejected() {
    let (mut market, mut rng) = dec_market(6, 3);
    let mut jo = market.register_jo(&mut rng, 1, TEST_RSA_BITS); // cannot afford 2^L = 8
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    let err = market
        .run_round(&mut rng, &mut jo, &sp, "job", 5, CashBreak::Pcba, b"d")
        .unwrap_err();
    assert_eq!(err, ppms_core::MarketError::InsufficientFunds);
}

#[test]
fn traffic_and_metrics_recorded() {
    let (mut market, mut rng) = dec_market(7, 3);
    let mut jo = market.register_jo(&mut rng, 100, TEST_RSA_BITS);
    let sp = market.register_sp(&mut rng, TEST_RSA_BITS);
    market
        .run_round(&mut rng, &mut jo, &sp, "job", 5, CashBreak::Pcba, b"data")
        .unwrap();

    use ppms_core::{Op, Party};
    // JO produced ZK proofs for every real coin; SP verified them.
    assert!(market.metrics.get(Party::Jo, Op::Zkp) > 0);
    assert!(market.metrics.get(Party::Sp, Op::Zkp) > 0);
    assert!(
        market.metrics.get(Party::Sp, Op::Dec) >= 2,
        "payload decrypt + sig verify"
    );
    // Traffic flowed on all steps of Algorithm 1.
    for label in [
        "job-registration",
        "withdrawal-request",
        "e-cash",
        "labor-registration",
        "payment-submission",
        "data-report",
        "payment-delivery",
        "deposit",
    ] {
        assert!(
            market.traffic.has_label(label),
            "missing traffic step {label}"
        );
    }
    assert!(market.traffic.total_bytes() > 0);
}

/// The JO's pseudonymous job verification key, as the SP learns it
/// from the bulletin board.
fn jo_job_pk(market: &ppms_core::ppmsdec::DecMarket) -> ppms_crypto::rsa::RsaPublicKey {
    let job = market.bulletin.list().pop().expect("job published");
    ppms_crypto::rsa::RsaPublicKey::from_bytes(&job.pseudonym).expect("valid key")
}

/// A key that is not a pair of finite points of `G` is refused by the
/// in-process market and by the service with the same typed error,
/// and neither opens an account for it.
#[test]
fn market_and_service_refuse_the_same_keys() {
    use ppms_bigint::BigUint;
    use ppms_core::service::{MaRequest, MaResponse, MaService};
    use ppms_core::MarketError;
    use ppms_crypto::cl::{ClKeyPair, ClPublicKey};
    use ppms_crypto::pairing::{Point, TypeAPairing};
    use ppms_integration::TEST_PAIRING_BITS;

    /// The valid key of a fresh pair, then the same key with `X` or
    /// `Y` replaced by each kind of bad point.
    fn keys(rng: &mut rand::rngs::StdRng, pairing: &TypeAPairing) -> Vec<ClPublicKey> {
        let good = ClKeyPair::generate(rng, pairing).public;
        let Point::Affine { x, y } = good.x_pub.clone() else {
            panic!("finite key")
        };
        let p = &pairing.curve.fp.p;
        let bad = [
            Point::Infinity,
            Point::Affine {
                x: &x + p,
                y: y.clone(),
            },
            Point::Affine {
                x: x.clone(),
                y: &y + p,
            },
            Point::Affine {
                x: BigUint::from(2u64),
                y: BigUint::from(2u64),
            },
            Point::Affine {
                x: BigUint::zero(),
                y: BigUint::zero(),
            },
        ];
        let mut out = vec![good.clone()];
        for pt in bad {
            out.push(ClPublicKey {
                x_pub: pt.clone(),
                y_pub: good.y_pub.clone(),
            });
            out.push(ClPublicKey {
                x_pub: good.x_pub.clone(),
                y_pub: pt,
            });
        }
        out
    }

    let (mut market, mut rng) = dec_market(9, 3);
    let market_keys = keys(&mut rng, &market.pairing);
    let opened: Vec<_> = market_keys
        .iter()
        .map(|k| market.register_jo_key(10, k))
        .collect();
    let in_process: Vec<Result<(), MarketError>> =
        opened.iter().map(|r| r.clone().map(|_| ())).collect();

    let svc = MaService::spawn(
        &mut rng,
        market.params().clone(),
        TEST_RSA_BITS,
        TEST_PAIRING_BITS,
    );
    let client = svc.client();
    let service_keys = keys(&mut rng, &svc.pairing);
    let served: Vec<Result<(), MarketError>> = service_keys
        .into_iter()
        .map(
            |clpk| match client.call(MaRequest::RegisterJoAccount { funds: 10, clpk }) {
                MaResponse::Account(_) => Ok(()),
                MaResponse::Err(e) => Err(e),
                other => panic!("unexpected response {other:?}"),
            },
        )
        .collect();
    svc.shutdown();

    assert_eq!(in_process, served);
    assert_eq!(in_process[0], Ok(()));
    assert!(in_process[1..]
        .iter()
        .all(|v| *v == Err(MarketError::BadKey)));
    // Only the valid key opened an account: the next one follows it.
    let next = market.register_jo_key(10, &market_keys[0]).unwrap();
    assert_eq!(next.0, opened[0].clone().unwrap().0 + 1);
}
