//! Property coverage for snapshot aggregation: merging shard-wise
//! snapshots is associative and commutative, and splitting one sample
//! stream across any number of shard registries merges back to
//! exactly the single-registry run.

use ppms_obs::{bucket_index, Histogram, Registry, Snapshot};
use proptest::prelude::*;

/// One synthetic instrument update.
#[derive(Debug, Clone)]
enum Update {
    Counter(u8, u64),
    Gauge(u8, i32),
    Hist(u8, u64),
}

fn update() -> impl Strategy<Value = Update> {
    (0u8..3, 0u8..4, any::<u64>()).prop_map(|(kind, k, v)| match kind {
        0 => Update::Counter(k, v % 1_000),
        1 => Update::Gauge(k, (v % 1_000) as i32 - 500),
        _ => Update::Hist(k, v),
    })
}

fn apply(reg: &Registry, u: &Update) {
    match *u {
        Update::Counter(k, n) => reg.counter(&format!("c{k}")).add(n),
        Update::Gauge(k, n) => reg.gauge(&format!("g{k}")).add(n as i64),
        Update::Hist(k, v) => reg.histogram(&format!("h{k}")).record(v),
    }
}

/// Values chosen to sit exactly on log₂-bucket boundaries (both
/// sides), collapse into the tiny buckets, or land anywhere — the
/// distributions where a bucketed quantile is most likely to slip.
fn adversarial_value() -> impl Strategy<Value = u64> {
    (0u8..4, 0u32..64, any::<u64>()).prop_map(|(kind, b, raw)| match kind {
        0 => 1u64 << b,
        1 => (((1u128) << (b + 1)) - 1) as u64,
        2 => raw % 5,
        _ => raw,
    })
}

fn snapshot_of(updates: &[Update]) -> Snapshot {
    let reg = Registry::new();
    for u in updates {
        apply(&reg, u);
    }
    reg.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Shard-wise recording + merge equals the single-registry run,
    // for any 3-way split of the update stream.
    #[test]
    fn sharded_merge_equals_single_registry(
        updates in prop::collection::vec(update(), 0..60),
        assignment in prop::collection::vec(0usize..3, 0..60),
    ) {
        let whole = snapshot_of(&updates);
        let shards = [Registry::new(), Registry::new(), Registry::new()];
        for (i, u) in updates.iter().enumerate() {
            let shard = assignment.get(i).copied().unwrap_or(i % 3);
            apply(&shards[shard], u);
        }
        let merged = shards[0]
            .snapshot()
            .merge(&shards[1].snapshot())
            .merge(&shards[2].snapshot());
        prop_assert_eq!(merged, whole);
    }

    // Merge is commutative.
    #[test]
    fn merge_commutes(
        a in prop::collection::vec(update(), 0..40),
        b in prop::collection::vec(update(), 0..40),
    ) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    // Merge is associative.
    #[test]
    fn merge_associates(
        a in prop::collection::vec(update(), 0..30),
        b in prop::collection::vec(update(), 0..30),
        c in prop::collection::vec(update(), 0..30),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        prop_assert_eq!(
            sa.merge(&sb).merge(&sc),
            sa.merge(&sb.merge(&sc))
        );
    }

    // The empty snapshot is a merge identity.
    #[test]
    fn empty_is_identity(a in prop::collection::vec(update(), 0..40)) {
        let sa = snapshot_of(&a);
        prop_assert_eq!(sa.merge(&Snapshot::default()), sa.clone());
        prop_assert_eq!(Snapshot::default().merge(&sa), sa);
    }

    // Percentile accuracy on adversarial distributions: the reported
    // p50/p99/p999 is never below the exact order statistic and never
    // leaves its log₂ bucket (the histogram's advertised resolution),
    // and shard-splitting then merging changes none of the reported
    // quantiles.
    #[test]
    fn reported_quantiles_stay_in_the_exact_samples_bucket(
        samples in prop::collection::vec(adversarial_value(), 1..200),
        split in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let snap = whole.snapshot();

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = samples.len();
        for &q in &[0.50f64, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = sorted[rank - 1];
            let reported = snap.quantile(q);
            prop_assert!(
                reported >= exact,
                "q={q}: reported {reported} < exact {exact}"
            );
            prop_assert_eq!(
                bucket_index(reported),
                bucket_index(exact),
                "q={}: reported {} left exact {}'s bucket",
                q,
                reported,
                exact
            );
        }

        // The same stream split across two shard histograms and merged
        // back reports identical quantiles, so the accuracy bound
        // survives `merge`.
        let (a, b) = (Histogram::new(), Histogram::new());
        for (i, &v) in samples.iter().enumerate() {
            let left = split.get(i).copied().unwrap_or(i % 2 == 0);
            if left { a.record(v) } else { b.record(v) }
        }
        let merged = a.snapshot().merge(&b.snapshot());
        for &q in &[0.50f64, 0.99, 0.999] {
            prop_assert_eq!(merged.quantile(q), snap.quantile(q), "q={}", q);
        }
    }
}
