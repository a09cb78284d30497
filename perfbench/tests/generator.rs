//! The request streams are a pure function of (workload, seed), and the
//! two memo-bound workloads sit on opposite sides of the verdict memo.

use tangled_mass::trustd::DEFAULT_CACHE_CAPACITY;
use tangled_perfbench::gen::{distinct_memo_keys, stream, Workload};

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for workload in Workload::ALL {
        let a = stream(workload, 7);
        let b = stream(workload, 7);
        let c = stream(workload, 8);
        assert!(!a.is_empty(), "{} stream is empty", workload.name());
        assert_eq!(
            a.frames,
            b.frames,
            "{} is not reproducible",
            workload.name()
        );
        assert_ne!(a.frames, c.frames, "{} ignores its seed", workload.name());
    }
}

#[test]
fn wide_compare_outgrows_the_memo_and_hot_validate_fits() {
    let wide = distinct_memo_keys(&stream(Workload::WideCompare, 3).requests);
    let hot = distinct_memo_keys(&stream(Workload::HotValidate, 3).requests);
    assert!(
        wide > 4 * DEFAULT_CACHE_CAPACITY,
        "wide-compare has {wide} keys"
    );
    assert!(hot < DEFAULT_CACHE_CAPACITY, "hot-validate has {hot} keys");
}

#[test]
fn fleet_mix_carries_every_served_kind() {
    let kinds: Vec<&str> = stream(Workload::FleetMix, 5)
        .requests
        .iter()
        .map(|r| r.kind())
        .collect();
    for kind in ["validate", "classify", "audit", "probe", "swap"] {
        assert!(kinds.contains(&kind), "fleet-mix has no {kind}");
    }
}

#[test]
fn fleet_mix_spreads_its_audits_evenly() {
    let requests = stream(Workload::FleetMix, 5).requests;
    let audits: Vec<bool> = requests.iter().map(|r| r.kind() == "audit").collect();
    let share = audits.iter().filter(|&&a| a).count() as f64 / audits.len() as f64;
    for window in audits.windows(200).step_by(37) {
        let got = window.iter().filter(|&&a| a).count() as f64;
        assert!(
            (got - share * 200.0).abs() <= 3.0,
            "a 200-request window holds {got} audits, the stream's share gives {:.1}",
            share * 200.0
        );
    }
}
