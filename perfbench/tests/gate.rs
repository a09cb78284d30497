//! The per-run correctness gate: served replies must fingerprint like
//! the in-process oracle, and one flipped verdict fails the run.

use tangled_mass::trustd::{ChainVerdict, Response, TrustService, DEFAULT_CACHE_CAPACITY};
use tangled_perfbench::check::{check, expected, Reply};
use tangled_perfbench::gen::{stream, Workload};

fn served(workload: Workload, seed: u64, take: usize) -> (Vec<String>, Vec<Reply>) {
    let s = stream(workload, seed);
    let requests = &s.requests[..take.min(s.len())];
    let want = expected(requests).expect("oracle answers every request");
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    let replies = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (i, Some(service.handle(r).encode())))
        .collect();
    (want, replies)
}

#[test]
fn faithful_replies_pass() {
    let (want, replies) = served(Workload::FleetMix, 11, 300);
    let tally = check(&want, &replies);
    assert!(tally.correct());
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.attempted, replies.len() as u64);
}

#[test]
fn one_flipped_verdict_fails_the_run() {
    let (want, mut replies) = served(Workload::HotValidate, 11, 100);
    let flipped = match Response::decode(replies[42].1.as_ref().unwrap()).unwrap() {
        Response::Validate {
            verdict: ChainVerdict::Trusted { .. },
            cached,
        } => Response::Validate {
            verdict: ChainVerdict::Untrusted {
                error: "no-path".into(),
            },
            cached,
        },
        Response::Validate { cached, .. } => Response::Validate {
            verdict: ChainVerdict::Trusted {
                anchor: "CN=Nobody".into(),
                chain_len: 2,
            },
            cached,
        },
        other => panic!("expected a validate reply, got {other:?}"),
    };
    replies[42].1 = Some(flipped.encode());
    let tally = check(&want, &replies);
    assert!(!tally.correct(), "a flipped verdict passed the gate");
    assert_eq!(tally.failed, 0);
}

#[test]
fn missing_and_busy_replies_are_failures_not_wrong_verdicts() {
    let (want, mut replies) = served(Workload::HotValidate, 12, 50);
    replies[3].1 = None;
    replies[9].1 = Some(Response::Busy.encode());
    let tally = check(&want, &replies);
    assert_eq!(tally.failed, 2);
    assert!(tally.correct());
}

#[test]
fn an_error_reply_fails_the_run() {
    let (want, mut replies) = served(Workload::HotValidate, 12, 50);
    replies[7].1 = Some(
        Response::Error {
            stage: "validate".into(),
            error: "unknown-profile".into(),
        }
        .encode(),
    );
    let tally = check(&want, &replies);
    assert_eq!(tally.failed, 1);
    assert!(!tally.correct(), "an error reply passed the gate");
}
