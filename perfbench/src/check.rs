//! The per-run correctness gate.
//!
//! A served run is correct when the verdict fingerprint of its replies
//! equals the fingerprint of the same stream positions answered in
//! process by [`TrustService::handle`]. Error, busy and missing replies
//! are failures (they count against `ok_ratio`); a reply that decodes to
//! a different verdict makes the whole run incorrect, and so does an
//! error reply, since the oracle answers every request without one.

use tangled_mass::trustd::{
    canonical, verdict_fingerprint, Request, Response, TrustService, DEFAULT_CACHE_CAPACITY,
};

/// The in-process oracle: every request of one pass through a fresh
/// service, in order, as canonical verdict strings. A swap-bearing
/// stream is answered twice and both passes must agree, which is what
/// lets a served run cycle the stream any number of times.
pub fn expected(requests: &[Request]) -> Result<Vec<String>, String> {
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    let first = pass(&service, requests);
    if let Some(i) = first
        .iter()
        .position(|v| v.starts_with("error/") || v == "busy")
    {
        return Err(format!("oracle rejects request {i}: {}", first[i]));
    }
    if requests.iter().any(|r| matches!(r, Request::Swap { .. }))
        && pass(&service, requests) != first
    {
        return Err("a second pass changes verdicts: swaps are not verdict-neutral".into());
    }
    Ok(first)
}

fn pass(service: &TrustService, requests: &[Request]) -> Vec<String> {
    requests
        .iter()
        .map(|r| canonical(&service.handle(r)))
        .collect()
}

/// One reply as the load generator saw it: the stream position it
/// answers and its frame body, `None` when it never arrived.
pub type Reply = (usize, Option<Vec<u8>>);

/// What the gate found over a set of replies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Error, busy, undecodable and missing replies.
    pub failed: u64,
    /// Fingerprint of the served verdicts (error replies included; busy,
    /// undecodable and missing replies excluded).
    pub served: u64,
    /// Fingerprint of the oracle's verdicts at the same positions.
    pub oracle: u64,
}

impl Tally {
    /// Do the served verdicts match the oracle?
    pub fn correct(&self) -> bool {
        self.served == self.oracle
    }

    /// Fold another tally's counts in; fingerprints chain.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.served = self.served.rotate_left(1) ^ other.served;
        self.oracle = self.oracle.rotate_left(1) ^ other.oracle;
    }
}

/// Check replies against the oracle. `expected[pos % expected.len()]`
/// is the verdict for stream position `pos`.
pub fn check(expected: &[String], replies: &[Reply]) -> Tally {
    let mut served = Vec::with_capacity(replies.len());
    let mut oracle = Vec::with_capacity(replies.len());
    let mut failed = 0u64;
    for (pos, body) in replies {
        let resp = body.as_deref().and_then(|b| Response::decode(b).ok());
        match resp {
            // Nothing to compare: counted as failed, the verdict unknown.
            None | Some(Response::Busy) => failed += 1,
            Some(resp) => {
                // The oracle never errors, so an error reply is both a
                // failure and a different answer.
                if matches!(resp, Response::Error { .. }) {
                    failed += 1;
                }
                served.push(canonical(&resp));
                oracle.push(expected[pos % expected.len()].clone());
            }
        }
    }
    Tally {
        attempted: replies.len() as u64,
        failed,
        served: verdict_fingerprint(&served),
        oracle: verdict_fingerprint(&oracle),
    }
}
