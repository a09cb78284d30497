//! Seeded request streams, one per workload.
//!
//! Every stream is a pure function of the workload and the seed, and is
//! generated (and wire-encoded) before any timing starts. The program
//! under test only ever sees the encoded frames.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use tangled_mass::crypto::SplitMix64;
use tangled_mass::netalyzr::{Population, PopulationSpec};
use tangled_mass::notary::{Ecosystem, EcosystemSpec};
use tangled_mass::pki::stores::{EcosystemStore, ReferenceStore};
use tangled_mass::trustd::replay::{self, ReplaySpec};
use tangled_mass::trustd::Request;
use tangled_mass::x509::{Certificate, ChainKey};

/// Sessions behind the `hot-validate` stream. The key set (Table 6
/// origin chains × the AOSP profiles the devices run) does not grow
/// with it; the stream is only the cycle the load generator walks.
pub const HOT_SESSIONS: usize = 1000;
/// Notary corpus scale behind `wide-compare`: 2863 chains × 10 store
/// profiles, about seven times the verdict memo.
pub const WIDE_SCALE: f64 = 0.25;
/// Sessions behind the `fleet-mix` stream.
pub const FLEET_SESSIONS: usize = 1200;
/// `fleet-mix` inserts one `swap` after every this many requests.
pub const SWAP_EVERY: usize = 200;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Validates of the loadgen population: few keys, warm memo.
    HotValidate,
    /// `compare` over the Notary corpus: keys far beyond the memo.
    WideCompare,
    /// The full loadgen mix plus periodic journalled swaps.
    FleetMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HotValidate,
        Workload::WideCompare,
        Workload::FleetMix,
    ];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotValidate => "hot-validate",
            Workload::WideCompare => "wide-compare",
            Workload::FleetMix => "fleet-mix",
        }
    }
}

/// A request stream and its wire frames (length prefix included).
pub struct Stream {
    /// The requests, in order.
    pub requests: Vec<Request>,
    /// `requests[i]` encoded as one length-prefixed frame.
    pub frames: Vec<Vec<u8>>,
}

impl Stream {
    fn new(requests: Vec<Request>) -> Stream {
        let frames = requests.iter().map(frame).collect();
        Stream { requests, frames }
    }

    /// Number of requests in one pass.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the stream holds no request.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Encode one request as a length-prefixed wire frame.
pub fn frame(req: &Request) -> Vec<u8> {
    let body = req.encode();
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// The request stream a workload serves.
pub fn stream(workload: Workload, seed: u64) -> Stream {
    Stream::new(match workload {
        Workload::HotValidate => hot_validate(seed),
        Workload::WideCompare => wide_compare(seed),
        Workload::FleetMix => fleet_mix(seed),
    })
}

fn mixed(seed: u64, sessions: usize) -> Vec<Request> {
    let spec = ReplaySpec::new(seed, sessions);
    let pop = Population::generate(&PopulationSpec {
        seed,
        scale: replay::scale_for_sessions(sessions),
    });
    spread_kinds(replay::queries(&pop, &spec))
}

/// Spread each kind of request evenly over the stream, keeping each
/// kind's own order. An audit costs about a hundred validates, so in the
/// loadgen order a phase that covers a few hundred requests would see a
/// mix (and a cost per request) that depends on where it starts; spread
/// out, every window of the stream carries about the mix of the whole.
pub fn spread_kinds(requests: Vec<Request>) -> Vec<Request> {
    let mut kinds: Vec<(&'static str, VecDeque<Request>)> = Vec::new();
    for req in requests {
        match kinds.iter_mut().find(|(kind, _)| *kind == req.kind()) {
            Some((_, queue)) => queue.push_back(req),
            None => kinds.push((req.kind(), VecDeque::from([req]))),
        }
    }
    let counts: Vec<usize> = kinds.iter().map(|(_, q)| q.len()).collect();
    let mut out = Vec::with_capacity(counts.iter().sum());
    // The j-th of a kind's c requests belongs at (j + 0.5) / c of the
    // stream; repeatedly emit the request with the earliest such place.
    let place = |k: usize, left: usize| (counts[k] - left) as f64 + 0.5;
    while let Some(k) = (0..kinds.len())
        .filter(|&k| !kinds[k].1.is_empty())
        .min_by(|&a, &b| {
            let pa = place(a, kinds[a].1.len()) / counts[a] as f64;
            let pb = place(b, kinds[b].1.len()) / counts[b] as f64;
            pa.total_cmp(&pb)
        })
    {
        out.extend(kinds[k].1.pop_front());
    }
    out
}

fn hot_validate(seed: u64) -> Vec<Request> {
    mixed(seed, HOT_SESSIONS)
        .into_iter()
        .filter(|r| matches!(r, Request::Validate { .. }))
        .collect()
}

fn wide_compare(seed: u64) -> Vec<Request> {
    let eco = Ecosystem::generate(&EcosystemSpec::scaled(WIDE_SCALE));
    let mut requests: Vec<Request> = eco
        .certs
        .iter()
        .map(|cert| Request::Compare {
            chain: cert.chain.iter().map(|c| c.to_der().to_vec()).collect(),
        })
        .collect();
    shuffle(&mut requests, &mut SplitMix64::new(seed));
    requests
}

fn fleet_mix(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x5a5a_5a5a);
    let mut out = Vec::new();
    for (i, req) in mixed(seed, FLEET_SESSIONS).into_iter().enumerate() {
        if i > 0 && i % SWAP_EVERY == 0 {
            out.push(swap_request(
                AOSP[rng.next_below(AOSP.len() as u64) as usize],
            ));
        }
        out.push(req);
    }
    out
}

/// The four AOSP reference stores, the profiles swaps re-install.
pub const AOSP: [ReferenceStore; 4] = [
    ReferenceStore::Aosp41,
    ReferenceStore::Aosp42,
    ReferenceStore::Aosp43,
    ReferenceStore::Aosp44,
];

/// A `swap` that re-installs a reference profile with its own contents:
/// the profile's epoch moves (so its memo entries die) but no verdict
/// changes.
pub fn swap_request(store: ReferenceStore) -> Request {
    Request::Swap {
        profile: store.name().to_owned(),
        snapshot: store.cached().snapshot(),
    }
}

/// The profile the traced run's swap phase re-installs with its own
/// contents: an ecosystem store that no validate or probe of any stream
/// is checked against, so the swaps leave alive every verdict-memo entry
/// `hot-validate` and `fleet-mix` hit. (`wide-compare` compares against
/// it, but misses the memo on every verdict anyway; classify answers
/// from store membership, which a re-install with the same contents
/// leaves as it was.) One store, so every swap costs the same and their
/// median is not a mix of store sizes.
pub const SWAP_PROFILE: EcosystemStore = EcosystemStore::MozillaNss;

/// The serial swaps of the traced run's swap phase: `count` verdict-neutral
/// re-installs of [`SWAP_PROFILE`].
pub fn swap_stream(count: usize) -> Stream {
    let swap = Request::Swap {
        profile: SWAP_PROFILE.name().to_owned(),
        snapshot: SWAP_PROFILE.cached().snapshot(),
    };
    Stream::new(vec![swap; count])
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Distinct verdict-memo keys a stream touches: one per (profile, chain)
/// for `validate`, one per (standard profile, chain) for `compare`.
/// Epochs are ignored, so this is the key set of a swap-free pass.
pub fn distinct_memo_keys(requests: &[Request]) -> usize {
    let profiles = tangled_mass::pki::stores::standard_store_names();
    let mut keys: HashSet<(String, [u8; 32])> = HashSet::new();
    for req in requests {
        let (names, chain): (Vec<&str>, &Vec<Vec<u8>>) = match req {
            Request::Validate { profile, chain } => (vec![profile.as_str()], chain),
            Request::Compare { chain } => (profiles.clone(), chain),
            _ => continue,
        };
        let certs: Option<Vec<Arc<Certificate>>> = chain
            .iter()
            .map(|der| Certificate::parse(der).ok().map(Arc::new))
            .collect();
        let Some(certs) = certs else { continue };
        let key = *ChainKey::exact(certs.iter().map(Arc::as_ref)).as_bytes();
        for name in names {
            keys.insert((name.to_owned(), key));
        }
    }
    keys.len()
}
