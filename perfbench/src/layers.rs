//! Per-layer timings for the traced run.
//!
//! Every number here comes from a span the benchmark records around a
//! call into one layer's public function; nothing inside the program is
//! instrumented. For each request of the workload's stream the traced
//! pass decodes the frame, replays the layers `TrustService::handle`
//! walks (DER parse, chain key, profile lookup, anchor clone, path build
//! and signature checks; cacerts parse and diff for audits; journal
//! append and index install for swaps) as sibling spans, then times the
//! real `handle` call and the reply encode. Kinds the stream lacks are
//! timed on a short coverage tail so every metric exists on every
//! workload; the study stages and crypto primitives are timed once each.

use crate::gen::{self, Stream, Workload};
use crate::trace::{SpanId, Tracer};
use crate::util::{median, ns, quantile, us};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tangled_mass::analysis::Study;
use tangled_mass::crypto::sha256::sha256;
use tangled_mass::crypto::SignatureAlgorithm;
use tangled_mass::intercept::study_time;
use tangled_mass::netalyzr::{Population, PopulationSpec};
use tangled_mass::notary::{Ecosystem, EcosystemSpec, ValidationIndex};
use tangled_mass::pki::audit::audit;
use tangled_mass::pki::cacerts::from_cacerts_lenient;
use tangled_mass::pki::store::RootStore;
use tangled_mass::pki::trust::AnchorSource;
use tangled_mass::snap::{Journal, SwapRecord};
use tangled_mass::trustd::service::reference_store;
use tangled_mass::trustd::{Request, StoreIndex, TrustService, DEFAULT_CACHE_CAPACITY};
use tangled_mass::x509::{sig_memo_clear, sig_memo_counters, Certificate, ChainKey, ChainOptions};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The request kinds with a `handle_us.<kind>` metric.
pub const KINDS: [&str; 6] = ["validate", "compare", "audit", "classify", "probe", "swap"];

/// Requests of each missing kind on the coverage tail.
const TAIL_PER_KIND: usize = 16;

fn handle_span(kind: &str) -> &'static str {
    match kind {
        "validate" => "trustd.service.handle.validate",
        "compare" => "trustd.service.handle.compare",
        "audit" => "trustd.service.handle.audit",
        "classify" => "trustd.service.handle.classify",
        "probe" => "trustd.service.handle.probe",
        "swap" => "trustd.service.handle.swap",
        _ => "trustd.service.handle.other",
    }
}

/// State the traced pass carries between requests.
struct Pass<'a> {
    tracer: &'a Tracer,
    service: TrustService,
    /// Where swaps are re-installed for `install_us`, so timing the
    /// layer never changes the service's own epochs.
    scratch_index: StoreIndex,
    journal: Journal,
    epoch: u64,
    /// Signature-memo (hits, misses) seen inside `handle` calls.
    sig: (u64, u64),
}

impl Pass<'_> {
    fn request(&mut self, seq: u64, body: &[u8]) -> Result<(), String> {
        let t = self.tracer;
        let root = t.open("bench.request", None, seq);
        let req = t
            .span("trustd.wire.request_decode", Some(root), seq, || {
                Request::decode(body)
            })
            .map_err(|e| format!("request {seq} does not decode: {e:?}"))?;
        self.layers(&req, root, seq)?;
        let before = sig_memo_counters();
        let resp = t.span(handle_span(req.kind()), Some(root), seq, || {
            self.service.handle(&req)
        });
        let after = sig_memo_counters();
        self.sig.0 += after.0 - before.0;
        self.sig.1 += after.1 - before.1;
        t.span("trustd.wire.response_encode", Some(root), seq, || {
            resp.encode()
        });
        t.close(root);
        Ok(())
    }

    /// The layers `handle` walks for this request, each as its own span.
    fn layers(&mut self, req: &Request, root: SpanId, seq: u64) -> Result<(), String> {
        let t = self.tracer;
        let p = Some(root);
        match req {
            Request::Validate { profile, chain } | Request::Probe { profile, chain, .. } => {
                let certs = self.chain(chain, root, seq)?;
                self.verify(profile, &certs, root, seq);
            }
            Request::Compare { chain } => {
                let certs = self.chain(chain, root, seq)?;
                for name in tangled_mass::pki::stores::standard_store_names() {
                    self.verify(name, &certs, root, seq);
                }
            }
            Request::Classify { cert } => {
                t.span("x509.cert_parse", p, seq, || Certificate::parse(cert))
                    .map_err(|e| format!("request {seq}: {e:?}"))?;
            }
            Request::Audit { baseline, files } => {
                let reference = reference_store(baseline)
                    .ok_or_else(|| format!("request {seq}: unknown baseline {baseline}"))?;
                let (observed, _) = t.span("pki.cacerts_parse", p, seq, || {
                    from_cacerts_lenient("observed", files, AnchorSource::Unknown)
                });
                let baseline = reference.cached();
                t.span("pki.audit_diff", p, seq, || {
                    audit(&baseline, &observed, study_time())
                });
            }
            Request::Swap { profile, snapshot } => {
                let store = RootStore::from_snapshot(snapshot)
                    .map_err(|e| format!("request {seq}: bad snapshot {e:?}"))?;
                self.epoch += 1;
                let record = SwapRecord {
                    profile: profile.clone(),
                    epoch: self.epoch,
                    store: snapshot.clone(),
                };
                t.span("snap.journal.append", p, seq, || {
                    self.journal.append(&record)
                })
                .map_err(|e| format!("journal append: {e}"))?;
                let store = Arc::new(store);
                t.span("trustd.index.install", p, seq, || {
                    self.scratch_index.install(profile, store)
                });
            }
            _ => {}
        }
        Ok(())
    }

    fn chain(
        &self,
        chain: &[Vec<u8>],
        root: SpanId,
        seq: u64,
    ) -> Result<Vec<Arc<Certificate>>, String> {
        let t = self.tracer;
        let certs: Vec<Arc<Certificate>> = t
            .span("x509.chain_parse", Some(root), seq, || {
                chain
                    .iter()
                    .map(|der| Certificate::parse(der).map(Arc::new))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("request {seq}: {e:?}"))?;
        t.span("x509.chain_key", Some(root), seq, || {
            ChainKey::exact(certs.iter().map(Arc::as_ref))
        });
        Ok(certs)
    }

    fn verify(&self, name: &str, certs: &[Arc<Certificate>], root: SpanId, seq: u64) {
        let t = self.tracer;
        let p = Some(root);
        let Some(profile) = t.span("trustd.index.profile_lookup", p, seq, || {
            self.service.index().profile(name)
        }) else {
            return;
        };
        let mut verifier = t.span("trustd.index.anchor_clone", p, seq, || {
            (*profile.anchors).clone()
        });
        for link in &certs[1..] {
            verifier.add_intermediate(Arc::clone(link));
        }
        t.span("x509.verify", p, seq, || {
            verifier
                .verify(&certs[0], ChainOptions::at(study_time()))
                .is_ok()
        });
    }
}

/// Trace one warm pass of the workload's stream through a fresh
/// in-process service, then the coverage tail, filling `out` with the
/// wire, x509, index, service, pki and journal metrics. Returns the
/// stream pass's median in-process decode + handle + encode, µs.
pub fn traced_pass(
    tracer: &Tracer,
    workload: Workload,
    seed: u64,
    stream: &Stream,
    scratch: &Path,
    out: &mut Metrics,
) -> Result<f64, String> {
    let journal_path = scratch.join("layers.journal");
    let (journal, _, _) = Journal::open(&journal_path.to_string_lossy())
        .map_err(|e| format!("opening {}: {e}", journal_path.display()))?;
    let mut pass = Pass {
        tracer,
        service: TrustService::new(DEFAULT_CACHE_CAPACITY),
        scratch_index: StoreIndex::with_standard_profiles(),
        journal,
        epoch: 0,
        sig: (0, 0),
    };
    // Warm pass: the memos reach the state the served run measures in.
    for req in &stream.requests {
        pass.service.handle(req);
    }
    let (hits0, misses0) = pass.service.stats().cache_counts();
    let first = tracer.len();
    let bodies: Vec<&[u8]> = stream.frames.iter().map(|f| &f[4..]).collect();
    for (i, body) in bodies.iter().enumerate() {
        pass.request(i as u64, body)?;
    }
    let (hits1, misses1) = pass.service.stats().cache_counts();
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    out.insert(
        "trustd.service.memo_lookups".into(),
        (lookups as f64, "count"),
    );
    out.insert(
        "trustd.service.memo_hit_ratio".into(),
        ((hits1 - hits0) as f64 / (lookups as f64).max(1.0), "ratio"),
    );
    let (sh, sm) = pass.sig;
    out.insert("x509.sigmemo_lookups".into(), ((sh + sm) as f64, "count"));
    out.insert(
        "x509.sigmemo_hit_ratio".into(),
        (sh as f64 / ((sh + sm) as f64).max(1.0), "ratio"),
    );
    let bytes: usize = bodies.iter().map(|b| b.len()).sum();
    out.insert(
        "trustd.wire.request_bytes".into(),
        (bytes as f64 / bodies.len().max(1) as f64, "B"),
    );
    let inproc_p50_us = in_process_request_p50(tracer, first);
    // Share of in-process handle time spent parsing cacerts (the audit
    // path's dominant layer), over the stream pass only.
    let total = |v: Vec<f64>| v.iter().fold(0.0, |a, b| a + b);
    let handle_ns = total(
        KINDS
            .iter()
            .flat_map(|k| tracer.durations_ns(handle_span(k)))
            .collect(),
    );
    let parse_ns = total(tracer.durations_ns("pki.cacerts_parse"));
    out.insert(
        "pki.cacerts_parse_share".into(),
        (parse_ns / handle_ns.max(1.0), "ratio"),
    );

    // Coverage tail: kinds the stream does not carry.
    let tail = coverage_tail(workload, seed, stream);
    for (i, req) in tail.iter().enumerate() {
        pass.request((bodies.len() + i) as u64, &req.encode())?;
    }

    let med = |name: &str| median(&tracer.durations_ns(name));
    out.insert(
        "trustd.wire.request_decode_ns".into(),
        (med("trustd.wire.request_decode"), "ns"),
    );
    out.insert(
        "trustd.wire.response_encode_ns".into(),
        (med("trustd.wire.response_encode"), "ns"),
    );
    let certs_per_chain = mean_chain_len(&stream.requests);
    out.insert(
        "x509.cert_parse_ns".into(),
        (med("x509.chain_parse") / certs_per_chain, "ns"),
    );
    out.insert("x509.chain_key_ns".into(), (med("x509.chain_key"), "ns"));
    out.insert("x509.verify_us".into(), (med("x509.verify") / 1e3, "us"));
    out.insert(
        "trustd.index.profile_lookup_ns".into(),
        (med("trustd.index.profile_lookup"), "ns"),
    );
    out.insert(
        "trustd.index.anchor_clone_us".into(),
        (med("trustd.index.anchor_clone") / 1e3, "us"),
    );
    out.insert(
        "trustd.index.install_us".into(),
        (med("trustd.index.install") / 1e3, "us"),
    );
    out.insert(
        "snap.journal.append_us".into(),
        (med("snap.journal.append") / 1e3, "us"),
    );
    out.insert(
        "pki.cacerts_parse_us".into(),
        (med("pki.cacerts_parse") / 1e3, "us"),
    );
    out.insert(
        "pki.audit_diff_us".into(),
        (med("pki.audit_diff") / 1e3, "us"),
    );
    for kind in KINDS {
        out.insert(
            format!("trustd.service.handle_us.{kind}"),
            (med(handle_span(kind)) / 1e3, "us"),
        );
    }
    Ok(inproc_p50_us)
}

/// Median of decode + handle + encode per request over spans recorded
/// since index `first` (the stream pass), in µs.
fn in_process_request_p50(tracer: &Tracer, first: usize) -> f64 {
    let mut names = vec!["trustd.wire.request_decode", "trustd.wire.response_encode"];
    names.extend(KINDS.iter().map(|k| handle_span(k)));
    median(&tracer.request_sums(&names, first)) / 1e3
}

fn mean_chain_len(requests: &[Request]) -> f64 {
    let lens: Vec<usize> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Validate { chain, .. }
            | Request::Probe { chain, .. }
            | Request::Compare { chain } => Some(chain.len()),
            _ => None,
        })
        .collect();
    if lens.is_empty() {
        1.0
    } else {
        lens.iter().sum::<usize>() as f64 / lens.len() as f64
    }
}

/// Up to [`TAIL_PER_KIND`] requests of every kind the stream lacks, cut
/// from the `fleet-mix` stream of the same seed (compares are built
/// from its validate chains).
fn coverage_tail(workload: Workload, seed: u64, stream: &Stream) -> Vec<Request> {
    let present: Vec<&str> = stream.requests.iter().map(Request::kind).collect();
    let missing: Vec<&str> = KINDS.into_iter().filter(|k| !present.contains(k)).collect();
    if missing.is_empty() {
        return Vec::new();
    }
    let fleet = if workload == Workload::FleetMix {
        stream.requests.clone()
    } else {
        gen::stream(Workload::FleetMix, seed).requests
    };
    let mut tail = Vec::new();
    for kind in missing {
        let picked = fleet.iter().filter_map(|r| match (kind, r) {
            ("compare", Request::Validate { chain, .. }) => Some(Request::Compare {
                chain: chain.clone(),
            }),
            (k, r) if r.kind() == k => Some(r.clone()),
            _ => None,
        });
        tail.extend(picked.take(TAIL_PER_KIND));
    }
    tail
}

/// Time the crypto primitives: RSA sign and verify with a factory key,
/// SHA-256 throughput.
pub fn crypto(tracer: &Tracer, seed: u64, out: &mut Metrics) {
    let key = tangled_mass::pki::stores::global_factory()
        .lock()
        .expect("factory poisoned")
        .keypair("perfbench-probe");
    let mut rng = tangled_mass::crypto::SplitMix64::new(seed);
    let alg = SignatureAlgorithm::Sha256WithRsa;
    let mut sign = Vec::new();
    let mut verify = Vec::new();
    for i in 0..200u64 {
        let mut msg = vec![0u8; 256];
        rng.fill_bytes(&mut msg);
        let t = Instant::now();
        let sig = tracer
            .span("crypto.rsa_sign", None, i, || key.sign(alg, &msg))
            .expect("factory keys sign");
        sign.push(us(t.elapsed()));
        let t = Instant::now();
        let ok = tracer.span("crypto.rsa_verify", None, i, || {
            key.public_key().verify(alg, &msg, &sig)
        });
        verify.push(us(t.elapsed()));
        assert!(ok.is_ok(), "a fresh signature verifies");
    }
    let mut block = vec![0u8; 64 * 1024];
    rng.fill_bytes(&mut block);
    let mut per_kib = Vec::new();
    for i in 0..64u64 {
        let t = Instant::now();
        tracer.span("crypto.sha256", None, i, || sha256(&block));
        per_kib.push(ns(t.elapsed()) / 64.0);
    }
    out.insert("crypto.rsa_sign_us".into(), (median(&sign), "us"));
    out.insert("crypto.rsa_verify_us".into(), (median(&verify), "us"));
    out.insert("crypto.sha256_ns_per_kib".into(), (median(&per_kib), "ns"));
}

/// Time the study pipeline's stages once each, cold signature memo, and
/// the ten-profile index preload. The stage run's tables and export are
/// checked against their golden fingerprint ([`crate::study::verify`]).
pub fn stages(tracer: &Tracer, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let eco_spec = EcosystemSpec::scaled(crate::study::ECO_SCALE);
    let pop_spec = PopulationSpec::scaled(crate::study::POP_SCALE);
    // Prime the process-wide CA factory so the stages time pipeline
    // work, not one-time key minting.
    let _ = Ecosystem::generate(&eco_spec);
    let _ = Population::generate(&pop_spec);

    let stage = |name: &'static str, f: &mut dyn FnMut()| {
        sig_memo_clear();
        let t = Instant::now();
        tracer.span(name, None, 0, f);
        t.elapsed().as_secs_f64()
    };
    let mut eco = None;
    let s = stage("notary.ecosystem_generate", &mut || {
        eco = Some(Ecosystem::generate(&eco_spec))
    });
    out.insert("notary.ecosystem_generate_s".into(), (s, "s"));
    let eco = eco.expect("stage ran");
    let s = stage("notary.validation_build", &mut || {
        std::hint::black_box(ValidationIndex::build(&eco));
    });
    out.insert("notary.validation_build_s".into(), (s, "s"));
    let s = stage("netalyzr.population_generate", &mut || {
        std::hint::black_box(Population::generate(&pop_spec));
    });
    out.insert("netalyzr.population_generate_s".into(), (s, "s"));
    let plan = crate::study::plan(seed);
    let mut study: Option<Study> = None;
    let s = stage("core.with_faults", &mut || {
        study = Some(Study::with_faults(
            crate::study::POP_SCALE,
            crate::study::ECO_SCALE,
            &plan,
        ))
    });
    out.insert("core.with_faults_s".into(), (s, "s"));
    let study = study.expect("stage ran");
    let mut rendered = String::new();
    let s = stage("core.render", &mut || {
        rendered = crate::study::render(&study)
    });
    out.insert("core.render_s".into(), (s, "s"));
    let s = stage("trustd.index.preload", &mut || {
        std::hint::black_box(StoreIndex::with_standard_profiles());
    });
    out.insert("trustd.index.preload_s".into(), (s, "s"));
    crate::study::verify(seed, &study, &rendered)
}

/// Self time per layer, as a table for standard error.
pub fn self_time_table(tracer: &Tracer) -> String {
    let st = tracer.self_times();
    let total: f64 = st.values().map(|(_, ns)| ns).sum();
    let mut rows: Vec<_> = st.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    let mut out = String::from("layer self time (all spans of the traced run):\n");
    for (name, (count, self_ns)) in rows {
        out.push_str(&format!(
            "  {name:<36} {count:>8} spans {:>12.3} ms self {:>6.2}%  p50 {:>10.1} ns\n",
            self_ns / 1e6,
            100.0 * self_ns / total.max(1.0),
            quantile(&tracer.durations_ns(name), 0.5),
        ));
    }
    out
}
