//! The offline study pipeline as the traced run times it
//! ([`crate::layers::stages`]): its scale, its fault plan per seed, and
//! the check every run makes of its output.

use tangled_mass::analysis::{export::export_study, tables::render_all, Study};
use tangled_mass::crypto::hash::fnv1a;
use tangled_mass::faults::FaultPlan;

/// Population scale of the pipeline.
pub const POP_SCALE: f64 = 0.25;
/// Notary ecosystem scale of the pipeline.
pub const ECO_SCALE: f64 = 0.25;
/// Fault rate of the degraded ingest.
pub const FAULT_RATE: f64 = 0.05;
/// Fault-plan seeds; a benchmark seed picks one by `seed % 4`.
pub const PLAN_SEEDS: [u64; 4] = [404, 1404, 2404, 3404];
/// FNV-1a of the rendered tables and export for each plan seed, taken
/// from the program as it stands when this benchmark was defined. A
/// change that alters any table or export byte fails the run.
pub const GOLDEN: [u64; 4] = [
    0xbd4e_0c16_b1d8_d180,
    0x5143_078d_8cc1_3e42,
    0xf550_170a_d948_038a,
    0xf706_1ecc_7d2c_795c,
];
/// The fault plan a benchmark seed runs.
pub fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(PLAN_SEEDS[(seed % 4) as usize]).with_rate(FAULT_RATE)
}

/// The study's rendered output: every table, then the export document.
pub fn render(study: &Study) -> String {
    let mut out = render_all(study);
    out.push_str(&export_study(study).to_string());
    out
}

/// The fingerprint of a rendered study.
pub fn fingerprint(rendered: &str) -> u64 {
    fnv1a(rendered.as_bytes())
}

/// Check a study: its rendering matches the golden fingerprint for the
/// seed's plan, and its fault ledger conserves (every injected fault is
/// quarantined exactly once, and the ledger agrees with the raw list).
pub fn verify(seed: u64, study: &Study, rendered: &str) -> Result<(), String> {
    let got = fingerprint(rendered);
    let want = GOLDEN[(seed % 4) as usize];
    if got != want {
        return Err(format!("study fingerprint {got:016x}, want {want:016x}"));
    }
    let health = &study.health;
    if !health.is_balanced() || health.injected_total() as usize != study.injected.len() {
        return Err(format!(
            "fault ledger does not conserve: injected {} (raw {}), quarantined {}",
            health.injected_total(),
            study.injected.len(),
            health.quarantined_total()
        ));
    }
    Ok(())
}
