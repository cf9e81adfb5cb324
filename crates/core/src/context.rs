//! Shared experiment context: one registry, DNS corpus and generator pair
//! that every figure reproduction runs against, under one scenario.

use lockdown_analysis::appclass::Classifier;
use lockdown_base::hash::fold;
use lockdown_dns::corpus::{synthesize, Corpus};
use lockdown_dns::vpn::identify_vpn_ips;
use lockdown_scenario::measures::ScenarioSpec;
use lockdown_topology::registry::Registry;
use lockdown_traffic::config::GeneratorConfig;
use lockdown_traffic::edu_gen::EduGenerator;
use lockdown_traffic::generate::TrafficGenerator;
use lockdown_traffic::plan::FINGERPRINT_INIT;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How much synthetic data an experiment run generates.
///
/// All figures are normalized/relative, so fidelity trades statistical
/// smoothness against runtime without moving the expected curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Minimal resolution: CI-friendly; curves are noisy but ordering
    /// relations (who grows, who shrinks) hold.
    Test,
    /// Default resolution used by the examples and benches.
    Standard,
}

impl Fidelity {
    /// Generator configuration for this fidelity.
    pub(crate) fn config(self, seed: u64) -> GeneratorConfig {
        match self {
            Fidelity::Test => GeneratorConfig::coarse(seed),
            Fidelity::Standard => GeneratorConfig::with_seed(seed),
        }
    }
}

/// Everything an experiment needs, built once.
#[derive(Debug)]
pub struct Context {
    /// The synthetic AS registry.
    pub registry: Registry,
    /// The synthetic DNS corpus.
    pub corpus: Corpus,
    /// Generator configuration in use.
    pub config: GeneratorConfig,
    /// The scenario every generator interprets.
    pub scenario: Arc<ScenarioSpec>,
    /// The Table 1 classifier over this registry, built once and shared by
    /// every figure that classifies flows.
    pub(crate) classifier: Arc<Classifier>,
}

impl Context {
    /// Build a context at a fidelity with the default experiment seed.
    pub fn new(fidelity: Fidelity) -> Context {
        Context::with_seed(fidelity, 0x10CD_2020)
    }

    /// Build a context with an explicit seed, under the default scenario,
    /// the shipped `scenarios/covid-spring-2020.toml`.
    pub fn with_seed(fidelity: Fidelity, seed: u64) -> Context {
        Context::with_scenario(fidelity, seed, ScenarioSpec::covid_spring_2020())
    }

    /// Build a context under an explicit scenario. With
    /// [`ScenarioSpec::covid_spring_2020`] this is byte-identical to
    /// [`Context::with_seed`].
    pub fn with_scenario(fidelity: Fidelity, seed: u64, scenario: ScenarioSpec) -> Context {
        let registry = Registry::synthesize();
        let corpus = synthesize(&registry, seed);
        Context {
            classifier: Arc::new(Classifier::from_registry(&registry)),
            registry,
            corpus,
            config: fidelity.config(seed),
            scenario: Arc::new(scenario),
        }
    }

    /// The same substrate — registry, corpus, generator configuration —
    /// under another scenario: one lane of a multi-scenario sweep. Equal
    /// to [`Context::with_scenario`] at this context's fidelity and seed.
    pub(crate) fn under(&self, scenario: ScenarioSpec) -> Context {
        Context {
            registry: self.registry.clone(),
            corpus: self.corpus.clone(),
            config: self.config,
            scenario: Arc::new(scenario),
            classifier: Arc::clone(&self.classifier),
        }
    }

    /// A trace generator borrowing this context, interpreting its
    /// scenario.
    pub fn generator(&self) -> TrafficGenerator<'_> {
        TrafficGenerator::with_scenario(&self.registry, &self.corpus, self.config, &self.scenario)
    }

    /// An EDU generator borrowing this context, interpreting its
    /// scenario.
    pub fn edu_generator(&self) -> EduGenerator<'_> {
        EduGenerator::with_scenario(&self.registry, self.config, &self.scenario)
    }

    /// Stable fingerprint of everything non-seed that shapes generated
    /// traffic: the generator scaling knobs *and* the scenario's
    /// behavioural content. Archives key their manifests on it, so a
    /// store written under one scenario is never replayed into another.
    pub fn scenario_hash(&self) -> u64 {
        fold(
            FINGERPRINT_INIT,
            [self.config.scenario_hash(), self.scenario.fingerprint()],
        )
    }

    /// The §6 candidate VPN endpoint set, derived from the corpus the way
    /// the paper derives it from CT logs/forward DNS.
    pub fn vpn_candidate_ips(&self) -> BTreeSet<Ipv4Addr> {
        identify_vpn_ips(&self.corpus.db).vpn_ips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_identifies_vpn_ips() {
        let ctx = Context::new(Fidelity::Test);
        assert!(!ctx.vpn_candidate_ips().is_empty());
        let g = ctx.generator();
        assert_eq!(g.config().seed, 0x10CD_2020);
    }

    #[test]
    fn fidelity_ordering() {
        let t = Fidelity::Test.config(1);
        let s = Fidelity::Standard.config(1);
        assert!(t.flows_per_gbps < s.flows_per_gbps);
    }

    #[test]
    fn scenario_hash_tracks_spec_behaviour() {
        let a = Context::new(Fidelity::Test);
        let b = Context::with_scenario(
            Fidelity::Test,
            0x10CD_2020,
            ScenarioSpec::covid_spring_2020(),
        );
        assert_eq!(a.scenario_hash(), b.scenario_hash());

        let mut renamed = ScenarioSpec::covid_spring_2020();
        renamed.name = "renamed".into();
        let c = Context::with_scenario(Fidelity::Test, 0x10CD_2020, renamed);
        assert_eq!(a.scenario_hash(), c.scenario_hash(), "names are cosmetic");

        let mut tweaked = ScenarioSpec::covid_spring_2020();
        tweaked.baseline.organic_weekly = 1.01;
        let d = Context::with_scenario(Fidelity::Test, 0x10CD_2020, tweaked);
        assert_ne!(a.scenario_hash(), d.scenario_hash());
    }
}
