//! One entry point for every sampler family: [`SamplerSpec`],
//! [`SamplerBuilder`] and the type-erased [`AnySampler`].
//!
//! The crate historically exposed four ad-hoc constructor/config pairs
//! (`UniGen::new` + [`UniGenConfig`], `UniWit::new` + [`UniWitConfig`], …).
//! The builder collapses them behind one coherent, forward-compatible
//! surface:
//!
//! ```
//! use unigen::{SamplerBuilder, WitnessSampler};
//! use unigen_cnf::{CnfFormula, Lit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = CnfFormula::new(3);
//! f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2), Lit::from_dimacs(3)])?;
//!
//! let mut sampler = SamplerBuilder::unigen(&f).epsilon(6.0).seed(42).build()?;
//! let outcome = sampler.sample_batch(4, 0xdac2014);
//! assert_eq!(outcome.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! Errors are typed by phase: a misapplied option or a failed preparation is
//! a *prepare-time* [`BuildError`] from [`SamplerBuilder::build`]; transient
//! queue rejections are *request-time* [`crate::TrySubmitError`]s from the
//! service (see `error.rs` for the taxonomy). Options that a family does not
//! have — `epsilon` on UniWit, `sampling_set` on the full-support hashers —
//! are rejected rather than silently ignored, so a spec always means what it
//! says.

use std::sync::Arc;

use unigen_cnf::{CnfFormula, Var};
use unigen_counting::ApproxMcConfig;
use unigen_satsolver::Budget;

use crate::config::UniGenConfig;
use crate::error::BuildError;
use crate::fault::FaultPlan;
use crate::sampler::{SampleOutcome, WitnessSampler};
use crate::service::{SamplerService, ServiceConfig};
use crate::unigen::UniGen;
use crate::uniwit::{UniWit, UniWitConfig};
use crate::us::UniformSampler;
use crate::xorsample::{XorSamplePrime, XorSamplePrimeConfig};

/// Which sampler family a [`SamplerBuilder`] constructs, together with that
/// family's configuration.
///
/// A spec is a plain value: it can be stored, compared, serialised by a
/// front end, and handed to [`SamplerBuilder::from_spec`] — the
/// forward-compatible core of the redesigned API (new families become new
/// variants, not new constructors).
///
/// A spec carries the *family and its configuration* only. An explicit
/// [`SamplerBuilder::sampling_set`] override is deliberately **builder**
/// state, not spec state: the set is a list of variable indices into one
/// concrete formula, so it would not survive being stored apart from that
/// formula. Callers that round-trip a spec through
/// [`SamplerBuilder::from_spec`] must re-apply their sampling-set override.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SamplerSpec {
    /// UniGen (DAC 2014): almost-uniform, hashing over the sampling set.
    UniGen(UniGenConfig),
    /// UniWit (CAV 2013): near-uniform, hashing over the full support.
    UniWit(UniWitConfig),
    /// XORSample′ (NIPS 2007): near-uniform with a user-supplied hash width.
    XorSamplePrime(XorSamplePrimeConfig),
    /// US: the ideal uniform sampler (exact count + materialised witnesses).
    Uniform,
}

impl SamplerSpec {
    /// The family's human-readable name ("UniGen", "UniWit", …).
    pub fn name(&self) -> &'static str {
        match self {
            SamplerSpec::UniGen(_) => "UniGen",
            SamplerSpec::UniWit(_) => "UniWit",
            SamplerSpec::XorSamplePrime(_) => "XORSample'",
            SamplerSpec::Uniform => "US",
        }
    }
}

/// Builds any sampler in the crate from one entry point.
///
/// Construct with the family selector ([`SamplerBuilder::unigen`],
/// [`SamplerBuilder::uniwit`], [`SamplerBuilder::xorsample`],
/// [`SamplerBuilder::uniform`]) or from a stored [`SamplerSpec`]
/// ([`SamplerBuilder::from_spec`]), chain the options the family supports,
/// and finish with [`SamplerBuilder::build`] (a prepared [`AnySampler`]) or
/// [`SamplerBuilder::into_service`] (a running [`SamplerService`]).
///
/// Setting an option the selected family does not have is remembered and
/// reported as [`BuildError::UnsupportedOption`] at build time — typed,
/// rather than silently dropped.
#[derive(Debug, Clone)]
pub struct SamplerBuilder<'f> {
    formula: &'f CnfFormula,
    spec: SamplerSpec,
    sampling_set: Option<Vec<Var>>,
    fault_plan: Option<Arc<FaultPlan>>,
    misapplied: Option<&'static str>,
}

impl<'f> SamplerBuilder<'f> {
    /// Starts a UniGen spec with the paper's default configuration.
    pub fn unigen(formula: &'f CnfFormula) -> Self {
        Self::from_spec(formula, SamplerSpec::UniGen(UniGenConfig::default()))
    }

    /// Starts a UniWit spec with the default configuration.
    pub fn uniwit(formula: &'f CnfFormula) -> Self {
        Self::from_spec(formula, SamplerSpec::UniWit(UniWitConfig::default()))
    }

    /// Starts an XORSample′ spec with the default configuration.
    pub fn xorsample(formula: &'f CnfFormula) -> Self {
        Self::from_spec(
            formula,
            SamplerSpec::XorSamplePrime(XorSamplePrimeConfig::default()),
        )
    }

    /// Starts a US (ideal uniform sampler) spec; the build materialises the
    /// witness list so the sampler can return concrete models.
    pub fn uniform(formula: &'f CnfFormula) -> Self {
        Self::from_spec(formula, SamplerSpec::Uniform)
    }

    /// Starts from a stored [`SamplerSpec`].
    pub fn from_spec(formula: &'f CnfFormula, spec: SamplerSpec) -> Self {
        SamplerBuilder {
            formula,
            spec,
            sampling_set: None,
            fault_plan: None,
            misapplied: None,
        }
    }

    /// Returns the spec as configured so far.
    pub fn spec(&self) -> &SamplerSpec {
        &self.spec
    }

    /// Records the first option applied to a family that does not have it;
    /// [`SamplerBuilder::build`] turns it into a typed error.
    fn misapply(mut self, option: &'static str) -> Self {
        self.misapplied.get_or_insert(option);
        self
    }

    /// Tolerance ε (> 1.71). **UniGen only.**
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.epsilon = epsilon;
                self
            }
            _ => self.misapply("epsilon"),
        }
    }

    /// Seed for the preparation phase's random choices. **UniGen only** (the
    /// other families have no randomised preparation; per-sample randomness
    /// always comes from the request's RNG streams).
    pub fn seed(mut self, seed: u64) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.seed = seed;
                self
            }
            _ => self.misapply("seed"),
        }
    }

    /// Budget for each underlying solver call. Supported by every hashing
    /// family (UniGen, UniWit, XORSample′); **not** by US, whose preparation
    /// is an exact count.
    pub fn bsat_budget(mut self, budget: Budget) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.bsat_budget = budget;
                self
            }
            SamplerSpec::UniWit(config) => {
                config.bsat_budget = budget;
                self
            }
            SamplerSpec::XorSamplePrime(config) => {
                config.bsat_budget = budget;
                self
            }
            SamplerSpec::Uniform => self.misapply("bsat_budget"),
        }
    }

    /// Retries for a budget-exhausted `BSAT` call at the same hash width.
    /// **UniGen only.**
    pub fn bsat_retries(mut self, retries: usize) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.bsat_retries = retries;
                self
            }
            _ => self.misapply("bsat_retries"),
        }
    }

    /// Certified enumeration: log a DRAT-style proof of every cell
    /// enumeration and verify it online with the independent `unigen-cert`
    /// checker (see [`UniGenConfig::certify`]). **UniGen only** (the other
    /// families' solvers run without proof sinks).
    pub fn certify(mut self, certify: bool) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.certify = certify;
                self
            }
            _ => self.misapply("certify"),
        }
    }

    /// Configuration of the approximate model counter used during
    /// preparation. **UniGen only.**
    pub fn approxmc(mut self, approxmc: ApproxMcConfig) -> Self {
        match &mut self.spec {
            SamplerSpec::UniGen(config) => {
                config.approxmc = approxmc;
                self
            }
            _ => self.misapply("approxmc"),
        }
    }

    /// Largest cell size accepted during the per-sample width search.
    /// **UniWit only.**
    pub fn pivot(mut self, pivot: u64) -> Self {
        match &mut self.spec {
            SamplerSpec::UniWit(config) => {
                config.pivot = pivot;
                self
            }
            _ => self.misapply("pivot"),
        }
    }

    /// Cap on the number of hash widths tried per sample. **UniWit only.**
    pub fn max_width(mut self, max_width: usize) -> Self {
        match &mut self.spec {
            SamplerSpec::UniWit(config) => {
                config.max_width = Some(max_width);
                self
            }
            _ => self.misapply("max_width"),
        }
    }

    /// Number of xor constraints to add (the user-supplied hash width).
    /// **XORSample′ only.**
    pub fn num_constraints(mut self, num_constraints: usize) -> Self {
        match &mut self.spec {
            SamplerSpec::XorSamplePrime(config) => {
                config.num_constraints = num_constraints;
                self
            }
            _ => self.misapply("num_constraints"),
        }
    }

    /// Upper bound on the witnesses enumerated from a surviving cell.
    /// **XORSample′ only.**
    pub fn cell_cap(mut self, cell_cap: usize) -> Self {
        match &mut self.spec {
            SamplerSpec::XorSamplePrime(config) => {
                config.cell_cap = cell_cap;
                self
            }
            _ => self.misapply("cell_cap"),
        }
    }

    /// Explicit sampling set `S`, overriding the formula's declared one.
    /// Supported by UniGen (hashes over `S`) and US (materialises projected
    /// witnesses); **not** by UniWit or XORSample′, which by definition hash
    /// over the full support — the structural difference the paper's
    /// comparison isolates.
    ///
    /// The override is builder state, not part of the [`SamplerSpec`]
    /// (see the spec's type docs): re-apply it after
    /// [`SamplerBuilder::from_spec`].
    pub fn sampling_set(mut self, sampling_set: impl IntoIterator<Item = Var>) -> Self {
        match &self.spec {
            SamplerSpec::UniGen(_) | SamplerSpec::Uniform => {
                self.sampling_set = Some(sampling_set.into_iter().collect());
                self
            }
            _ => self.misapply("sampling_set"),
        }
    }

    /// Installs a chaos-testing [`FaultPlan`]: the plan's solver-level fault
    /// hook is wired into the prepared sampler, and
    /// [`SamplerBuilder::into_service`] threads the same plan into the
    /// service so its worker-panic primitive and health counters line up
    /// with the solver-level injections. **UniGen only** (the other
    /// families' recovery ladder lives in UniGen; see the crate's
    /// robustness docs).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        match &self.spec {
            SamplerSpec::UniGen(_) => {
                self.fault_plan = Some(plan);
                self
            }
            _ => self.misapply("fault_plan"),
        }
    }

    /// Runs the selected family's preparation phase and returns the prepared
    /// sampler.
    ///
    /// # Errors
    ///
    /// * [`BuildError::UnsupportedOption`] if an option was applied to a
    ///   family that does not have it,
    /// * [`BuildError::Prepare`] wrapping the family's
    ///   [`crate::SamplerError`] if preparation fails.
    pub fn build(self) -> Result<AnySampler, BuildError> {
        if let Some(option) = self.misapplied {
            return Err(BuildError::UnsupportedOption {
                option,
                sampler: self.spec.name(),
            });
        }
        Ok(match self.spec {
            SamplerSpec::UniGen(config) => {
                let mut sampler = match self.sampling_set {
                    Some(sampling_set) => {
                        UniGen::with_sampling_set(self.formula, &sampling_set, config)?
                    }
                    None => UniGen::new(self.formula, config)?,
                };
                if let Some(plan) = self.fault_plan {
                    sampler.install_fault_plan(plan);
                }
                AnySampler::UniGen(sampler)
            }
            SamplerSpec::UniWit(config) => AnySampler::UniWit(UniWit::new(self.formula, config)?),
            SamplerSpec::XorSamplePrime(config) => {
                AnySampler::XorSamplePrime(XorSamplePrime::new(self.formula, config)?)
            }
            SamplerSpec::Uniform => {
                let sampling_set = self
                    .sampling_set
                    .unwrap_or_else(|| self.formula.sampling_set_or_all());
                AnySampler::Uniform(UniformSampler::with_witnesses(self.formula, &sampling_set)?)
            }
        })
    }

    /// Builds the sampler and wraps it in a running [`SamplerService`] — the
    /// one-call path from a formula to a request/response sampling service.
    /// A [`SamplerBuilder::fault_plan`] is threaded into the service too, so
    /// solver-level and worker-level chaos share one schedule and one set of
    /// health counters.
    ///
    /// # Errors
    ///
    /// The [`SamplerBuilder::build`] errors, plus
    /// [`BuildError::Service`] if `config` is invalid (for example
    /// [`ServiceConfig::workers`] of zero).
    pub fn into_service(self, config: ServiceConfig) -> Result<SamplerService, BuildError> {
        let plan = self.fault_plan.clone();
        let sampler = self.build()?;
        Ok(SamplerService::try_with_fault_plan(sampler, config, plan)?)
    }
}

/// A prepared sampler of any family, as produced by
/// [`SamplerBuilder::build`].
///
/// `AnySampler` implements [`WitnessSampler`] by delegation, is `Clone +
/// Send + Sync` (the heavyweight prepared state is `Arc`-shared, only the
/// incremental solver is duplicated), and therefore drops into
/// [`SamplerService`] or any generic harness
/// exactly like the concrete types do.
#[derive(Debug, Clone)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)] // lint: prepared samplers are built once and long-lived; boxing the UniGen variant would buy nothing but an extra indirection on every delegated call
pub enum AnySampler {
    /// A prepared [`UniGen`].
    UniGen(UniGen),
    /// A prepared [`UniWit`].
    UniWit(UniWit),
    /// A prepared [`XorSamplePrime`].
    XorSamplePrime(XorSamplePrime),
    /// A prepared [`UniformSampler`] with materialised witnesses.
    Uniform(UniformSampler),
}

impl AnySampler {
    /// Returns the inner [`UniGen`], if this is one (for access to
    /// UniGen-specific introspection such as
    /// [`UniGen::prepared_mode`]).
    pub fn as_unigen(&self) -> Option<&UniGen> {
        match self {
            AnySampler::UniGen(sampler) => Some(sampler),
            _ => None,
        }
    }

    /// Returns the inner [`UniWit`], if this is one.
    pub fn as_uniwit(&self) -> Option<&UniWit> {
        match self {
            AnySampler::UniWit(sampler) => Some(sampler),
            _ => None,
        }
    }
}

impl WitnessSampler for AnySampler {
    fn sample(&mut self, rng: &mut dyn rand::RngCore) -> SampleOutcome {
        match self {
            AnySampler::UniGen(sampler) => sampler.sample(rng),
            AnySampler::UniWit(sampler) => sampler.sample(rng),
            AnySampler::XorSamplePrime(sampler) => sampler.sample(rng),
            AnySampler::Uniform(sampler) => sampler.sample(rng),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnySampler::UniGen(sampler) => sampler.name(),
            AnySampler::UniWit(sampler) => sampler.name(),
            AnySampler::XorSamplePrime(sampler) => sampler.name(),
            AnySampler::Uniform(sampler) => sampler.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unigen_cnf::{Lit, XorClause};

    use crate::error::SamplerError;

    fn or3() -> CnfFormula {
        let mut f = CnfFormula::new(3);
        f.add_clause([
            Lit::from_dimacs(1),
            Lit::from_dimacs(2),
            Lit::from_dimacs(3),
        ])
        .unwrap();
        f
    }

    #[test]
    fn builds_every_family_from_one_entry_point() {
        let f = or3();
        let mut names = Vec::new();
        for builder in [
            SamplerBuilder::unigen(&f),
            SamplerBuilder::uniwit(&f),
            SamplerBuilder::xorsample(&f).num_constraints(1),
            SamplerBuilder::uniform(&f),
        ] {
            let sampler = builder.build().unwrap();
            names.push(sampler.name());
        }
        assert_eq!(names, vec!["UniGen", "UniWit", "XORSample'", "US"]);
    }

    #[test]
    fn options_reach_the_family_configs() {
        let f = or3();
        let builder = SamplerBuilder::unigen(&f)
            .epsilon(8.0)
            .seed(42)
            .bsat_retries(5)
            .certify(true);
        match builder.spec() {
            SamplerSpec::UniGen(config) => {
                assert_eq!(config.epsilon, 8.0);
                assert_eq!(config.seed, 42);
                assert_eq!(config.bsat_retries, 5);
                assert!(config.certify);
            }
            other => panic!("expected a UniGen spec, got {other:?}"),
        }
        let builder = SamplerBuilder::uniwit(&f).pivot(10).max_width(2);
        match builder.spec() {
            SamplerSpec::UniWit(config) => {
                assert_eq!(config.pivot, 10);
                assert_eq!(config.max_width, Some(2));
            }
            other => panic!("expected a UniWit spec, got {other:?}"),
        }
    }

    #[test]
    fn misapplied_options_are_typed_build_errors() {
        let f = or3();
        // epsilon is UniGen-only.
        let err = SamplerBuilder::uniwit(&f).epsilon(6.0).build().unwrap_err();
        assert_eq!(
            err,
            BuildError::UnsupportedOption {
                option: "epsilon",
                sampler: "UniWit"
            }
        );
        // Certified enumeration lives in UniGen's solver wiring only.
        let err = SamplerBuilder::uniform(&f)
            .certify(true)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::UnsupportedOption {
                option: "certify",
                ..
            }
        ));
        // UniWit hashes over the full support by definition.
        let err = SamplerBuilder::uniwit(&f)
            .sampling_set([Var::new(0)])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::UnsupportedOption {
                option: "sampling_set",
                ..
            }
        ));
        // The first misapplied option wins, even with later valid setters.
        let err = SamplerBuilder::xorsample(&f)
            .pivot(3)
            .num_constraints(2)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::UnsupportedOption {
                option: "pivot",
                ..
            }
        ));
        assert!(err.to_string().contains("pivot"));
    }

    #[test]
    fn preparation_failures_are_typed_prepare_errors() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::from_dimacs(1)]).unwrap();
        f.add_clause([Lit::from_dimacs(-1)]).unwrap();
        let err = SamplerBuilder::unigen(&f).build().unwrap_err();
        assert_eq!(err, BuildError::Prepare(SamplerError::Unsatisfiable));
        let err = SamplerBuilder::unigen(&or3())
            .epsilon(1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::Prepare(SamplerError::EpsilonTooSmall { .. })
        ));
    }

    #[test]
    fn explicit_sampling_set_reaches_unigen_and_us() {
        let mut f = CnfFormula::new(3);
        f.add_xor_clause(XorClause::new([Var::new(0), Var::new(2)], false))
            .unwrap();
        let sampler = SamplerBuilder::unigen(&f)
            .sampling_set([Var::new(0), Var::new(1)])
            .build()
            .unwrap();
        assert_eq!(
            sampler.as_unigen().unwrap().sampling_set(),
            &[Var::new(0), Var::new(1)]
        );
        let sampler = SamplerBuilder::uniform(&f)
            .sampling_set([Var::new(0), Var::new(1)])
            .build()
            .unwrap();
        assert!(matches!(sampler, AnySampler::Uniform(_)));
    }

    #[test]
    fn spec_round_trips_through_from_spec() {
        let f = or3();
        let spec = SamplerSpec::XorSamplePrime(XorSamplePrimeConfig {
            num_constraints: 1,
            ..Default::default()
        });
        let sampler = SamplerBuilder::from_spec(&f, spec.clone()).build().unwrap();
        assert_eq!(sampler.name(), spec.name());
    }

    #[test]
    fn fault_plan_is_unigen_only_and_zero_workers_is_a_typed_service_error() {
        use crate::error::ServiceConfigError;
        let f = or3();
        let err = SamplerBuilder::uniwit(&f)
            .fault_plan(Arc::new(FaultPlan::seeded(1)))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::UnsupportedOption {
                option: "fault_plan",
                sampler: "UniWit"
            }
        );
        let err = SamplerBuilder::unigen(&f)
            .into_service(ServiceConfig::default().with_workers(0))
            .unwrap_err();
        assert_eq!(err, BuildError::Service(ServiceConfigError::ZeroWorkers));
    }

    #[test]
    fn into_service_threads_the_fault_plan_through() {
        use crate::service::SampleRequest;
        // Wide enough (~2^10 · 0.75 witnesses) that UniGen prepares in
        // hashed mode and actually issues BSAT calls the plan can fail —
        // the tiny `or3` formula would be enumerated outright.
        let mut f = CnfFormula::new(10);
        f.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(2)])
            .unwrap();
        let plan = Arc::new(FaultPlan::seeded(7).fail_nth_bsat(1));
        let service = SamplerBuilder::unigen(&f)
            .fault_plan(Arc::clone(&plan))
            .into_service(ServiceConfig::default().with_workers(1))
            .unwrap();
        let response = service.submit(SampleRequest::new(4, 3)).wait();
        assert_eq!(response.outcomes.len(), 4);
        // The solver-level fault fired and was absorbed by the recovery
        // ladder; the service health surfaces it because both layers share
        // the one plan.
        assert_eq!(plan.faults_injected(), 1);
        assert_eq!(service.health().faults_injected, 1);
        assert!(response.aggregate_stats.retries >= 1);
    }

    #[test]
    fn into_service_serves_the_built_sampler() {
        use crate::service::SampleRequest;
        let f = or3();
        let service = SamplerBuilder::unigen(&f)
            .into_service(ServiceConfig::default().with_workers(2))
            .unwrap();
        let response = service.submit(SampleRequest::new(5, 9)).wait();
        assert_eq!(response.outcomes.len(), 5);
        assert!(response.successes() > 0);
    }
}
