//! The claims world: catalogues + ground-truth prescribing dynamics.
//!
//! A [`World`] is everything the simulator needs to generate claims:
//! diseases, medicines, ground-truth [`Indication`] links, market events,
//! hospitals, cities, outbreaks, and the patient panel. The world answers the
//! central question *"with what propensity is medicine m prescribed for
//! disease d at month t in context c?"* via [`World::medication_weights`] —
//! the time-varying weight that encodes every structural-change mechanism the
//! paper studies (releases, generic substitution, indication expansion,
//! price revisions, hospital-class misprescription).

use crate::catalog::{
    City, Disease, DiseaseKind, Hospital, HospitalClass, Indication, MarketEvent, Medicine,
    MedicineClass,
};
use crate::error::ClaimsError;
use crate::ids::{CityId, DiseaseId, HospitalId, MedicineId, Month, PatientId, YearMonth};
use crate::seasonality::{OutbreakEvent, SeasonalProfile};
use mic_stats::dist::{sample_categorical, sample_gamma, sample_poisson};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A patient in the insured population.
#[derive(Clone, Debug)]
pub struct Patient {
    pub id: PatientId,
    pub city: CityId,
    /// Hospitals the patient visits, with selection weights.
    pub hospitals: Vec<(HospitalId, f64)>,
    /// Chronic conditions diagnosed at (almost) every visit.
    pub chronic: Vec<DiseaseId>,
    /// Probability of producing a MIC record in a given month.
    pub visit_prob: f64,
}

/// Class-dependent misprescription channel: a real-world prescribing of a
/// medicine for a disease it is **not** indicated for (e.g. antibiotics for
/// viral colds at small clinics — the paper's Table II finding). The weight
/// is per [`HospitalClass`] in `[small, medium, large]` order.
#[derive(Clone, Debug)]
pub struct Misprescription {
    pub disease: DiseaseId,
    pub medicine: MedicineId,
    pub weight_by_class: [f64; 3],
}

/// Prescribing context: where the prescription happens.
#[derive(Clone, Copy, Debug)]
pub struct PrescribeContext {
    pub class: HospitalClass,
    pub city: CityId,
}

/// A persistent change in a disease's diagnosis prevalence starting at
/// `month`: the prevalence multiplier moves linearly from 1 to `factor`
/// over `ramp_months` and stays there. This models diagnostic-fashion
/// shifts (the paper's Fig. 7b: the same symptoms being coded as a
/// different disease over time) and slow epidemiological regime changes.
#[derive(Clone, Copy, Debug)]
pub struct PrevalenceShift {
    pub disease: DiseaseId,
    pub month: Month,
    /// Long-run multiplier (> 1 rising, < 1 falling).
    pub factor: f64,
    pub ramp_months: u32,
}

impl PrevalenceShift {
    /// Multiplier contributed at month `t`.
    pub fn multiplier_at(&self, disease: DiseaseId, t: Month) -> f64 {
        if self.disease != disease || t < self.month {
            return 1.0;
        }
        if self.ramp_months == 0 {
            return self.factor;
        }
        let progress = ((t.distance(self.month) as f64 + 1.0) / self.ramp_months as f64).min(1.0);
        1.0 + (self.factor - 1.0) * progress
    }
}

/// The complete synthetic claims world.
#[derive(Clone, Debug)]
pub struct World {
    pub start: YearMonth,
    pub horizon: u32,
    pub diseases: Vec<Disease>,
    pub medicines: Vec<Medicine>,
    pub indications: Vec<Indication>,
    pub misprescriptions: Vec<Misprescription>,
    pub events: Vec<MarketEvent>,
    pub outbreaks: Vec<OutbreakEvent>,
    pub prevalence_shifts: Vec<PrevalenceShift>,
    pub hospitals: Vec<Hospital>,
    pub cities: Vec<City>,
    pub patients: Vec<Patient>,
    /// Mean number of prescriptions issued per diagnosis event.
    pub meds_per_diagnosis: f64,
    /// Mean number of acute disease events per visit (scaled by seasonality).
    pub acute_rate: f64,
    // Lookup acceleration, rebuilt by `reindex`.
    indications_by_disease: Vec<Vec<usize>>,
    mispres_by_disease: Vec<Vec<usize>>,
}

impl World {
    /// Rebuild the per-disease lookup indexes. Must be called after manual
    /// mutation of `indications`/`misprescriptions` (the builder and
    /// generator do it automatically).
    pub fn reindex(&mut self) {
        self.indications_by_disease = vec![Vec::new(); self.diseases.len()];
        for (i, ind) in self.indications.iter().enumerate() {
            self.indications_by_disease[ind.disease.index()].push(i);
        }
        self.mispres_by_disease = vec![Vec::new(); self.diseases.len()];
        for (i, mp) in self.misprescriptions.iter().enumerate() {
            self.mispres_by_disease[mp.disease.index()].push(i);
        }
    }

    /// Calendar month-of-year (0-based) of dataset month `t`.
    pub fn month_of_year0(&self, t: Month) -> u32 {
        self.start.plus(t.0).month_of_year0()
    }

    /// Ground-truth relevance for the Table III ranking evaluation: medicine
    /// `m` is relevant to disease `d` iff an (ever-valid) indication exists.
    /// Misprescription channels are *not* relevant — they correspond to
    /// prescriptions a package insert would not endorse.
    pub fn relevant(&self, d: DiseaseId, m: MedicineId) -> bool {
        self.indications_by_disease
            .get(d.index())
            .is_some_and(|ids| {
                ids.iter()
                    .any(|&i| self.indications[i].medicine == m && self.indications[i].ever_valid())
            })
    }

    /// Seasonal + outbreak prevalence multiplier for disease `d` at month `t`.
    pub fn prevalence_multiplier(&self, d: DiseaseId, t: Month) -> f64 {
        let m0 = self.month_of_year0(t);
        let mut mult = self.diseases[d.index()].seasonality.multiplier(m0);
        for ob in &self.outbreaks {
            mult *= ob.multiplier_at(d, t);
        }
        for shift in &self.prevalence_shifts {
            mult *= shift.multiplier_at(d, t);
        }
        mult
    }

    /// Unnormalised diagnosis weight of disease `d` at month `t`.
    pub fn diagnosis_weight(&self, d: DiseaseId, t: Month) -> f64 {
        self.diseases[d.index()].base_prevalence * self.prevalence_multiplier(d, t)
    }

    /// Time-varying prescribing weights for disease `d` at month `t` in
    /// context `ctx`: `(medicine, weight)` pairs with weight > 0. This is
    /// the ground-truth `φ` (up to normalisation) that the latent model
    /// tries to recover.
    pub fn medication_weights(
        &self,
        d: DiseaseId,
        t: Month,
        ctx: PrescribeContext,
    ) -> Vec<(MedicineId, f64)> {
        let mut out: Vec<(MedicineId, f64)> = Vec::new();
        for &i in &self.indications_by_disease[d.index()] {
            let ind = &self.indications[i];
            let med = &self.medicines[ind.medicine.index()];
            if !med.available_at(t) {
                continue;
            }
            let mut w = ind.strength_at(t);
            if w <= 0.0 {
                continue;
            }
            w *= med.adoption_at(t);
            w *= self.price_factor(ind.medicine, t);
            w *= self.displacement_factor(ind.medicine, d, t);
            w *= self.generic_factor(ind.medicine, t, ctx.city);
            if w > 0.0 {
                out.push((ind.medicine, w));
            }
        }
        for &i in &self.mispres_by_disease[d.index()] {
            let mp = &self.misprescriptions[i];
            let med = &self.medicines[mp.medicine.index()];
            if !med.available_at(t) {
                continue;
            }
            let class_idx = match ctx.class {
                HospitalClass::Small => 0,
                HospitalClass::Medium => 1,
                HospitalClass::Large => 2,
            };
            let w = mp.weight_by_class[class_idx] * med.adoption_at(t);
            if w > 0.0 {
                out.push((mp.medicine, w));
            }
        }
        out
    }

    /// Cumulative price-revision factor on `m` up to month `t`.
    fn price_factor(&self, m: MedicineId, t: Month) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let MarketEvent::PriceRevision {
                medicine,
                month,
                factor,
            } = e
            {
                if *medicine == m && t >= *month {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Share lost by an incumbent when a new medicine for the same disease
    /// launches (ramping over 6 months from the launch).
    fn displacement_factor(&self, m: MedicineId, _d: DiseaseId, t: Month) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let MarketEvent::NewMedicine {
                medicine,
                displaces,
                share_shift,
            } = e
            {
                if displaces.contains(&m) {
                    if let Some(rel) = self.medicines[medicine.index()].release_month {
                        if t >= rel {
                            let ramp = ((t.distance(rel) as f64 + 1.0) / 6.0).min(1.0);
                            f *= 1.0 - share_shift * ramp;
                        }
                    }
                }
            }
        }
        f.max(0.0)
    }

    /// Generic-substitution factor. For an original whose generics have
    /// entered: share retained shrinks toward `1 − acceptance` over a
    /// 12-month city-lagged ramp. For a generic: share gained, split among
    /// the generics with the authorized generic taking a double share.
    fn generic_factor(&self, m: MedicineId, t: Month, city: CityId) -> f64 {
        for e in &self.events {
            if let MarketEvent::GenericEntry {
                original,
                generics,
                month,
            } = e
            {
                let city_info = &self.cities[city.index()];
                let local_start = month.plus(city_info.generic_adoption_lag);
                let switch = if t < local_start {
                    0.0
                } else {
                    let ramp = ((t.distance(local_start) as f64 + 1.0) / 12.0).min(1.0);
                    city_info.generic_acceptance * ramp
                };
                if *original == m {
                    return 1.0 - switch;
                }
                if let Some(pos) = generics.iter().position(|&g| g == m) {
                    // Authorized generic counts double in the share split.
                    let shares: Vec<f64> = generics
                        .iter()
                        .map(|&g| {
                            if self.medicines[g.index()].authorized_generic {
                                2.0
                            } else {
                                1.0
                            }
                        })
                        .collect();
                    let total: f64 = shares.iter().sum();
                    return switch * shares[pos] / total;
                }
            }
        }
        1.0
    }
}

/// Incremental constructor for hand-built scenario worlds (the figure
/// experiments build small named worlds this way).
pub struct WorldBuilder {
    world: World,
}

impl WorldBuilder {
    pub fn new(start: YearMonth, horizon: u32) -> WorldBuilder {
        WorldBuilder {
            world: World {
                start,
                horizon,
                diseases: Vec::new(),
                medicines: Vec::new(),
                indications: Vec::new(),
                misprescriptions: Vec::new(),
                events: Vec::new(),
                outbreaks: Vec::new(),
                prevalence_shifts: Vec::new(),
                hospitals: Vec::new(),
                cities: Vec::new(),
                patients: Vec::new(),
                meds_per_diagnosis: 0.9,
                acute_rate: 2.0,
                indications_by_disease: Vec::new(),
                mispres_by_disease: Vec::new(),
            },
        }
    }

    /// Add a disease; returns its id.
    pub fn disease(
        &mut self,
        name: &str,
        kind: DiseaseKind,
        base_prevalence: f64,
        seasonality: SeasonalProfile,
    ) -> DiseaseId {
        let id = DiseaseId::from(self.world.diseases.len());
        self.world.diseases.push(Disease {
            id,
            name: name.to_string(),
            kind,
            base_prevalence,
            seasonality,
        });
        id
    }

    /// Add a medicine; returns its id.
    pub fn medicine(&mut self, name: &str, class: MedicineClass) -> MedicineId {
        let id = MedicineId::from(self.world.medicines.len());
        self.world.medicines.push(Medicine {
            id,
            name: name.to_string(),
            class,
            release_month: None,
            adoption_ramp_months: 0,
            generic_of: None,
            authorized_generic: false,
            price: 100.0,
        });
        id
    }

    /// Add a medicine released mid-window, with the default 8-month market
    /// adoption ramp (set `adoption_ramp_months` on the returned medicine to
    /// change it).
    pub fn new_medicine(&mut self, name: &str, class: MedicineClass, release: Month) -> MedicineId {
        let id = self.medicine(name, class);
        let med = &mut self.world.medicines[id.index()];
        med.release_month = Some(release);
        med.adoption_ramp_months = 8;
        id
    }

    /// Add a generic copy of `original`.
    pub fn generic(&mut self, name: &str, original: MedicineId, authorized: bool) -> MedicineId {
        let class = self.world.medicines[original.index()].class;
        let id = self.medicine(name, class);
        let original_price = self.world.medicines[original.index()].price;
        let med = &mut self.world.medicines[id.index()];
        med.generic_of = Some(original);
        med.authorized_generic = authorized;
        med.price = original_price * 0.4;
        id
    }

    /// Add an always-on indication.
    pub fn indication(&mut self, d: DiseaseId, m: MedicineId, strength: f64) -> &mut Self {
        self.world.indications.push(Indication {
            disease: d,
            medicine: m,
            strength,
            since: None,
            ramp_months: 0,
        });
        self
    }

    /// Add an indication-expansion link valid from `since`, ramping over
    /// `ramp_months`.
    pub fn expanded_indication(
        &mut self,
        d: DiseaseId,
        m: MedicineId,
        strength: f64,
        since: Month,
        ramp_months: u32,
    ) -> &mut Self {
        self.world.indications.push(Indication {
            disease: d,
            medicine: m,
            strength,
            since: Some(since),
            ramp_months,
        });
        self
    }

    /// Add a class-biased misprescription channel.
    pub fn misprescription(
        &mut self,
        d: DiseaseId,
        m: MedicineId,
        weight_by_class: [f64; 3],
    ) -> &mut Self {
        self.world.misprescriptions.push(Misprescription {
            disease: d,
            medicine: m,
            weight_by_class,
        });
        self
    }

    pub fn event(&mut self, e: MarketEvent) -> &mut Self {
        self.world.events.push(e);
        self
    }

    /// Add a persistent prevalence shift (diagnostic-fashion change).
    pub fn prevalence_shift(
        &mut self,
        disease: DiseaseId,
        month: Month,
        factor: f64,
        ramp_months: u32,
    ) -> &mut Self {
        self.world.prevalence_shifts.push(PrevalenceShift {
            disease,
            month,
            factor,
            ramp_months,
        });
        self
    }

    pub fn outbreak(&mut self, disease: DiseaseId, month: Month, magnitude: f64) -> &mut Self {
        self.world.outbreaks.push(OutbreakEvent {
            disease,
            month,
            magnitude,
        });
        self
    }

    pub fn city(&mut self, name: &str, lag: u32, acceptance: f64) -> CityId {
        let id = CityId::from(self.world.cities.len());
        self.world.cities.push(City {
            id,
            name: name.to_string(),
            generic_adoption_lag: lag,
            generic_acceptance: acceptance,
        });
        id
    }

    pub fn hospital(&mut self, name: &str, city: CityId, beds: u32) -> HospitalId {
        let id = HospitalId::from(self.world.hospitals.len());
        self.world.hospitals.push(Hospital {
            id,
            name: name.to_string(),
            city,
            beds,
        });
        id
    }

    pub fn patient(
        &mut self,
        city: CityId,
        hospitals: Vec<(HospitalId, f64)>,
        chronic: Vec<DiseaseId>,
        visit_prob: f64,
    ) -> PatientId {
        let id = PatientId::from(self.world.patients.len());
        self.world.patients.push(Patient {
            id,
            city,
            hospitals,
            chronic,
            visit_prob,
        });
        id
    }

    /// Mutable access to the medicines added so far — for adjusting release
    /// months or prices on already-created entries (e.g. giving a generic a
    /// release date).
    pub fn medicines_mut(&mut self) -> &mut [Medicine] {
        &mut self.world.medicines
    }

    /// Mutable access to the diseases added so far.
    pub fn diseases_mut(&mut self) -> &mut [Disease] {
        &mut self.world.diseases
    }

    /// Tune the simulator intensity knobs.
    pub fn rates(&mut self, meds_per_diagnosis: f64, acute_rate: f64) -> &mut Self {
        self.world.meds_per_diagnosis = meds_per_diagnosis;
        self.world.acute_rate = acute_rate;
        self
    }

    /// Finish: validates invariants and builds lookup indexes.
    pub fn build(mut self) -> World {
        assert!(
            !self.world.diseases.is_empty(),
            "world needs at least one disease"
        );
        assert!(
            !self.world.cities.is_empty(),
            "world needs at least one city"
        );
        assert!(
            !self.world.hospitals.is_empty(),
            "world needs at least one hospital"
        );
        for ind in &self.world.indications {
            assert!(
                ind.disease.index() < self.world.diseases.len(),
                "indication references unknown disease"
            );
            assert!(
                ind.medicine.index() < self.world.medicines.len(),
                "indication references unknown medicine"
            );
        }
        self.world.reindex();
        self.world
    }
}

/// Specification for randomly generating a claims world of a given scale.
/// Defaults give a laptop-scale analogue of the paper's dataset (43 months,
/// a few thousand patients). The paper-scale numbers (203k patients, 9k
/// diseases) are reachable by raising the fields.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    pub seed: u64,
    pub start: YearMonth,
    /// Number of months `T` (paper: 43).
    pub months: u32,
    pub n_diseases: usize,
    pub n_medicines: usize,
    pub n_patients: usize,
    pub n_hospitals: usize,
    pub n_cities: usize,
    /// Market events to plant.
    pub n_new_medicines: usize,
    pub n_generic_entries: usize,
    pub n_indication_expansions: usize,
    pub n_price_revisions: usize,
    pub n_outbreaks: usize,
    /// Persistent diagnosis-prevalence shifts (epidemiological regime
    /// changes / diagnostic-fashion drift) to plant.
    pub n_prevalence_shifts: usize,
    /// Mean chronic conditions per patient (elderly population: high).
    pub mean_chronic: f64,
    /// Mean indications per disease.
    pub mean_indications: f64,
    /// Probability a patient files a claim in a month (elderly: high).
    pub visit_prob: f64,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            seed: 7,
            start: YearMonth::paper_start(),
            months: 43,
            n_diseases: 120,
            n_medicines: 180,
            n_patients: 2_500,
            n_hospitals: 40,
            n_cities: 8,
            n_new_medicines: 4,
            n_generic_entries: 2,
            n_indication_expansions: 3,
            n_price_revisions: 3,
            n_outbreaks: 2,
            n_prevalence_shifts: 2,
            mean_chronic: 2.2,
            mean_indications: 3.0,
            visit_prob: 0.75,
        }
    }
}

impl WorldSpec {
    /// A tiny spec for fast unit tests.
    pub fn tiny() -> WorldSpec {
        WorldSpec {
            n_diseases: 12,
            n_medicines: 18,
            n_patients: 120,
            n_hospitals: 6,
            n_cities: 3,
            months: 18,
            n_new_medicines: 1,
            n_generic_entries: 1,
            n_indication_expansions: 1,
            n_price_revisions: 1,
            n_outbreaks: 1,
            ..WorldSpec::default()
        }
    }

    /// Check that the spec is large enough to generate: at least 4
    /// diseases, 6 medicines and 13 months (more than a year, for
    /// seasonality).
    pub fn validate(&self) -> Result<(), ClaimsError> {
        for (what, value, min) in [
            ("diseases", self.n_diseases, 4),
            ("medicines", self.n_medicines, 6),
            ("months", self.months as usize, 13),
        ] {
            if value < min {
                return Err(ClaimsError::SpecTooSmall { what, value, min });
            }
        }
        Ok(())
    }

    /// Generate the world.
    ///
    /// # Panics
    /// Panics if [`WorldSpec::validate`] rejects the spec.
    pub fn generate(&self) -> World {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut b = WorldBuilder::new(self.start, self.months);

        // --- Cities & hospitals ---------------------------------------------------
        let mut cities = Vec::with_capacity(self.n_cities);
        for c in 0..self.n_cities {
            let lag = rng.gen_range(0..10u32);
            let acceptance = rng.gen_range(0.15..0.9);
            cities.push(b.city(&format!("city-{c}"), lag, acceptance));
        }
        let mut hospitals = Vec::with_capacity(self.n_hospitals);
        for h in 0..self.n_hospitals {
            let beds = match rng.gen_range(0..100u32) {
                0..=59 => rng.gen_range(0..20),
                60..=94 => rng.gen_range(20..400),
                _ => rng.gen_range(400..1200),
            };
            let city = cities[rng.gen_range(0..cities.len())];
            hospitals.push(b.hospital(&format!("hospital-{h}"), city, beds));
        }

        // --- Diseases -------------------------------------------------------------
        let mut disease_ids = Vec::with_capacity(self.n_diseases);
        for d in 0..self.n_diseases {
            let kind = match d % 20 {
                0..=4 => DiseaseKind::Chronic,
                5..=7 => DiseaseKind::Viral,
                8..=10 => DiseaseKind::Bacterial,
                11..=13 => DiseaseKind::Environmental,
                _ => DiseaseKind::Other,
            };
            // Zipf-ish prevalence with noise.
            let base = (d as f64 + 1.5).powf(-0.7) * rng.gen_range(0.5..1.5);
            let seasonality = match kind {
                DiseaseKind::Chronic => SeasonalProfile::Flat,
                DiseaseKind::Viral => SeasonalProfile::Annual {
                    peak_month0: [11u32, 0, 1][rng.gen_range(0..3)],
                    amplitude: rng.gen_range(2.0..8.0),
                    sharpness: rng.gen_range(2.0..5.0),
                },
                DiseaseKind::Environmental => SeasonalProfile::Annual {
                    peak_month0: rng.gen_range(2..8),
                    amplitude: rng.gen_range(1.5..6.0),
                    sharpness: rng.gen_range(2.0..5.0),
                },
                _ => {
                    if rng.gen_bool(0.2) {
                        SeasonalProfile::BiAnnual {
                            peaks0: [rng.gen_range(2..5), rng.gen_range(8..11)],
                            amplitude: rng.gen_range(1.0..3.0),
                            sharpness: rng.gen_range(2.0..4.0),
                        }
                    } else {
                        SeasonalProfile::Flat
                    }
                }
            };
            let name = format!("disease-{d}-{kind:?}").to_lowercase();
            disease_ids.push(b.disease(&name, kind, base, seasonality));
        }

        // --- Medicines ------------------------------------------------------------
        let classes = [
            MedicineClass::Antibiotic,
            MedicineClass::Antiviral,
            MedicineClass::Antihypertensive,
            MedicineClass::Analgesic,
            MedicineClass::Bronchodilator,
            MedicineClass::Antiplatelet,
            MedicineClass::Osteoporosis,
            MedicineClass::Antidementia,
            MedicineClass::Gastrointestinal,
            MedicineClass::Other,
        ];
        let mut medicine_ids = Vec::with_capacity(self.n_medicines);
        for m in 0..self.n_medicines {
            let class = classes[m % classes.len()];
            medicine_ids.push(b.medicine(&format!("medicine-{m}-{class:?}").to_lowercase(), class));
        }

        // --- Indications ----------------------------------------------------------
        // Each disease gets 1..=2*mean indications drawn Zipf-ishly from
        // kind-compatible medicines; every medicine is forced to appear at
        // least once afterwards.
        let mut medicine_used = vec![false; self.n_medicines];
        for &d in &disease_ids {
            let kind = b.world.diseases[d.index()].kind;
            let k = 1 + sample_poisson(&mut rng, self.mean_indications - 1.0) as usize;
            let mut chosen = std::collections::HashSet::new();
            for _ in 0..k {
                // Rejection-sample a compatible medicine.
                for _try in 0..40 {
                    let weights: f64 = rng.gen_range(0.0..1.0);
                    let idx =
                        ((weights.powf(2.0)) * self.n_medicines as f64) as usize % self.n_medicines;
                    let m = medicine_ids[idx];
                    if !class_compatible(b.world.medicines[m.index()].class, kind) {
                        continue;
                    }
                    if chosen.insert(m) {
                        let strength = sample_gamma(&mut rng, 2.0, 1.0) + 0.2;
                        b.indication(d, m, strength);
                        medicine_used[m.index()] = true;
                        break;
                    }
                }
            }
        }
        for (mi, used) in medicine_used.iter().enumerate() {
            if !used {
                // Attach to a random compatible disease.
                let m = medicine_ids[mi];
                let class = b.world.medicines[m.index()].class;
                for _try in 0..200 {
                    let d = disease_ids[rng.gen_range(0..disease_ids.len())];
                    if class_compatible(class, b.world.diseases[d.index()].kind) {
                        let strength = sample_gamma(&mut rng, 2.0, 1.0) + 0.2;
                        b.indication(d, m, strength);
                        break;
                    }
                }
            }
        }

        // --- Misprescription channels: antibiotics for viral diseases --------------
        let antibiotics: Vec<MedicineId> = medicine_ids
            .iter()
            .copied()
            .filter(|m| b.world.medicines[m.index()].class == MedicineClass::Antibiotic)
            .collect();
        let virals: Vec<DiseaseId> = disease_ids
            .iter()
            .copied()
            .filter(|d| b.world.diseases[d.index()].kind == DiseaseKind::Viral)
            .collect();
        for &d in &virals {
            for &m in antibiotics.iter().take(2) {
                // Small clinics misprescribe heavily, large hospitals barely.
                b.misprescription(d, m, [0.8, 0.2, 0.03]);
            }
        }

        // --- Market events ----------------------------------------------------------
        let event_window = (self.months / 4, 3 * self.months / 4);
        for i in 0..self.n_new_medicines {
            let release = Month(rng.gen_range(event_window.0..event_window.1));
            let class = classes[rng.gen_range(0..classes.len())];
            let m = b.new_medicine(
                &format!("launch-{i}-{class:?}").to_lowercase(),
                class,
                release,
            );
            // Indicate it for 1–3 diseases; displace incumbents there.
            let mut displaces = Vec::new();
            let n_targets = rng.gen_range(1..=3usize);
            for _ in 0..n_targets {
                for _try in 0..60 {
                    let d = disease_ids[rng.gen_range(0..disease_ids.len())];
                    if !class_compatible(class, b.world.diseases[d.index()].kind) {
                        continue;
                    }
                    let strength = sample_gamma(&mut rng, 3.0, 1.0) + 1.0;
                    b.indication(d, m, strength);
                    for ind in &b.world.indications {
                        if ind.disease == d
                            && ind.medicine != m
                            && !displaces.contains(&ind.medicine)
                        {
                            displaces.push(ind.medicine);
                        }
                    }
                    break;
                }
            }
            let share_shift = rng.gen_range(0.2..0.5);
            b.event(MarketEvent::NewMedicine {
                medicine: m,
                displaces,
                share_shift,
            });
        }

        for i in 0..self.n_generic_entries {
            // Pick an original with at least one indication.
            let original = loop {
                let m = medicine_ids[rng.gen_range(0..medicine_ids.len())];
                if b.world.indications.iter().any(|ind| ind.medicine == m) {
                    break m;
                }
            };
            let entry = Month(rng.gen_range(event_window.0..event_window.1));
            let n_generics = rng.gen_range(2..=3usize);
            let mut generics = Vec::new();
            for g in 0..n_generics {
                let gm = b.generic(&format!("generic-{i}-{g}"), original, g == n_generics - 1);
                b.world.medicines[gm.index()].release_month = Some(entry);
                generics.push(gm);
                // Mirror the original's indications.
                let mirrored: Vec<Indication> = b
                    .world
                    .indications
                    .iter()
                    .filter(|ind| ind.medicine == original)
                    .map(|ind| Indication {
                        disease: ind.disease,
                        medicine: gm,
                        strength: ind.strength,
                        since: ind.since,
                        ramp_months: ind.ramp_months,
                    })
                    .collect();
                b.world.indications.extend(mirrored);
            }
            b.event(MarketEvent::GenericEntry {
                original,
                generics,
                month: entry,
            });
        }

        for _ in 0..self.n_indication_expansions {
            // Pick an existing medicine and a disease it does not treat yet.
            for _try in 0..200 {
                let m = medicine_ids[rng.gen_range(0..medicine_ids.len())];
                let d = disease_ids[rng.gen_range(0..disease_ids.len())];
                let exists = b
                    .world
                    .indications
                    .iter()
                    .any(|ind| ind.disease == d && ind.medicine == m);
                if exists
                    || !class_compatible(
                        b.world.medicines[m.index()].class,
                        b.world.diseases[d.index()].kind,
                    )
                {
                    continue;
                }
                let since = Month(rng.gen_range(event_window.0..event_window.1));
                let strength = sample_gamma(&mut rng, 3.0, 1.0) + 1.0;
                b.expanded_indication(d, m, strength, since, rng.gen_range(4..10));
                break;
            }
        }

        for _ in 0..self.n_price_revisions {
            let m = medicine_ids[rng.gen_range(0..medicine_ids.len())];
            let month = Month(rng.gen_range(event_window.0..event_window.1));
            let factor = rng.gen_range(1.1..1.6);
            b.event(MarketEvent::PriceRevision {
                medicine: m,
                month,
                factor,
            });
        }

        for _ in 0..self.n_prevalence_shifts {
            let d = disease_ids[rng.gen_range(0..disease_ids.len())];
            let month = Month(rng.gen_range(event_window.0..event_window.1));
            // Either a rise or a decline in how often the disease is coded.
            let factor = if rng.gen_bool(0.5) {
                rng.gen_range(1.8..3.2)
            } else {
                rng.gen_range(0.3..0.6)
            };
            b.prevalence_shift(d, month, factor, rng.gen_range(4..10));
        }

        for _ in 0..self.n_outbreaks {
            let seasonal: Vec<DiseaseId> = disease_ids
                .iter()
                .copied()
                .filter(|d| b.world.diseases[d.index()].seasonality.is_seasonal())
                .collect();
            if seasonal.is_empty() {
                break;
            }
            let d = seasonal[rng.gen_range(0..seasonal.len())];
            let month = Month(rng.gen_range(self.months / 2..self.months));
            b.outbreak(d, month, rng.gen_range(2.0..4.0));
        }

        // --- Patients ---------------------------------------------------------------
        let chronic_pool: Vec<DiseaseId> = disease_ids
            .iter()
            .copied()
            .filter(|d| b.world.diseases[d.index()].kind == DiseaseKind::Chronic)
            .collect();
        let chronic_weights: Vec<f64> = chronic_pool
            .iter()
            .map(|d| b.world.diseases[d.index()].base_prevalence)
            .collect();
        for _ in 0..self.n_patients {
            let city = cities[rng.gen_range(0..cities.len())];
            // Prefer hospitals in the home city.
            let local: Vec<HospitalId> = hospitals
                .iter()
                .copied()
                .filter(|h| b.world.hospitals[h.index()].city == city)
                .collect();
            let mut prefs = Vec::new();
            let n_pref = rng.gen_range(1..=2usize);
            for _ in 0..n_pref {
                let h = if !local.is_empty() && rng.gen_bool(0.9) {
                    local[rng.gen_range(0..local.len())]
                } else {
                    hospitals[rng.gen_range(0..hospitals.len())]
                };
                prefs.push((h, rng.gen_range(0.5..2.0)));
            }
            let n_chronic = sample_poisson(&mut rng, self.mean_chronic) as usize;
            let mut chronic = Vec::new();
            for _ in 0..n_chronic.min(chronic_pool.len()) {
                if chronic_pool.is_empty() {
                    break;
                }
                let idx = sample_categorical(&mut rng, &chronic_weights);
                if !chronic.contains(&chronic_pool[idx]) {
                    chronic.push(chronic_pool[idx]);
                }
            }
            let visit_prob = (self.visit_prob + rng.gen_range(-0.15..0.15)).clamp(0.05, 0.98);
            b.patient(city, prefs, chronic, visit_prob);
        }

        b.build()
    }
}

/// Whether a medicine class can plausibly be indicated for a disease kind.
/// The single hard rule the Table II analysis needs: antibiotics are never
/// *indicated* for viral diseases (they reach them only through the
/// misprescription channel).
fn class_compatible(class: MedicineClass, kind: DiseaseKind) -> bool {
    match (class, kind) {
        (MedicineClass::Antibiotic, DiseaseKind::Viral) => false,
        (MedicineClass::Antiviral, DiseaseKind::Viral) => true,
        (MedicineClass::Antiviral, _) => false,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        WorldSpec::tiny().generate()
    }

    #[test]
    fn generated_world_is_consistent() {
        let w = tiny_world();
        assert_eq!(w.diseases.len(), 12);
        assert!(w.medicines.len() >= 18, "generics add medicines");
        assert_eq!(w.cities.len(), 3);
        assert_eq!(w.hospitals.len(), 6);
        assert_eq!(w.patients.len(), 120);
        for ind in &w.indications {
            assert!(ind.disease.index() < w.diseases.len());
            assert!(ind.medicine.index() < w.medicines.len());
            assert!(ind.strength > 0.0);
        }
    }

    #[test]
    fn validate_rejects_worlds_too_small_to_generate() {
        assert_eq!(WorldSpec::tiny().validate(), Ok(()));
        let too_small = |what, value, min| Err(ClaimsError::SpecTooSmall { what, value, min });
        let mut spec = WorldSpec::tiny();
        spec.months = 12;
        assert_eq!(spec.validate(), too_small("months", 12, 13));
        spec.n_medicines = 5;
        assert_eq!(spec.validate(), too_small("medicines", 5, 6));
        spec.n_diseases = 3;
        assert_eq!(spec.validate(), too_small("diseases", 3, 4));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorldSpec::tiny().generate();
        let b = WorldSpec::tiny().generate();
        assert_eq!(a.diseases.len(), b.diseases.len());
        assert_eq!(a.medicines.len(), b.medicines.len());
        assert_eq!(a.indications.len(), b.indications.len());
        for (x, y) in a.indications.iter().zip(&b.indications) {
            assert_eq!(x.disease, y.disease);
            assert_eq!(x.medicine, y.medicine);
            assert_eq!(x.strength, y.strength);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldSpec::tiny().generate();
        let b = WorldSpec {
            seed: 99,
            ..WorldSpec::tiny()
        }
        .generate();
        let same = a.indications.len() == b.indications.len()
            && a.indications.iter().zip(&b.indications).all(|(x, y)| {
                x.disease == y.disease && x.medicine == y.medicine && x.strength == y.strength
            });
        assert!(!same, "different seeds should give different worlds");
    }

    #[test]
    fn every_medicine_has_an_indication() {
        let w = tiny_world();
        for m in &w.medicines {
            let has = w.indications.iter().any(|ind| ind.medicine == m.id);
            assert!(has, "medicine {} has no indication", m.name);
        }
    }

    #[test]
    fn antibiotics_not_indicated_for_viral() {
        let w = tiny_world();
        for ind in &w.indications {
            let med_class = w.medicines[ind.medicine.index()].class;
            let kind = w.diseases[ind.disease.index()].kind;
            assert!(
                !(med_class == MedicineClass::Antibiotic && kind == DiseaseKind::Viral),
                "antibiotic indicated for viral disease"
            );
        }
    }

    #[test]
    fn relevance_matches_indications() {
        let w = tiny_world();
        let ind = &w.indications[0];
        assert!(w.relevant(ind.disease, ind.medicine));
        // A pair with no indication at all should be irrelevant.
        let mut found_irrelevant = false;
        'outer: for d in 0..w.diseases.len() {
            for m in 0..w.medicines.len() {
                let (d, m) = (DiseaseId(d as u32), MedicineId(m as u32));
                if !w
                    .indications
                    .iter()
                    .any(|i| i.disease == d && i.medicine == m)
                {
                    assert!(!w.relevant(d, m));
                    found_irrelevant = true;
                    break 'outer;
                }
            }
        }
        assert!(found_irrelevant);
    }

    #[test]
    fn medication_weights_respect_release_dates() {
        let w = tiny_world();
        // Find a released medicine and an indicated disease.
        let released: Vec<&Medicine> = w
            .medicines
            .iter()
            .filter(|m| m.release_month.is_some())
            .collect();
        assert!(!released.is_empty());
        let ctx = PrescribeContext {
            class: HospitalClass::Medium,
            city: CityId(0),
        };
        for med in released {
            let rel = med.release_month.unwrap();
            // Generics additionally wait for city adoption lag; their
            // availability-vs-weight interplay is covered by
            // `generic_shares_shift_over_time`.
            if rel.0 == 0 || med.is_generic() {
                continue;
            }
            for ind in w.indications.iter().filter(|i| i.medicine == med.id) {
                let before = w.medication_weights(ind.disease, Month(rel.0 - 1), ctx);
                assert!(
                    !before.iter().any(|&(m, _)| m == med.id),
                    "unreleased medicine prescribed"
                );
                let after = w.medication_weights(ind.disease, Month(rel.0), ctx);
                if ind.strength_at(Month(rel.0)) > 0.0 {
                    assert!(after.iter().any(|&(m, _)| m == med.id));
                }
            }
        }
    }

    #[test]
    fn misprescription_weight_ordering_by_class() {
        let w = tiny_world();
        if w.misprescriptions.is_empty() {
            return;
        }
        let mp = &w.misprescriptions[0];
        let city = CityId(0);
        let t = Month(0);
        let weight_for = |class| {
            w.medication_weights(mp.disease, t, PrescribeContext { class, city })
                .iter()
                .find(|&&(m, _)| m == mp.medicine)
                .map_or(0.0, |&(_, w)| w)
        };
        let small = weight_for(HospitalClass::Small);
        let medium = weight_for(HospitalClass::Medium);
        let large = weight_for(HospitalClass::Large);
        assert!(
            small > medium && medium > large,
            "{small} > {medium} > {large} violated"
        );
    }

    #[test]
    fn generic_shares_shift_over_time() {
        let w = tiny_world();
        let entry = w.events.iter().find_map(|e| match e {
            MarketEvent::GenericEntry {
                original,
                generics,
                month,
            } => Some((*original, generics.clone(), *month)),
            _ => None,
        });
        let Some((original, generics, month)) = entry else {
            return;
        };
        // Pick a disease the original treats.
        let d = w
            .indications
            .iter()
            .find(|i| i.medicine == original)
            .map(|i| i.disease)
            .unwrap();
        let city = CityId(0);
        let lag = w.cities[city.index()].generic_adoption_lag;
        let ctx = PrescribeContext {
            class: HospitalClass::Medium,
            city,
        };
        let weight_of = |m: MedicineId, t: Month| {
            w.medication_weights(d, t, ctx)
                .iter()
                .find(|&&(mm, _)| mm == m)
                .map_or(0.0, |&(_, w)| w)
        };
        let before = weight_of(original, Month(month.0.saturating_sub(1)));
        let late_t = Month((month.0 + lag + 12).min(w.horizon - 1));
        let late = weight_of(original, late_t);
        assert!(
            late < before,
            "original should lose share: {late} !< {before}"
        );
        let generic_late: f64 = generics.iter().map(|&g| weight_of(g, late_t)).sum();
        assert!(generic_late > 0.0, "generics should gain share");
    }

    #[test]
    fn builder_world_manual() {
        let mut b = WorldBuilder::new(YearMonth::paper_start(), 24);
        let flu = b.disease(
            "influenza",
            DiseaseKind::Viral,
            1.0,
            SeasonalProfile::Annual {
                peak_month0: 0,
                amplitude: 5.0,
                sharpness: 3.0,
            },
        );
        let drug = b.medicine("antiviral-a", MedicineClass::Antiviral);
        b.indication(flu, drug, 2.0);
        let city = b.city("tsu", 0, 0.5);
        let hosp = b.hospital("clinic-1", city, 10);
        b.patient(city, vec![(hosp, 1.0)], vec![], 0.8);
        let w = b.build();
        assert!(w.relevant(flu, drug));
        assert_eq!(w.hospitals[0].class(), HospitalClass::Small);
        let weights = w.medication_weights(
            flu,
            Month(0),
            PrescribeContext {
                class: HospitalClass::Small,
                city,
            },
        );
        assert_eq!(weights.len(), 1);
        assert_eq!(weights[0].0, drug);
    }

    #[test]
    #[should_panic(expected = "at least one disease")]
    fn empty_world_panics() {
        WorldBuilder::new(YearMonth::paper_start(), 12).build();
    }

    #[test]
    fn prevalence_includes_outbreak() {
        let mut b = WorldBuilder::new(YearMonth::paper_start(), 24);
        let d = b.disease("flu", DiseaseKind::Viral, 1.0, SeasonalProfile::Flat);
        let c = b.city("c", 0, 0.5);
        b.hospital("h", c, 10);
        b.outbreak(d, Month(5), 3.0);
        let w = b.build();
        assert_eq!(w.prevalence_multiplier(d, Month(4)), 1.0);
        assert_eq!(w.prevalence_multiplier(d, Month(5)), 3.0);
    }
}
