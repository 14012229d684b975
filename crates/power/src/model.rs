//! The `PowerModel` trait and the paper's CPU power model.

use bsld_cluster::GearSet;
use bsld_model::GearId;

use crate::{DEFAULT_ACTIVITY_RATIO, DEFAULT_STATIC_FRACTION};

/// A pluggable processor power model.
///
/// A model prices a processor's draw two ways, and the two views must agree:
///
/// * **by gear** — [`p_active`](PowerModel::p_active) is the draw of a
///   processor running a job at a DVFS gear, [`p_idle`](PowerModel::p_idle)
///   the draw of an idle processor. These discrete points are what the
///   ledger, the cap policy and the energy account integrate.
/// * **by utilization** — [`power`](PowerModel::power) is the continuous
///   curve `u ∈ [0, 1] → watts`, where `u` is the fraction of the top
///   frequency the processor is driven at (`u = 0` is idle, `u = 1` is a job
///   at the top gear). A gear's operating point sits at `u = f/f_top`, so
///   `power(f_g/f_top) == p_active(g)` and `power(0) == p_idle()`.
///
/// Implementations also expose a static/idle decomposition via
/// [`p_static`](PowerModel::p_static): the load-independent part of the draw.
pub trait PowerModel: std::fmt::Debug + Send + Sync {
    /// The gear set this model prices.
    fn gears(&self) -> &GearSet;

    /// Total power of a processor running a job at `gear`.
    fn p_active(&self, gear: GearId) -> f64;

    /// Total power of an idle processor.
    fn p_idle(&self) -> f64;

    /// Power at a continuous utilization `u ∈ [0, 1]` (fraction of the top
    /// frequency). Clamped outside the unit interval.
    fn power(&self, utilization: f64) -> f64;

    /// Static (load-independent) power at `gear`. Defaults to the curve's
    /// value at zero utilization.
    fn p_static(&self, gear: GearId) -> f64 {
        let _ = gear;
        self.power(0.0)
    }

    /// Energy (per processor) to run one second of *top-frequency work* at
    /// `gear`, i.e. `P_active(gear) · coef` where the caller supplies the
    /// β-model dilation `coef`.
    fn energy_per_work_second(&self, gear: GearId, coef: f64) -> f64 {
        self.p_active(gear) * coef
    }

    /// Clones the model behind a trait object.
    fn clone_model(&self) -> Box<dyn PowerModel>;
}

impl Clone for Box<dyn PowerModel> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// Dynamic + static CPU power (Eqs. 3–4 of the paper).
///
/// Dynamic power is `A·C·f·V²` where `A` is the activity factor and `C` the
/// switched capacitance; the product `A·C` is normalised to 1 for an idle
/// processor, and a running processor's activity is `activity_ratio` (2.5)
/// times higher. Static power is `α·V` with α chosen such that static power
/// is `static_fraction` (25 %) of the total active power at the top gear.
///
/// Idle processors are assumed to sit at the lowest gear with idle activity
/// — the paper's "idle = low" scenario.
#[derive(Debug, Clone)]
pub struct PaperDvfs {
    gears: GearSet,
    /// `A_idle · C` in normalised power units.
    act_idle_c: f64,
    /// Running activity / idle activity (2.5 in the paper).
    activity_ratio: f64,
    /// Static power coefficient (derived).
    alpha: f64,
}

impl PaperDvfs {
    /// The paper's parameterisation for a given gear set: activity ratio
    /// 2.5, static share 25 % at the top gear, normalised `A_idle·C = 1`.
    pub fn paper(gears: GearSet) -> Self {
        Self::with_params(gears, DEFAULT_STATIC_FRACTION, DEFAULT_ACTIVITY_RATIO, 1.0)
    }

    /// Fully parameterised constructor.
    ///
    /// * `static_fraction` — static share of *total active* power at the top
    ///   gear, in `[0, 1)`;
    /// * `activity_ratio` — running vs. idle activity (≥ 1);
    /// * `act_idle_c` — the normalised `A_idle·C` product (> 0).
    pub fn with_params(
        gears: GearSet,
        static_fraction: f64,
        activity_ratio: f64,
        act_idle_c: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&static_fraction),
            "static fraction must be in [0,1)"
        );
        assert!(
            activity_ratio >= 1.0,
            "running activity must be >= idle activity"
        );
        assert!(act_idle_c > 0.0, "A_idle·C must be positive");
        let top = gears.get(gears.top());
        // P_static(top) = sf · (P_dyn_run(top) + P_static(top))
        //   ⇒ α·V_top·(1−sf) = sf · A_run·C·f_top·V_top²
        //   ⇒ α = sf/(1−sf) · A_run·C · f_top · V_top
        let act_run_c = act_idle_c * activity_ratio;
        let alpha =
            static_fraction / (1.0 - static_fraction) * act_run_c * top.freq_ghz * top.voltage;
        PaperDvfs {
            gears,
            act_idle_c,
            activity_ratio,
            alpha,
        }
    }

    /// The gear set this model prices.
    pub fn gears(&self) -> &GearSet {
        &self.gears
    }

    /// Dynamic power of a processor *running a job* at `gear`.
    #[inline]
    pub fn p_dynamic_running(&self, gear: GearId) -> f64 {
        let g = self.gears.get(gear);
        self.act_idle_c * self.activity_ratio * g.freq_ghz * g.voltage * g.voltage
    }

    /// Dynamic power of an *idle* processor parked at `gear`.
    #[inline]
    pub fn p_dynamic_idle(&self, gear: GearId) -> f64 {
        let g = self.gears.get(gear);
        self.act_idle_c * g.freq_ghz * g.voltage * g.voltage
    }

    /// Static (leakage) power at `gear` (Eq. 4: `α·V`).
    #[inline]
    pub fn p_static(&self, gear: GearId) -> f64 {
        self.alpha * self.gears.get(gear).voltage
    }

    /// Total power of a processor running a job at `gear`.
    #[inline]
    pub fn p_active(&self, gear: GearId) -> f64 {
        self.p_dynamic_running(gear) + self.p_static(gear)
    }

    /// Total power of an idle processor (lowest gear, idle activity).
    #[inline]
    pub fn p_idle(&self) -> f64 {
        let low = self.gears.lowest();
        self.p_dynamic_idle(low) + self.p_static(low)
    }

    /// Energy (per processor) to run one second of *top-frequency work* at
    /// `gear`, i.e. `P_active(gear) · Coef` where the caller supplies the
    /// β-model dilation `coef`. Useful for reasoning about whether a gear
    /// saves energy per unit of work.
    #[inline]
    pub fn energy_per_work_second(&self, gear: GearId, coef: f64) -> f64 {
        self.p_active(gear) * coef
    }
}

impl PowerModel for PaperDvfs {
    fn gears(&self) -> &GearSet {
        &self.gears
    }

    fn p_active(&self, gear: GearId) -> f64 {
        PaperDvfs::p_active(self, gear)
    }

    fn p_idle(&self) -> f64 {
        PaperDvfs::p_idle(self)
    }

    fn p_static(&self, gear: GearId) -> f64 {
        PaperDvfs::p_static(self, gear)
    }

    fn power(&self, utilization: f64) -> f64 {
        // Piecewise-linear through the gear operating points, anchored at
        // (0, p_idle): below the lowest gear's frequency ratio the curve
        // descends towards the idle draw.
        let top = self.gears.get(self.gears.top()).freq_ghz;
        let mut pts = Vec::with_capacity(self.gears.len() + 1);
        pts.push((0.0, PaperDvfs::p_idle(self)));
        for (id, g) in self.gears.ascending() {
            pts.push((g.freq_ghz / top, PaperDvfs::p_active(self, id)));
        }
        crate::models::interp_clamped(&pts, utilization)
    }

    fn clone_model(&self) -> Box<dyn PowerModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> PaperDvfs {
        PaperDvfs::paper(GearSet::paper())
    }

    #[test]
    fn static_share_at_top_is_25_percent() {
        let m = paper_model();
        let top = m.gears().top();
        let share = m.p_static(top) / m.p_active(top);
        assert!((share - 0.25).abs() < 1e-12, "share = {share}");
    }

    #[test]
    fn idle_is_21_percent_of_top_active() {
        // The paper: "an idle processor consumes 21% of the power consumed
        // by a processor executing a job at the highest frequency".
        let m = paper_model();
        let frac = m.p_idle() / m.p_active(m.gears().top());
        assert!((frac - 0.213).abs() < 0.005, "idle fraction = {frac}");
    }

    #[test]
    fn power_increases_with_gear() {
        let m = paper_model();
        let mut prev = 0.0;
        for (id, _) in m.gears().ascending().collect::<Vec<_>>() {
            let p = m.p_active(id);
            assert!(p > prev, "P_active must increase with frequency");
            prev = p;
        }
    }

    #[test]
    fn running_beats_idle_dynamic_by_activity_ratio() {
        let m = paper_model();
        let g = GearId(3);
        let ratio = m.p_dynamic_running(g) / m.p_dynamic_idle(g);
        assert!((ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn lowest_gear_saves_energy_per_work_second() {
        // With β = 0.5 the energy per top-frequency work second must be
        // lower at the lowest gear — that is the entire point of the policy.
        let m = paper_model();
        let gs = m.gears().clone();
        let coef_low = 0.5 * (gs.freq_ratio(gs.lowest()) - 1.0) + 1.0;
        let e_low = m.energy_per_work_second(gs.lowest(), coef_low);
        let e_top = m.energy_per_work_second(gs.top(), 1.0);
        assert!(
            e_low < e_top,
            "lowest gear must be more energy-efficient per unit work: {e_low} vs {e_top}"
        );
        // And the saving is bounded (≈ 45 % for the paper's parameters).
        let saving = 1.0 - e_low / e_top;
        assert!((saving - 0.45).abs() < 0.02, "saving = {saving}");
    }

    #[test]
    fn energy_per_work_monotone_across_gears_with_beta_half() {
        // For β = 0.5 and the paper's gear table, lower gears are strictly
        // more efficient per work second — the policy's low-to-high search
        // therefore finds the most efficient admissible gear first.
        let m = paper_model();
        let gs = m.gears().clone();
        let mut prev = f64::NEG_INFINITY;
        for (id, _) in gs.ascending() {
            let coef = 0.5 * (gs.freq_ratio(id) - 1.0) + 1.0;
            let e = m.energy_per_work_second(id, coef);
            assert!(e > prev, "gear {id}: {e} <= {prev}");
            prev = e;
        }
    }

    #[test]
    fn custom_static_fraction() {
        let m = PaperDvfs::with_params(GearSet::paper(), 0.4, 2.5, 1.0);
        let top = m.gears().top();
        let share = m.p_static(top) / m.p_active(top);
        assert!((share - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "static fraction")]
    fn rejects_bad_static_fraction() {
        let _ = PaperDvfs::with_params(GearSet::paper(), 1.0, 2.5, 1.0);
    }

    #[test]
    fn utilization_curve_passes_through_gear_points() {
        let m = paper_model();
        let gs = m.gears().clone();
        let top_f = gs.get(gs.top()).freq_ghz;
        let pm: &dyn PowerModel = &m;
        for (id, g) in gs.ascending() {
            let u = g.freq_ghz / top_f;
            assert!(
                (pm.power(u) - m.p_active(id)).abs() < 1e-12,
                "gear {id}: curve and table disagree"
            );
        }
        assert!((pm.power(0.0) - m.p_idle()).abs() < 1e-12);
        // Clamped outside the unit interval.
        assert_eq!(pm.power(1.5), pm.power(1.0));
        assert_eq!(pm.power(-0.5), pm.power(0.0));
    }
}
