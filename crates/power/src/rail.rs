//! Per-subsystem power rails.
//!
//! Following Subramaniam & Feng's subsystem-level decomposition, a machine's
//! draw splits into rails — CPU, memory, interconnect — each priced by its
//! own [`PowerModel`]. A [`RailSet`] is itself a `PowerModel` whose draw is
//! the sum of its rails', so everything downstream (cap enforcement, sleep
//! ladders, energy reports) keeps working on the aggregate unchanged while
//! the ledger can attribute energy per rail.

use bsld_cluster::GearSet;
use bsld_model::GearId;

use crate::model::PowerModel;

/// Which subsystem a rail meters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RailKind {
    /// Processor cores (the paper's model lives here).
    Cpu,
    /// DRAM / memory subsystem.
    Memory,
    /// Network / interconnect.
    Interconnect,
}

impl RailKind {
    /// Every rail kind, in canonical order (CPU first).
    pub const ALL: [RailKind; 3] = [RailKind::Cpu, RailKind::Memory, RailKind::Interconnect];

    /// Stable lowercase label used in report column names.
    pub fn label(&self) -> &'static str {
        match self {
            RailKind::Cpu => "cpu",
            RailKind::Memory => "mem",
            RailKind::Interconnect => "net",
        }
    }
}

/// One powered subsystem: a kind plus the model pricing it.
#[derive(Debug, Clone)]
pub struct Rail {
    kind: RailKind,
    model: Box<dyn PowerModel>,
}

impl Rail {
    /// A rail of `kind` priced by `model`.
    pub fn new(kind: RailKind, model: Box<dyn PowerModel>) -> Self {
        Rail { kind, model }
    }

    /// The subsystem this rail meters.
    pub fn kind(&self) -> RailKind {
        self.kind
    }

    /// The model pricing this rail.
    pub fn model(&self) -> &dyn PowerModel {
        self.model.as_ref()
    }
}

/// An ordered set of rails; the machine's total power model.
///
/// The single-rail form ([`RailSet::cpu`]) is the bit-identical default: a
/// one-element sum starts at `0.0`, and `0.0 + x == x` exactly in IEEE
/// arithmetic, so the aggregate draw equals the lone model's draw bit for
/// bit.
#[derive(Debug, Clone)]
pub struct RailSet {
    rails: Vec<Rail>,
}

impl RailSet {
    /// A single CPU rail — the default machine layout.
    pub fn cpu(model: Box<dyn PowerModel>) -> RailSet {
        RailSet {
            rails: vec![Rail::new(RailKind::Cpu, model)],
        }
    }

    /// A validated multi-rail set: non-empty, CPU rail first, no duplicate
    /// kinds, and every rail pricing the same number of gears.
    pub fn new(rails: Vec<Rail>) -> Result<RailSet, String> {
        if rails.is_empty() {
            return Err("a rail set needs at least one rail".to_string());
        }
        if rails[0].kind != RailKind::Cpu {
            return Err("the first rail must be the CPU rail".to_string());
        }
        let gear_count = rails[0].model.gears().len();
        for (i, r) in rails.iter().enumerate() {
            if rails[..i].iter().any(|o| o.kind == r.kind) {
                return Err(format!("duplicate {} rail", r.kind.label()));
            }
            if r.model.gears().len() != gear_count {
                return Err(format!(
                    "{} rail prices {} gears, cpu rail prices {gear_count}",
                    r.kind.label(),
                    r.model.gears().len()
                ));
            }
        }
        Ok(RailSet { rails })
    }

    /// The rails, CPU first.
    pub fn rails(&self) -> &[Rail] {
        &self.rails
    }

    /// Number of rails.
    pub fn len(&self) -> usize {
        self.rails.len()
    }

    /// `len() == 0` is impossible by construction; provided for clippy's
    /// `len_without_is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl PowerModel for RailSet {
    fn gears(&self) -> &GearSet {
        self.rails[0].model.gears()
    }

    fn p_active(&self, gear: GearId) -> f64 {
        self.rails.iter().map(|r| r.model.p_active(gear)).sum()
    }

    fn p_idle(&self) -> f64 {
        self.rails.iter().map(|r| r.model.p_idle()).sum()
    }

    fn p_static(&self, gear: GearId) -> f64 {
        self.rails.iter().map(|r| r.model.p_static(gear)).sum()
    }

    fn power(&self, utilization: f64) -> f64 {
        self.rails.iter().map(|r| r.model.power(utilization)).sum()
    }

    fn clone_model(&self) -> Box<dyn PowerModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Constant, Linear};
    use crate::PaperDvfs;

    fn paper() -> PaperDvfs {
        PaperDvfs::paper(GearSet::paper())
    }

    #[test]
    fn single_rail_sum_is_bit_identical() {
        let pm = paper();
        let set = RailSet::cpu(Box::new(pm.clone()));
        for (id, _) in GearSet::paper().ascending() {
            assert_eq!(set.p_active(id).to_bits(), pm.p_active(id).to_bits());
        }
        assert_eq!(set.p_idle().to_bits(), pm.p_idle().to_bits());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn multi_rail_aggregates_sum() {
        let pm = paper();
        let set = RailSet::new(vec![
            Rail::new(RailKind::Cpu, Box::new(pm.clone())),
            Rail::new(
                RailKind::Memory,
                Box::new(Linear::new(GearSet::paper(), 1.0, 3.0)),
            ),
            Rail::new(
                RailKind::Interconnect,
                Box::new(Constant::new(GearSet::paper(), 2.0)),
            ),
        ])
        .unwrap();
        assert_eq!(set.len(), 3);
        let top = GearSet::paper().top();
        let expected = pm.p_active(top) + 3.0 + 2.0;
        assert!((set.p_active(top) - expected).abs() < 1e-12);
        let expected_idle = pm.p_idle() + 1.0 + 2.0;
        assert!((set.p_idle() - expected_idle).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_layouts() {
        assert!(RailSet::new(vec![]).is_err());
        assert!(RailSet::new(vec![Rail::new(
            RailKind::Memory,
            Box::new(Constant::new(GearSet::paper(), 1.0))
        )])
        .is_err());
        assert!(RailSet::new(vec![
            Rail::new(RailKind::Cpu, Box::new(paper())),
            Rail::new(
                RailKind::Cpu,
                Box::new(Constant::new(GearSet::paper(), 1.0))
            ),
        ])
        .is_err());
    }
}
