//! Priority lanes: route solve budget to the stalest calibrations,
//! with aging so nothing waits forever.
//!
//! A pending request's **base lane** comes from how stale its cohort's
//! *published* calibration is — the same request→adoption staleness
//! the fleet's devices measure. Stale cohorts are exactly the ones whose
//! devices are deciding from old models, so they get the budget first.
//!
//! Base lanes alone can starve: a perpetually-fresh cohort's request
//! would lose every pick to stale competitors. The aging rule fixes
//! that — every time a pending request is passed over, its skip count
//! rises, and `promote_after` skips buy one lane promotion. The
//! service's pick order is `(effective lane, skips, staleness)`, so:
//!
//! 1. after at most `2 × promote_after` skips any request rides the
//!    Hot lane;
//! 2. within a lane, the most-skipped request wins, and a served
//!    request leaves the queue while new arrivals start at zero skips
//!    — so a request that has waited `k` rounds can only lose to
//!    requests that have also waited ≥ `k` rounds, a set that only
//!    shrinks.
//!
//! Hence every admitted request is solved within
//! `2 × promote_after + pending_cohorts` pick rounds — the bounded-
//! wait guarantee the no-starvation soak asserts end to end.

/// The three priority lanes, hottest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Stalest calibrations: picked first.
    Hot,
    /// The steady-state middle.
    Normal,
    /// Fresh calibrations: picked last.
    Cold,
}

impl Lane {
    /// All lanes, hottest first — iteration order for reports.
    pub const ALL: [Lane; 3] = [Lane::Hot, Lane::Normal, Lane::Cold];

    /// Rank for ordering: 0 is hottest.
    pub fn rank(self) -> usize {
        match self {
            Lane::Hot => 0,
            Lane::Normal => 1,
            Lane::Cold => 2,
        }
    }

    /// Stable lowercase label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            Lane::Hot => "hot",
            Lane::Normal => "normal",
            Lane::Cold => "cold",
        }
    }

    /// One lane hotter (saturates at [`Lane::Hot`]).
    pub fn promote(self) -> Lane {
        match self {
            Lane::Hot | Lane::Normal => Lane::Hot,
            Lane::Cold => Lane::Normal,
        }
    }
}

/// Lane thresholds and the aging rate.
#[derive(Debug, Clone, Copy)]
pub struct LaneConfig {
    /// Published-calibration staleness at or above which a cohort's
    /// request rides the Hot lane. Cohorts with no published
    /// calibration at all (seq 0) are infinitely stale, hence Hot.
    pub hot_staleness_s: f64,
    /// Staleness at or below which the request rides Cold.
    pub cold_staleness_s: f64,
    /// Skips that buy one lane promotion. Lower = faster aging.
    pub promote_after: u32,
}

impl Default for LaneConfig {
    fn default() -> Self {
        LaneConfig {
            hot_staleness_s: 300.0,
            cold_staleness_s: 30.0,
            promote_after: 4,
        }
    }
}

/// The base lane for a cohort whose published calibration is
/// `staleness_s` old (`f64::INFINITY` for never-calibrated cohorts).
pub fn classify(staleness_s: f64, config: &LaneConfig) -> Lane {
    if staleness_s >= config.hot_staleness_s {
        Lane::Hot
    } else if staleness_s <= config.cold_staleness_s {
        Lane::Cold
    } else {
        Lane::Normal
    }
}

/// The lane a request with `skips` passed-over rounds actually
/// competes in: its base lane promoted once per `promote_after` skips.
pub fn effective(base: Lane, skips: u32, promote_after: u32) -> Lane {
    let promotions = skips / promote_after.max(1);
    let mut lane = base;
    for _ in 0..promotions.min(2) {
        lane = lane.promote();
    }
    lane
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_staleness() {
        let config = LaneConfig::default();
        assert_eq!(classify(f64::INFINITY, &config), Lane::Hot);
        assert_eq!(classify(300.0, &config), Lane::Hot);
        assert_eq!(classify(150.0, &config), Lane::Normal);
        assert_eq!(classify(30.0, &config), Lane::Cold);
        assert_eq!(classify(0.0, &config), Lane::Cold);
    }

    #[test]
    fn aging_promotes_to_hot_within_two_cycles() {
        assert_eq!(effective(Lane::Cold, 0, 4), Lane::Cold);
        assert_eq!(effective(Lane::Cold, 3, 4), Lane::Cold);
        assert_eq!(effective(Lane::Cold, 4, 4), Lane::Normal);
        assert_eq!(effective(Lane::Cold, 8, 4), Lane::Hot);
        assert_eq!(effective(Lane::Cold, 800, 4), Lane::Hot, "saturates");
        assert_eq!(effective(Lane::Normal, 4, 4), Lane::Hot);
        assert_eq!(effective(Lane::Hot, 100, 4), Lane::Hot);
        // promote_after 0 is treated as 1, not a division by zero.
        assert_eq!(effective(Lane::Cold, 2, 0), Lane::Hot);
    }

    #[test]
    fn rank_orders_hottest_first() {
        assert!(Lane::Hot.rank() < Lane::Normal.rank());
        assert!(Lane::Normal.rank() < Lane::Cold.rank());
        assert_eq!(Lane::ALL.map(Lane::label), ["hot", "normal", "cold"]);
        assert_eq!(Lane::Cold.promote().promote(), Lane::Hot);
    }
}
