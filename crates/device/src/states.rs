//! Device power states and the composite state vector (Fig. 7).
//!
//! Each component exposes a small set of power states; the composite
//! [`DeviceState`] is the cartesian product, plus the active battery.
//! CAPMAN's MDP runs over this state space (the paper's finite MDP has
//! ~50 reachable state nodes out of the 96-element product).

use std::fmt;

use capman_battery::chemistry::Class;

use crate::fsm::Action;

/// CPU power states (C-states plus deep sleep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CpuState {
    /// Deep sleep / suspend.
    Sleep,
    /// Deep idle (caches flushed).
    C2,
    /// Light idle (clock gated).
    C1,
    /// Active execution.
    C0,
}

impl CpuState {
    /// All CPU states, lowest power first.
    pub const ALL: [CpuState; 4] = [CpuState::Sleep, CpuState::C2, CpuState::C1, CpuState::C0];
}

/// Screen power states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScreenState {
    /// Panel off.
    Off,
    /// Panel on (power depends on brightness).
    On,
}

impl ScreenState {
    /// All screen states.
    pub const ALL: [ScreenState; 2] = [ScreenState::Off, ScreenState::On];
}

/// WiFi power states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WifiState {
    /// Associated but idle.
    Idle,
    /// Receiving (low packet rate regime of Table II).
    Access,
    /// Transmitting (high packet rate regime).
    Send,
}

impl WifiState {
    /// All WiFi states.
    pub const ALL: [WifiState; 3] = [WifiState::Idle, WifiState::Access, WifiState::Send];
}

/// TEC power states (the module is driven on/off at rated current).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TecState {
    /// Module off.
    Off,
    /// Module on at rated current.
    On,
}

impl TecState {
    /// All TEC states.
    pub const ALL: [TecState; 2] = [TecState::Off, TecState::On];
}

/// The composite device power state — the MDP state vector of Fig. 8,
/// e.g. `{SLEEP, OFF, ..., big}` or `{C0, ON, ..., LITTLE}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceState {
    /// CPU state.
    pub cpu: CpuState,
    /// Screen state.
    pub screen: ScreenState,
    /// WiFi state.
    pub wifi: WifiState,
    /// TEC state.
    pub tec: TecState,
    /// The battery carrying the load.
    pub battery: Class,
}

/// Number of distinct composite device states.
pub const STATE_COUNT: usize = 4 * 2 * 3 * 2 * 2;

impl DeviceState {
    /// The suspended phone: everything asleep, big battery selected.
    pub fn asleep() -> Self {
        DeviceState {
            cpu: CpuState::Sleep,
            screen: ScreenState::Off,
            wifi: WifiState::Idle,
            tec: TecState::Off,
            battery: Class::Big,
        }
    }

    /// The fully awake phone serving an interactive app.
    pub fn awake() -> Self {
        DeviceState {
            cpu: CpuState::C0,
            screen: ScreenState::On,
            wifi: WifiState::Access,
            tec: TecState::Off,
            battery: Class::Big,
        }
    }

    /// Dense index in `[0, STATE_COUNT)` for array-backed MDPs.
    pub fn index(&self) -> usize {
        let cpu = match self.cpu {
            CpuState::Sleep => 0,
            CpuState::C2 => 1,
            CpuState::C1 => 2,
            CpuState::C0 => 3,
        };
        let screen = match self.screen {
            ScreenState::Off => 0,
            ScreenState::On => 1,
        };
        let wifi = match self.wifi {
            WifiState::Idle => 0,
            WifiState::Access => 1,
            WifiState::Send => 2,
        };
        let tec = match self.tec {
            TecState::Off => 0,
            TecState::On => 1,
        };
        let battery = match self.battery {
            Class::Big => 0,
            Class::Little => 1,
        };
        (((cpu * 2 + screen) * 3 + wifi) * 2 + tec) * 2 + battery
    }

    /// Decode a dense index back into a state.
    ///
    /// # Panics
    ///
    /// Panics if `index >= STATE_COUNT`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < STATE_COUNT, "state index out of range: {index}");
        let battery = if index.is_multiple_of(2) {
            Class::Big
        } else {
            Class::Little
        };
        let rest = index / 2;
        let tec = if rest.is_multiple_of(2) {
            TecState::Off
        } else {
            TecState::On
        };
        let rest = rest / 2;
        let wifi = WifiState::ALL[rest % 3];
        let rest = rest / 3;
        let screen = ScreenState::ALL[rest % 2];
        let rest = rest / 2;
        let cpu = CpuState::ALL[rest % 4];
        DeviceState {
            cpu,
            screen,
            wifi,
            tec,
            battery,
        }
    }

    /// Iterate over every composite state.
    pub fn all() -> impl Iterator<Item = DeviceState> {
        (0..STATE_COUNT).map(DeviceState::from_index)
    }

    /// Apply an action, returning the successor state (the FSM of Fig. 7).
    pub fn apply(&self, action: Action) -> DeviceState {
        crate::fsm::transition(*self, action)
    }

    /// Returns this state with a different active battery.
    pub fn with_battery(mut self, battery: Class) -> Self {
        self.battery = battery;
        self
    }

    /// Whether the phone is fully suspended (CPU asleep, screen off).
    pub fn is_suspended(&self) -> bool {
        self.cpu == CpuState::Sleep && self.screen == ScreenState::Off
    }
}

impl Default for DeviceState {
    fn default() -> Self {
        DeviceState::asleep()
    }
}

impl fmt::Display for DeviceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{:?}, {:?}, {:?}, TEC {:?}, {}}}",
            self.cpu, self.screen, self.wifi, self.tec, self.battery
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_is_bijective() {
        let mut seen = [false; STATE_COUNT];
        for state in DeviceState::all() {
            let i = state.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
            assert_eq!(DeviceState::from_index(i), state);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn state_count_is_96() {
        assert_eq!(STATE_COUNT, 96);
        assert_eq!(DeviceState::all().count(), 96);
    }

    #[test]
    fn asleep_state_is_suspended() {
        let s = DeviceState::asleep();
        assert!(s.is_suspended());
        assert_eq!(s.battery, Class::Big);
    }

    #[test]
    fn awake_state_is_not_suspended() {
        assert!(!DeviceState::awake().is_suspended());
    }

    #[test]
    fn with_battery_changes_only_battery() {
        let s = DeviceState::asleep().with_battery(Class::Little);
        assert_eq!(s.battery, Class::Little);
        assert_eq!(s.cpu, CpuState::Sleep);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_out_of_range() {
        let _ = DeviceState::from_index(STATE_COUNT);
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = DeviceState::asleep();
        let text = s.to_string();
        assert!(text.contains("Sleep"));
        assert!(text.contains("big"));
    }
}
