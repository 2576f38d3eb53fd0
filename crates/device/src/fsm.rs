//! The action vocabulary and the power-state transition function (Fig. 7).
//!
//! In the paper, *actions* are system calls and binder messages that move
//! the device between power states (e.g. "the screen-on event wakes the
//! entire phone and begins to receive Internet data"). The raw 200+
//! system calls recorded by the profiler (see [`crate::syscall`]) are
//! classified into the semantic action classes below; the transition
//! function encodes the hardware-status edges of Fig. 7.

use std::fmt;

use capman_battery::chemistry::Class;

use crate::states::{CpuState, DeviceState, ScreenState, TecState, WifiState};

/// Semantic action classes (system-call / binder-message categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// User lights the screen (wakes the whole phone).
    ScreenOn,
    /// Screen times out or the user locks the phone.
    ScreenOff,
    /// An application is launched (binder spawn, exec).
    AppLaunch,
    /// The foreground application exits.
    AppExit,
    /// Compute-heavy system calls keep the CPU in C0.
    CpuBusy,
    /// The scheduler idles the CPU one level.
    CpuIdle,
    /// The governor drops the CPU into deep idle.
    CpuDeepIdle,
    /// Full suspend (wakelocks released).
    Suspend,
    /// Wake from suspend (alarm, push notification).
    Wake,
    /// The radio starts receiving (low-rate regime).
    NetReceiveStart,
    /// The radio starts transmitting (high-rate regime).
    NetSendStart,
    /// Network activity stops.
    NetStop,
    /// The thermal governor boots the TEC.
    TecOn,
    /// The thermal governor drops the TEC.
    TecOff,
    /// The switch facility selects the big battery.
    SwitchToBig,
    /// The switch facility selects the LITTLE battery.
    SwitchToLittle,
    /// A timer tick with no state change.
    TimerTick,
}

impl Action {
    /// Every action class.
    pub const ALL: [Action; 17] = [
        Action::ScreenOn,
        Action::ScreenOff,
        Action::AppLaunch,
        Action::AppExit,
        Action::CpuBusy,
        Action::CpuIdle,
        Action::CpuDeepIdle,
        Action::Suspend,
        Action::Wake,
        Action::NetReceiveStart,
        Action::NetSendStart,
        Action::NetStop,
        Action::TecOn,
        Action::TecOff,
        Action::SwitchToBig,
        Action::SwitchToLittle,
        Action::TimerTick,
    ];

    /// Whether this action is a battery-switch decision (the decisions
    /// CAPMAN's MDP graph is built around).
    pub fn is_battery_switch(self) -> bool {
        matches!(self, Action::SwitchToBig | Action::SwitchToLittle)
    }

    /// Dense index for array-backed MDPs.
    pub fn index(self) -> usize {
        Action::ALL
            .iter()
            .position(|&a| a == self)
            .expect("action present in ALL")
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Error returned when parsing an unknown action name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseActionError(String);

impl fmt::Display for ParseActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown action name: {}", self.0)
    }
}

impl std::error::Error for ParseActionError {}

impl std::str::FromStr for Action {
    type Err = ParseActionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Action::ALL
            .iter()
            .copied()
            .find(|a| format!("{a:?}") == s)
            .ok_or_else(|| ParseActionError(s.to_string()))
    }
}

/// Apply `action` to `state` — the hardware state-transition function.
pub fn transition(state: DeviceState, action: Action) -> DeviceState {
    let mut next = state;
    match action {
        Action::ScreenOn => {
            next.screen = ScreenState::On;
            next.cpu = CpuState::C0;
        }
        Action::ScreenOff => {
            next.screen = ScreenState::Off;
            if next.cpu == CpuState::C0 {
                next.cpu = CpuState::C1;
            }
        }
        Action::AppLaunch | Action::CpuBusy => {
            next.cpu = CpuState::C0;
        }
        Action::AppExit => {
            if next.cpu == CpuState::C0 {
                next.cpu = CpuState::C1;
            }
        }
        Action::CpuIdle => {
            next.cpu = match next.cpu {
                CpuState::C0 => CpuState::C1,
                CpuState::C1 => CpuState::C2,
                other => other,
            };
        }
        Action::CpuDeepIdle => {
            if next.cpu != CpuState::Sleep {
                next.cpu = CpuState::C2;
            }
        }
        Action::Suspend => {
            next.cpu = CpuState::Sleep;
            next.screen = ScreenState::Off;
            next.wifi = WifiState::Idle;
        }
        Action::Wake => {
            if next.cpu == CpuState::Sleep {
                next.cpu = CpuState::C0;
            }
        }
        Action::NetReceiveStart => {
            next.wifi = WifiState::Access;
            next.cpu = CpuState::C0;
        }
        Action::NetSendStart => {
            next.wifi = WifiState::Send;
            next.cpu = CpuState::C0;
        }
        Action::NetStop => {
            next.wifi = WifiState::Idle;
        }
        Action::TecOn => {
            next.tec = TecState::On;
        }
        Action::TecOff => {
            next.tec = TecState::Off;
        }
        Action::SwitchToBig => {
            next.battery = Class::Big;
        }
        Action::SwitchToLittle => {
            next.battery = Class::Little;
        }
        Action::TimerTick => {}
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screen_on_wakes_the_phone() {
        // The paper's running example: the phone wakes to receive a
        // Wikipedia update — SLEEP/OFF goes to C0/ON.
        let s = DeviceState::asleep().apply(Action::ScreenOn);
        assert_eq!(s.cpu, CpuState::C0);
        assert_eq!(s.screen, ScreenState::On);
    }

    #[test]
    fn suspend_quiesces_everything_but_battery_and_tec() {
        let mut s = DeviceState::awake();
        s.tec = TecState::On;
        let s = s.apply(Action::Suspend);
        assert!(s.is_suspended());
        assert_eq!(s.wifi, WifiState::Idle);
        assert_eq!(s.tec, TecState::On, "thermal control is independent");
    }

    #[test]
    fn cpu_idle_steps_down_one_level() {
        let s = DeviceState::awake();
        let s1 = s.apply(Action::CpuIdle);
        assert_eq!(s1.cpu, CpuState::C1);
        let s2 = s1.apply(Action::CpuIdle);
        assert_eq!(s2.cpu, CpuState::C2);
        let s3 = s2.apply(Action::CpuIdle);
        assert_eq!(s3.cpu, CpuState::C2, "idle never suspends by itself");
    }

    #[test]
    fn network_receive_wakes_cpu() {
        let s = DeviceState::asleep()
            .apply(Action::Wake)
            .apply(Action::NetReceiveStart);
        assert_eq!(s.wifi, WifiState::Access);
        assert_eq!(s.cpu, CpuState::C0);
    }

    #[test]
    fn battery_switch_changes_only_battery() {
        let s = DeviceState::awake().apply(Action::SwitchToLittle);
        assert_eq!(s.battery, Class::Little);
        assert_eq!(s.cpu, DeviceState::awake().cpu);
        let s = s.apply(Action::SwitchToBig);
        assert_eq!(s.battery, Class::Big);
    }

    #[test]
    fn timer_tick_is_identity() {
        for state in DeviceState::all() {
            assert_eq!(state.apply(Action::TimerTick), state);
        }
    }

    #[test]
    fn transitions_stay_in_the_state_space() {
        for state in DeviceState::all() {
            for &action in &Action::ALL {
                let next = state.apply(action);
                // index() panics if the state were malformed.
                let _ = next.index();
            }
        }
    }

    #[test]
    fn battery_switch_actions_are_flagged() {
        assert!(Action::SwitchToBig.is_battery_switch());
        assert!(Action::SwitchToLittle.is_battery_switch());
        assert!(!Action::ScreenOn.is_battery_switch());
    }

    #[test]
    fn action_indices_are_dense_and_unique() {
        let mut seen = vec![false; Action::ALL.len()];
        for &a in &Action::ALL {
            assert!(!seen[a.index()]);
            seen[a.index()] = true;
        }
    }

    #[test]
    fn action_names_round_trip_through_from_str() {
        for &a in &Action::ALL {
            let parsed: Action = a.to_string().parse().expect("round trip");
            assert_eq!(parsed, a);
        }
        assert!("NotAnAction".parse::<Action>().is_err());
    }

    #[test]
    fn wake_only_acts_from_sleep() {
        let awake = DeviceState::awake();
        assert_eq!(awake.apply(Action::Wake), awake);
    }
}
