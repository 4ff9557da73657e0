//! Fig. 4 reproduction: all five algorithms vs maximum data rate `b_max`
//! (n = 1000 sensors, K = 2 chargers, b_min = 1 kbps).
//!
//! (a) average longest tour duration (hours);
//! (b) average dead duration per sensor (minutes).
//!
//! Both panels are defined in `wrsn_bench::figures`. Knobs: `WRSN_RATES`
//! (default `10,20,30,40,50` kbps), `WRSN_N` (default 1000),
//! `WRSN_INSTANCES` (default 10 for (a), capped at 5 for (b)),
//! `WRSN_HORIZON_DAYS` (default 90).

fn main() {
    wrsn_bench::figures::run_bench(4);
}
