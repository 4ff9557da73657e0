//! Fig. 5 reproduction: all five algorithms vs the number of chargers `K`
//! (n = 1000 sensors, b_max = 50 kbps).
//!
//! (a) average longest tour duration (hours);
//! (b) average dead duration per sensor (minutes).
//!
//! Both panels are defined in `wrsn_bench::figures`. Knobs: `WRSN_KS`
//! (default `1,2,3,4,5`), `WRSN_N` (default 1000), `WRSN_INSTANCES`
//! (default 10 for (a), capped at 5 for (b)), `WRSN_HORIZON_DAYS`
//! (default 90).

fn main() {
    wrsn_bench::figures::run_bench(5);
}
