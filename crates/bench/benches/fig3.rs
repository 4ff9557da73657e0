//! Fig. 3 reproduction: all five algorithms vs network size `n`
//! (K = 2 chargers, b_max = 50 kbps).
//!
//! (a) average longest tour duration (hours);
//! (b) average dead duration per sensor over the monitoring period
//! (minutes).
//!
//! Both panels are defined in `wrsn_bench::figures`. Knobs: `WRSN_SIZES`
//! (default `200,400,600,800,1000,1200`), `WRSN_INSTANCES` (default 10
//! for (a), capped at 5 for (b)), `WRSN_HORIZON_DAYS` (default 90).

fn main() {
    wrsn_bench::figures::run_bench(3);
}
