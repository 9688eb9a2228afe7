//! Regenerates **Table 5** (dataset statistics): `|T|`, `|U|`, average trip
//! distance, and average travel time for both cities.
//!
//! Usage: `exp_table5 [--scale test|bench|paper]`

use mroam_experiments::{build_city, Args, CityKind};

fn main() {
    let args = Args::from_env(&["scale"]);
    let scale = args.scale();
    println!("Table 5: Statistics of Datasets (synthetic, scale {scale:?})");
    println!(
        "{:<6} {:>10} {:>8} {:>12} {:>12}",
        "", "|T|", "|U|", "AvgDistance", "AvgTravelTime"
    );
    for kind in [CityKind::Nyc, CityKind::Sg] {
        let city = build_city(kind, scale);
        println!("{}", city.stats().table_row());
    }
    println!();
    println!("Paper reference: NYC 1.7e6 / 1462 / 2.9km / 569s");
    println!("                 SG  2.2e6 / 4092 / 4.2km / 1342s");
}
