//! The prime-number effect: sweep the rank count, show how the speedup dips
//! and the code balance spikes when the rank count is prime — and how
//! switching SpecI2M off makes the effect disappear (at the cost of a higher
//! baseline code balance).
//!
//! ```text
//! cargo run --release --example prime_effect
//! ```

use cloverleaf_wa::core::decomp::is_prime;
use cloverleaf_wa::core::{loop_catalogue, ScalingModel, TrafficOptions};
use cloverleaf_wa::machine::icelake_sp_8360y;

fn main() {
    let machine = icelake_sp_8360y();
    let model = ScalingModel::new(machine);

    let with_speci2m = model.sweep(72, TrafficOptions::original);
    let without = model.sweep(72, TrafficOptions::speci2m_off);

    let am04_column = loop_catalogue()
        .iter()
        .position(|l| l.name == "am04")
        .expect("am04 is a catalogue loop");
    println!("ranks  inner  prime   speedup(on)  speedup(off)  am04 byte/it(on)");
    for ranks in [16usize, 17, 18, 19, 20, 36, 37, 38, 53, 64, 71, 72] {
        let on = &with_speci2m[ranks - 1];
        let off = &without[ranks - 1];
        let am04 = on.loop_balances[am04_column];
        println!(
            "{:>5}  {:>5}  {:>5}  {:>11.2}  {:>12.2}  {:>16.2}",
            ranks,
            on.local_inner,
            if is_prime(ranks) { "yes" } else { "" },
            on.speedup,
            off.speedup,
            am04,
        );
    }

    let drop_71 = 1.0 - with_speci2m[70].speedup / with_speci2m[71].speedup;
    println!(
        "\n71 ranks (prime, 216-element rows) loses {:.1} % speedup vs 72 ranks;",
        drop_71 * 100.0
    );
    println!("with SpecI2M disabled the prime dips vanish, but every store pays a write-allocate.");
}
