//! §7 walkthrough: the educational network's antagonistic traffic shift.
//!
//! Generates the EDU trace across the campus closure (Mar 11), re-derives
//! connection directionality the way the paper does, and prints the
//! volume collapse, the in/out flip and the per-class connection growth.
//!
//! ```sh
//! cargo run --release --example edu_network
//! ```

use lockdown::analysis::consumer::FlowConsumer;
use lockdown::analysis::edu::{EduAnalysis, EduTrafficClass, Orientation};
use lockdown::core::{Context, Fidelity};
use lockdown_flow::time::Date;

fn main() {
    let ctx = Context::new(Fidelity::Standard);
    let generator = ctx.edu_generator();

    // Generate the capture window (§2: Feb 28 – May 8) and stream it
    // through the analysis.
    let start = Date::new(2020, 2, 27);
    let end = Date::new(2020, 4, 26);
    let mut analysis = EduAnalysis::new();
    let mut total_flows = 0usize;
    for date in start.range_inclusive(end) {
        for hour in 0..24 {
            let flows = generator.generate_hour(date, hour);
            total_flows += flows.len();
            analysis.observe_all(&flows);
        }
    }
    println!(
        "EDU capture: {} flows over {} days; {:.0}% direction-undetermined (paper: 39%)",
        total_flows,
        start.days_until(end) + 1,
        analysis.undetermined_fraction() * 100.0
    );

    // Volume and directionality before/after the closure.
    let day_report = |label: &str, d: Date| {
        let vol = analysis.ingress.daily_total(d) + analysis.egress.daily_total(d);
        let ratio = analysis.in_out_ratio(d).unwrap_or(f64::NAN);
        println!(
            "  {label} ({}): volume {vol:>15} B, in/out ratio {ratio:>5.1}",
            d.iso()
        );
    };
    println!("\nvolume & direction:");
    day_report("base Tuesday      ", Date::new(2020, 3, 3));
    day_report("transition Tuesday", Date::new(2020, 3, 17));
    day_report("online Tuesday    ", Date::new(2020, 4, 21));

    // Per-class incoming connection growth (base week vs online week).
    println!("\nincoming connection growth (median daily, base -> online):");
    for (label, class, paper) in [
        ("web           ", EduTrafficClass::Web, 1.7),
        ("email         ", EduTrafficClass::Email, 1.8),
        ("VPN           ", EduTrafficClass::Vpn, 4.8),
        ("remote desktop", EduTrafficClass::RemoteDesktop, 5.9),
        ("SSH           ", EduTrafficClass::Ssh, 9.1),
    ] {
        let base = analysis.median_daily(
            class,
            Orientation::Incoming,
            Date::new(2020, 2, 27),
            Date::new(2020, 3, 4),
        );
        let online = analysis.median_daily(
            class,
            Orientation::Incoming,
            Date::new(2020, 4, 16),
            Date::new(2020, 4, 22),
        );
        println!(
            "  {label}: {:>5.1}x   (paper: {paper}x)",
            online / base.max(1.0)
        );
    }

    // Outgoing collapses.
    println!("\noutgoing connection change (median daily, base -> online):");
    for (label, class) in [
        ("push notifications", EduTrafficClass::PushNotif),
        ("Spotify           ", EduTrafficClass::Spotify),
        ("QUIC              ", EduTrafficClass::Quic),
        ("web               ", EduTrafficClass::Web),
    ] {
        let base = analysis.median_daily(
            class,
            Orientation::Outgoing,
            Date::new(2020, 2, 27),
            Date::new(2020, 3, 4),
        );
        let online = analysis.median_daily(
            class,
            Orientation::Outgoing,
            Date::new(2020, 4, 16),
            Date::new(2020, 4, 22),
        );
        println!(
            "  {label}: {:>+6.0}%",
            (online / base.max(1.0) - 1.0) * 100.0
        );
    }
}
